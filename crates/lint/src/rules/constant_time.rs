//! Constant-time rule for field-arithmetic files.
//!
//! * **CT001** — a file listed in [`FILES`] contains an
//!   `if`, `while`, `match`, `&&`, `||` or `?` outside `cfg(test)`.
//!   Those files hold arithmetic on secret-derived values (the X25519
//!   ladder state, the Poly1305 key and accumulator), where a
//!   data-dependent branch makes both the timing and — through
//!   mispredictions — the host cost a function of the key. The rule is
//!   deliberately syntactic: `for` over a public range, masks and
//!   arithmetic selects are all that such code needs, so the branching
//!   constructs are banned outright rather than proved public. It is
//!   token-level: a zero-argument closure (`||`) or a double reference
//!   (`&&x`) trips it as well and has to be written another way.

use crate::lexer::find_word;
use crate::scan::FileAnalysis;
use crate::Finding;

/// The rule's id.
pub(crate) const ID: &str = "CT001";

/// The files that must be straight-line outside `cfg(test)`: the X25519
/// ladder and comb and the Poly1305 limb arithmetic.
pub const FILES: [&str; 3] = [
    "crates/crypto/src/x25519.rs",
    "crates/crypto/src/x25519/comb.rs",
    "crates/crypto/src/poly1305.rs",
];

/// Control-flow keywords that branch on their operand.
const KEYWORDS: [&str; 3] = ["if", "while", "match"];

/// Short-circuit and early-return operators.
const OPERATORS: [&str; 3] = ["&&", "||", "?"];

/// Runs the constant-time pass over one file.
pub(crate) fn check(analysis: &FileAnalysis, findings: &mut Vec<Finding>) {
    if !FILES.contains(&analysis.rel_path.as_str()) {
        return;
    }
    let clean = analysis.clean.as_str();
    let mut hits: Vec<(usize, &str)> = OPERATORS
        .iter()
        .flat_map(|token| clean.match_indices(token))
        .collect();
    for token in KEYWORDS {
        let mut from = 0;
        while let Some(at) = find_word(clean, token, from) {
            from = at + token.len();
            hits.push((at, token));
        }
    }
    for (at, token) in hits {
        if analysis.in_test(at) {
            continue;
        }
        findings.push(Finding {
            rule: ID.to_owned(),
            path: analysis.rel_path.clone(),
            line: analysis.line(at),
            message: format!(
                "constant-time file uses `{token}`; select with masks and loop over \
                 public ranges so no branch depends on a secret-derived value"
            ),
        });
    }
}
