//! Panic-path budget.
//!
//! * **PB001** — a crate's count of `.unwrap()`/`.expect(` calls in
//!   non-test code exceeds its checked-in baseline. The baseline only
//!   ratchets down: fixing panics lowers it (via `--update-baseline`),
//!   and new code has to stay within what is left.

use crate::scan::FileAnalysis;
use crate::Finding;
use std::collections::BTreeMap;

/// Counts panic-path call sites per crate across all analysed files.
#[must_use]
pub fn count(analyses: &[FileAnalysis]) -> BTreeMap<String, usize> {
    let mut per_crate: BTreeMap<String, usize> = BTreeMap::new();
    for analysis in analyses {
        let mut n = 0;
        for pattern in [".unwrap()", ".expect("] {
            let mut from = 0;
            while let Some(rel) = analysis.clean[from..].find(pattern) {
                let at = from + rel;
                from = at + pattern.len();
                if !analysis.in_test(at) {
                    n += 1;
                }
            }
        }
        *per_crate.entry(crate_of(&analysis.rel_path)).or_insert(0) += n;
    }
    per_crate
}

/// Maps a repo-relative path to its owning crate name.
fn crate_of(rel_path: &str) -> String {
    rel_path
        .strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
        .to_owned()
}

/// Compares counts against the baseline budget and reports overruns.
pub fn check(
    counts: &BTreeMap<String, usize>,
    budget: &[(String, usize)],
    findings: &mut Vec<Finding>,
) {
    for (krate, &n) in counts {
        let allowed = budget
            .iter()
            .find(|(name, _)| name == krate)
            .map_or(0, |&(_, b)| b);
        if n > allowed {
            findings.push(Finding {
                rule: "PB001".to_owned(),
                path: krate.clone(),
                line: 0,
                message: format!(
                    "panic budget exceeded: {n} unwrap/expect sites in non-test code \
                     (baseline allows {allowed}); handle the error or ratchet with \
                     --update-baseline"
                ),
            });
        }
    }
}

/// Serialises counts in the baseline file format (`crate count` lines).
#[must_use]
pub fn baseline_text(counts: &BTreeMap<String, usize>) -> String {
    let mut out = String::from(
        "# shield5g-lint panic-path baseline: unwrap/expect sites per crate\n\
         # (non-test code). Ratchet-down only; regenerate with\n\
         # `cargo run -p shield5g-lint -- --update-baseline`.\n",
    );
    for (krate, n) in counts {
        out.push_str(&format!("{krate} {n}\n"));
    }
    out
}

/// Parses the baseline file format.
#[must_use]
pub fn parse_baseline(text: &str) -> Vec<(String, usize)> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next()?;
            let n = parts.next()?.parse().ok()?;
            Some((name.to_owned(), n))
        })
        .collect()
}
