//! Enclave-boundary rule.
//!
//! * **EB001** — enclave-side code reaches for `std::fs`/`std::net`/
//!   `std::time`/`std::thread`/`std::process` directly. Inside the
//!   paper's SGX deployment every such call must route through the
//!   LibOS shim (`shield5g-libos`), which charges the syscall cost
//!   model and keeps the TCB measurable; a direct call silently
//!   escapes both.

use crate::lexer::find_word;
use crate::scan::FileAnalysis;
use crate::Finding;

/// The rule's id.
pub(crate) const ID: &str = "EB001";

/// The enclave-side modules: code that the paper runs inside an SGX
/// enclave, where a direct `std::fs`/`net`/`time` call would bypass the
/// LibOS shim. The `crypto` crate runs enclave-side too but is not
/// listed: it is `no_std`, so those paths do not resolve there.
pub const FILES: [&str; 5] = [
    // The P-AKA module dispatch.
    "crates/core/src/paka.rs",
    // The HMEE model: enclave-side runtime, sealing, attestation and EPC.
    "crates/hmee/src/enclave.rs",
    "crates/hmee/src/seal.rs",
    "crates/hmee/src/attest.rs",
    "crates/hmee/src/epc.rs",
];

/// Host-OS facilities enclave-side modules may not touch directly.
const FORBIDDEN: [&str; 5] = [
    "std::fs",
    "std::net",
    "std::time",
    "std::thread",
    "std::process",
];

/// Runs the enclave-boundary pass over one file.
pub(crate) fn check(analysis: &FileAnalysis, findings: &mut Vec<Finding>) {
    if !FILES.contains(&analysis.rel_path.as_str()) {
        return;
    }
    for pattern in FORBIDDEN {
        let mut from = 0;
        // A whole-word match: `std::time` does not swallow `std::time_travel`.
        while let Some(at) = find_word(&analysis.clean, pattern, from) {
            from = at + pattern.len();
            if analysis.in_test(at) {
                continue;
            }
            findings.push(Finding {
                rule: ID.to_owned(),
                path: analysis.rel_path.clone(),
                line: analysis.line(at),
                message: format!(
                    "enclave-side module calls `{pattern}` directly; route host-OS access \
                     through the LibOS shim"
                ),
            });
        }
    }
}
