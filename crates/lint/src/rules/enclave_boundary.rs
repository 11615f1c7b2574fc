//! Enclave-boundary rule.
//!
//! * **EB001** — enclave-side code reaches for `std::fs`/`std::net`/
//!   `std::time`/`std::thread`/`std::process` directly. Inside the
//!   paper's SGX deployment every such call must route through the
//!   LibOS shim (`shield5g-libos`), which charges the syscall cost
//!   model and keeps the TCB measurable; a direct call silently
//!   escapes both.

use crate::config::Config;
use crate::scan::FileAnalysis;
use crate::Finding;

/// Host-OS facilities enclave-side modules may not touch directly.
const FORBIDDEN: [&str; 5] = [
    "std::fs",
    "std::net",
    "std::time",
    "std::thread",
    "std::process",
];

/// Runs the enclave-boundary pass over one file.
pub(crate) fn check(analysis: &FileAnalysis, config: &Config, findings: &mut Vec<Finding>) {
    if !config
        .enclave_files
        .iter()
        .any(|suffix| analysis.rel_path.contains(suffix.as_str()))
    {
        return;
    }
    for pattern in FORBIDDEN {
        let mut from = 0;
        while let Some(rel) = analysis.clean[from..].find(pattern) {
            let at = from + rel;
            from = at + pattern.len();
            // `std::time` must not swallow `std::time_travel` etc.
            let next = analysis.clean.as_bytes().get(at + pattern.len());
            if next.is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_') {
                continue;
            }
            if analysis.in_test(at) {
                continue;
            }
            findings.push(Finding {
                rule: "EB001".to_owned(),
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
