//! Middleware-boundary rule for NF crates.
//!
//! * **MW001** — NF service code must not reach back into the concerns
//!   the middleware extraction moved out of it: constructing a retrier,
//!   consulting a `FaultInjector`, or managing an engine admission
//!   queue. Those are layers now (`shield5g_mw::{RetryLayer, FaultLayer,
//!   AdmissionLayer}`) composed onto the NF's stack at slice/pool
//!   construction; an NF that re-grows one in-line silently diverges
//!   from the stack the harnesses configure.

use crate::config::Config;
use crate::lexer::find_word;
use crate::scan::FileAnalysis;
use crate::Finding;

/// Tokens an NF source file must not mention: the retry machinery the
/// extraction deleted, the fault-injection hook, and the admission
/// machinery that now lives behind `AdmissionLayer`.
const MW001_PATTERNS: [&str; 5] = [
    "Retrier",
    "RetryLayer",
    "FaultInjector",
    "set_fault_injector",
    "AdmissionPolicy",
];

/// Runs the middleware-boundary pass over one file.
pub fn check(analysis: &FileAnalysis, config: &Config, findings: &mut Vec<Finding>) {
    if !config
        .mw_boundary_dirs
        .iter()
        .any(|dir| analysis.rel_path.starts_with(dir.as_str()))
    {
        return;
    }
    for pattern in MW001_PATTERNS {
        let mut from = 0;
        while let Some(at) = find_word(&analysis.clean, pattern, from) {
            from = at + pattern.len();
            if analysis.in_test(at) {
                continue;
            }
            findings.push(Finding {
                rule: "MW001".to_owned(),
                path: analysis.rel_path.clone(),
                line: analysis.line(at),
                message: format!(
                    "NF code references `{pattern}`; retry/fault/admission concerns \
                     belong in the middleware stack (shield5g-mw), not in the NF"
                ),
            });
        }
    }
}
