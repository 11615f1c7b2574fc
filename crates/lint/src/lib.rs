//! `shield5g-lint`: the two checks of the shield5g workspace that only
//! the source text can hold. Tier-1 runs them through
//! `tests/lint_tests.rs::repo_is_lint_clean`.
//!
//! What a type can hold (raw key bytes stay inside `shield5g_crypto`,
//! key fields that redact and wipe, a middleware stack's layer order) is
//! held by a type, what an NF may name by its crate's dependencies, and
//! spans close by a runtime check, not here. The two rules:
//!
//! * **Enclave boundary** (EB001): the enclave-side modules in
//!   [`rules::enclave_boundary::FILES`] must not call
//!   `std::fs`/`net`/`time`/`thread`/`process` directly; host-OS access
//!   goes through the LibOS shim.
//! * **Constant time** (CT001): the field-arithmetic files in
//!   [`rules::constant_time::FILES`] contain no `if`, `while`, `match`,
//!   `&&`, `||` or `?` outside `cfg(test)`.
//!
//! Determinism (no host clock, no default-hasher map) is checked by
//! clippy's `disallowed_types` over the root `clippy.toml`, and panic
//! sites by clippy's `unwrap_used`/`expect_used` over the workspace
//! `[lints]` table, not here. No finding of this linter can be waived.
//!
//! The linter is dependency-free: a small lexer ([`lexer`]) blanks
//! comments and literal bodies so the rules can use honest substring
//! and word matching, with `#[cfg(test)]` spans excluded. Each rule
//! lists its files by exact repo-relative path, [`run_repo`] lexes
//! exactly those, and a listed file that cannot be read is a finding,
//! so a renamed file fails the run instead of dropping out of its rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod lexer;
pub mod rules;
pub mod scan;

use scan::FileAnalysis;
use std::path::Path;

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`EB001`, `CT001`).
    pub rule: String,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line number; 0 when the finding is file level.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.rule, self.path, self.line, self.message
        )
    }
}

/// Result of a full lint run.
pub struct Report {
    /// All findings, ordered by rule then path.
    pub findings: Vec<Finding>,
    /// Number of files analysed.
    pub files_scanned: usize,
}

/// Runs every rule over the given files; each rule checks only the
/// files it lists.
/// Public for `tests/lint_tests.rs`.
#[must_use]
pub fn run_rules(analyses: &[FileAnalysis]) -> Report {
    report(analyses, Vec::new())
}

fn report(analyses: &[FileAnalysis], mut findings: Vec<Finding>) -> Report {
    for analysis in analyses {
        rules::enclave_boundary::check(analysis, &mut findings);
        rules::constant_time::check(analysis, &mut findings);
    }
    findings.sort_by(|a, b| (&a.rule, &a.path, a.line).cmp(&(&b.rule, &b.path, b.line)));
    // Two hits of one token on one line (`a? + b?`) are one finding:
    // collapse the duplicate reports of the same site.
    findings.dedup();
    Report {
        findings,
        files_scanned: analyses.len(),
    }
}

/// Lints the repository rooted at `root`: lexes every file a rule
/// lists, and reports a listed file that cannot be read as a file-level
/// finding of that rule.
#[must_use]
pub fn run_repo(root: &Path) -> Report {
    let mut analyses = Vec::new();
    let mut unreadable = Vec::new();
    for (rule, files) in rules::LISTS {
        for &path in files {
            match FileAnalysis::load(root, path) {
                Ok(analysis) => analyses.push(analysis),
                Err(e) => unreadable.push(Finding {
                    rule: rule.to_owned(),
                    path: path.to_owned(),
                    line: 0,
                    message: format!(
                        "listed file cannot be read ({e}); update `FILES` if it moved"
                    ),
                }),
            }
        }
    }
    report(&analyses, unreadable)
}
