//! `shield5g-lint`: project-specific static analysis for the shield5g
//! workspace.
//!
//! Rule families, each guarding an invariant the compiler cannot (what a
//! type can hold — raw key bytes stay inside `shield5g_crypto`, key
//! fields that redact and wipe, a middleware stack's layer order — is
//! held by a type, what an NF may name by its crate's dependencies, and
//! spans close by a runtime check, not here):
//!
//! * **Enclave boundary** (EB001) — enclave-side modules must not call
//!   `std::fs`/`net`/`time`/`thread`/`process` directly; host-OS access
//!   goes through the LibOS shim.
//! * **Constant time** (CT001) — files of field arithmetic on
//!   secret-derived values (`constant_time_files`) contain no `if`,
//!   `while`, `match`, `&&`, `||` or `?` outside `cfg(test)`.
//!
//! Determinism (no host clock, no default-hasher map) is checked by
//! clippy's `disallowed_types` over the root `clippy.toml`, and panic
//! sites by clippy's `unwrap_used`/`expect_used` over the workspace
//! `[lints]` table, not here. No finding of this linter can be waived.
//!
//! The linter is dependency-free: a small lexer ([`lexer`]) blanks
//! comments and literal bodies so the rules can use honest substring
//! and word matching, with `#[cfg(test)]` spans excluded; every rule is
//! a pass over one file's lexed text, and every file is under a crate's
//! `src/`. [`emit`] renders findings as SARIF for CI annotation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod config;
pub mod emit;
pub mod lexer;
pub mod rules;
pub mod scan;

use config::Config;
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
    /// Number of files analysed (for the self-benchmark line).
    pub files_scanned: usize,
}

/// Runs every rule family over every file.
/// Public for `tests/lint_tests.rs`.
#[must_use]
pub fn run_rules(analyses: &[FileAnalysis], config: &Config) -> Report {
    let mut findings = Vec::new();
    for analysis in analyses {
        rules::enclave_boundary::check(analysis, config, &mut findings);
        rules::constant_time::check(analysis, config, &mut findings);
    }
    findings.sort_by(|a, b| (&a.rule, &a.path, a.line).cmp(&(&b.rule, &b.path, b.line)));
    // Nested fns are analysed in both their own and the enclosing
    // body; collapse duplicate reports of the same site.
    findings.dedup();
    Report {
        findings,
        files_scanned: analyses.len(),
    }
}

/// Lints the repository rooted at `root` with the project registry.
#[must_use]
pub fn run_repo(root: &Path) -> Report {
    let analyses: Vec<FileAnalysis> = scan::collect_files(root)
        .iter()
        .filter_map(|p| FileAnalysis::load(root, p))
        .collect();
    run_rules(&analyses, &Config::repo_default())
}
