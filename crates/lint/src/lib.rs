//! `shield5g-lint`: project-specific static analysis for the shield5g
//! workspace.
//!
//! Rule families, each guarding an invariant the compiler cannot (what a
//! type can hold — raw key bytes stay inside `shield5g_crypto`, spans
//! close — is held by a type or a runtime check instead, not here):
//!
//! * **Secret hygiene** (SH001–SH003) — registered key-bearing types
//!   must redact `Debug`/`Display`/`Serialize` output and zeroize on
//!   drop (see `shield5g_crypto::secret`).
//! * **Enclave boundary** (EB001) — enclave-side modules must not call
//!   `std::fs`/`net`/`time`/`thread`/`process` directly; host-OS access
//!   goes through the LibOS shim.
//! * **Panic budget** (PB001) — `.unwrap()`/`.expect(` in non-test code
//!   is capped by a checked-in, ratchet-down baseline.
//! * **Middleware boundary** (MW001) — NF service crates must not
//!   construct retriers, consult fault injectors, or manage admission
//!   queues; those concerns live in the `shield5g-mw` layer stack.
//! * **Layer order** (MW002) — `Stack::with` chains must respect the
//!   declared layer partial order (obs outside admission, deadline
//!   outside retry, admission outside fault).
//! * **Constant time** (CT001) — files of field arithmetic on
//!   secret-derived values (`constant_time_files`) contain no `if`,
//!   `while`, `match`, `&&`, `||` or `?` outside `cfg(test)`.
//!
//! Determinism (no host clock, no default-hasher map) is checked by
//! clippy's `disallowed_types` over the root `clippy.toml`, not here.
//! No finding of this linter can be waived.
//!
//! The linter is dependency-free: a small lexer ([`lexer`]) blanks
//! comments and literal bodies so the rules can use honest substring
//! and word matching, with `#[cfg(test)]` spans excluded; every rule is
//! a pass over one file's lexed text. [`emit`] renders findings as JSON
//! or SARIF for CI annotation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
    /// Rule identifier (`SH001`, `EB001`, `PB001`, …).
    pub rule: String,
    /// Repo-relative path of the offending file (or crate for PB001).
    pub path: String,
    /// 1-based line number; 0 when the finding is file/crate level.
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
    /// Per-crate panic-path counts (for baseline updates).
    pub panic_counts: std::collections::BTreeMap<String, usize>,
    /// Number of files analysed (for the self-benchmark line).
    pub files_scanned: usize,
}

/// Runs every rule family: the per-file passes, then the per-crate panic
/// budget.
#[must_use]
pub fn run_rules(analyses: &[FileAnalysis], config: &Config) -> Report {
    let mut findings = Vec::new();
    for analysis in analyses {
        rules::secret_hygiene::check(analysis, config, &mut findings);
        rules::enclave_boundary::check(analysis, config, &mut findings);
        rules::mw_boundary::check(analysis, config, &mut findings);
        rules::layer_order::check(analysis, config, &mut findings);
        rules::constant_time::check(analysis, config, &mut findings);
    }
    let panic_counts = rules::panic_budget::count(analyses);
    rules::panic_budget::check(&panic_counts, &config.panic_budget, &mut findings);
    findings.sort_by(|a, b| (&a.rule, &a.path, a.line).cmp(&(&b.rule, &b.path, b.line)));
    // Nested fns are analysed in both their own and the enclosing
    // body; collapse duplicate reports of the same site.
    findings.dedup();
    Report {
        findings,
        panic_counts,
        files_scanned: analyses.len(),
    }
}

/// Lints the repository rooted at `root` with the project registry and
/// the checked-in panic baseline.
#[must_use]
pub fn run_repo(root: &Path) -> Report {
    let mut config = Config::repo_default();
    let baseline_path = root.join("crates/lint/panic_baseline.txt");
    if let Ok(text) = std::fs::read_to_string(&baseline_path) {
        config.panic_budget = rules::panic_budget::parse_baseline(&text);
    }
    let analyses: Vec<FileAnalysis> = scan::collect_files(root)
        .iter()
        .filter_map(|p| FileAnalysis::load(root, p))
        .collect();
    run_rules(&analyses, &config)
}
