//! File discovery and per-file analysis state shared by all rules.

use crate::lexer::{clean_source, line_of, test_spans};
use std::path::{Path, PathBuf};

/// A source file prepared for rule passes.
pub struct FileAnalysis {
    /// Path relative to the lint root, with `/` separators.
    pub rel_path: String,
    /// Original source text.
    pub raw: String,
    /// Source with comments and literal bodies blanked (same length).
    pub clean: String,
    /// Byte spans of `#[cfg(test)]` items in `clean`.
    pub test_spans: Vec<(usize, usize)>,
}

/// Is this path an integration-test tree (workspace `tests/` or a
/// crate's `tests/` directory)? Such files are exercised by the panic
/// budget and the per-file pattern rules, but the layer-order rule
/// (MW002) skips them: tests compose mis-ordered stacks on purpose.
#[must_use]
pub fn is_test_path(rel_path: &str) -> bool {
    rel_path.starts_with("tests/") || rel_path.contains("/tests/")
}

impl FileAnalysis {
    /// Loads and pre-lexes one file.
    #[must_use]
    pub fn load(root: &Path, path: &Path) -> Option<Self> {
        let raw = std::fs::read_to_string(path).ok()?;
        let clean = clean_source(&raw);
        let spans = test_spans(&clean);
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        // The workspace-level integration suite is test code end to
        // end and stays fully exempt. Crate-level `tests/`, `examples/`
        // and `benches/` are walked as regular code (only their
        // `#[cfg(test)]` islands are exempt): they ship in the repo,
        // run in CI, and their panic sites count against the budget.
        let spans = if rel.starts_with("tests/") {
            vec![(0, clean.len())]
        } else {
            spans
        };
        Some(FileAnalysis {
            rel_path: rel,
            raw,
            clean,
            test_spans: spans,
        })
    }

    /// Builds an analysis directly from source text (fixture tests).
    #[must_use]
    pub fn from_source(rel_path: &str, raw: &str) -> Self {
        let clean = clean_source(raw);
        let spans = test_spans(&clean);
        FileAnalysis {
            rel_path: rel_path.to_owned(),
            raw: raw.to_owned(),
            clean,
            test_spans: spans,
        }
    }

    /// Is this byte offset inside a `#[cfg(test)]` item?
    #[must_use]
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// 1-based line of a byte offset.
    #[must_use]
    pub fn line(&self, offset: usize) -> usize {
        line_of(&self.clean, offset)
    }
}

/// Collects the `.rs` files the lint walks: each crate's `src/`,
/// `tests/`, `examples/` and `benches/`, plus the top-level `src/`,
/// `tests/`, `examples/` and `benches/`. Vendored crates, build output
/// and the lint's own violation fixtures are excluded.
#[must_use]
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            for sub in ["src", "tests", "examples", "benches"] {
                walk(&entry.path().join(sub), &mut out);
            }
        }
    }
    for sub in ["src", "tests", "examples", "benches"] {
        walk(&root.join(sub), &mut out);
    }
    out.retain(|p| {
        let s = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        !s.starts_with("vendor/")
            && !s.contains("/vendor/")
            && !s.contains("/target/")
            && !s.contains("lint/tests/fixtures/")
    });
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_test_spans() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() {} }\n";
        let a = FileAnalysis::from_source("x.rs", src);
        let test_start = a.clean.find("#[cfg(test)]").unwrap();
        assert!(a.in_test(test_start + 5));
        assert!(!a.in_test(0));
    }

    #[test]
    fn test_path_classification() {
        assert!(is_test_path("tests/determinism.rs"));
        assert!(is_test_path("crates/mw/tests/layers.rs"));
        assert!(!is_test_path("crates/mw/src/stack.rs"));
        assert!(!is_test_path("examples/quickstart.rs"));
        assert!(!is_test_path("crates/bench/benches/experiments.rs"));
    }
}
