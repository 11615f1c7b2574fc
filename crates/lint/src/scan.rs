//! Per-file analysis state shared by all rules, and the walk over every
//! crate's `src/` that the tests use.

use crate::lexer::{clean_source, line_of, test_spans};
use std::path::{Path, PathBuf};

/// A source file prepared for rule passes.
pub struct FileAnalysis {
    /// Path relative to the lint root, with `/` separators.
    pub rel_path: String,
    /// Source with comments and literal bodies blanked (same length).
    pub clean: String,
    /// Byte spans of `#[cfg(test)]` items in `clean`.
    pub test_spans: Vec<(usize, usize)>,
}

impl FileAnalysis {
    /// Reads and pre-lexes the file at `rel_path` under `root`.
    ///
    /// # Errors
    ///
    /// The read's error, when the file is missing or unreadable.
    pub fn load(root: &Path, rel_path: &str) -> std::io::Result<Self> {
        let raw = std::fs::read_to_string(root.join(rel_path))?;
        Ok(Self::from_source(rel_path, &raw))
    }

    /// Builds an analysis directly from source text (fixture tests).
    /// Public for `tests/lint_tests.rs`.
    #[must_use]
    pub fn from_source(rel_path: &str, raw: &str) -> Self {
        let clean = clean_source(raw);
        let spans = test_spans(&clean);
        FileAnalysis {
            rel_path: rel_path.to_owned(),
            clean,
            test_spans: spans,
        }
    }

    /// Is this byte offset inside a `#[cfg(test)]` item?
    /// Public for `tests/lint_tests.rs`.
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

/// Collects the `.rs` files under each crate's `src/`; tests, examples,
/// benches, vendored shims and build output lie outside it.
/// Public for `tests/lint_tests.rs` and `tests/lexer_props.rs`.
#[must_use]
pub fn collect_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            walk(&entry.path().join("src"), &mut out);
        }
    }
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
}
