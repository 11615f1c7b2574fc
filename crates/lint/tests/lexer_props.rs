//! Property tests for the lexer the whole linter stands on.
//!
//! Every rule's offsets, line numbers, and word matches assume that
//! [`clean_source`] is *length-preserving* (so clean offsets index the
//! raw text) and stable under re-application, and that [`test_spans`]
//! lands on item boundaries. These properties are checked here both on
//! generated inputs and on every real file in the repository.

use proptest::prelude::*;
use shield5g_lint::lexer::{clean_source, test_spans};
use shield5g_lint::scan;
use std::path::PathBuf;

proptest::proptest! {
    /// Arbitrary printable input (quotes, slashes, braces and all):
    /// the clean text must have the same byte length and the same
    /// newline positions as the input.
    #[test]
    fn clean_source_is_length_and_line_preserving(src in "[ -~\n]{0,400}") {
        let clean = clean_source(&src);
        prop_assert_eq!(clean.len(), src.len());
        let raw_newlines: Vec<usize> =
            src.bytes().enumerate().filter(|(_, b)| *b == b'\n').map(|(i, _)| i).collect();
        let clean_newlines: Vec<usize> =
            clean.bytes().enumerate().filter(|(_, b)| *b == b'\n').map(|(i, _)| i).collect();
        prop_assert_eq!(raw_newlines, clean_newlines);
    }

    /// Cleaning is idempotent: comments are gone and literal bodies are
    /// already blank, so a second pass changes nothing.
    #[test]
    fn clean_source_is_idempotent(src in "[ -~\n]{0,400}") {
        let once = clean_source(&src);
        let twice = clean_source(&once);
        prop_assert_eq!(once, twice);
    }

    /// A generated file with N plain items and one `#[cfg(test)]` mod:
    /// the reported span starts exactly at the attribute and ends
    /// exactly at the gated item's closing brace.
    #[test]
    fn test_spans_land_on_item_boundaries(name in "[a-z_]{1,10}", n in 0usize..5) {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!("fn f{i}() {{ let x = {i}; helper(x); }}\n"));
        }
        let attr_at = src.len();
        src.push_str(&format!(
            "#[cfg(test)]\nmod {name} {{\n    fn t() {{ assert!(true); }}\n}}\nfn after() {{}}\n"
        ));
        let clean = clean_source(&src);
        let spans = test_spans(&clean);
        prop_assert!(spans.len() == 1, "spans: {:?}", spans);
        let (start, end) = spans[0];
        prop_assert_eq!(start, attr_at);
        prop_assert!(clean[start..].starts_with("#[cfg(test)]"));
        prop_assert_eq!(&clean[end - 1..end], "}");
        // The trailing item is outside the span.
        let after = clean[end..].find("after");
        prop_assert!(after.is_some());
    }
}

/// The same invariants over every file under `crates/*/src`: the rules
/// and the panic-waiver ratchet both depend on these offsets.
#[test]
fn lexer_invariants_hold_on_every_repo_file() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = scan::collect_files(&root);
    assert!(
        files.len() > 100,
        "expected a full scan, got {}",
        files.len()
    );
    for rel in files {
        let raw = std::fs::read_to_string(root.join(&rel))
            .unwrap_or_else(|e| panic!("read {}: {e}", rel.display()));
        let rel = rel.display();
        let clean = clean_source(&raw);
        assert_eq!(clean.len(), raw.len(), "{rel}: length changed");
        assert_eq!(
            clean_source(&clean),
            clean,
            "{rel}: clean_source not idempotent"
        );
        for (start, end) in test_spans(&clean) {
            assert!(
                start < end && end <= clean.len(),
                "{rel}: span out of bounds"
            );
            assert!(
                clean[start..].starts_with("#[cfg(test)]"),
                "{rel}: span does not start at the attribute"
            );
            let last = clean[start..end].trim_end().chars().last();
            assert!(
                matches!(last, Some('}' | ';')),
                "{rel}: span must end at a close brace or semicolon, got {last:?}"
            );
        }
    }
}
