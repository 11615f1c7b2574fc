//! Middleware layer-order rule.
//!
//! * **MW002** — a `Stack::new(..).with(..)...` construction composes
//!   layers against the declared partial order. Layer order is
//!   *behaviour* (the permutation tests in `crates/mw/tests/layers.rs`
//!   pin the differences dynamically); this rule catches a mis-ordered
//!   chain statically at the construction site. The order is a partial
//!   order over the pairs in [`Config::layer_order`]: for each
//!   `(outer, inner)` pair, when both layers appear in one chain the
//!   outer one must be added first (`.with()` adds outermost-first).

use crate::config::Config;
use crate::lexer::find_word;
use crate::scan::{is_test_path, FileAnalysis};
use crate::Finding;

/// Runs the layer-order pass over one file.
pub fn check(analysis: &FileAnalysis, config: &Config, findings: &mut Vec<Finding>) {
    if config.layer_order.is_empty() {
        return;
    }
    // The mw permutation tests compose wrong orders on purpose.
    if is_test_path(&analysis.rel_path) {
        return;
    }
    let known: Vec<&str> = config
        .layer_order
        .iter()
        .flat_map(|(a, b)| [a.as_str(), b.as_str()])
        .collect();
    let clean = &analysis.clean;
    let mut from = 0;
    while let Some(rel) = clean[from..].find("Stack::new") {
        let at = from + rel;
        from = at + "Stack::new".len();
        if analysis.in_test(at) {
            continue;
        }
        let chain = with_chain(clean, at, &known);
        for (outer, inner) in &config.layer_order {
            let outer_idx = chain.iter().position(|(_, l)| l == outer);
            let inner_idx = chain.iter().position(|(_, l)| l == inner);
            if let (Some(oi), Some(ii)) = (outer_idx, inner_idx) {
                if oi > ii {
                    findings.push(Finding {
                        rule: "MW002".to_owned(),
                        path: analysis.rel_path.clone(),
                        line: analysis.line(chain[ii].0),
                        message: format!(
                            "`{inner}` composed outside `{outer}`; the declared layer order \
                             requires `{outer}` outside `{inner}` (first `.with()` is outermost)"
                        ),
                    });
                }
            }
        }
    }
}

/// Walks the `.with(...)` chain hanging off `Stack::new` at `at`,
/// returning `(offset, layer_name)` for each recognised layer.
fn with_chain(clean: &str, at: usize, known: &[&str]) -> Vec<(usize, String)> {
    let bytes = clean.as_bytes();
    let mut chain = Vec::new();
    // Consume `Stack::new(...)`.
    let Some(open) = clean[at..].find('(').map(|r| at + r) else {
        return chain;
    };
    let Some(mut pos) = matching_paren(bytes, open) else {
        return chain;
    };
    loop {
        let mut i = pos + 1;
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if bytes.get(i) != Some(&b'.') || !clean[i + 1..].starts_with("with") {
            break;
        }
        let mut j = i + 5;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) != Some(&b'(') {
            break;
        }
        let Some(close) = matching_paren(bytes, j) else {
            break;
        };
        let arg = &clean[j + 1..close];
        for layer in known {
            if find_word(arg, layer, 0).is_some() {
                chain.push((j + 1, (*layer).to_owned()));
                break;
            }
        }
        pos = close;
    }
    chain
}

fn matching_paren(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_of(src: &str) -> Vec<Finding> {
        let analysis = FileAnalysis::from_source("x.rs", src);
        let config = Config::repo_default();
        let mut findings = Vec::new();
        check(&analysis, &config, &mut findings);
        findings
    }

    #[test]
    fn documented_order_is_clean() {
        let src = "fn build() {\n    let s = Stack::new(leaf)\n        .with(ObsLayer::new(core))\n        .with(DeadlineLayer::new(t))\n        .with(AdmissionLayer::new(p))\n        .with(FaultLayer::new(sw))\n        .with(RetryLayer::new(rp));\n}\n";
        assert!(findings_of(src).is_empty());
    }

    #[test]
    fn obs_inside_admission_is_flagged() {
        let src = "fn build() {\n    let s = Stack::new(leaf)\n        .with(AdmissionLayer::new(p))\n        .with(ObsLayer::new(core));\n}\n";
        let f = findings_of(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("`ObsLayer` outside `AdmissionLayer`"));
    }

    #[test]
    fn partial_chains_only_check_present_pairs() {
        let src = "fn build() {\n    let s = Stack::new(leaf)\n        .with(ObsLayer::new(core))\n        .with(FaultLayer::new(sw));\n}\n";
        assert!(findings_of(src).is_empty());
    }
}
