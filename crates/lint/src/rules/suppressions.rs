//! Suppression hygiene.
//!
//! * **LN001** — a `// shield5g-lint: allow(RULE)` marker no longer
//!   suppresses a live finding. Stale markers are worse than dead code:
//!   they advertise an exemption that silently re-arms if the violation
//!   ever comes back, and they stop reviewers trusting the live ones.
//!
//! This pass must run *after* every other rule family: the scan layer
//! records each marker the moment it actually suppresses a finding
//! ([`FileAnalysis::allowed`]), and whatever was never recorded is
//! stale.

use crate::scan::FileAnalysis;
use crate::Finding;

/// Matches rule identifiers (`SH001`, `PB001` …) so prose mentions of
/// `allow(RULE)` in docs are not treated as markers.
fn is_rule_id(s: &str) -> bool {
    s.len() == 5
        && s.bytes().take(2).all(|b| b.is_ascii_uppercase())
        && s.bytes().skip(2).all(|b| b.is_ascii_digit())
}

/// Reports markers that suppressed nothing this run.
pub fn check(analyses: &[FileAnalysis], findings: &mut Vec<Finding>) {
    for analysis in analyses {
        for (marker_line, rule) in markers_in(analysis) {
            if analysis.marker_was_used(&rule, marker_line) {
                continue;
            }
            // A stale-marker finding is itself suppressible (e.g. a
            // marker kept deliberately for a flaky platform-specific
            // rule), using the ordinary mechanism.
            if analysis.allowed("LN001", marker_line) {
                continue;
            }
            findings.push(Finding {
                rule: "LN001".to_owned(),
                path: analysis.rel_path.clone(),
                line: marker_line,
                message: format!(
                    "stale suppression: `allow({rule})` no longer matches any finding; \
                     delete the marker"
                ),
            });
        }
    }
}

/// `(1-based line, rule)` of every allow marker in the file. Markers
/// inside `#[cfg(test)]` spans are ignored, mirroring the rules that
/// would consume them.
pub(crate) fn markers_in(analysis: &FileAnalysis) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut offset = 0;
    for (idx, line) in analysis.raw.lines().enumerate() {
        let mut rest = line;
        let mut col = 0;
        while let Some(rel) = rest.find("shield5g-lint: allow(") {
            let after = &rest[rel + "shield5g-lint: allow(".len()..];
            let Some(close) = after.find(')') else { break };
            let rule = &after[..close];
            // A `"` before the marker means it sits inside a string
            // literal (a lint-testing fixture), not a comment.
            let in_string = line[..col + rel].contains('"');
            if is_rule_id(rule) && !in_string && !analysis.in_test(offset + col + rel) {
                out.push((idx + 1, rule.to_owned()));
            }
            let advance = rel + "shield5g-lint: allow(".len() + close;
            rest = &rest[advance..];
            col += advance;
        }
        offset += line.len() + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::run_rules;

    #[test]
    fn live_marker_is_not_flagged() {
        let src = "// shield5g-lint: allow(DT001)\nfn stamp() { let _ = Instant::now(); }\n";
        let mut config = Config::repo_default();
        config.trace_dirs.push("covered".into());
        let report = run_rules(&[FileAnalysis::from_source("covered/x.rs", src)], &config);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn stale_marker_is_flagged() {
        let src = "// shield5g-lint: allow(DT001)\nfn quiet() {}\n";
        let mut config = Config::repo_default();
        config.trace_dirs.push("covered".into());
        let report = run_rules(&[FileAnalysis::from_source("covered/x.rs", src)], &config);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "LN001");
        assert_eq!(report.findings[0].line, 1);
    }

    #[test]
    fn prose_mentions_are_not_markers() {
        let src = "//! Suppress with a `shield5g-lint: allow(RULE)` marker.\nfn quiet() {}\n";
        let analysis = FileAnalysis::from_source("covered/x.rs", src);
        assert!(markers_in(&analysis).is_empty());
    }
}
