//! Machine-readable finding output: SARIF 2.1.0.
//!
//! Dependency-free like the rest of the linter: the emitter builds the
//! document by hand with a conservative string escaper. The SARIF
//! output targets the subset GitHub code scanning and `sarif-tools`
//! consume: one run, one driver, a rule table, and one result per
//! finding with a physical location.

use crate::Report;

/// `(id, short description)` for every rule the linter can emit —
/// SARIF consumers surface these next to each result.
pub const RULE_TABLE: [(&str, &str); 6] = [
    (
        "SH001",
        "Registered secret type derives or hand-writes a leaking Debug/Display/Serialize",
    ),
    (
        "SH002",
        "Registered secret type stores raw key bytes with no redacted Debug",
    ),
    ("SH003", "Registered secret type does not zeroize on drop"),
    (
        "EB001",
        "Enclave-side module calls std::fs/net/time/thread/process directly",
    ),
    (
        "MW001",
        "NF code re-grows retry/fault/admission machinery owned by the mw stack",
    ),
    (
        "CT001",
        "Constant-time file branches (if/while/match/&&/||/?) outside cfg(test)",
    ),
];

/// Escapes `s` for a JSON string body.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// SARIF 2.1.0 document with one run and one result per finding.
#[must_use]
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::from(
        "{\n  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n  \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n          \"name\": \"shield5g-lint\",\n          \"informationUri\": \"https://github.com/shield5g/shield5g\",\n          \"rules\": [",
    );
    for (i, (id, desc)) in RULE_TABLE.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{id}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            esc(desc)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"error\",\n          \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            {{\n              \"physicalLocation\": {{\n                \"artifactLocation\": {{\"uri\": \"{}\"}},\n                \"region\": {{\"startLine\": {}}}\n              }}\n            }}\n          ]\n        }}",
            esc(&f.rule),
            esc(&f.message),
            esc(&f.path),
            f.line.max(1)
        ));
    }
    out.push_str("\n      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn sample() -> Report {
        Report {
            findings: vec![Finding {
                rule: "SH001".into(),
                path: "crates/x/src/a.rs".into(),
                line: 7,
                message: "secret \"bytes\" reach `format!`".into(),
            }],
            files_scanned: 42,
        }
    }

    #[test]
    fn json_escapes_quotes() {
        let doc = to_sarif(&sample());
        assert!(doc.contains("secret \\\"bytes\\\" reach"));
    }

    #[test]
    fn sarif_has_required_shape() {
        let doc = to_sarif(&sample());
        for needle in [
            "\"version\": \"2.1.0\"",
            "\"name\": \"shield5g-lint\"",
            "\"ruleId\": \"SH001\"",
            "\"startLine\": 7",
            "\"uri\": \"crates/x/src/a.rs\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }

    #[test]
    fn every_emitted_rule_is_in_the_table() {
        // Keep the SARIF rule metadata in sync with what rules emit.
        let ids: Vec<&str> = RULE_TABLE.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ["SH001", "SH002", "SH003", "EB001", "MW001", "CT001"]);
    }
}
