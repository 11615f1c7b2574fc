//! Integration tests: each seeded fixture violation is caught with the
//! right rule ID, and the repository itself is lint-clean.

use shield5g_lint::config::{Config, SecretType};
use shield5g_lint::rules::panic_budget;
use shield5g_lint::scan::FileAnalysis;
use shield5g_lint::{run_repo, run_rules};
use std::path::{Path, PathBuf};

fn fixture(rel: &str) -> FileAnalysis {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    let raw = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", path.display()));
    FileAnalysis::from_source(rel, &raw)
}

fn rules_of(findings: &[shield5g_lint::Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

fn rule_lines(findings: &[shield5g_lint::Finding]) -> Vec<(&str, usize)> {
    findings.iter().map(|f| (f.rule.as_str(), f.line)).collect()
}

#[test]
fn secret_hygiene_fixture_violations_are_caught() {
    let mut config = Config::default();
    config.secret_types.push(SecretType {
        path_suffix: "leaky.rs".into(),
        name: "LeakyKey".into(),
        require_zeroize: true,
    });
    let report = run_rules(&[fixture("secret_hygiene/leaky.rs")], &config);
    let rules = rules_of(&report.findings);
    // Debug derive, Serialize derive and the un-redacted Display each
    // trip SH001; raw storage trips SH002; no zeroize trips SH003.
    assert_eq!(
        rules.iter().filter(|r| **r == "SH001").count(),
        3,
        "findings: {:?}",
        report.findings
    );
    assert!(rules.contains(&"SH002"));
    assert!(rules.contains(&"SH003"));
}

#[test]
fn secret_hygiene_clean_fixture_passes() {
    let mut config = Config::default();
    config.secret_types.push(SecretType {
        path_suffix: "shielded.rs".into(),
        name: "ShieldedKey".into(),
        require_zeroize: true,
    });
    let report = run_rules(&[fixture("secret_hygiene/shielded.rs")], &config);
    assert!(
        report.findings.is_empty(),
        "unexpected: {:?}",
        report.findings
    );
}

/// Registers a fixture's key holder and the key type it holds.
fn composed_config(file: &str, key_type: &str, key_zeroizes: bool) -> Config {
    let mut config = Config::default();
    for (name, require_zeroize) in [(key_type, key_zeroizes), ("IntegrityContext", true)] {
        config.secret_types.push(SecretType {
            path_suffix: file.into(),
            name: name.into(),
            require_zeroize,
        });
    }
    config
}

#[test]
fn a_field_of_a_zeroizing_type_satisfies_sh003() {
    let config = composed_config("composed.rs", "PreparedKey", true);
    let report = run_rules(&[fixture("secret_hygiene/composed.rs")], &config);
    assert!(
        report.findings.is_empty(),
        "unexpected: {:?}",
        report.findings
    );
}

#[test]
fn a_field_of_a_redact_only_type_does_not_satisfy_sh003() {
    let config = composed_config("composed_redact_only.rs", "KeyedHasher", false);
    let report = run_rules(
        &[fixture("secret_hygiene/composed_redact_only.rs")],
        &config,
    );
    assert_eq!(
        rule_lines(&report.findings),
        [("SH003", 17)],
        "{:?}",
        report.findings
    );
}

#[test]
fn enclave_boundary_fixture_violations_are_caught() {
    let mut config = Config::default();
    config.enclave_files.push("hostcalls.rs".into());
    let report = run_rules(&[fixture("enclave_boundary/hostcalls.rs")], &config);
    let rules = rules_of(&report.findings);
    assert!(!rules.is_empty());
    assert!(rules.iter().all(|r| *r == "EB001"), "{:?}", report.findings);
    // Both the std::fs write and the std::time reads are flagged.
    let messages: Vec<_> = report.findings.iter().map(|f| &f.message).collect();
    assert!(messages.iter().any(|m| m.contains("std::fs")));
    assert!(messages.iter().any(|m| m.contains("std::time")));
}

#[test]
fn mw_boundary_fixture_violations_are_caught() {
    let mut config = Config::default();
    config.mw_boundary_dirs.push("mw_boundary".into());
    let report = run_rules(&[fixture("mw_boundary/bad_nf.rs")], &config);
    let rules = rules_of(&report.findings);
    assert!(!rules.is_empty());
    assert!(rules.iter().all(|r| *r == "MW001"), "{:?}", report.findings);
    // Every escaped concern is flagged: the retrier field, the injector
    // install + consult, and the in-service admission policy.
    let messages: Vec<_> = report.findings.iter().map(|f| &f.message).collect();
    assert!(messages.iter().any(|m| m.contains("`Retrier`")));
    assert!(messages.iter().any(|m| m.contains("`set_fault_injector`")));
    assert!(messages.iter().any(|m| m.contains("`FaultInjector`")));
    assert!(messages.iter().any(|m| m.contains("`AdmissionPolicy`")));
}

#[test]
fn nf_crate_is_mw_boundary_covered() {
    let config = Config::repo_default();
    assert!(
        config.mw_boundary_dirs.iter().any(|d| d == "crates/nf/src"),
        "crates/nf/src missing from mw_boundary_dirs: {:?}",
        config.mw_boundary_dirs
    );
    let src = "pub struct Amf { retrier: Retrier }\n";
    let report = run_rules(
        &[FileAnalysis::from_source("crates/nf/src/amf.rs", src)],
        &config,
    );
    assert_eq!(
        rules_of(&report.findings),
        vec!["MW001"],
        "{:?}",
        report.findings
    );
}

#[test]
fn constant_time_fixture_violations_are_caught() {
    let mut config = Config::default();
    config
        .constant_time_files
        .push("constant_time/branchy_field.rs".into());
    let report = run_rules(&[fixture("constant_time/branchy_field.rs")], &config);
    // `if borrow != 0` in sub, `while top != 0` in from_wide, the `&&`
    // of is_small and the `?`s of parse (one finding per token and
    // line); the comment and the cfg(test) module are not findings.
    assert_eq!(
        rule_lines(&report.findings),
        vec![("CT001", 26), ("CT001", 47), ("CT001", 65), ("CT001", 69)],
        "{:?}",
        report.findings
    );
    assert!(report.findings[0].message.contains("`if`"));
    assert!(report.findings[1].message.contains("`while`"));
    // A comb's table lookup: the `if` on a zero digit and the `match` on
    // its sign; the masked scan next to them is clean.
    config
        .constant_time_files
        .push("constant_time/branchy_comb.rs".into());
    let comb = run_rules(&[fixture("constant_time/branchy_comb.rs")], &config);
    assert_eq!(
        rule_lines(&comb.findings),
        vec![("CT001", 12), ("CT001", 16)],
        "{:?}",
        comb.findings
    );
    assert!(comb.findings[0].message.contains("`if`"));
    assert!(comb.findings[1].message.contains("`match`"));
    // Not listed, not checked.
    let unlisted = run_rules(
        &[fixture("constant_time/branchy_field.rs")],
        &Config::default(),
    );
    assert!(
        !rules_of(&unlisted.findings).contains(&"CT001"),
        "{:?}",
        unlisted.findings
    );
    // The repository's own list covers the X25519 (ladder and comb) and
    // Poly1305 limb arithmetic.
    let listed = Config::repo_default().constant_time_files;
    for file in [
        "crates/crypto/src/x25519.rs",
        "crates/crypto/src/x25519/comb.rs",
        "crates/crypto/src/poly1305.rs",
    ] {
        assert!(listed.iter().any(|f| f == file), "{file}");
    }
}

#[test]
fn panic_budget_fixture_exceeds_baseline() {
    let mut config = Config::default();
    // The fixture has four unwrap/expect sites; allow only one.
    config.panic_budget.push(("root".into(), 1));
    let report = run_rules(&[fixture("panic_budget/panicky.rs")], &config);
    let rules = rules_of(&report.findings);
    assert_eq!(rules, vec!["PB001"], "{:?}", report.findings);
    assert_eq!(report.panic_counts.get("root"), Some(&4));
}

#[test]
fn test_code_is_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { foo().unwrap(); }\n}\n";
    let report = run_rules(
        &[FileAnalysis::from_source("y.rs", src)],
        &Config::default(),
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.panic_counts.get("root"), Some(&0));
}

#[test]
fn cli_exits_nonzero_on_violating_tree() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/badrepo");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_shield5g-lint"))
        .args(["--root"])
        .arg(&root)
        .output()
        .expect("run shield5g-lint");
    assert!(!out.status.success(), "expected non-zero exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The fixture tree has no baseline, so its one `unwrap` is over budget.
    assert!(stdout.contains("PB001 sim:0"), "stdout: {stdout}");
}

#[test]
fn cli_exits_zero_on_repo() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_shield5g-lint"))
        .args(["--root"])
        .arg(&root)
        .output()
        .expect("run shield5g-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    assert!(stdout.contains("shield5g-lint: clean"), "stdout: {stdout}");
}

/// The determinism perimeter lives in the root `clippy.toml`, which
/// `cargo clippy --workspace --all-targets -D warnings` applies to every
/// crate: it lists the host clocks and the default-hasher collections,
/// beside `Any` (continuations are typed), and `shield5g-hmee` is the one
/// crate that opts out.
#[test]
fn clippy_config_pins_the_determinism_perimeter() -> std::io::Result<()> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let toml = std::fs::read_to_string(root.join("clippy.toml"))?;
    let live: Vec<&str> = toml
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect();
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::time::Instant",
        "std::time::SystemTime",
        "std::any::Any",
    ] {
        let entry = format!("path = \"{path}\"");
        assert!(
            live.iter().any(|l| l.contains(&entry)),
            "clippy.toml no longer disallows {path}"
        );
    }

    // Crates that opt out of the list wholesale: by an inner attribute
    // at the crate root, or by a `[lints]` table in the manifest.
    let mut roots = vec![root.join("src/lib.rs")];
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates"))?.flatten() {
        roots.push(entry.path().join("src/lib.rs"));
        manifests.push(entry.path().join("Cargo.toml"));
    }
    let mut opted_out: Vec<String> = roots
        .iter()
        .filter_map(|p| FileAnalysis::load(&root, p))
        .filter(|a| inner_attribute_names(&a.clean, "disallowed_types"))
        .map(|a| a.rel_path)
        .collect();
    opted_out.sort();
    assert_eq!(opted_out, ["crates/hmee/src/lib.rs"]);
    for manifest in manifests {
        let text = std::fs::read_to_string(&manifest)?;
        assert!(
            !text.contains("disallowed"),
            "{} configures disallowed_types",
            manifest.display()
        );
    }
    Ok(())
}

/// Does an inner attribute (`#![…]`) of this lexed file name `lint`?
fn inner_attribute_names(clean: &str, lint: &str) -> bool {
    clean.match_indices("#![").any(|(at, _)| {
        let body = &clean[at..];
        let end = body.find(")]").unwrap_or(body.len());
        body[..end].contains(lint)
    })
}

#[test]
fn repo_is_lint_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_repo(&root);
    assert!(
        report.findings.is_empty(),
        "repository has lint findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Minimal JSON well-formedness checker (the linter is dependency-free,
/// so the test brings its own): verifies balanced structure, string
/// escaping, and that the document parses as one value.
fn assert_well_formed_json(doc: &str) {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && (b[i] as char).is_ascii_whitespace() {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> Result<usize, String> {
        let i = skip_ws(b, i);
        match b.get(i) {
            Some(b'{') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Ok(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    i = value(b, i + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b'}') => return Ok(i + 1),
                        _ => return Err(format!("expected ',' or '}}' at {i}")),
                    }
                }
            }
            Some(b'[') => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Ok(i + 1);
                }
                loop {
                    i = value(b, i)?;
                    i = skip_ws(b, i);
                    match b.get(i) {
                        Some(b',') => i += 1,
                        Some(b']') => return Ok(i + 1),
                        _ => return Err(format!("expected ',' or ']' at {i}")),
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let mut i = i + 1;
                while i < b.len()
                    && (b[i].is_ascii_digit() || matches!(b[i], b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    i += 1;
                }
                Ok(i)
            }
            _ => {
                for lit in ["true", "false", "null"] {
                    if b[i..].starts_with(lit.as_bytes()) {
                        return Ok(i + lit.len());
                    }
                }
                Err(format!("unexpected byte at {i}"))
            }
        }
    }
    fn string(b: &[u8], i: usize) -> Result<usize, String> {
        if b.get(i) != Some(&b'"') {
            return Err(format!("expected '\"' at {i}"));
        }
        let mut i = i + 1;
        while i < b.len() {
            match b[i] {
                b'\\' => i += 2,
                b'"' => return Ok(i + 1),
                c if c < 0x20 => return Err(format!("raw control char at {i}")),
                _ => i += 1,
            }
        }
        Err("unterminated string".into())
    }
    let b = doc.as_bytes();
    let end = value(b, 0).unwrap_or_else(|e| panic!("malformed JSON: {e}\n{doc}"));
    assert!(
        doc[end..].trim().is_empty(),
        "trailing garbage after JSON value"
    );
}

/// Lints the bad fixture tree with `$SHIELD5G_OBS_DIR` set to a fresh
/// directory named after `tag`, asserts the run fails, and returns the
/// SARIF copy it wrote there.
fn badrepo_sarif_artifact(tag: &str) -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/badrepo");
    let dir = std::env::temp_dir().join(format!("lint_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_shield5g-lint"))
        .args(["--root"])
        .arg(&root)
        .env("SHIELD5G_OBS_DIR", &dir)
        .output()
        .expect("run shield5g-lint");
    assert!(!out.status.success(), "badrepo must still fail the lint");
    let artifact = dir.join("lint_findings.sarif");
    let doc = std::fs::read_to_string(&artifact).expect("sarif artifact written");
    let _ = std::fs::remove_dir_all(&dir);
    doc
}

#[test]
fn sarif_output_is_valid_and_lists_findings() {
    let doc = badrepo_sarif_artifact("sarif_findings");
    assert_well_formed_json(&doc);
    for needle in [
        "\"version\": \"2.1.0\"",
        "\"name\": \"shield5g-lint\"",
        "\"ruleId\": \"PB001\"",
        "physicalLocation",
    ] {
        assert!(doc.contains(needle), "missing {needle}");
    }
}

#[test]
fn obs_dir_gets_a_sarif_artifact() {
    let doc = badrepo_sarif_artifact("sarif_artifact");
    assert_well_formed_json(&doc);
}

#[test]
fn panic_baseline_ratchets_below_issue_floor() {
    // The issue's starting point was 431 unwrap/expect sites; the
    // checked-in baseline must stay strictly below it.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("panic_baseline.txt");
    let text = std::fs::read_to_string(path).expect("baseline present");
    let total: usize = panic_budget::parse_baseline(&text)
        .iter()
        .map(|(_, n)| n)
        .sum();
    assert!(total < 431, "baseline total {total} must stay < 431");
    // And the live counts must not exceed the baseline (ratchet).
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_repo(&root);
    let live: usize = report.panic_counts.values().sum();
    assert!(live <= total, "live {live} > baseline {total}");
}
