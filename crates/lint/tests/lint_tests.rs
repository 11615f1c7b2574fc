//! Integration tests: each seeded fixture violation is caught with the
//! right rule ID, the repository itself is lint-clean, and the clippy
//! settings, `nf`'s dependency list and the panic-site waivers that
//! replaced retired rules are pinned.

#![expect(
    clippy::expect_used,
    reason = "integration-test helper: a panic is the failure report"
)]

use shield5g_lint::config::Config;
use shield5g_lint::scan::{collect_files, FileAnalysis};
use shield5g_lint::{run_repo, run_rules};
use std::collections::BTreeMap;
use std::path::PathBuf;

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
fn cli_exits_nonzero_on_violating_tree() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/badrepo");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_shield5g-lint"))
        .args(["--root"])
        .arg(&root)
        .output()
        .expect("run shield5g-lint");
    assert!(!out.status.success(), "expected non-zero exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The fixture tree's enclave-side HMEE file reads the host file
    // system directly.
    assert!(
        stdout.contains("EB001 crates/hmee/src/enclave.rs:6"),
        "stdout: {stdout}"
    );
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
/// crate that opts out. The panic-site lints live in the root manifest's
/// `[workspace.lints.clippy]`, which every crate's manifest inherits, and
/// `clippy.toml` exempts test code from them.
#[test]
fn clippy_config_pins_the_determinism_perimeter() -> std::io::Result<()> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let toml = std::fs::read_to_string(root.join("clippy.toml"))?;
    let live: Vec<&str> = toml
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .collect();
    for key in ["allow-unwrap-in-tests", "allow-expect-in-tests"] {
        let entry = format!("{key} = true");
        assert!(live.contains(&entry.as_str()), "clippy.toml lost {entry}");
    }
    let workspace = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let table: Vec<&str> = workspace
        .lines()
        .skip_while(|l| *l != "[workspace.lints.clippy]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect();
    for lint in ["unwrap_used", "expect_used", "allow_attributes"] {
        let entry = format!("{lint} = \"warn\"");
        assert!(
            table.contains(&entry.as_str()),
            "[workspace.lints.clippy] lost {entry}"
        );
    }
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
        assert!(
            text.contains("\n[lints]\nworkspace = true\n"),
            "{} does not inherit the workspace lints",
            manifest.display()
        );
    }
    Ok(())
}

/// The enclave boundary of `crypto` is a compiler fact, not an EB001
/// entry: outside its tests the crate is `no_std`, so a host API named
/// there fails to build (E0433) rather than failing the lint.
#[test]
fn crypto_is_no_std_outside_its_tests() -> std::io::Result<()> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let lib = std::fs::read_to_string(root.join("crates/crypto/src/lib.rs"))?;
    assert!(
        lib.lines().any(|l| l == "#![cfg_attr(not(test), no_std)]"),
        "crates/crypto/src/lib.rs lost #![cfg_attr(not(test), no_std)]"
    );
    assert!(
        !lib.contains("extern crate std"),
        "crates/crypto/src/lib.rs links std back in"
    );
    assert!(
        !Config::repo_default()
            .enclave_files
            .iter()
            .any(|f| f.starts_with("crypto/")),
        "crypto is policed by the compiler, not by EB001"
    );
    Ok(())
}

/// `nf` links only `crypto`, `sim` and `obs`, so an NF cannot name a
/// retry, fault or admission layer (they live in `shield5g-mw`): such a
/// path fails to build (E0433/E0432) instead of failing a text rule.
#[test]
fn nf_links_no_middleware() -> std::io::Result<()> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest = std::fs::read_to_string(root.join("crates/nf/Cargo.toml"))?;
    let deps: Vec<&str> = manifest
        .lines()
        .skip_while(|l| *l != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split(['.', ' ', '=']).next())
        .filter(|name| !name.is_empty())
        .collect();
    assert_eq!(
        deps,
        ["shield5g-crypto", "shield5g-sim", "shield5g-obs"],
        "crates/nf/Cargo.toml's [dependencies] changed"
    );
    Ok(())
}

/// Each attribute of a lexed file that starts with `opener` (`#![` or
/// `#[expect(`): its byte offset and its text up to the closing `)]`.
fn attributes<'a>(clean: &'a str, opener: &'a str) -> impl Iterator<Item = (usize, &'a str)> {
    clean.match_indices(opener).map(move |(at, _)| {
        let body = &clean[at..];
        (at, &body[..body.find(")]").unwrap_or(body.len())])
    })
}

/// Does an inner attribute (`#![…]`) of this lexed file name `lint`?
fn inner_attribute_names(clean: &str, lint: &str) -> bool {
    attributes(clean, "#![").any(|(_, body)| body.contains(lint))
}

const PANIC_LINTS: [&str; 2] = ["clippy::unwrap_used", "clippy::expect_used"];

/// Waived panic sites per crate. Each non-test `unwrap`/`expect` under
/// `crates/*/src` carries an `#[expect(…, reason = …)]` naming its lint
/// over the narrowest statement, fn or loop that holds only that site,
/// so this table is clippy's count. Adding or removing a site means
/// editing it; crates not listed have none.
const PANIC_WAIVERS: [(&str, usize); 6] = [
    ("bench", 9),
    ("core", 15),
    ("hmee", 1),
    ("ran", 4),
    ("scale", 7),
    ("sim", 11),
];

/// The panic-site ratchet: outside `cfg(test)`, the
/// `clippy::unwrap_used`/`clippy::expect_used` names inside `#[expect(`
/// attributes under `crates/*/src` match the pinned table, each with a
/// `reason`; no inner attribute waives either lint module-wide, and none
/// is an `allow`.
#[test]
fn panic_site_waivers_are_pinned_per_crate() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut waived: BTreeMap<String, usize> = BTreeMap::new();
    for path in collect_files(&root) {
        let Some(file) = FileAnalysis::load(&root, &path) else {
            continue;
        };
        for (at, body) in attributes(&file.clean, "#![") {
            assert!(
                !PANIC_LINTS.iter().any(|lint| body.contains(lint)),
                "{}:{} waives panic sites module-wide",
                file.rel_path,
                file.line(at)
            );
            // clippy's `allow_attributes` sees only outer attributes.
            assert!(
                !body.starts_with("#![allow("),
                "{}:{} is an inner `allow`; waive with `#![expect]`",
                file.rel_path,
                file.line(at)
            );
        }
        for (at, body) in attributes(&file.clean, "#[expect(") {
            let names: usize = PANIC_LINTS.iter().map(|l| body.matches(l).count()).sum();
            if names == 0 || file.in_test(at) {
                continue;
            }
            assert!(
                body.contains("reason ="),
                "{}:{} waives a panic site without a reason",
                file.rel_path,
                file.line(at)
            );
            let krate = file.rel_path.split('/').nth(1).unwrap_or_default();
            *waived.entry(krate.to_owned()).or_default() += names;
        }
    }
    let pinned: BTreeMap<String, usize> = PANIC_WAIVERS
        .iter()
        .map(|&(krate, n)| (krate.to_owned(), n))
        .collect();
    assert_eq!(waived, pinned, "edit PANIC_WAIVERS with the site");
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
        "\"ruleId\": \"EB001\"",
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
