//! Integration tests: each seeded fixture violation is caught with the
//! right rule ID, the repository itself is lint-clean with every listed
//! file present, and the clippy settings, `nf`'s dependency list and the
//! panic-site waivers that replaced retired rules are pinned.

use shield5g_lint::rules::{constant_time, enclave_boundary};
use shield5g_lint::scan::{collect_files, FileAnalysis};
use shield5g_lint::{run_repo, run_rules, Finding};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The fixture at `rel` under `tests/fixtures/`, lexed as if it sat at
/// the repo-relative `path`.
fn fixture(rel: &str, path: &str) -> FileAnalysis {
    let file = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    let raw = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("read fixture {}: {e}", file.display()));
    FileAnalysis::from_source(path, &raw)
}

fn rules_of(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

fn rule_lines(findings: &[Finding]) -> Vec<(&str, usize)> {
    findings.iter().map(|f| (f.rule.as_str(), f.line)).collect()
}

#[test]
fn enclave_boundary_fixture_violations_are_caught() {
    let hostcalls = "enclave_boundary/hostcalls.rs";
    let report = run_rules(&[fixture(hostcalls, enclave_boundary::FILES[0])]);
    let rules = rules_of(&report.findings);
    assert!(!rules.is_empty());
    assert!(rules.iter().all(|r| *r == "EB001"), "{:?}", report.findings);
    // Both the std::fs write and the std::time reads are flagged.
    let messages: Vec<_> = report.findings.iter().map(|f| &f.message).collect();
    assert!(messages.iter().any(|m| m.contains("std::fs")));
    assert!(messages.iter().any(|m| m.contains("std::time")));
    // Not listed, not checked: paths match exactly, so a copy of a listed
    // file elsewhere in the tree is not that file.
    let unlisted = run_rules(&[fixture(hostcalls, "tests/crates/hmee/src/enclave.rs")]);
    assert!(unlisted.findings.is_empty(), "{:?}", unlisted.findings);
}

#[test]
fn constant_time_fixture_violations_are_caught() {
    let field = "constant_time/branchy_field.rs";
    let report = run_rules(&[fixture(field, constant_time::FILES[0])]);
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
    let comb = run_rules(&[fixture(
        "constant_time/branchy_comb.rs",
        constant_time::FILES[1],
    )]);
    assert_eq!(
        rule_lines(&comb.findings),
        vec![("CT001", 12), ("CT001", 16)],
        "{:?}",
        comb.findings
    );
    assert!(comb.findings[0].message.contains("`if`"));
    assert!(comb.findings[1].message.contains("`match`"));
    // Not listed, not checked.
    let unlisted = run_rules(&[fixture(field, field)]);
    assert!(unlisted.findings.is_empty(), "{:?}", unlisted.findings);
    // The list covers the X25519 (ladder and comb) and Poly1305 limb
    // arithmetic.
    assert_eq!(
        constant_time::FILES,
        [
            "crates/crypto/src/x25519.rs",
            "crates/crypto/src/x25519/comb.rs",
            "crates/crypto/src/poly1305.rs",
        ]
    );
}

/// The fixture tree holds one of the eight listed files, an enclave-side
/// HMEE file that reads the host file system directly; the other seven
/// are missing, and each is a file-level finding of the rule listing it.
#[test]
fn a_violating_tree_has_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/badrepo");
    let report = run_repo(&root);
    let lines: Vec<String> = report.findings.iter().map(ToString::to_string).collect();
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("EB001 crates/hmee/src/enclave.rs:6 ")),
        "{lines:#?}"
    );
    let missing: Vec<(&str, &str)> = report
        .findings
        .iter()
        .filter(|f| f.line == 0)
        .map(|f| (f.rule.as_str(), f.path.as_str()))
        .collect();
    assert_eq!(
        missing,
        [
            ("CT001", "crates/crypto/src/poly1305.rs"),
            ("CT001", "crates/crypto/src/x25519.rs"),
            ("CT001", "crates/crypto/src/x25519/comb.rs"),
            ("EB001", "crates/core/src/paka.rs"),
            ("EB001", "crates/hmee/src/attest.rs"),
            ("EB001", "crates/hmee/src/epc.rs"),
            ("EB001", "crates/hmee/src/seal.rs"),
        ],
        "{lines:#?}"
    );
    assert_eq!(report.files_scanned, 1);
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
    let mut roots = vec!["src/lib.rs".to_owned()];
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates"))?.flatten() {
        let name = entry.file_name();
        roots.push(format!("crates/{}/src/lib.rs", name.to_string_lossy()));
        manifests.push(entry.path().join("Cargo.toml"));
    }
    let mut opted_out = Vec::new();
    for krate in &roots {
        let analysis = FileAnalysis::load(&root, krate)?;
        if inner_attribute_names(&analysis.clean, "disallowed_types") {
            opted_out.push(analysis.rel_path);
        }
    }
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
        !enclave_boundary::FILES
            .iter()
            .any(|f| f.starts_with("crates/crypto/")),
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
    ("core", 8),
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
fn panic_site_waivers_are_pinned_per_crate() -> std::io::Result<()> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut waived: BTreeMap<String, usize> = BTreeMap::new();
    for path in collect_files(&root) {
        let rel = path.strip_prefix(&root).unwrap_or(&path).to_string_lossy();
        let file = FileAnalysis::load(&root, &rel)?;
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
    Ok(())
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
    assert_eq!(report.files_scanned, 8, "every listed file is read");
}
