//! CLI for `shield5g-lint`.
//!
//! ```text
//! cargo run -p shield5g-lint                        # lint the repo, exit 1 on findings
//! cargo run -p shield5g-lint -- --root PATH         # lint another tree
//! cargo run -p shield5g-lint -- --update-baseline
//! ```
//!
//! Findings go to stdout as text, one per line. When `$SHIELD5G_OBS_DIR`
//! is set a SARIF 2.1.0 copy of them is written there
//! (`lint_findings.sarif`) so CI can upload it next to the other
//! observability artifacts. A self-benchmark line (files scanned, wall
//! time) goes to stderr.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut update_baseline = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(p) = args.next() else {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(p);
            }
            "--update-baseline" => update_baseline = true,
            "--help" | "-h" => {
                println!(
                    "shield5g-lint: secret-hygiene, enclave-boundary, panic-budget, \
                     mw-boundary and constant-time checks (determinism is clippy.toml's \
                     disallowed-types, layer order is mw::Stack's type)\n\n\
                     USAGE: shield5g-lint [--root PATH] [--update-baseline]\n\n\
                     Findings print as text; with $SHIELD5G_OBS_DIR set, a SARIF \
                     copy goes to $SHIELD5G_OBS_DIR/lint_findings.sarif."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    #[expect(
        clippy::disallowed_types,
        reason = "the self-benchmark line times the lint run on the host clock"
    )]
    let started = std::time::Instant::now();
    let report = shield5g_lint::run_repo(&root);
    let elapsed_ms = started.elapsed().as_millis();
    eprintln!(
        "shield5g-lint: scanned {} files in {} ms ({} finding(s))",
        report.files_scanned,
        elapsed_ms,
        report.findings.len()
    );

    if update_baseline {
        let text = shield5g_lint::rules::panic_budget::baseline_text(&report.panic_counts);
        let path = root.join("crates/lint/panic_baseline.txt");
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }

    // Machine-readable copy for CI artifact upload.
    if let Ok(dir) = std::env::var("SHIELD5G_OBS_DIR") {
        if !dir.is_empty() {
            let dir = PathBuf::from(dir);
            let _ = std::fs::create_dir_all(&dir);
            let path = dir.join("lint_findings.sarif");
            if let Err(e) = std::fs::write(&path, shield5g_lint::emit::to_sarif(&report)) {
                eprintln!("failed to write {}: {e}", path.display());
            }
        }
    }

    let findings: Vec<_> = report
        .findings
        .iter()
        .filter(|f| !(update_baseline && f.rule == "PB001"))
        .collect();
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        let total: usize = report.panic_counts.values().sum();
        println!(
            "shield5g-lint: clean ({} panic-path sites within budget)",
            total
        );
        ExitCode::SUCCESS
    } else {
        println!("shield5g-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
