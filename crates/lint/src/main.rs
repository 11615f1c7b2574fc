//! CLI for `shield5g-lint`.
//!
//! ```text
//! cargo run -p shield5g-lint                        # lint the repo, exit 1 on findings
//! cargo run -p shield5g-lint -- --root PATH         # lint another tree
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
            "--help" | "-h" => {
                println!(
                    "shield5g-lint: enclave-boundary and constant-time checks \
                     over crates/*/src (determinism is clippy.toml's disallowed-types, \
                     panic sites are clippy's unwrap_used/expect_used, layer order is \
                     mw::Stack's type, secret hygiene is crypto::secret's types)\n\n\
                     USAGE: shield5g-lint [--root PATH]\n\n\
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

    for finding in &report.findings {
        println!("{finding}");
    }
    if report.findings.is_empty() {
        println!(
            "shield5g-lint: clean ({} files under crates/*/src)",
            report.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        println!("shield5g-lint: {} finding(s)", report.findings.len());
        ExitCode::FAILURE
    }
}
