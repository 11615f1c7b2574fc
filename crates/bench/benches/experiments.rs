//! Every paper experiment, one row of `shield5g_bench::experiments` each:
//!
//! ```text
//! cargo bench -p shield5g-bench --bench experiments               # all rows
//! cargo bench -p shield5g-bench --bench experiments -- fig9 setup # some
//! ```
//!
//! Prints each row's table and its paper checks (`ok` / `OUT OF BAND`),
//! writes the sweeps' `BENCH_<name>.json` (and `pool_scaling`'s metrics
//! and spans) into `$SHIELD5G_OBS_DIR`, and exits non-zero when a row
//! fails or a check is out of band. `SHIELD5G_REPS` scales the sample
//! counts (a value that is not a positive integer exits with status 2),
//! `SHIELD5G_BENCH_SMOKE` shrinks the sweeps and
//! `SHIELD5G_BENCH_THREADS` sets their worker count.

use shield5g_bench::experiments::{Outcome, EXPERIMENTS};
use shield5g_bench::{export_hub, reps, smoke, write_obs_artifact};
use shield5g_obs::export;
use std::process::ExitCode;

fn main() -> ExitCode {
    let reps = match reps() {
        Ok(reps) => reps,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // cargo hands a `harness = false` target `--bench`; the rest are ids.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    let named = |id: &str| ids.is_empty() || ids.iter().any(|i| i == id);
    if let Some(id) = ids.iter().find(|i| EXPERIMENTS.iter().all(|r| r.id != *i)) {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|r| r.id).collect();
        eprintln!("unknown experiment {id:?}; the ids are {}", known.join(" "));
        return ExitCode::from(2);
    }

    let mut failures = Vec::new();
    for row in EXPERIMENTS.iter().filter(|r| named(r.id)) {
        println!("\n=== {} ===", row.title);
        println!("    (reproduces {})", row.paper);
        match (row.run)(row.seed, reps, smoke()) {
            Ok(outcome) => {
                report(&outcome);
                for check in outcome.checks.iter().filter(|c| !c.ok) {
                    failures.push(format!("{}: {} out of band", row.id, check.name));
                }
            }
            Err(e) => failures.push(format!("{}: {e}", row.id)),
        }
    }
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "\n{} failure(s):\n    {}",
        failures.len(),
        failures.join("\n    ")
    );
    ExitCode::FAILURE
}

/// Prints a row's lines and checks, and writes a sweep's artifacts.
fn report(outcome: &Outcome) {
    let sweep_lines = outcome.sweep.iter().flat_map(|run| &run.lines);
    for line in outcome.lines.iter().chain(sweep_lines) {
        println!("{line}");
    }
    for check in &outcome.checks {
        println!("{check}");
    }
    let Some(run) = &outcome.sweep else { return };
    let stats = &run.stats;
    println!(
        "\n    [runner] {} jobs on {} thread(s): wall {:.2}s, {:.2}x speedup\n",
        stats.jobs,
        stats.threads,
        stats.wall.as_secs_f64(),
        stats.speedup(),
    );
    let doc = export::bench_json_with_runner(run.name, &run.points, &stats.to_json());
    write_obs_artifact(&format!("BENCH_{}.json", run.name), &doc);
    if let Some(hub) = &outcome.hub {
        export_hub(run.name, hub);
    }
}
