//! Every paper experiment, one row of `shield5g_bench::experiments` each:
//!
//! ```text
//! cargo bench -p shield5g-bench --bench experiments               # all rows
//! cargo bench -p shield5g-bench --bench experiments -- fig9 setup # some
//! ```
//!
//! Prints each row's block (its table and its paper checks, `ok` /
//! `OUT OF BAND`), writes the sweeps' `BENCH_<name>.json` (and
//! `pool_scaling`'s metrics and spans) into `$SHIELD5G_OBS_DIR`, and
//! exits non-zero when a row fails or a check is out of band. A run of
//! every row also writes `BENCH_paper.json` (one record per check) and
//! `EXPERIMENTS.md` (the committed file with each row's block spliced
//! in) there, for `scripts/check.sh` to compare with the committed
//! copies. `SHIELD5G_REPS` scales the sample counts (a value that is
//! not a positive integer exits with status 2), `SHIELD5G_BENCH_SMOKE`
//! shrinks the sweeps and `SHIELD5G_BENCH_THREADS` sets their worker
//! count.

use shield5g_bench::experiments::{splice, Outcome, EXPERIMENTS};
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
    let (mut blocks, mut records) = (Vec::new(), Vec::new());
    for row in EXPERIMENTS.iter().filter(|r| named(r.id)) {
        println!("\n=== {} ===", row.title);
        println!("    (reproduces {})", row.paper);
        match (row.run)(row.seed, reps, smoke()) {
            Ok(outcome) => {
                let block = outcome.block();
                print!("{block}");
                blocks.push((row.id, block));
                for check in &outcome.checks {
                    records.push(check.to_json(row.id));
                    if !check.ok {
                        failures.push(format!("{}: {} out of band", row.id, check.name));
                    }
                }
                export_sweep(&outcome);
            }
            Err(e) => failures.push(format!("{}: {e}", row.id)),
        }
    }
    if blocks.len() == EXPERIMENTS.len() {
        write_obs_artifact("BENCH_paper.json", &export::bench_json("paper", &records));
        match splice(include_str!("../../../EXPERIMENTS.md"), &blocks) {
            Ok(doc) => write_obs_artifact("EXPERIMENTS.md", &doc),
            Err(e) => failures.push(e),
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

/// Prints a sweep's wall-clock stats and writes its artifacts.
fn export_sweep(outcome: &Outcome) {
    let Some(run) = &outcome.sweep else { return };
    let stats = &run.stats;
    println!(
        "\n    [runner] {} jobs on {} thread(s): wall {:.2}s, {:.2}x speedup\n",
        stats.jobs,
        stats.threads,
        stats.wall.as_secs_f64(),
        stats.speedup(),
    );
    let doc = export::bench_json(run.name, &run.points);
    write_obs_artifact(&format!("BENCH_{}.json", run.name), &doc);
    if let Some(hub) = &outcome.hub {
        export_hub(run.name, hub);
    }
}
