//! The paper's evaluation harness: [`experiments::EXPERIMENTS`] is the
//! table of every figure, table and extension sweep the `experiments`
//! bench prints and `tests/experiments.rs` gates, row by row;
//! [`sweeps`] builds the parallel sweeps on the deterministic [`runner`].
//! The criterion microbenches in `benches/` time the substrates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;
pub mod sweeps;

use shield5g_core::stats::Summary;
use shield5g_obs::export;
use shield5g_obs::hub::ObsHandle;
use std::ffi::OsStr;

/// Repetitions per experiment: `SHIELD5G_REPS`, 200 when unset. The
/// paper uses 500; the default keeps a full `experiments` run to
/// seconds while staying statistically stable (the simulation is
/// deterministic per seed).
///
/// # Errors
///
/// A set value that is not a positive integer, named in the message.
pub fn reps() -> Result<u32, String> {
    parse_reps(std::env::var_os("SHIELD5G_REPS").as_deref())
}

fn parse_reps(value: Option<&OsStr>) -> Result<u32, String> {
    let Some(value) = value else { return Ok(200) };
    value
        .to_str()
        .and_then(|s| s.parse::<u32>().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("SHIELD5G_REPS must be a positive integer, not {value:?}"))
}

/// True when `SHIELD5G_BENCH_SMOKE` is set to anything but `0`: smoke
/// mode. The sweep rows shrink to one cheap configuration and a single
/// repetition so they run in seconds — the point is catching harness
/// regressions (panics, API drift, degenerate outputs, thread-count
/// drift), not producing paper-grade statistics.
#[must_use]
pub fn smoke() -> bool {
    std::env::var("SHIELD5G_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Formats a summary as `median [p25..p75]`.
#[must_use]
pub fn fmt_summary(s: &Summary) -> String {
    format!("{} [{}..{}]", s.median, s.p25, s.p75)
}

/// Writes `contents` as `name` into the observability artifact directory
/// (`$SHIELD5G_OBS_DIR`, default `target/obs`). An empty artifact is an
/// exporter bug: the bench exits non-zero so CI fails the build instead
/// of archiving a hollow file.
pub fn write_obs_artifact(name: &str, contents: &str) {
    match export::write_artifact(&export::obs_dir(), name, contents) {
        Ok(path) => println!("    wrote {}", path.display()),
        Err(e) => {
            eprintln!("obs export failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Dumps a recording hub's registry (Prometheus text + JSONL) and span
/// log (JSONL) under `<prefix>_…` in the artifact directory.
pub fn export_hub(prefix: &str, hub: &ObsHandle) {
    hub.with(|o| {
        write_obs_artifact(
            &format!("{prefix}_metrics.prom"),
            &export::prometheus(&o.registry),
        );
        write_obs_artifact(
            &format!("{prefix}_metrics.jsonl"),
            &export::metrics_jsonl(&o.registry),
        );
        write_obs_artifact(
            &format!("{prefix}_spans.jsonl"),
            &export::spans_jsonl(&o.spans),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_sim::time::SimDuration;

    #[test]
    fn reps_defaults_to_200_and_refuses_garbage() {
        assert_eq!(parse_reps(None), Ok(200));
        assert_eq!(parse_reps(Some(OsStr::new("50"))), Ok(50));
        for bad in ["", "0", "-3", "2.5", "many", " 50"] {
            let err = parse_reps(Some(OsStr::new(bad)));
            assert!(err.is_err_and(|e| e.contains("SHIELD5G_REPS")), "{bad:?}");
        }
    }

    #[test]
    fn fmt_summary_contains_median() {
        let s = Summary::of(&[SimDuration::from_micros(47)]);
        assert!(fmt_summary(&s).contains("47"));
    }
}
