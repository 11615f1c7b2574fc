//! Thread-count byte-identity: the sweep runner's canonical-order merge
//! makes every bench artifact a pure function of the job list. Running
//! the same smoke sweep on 1, 2, and 4 threads must render
//! byte-identical BENCH documents, Prometheus text, metrics JSONL, and
//! span JSONL; the runner's wall-clock stats go to stdout, not into them.

use shield5g_bench::sweeps::{
    ablation_sweep, degradation_curve_sweep, fault_recovery_sweep, pool_scaling_sweep, SweepRun,
};
use shield5g_obs::export;
use shield5g_obs::hub::ObsHandle;

/// Everything a sweep run renders, minus wall-clock state.
#[derive(PartialEq, Eq, Debug)]
struct Rendered {
    lines: Vec<String>,
    bench_json: String,
    prometheus: String,
    metrics_jsonl: String,
    spans_jsonl: String,
}

fn render(hub: &ObsHandle, run: SweepRun) -> Rendered {
    hub.with(|o| Rendered {
        lines: run.lines,
        bench_json: export::bench_json(run.name, &run.points),
        prometheus: export::prometheus(&o.registry),
        metrics_jsonl: export::metrics_jsonl(&o.registry),
        spans_jsonl: export::spans_jsonl(&o.spans),
    })
}

fn assert_identical(serial: &Rendered, threaded: &Rendered, what: &str) {
    assert_eq!(serial.lines, threaded.lines, "{what}: table lines diverged");
    assert_eq!(
        serial.bench_json, threaded.bench_json,
        "{what}: BENCH points diverged"
    );
    assert_eq!(
        serial.prometheus, threaded.prometheus,
        "{what}: prometheus diverged"
    );
    assert_eq!(
        serial.metrics_jsonl, threaded.metrics_jsonl,
        "{what}: metrics jsonl diverged"
    );
    assert_eq!(
        serial.spans_jsonl, threaded.spans_jsonl,
        "{what}: spans jsonl diverged"
    );
}

#[test]
fn pool_scaling_is_thread_count_invariant() {
    let run_at = |threads: usize| {
        let hub = ObsHandle::new();
        let run = pool_scaling_sweep(&hub, threads, true);
        assert_eq!(run.stats.threads, threads);
        render(&hub, run)
    };
    let serial = run_at(1);
    assert!(!serial.prometheus.is_empty(), "sweep must record metrics");
    assert!(!serial.spans_jsonl.is_empty(), "sweep must record spans");
    assert_identical(&serial, &run_at(2), "pool_scaling 1 vs 2 threads");
    assert_identical(&serial, &run_at(4), "pool_scaling 1 vs 4 threads");
}

#[test]
fn fault_sweep_is_thread_count_invariant() {
    let run_at = |threads: usize| {
        let hub = ObsHandle::new();
        render(&hub, fault_recovery_sweep(&hub, threads, true))
    };
    let serial = run_at(1);
    assert!(!serial.prometheus.is_empty(), "sweep must record metrics");
    assert_identical(&serial, &run_at(2), "fault_sweep 1 vs 2 threads");
}

#[test]
fn degradation_sweep_is_thread_count_invariant() {
    let run_at = |threads: usize| {
        let hub = ObsHandle::new();
        render(&hub, degradation_curve_sweep(&hub, threads, true))
    };
    let serial = run_at(1);
    assert!(!serial.prometheus.is_empty(), "sweep must record metrics");
    assert_identical(&serial, &run_at(2), "degradation 1 vs 2 threads");
    assert_identical(&serial, &run_at(4), "degradation 1 vs 4 threads");
}

#[test]
fn ablation_is_thread_count_invariant() {
    let run_at = |threads: usize| {
        let hub = ObsHandle::new();
        match ablation_sweep(&hub, threads, true, 1) {
            Ok((run, _)) => render(&hub, run),
            Err(e) => panic!("ablation: {e}"),
        }
    };
    let serial = run_at(1);
    assert_identical(&serial, &run_at(4), "ablation 1 vs 4 threads");
}

#[test]
fn no_silent_hub_misses_during_a_sweep() {
    // Every job thread installs its own hub: a parallel sweep must not
    // bump the process-global miss counter.
    let before = shield5g_obs::hub::hub_misses();
    let hub = ObsHandle::new();
    let _ = fault_recovery_sweep(&hub, 4, true);
    assert_eq!(
        shield5g_obs::hub::hub_misses(),
        before,
        "sweep jobs dropped recordings on the floor"
    );
}
