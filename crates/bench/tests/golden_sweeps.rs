//! Cross-commit byte-identity of the open-loop pool experiments.
//!
//! `merge_determinism.rs` proves a sweep renders the same bytes at any
//! thread count; this suite proves it renders the same bytes as the
//! commit that generated `tests/golden/` — the gate a refactor of the
//! pool drivers has to pass. Table lines, BENCH points and Prometheus
//! text are stored verbatim; the metrics and span JSONL dumps (the
//! latter is megabytes) are pinned by SHA-256. Regenerate only for an
//! intentional behaviour change:
//!   SHIELD5G_REGEN_GOLDEN=1 cargo test -p shield5g-bench --test golden_sweeps

use shield5g_bench::sweeps::{
    degradation_curve_sweep, fault_recovery_sweep, pool_scaling_sweep, SweepRun,
};
use shield5g_crypto::hex;
use shield5g_crypto::sha256::Sha256;
use shield5g_faults::{fault_sweep, FaultConfig, FaultSweepConfig};
use shield5g_obs::export;
use shield5g_obs::hub::ObsHandle;
use shield5g_scale::avcache::AvCacheConfig;
use shield5g_scale::harness::{pool_sweep, SweepConfig};
use shield5g_scale::queue::QueueConfig;
use shield5g_sim::time::SimDuration;

fn check_golden(file: &str, live: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("SHIELD5G_REGEN_GOLDEN").is_some() {
        if let Err(e) = std::fs::write(&path, live) {
            panic!("cannot write {}: {e}", path.display());
        }
        return;
    }
    let golden = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => panic!("cannot read {}: {e}", path.display()),
    };
    assert!(
        golden == live,
        "{file} diverged from the golden (first differing line: {})",
        golden
            .lines()
            .zip(live.lines())
            .find(|(g, l)| g != l)
            .map_or_else(
                || format!(
                    "length {} vs {}",
                    golden.lines().count(),
                    live.lines().count()
                ),
                |(g, l)| format!("golden `{g}` vs live `{l}`"),
            )
    );
}

/// Everything a smoke sweep renders on one thread, as one document.
fn rendered(name: &str, sweep: fn(&ObsHandle, usize, bool) -> SweepRun) -> String {
    let hub = ObsHandle::new();
    let run = sweep(&hub, 1, true);
    let digest = |text: &str| hex::encode(&Sha256::digest(text.as_bytes()));
    hub.with(|o| {
        format!(
            "== lines ==\n{}\n== bench_json ==\n{}\n== prometheus ==\n{}\n\
             == sha256 metrics_jsonl ==\n{}\n== sha256 spans_jsonl ==\n{}\n",
            run.lines.join("\n"),
            export::bench_json(name, &run.points),
            export::prometheus(&o.registry),
            digest(&export::metrics_jsonl(&o.registry)),
            digest(&export::spans_jsonl(&o.spans)),
        )
    })
}

#[test]
fn pool_scaling_smoke_matches_golden() {
    check_golden(
        "pool_scaling_smoke.txt",
        &rendered("pool_scaling", pool_scaling_sweep),
    );
}

#[test]
fn fault_sweep_smoke_matches_golden() {
    check_golden(
        "fault_sweep_smoke.txt",
        &rendered("fault_sweep", fault_recovery_sweep),
    );
}

#[test]
fn degradation_smoke_matches_golden() {
    check_golden(
        "degradation_smoke.txt",
        &rendered("degradation", degradation_curve_sweep),
    );
}

/// The benchmark's pool shape: 4 replicas, 400 UEs, queue 16 / 100 ms,
/// 2800/s, 2000 arrivals.
fn bench_pool(cache: Option<AvCacheConfig>) -> SweepConfig {
    SweepConfig {
        replicas: 4,
        offered_per_sec: 2800.0,
        arrivals: 2000,
        ues: 400,
        queue: QueueConfig {
            capacity: 16,
            deadline: SimDuration::from_millis(100),
        },
        cache,
    }
}

// One test per report so the three (slow in debug builds) runs overlap.

#[test]
fn pool_open_report_matches_golden() {
    let report = pool_sweep(300, &bench_pool(None));
    check_golden("pool_open_seed300.txt", &format!("{report:?}\n"));
}

#[test]
fn pool_open_cached_report_matches_golden() {
    let cache = AvCacheConfig {
        batch_size: 8,
        capacity_per_supi: 16,
    };
    let report = pool_sweep(300, &bench_pool(Some(cache)));
    check_golden("pool_open_cached_seed300.txt", &format!("{report:?}\n"));
}

#[test]
fn pool_faulted_report_matches_golden() {
    let pool = bench_pool(None);
    let cfg = FaultSweepConfig {
        replicas: pool.replicas,
        warm_standby: 1,
        offered_per_sec: pool.offered_per_sec,
        arrivals: pool.arrivals,
        ues: pool.ues,
        queue: pool.queue,
        sbi: FaultConfig {
            drop_rate: 0.1 / 3.0,
            delay_rate: 0.1 / 3.0,
            error_rate: 0.1 / 3.0,
            ..FaultConfig::default()
        },
        kill_at: Some(pool.arrivals / 2),
        ..FaultSweepConfig::default()
    };
    let report = fault_sweep(300, &cfg);
    check_golden("pool_faulted_seed300.txt", &format!("{report:?}\n"));
}
