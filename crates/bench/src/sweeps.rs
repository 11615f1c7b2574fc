//! Library-level sweep builders for the sweep rows of the experiment
//! table, with the fault and degradation rows' point lists: each point
//! an open-loop [`Scenario`] for [`run_scenario`].
//!
//! Each builder expands its experiment into independent (sweep-point,
//! seed) jobs, fans them out through [`runner::run_sweep`], and
//! assembles the human-readable table lines and machine-readable BENCH
//! points in **canonical point order** — so both the printed tables and
//! every artifact rendered from the merged hub are byte-identical
//! whatever the worker count. The rows of
//! [`crate::experiments`] are thin wrappers over these functions, and
//! the golden and merge-determinism tests call them directly.

use crate::runner::{self, Job, RunnerStats};
use shield5g_core::harness::{deploy_module, sample_response_times, ModuleDeployment};
use shield5g_core::paka::{PakaKind, SgxConfig};
use shield5g_core::stats::Summary;
use shield5g_mw::{FaultConfig, RetryPolicy};
use shield5g_obs::export::JsonObj;
use shield5g_obs::hub::{self, ObsHandle};
use shield5g_obs::labels;
use shield5g_ran::workload::WorkloadSpec;
use shield5g_scale::avcache::AvCacheConfig;
use shield5g_scale::harness::{
    pool_sweep, probe_service_time, record_fault_obs, FaultSweepConfig, SweepConfig,
};
use shield5g_scale::metrics::PoolReport;
use shield5g_scale::openloop::{run_scenario, Outcome, Scenario};
use shield5g_scale::pool::PoolConfig;
use shield5g_scale::queue::QueueConfig;
use shield5g_sim::time::SimDuration;

/// One executed sweep: what to print, what to export, and how fast the
/// runner got it done. `lines` and `points` are in canonical point
/// order; only `stats` (wall-clock) varies with the thread count.
#[derive(Clone, Debug)]
pub struct SweepRun {
    /// The artifact's name: `BENCH_<name>.json`.
    pub name: &'static str,
    /// Human-readable table lines, one `println!` each (empty entries
    /// render blank lines).
    pub lines: Vec<String>,
    /// Pre-rendered BENCH JSON point objects.
    pub points: Vec<String>,
    /// Runner measurements (wall clock), printed beside the artifact.
    pub stats: RunnerStats,
}

fn pool_point(scenario: &str, rho: f64, batch: u32, report: &PoolReport) -> String {
    let mut obj = JsonObj::new()
        .str("scenario", scenario)
        .u64("replicas", u64::from(report.replicas))
        .f64("rho", rho)
        .u64("batch", u64::from(batch))
        .f64("offered_per_sec", report.offered_per_sec)
        .u64("arrivals", report.arrivals)
        .u64("served", report.served)
        .u64("shed", report.shed)
        .f64("throughput_per_sec", report.throughput_per_sec)
        .raw("response", &report.response.to_json())
        .raw("queued", &report.queued.to_json());
    if let Some(cache) = &report.cache {
        obj = obj.f64("cache_hit_rate", cache.hit_rate());
    }
    obj.render()
}

/// The pool-scaling sweep: replica count × offered load against real
/// sharded eUDM pools, plus the AV pre-generation ablation. The
/// single-replica capacity probe runs on the calling thread (recording
/// into `hub`); every pool run fans out as an independent job.
#[must_use]
pub fn pool_scaling_sweep(hub: &ObsHandle, threads: usize, smoke: bool) -> SweepRun {
    let _scope = hub::scoped(hub);
    let service = probe_service_time(4100);
    let per_replica = 1.0 / service.as_secs_f64();

    let replica_counts: &[u32] = if smoke { &[1] } else { &[1, 2, 4, 8] };
    let load_factors: &[f64] = if smoke { &[0.8] } else { &[0.5, 0.8, 1.2, 2.0] };
    let batch_sizes: &[u32] = if smoke { &[8] } else { &[4, 8, 16] };

    let mut jobs: Vec<Job<PoolReport>> = Vec::new();
    for &replicas in replica_counts {
        for &load_factor in load_factors {
            let cfg = SweepConfig {
                replicas,
                offered_per_sec: load_factor * per_replica * f64::from(replicas),
                arrivals: 120 * replicas,
                ues: 40 * replicas,
                queue: QueueConfig {
                    capacity: 16,
                    deadline: SimDuration::from_millis(100),
                },
                cache: None,
            };
            let seed = 4200 + u64::from(replicas);
            jobs.push(Box::new(move || pool_sweep(seed, &cfg)));
        }
    }
    let ablation_base = SweepConfig {
        replicas: 1,
        offered_per_sec: 0.5 * per_replica,
        arrivals: if smoke { 60 } else { 240 },
        ues: 8,
        queue: QueueConfig::default(),
        cache: None,
    };
    jobs.push(Box::new(move || pool_sweep(4300, &ablation_base)));
    for &batch_size in batch_sizes {
        let cfg = SweepConfig {
            cache: Some(AvCacheConfig {
                batch_size,
                capacity_per_supi: batch_size as usize * 2,
            }),
            ..ablation_base
        };
        jobs.push(Box::new(move || pool_sweep(4300, &cfg)));
    }

    let (reports, stats) = runner::run_sweep(hub, threads, jobs);

    let mut lines = Vec::new();
    let mut points = Vec::new();
    lines.push(format!(
        "    single-replica service time {service} (~{per_replica:.0} auth/s capacity)"
    ));
    lines.push(String::new());
    lines.push("    Throughput sweep (replicas x offered load, cache off):".to_owned());
    let mut next = reports.iter();
    for &_replicas in replica_counts {
        for &load_factor in load_factors {
            #[expect(clippy::expect_used, reason = "one report per job, in job order")]
            let report = next.next().expect("throughput report");
            lines.push(format!("      rho={load_factor:.1} {report}"));
            points.push(pool_point("throughput_sweep", load_factor, 0, report));
        }
        lines.push(String::new());
    }
    lines.push("    AV pre-generation ablation (1 replica, repeat subscribers):".to_owned());
    #[expect(clippy::expect_used, reason = "one report per job, in job order")]
    let off = next.next().expect("cache-off report");
    lines.push(format!("      cache off: {off}"));
    points.push(pool_point("av_ablation", 0.5, 0, off));
    for &batch_size in batch_sizes {
        #[expect(clippy::expect_used, reason = "one report per job, in job order")]
        let on = next.next().expect("cache-on report");
        #[expect(clippy::expect_used, reason = "cache-on jobs set `cache: Some(..)`")]
        let cache = on.cache.as_ref().expect("cache stats");
        lines.push(format!(
            "      batch {batch_size:>2}:  {on} (hit rate {:.0}%)",
            100.0 * cache.hit_rate()
        ));
        points.push(pool_point("av_ablation", 0.5, batch_size, on));
    }
    lines.push(String::new());
    lines.push("    One batched round trip pays the ~91-transition HTTPS choreography".to_owned());
    lines.push("    once per batch; cache hits are served VNF-local without entering".to_owned());
    lines.push("    the enclave, so EENTER/request falls roughly by the batch factor.".to_owned());

    SweepRun {
        name: "pool_scaling",
        lines,
        points,
        stats,
    }
}

fn availability(served: u64, arrivals: u64) -> f64 {
    100.0 * served as f64 / arrivals as f64
}

/// One point of a fault or degradation row: its label, the total SBI
/// fault rate it stands for (split evenly across drop/delay/5xx; 0 for
/// the scenarios that inject no SBI fault), its seed and its scenario.
/// `Copy + Send`, so the parallel sweep runner can move points onto
/// worker threads; running one is a pure function of this struct.
#[derive(Clone, Copy, Debug)]
struct Point {
    /// Scenario label the row reports.
    label: &'static str,
    /// Total SBI fault rate of the point.
    rate: f64,
    /// Seed of this point's run.
    seed: u64,
    /// The run itself.
    scenario: Scenario,
}

/// One job per point: the point's run, recorded by `record`.
fn scenario_jobs(points: &[Point], record: fn(&Outcome)) -> Vec<Job<Outcome>> {
    points
        .iter()
        .map(|&point| {
            Box::new(move || {
                let outcome = run_scenario(point.seed, &point.scenario);
                record(&outcome);
                outcome
            }) as Job<Outcome>
        })
        .collect()
}

/// The fault-sweep bench's point list: the SBI-rate availability curve
/// (layer 1), a replica kill with warm-standby failover (layer 3), and
/// an enclave crash with AEX storm (layer 2). `smoke` shrinks every
/// point to CI-smoke size.
fn fault_points(smoke: bool) -> Vec<Point> {
    let fault_rates: &[f64] = if smoke {
        &[0.06]
    } else {
        &[0.0, 0.02, 0.05, 0.10, 0.20, 0.35]
    };
    let point = |label, rate, seed, cfg: FaultSweepConfig| Point {
        label,
        rate,
        seed,
        scenario: cfg.scenario(),
    };
    let mut points: Vec<Point> = fault_rates
        .iter()
        .map(|&rate| {
            let cfg = FaultSweepConfig {
                arrivals: if smoke { 80 } else { 240 },
                sbi: FaultConfig {
                    drop_rate: rate / 3.0,
                    delay_rate: rate / 3.0,
                    error_rate: rate / 3.0,
                },
                ..FaultSweepConfig::default()
            };
            point("sbi_fault_rate", rate, 900, cfg)
        })
        .collect();
    let kill = FaultSweepConfig {
        arrivals: if smoke { 80 } else { 220 },
        ues: 12,
        cache: Some(AvCacheConfig {
            batch_size: 8,
            capacity_per_supi: 16,
        }),
        kill_at: Some(if smoke { 30 } else { 110 }),
        ..FaultSweepConfig::default()
    };
    points.push(point("replica_kill", 0.0, 910, kill));
    let crash = FaultSweepConfig {
        arrivals: if smoke { 80 } else { 160 },
        crash_at: Some(if smoke { 20 } else { 40 }),
        aex_storm: 500,
        ..FaultSweepConfig::default()
    };
    points.push(point("enclave_crash", 0.0, 920, crash));
    points
}

/// One fault-sweep run on one line: pool, recovery, SBI faults, retries
/// and crash reloads.
fn fault_summary(report: &Outcome) -> String {
    let retry = report.tallies.retry;
    format!(
        "{}; {}; sbi drop/delay/5xx {}/{}/{}, {} retransmissions \
         ({} recovered, {} exhausted), {} crash reloads",
        report.pool,
        report.recovery,
        report.sbi.drops,
        report.sbi.delays,
        report.sbi.errors,
        retry.retries,
        retry.recovered,
        retry.exhausted,
        report.crash_recoveries,
    )
}

fn fault_point(spec: &Point, report: &Outcome) -> String {
    JsonObj::new()
        .str("scenario", spec.label)
        .f64("sbi_fault_rate", spec.rate)
        .u64("arrivals", report.pool.arrivals)
        .u64("served", report.pool.served)
        .u64("shed", report.pool.shed)
        .f64(
            "availability_pct",
            availability(report.pool.served, report.pool.arrivals),
        )
        .u64("mttr_ns", report.recovery.mttr.as_nanos())
        .u64("mttr_max_ns", report.recovery.mttr_max.as_nanos())
        .f64("goodput_per_sec", report.recovery.goodput_per_sec)
        .f64("retry_amplification", report.recovery.retry_amplification)
        .u64("sbi_drops", report.sbi.drops)
        .u64("sbi_delays", report.sbi.delays)
        .u64("sbi_errors", report.sbi.errors)
        .u64("purged_avs", report.tallies.purged_avs as u64)
        .u64("crash_recoveries", report.crash_recoveries)
        .raw("response", &report.pool.response.to_json())
        .render()
}

/// The fault-injection recovery sweep: the SBI-rate availability curve,
/// a replica kill with warm-standby failover, and an enclave crash with
/// AEX storm — every point an independent job.
/// Public for `tests/golden_sweeps.rs` and `tests/merge_determinism.rs`.
///
/// # Panics
///
/// Panics when the replica-kill point reports no failover (its
/// `kill_at` must fire).
#[must_use]
pub fn fault_recovery_sweep(hub: &ObsHandle, threads: usize, smoke: bool) -> SweepRun {
    let _scope = hub::scoped(hub);
    let specs = fault_points(smoke);
    let jobs = scenario_jobs(&specs, record_fault_obs);
    let (reports, stats) = runner::run_sweep(hub, threads, jobs);

    let mut lines = Vec::new();
    let mut points = Vec::new();
    lines.push("    Availability vs SBI fault rate (2 replicas, supervision retries):".to_owned());
    lines.push(format!(
        "      {:>6}  {:>7}  {:>10}  {:>10}  {:>6}  {:>12}",
        "rate", "avail", "mttr", "goodput/s", "ampl", "drop/dly/5xx"
    ));
    for (spec, report) in specs.iter().zip(&reports) {
        match spec.label {
            "sbi_fault_rate" => {
                lines.push(format!(
                    "      {:>5.0}%  {:>6.1}%  {:>10}  {:>10.0}  {:>5.2}x  {:>4}/{}/{}",
                    100.0 * spec.rate,
                    availability(report.pool.served, report.pool.arrivals),
                    report.recovery.mttr,
                    report.recovery.goodput_per_sec,
                    report.recovery.retry_amplification,
                    report.sbi.drops,
                    report.sbi.delays,
                    report.sbi.errors,
                ));
            }
            "replica_kill" => {
                #[expect(clippy::expect_used, reason = "this point's `kill_at` fires")]
                let failover = report.tallies.failover.as_ref().expect("kill_at fired");
                lines.push(String::new());
                lines
                    .push("    Replica death with warm-standby failover (AV cache on):".to_owned());
                lines.push(format!(
                    "      availability {:.1}%, failover {} (standby promoted: {}), {} AVs purged",
                    availability(report.pool.served, report.pool.arrivals),
                    failover.failover,
                    failover.standby_promoted,
                    report.tallies.purged_avs,
                ));
                lines.push(format!("      {}", fault_summary(report)));
            }
            _ => {
                lines.push(String::new());
                lines.push("    Enclave crash with AEX storm (reload on next request):".to_owned());
                lines.push(format!(
                    "      availability {:.1}%, {} crash reload(s), worst response {} \
                     (reload visible: {})",
                    availability(report.pool.served, report.pool.arrivals),
                    report.crash_recoveries,
                    report.pool.response.max,
                    report.pool.response.max > SimDuration::from_secs(30),
                ));
                lines.push(format!("      {}", fault_summary(report)));
            }
        }
        points.push(fault_point(spec, report));
    }
    lines.push(String::new());
    lines.push("    Every run is a pure function of its seed: the fault schedule,".to_owned());
    lines.push("    workload, and retry jitter come from forked DetRng streams, so".to_owned());
    lines.push("    rerunning any row reproduces it byte-for-byte.".to_owned());

    SweepRun {
        name: "fault_sweep",
        lines,
        points,
        stats,
    }
}

/// The unpressured degradation scenario: two replicas and no standby at
/// 400/s over 24 subscribers; every fourth arrival is an emergency
/// registration, riding two reserved queue slots; supervision retries;
/// no fault, cache, health gating or brownout.
fn degradation_base(arrivals: u32) -> Scenario {
    Scenario {
        name: "degradation",
        pool: PoolConfig {
            replicas: 2,
            warm_standby: 0,
            queue: QueueConfig::default(),
            emergency_headroom: 2,
            ..PoolConfig::default()
        },
        workload: WorkloadSpec {
            ues: 24,
            arrivals,
            rate_per_sec: 400.0,
        },
        emergency_period: 4,
        cache: None,
        retry: RetryPolicy::supervision(),
        sbi: FaultConfig::default(),
        health: false,
        brownout: None,
        thrash_pages: 0,
        kill_at: None,
        crash_at: None,
        aex_storm: 0,
    }
}

/// A scenario under pressure: offered load past the pool's comfortable
/// operating point, a tight priority-aware admission queue, health-gated
/// routing, and the brownout trigger armed at 5 ms — every arrival pays
/// a real pool round trip (no AV cache), so the fault ramp bites.
#[must_use]
pub fn pressured_config(arrivals: u32) -> Scenario {
    let base = degradation_base(arrivals);
    Scenario {
        pool: PoolConfig {
            queue: QueueConfig {
                capacity: 8,
                deadline: SimDuration::from_millis(40),
            },
            ..base.pool
        },
        workload: WorkloadSpec {
            rate_per_sec: 1_200.0,
            ..base.workload
        },
        health: true,
        brownout: Some(SimDuration::from_millis(5)),
        ..base
    }
}

/// The brownout scenario: the AV cache on, the EPC thrashed, and SBI
/// delays inflating the latency EWMA past a 2 ms threshold — the
/// frontend must fall back from batch prefetching to single-AV misses
/// while serving hits from the cache alone.
#[must_use]
pub fn brownout_config(arrivals: u32) -> Scenario {
    Scenario {
        cache: Some(AvCacheConfig {
            batch_size: 8,
            capacity_per_supi: 16,
        }),
        thrash_pages: 4 * 1024 * 1024,
        sbi: FaultConfig {
            delay_rate: 0.3,
            error_rate: 0.1,
            ..FaultConfig::default()
        },
        brownout: Some(SimDuration::from_millis(2)),
        ..pressured_config(arrivals)
    }
}

/// The degradation bench's point list: availability/goodput/shed-rate
/// curves per priority class as the SBI fault rate ramps, plus the
/// cache-brownout scenario under EPC thrash. `smoke` shrinks the list
/// to CI-smoke size.
fn degradation_points(smoke: bool) -> Vec<Point> {
    let rates: &[f64] = if smoke {
        &[0.0, 0.35]
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.35, 0.5]
    };
    let arrivals = if smoke { 100 } else { 240 };
    let mut points: Vec<Point> = rates
        .iter()
        .map(|&rate| Point {
            label: "fault_ramp",
            rate,
            seed: 930,
            scenario: Scenario {
                sbi: FaultConfig {
                    drop_rate: rate / 3.0,
                    delay_rate: rate / 3.0,
                    error_rate: rate / 3.0,
                },
                ..pressured_config(arrivals)
            },
        })
        .collect();
    points.push(Point {
        label: "brownout",
        rate: 0.0,
        seed: 931,
        scenario: brownout_config(arrivals),
    });
    points
}

/// Records one degradation run's per-class admission sheds into the obs
/// registry.
pub fn record_degradation_obs(outcome: &Outcome) {
    let sheds = outcome.sheds;
    hub::count("faults", "degradation", labels::SHED_NORMAL, sheds.normal);
    hub::count(
        "faults",
        "degradation",
        labels::SHED_EMERGENCY,
        sheds.emergency,
    );
}

fn degradation_point(spec: &Point, report: &Outcome) -> String {
    let (normal, emergency) = (report.tallies.normal, report.tallies.emergency);
    let brownout = report.brownout;
    let mut obj = JsonObj::new()
        .str("scenario", spec.label)
        .f64("sbi_fault_rate", spec.rate)
        .u64("arrivals", normal.arrivals + emergency.arrivals)
        .u64("normal_arrivals", normal.arrivals)
        .u64("normal_served", normal.served)
        .u64("normal_lost", normal.lost)
        .f64("normal_availability_pct", 100.0 * normal.availability)
        .f64("normal_goodput_per_sec", normal.goodput_per_sec)
        .u64("emergency_arrivals", emergency.arrivals)
        .u64("emergency_served", emergency.served)
        .u64("emergency_lost", emergency.lost)
        .f64("emergency_availability_pct", 100.0 * emergency.availability)
        .f64("emergency_goodput_per_sec", emergency.goodput_per_sec)
        .u64("shed_normal", report.sheds.normal)
        .u64("shed_emergency", report.sheds.emergency)
        .u64("retries", report.tallies.retry.retries)
        .u64("sbi_drops", report.sbi.drops)
        .u64("sbi_delays", report.sbi.delays)
        .u64("sbi_errors", report.sbi.errors)
        .u64("ejections", report.tallies.ejections)
        .u64("reinstatements", report.tallies.reinstatements)
        .u64("probes", report.tallies.probes)
        .u64("brownout_entries", brownout.map_or(0, |b| b.entries))
        .u64("brownout_exits", brownout.map_or(0, |b| b.exits))
        .u64("span_ns", report.span.as_nanos());
    if let Some(ewma) = brownout.and_then(|b| b.latency_ewma_ns) {
        obj = obj.f64("latency_ewma_us", ewma / 1_000.0);
    }
    obj.render()
}

/// The graceful-degradation sweep: per-priority-class availability /
/// goodput / shed-rate curves as the SBI fault rate ramps against the
/// full overload-control stack (priority admission, health-gated
/// routing, brownout), plus the cache-brownout scenario — every point
/// an independent job.
/// Public for `tests/golden_sweeps.rs` and `tests/merge_determinism.rs`.
#[must_use]
pub fn degradation_curve_sweep(hub: &ObsHandle, threads: usize, smoke: bool) -> SweepRun {
    let _scope = hub::scoped(hub);
    let specs = degradation_points(smoke);
    let jobs = scenario_jobs(&specs, record_degradation_obs);
    let (reports, stats) = runner::run_sweep(hub, threads, jobs);

    let mut lines = Vec::new();
    let mut points = Vec::new();
    lines.push(
        "    Availability per priority class vs SBI fault rate (priority admission,".to_owned(),
    );
    lines.push("    health-gated routing, half-open probes):".to_owned());
    lines.push(format!(
        "      {:>6}  {:>8}  {:>8}  {:>9}  {:>11}  {:>8}",
        "rate", "normal", "emerg", "shed n/e", "eject/back", "retries"
    ));
    for (spec, report) in specs.iter().zip(&reports) {
        let (normal, emergency) = (report.tallies.normal, report.tallies.emergency);
        match spec.label {
            "fault_ramp" => {
                lines.push(format!(
                    "      {:>5.0}%  {:>7.1}%  {:>7.1}%  {:>4}/{:<4}  {:>5}/{:<5}  {:>8}",
                    100.0 * spec.rate,
                    100.0 * normal.availability,
                    100.0 * emergency.availability,
                    report.sheds.normal,
                    report.sheds.emergency,
                    report.tallies.ejections,
                    report.tallies.reinstatements,
                    report.tallies.retry.retries,
                ));
            }
            _ => {
                let brownout = report.brownout;
                lines.push(String::new());
                lines.push(
                    "    Cache brownout under EPC thrash (prefetch off, cache-only hits):"
                        .to_owned(),
                );
                lines.push(format!(
                    "      normal {:.1}%, emergency {:.1}%, brownout in/out {}/{}, \
                     latency EWMA {:.0} us",
                    100.0 * normal.availability,
                    100.0 * emergency.availability,
                    brownout.map_or(0, |b| b.entries),
                    brownout.map_or(0, |b| b.exits),
                    brownout.and_then(|b| b.latency_ewma_ns).unwrap_or(0.0) / 1_000.0,
                ));
            }
        }
        points.push(degradation_point(spec, report));
    }
    lines.push(String::new());
    lines.push("    Emergency registrations (TS 23.501 §5.16.4) ride reserved queue".to_owned());
    lines.push("    headroom: as the fault rate ramps, the normal class is shed first".to_owned());
    lines.push("    and emergency availability degrades strictly slower.".to_owned());

    SweepRun {
        name: "degradation",
        lines,
        points,
        stats,
    }
}

/// Table lines and BENCH points one ablation-sweep job rendered.
type Rendered = (Vec<String>, Vec<String>);

/// What one ablation-sweep job measured.
pub enum AblationPoint {
    /// The optimisation ablation on eUDM: each configuration's label and
    /// stable response times, the SGX baseline first.
    Optimisations(Box<[(&'static str, Summary); 3]>),
    /// One horizontal-scaling instance count: its pool's report.
    Scaling(Box<PoolReport>),
}

/// Per-replica utilisation target of the horizontal-scaling jobs: high
/// enough that throughput tracks offered load, low enough that
/// consistent-hash load imbalance cannot push a single replica past
/// saturation.
const SCALING_UTILISATION: f64 = 0.65;

/// The §V-B7 ablation sweep: the optimisation ablation (one job — its
/// rows share an engine run) plus one job per horizontal-scaling
/// instance count. The lines and points are rendered in job order, and
/// the measurements come back beside them for the `ablation` row's
/// checks. The single-replica capacity probe runs on the calling thread.
/// Public for `tests/merge_determinism.rs`.
///
/// # Errors
///
/// A module call of the optimisation ablation that failed.
pub fn ablation_sweep(
    hub: &ObsHandle,
    threads: usize,
    smoke: bool,
    reps: u32,
) -> Result<(SweepRun, Vec<AblationPoint>), String> {
    let _scope = hub::scoped(hub);
    let max_instances = if smoke { 2 } else { 4 };
    let scaling_reps = (reps / 4).max(10);
    let service = probe_service_time(1900);

    let mut jobs: Vec<Job<Result<AblationPoint, String>>> = vec![Box::new(move || {
        ablation_optimizations(1800, reps).map(|rows| AblationPoint::Optimisations(Box::new(rows)))
    })];
    // Pools of 1..=max_instances replicas at a fixed per-replica
    // utilisation of the probed capacity, so that below saturation the
    // throughput is near-linear in the replica count.
    let per_replica_rate = SCALING_UTILISATION / service.as_secs_f64();
    for instances in 1..=max_instances {
        let cfg = SweepConfig {
            replicas: instances,
            offered_per_sec: per_replica_rate * f64::from(instances),
            arrivals: (scaling_reps * 12).max(60) * instances,
            ues: 40 * instances,
            ..SweepConfig::default()
        };
        let seed = 1900 + u64::from(instances);
        jobs.push(Box::new(move || {
            Ok(AblationPoint::Scaling(Box::new(pool_sweep(seed, &cfg))))
        }));
    }
    let (outputs, stats) = runner::run_sweep(hub, threads, jobs);

    let mut lines = Vec::new();
    let mut points = Vec::new();
    let measured = outputs.into_iter().collect::<Result<Vec<_>, _>>()?;
    for point in &measured {
        let (job_lines, job_points) = match point {
            AblationPoint::Optimisations(rows) => ablation_rows(&rows[..]),
            AblationPoint::Scaling(report) => scaling_row(report),
        };
        lines.extend(job_lines);
        points.extend(job_points);
    }
    let run = SweepRun {
        name: "ablation",
        lines,
        points,
        stats,
    };
    Ok((run, measured))
}

/// The §V-B7 optimisations on eUDM: the SGX baseline, Gramine's exitless
/// OCALLs, and a user-level (mTCP/DPDK-style) network stack that handles
/// the syscall choreography in-enclave.
fn ablation_optimizations(seed: u64, reps: u32) -> Result<[(&'static str, Summary); 3], String> {
    let stable = |seed, config, userspace_net| {
        let sgx = ModuleDeployment::Sgx(config);
        let (mut env, mut module) = deploy_module(seed, PakaKind::EUdm, sgx);
        module.set_userspace_net(userspace_net);
        let samples =
            sample_response_times(&mut env, module, reps).map_err(|e| format!("eUDM call: {e}"))?;
        Ok::<_, String>(Summary::of(&samples[1..]))
    };
    let exitless = SgxConfig {
        exitless: true,
        ..SgxConfig::default()
    };
    Ok([
        ("sgx baseline", stable(seed, SgxConfig::default(), false)?),
        ("exitless ocalls", stable(seed + 1, exitless, false)?),
        (
            "user-level tcp (mtcp)",
            stable(seed + 2, SgxConfig::default(), true)?,
        ),
    ])
}

/// The optimisation-ablation rows against the first (the SGX baseline),
/// then the header of the horizontal-scaling rows that follow.
fn ablation_rows(rows: &[(&str, Summary)]) -> Rendered {
    let baseline = rows.first().map_or(SimDuration::ZERO, |(_, r)| r.median);
    let mut lines = Vec::new();
    let mut points = Vec::new();
    for (label, r_stable) in rows {
        let speedup = baseline.as_nanos() as f64 / r_stable.median.as_nanos() as f64;
        lines.push(format!(
            "    {label:24} {:>26}   {speedup:.2}x vs baseline",
            crate::fmt_summary(r_stable),
        ));
        points.push(
            JsonObj::new()
                .str("scenario", "ablation")
                .str("label", label)
                .f64("speedup_vs_baseline", speedup)
                .raw("r_stable", &r_stable.to_json())
                .render(),
        );
    }
    lines.push(String::new());
    lines.push("    Horizontal scaling (real eUDM replica pool, shield5g-scale):".to_owned());
    (lines, points)
}

fn scaling_row(report: &PoolReport) -> Rendered {
    let stable = report.response.median;
    let line = format!(
        "      {} instance(s): stable R {stable} -> {:.0} authentications/s ({} shed)",
        report.replicas, report.throughput_per_sec, report.shed
    );
    let point = JsonObj::new()
        .str("scenario", "horizontal_scaling")
        .u64("instances", u64::from(report.replicas))
        .u64("stable_response_ns", stable.as_nanos())
        .f64("throughput_per_sec", report.throughput_per_sec)
        .u64("shed", report.shed)
        .render();
    (vec![line], vec![point])
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_mw::ClassSheds;

    #[test]
    fn fault_points_cover_all_three_layers() {
        let specs = fault_points(true);
        let scenarios: Vec<&str> = specs.iter().map(|s| s.label).collect();
        assert_eq!(
            scenarios,
            ["sbi_fault_rate", "replica_kill", "enclave_crash"]
        );
        let full = fault_points(false);
        assert_eq!(full.len(), 8, "6 rates + kill + crash");
    }

    #[test]
    fn degradation_points_cover_ramp_and_brownout() {
        let specs = degradation_points(true);
        assert_eq!(specs.last().map(|s| s.label), Some("brownout"));
        assert!(specs.iter().filter(|s| s.label == "fault_ramp").count() >= 2);
        let full = degradation_points(false);
        assert_eq!(full.len(), 7, "6 ramp rates + brownout");
    }

    #[test]
    fn fault_free_run_serves_both_classes_fully() {
        let report = run_scenario(800, &degradation_base(120));
        let (normal, emergency) = (report.tallies.normal, report.tallies.emergency);
        assert_eq!(normal.arrivals + emergency.arrivals, 120);
        assert!(emergency.arrivals > 0, "period 4 must mark some");
        assert_eq!(normal.lost, 0);
        assert_eq!(emergency.lost, 0);
        assert!((normal.availability - 1.0).abs() < 1e-9);
        assert!((emergency.availability - 1.0).abs() < 1e-9);
        assert_eq!(report.sheds, ClassSheds::default());
        assert_eq!(report.brownout.map_or(0, |b| b.entries), 0);
        assert_eq!(report.tallies.ejections, 0);
    }

    #[test]
    fn same_seed_same_degradation_report() {
        let sc = pressured_config(120);
        let a = run_scenario(801, &sc);
        let b = run_scenario(801, &sc);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = run_scenario(802, &sc);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds must diverge"
        );
    }

    #[test]
    fn emergency_availability_degrades_strictly_slower() {
        let clean = run_scenario(930, &pressured_config(240));
        let stressed = run_scenario(
            930,
            &Scenario {
                sbi: FaultConfig {
                    drop_rate: 0.5 / 3.0,
                    delay_rate: 0.5 / 3.0,
                    error_rate: 0.5 / 3.0,
                },
                ..pressured_config(240)
            },
        );
        let (clean, stressed_sheds, stressed) = (clean.tallies, stressed.sheds, stressed.tallies);
        let normal_drop = clean.normal.availability - stressed.normal.availability;
        let emergency_drop = clean.emergency.availability - stressed.emergency.availability;
        assert!(
            normal_drop > 0.0,
            "the stressed point must actually degrade: {stressed:?}"
        );
        assert!(
            emergency_drop < normal_drop,
            "emergency must degrade strictly slower: \
             emergency drop {emergency_drop:.3} vs normal drop {normal_drop:.3} ({stressed:?})"
        );
        assert!(
            stressed_sheds.normal > stressed_sheds.emergency,
            "the reserved headroom must shed normal first: {stressed_sheds:?}"
        );
    }

    #[test]
    fn brownout_enters_under_thrash_and_counts_transitions() {
        let report = run_scenario(803, &brownout_config(160));
        let brownout = report.brownout.expect("the trigger is armed");
        assert!(
            brownout.entries > 0,
            "EPC thrash + delays must push the latency EWMA over: {brownout:?}"
        );
        assert!(brownout.entries >= brownout.exits);
        assert!(
            report.tallies.normal.availability > 0.8,
            "brownout degrades freshness, not availability: {:?}",
            report.tallies
        );
    }

    #[test]
    fn sustained_faults_eject_and_probe_replicas() {
        let report = run_scenario(
            804,
            &Scenario {
                sbi: FaultConfig {
                    error_rate: 0.6,
                    ..FaultConfig::default()
                },
                ..pressured_config(200)
            },
        );
        let tallies = report.tallies;
        assert!(
            tallies.ejections > 0,
            "60% 5xx must trip a replica: {tallies:?}"
        );
        assert!(tallies.probes > 0, "ejected replicas must be probed");
    }
}
