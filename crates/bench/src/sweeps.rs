//! Library-level sweep builders for the sweep rows of the experiment
//! table.
//!
//! Each builder expands its experiment into independent (sweep-point,
//! seed) jobs, fans them out through [`runner::run_sweep`], and
//! assembles the human-readable table lines and machine-readable BENCH
//! points in **canonical point order** — so both the printed tables and
//! every artifact rendered from the merged hub are byte-identical
//! regardless of `SHIELD5G_BENCH_THREADS`. The rows of
//! [`crate::experiments`] are thin wrappers over these functions, and
//! the golden and merge-determinism tests call them directly.

use crate::runner::{self, Job, RunnerStats};
use shield5g_core::harness::{
    deploy_module, measure_response_times, standard_request, ModuleDeployment,
};
use shield5g_core::paka::{PakaKind, SgxConfig};
use shield5g_core::remote::PakaClient;
use shield5g_core::stats::Summary;
use shield5g_faults::{self as faults, DegradationReport, FaultReport};
use shield5g_infra::bridge::BridgeNetwork;
use shield5g_obs::export::JsonObj;
use shield5g_obs::hub::{self, ObsHandle};
use shield5g_scale::avcache::AvCacheConfig;
use shield5g_scale::harness::{
    pool_sweep, probe_service_time, run_scaling_point, scaling_points, ScalingRow, SweepConfig,
};
use shield5g_scale::metrics::PoolReport;
use shield5g_scale::queue::QueueConfig;
use shield5g_sim::time::SimDuration;
use std::cell::RefCell;
use std::rc::Rc;

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
    /// Runner measurements for the artifact's `"runner"` block.
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

fn fault_point(scenario: &str, rate: f64, report: &FaultReport) -> String {
    JsonObj::new()
        .str("scenario", scenario)
        .f64("sbi_fault_rate", rate)
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
        .u64("purged_avs", report.purged_avs as u64)
        .u64("crash_recoveries", report.crash_recoveries)
        .raw("response", &report.pool.response.to_json())
        .render()
}

/// The fault-injection recovery sweep: the SBI-rate availability curve,
/// a replica kill with warm-standby failover, and an enclave crash with
/// AEX storm — every point an independent job.
///
/// # Panics
///
/// Panics when the replica-kill point reports no failover (its
/// `kill_at` must fire).
#[must_use]
pub fn fault_recovery_sweep(hub: &ObsHandle, threads: usize, smoke: bool) -> SweepRun {
    let _scope = hub::scoped(hub);
    let specs = faults::bench_points(smoke);
    let jobs: Vec<Job<FaultReport>> = specs
        .iter()
        .map(|&spec| Box::new(move || faults::run_point(&spec)) as Job<FaultReport>)
        .collect();
    let (reports, stats) = runner::run_sweep(hub, threads, jobs);

    let mut lines = Vec::new();
    let mut points = Vec::new();
    lines.push("    Availability vs SBI fault rate (2 replicas, supervision retries):".to_owned());
    lines.push(format!(
        "      {:>6}  {:>7}  {:>10}  {:>10}  {:>6}  {:>12}",
        "rate", "avail", "mttr", "goodput/s", "ampl", "drop/dly/5xx"
    ));
    for (spec, report) in specs.iter().zip(&reports) {
        match spec.scenario {
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
                let failover = report.failover.as_ref().expect("kill_at fired");
                lines.push(String::new());
                lines
                    .push("    Replica death with warm-standby failover (AV cache on):".to_owned());
                lines.push(format!(
                    "      availability {:.1}%, failover {} (standby promoted: {}), {} AVs purged",
                    availability(report.pool.served, report.pool.arrivals),
                    failover.failover,
                    failover.standby_promoted,
                    report.purged_avs,
                ));
                lines.push(format!("      {report}"));
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
                lines.push(format!("      {report}"));
            }
        }
        points.push(fault_point(spec.scenario, spec.rate, report));
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

fn degradation_point(scenario: &str, rate: f64, report: &DegradationReport) -> String {
    let mut obj = JsonObj::new()
        .str("scenario", scenario)
        .f64("sbi_fault_rate", rate)
        .u64(
            "arrivals",
            report.normal.arrivals + report.emergency.arrivals,
        )
        .u64("normal_arrivals", report.normal.arrivals)
        .u64("normal_served", report.normal.served)
        .u64("normal_lost", report.normal.lost)
        .f64(
            "normal_availability_pct",
            100.0 * report.normal.availability,
        )
        .f64("normal_goodput_per_sec", report.normal.goodput_per_sec)
        .u64("emergency_arrivals", report.emergency.arrivals)
        .u64("emergency_served", report.emergency.served)
        .u64("emergency_lost", report.emergency.lost)
        .f64(
            "emergency_availability_pct",
            100.0 * report.emergency.availability,
        )
        .f64(
            "emergency_goodput_per_sec",
            report.emergency.goodput_per_sec,
        )
        .u64("shed_normal", report.sheds.normal)
        .u64("shed_emergency", report.sheds.emergency)
        .u64("retries", report.retry.retries)
        .u64("sbi_drops", report.sbi.drops)
        .u64("sbi_delays", report.sbi.delays)
        .u64("sbi_errors", report.sbi.errors)
        .u64("ejections", report.ejections)
        .u64("reinstatements", report.reinstatements)
        .u64("probes", report.probes)
        .u64("brownout_entries", report.brownout_entries)
        .u64("brownout_exits", report.brownout_exits)
        .u64("span_ns", report.span.as_nanos());
    if let Some(ewma) = report.latency_ewma_ns {
        obj = obj.f64("latency_ewma_us", ewma / 1_000.0);
    }
    obj.render()
}

/// The graceful-degradation sweep: per-priority-class availability /
/// goodput / shed-rate curves as the SBI fault rate ramps against the
/// full overload-control stack (priority admission, health-gated
/// routing, brownout), plus the cache-brownout scenario — every point
/// an independent job.
#[must_use]
pub fn degradation_curve_sweep(hub: &ObsHandle, threads: usize, smoke: bool) -> SweepRun {
    let _scope = hub::scoped(hub);
    let specs = faults::degradation_points(smoke);
    let jobs: Vec<Job<DegradationReport>> = specs
        .iter()
        .map(|&spec| {
            Box::new(move || faults::run_degradation_point(&spec)) as Job<DegradationReport>
        })
        .collect();
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
        match spec.scenario {
            "fault_ramp" => {
                lines.push(format!(
                    "      {:>5.0}%  {:>7.1}%  {:>7.1}%  {:>4}/{:<4}  {:>5}/{:<5}  {:>8}",
                    100.0 * spec.rate,
                    100.0 * report.normal.availability,
                    100.0 * report.emergency.availability,
                    report.sheds.normal,
                    report.sheds.emergency,
                    report.ejections,
                    report.reinstatements,
                    report.retry.retries,
                ));
            }
            _ => {
                lines.push(String::new());
                lines.push(
                    "    Cache brownout under EPC thrash (prefetch off, cache-only hits):"
                        .to_owned(),
                );
                lines.push(format!(
                    "      normal {:.1}%, emergency {:.1}%, brownout in/out {}/{}, \
                     latency EWMA {:.0} us",
                    100.0 * report.normal.availability,
                    100.0 * report.emergency.availability,
                    report.brownout_entries,
                    report.brownout_exits,
                    report.latency_ewma_ns.unwrap_or(0.0) / 1_000.0,
                ));
            }
        }
        points.push(degradation_point(spec.scenario, spec.rate, report));
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
    /// One horizontal-scaling instance count.
    Scaling(ScalingRow),
}

/// The §V-B7 ablation sweep: the optimisation ablation (one job — its
/// rows share an engine run) plus one job per horizontal-scaling
/// instance count. The lines and points are rendered in job order, and
/// the measurements come back beside them for the `ablation` row's
/// checks. The single-replica capacity probe runs on the calling thread.
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
    for point in scaling_points(1900, scaling_reps, max_instances, service) {
        jobs.push(Box::new(move || {
            Ok(AblationPoint::Scaling(run_scaling_point(&point)))
        }));
    }
    let (outputs, stats) = runner::run_sweep(hub, threads, jobs);

    let mut lines = Vec::new();
    let mut points = Vec::new();
    let measured = outputs.into_iter().collect::<Result<Vec<_>, _>>()?;
    for point in &measured {
        let (job_lines, job_points) = match point {
            AblationPoint::Optimisations(rows) => ablation_rows(&rows[..]),
            AblationPoint::Scaling(row) => scaling_row(row),
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
    let stable = |seed, config| {
        let sgx = ModuleDeployment::Sgx(config);
        Summary::of(&measure_response_times(seed, PakaKind::EUdm, sgx, reps).1)
    };
    let baseline = stable(seed, SgxConfig::default());
    let exitless = stable(
        seed + 1,
        SgxConfig {
            exitless: true,
            ..SgxConfig::default()
        },
    );
    let sgx = ModuleDeployment::Sgx(SgxConfig::default());
    let (mut env, mut module) = deploy_module(seed + 2, PakaKind::EUdm, sgx);
    module.set_userspace_net(true);
    let bridge = Rc::new(RefCell::new(BridgeNetwork::new("br-oai")));
    let mut client = PakaClient::new(Rc::new(RefCell::new(module)), bridge, "vnf.oai");
    let request = standard_request(PakaKind::EUdm);
    for _ in 0..=reps {
        client
            .call(&mut env, &request.path, request.body.clone())
            .map_err(|e| format!("user-level tcp call: {e}"))?;
    }
    let user_level_tcp = Summary::of(&client.metrics().borrow().response_times[1..]);
    Ok([
        ("sgx baseline", baseline),
        ("exitless ocalls", exitless),
        ("user-level tcp (mtcp)", user_level_tcp),
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

fn scaling_row(row: &ScalingRow) -> Rendered {
    let line = format!(
        "      {} instance(s): stable R {} -> {:.0} authentications/s ({} shed)",
        row.instances, row.stable_response, row.throughput_per_sec, row.shed
    );
    let point = JsonObj::new()
        .str("scenario", "horizontal_scaling")
        .u64("instances", u64::from(row.instances))
        .u64("stable_response_ns", row.stable_response.as_nanos())
        .f64("throughput_per_sec", row.throughput_per_sec)
        .u64("shed", row.shed)
        .render();
    (vec![line], vec![point])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_points_cover_all_three_layers() {
        let specs = faults::bench_points(true);
        let scenarios: Vec<&str> = specs.iter().map(|s| s.scenario).collect();
        assert_eq!(
            scenarios,
            ["sbi_fault_rate", "replica_kill", "enclave_crash"]
        );
        let full = faults::bench_points(false);
        assert_eq!(full.len(), 8, "6 rates + kill + crash");
    }

    #[test]
    fn degradation_points_cover_ramp_and_brownout() {
        let specs = faults::degradation_points(true);
        assert_eq!(specs.last().map(|s| s.scenario), Some("brownout"));
        assert!(specs.iter().filter(|s| s.scenario == "fault_ramp").count() >= 2);
        let full = faults::degradation_points(false);
        assert_eq!(full.len(), 7, "6 ramp rates + brownout");
    }
}
