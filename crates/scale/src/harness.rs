//! The pool-scaling experiments: real replica pools under open-loop
//! mass-registration load.
//!
//! The seed repository extrapolated §V-B7 horizontal scaling by measuring
//! one enclave and multiplying. Here every row comes from an actual pool:
//! distinct enclave replicas, consistent-hash SUPI routing, bounded
//! admission queues, and (optionally) the batched AV pre-generation
//! cache. Each run is one pass of the shared open-loop driver
//! ([`crate::openloop`]) with no fault armed and retries off.

use crate::avcache::AvCacheConfig;
use crate::metrics::PoolReport;
use crate::openloop::{run_scenario, single_request, Scenario, K};
use crate::pool::{EnclavePool, PoolConfig};
use crate::queue::QueueConfig;
use shield5g_core::paka::PakaKind;
use shield5g_core::stats::Summary;
use shield5g_mw::RetryPolicy;
use shield5g_ran::workload::{test_subscriber, WorkloadSpec};
use shield5g_sim::http::SharedPaths;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;

/// Parameters of one pool experiment.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Ready replicas on the ring.
    pub replicas: u32,
    /// Offered load in authentications per second.
    pub offered_per_sec: f64,
    /// Arrivals in the trace.
    pub arrivals: u32,
    /// Subscriber population (smaller than `arrivals` ⇒ repeat
    /// authentications, which is what the AV cache exploits).
    pub ues: u32,
    /// Per-replica admission queue parameters.
    pub queue: QueueConfig,
    /// AV pre-generation; `None` = one enclave round trip per request.
    pub cache: Option<AvCacheConfig>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            replicas: 1,
            offered_per_sec: 500.0,
            arrivals: 200,
            ues: 40,
            queue: QueueConfig::default(),
            cache: None,
        }
    }
}

/// Runs one open-loop experiment against a freshly deployed eUDM pool:
/// the fault-free, classless, retry-less view of
/// [`run_scenario`].
///
/// # Panics
///
/// Panics when a module returns a non-success response — the harness
/// provisions every subscriber it offers.
#[must_use]
pub fn pool_sweep(seed: u64, cfg: &SweepConfig) -> PoolReport {
    let outcome = run_scenario(
        seed,
        &Scenario {
            name: "pool",
            pool: PoolConfig {
                replicas: cfg.replicas,
                warm_standby: 0,
                queue: cfg.queue,
                ..PoolConfig::default()
            },
            workload: WorkloadSpec {
                ues: cfg.ues,
                arrivals: cfg.arrivals,
                rate_per_sec: cfg.offered_per_sec,
            },
            emergency_period: 0,
            cache: cfg.cache,
            retry: RetryPolicy::disabled(),
            health: None,
            brownout: None,
            thrash_pages: 0,
            kill_at: None,
            crash_at: None,
            aex_storm: 0,
        },
        |_, _| {},
    );
    assert_eq!(
        outcome.tallies.failed_admitted, 0,
        "admitted pool requests failed without a fault armed"
    );
    outcome.pool.record_obs(&format!("n{}", cfg.replicas));
    outcome.pool
}

/// Median stable service occupancy of a single warmed replica — the
/// capacity probe the scaling sweep calibrates its offered load against.
#[must_use]
pub fn probe_service_time(seed: u64) -> SimDuration {
    let mut env = Env::new(seed);
    env.log.disable();
    let mut pool = EnclavePool::deploy(
        &mut env,
        PakaKind::EUdm,
        PoolConfig {
            replicas: 1,
            warm_standby: 0,
            ..PoolConfig::default()
        },
    );
    let supi = test_subscriber(0);
    pool.provision_subscriber(&mut env, supi, K);
    let (mut paths, mut sqn) = (SharedPaths::default(), [0; 6]);
    let id = pool.ready_ids()[0];
    let samples: Vec<SimDuration> = (0..25)
        .map(|_| {
            let request = single_request(&mut env, &mut paths, &mut sqn, supi);
            let (resp, _, occupancy) = pool.serve_on(&mut env, id, request);
            assert!(resp.is_success());
            occupancy
        })
        .collect();
    Summary::of(&samples).median
}

/// One row of the §V-B7 horizontal-scaling experiment.
#[derive(Clone, Copy, Debug)]
pub struct ScalingRow {
    /// Ready enclave replicas serving in parallel.
    pub instances: u32,
    /// Stable per-request response time (median, queueing included).
    pub stable_response: SimDuration,
    /// Completed authentications per second across the pool.
    pub throughput_per_sec: f64,
    /// Requests shed by admission control (0 below saturation).
    pub shed: u64,
}

/// Per-replica utilisation target of the scaling sweep: high enough that
/// throughput tracks offered load, low enough that consistent-hash load
/// imbalance cannot push a single replica past saturation.
const SCALING_UTILISATION: f64 = 0.65;

/// One fully-specified point of the horizontal-scaling sweep: enough to
/// run `pool_sweep` for it anywhere. `Copy + Send`, so a parallel sweep
/// runner can move points onto worker threads; running a point is a
/// pure function of this struct, independent of every other point.
#[derive(Clone, Copy, Debug)]
pub struct ScalingPoint {
    /// Ready enclave replicas this point deploys.
    pub instances: u32,
    /// Seed of this point's run.
    pub seed: u64,
    /// The derived pool-sweep configuration.
    pub cfg: SweepConfig,
}

/// Expands the **§V-B7 horizontal-scaling** sweep into its independent
/// per-instance-count points: pools of `1..=max_instances` real eUDM
/// replicas, each driven by a gnbsim-style open-loop registration
/// workload at a fixed per-replica utilisation, so that below saturation
/// the measured throughput is near-linear in the replica count.
/// `service` is the single-replica occupancy from [`probe_service_time`]
/// — probed once, shared by every point.
#[must_use]
pub fn scaling_points(
    base_seed: u64,
    reps: u32,
    max_instances: u32,
    service: SimDuration,
) -> Vec<ScalingPoint> {
    let per_replica_rate = SCALING_UTILISATION / service.as_secs_f64();
    (1..=max_instances)
        .map(|instances| ScalingPoint {
            instances,
            seed: base_seed + u64::from(instances),
            cfg: SweepConfig {
                replicas: instances,
                offered_per_sec: per_replica_rate * f64::from(instances),
                arrivals: (reps * 12).max(60) * instances,
                ues: 40 * instances,
                ..SweepConfig::default()
            },
        })
        .collect()
}

/// Runs one horizontal-scaling point.
#[must_use]
pub fn run_scaling_point(point: &ScalingPoint) -> ScalingRow {
    let report = pool_sweep(point.seed, &point.cfg);
    ScalingRow {
        instances: point.instances,
        stable_response: report.response.median,
        throughput_per_sec: report.throughput_per_sec,
        shed: report.shed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizontal_scaling_is_linear() {
        let service = probe_service_time(900);
        let rows: Vec<ScalingRow> = scaling_points(900, 10, 3, service)
            .iter()
            .map(run_scaling_point)
            .collect();
        assert_eq!(rows.len(), 3);
        let t1 = rows[0].throughput_per_sec;
        let t3 = rows[2].throughput_per_sec;
        assert!(t3 > 2.5 * t1 && t3 < 3.5 * t1, "t1={t1:.0}/s t3={t3:.0}/s");
        // A single enclave sustains several hundred authentications/s.
        assert!(t1 > 300.0 && t1 < 1500.0, "t1={t1:.0}/s");
        // Below saturation nothing is shed and responses stay bounded.
        for row in &rows {
            assert_eq!(row.shed, 0, "n={} shed {}", row.instances, row.shed);
            assert!(
                row.stable_response < SimDuration::from_millis(20),
                "n={} response {}",
                row.instances,
                row.stable_response
            );
        }
    }

    #[test]
    fn saturation_flattens_throughput_and_sheds() {
        let service = probe_service_time(910);
        let capacity = 2.0 / service.as_secs_f64(); // two replicas
        let run = |overload: f64| {
            pool_sweep(
                911,
                &SweepConfig {
                    replicas: 2,
                    offered_per_sec: overload * capacity,
                    arrivals: 400,
                    ues: 80,
                    queue: QueueConfig {
                        capacity: 16,
                        deadline: SimDuration::from_millis(100),
                    },
                    cache: None,
                },
            )
        };
        let moderate = run(1.3);
        let heavy = run(2.2);
        // Offered load rose ~70% but completed throughput flattens at
        // pool capacity...
        assert!(
            heavy.throughput_per_sec < moderate.throughput_per_sec * 1.15,
            "throughput must flatten: {:.0}/s -> {:.0}/s",
            moderate.throughput_per_sec,
            heavy.throughput_per_sec
        );
        assert!(
            heavy.throughput_per_sec < capacity * 1.1,
            "{:.0}/s exceeds capacity {capacity:.0}/s",
            heavy.throughput_per_sec
        );
        // ...and the excess is shed by admission control, not queued
        // forever.
        assert!(
            heavy.shed_fraction() > 0.2,
            "heavy overload shed only {:.1}%",
            100.0 * heavy.shed_fraction()
        );
        assert!(heavy.shed_fraction() > moderate.shed_fraction());
        // Bounded queues keep even the overloaded p99 finite.
        assert!(heavy.response.p99 < SimDuration::from_millis(250));
    }

    #[test]
    fn av_cache_cuts_enclave_transitions_per_request() {
        let base = SweepConfig {
            replicas: 1,
            offered_per_sec: 250.0,
            arrivals: 180,
            ues: 6,
            ..SweepConfig::default()
        };
        let off = pool_sweep(920, &base);
        let on = pool_sweep(
            920,
            &SweepConfig {
                cache: Some(AvCacheConfig {
                    batch_size: 8,
                    capacity_per_supi: 16,
                }),
                ..base
            },
        );
        assert_eq!(off.shed + on.shed, 0, "runs must stay below saturation");
        // Cache off: every authentication pays the ~91-transition
        // choreography (§V-B5).
        let per_req_off = off.eenter_per_served();
        assert!(
            (85.0..=115.0).contains(&per_req_off),
            "cache-off EENTER/req {per_req_off:.1}"
        );
        // Cache on: one batched round trip serves ~8 authentications.
        let per_req_on = on.eenter_per_served();
        assert!(
            per_req_on < per_req_off / 3.0,
            "EENTER/req {per_req_on:.1} vs {per_req_off:.1} — cache not amortising"
        );
        let stats = on.cache.expect("cache stats");
        assert!(stats.hit_rate() > 0.6, "hit rate {:.2}", stats.hit_rate());
        // Cache hits skip the enclave entirely, so the median response
        // collapses to the frontend lookup cost.
        assert!(on.response.median < off.response.median);
    }

    #[test]
    fn reports_carry_real_per_replica_counters() {
        let report = pool_sweep(
            930,
            &SweepConfig {
                replicas: 3,
                offered_per_sec: 400.0,
                arrivals: 150,
                ues: 60,
                ..SweepConfig::default()
            },
        );
        assert_eq!(report.replicas, 3);
        assert_eq!(report.per_replica.len(), 3);
        let served: u64 = report.per_replica.iter().map(|r| r.served).sum();
        assert_eq!(served, report.served);
        // Every replica took a share of the ring and did its own work.
        for r in &report.per_replica {
            assert!(r.served > 0, "replica {} idle", r.replica);
            assert!(r.eenter_delta >= r.served * 85);
            assert_eq!(r.shed, 0);
        }
    }
}
