//! The pool runs that the benchmark and the sweeps configure by
//! struct: the fault-free pool run, the single-replica capacity probe,
//! and the fault-injection run.
//!
//! §V-B7 horizontal scaling is measured on actual pools, not by
//! multiplying one enclave: distinct enclave replicas, consistent-hash
//! SUPI routing, bounded admission queues, and (optionally) the batched
//! AV pre-generation cache. [`pool_sweep`] is one pass of the shared
//! open-loop driver ([`crate::openloop`]) with no fault armed and retries
//! off.
//!
//! [`fault_sweep`] is one pass with faults firing at the three layers the
//! paper's deployment has to survive (§VI, KI 2/8/22): a seeded SBI plan
//! drops, delays or 5xx-replaces deliveries; a crash marks one replica's
//! enclave lost, so its next request pays the ~60 s reload (Fig. 7); a
//! kill takes a replica down, the pool promotes a warm standby and the
//! frontend purges the dead replica's AVs. Failed completions are
//! retransmitted under a capped-exponential [`RetryPolicy`] through the
//! pool's current ring. Workload, fault schedule and retry jitter come
//! from separately forked seeded streams, so a run is a pure function of
//! its seed.

use crate::avcache::AvCacheConfig;
use crate::metrics::{PoolReport, RecoveryStats};
use crate::openloop::{run_scenario, single_request, Outcome, Scenario, K};
use crate::pool::{EnclavePool, FailoverReport, PoolConfig};
use crate::queue::QueueConfig;
use shield5g_core::paka::PakaKind;
use shield5g_core::stats::Summary;
use shield5g_mw::{FaultConfig, FaultCounts, RetryPolicy, RetryStats};
use shield5g_obs::{hub as obs, labels};
use shield5g_ran::workload::{test_subscriber, WorkloadSpec};
use shield5g_sim::http::SharedPaths;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;

/// Parameters of one pool experiment.
/// Public for `benchmark/` (ROADMAP item 2), which names it.
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
/// Public for `benchmark/` (ROADMAP item 2), which names it.
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
            sbi: FaultConfig::default(),
            health: false,
            brownout: None,
            thrash_pages: 0,
            kill_at: None,
            crash_at: None,
            aex_storm: 0,
        },
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

/// Parameters of one fault-injection experiment, a builder of its
/// [`Scenario`].
/// Public for `benchmark/` (ROADMAP item 2), which names it.
#[derive(Clone, Copy, Debug)]
pub struct FaultSweepConfig {
    /// Ready replicas on the ring.
    pub replicas: u32,
    /// Preheated spares on the bench — what failover promotes.
    pub warm_standby: u32,
    /// Offered load in authentications per second.
    pub offered_per_sec: f64,
    /// Arrivals in the trace.
    pub arrivals: u32,
    /// Subscriber population.
    pub ues: u32,
    /// Per-replica admission queue parameters.
    pub queue: QueueConfig,
    /// AV pre-generation; `None` = one enclave round trip per request.
    pub cache: Option<AvCacheConfig>,
    /// SBI message-level fault rates (layer 1).
    pub sbi: FaultConfig,
    /// Client supervision retries guarding every pool request.
    pub retry: RetryPolicy,
    /// Kill the replica owning the n-th arrival's SUPI just before that
    /// arrival is offered (layer 3). At most one kill per run.
    pub kill_at: Option<u32>,
    /// Crash the enclave of the replica owning the n-th arrival's SUPI
    /// (layer 2): it stays on the ring and its next request pays the
    /// full reload.
    pub crash_at: Option<u32>,
    /// AEX burst injected into the crashed enclave alongside the crash
    /// (interrupt storm during the failure event).
    pub aex_storm: u64,
    /// EPC thrash pages charged to every replica for the whole run
    /// (a noisy-neighbour squeezing the EPC).
    pub thrash_pages: u64,
}

impl Default for FaultSweepConfig {
    fn default() -> Self {
        FaultSweepConfig {
            replicas: 2,
            warm_standby: 1,
            offered_per_sec: 400.0,
            arrivals: 200,
            ues: 40,
            queue: QueueConfig::default(),
            cache: None,
            sbi: FaultConfig::default(),
            retry: RetryPolicy::supervision(),
            kill_at: None,
            crash_at: None,
            aex_storm: 0,
            thrash_pages: 0,
        }
    }
}

/// Results of one fault-injection run: a projection of its [`Outcome`].
/// Public for `benchmark/` (ROADMAP item 2), which names it and digests
/// its `Debug` text.
#[derive(Clone, Debug)]
pub struct FaultReport {
    /// The usual pool figures (throughput, response, per-replica load).
    pub pool: PoolReport,
    /// MTTR / goodput-under-fault / retry amplification.
    pub recovery: RecoveryStats,
    /// What the SBI plan injected.
    pub sbi: FaultCounts,
    /// Client supervision-retry counters.
    pub retry: RetryStats,
    /// The failover, when a replica was killed.
    pub failover: Option<FailoverReport>,
    /// Pre-generated AVs purged when their replica died.
    pub purged_avs: usize,
    /// Enclave reloads paid for injected crashes.
    pub crash_recoveries: u64,
}

impl FaultSweepConfig {
    /// The open-loop scenario this config names.
    #[must_use]
    pub fn scenario(&self) -> Scenario {
        Scenario {
            name: "fault",
            pool: PoolConfig {
                replicas: self.replicas,
                warm_standby: self.warm_standby,
                queue: self.queue,
                ..PoolConfig::default()
            },
            workload: WorkloadSpec {
                ues: self.ues,
                arrivals: self.arrivals,
                rate_per_sec: self.offered_per_sec,
            },
            emergency_period: 0,
            cache: self.cache,
            retry: self.retry,
            sbi: self.sbi,
            health: false,
            brownout: None,
            thrash_pages: self.thrash_pages,
            kill_at: self.kill_at,
            crash_at: self.crash_at,
            aex_storm: self.aex_storm,
        }
    }
}

/// Records one fault-sweep run into the obs registry: recovery figures
/// under `sweep`, pool figures under `faulted`, and what the SBI plan,
/// the retries and the crashes did.
pub fn record_fault_obs(outcome: &Outcome) {
    outcome.recovery.record_obs("sweep");
    outcome.pool.record_obs("faulted");
    obs::count("faults", "sbi", labels::DROPS, outcome.sbi.drops);
    obs::count("faults", "sbi", labels::DELAYS, outcome.sbi.delays);
    obs::count("faults", "sbi", labels::ERRORS, outcome.sbi.errors);
    obs::count(
        "faults",
        "retry",
        labels::RETRANSMISSIONS,
        outcome.tallies.retry.retries,
    );
    obs::count("faults", "crash", labels::RELOADS, outcome.crash_recoveries);
}

/// Runs one fault-injection experiment (see the module docs), records
/// it, and projects its [`Outcome`] into a [`FaultReport`].
/// Public for `benchmark/` (ROADMAP item 2), which names it.
///
/// # Panics
///
/// Panics when a cache refill response fails to decode.
#[must_use]
pub fn fault_sweep(seed: u64, cfg: &FaultSweepConfig) -> FaultReport {
    let outcome = run_scenario(seed, &cfg.scenario());
    record_fault_obs(&outcome);
    FaultReport {
        pool: outcome.pool,
        recovery: outcome.recovery,
        sbi: outcome.sbi,
        retry: outcome.tallies.retry,
        failover: outcome.tallies.failover,
        purged_avs: outcome.tallies.purged_avs,
        crash_recoveries: outcome.crash_recoveries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn fault_free_run_reports_clean_recovery() {
        let report = fault_sweep(
            700,
            &FaultSweepConfig {
                arrivals: 160,
                ..FaultSweepConfig::default()
            },
        );
        assert_eq!(report.recovery.faults, 0);
        assert_eq!(report.recovery.failed, 0);
        assert!((report.recovery.retry_amplification - 1.0).abs() < 1e-9);
        assert_eq!(report.sbi.total(), 0);
        assert_eq!(report.retry.retries, 0);
        assert_eq!(report.pool.served, 160);
        assert_eq!(report.pool.shed, 0);
        assert!(report.failover.is_none());
        assert_eq!(report.crash_recoveries, 0);
    }

    #[test]
    fn total_loss_reports_zero_rates() {
        // Every message dropped and no retries: nothing ever finishes, so
        // no rate is defined — the report must say 0, not arrivals / 1 ns.
        let report = fault_sweep(
            707,
            &FaultSweepConfig {
                arrivals: 40,
                sbi: FaultConfig {
                    drop_rate: 1.0,
                    ..FaultConfig::default()
                },
                retry: RetryPolicy::disabled(),
                ..FaultSweepConfig::default()
            },
        );
        assert_eq!(report.pool.served, 0);
        assert_eq!(report.pool.shed, 40);
        assert_eq!(report.retry.exhausted, 40);
        assert_eq!(report.pool.offered_per_sec, 0.0);
        assert_eq!(report.pool.throughput_per_sec, 0.0);
        assert_eq!(report.recovery.goodput_per_sec, 0.0);
    }

    #[test]
    fn same_seed_same_faulted_report() {
        let cfg = FaultSweepConfig {
            arrivals: 150,
            sbi: FaultConfig {
                drop_rate: 0.04,
                delay_rate: 0.06,
                error_rate: 0.04,
            },
            kill_at: Some(60),
            ..FaultSweepConfig::default()
        };
        let a = fault_sweep(701, &cfg);
        let b = fault_sweep(701, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = fault_sweep(702, &cfg);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds must diverge"
        );
    }

    #[test]
    fn sbi_faults_recover_via_supervision_retries() {
        let report = fault_sweep(
            703,
            &FaultSweepConfig {
                arrivals: 200,
                sbi: FaultConfig {
                    drop_rate: 0.05,
                    error_rate: 0.05,
                    ..FaultConfig::default()
                },
                ..FaultSweepConfig::default()
            },
        );
        assert!(report.sbi.total() > 0, "rates this high must fire");
        assert!(report.recovery.failed > 0);
        assert!(report.retry.retries > 0);
        assert!(report.retry.recovered > 0, "retries must recover failures");
        assert!(report.recovery.retry_amplification > 1.0);
        assert!(report.recovery.mttr > SimDuration::ZERO);
        assert!(report.recovery.goodput_per_sec > 0.0);
        // The retry budget comfortably covers ~10% per-message failure:
        // (almost) everything is eventually served.
        assert!(
            report.pool.served + report.pool.shed == u64::from(200u32) && report.pool.served >= 195,
            "served {} shed {}",
            report.pool.served,
            report.pool.shed
        );
    }

    #[test]
    fn replica_death_fails_over_and_purges_its_avs() {
        let report = fault_sweep(
            704,
            &FaultSweepConfig {
                arrivals: 220,
                ues: 12,
                cache: Some(AvCacheConfig {
                    batch_size: 8,
                    capacity_per_supi: 16,
                }),
                kill_at: Some(110),
                ..FaultSweepConfig::default()
            },
        );
        let failover = report.failover.expect("a replica was killed");
        assert!(failover.standby_promoted, "warm standby must take over");
        assert!(
            failover.failover < SimDuration::from_millis(1),
            "warm failover cost {}",
            failover.failover
        );
        assert!(
            report.purged_avs > 0,
            "the dead replica's pre-generated AVs must be purged"
        );
        assert!(report.recovery.faults >= 1);
        assert!(report.recovery.goodput_per_sec > 0.0);
        // The pool keeps serving through the death: the overwhelming
        // majority of arrivals still complete.
        assert!(
            report.pool.served >= report.pool.arrivals * 9 / 10,
            "served {}/{}",
            report.pool.served,
            report.pool.arrivals
        );
    }

    #[test]
    fn enclave_crash_is_survived_at_reload_cost() {
        let report = fault_sweep(
            705,
            &FaultSweepConfig {
                arrivals: 160,
                crash_at: Some(40),
                aex_storm: 500,
                ..FaultSweepConfig::default()
            },
        );
        assert_eq!(
            report.crash_recoveries, 1,
            "the crashed enclave must reload exactly once"
        );
        assert!(report.recovery.faults >= 1);
        // The reload costs ~a minute of virtual time: the victim shard's
        // requests see it, the other shard keeps the goodput above zero.
        assert!(report.recovery.goodput_per_sec > 0.0);
        assert!(
            report.pool.response.max > SimDuration::from_secs(30),
            "someone must have paid the reload: max {}",
            report.pool.response.max
        );
    }

    #[test]
    fn epc_thrash_degrades_but_still_serves() {
        let base = FaultSweepConfig {
            arrivals: 120,
            ..FaultSweepConfig::default()
        };
        let clean = fault_sweep(706, &base);
        let thrashed = fault_sweep(
            706,
            &FaultSweepConfig {
                thrash_pages: 4 * 1024 * 1024,
                ..base
            },
        );
        assert_eq!(thrashed.pool.served + thrashed.pool.shed, 120);
        // Thrash pages over-commit the EPC, so every request pays EWB/ELDU
        // paging round trips on top of its normal choreography — visible
        // as a strictly slower (but still served) workload.
        assert!(
            thrashed.pool.response.median > clean.pool.response.median,
            "EPC thrash must slow requests: {} vs {}",
            thrashed.pool.response.median,
            clean.pool.response.median
        );
        assert_eq!(thrashed.recovery.failed, 0, "degradation, not failure");
    }
}
