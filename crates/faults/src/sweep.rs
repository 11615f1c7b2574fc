//! The `fault_sweep` recovery experiment.
//!
//! One open-loop mass-registration run against a real eUDM replica pool
//! while faults fire at all three layers the paper's deployment has to
//! survive:
//!
//! 1. **SBI messages** — a seeded [`SbiFaultPlan`] drops, delays, or
//!    5xx-replaces deliveries on the engine;
//! 2. **enclave instances** — a crash marks one replica's enclave lost,
//!    so its next request pays the full ~60 s reload (Fig. 7) before
//!    serving again;
//! 3. **whole replicas** — a kill takes host and enclave down together;
//!    the pool fails over to a warm standby and the frontend purges the
//!    dead replica's pre-generated AVs
//!    ([`AvCache::purge_where`](shield5g_scale::avcache::AvCache::purge_where)).
//!
//! Recovery is client-driven: every failed completion is retransmitted
//! under a capped-exponential [`RetryPolicy`] with deterministic jitter,
//! re-routed through the pool's *current* ring (so post-failover retries
//! land on survivors), and abandoned — fail-fast — once the budget is
//! spent. The run reports MTTR, goodput under fault, and retry
//! amplification alongside the usual pool figures.
//!
//! Everything is a pure function of the seed: workload, fault schedule,
//! and retry jitter come from separately forked
//! [`DetRng`](shield5g_sim::rng::DetRng) streams. The run itself is the
//! shared open-loop driver, [`shield5g_scale::openloop`].

use crate::plan::{FaultConfig, FaultCounts, SbiFaultPlan};
use shield5g_mw::{RetryPolicy, RetryStats};
use shield5g_obs::{hub as obs, labels};
use shield5g_ran::workload::WorkloadSpec;
use shield5g_scale::avcache::AvCacheConfig;
use shield5g_scale::metrics::{PoolReport, RecoveryStats};
use shield5g_scale::openloop::{run_scenario, Scenario};
use shield5g_scale::pool::{FailoverReport, PoolConfig};
use shield5g_scale::queue::QueueConfig;

/// Parameters of one fault-injection experiment.
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
    /// SBI message-level fault rates and shapes (layer 1).
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

/// Results of one fault-injection run.
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

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}; {}; sbi drop/delay/5xx {}/{}/{}, {} retransmissions \
             ({} recovered, {} exhausted), {} crash reloads",
            self.pool,
            self.recovery,
            self.sbi.drops,
            self.sbi.delays,
            self.sbi.errors,
            self.retry.retries,
            self.retry.recovered,
            self.retry.exhausted,
            self.crash_recoveries,
        )
    }
}

/// Runs one fault-injection experiment (see the module docs): the
/// shared open-loop driver with the SBI plan armed.
///
/// # Panics
///
/// Panics when a cache refill response fails to decode.
#[must_use]
pub fn fault_sweep(seed: u64, cfg: &FaultSweepConfig) -> FaultReport {
    let mut plan = None;
    let outcome = run_scenario(
        seed,
        &Scenario {
            name: "fault",
            pool: PoolConfig {
                replicas: cfg.replicas,
                warm_standby: cfg.warm_standby,
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
            retry: cfg.retry,
            health: false,
            brownout: None,
            thrash_pages: cfg.thrash_pages,
            kill_at: cfg.kill_at,
            crash_at: cfg.crash_at,
            aex_storm: cfg.aex_storm,
        },
        |switch, env| plan = SbiFaultPlan::install(switch, env, cfg.sbi),
    );
    let sbi = plan.map_or_else(FaultCounts::default, |p| p.borrow().counts());
    outcome.recovery.record_obs("sweep");
    outcome.pool.record_obs("faulted");
    obs::count("faults", "sbi", labels::DROPS, sbi.drops);
    obs::count("faults", "sbi", labels::DELAYS, sbi.delays);
    obs::count("faults", "sbi", labels::ERRORS, sbi.errors);
    obs::count(
        "faults",
        "retry",
        labels::RETRANSMISSIONS,
        outcome.tallies.retry.retries,
    );
    obs::count("faults", "crash", labels::RELOADS, outcome.crash_recoveries);
    FaultReport {
        pool: outcome.pool,
        recovery: outcome.recovery,
        sbi,
        retry: outcome.tallies.retry,
        failover: outcome.tallies.failover,
        purged_avs: outcome.tallies.purged_avs,
        crash_recoveries: outcome.crash_recoveries,
    }
}

/// One fully-specified point of the fault-sweep bench: scenario label,
/// the SBI fault rate the point represents (0 for the instance-failure
/// scenarios), seed, and config. `Copy + Send`, so a parallel sweep
/// runner can move points onto worker threads; running a point is a
/// pure function of this struct.
#[derive(Clone, Copy, Debug)]
pub struct FaultSweepPoint {
    /// Scenario label the bench reports (`sbi_fault_rate`,
    /// `replica_kill`, `enclave_crash`).
    pub scenario: &'static str,
    /// Total SBI fault rate of the point (split evenly across
    /// drop/delay/5xx).
    pub rate: f64,
    /// Seed of this point's run.
    pub seed: u64,
    /// The full experiment configuration.
    pub cfg: FaultSweepConfig,
}

/// The fault-sweep bench's point list: the SBI-rate availability curve
/// (layer 1), a replica kill with warm-standby failover (layer 3), and
/// an enclave crash with AEX storm (layer 2). `smoke` shrinks every
/// point to CI-smoke size.
#[must_use]
pub fn bench_points(smoke: bool) -> Vec<FaultSweepPoint> {
    let fault_rates: &[f64] = if smoke {
        &[0.06]
    } else {
        &[0.0, 0.02, 0.05, 0.10, 0.20, 0.35]
    };
    let mut points: Vec<FaultSweepPoint> = fault_rates
        .iter()
        .map(|&rate| FaultSweepPoint {
            scenario: "sbi_fault_rate",
            rate,
            seed: 900,
            cfg: FaultSweepConfig {
                arrivals: if smoke { 80 } else { 240 },
                sbi: FaultConfig {
                    drop_rate: rate / 3.0,
                    delay_rate: rate / 3.0,
                    error_rate: rate / 3.0,
                    ..FaultConfig::default()
                },
                ..FaultSweepConfig::default()
            },
        })
        .collect();
    points.push(FaultSweepPoint {
        scenario: "replica_kill",
        rate: 0.0,
        seed: 910,
        cfg: FaultSweepConfig {
            arrivals: if smoke { 80 } else { 220 },
            ues: 12,
            cache: Some(AvCacheConfig {
                batch_size: 8,
                capacity_per_supi: 16,
            }),
            kill_at: Some(if smoke { 30 } else { 110 }),
            ..FaultSweepConfig::default()
        },
    });
    points.push(FaultSweepPoint {
        scenario: "enclave_crash",
        rate: 0.0,
        seed: 920,
        cfg: FaultSweepConfig {
            arrivals: if smoke { 80 } else { 160 },
            crash_at: Some(if smoke { 20 } else { 40 }),
            aex_storm: 500,
            ..FaultSweepConfig::default()
        },
    });
    points
}

/// Runs one fault-sweep point.
#[must_use]
pub fn run_point(point: &FaultSweepPoint) -> FaultReport {
    fault_sweep(point.seed, &point.cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_sim::time::SimDuration;

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
                ..FaultConfig::default()
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
