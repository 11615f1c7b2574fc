//! The `degradation_sweep` graceful-degradation experiment.
//!
//! Where [`crate::sweep`] asks *"does the pool recover?"*, this sweep
//! asks *"how does service degrade while it cannot?"*. One open-loop
//! registration run per point, with the SBI fault rate ramped across
//! points, exercising every overload-control mechanism at once:
//!
//! * **Priority shedding** — every `emergency_period`-th arrival is an
//!   emergency registration (TS 23.501 §5.16.4), marked with
//!   [`PRIORITY_HEADER`](shield5g_sim::engine::PRIORITY_HEADER); the
//!   replica-side [`AdmissionLayer`](shield5g_mw::AdmissionLayer) reserves
//!   `emergency_headroom` queue slots for it, so under overload the
//!   normal class is shed first and emergency availability degrades
//!   strictly slower.
//! * **Health-gated routing** — client-observed completions feed the
//!   pool's [`HealthTracker`](shield5g_scale::HealthTracker); replicas
//!   whose failure EWMA trips are ejected from the ring, half-open probed
//!   after the hold-off, and reinstated on probe success.
//! * **Brownout** — when the response-latency EWMA climbs past
//!   `enter_above` the frontend stops AV batch prefetching (each miss
//!   pays one single-AV round trip instead of a batch) and serves hits
//!   from the [`AvCache`](shield5g_scale::AvCache) alone; it exits the
//!   brownout with hysteresis once the EWMA falls below `exit_fraction`
//!   of the threshold.
//!
//! The run itself is the shared open-loop driver,
//! [`shield5g_scale::openloop`].
//!
//! Everything is a pure function of the seed: workload, fault schedule,
//! retry jitter, and the emergency-marking pattern (by arrival index,
//! not RNG) are deterministic, so the emitted curves are byte-identical
//! across bench thread counts.

use crate::plan::{FaultConfig, FaultCounts, SbiFaultPlan};
use shield5g_mw::{ClassSheds, RetryPolicy, RetryStats};
use shield5g_obs::{hub as obs, labels};
use shield5g_ran::workload::WorkloadSpec;
use shield5g_scale::avcache::AvCacheConfig;
use shield5g_scale::metrics::PoolReport;
use shield5g_scale::openloop::{run_scenario, Scenario};
use shield5g_scale::pool::PoolConfig;
use shield5g_scale::queue::QueueConfig;
use shield5g_sim::time::SimDuration;

pub use shield5g_scale::avcache::BrownoutPolicy;
pub use shield5g_scale::metrics::ClassReport;

/// Parameters of one graceful-degradation experiment.
#[derive(Clone, Copy, Debug)]
pub struct DegradationConfig {
    /// Ready replicas on the ring.
    pub replicas: u32,
    /// Preheated spares on the bench.
    pub warm_standby: u32,
    /// Offered load in authentications per second.
    pub offered_per_sec: f64,
    /// Arrivals in the trace.
    pub arrivals: u32,
    /// Subscriber population (with `health` on, one extra is provisioned
    /// for probes).
    pub ues: u32,
    /// Per-replica admission queue parameters.
    pub queue: QueueConfig,
    /// Queue slots reserved for emergency arrivals on every replica.
    pub emergency_headroom: usize,
    /// Every n-th arrival (by index) is an emergency registration;
    /// 0 = no emergency traffic.
    pub emergency_period: u32,
    /// AV pre-generation; `None` = one enclave round trip per request.
    pub cache: Option<AvCacheConfig>,
    /// SBI message-level fault rates and shapes.
    pub sbi: FaultConfig,
    /// Client supervision retries guarding every pool request.
    pub retry: RetryPolicy,
    /// Health-gated routing: replicas whose failure EWMA trips are
    /// ejected from the ring until a half-open probe succeeds.
    pub health: bool,
    /// Brownout trigger; `None` keeps batch prefetching unconditionally.
    pub brownout: Option<BrownoutPolicy>,
    /// EPC thrash pages charged to every replica for the whole run.
    pub thrash_pages: u64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            replicas: 2,
            warm_standby: 0,
            offered_per_sec: 400.0,
            arrivals: 240,
            ues: 24,
            queue: QueueConfig::default(),
            emergency_headroom: 2,
            emergency_period: 4,
            cache: None,
            sbi: FaultConfig::default(),
            retry: RetryPolicy::supervision(),
            health: false,
            brownout: None,
            thrash_pages: 0,
        }
    }
}

/// Results of one graceful-degradation run.
#[derive(Clone, Debug)]
pub struct DegradationReport {
    /// The usual pool figures (throughput, response and queueing
    /// summaries, per-replica load) over both classes.
    pub pool: PoolReport,
    /// Normal-class outcome figures.
    pub normal: ClassReport,
    /// Emergency-class outcome figures.
    pub emergency: ClassReport,
    /// Replica-side per-class admission sheds (queue-full + deadline).
    pub sheds: ClassSheds,
    /// What the SBI plan injected.
    pub sbi: FaultCounts,
    /// Client supervision-retry counters.
    pub retry: RetryStats,
    /// Replicas ejected from the ring by health gating.
    pub ejections: u64,
    /// Replicas reinstated after a successful half-open probe.
    pub reinstatements: u64,
    /// Half-open probes sent.
    pub probes: u64,
    /// Times the frontend entered brownout (prefetch disabled).
    pub brownout_entries: u64,
    /// Times the frontend exited brownout.
    pub brownout_exits: u64,
    /// Virtual time from first arrival to last completion.
    pub span: SimDuration,
    /// End-of-run client-observed response-latency EWMA in nanoseconds
    /// (the brownout trigger signal), when any pool round trip happened.
    pub latency_ewma_ns: Option<f64>,
}

impl std::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "normal {:.1}% ({}/{}), emergency {:.1}% ({}/{}); \
             sheds n/e {}/{}; {} retransmissions; \
             eject/reinstate {}/{}; brownout in/out {}/{}",
            100.0 * self.normal.availability,
            self.normal.served,
            self.normal.arrivals,
            100.0 * self.emergency.availability,
            self.emergency.served,
            self.emergency.arrivals,
            self.sheds.normal,
            self.sheds.emergency,
            self.retry.retries,
            self.ejections,
            self.reinstatements,
            self.brownout_entries,
            self.brownout_exits,
        )
    }
}

/// Runs one graceful-degradation experiment (see the module docs): the
/// shared open-loop driver with the SBI plan armed and every
/// overload-control mechanism the config enables.
///
/// # Panics
///
/// Panics when a cache refill response fails to decode, or when the
/// engine leaves requests unsettled.
#[must_use]
pub fn degradation_sweep(seed: u64, cfg: &DegradationConfig) -> DegradationReport {
    let mut plan = None;
    let outcome = run_scenario(
        seed,
        &Scenario {
            name: "degradation",
            pool: PoolConfig {
                replicas: cfg.replicas,
                warm_standby: cfg.warm_standby,
                queue: cfg.queue,
                emergency_headroom: cfg.emergency_headroom,
                ..PoolConfig::default()
            },
            workload: WorkloadSpec {
                ues: cfg.ues,
                arrivals: cfg.arrivals,
                rate_per_sec: cfg.offered_per_sec,
            },
            emergency_period: cfg.emergency_period,
            cache: cfg.cache,
            retry: cfg.retry,
            health: cfg.health,
            brownout: cfg.brownout,
            thrash_pages: cfg.thrash_pages,
            kill_at: None,
            crash_at: None,
            aex_storm: 0,
        },
        |switch, env| plan = SbiFaultPlan::install(switch, env, cfg.sbi),
    );
    let sheds = outcome.sheds;
    obs::count("faults", "degradation", labels::SHED_NORMAL, sheds.normal);
    obs::count(
        "faults",
        "degradation",
        labels::SHED_EMERGENCY,
        sheds.emergency,
    );
    DegradationReport {
        pool: outcome.pool,
        normal: outcome.tallies.normal,
        emergency: outcome.tallies.emergency,
        sheds,
        sbi: plan.map_or_else(FaultCounts::default, |p| p.borrow().counts()),
        retry: outcome.tallies.retry,
        ejections: outcome.tallies.ejections,
        reinstatements: outcome.tallies.reinstatements,
        probes: outcome.tallies.probes,
        brownout_entries: outcome.brownout.map_or(0, |b| b.entries),
        brownout_exits: outcome.brownout.map_or(0, |b| b.exits),
        span: outcome.span,
        latency_ewma_ns: outcome.brownout.and_then(|b| b.latency_ewma_ns),
    }
}

/// One fully-specified point of the degradation bench. `Copy + Send`,
/// so the parallel sweep runner can move points onto worker threads;
/// running a point is a pure function of this struct.
#[derive(Clone, Copy, Debug)]
pub struct DegradationPoint {
    /// Scenario label the bench reports (`fault_ramp`, `brownout`).
    pub scenario: &'static str,
    /// Total SBI fault rate of the point (split evenly across
    /// drop/delay/5xx).
    pub rate: f64,
    /// Seed of this point's run.
    pub seed: u64,
    /// The full experiment configuration.
    pub cfg: DegradationConfig,
}

/// A config under pressure: offered load past the pool's comfortable
/// operating point, a tight priority-aware admission queue, health-gated
/// routing, and the brownout trigger armed — every arrival pays a real
/// pool round trip (no AV cache), so the fault ramp bites.
#[must_use]
pub fn pressured_config(arrivals: u32) -> DegradationConfig {
    DegradationConfig {
        arrivals,
        offered_per_sec: 1_200.0,
        queue: QueueConfig {
            capacity: 8,
            deadline: SimDuration::from_millis(40),
        },
        emergency_headroom: 2,
        emergency_period: 4,
        health: true,
        brownout: Some(BrownoutPolicy::default()),
        ..DegradationConfig::default()
    }
}

/// The brownout scenario: the AV cache on, the EPC thrashed, and SBI
/// delays inflating the latency EWMA — the frontend must fall back from
/// batch prefetching to single-AV misses while serving hits from the
/// cache alone.
#[must_use]
pub fn brownout_config(arrivals: u32) -> DegradationConfig {
    DegradationConfig {
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
        brownout: Some(BrownoutPolicy {
            enter_above: SimDuration::from_millis(2),
            ..BrownoutPolicy::default()
        }),
        ..pressured_config(arrivals)
    }
}

/// The degradation bench's point list: availability/goodput/shed-rate
/// curves per priority class as the SBI fault rate ramps, plus the
/// cache-brownout scenario under EPC thrash. `smoke` shrinks the list
/// to CI-smoke size.
#[must_use]
pub fn degradation_points(smoke: bool) -> Vec<DegradationPoint> {
    let rates: &[f64] = if smoke {
        &[0.0, 0.35]
    } else {
        &[0.0, 0.05, 0.1, 0.2, 0.35, 0.5]
    };
    let arrivals = if smoke { 100 } else { 240 };
    let mut points: Vec<DegradationPoint> = rates
        .iter()
        .map(|&rate| DegradationPoint {
            scenario: "fault_ramp",
            rate,
            seed: 930,
            cfg: DegradationConfig {
                sbi: FaultConfig {
                    drop_rate: rate / 3.0,
                    delay_rate: rate / 3.0,
                    error_rate: rate / 3.0,
                    ..FaultConfig::default()
                },
                ..pressured_config(arrivals)
            },
        })
        .collect();
    points.push(DegradationPoint {
        scenario: "brownout",
        rate: 0.0,
        seed: 931,
        cfg: brownout_config(arrivals),
    });
    points
}

/// Runs one degradation point.
#[must_use]
pub fn run_degradation_point(point: &DegradationPoint) -> DegradationReport {
    degradation_sweep(point.seed, &point.cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_serves_both_classes_fully() {
        let report = degradation_sweep(
            800,
            &DegradationConfig {
                arrivals: 120,
                ..DegradationConfig::default()
            },
        );
        assert_eq!(report.normal.arrivals + report.emergency.arrivals, 120);
        assert!(report.emergency.arrivals > 0, "period 4 must mark some");
        assert_eq!(report.normal.lost, 0);
        assert_eq!(report.emergency.lost, 0);
        assert!((report.normal.availability - 1.0).abs() < 1e-9);
        assert!((report.emergency.availability - 1.0).abs() < 1e-9);
        assert_eq!(report.sheds, ClassSheds::default());
        assert_eq!(report.brownout_entries, 0);
        assert_eq!(report.ejections, 0);
    }

    #[test]
    fn same_seed_same_degradation_report() {
        let cfg = pressured_config(120);
        let a = degradation_sweep(801, &cfg);
        let b = degradation_sweep(801, &cfg);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = degradation_sweep(802, &cfg);
        assert_ne!(
            format!("{a:?}"),
            format!("{c:?}"),
            "different seeds must diverge"
        );
    }

    #[test]
    fn emergency_availability_degrades_strictly_slower() {
        let clean = run_degradation_point(&DegradationPoint {
            scenario: "fault_ramp",
            rate: 0.0,
            seed: 930,
            cfg: pressured_config(240),
        });
        let stressed = run_degradation_point(&DegradationPoint {
            scenario: "fault_ramp",
            rate: 0.5,
            seed: 930,
            cfg: DegradationConfig {
                sbi: FaultConfig {
                    drop_rate: 0.5 / 3.0,
                    delay_rate: 0.5 / 3.0,
                    error_rate: 0.5 / 3.0,
                    ..FaultConfig::default()
                },
                ..pressured_config(240)
            },
        });
        let normal_drop = clean.normal.availability - stressed.normal.availability;
        let emergency_drop = clean.emergency.availability - stressed.emergency.availability;
        assert!(
            normal_drop > 0.0,
            "the stressed point must actually degrade: {stressed}"
        );
        assert!(
            emergency_drop < normal_drop,
            "emergency must degrade strictly slower: \
             emergency drop {emergency_drop:.3} vs normal drop {normal_drop:.3} ({stressed})"
        );
        assert!(
            stressed.sheds.normal > stressed.sheds.emergency,
            "the reserved headroom must shed normal first: {:?}",
            stressed.sheds
        );
    }

    #[test]
    fn brownout_enters_under_thrash_and_counts_transitions() {
        let report = degradation_sweep(803, &brownout_config(160));
        assert!(
            report.brownout_entries > 0,
            "EPC thrash + delays must push the latency EWMA over: {report}"
        );
        assert!(report.brownout_entries >= report.brownout_exits);
        assert!(
            report.normal.availability > 0.8,
            "brownout degrades freshness, not availability: {report}"
        );
    }

    #[test]
    fn sustained_faults_eject_and_probe_replicas() {
        let report = degradation_sweep(
            804,
            &DegradationConfig {
                sbi: FaultConfig {
                    error_rate: 0.6,
                    ..FaultConfig::default()
                },
                ..pressured_config(200)
            },
        );
        assert!(
            report.ejections > 0,
            "60% 5xx must trip a replica: {report}"
        );
        assert!(report.probes > 0, "ejected replicas must be probed");
    }
}
