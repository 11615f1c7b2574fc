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
//! * **Brownout** — when the response-latency EWMA climbs past the
//!   scenario's threshold the frontend stops AV batch prefetching (each
//!   miss pays one single-AV round trip instead of a batch) and serves
//!   hits from the [`AvCache`](shield5g_scale::AvCache) alone; it exits
//!   the brownout with hysteresis once the EWMA falls below 0.7 of the
//!   threshold.
//!
//! Each point is a [`Scenario`] for the shared open-loop driver,
//! [`shield5g_scale::openloop`]; [`degradation_points`] lists them, and
//! [`record_obs`] is what every run of one records.
//!
//! Everything is a pure function of the seed: workload, fault schedule,
//! retry jitter, and the emergency-marking pattern (by arrival index,
//! not RNG) are deterministic, so the emitted curves are byte-identical
//! across bench thread counts.

use crate::Point;
use shield5g_mw::{FaultConfig, RetryPolicy};
use shield5g_obs::{hub as obs, labels};
use shield5g_ran::workload::WorkloadSpec;
use shield5g_scale::avcache::AvCacheConfig;
use shield5g_scale::openloop::{Outcome, Scenario};
use shield5g_scale::pool::PoolConfig;
use shield5g_scale::queue::QueueConfig;
use shield5g_sim::time::SimDuration;

/// The unpressured degradation scenario: two replicas and no standby at
/// 400/s over 24 subscribers; every fourth arrival is an emergency
/// registration, riding two reserved queue slots; supervision retries;
/// no fault, cache, health gating or brownout.
fn base(arrivals: u32) -> Scenario {
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
    let base = base(arrivals);
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
#[must_use]
pub fn degradation_points(smoke: bool) -> Vec<Point> {
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
pub fn record_obs(outcome: &Outcome) {
    let sheds = outcome.sheds;
    obs::count("faults", "degradation", labels::SHED_NORMAL, sheds.normal);
    obs::count(
        "faults",
        "degradation",
        labels::SHED_EMERGENCY,
        sheds.emergency,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_mw::ClassSheds;
    use shield5g_scale::openloop::run_scenario;

    #[test]
    fn fault_free_run_serves_both_classes_fully() {
        let report = run_scenario(800, &base(120));
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
