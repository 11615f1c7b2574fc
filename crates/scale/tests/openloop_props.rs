//! The combinations the shared open-loop driver makes representable and
//! no single experiment config can express: cache, retries, replica
//! kill, enclave crash, health gating, brownout and emergency traffic,
//! switched independently.

use proptest::prelude::*;
use shield5g_mw::RetryPolicy;
use shield5g_ran::workload::WorkloadSpec;
use shield5g_scale::openloop::{run_scenario, Scenario};
use shield5g_scale::{AvCacheConfig, BrownoutPolicy, HealthPolicy, PoolConfig, QueueConfig};
use shield5g_sim::time::SimDuration;

/// A small overloaded scenario whose seven switches are the bits of
/// `mix`.
fn mixed(mix: u32, arrivals: u32) -> Scenario {
    let bit = |n: u32| mix & (1 << n) != 0;
    Scenario {
        name: "mixed",
        pool: PoolConfig {
            replicas: 2,
            warm_standby: u32::from(bit(2)),
            queue: QueueConfig {
                capacity: 4,
                deadline: SimDuration::from_millis(20),
            },
            emergency_headroom: 1,
            ..PoolConfig::default()
        },
        workload: WorkloadSpec {
            ues: 8,
            arrivals,
            rate_per_sec: 1_500.0,
        },
        emergency_period: if bit(6) { 3 } else { 0 },
        cache: bit(0).then_some(AvCacheConfig {
            batch_size: 4,
            capacity_per_supi: 8,
        }),
        retry: if bit(1) {
            RetryPolicy::supervision()
        } else {
            RetryPolicy::disabled()
        },
        health: bit(4).then(HealthPolicy::default),
        brownout: bit(5).then(|| BrownoutPolicy {
            enter_above: SimDuration::from_millis(1),
            ..BrownoutPolicy::default()
        }),
        thrash_pages: 0,
        kill_at: bit(2).then_some(arrivals / 3),
        crash_at: bit(3).then_some(arrivals / 2),
        aex_storm: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the mix, every arrival ends served or lost, nothing
    /// stays in flight (`run_scenario` asserts it), and the outcome is a
    /// pure function of the seed.
    #[test]
    fn every_arrival_is_accounted_for(
        mix in 0u32..128,
        arrivals in 20u32..=60,
        seed in 0u64..1_000,
    ) {
        let sc = mixed(mix, arrivals);
        let out = run_scenario(seed, &sc, |_, _| {});
        let n = u64::from(arrivals);
        prop_assert_eq!(out.pool.arrivals, n);
        prop_assert_eq!(out.pool.served + out.pool.shed, n);
        let t = out.tallies;
        prop_assert_eq!(t.normal.arrivals + t.emergency.arrivals, n);
        for class in [t.normal, t.emergency] {
            prop_assert_eq!(class.served + class.lost, class.arrivals);
        }
        prop_assert_eq!(t.retry.exhausted, out.pool.shed);
        prop_assert_eq!(t.failover.is_some(), sc.kill_at.is_some());

        let again = run_scenario(seed, &sc, |_, _| {});
        prop_assert_eq!(format!("{out:?}"), format!("{again:?}"));
        let other = run_scenario(seed + 1_000, &sc, |_, _| {});
        prop_assert_ne!(format!("{out:?}"), format!("{other:?}"));
    }
}
