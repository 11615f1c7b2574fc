//! The invariants tier: properties every drawn run must end with, through
//! both drivers.
//!
//! * The **open-loop world** draws a pool scenario (seed, replicas, warm
//!   standby, population, arrivals and rate, admission queue, SBI fault
//!   rates, retry budget, kill and crash points, AV cache, brownout,
//!   health gating, emergency traffic) and runs it through
//!   `scale::openloop::run_scenario`.
//! * The **registration world** builds a slice in one of the three AKA
//!   deployments and drives gNBSIM rounds plus one long-lived UE per
//!   subscriber, optionally one whose USIM is ahead of the network.
//!
//! After every run, with an obs recorder installed:
//!
//! * (i) *conservation*: per class, arrivals = served + lost; the retry
//!   budget's exhaustions are the shed; nothing stays in flight
//!   (`run_scenario` asserts it); the outcome is a function of the seed.
//! * (ii) *liveness*: no live engine context, no open span, nothing parked
//!   in any NF, no call in the breaker's table, and gNBSIM leaves one AMF
//!   context and one session per subscriber, no tunnel, and one R sample
//!   per module call.
//! * (iii) is reserved for *time*: a served request's latency covers its
//!   attempts' back-offs.
//! * (iv) *freshness*: each subscriber is sent the SQNs `1..=h`, each
//!   once, whether by the single path or the AV cache (`Outcome::audit`);
//!   no cached AV is handed out twice; and a USIM's accepted SQN strictly
//!   increases with no resync but the one a draw sets up.
//! * (v) *accounting*: each registration trace's exclusive times sum to
//!   its root span.
//!
//! The vendored proptest does not shrink, so a failing draw is shrunk
//! here: each dimension walks toward its floor while the failure holds,
//! and the message names the drawn and the shrunk case.

use proptest::prelude::*;
use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, Slice, SliceConfig};
use shield5g::mw::{FaultConfig, RetryPolicy};
use shield5g::obs::hub::{self, ObsHandle};
use shield5g::ran::gnbsim::GnbSim;
use shield5g::ran::ue::CotsUe;
use shield5g::ran::workload::WorkloadSpec;
use shield5g::scale::openloop::{run_scenario, Scenario};
use shield5g::scale::{AvCacheConfig, PoolConfig, QueueConfig};
use shield5g::sim::time::SimDuration;
use shield5g::sim::Env;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `Err` with a formatted message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// One world's check over a draw of `N` dimensions.
type Check<const N: usize> = fn([u64; N]) -> Result<(), String>;

/// `check(draw)`, with a panic anywhere in the run reported as a failure.
fn guarded<const N: usize>(check: Check<N>, draw: [u64; N]) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| check(draw))).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()));
        Err(format!("panicked: {}", msg.unwrap_or_default()))
    })
}

/// Runs `check` on `draw`. On a failure, lowers one dimension at a time
/// toward its floor (to the floor, halfway, one less) while the failure
/// persists, and fails with the drawn and the shrunk case.
fn hold<const N: usize>(
    names: [&str; N],
    floor: [u64; N],
    draw: [u64; N],
    check: Check<N>,
) -> Result<(), String> {
    let Err(mut why) = guarded(check, draw) else {
        return Ok(());
    };
    let mut best = draw;
    let mut moved = true;
    while moved {
        moved = false;
        for i in 0..N {
            let span = best[i] - floor[i];
            for to in [floor[i], floor[i] + span / 2, best[i].saturating_sub(1)] {
                if to >= best[i] || to < floor[i] {
                    continue;
                }
                let mut trial = best;
                trial[i] = to;
                if let Err(e) = guarded(check, trial) {
                    (best, why, moved) = (trial, e, true);
                    break;
                }
            }
        }
    }
    let render = |d: [u64; N]| -> String {
        let fields: Vec<String> = names
            .iter()
            .zip(d)
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        fields.join(" ")
    };
    Err(format!(
        "{why}\n  drawn:  {}\n  shrunk: {}",
        render(draw),
        render(best)
    ))
}

const POOL_DIMS: [&str; 19] = [
    "seed",
    "replicas",
    "standby",
    "ues",
    "arrivals",
    "rate",
    "queue",
    "deadline_ms",
    "faulted",
    "drop_pm",
    "delay_pm",
    "error_pm",
    "retries",
    "kill",
    "crash",
    "cache",
    "brownout",
    "health",
    "emergency",
];
const POOL_FLOOR: [u64; 19] = [0, 1, 0, 1, 10, 500, 2, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];

/// The open-loop scenario a draw names: the kill and crash points are
/// quarters of the run, a cache draw is its batch size, and an
/// emergency draw makes every third arrival an emergency registration.
fn scenario(d: [u64; 19]) -> Scenario {
    let [_, replicas, standby, ues, arrivals, rate, queue, deadline_ms, faulted, drop_pm, delay_pm, error_pm, retries, kill, crash, cache, brownout, health, emergency] =
        d;
    let narrow = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
    let arrivals = narrow(arrivals);
    let point = |quarter: u64| (quarter > 0).then(|| arrivals * narrow(quarter) / 4);
    let share = |pm: u64| {
        if faulted > 0 {
            pm as f64 / 1_000.0
        } else {
            0.0
        }
    };
    Scenario {
        name: "invariants",
        pool: PoolConfig {
            replicas: narrow(replicas),
            warm_standby: narrow(standby),
            queue: QueueConfig {
                capacity: queue as usize,
                deadline: SimDuration::from_millis(deadline_ms),
            },
            emergency_headroom: usize::from(emergency > 0),
            ..PoolConfig::default()
        },
        workload: WorkloadSpec {
            ues: narrow(ues),
            arrivals,
            rate_per_sec: rate as f64,
        },
        emergency_period: if emergency > 0 { 3 } else { 0 },
        cache: (cache > 0).then_some(AvCacheConfig {
            batch_size: narrow(cache),
            capacity_per_supi: 8,
        }),
        retry: RetryPolicy {
            max_retries: narrow(retries),
            ..RetryPolicy::supervision()
        },
        sbi: FaultConfig {
            drop_rate: share(drop_pm),
            delay_rate: share(delay_pm),
            error_rate: share(error_pm),
        },
        health: health > 0,
        brownout: (brownout > 0).then(|| SimDuration::from_millis(1)),
        thrash_pages: 0,
        kill_at: point(kill),
        crash_at: point(crash),
        aex_storm: 0,
    }
}

fn open_loop_world(d: [u64; 19]) -> Result<(), String> {
    let sc = scenario(d);
    let run = |seed: u64| {
        let recorder = ObsHandle::new();
        let _scope = hub::scoped(&recorder);
        let out = run_scenario(seed, &sc);
        (out, recorder.with(|o| o.spans.open_count()))
    };
    let (out, open_spans) = run(d[0]);

    // (i) Conservation.
    let n = u64::from(sc.workload.arrivals);
    let (pool, t) = (&out.pool, out.tallies);
    ensure!(
        pool.arrivals == n,
        "{} of {n} arrivals recorded",
        pool.arrivals
    );
    ensure!(
        pool.served + pool.shed == n,
        "served {} + lost {} != {n} arrivals",
        pool.served,
        pool.shed
    );
    ensure!(
        t.normal.arrivals + t.emergency.arrivals == n,
        "class arrivals {} + {} != {n}",
        t.normal.arrivals,
        t.emergency.arrivals
    );
    for (name, class) in [("normal", t.normal), ("emergency", t.emergency)] {
        ensure!(
            class.served + class.lost == class.arrivals,
            "{name}: served {} + lost {} != arrivals {}",
            class.served,
            class.lost,
            class.arrivals
        );
    }
    ensure!(
        t.retry.exhausted == pool.shed,
        "retry budget exhausted {} times, {} lost",
        t.retry.exhausted,
        pool.shed
    );
    ensure!(
        t.failover.is_some() == sc.kill_at.is_some(),
        "kill at {:?}, failover {:?}",
        sc.kill_at,
        t.failover
    );
    let (again, _) = run(d[0]);
    ensure!(
        format!("{out:?}") == format!("{again:?}"),
        "same seed, different outcome"
    );
    let (other, _) = run(d[0] + 1_000);
    ensure!(
        format!("{out:?}") != format!("{other:?}"),
        "seeds {} and {} gave the same outcome",
        d[0],
        d[0] + 1_000
    );

    // (ii) Liveness.
    let audit = out.audit;
    ensure!(
        audit.live_contexts == 0,
        "{} engine contexts live after the drain",
        audit.live_contexts
    );
    ensure!(open_spans == 0, "{open_spans} spans left open");

    // (iv) Freshness.
    ensure!(
        audit.sqns_issued == audit.sqns_reached,
        "SQNs sent (count, sum) {:?}, but the counters reached {:?}: one was sent twice or skipped",
        audit.sqns_issued,
        audit.sqns_reached
    );
    if let Some(c) = pool.cache {
        let left = c.hits + audit.batch_heads + c.invalidated + c.evicted + audit.banked_avs as u64;
        ensure!(
            left == c.pregenerated,
            "{} AVs pre-generated, {left} handed out, dropped or banked ({c:?}, {audit:?})",
            c.pregenerated
        );
    }
    Ok(())
}

const REG_DIMS: [&str; 5] = ["seed", "deployment", "subscribers", "rounds", "ahead"];
const REG_FLOOR: [u64; 5] = [0, 0, 1, 1, 0];

fn deployment(d: u64) -> AkaDeployment {
    match d {
        0 => AkaDeployment::Monolithic,
        1 => AkaDeployment::Container,
        _ => AkaDeployment::Sgx(SgxConfig::default()),
    }
}

fn world(seed: u64, deployment: AkaDeployment, subscribers: usize) -> Result<(Env, Slice), String> {
    let mut env = Env::new(seed);
    env.log.disable();
    let config = SliceConfig {
        deployment,
        subscriber_count: u32::try_from(subscribers).map_err(|e| e.to_string())?,
    };
    let slice = build_slice(&mut env, &config).map_err(|e| e.to_string())?;
    Ok((env, slice))
}

/// Registers a long-lived UE and releases its radio connection; returns
/// the resyncs it took.
fn register(env: &mut Env, sim: &mut GnbSim, ue: &mut CotsUe) -> Result<u8, String> {
    let report = ue.register(env, sim.gnb_mut());
    if let Some(id) = ue.ran_ue_id() {
        sim.gnb_mut().release(id);
    }
    Ok(report.map_err(|e| e.to_string())?.resyncs)
}

fn registration_world(d: [u64; 5]) -> Result<(), String> {
    let [seed, deployment_ix, subscribers, rounds, ahead] = d;
    let n = subscribers as usize;
    let deployment = deployment(deployment_ix);
    let recorder = ObsHandle::new();
    let _scope = hub::scoped(&recorder);
    let (mut env, slice) = world(seed, deployment, n)?;
    let mut sim = GnbSim::new(&slice);
    let mut ues: Vec<CotsUe> = (0..n).map(|i| sim.ue_for(&slice, i)).collect();
    // A USIM ahead of the network: its subscriber first registers on a
    // twin world, so its first registration here may need a resync.
    if ahead > 0 {
        let (mut twin_env, twin) = world(seed + 1, AkaDeployment::Monolithic, 1)?;
        let mut twin_sim = GnbSim::new(&twin);
        for _ in 0..ahead {
            register(&mut twin_env, &mut twin_sim, &mut ues[0])?;
        }
    }
    let mut accepted: Vec<[u8; 6]> = ues.iter().map(|ue| ue.usim().sqn_ms()).collect();
    for round in 0..rounds {
        for (i, ue) in ues.iter_mut().enumerate() {
            let (report, _) = sim
                .register_with_session(&mut env, &slice, i)
                .map_err(|e| format!("gNBSIM subscriber {i}, round {round}: {e}"))?;
            let resynced = register(&mut env, &mut sim, ue)
                .map_err(|e| format!("UE {i}, round {round}: {e}"))?;
            // (iv) Freshness: only the UE set ahead may resync, once.
            let may = u8::from(i == 0 && ahead > 0 && round == 0);
            ensure!(
                report.resyncs == 0 && resynced <= may,
                "UE {i}, round {round}: {} + {resynced} resyncs",
                report.resyncs
            );
            let now = ue.usim().sqn_ms();
            ensure!(
                now > accepted[i],
                "UE {i}, round {round}: accepted SQN {now:?} not above {:?}",
                accepted[i]
            );
            accepted[i] = now;
        }
    }

    // (ii) Liveness.
    let engine = slice.engine.borrow().stats();
    ensure!(
        engine.live_contexts == 0,
        "{} live contexts",
        engine.live_contexts
    );
    let parked = [
        slice.amf.borrow().parked(),
        slice.ausf.borrow().parked(),
        slice.udm.borrow().parked(),
        slice.smf.borrow().parked(),
    ];
    ensure!(
        parked == [0; 4],
        "parked in AMF, AUSF, UDM, SMF: {parked:?}"
    );
    let breaker = slice.breaker.borrow();
    ensure!(breaker.total_samples() > 0, "the breaker guarded no call");
    let calls = breaker.calls_in_flight();
    ensure!(calls == 0, "{calls} calls in the breaker's table");
    let held = [
        slice.amf.borrow().active_contexts(),
        slice.smf.borrow().session_count(),
        slice.upf.borrow().session_count(),
    ];
    ensure!(
        held == [n; 3],
        "AMF contexts, SMF and UPF sessions {held:?} for {n} subscribers"
    );
    let tunnels = sim.gnb_mut().tunnel_count();
    ensure!(tunnels == 0, "{tunnels} gNB tunnels left");
    for kind in PakaKind::all() {
        if let (Some(module), Some(tally)) = (slice.module(kind), slice.backend_metrics(kind)) {
            let served = module.borrow().requests_served();
            ensure!(
                tally.calls == served,
                "{} tallied {} R samples for {served} calls",
                kind.name(),
                tally.calls
            );
        }
    }

    // (ii) and (v): every span closed; each trace partitions its root.
    recorder.with(|o| {
        let spans = &o.spans;
        ensure!(
            spans.open_count() == 0,
            "{} spans left open",
            spans.open_count()
        );
        ensure!(spans.dropped() == 0, "{} spans dropped", spans.dropped());
        for root in spans.finished().iter().filter(|s| s.parent.is_none()) {
            let total = spans.exclusive_total(root.trace);
            ensure!(
                total == root.duration_ns(),
                "trace {} ({} {}): exclusive times sum to {total} ns, root is {} ns",
                root.trace,
                root.nf,
                root.name,
                root.duration_ns()
            );
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_open_loop_run_is_conserved_idle_and_fresh(
        seed in 0u64..1_000,
        replicas in 1u64..=3,
        standby in 0u64..=1,
        ues in 1u64..=12,
        arrivals in 10u64..=60,
        rate in 500u64..=4_000,
        queue in 2u64..=8,
        deadline_ms in 5u64..=40,
        faulted in 0u64..=1,
        drop_pm in 0u64..=150,
        delay_pm in 0u64..=150,
        error_pm in 0u64..=150,
        retries in 0u64..=3,
        kill in 0u64..=3,
        crash in 0u64..=3,
        cache in 0u64..=8,
        brownout in 0u64..=1,
        health in 0u64..=1,
        emergency in 0u64..=1,
    ) {
        let draw = [
            seed, replicas, standby, ues, arrivals, rate, queue, deadline_ms, faulted, drop_pm,
            delay_pm, error_pm, retries, kill, crash, cache, brownout, health, emergency,
        ];
        if let Err(why) = hold(POOL_DIMS, POOL_FLOOR, draw, open_loop_world) {
            prop_assert!(false, "{why}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_registration_run_is_idle_fresh_and_accounted(
        seed in 0u64..1_000,
        deployment in 0u64..=2,
        subscribers in 1u64..=3,
        rounds in 1u64..=3,
        ahead in 0u64..=2,
    ) {
        let draw = [seed, deployment, subscribers, rounds, ahead];
        if let Err(why) = hold(REG_DIMS, REG_FLOOR, draw, registration_world) {
            prop_assert!(false, "{why}");
        }
    }
}
