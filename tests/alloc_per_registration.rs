//! Heap allocations of one steady-state registration, and of one arrival
//! at a faulted eUDM pool, counted in process: a regression in the
//! per-message buffers (the recycled wire `Body` and which buffers the
//! spare list keeps, the borrowed NGAP NAS PDU, the breaker's call table,
//! the NFs' flows parked by leg instead of boxed per call-out) or on the
//! pool path (the completions buffer the open-loop driver
//! keeps, the subscriber key read into its secret, the static headers of
//! shed and fault replies) fails `cargo test`, not only the benchmark's
//! allocation ratchet.
//!
//! The counter is this binary's global allocator: it forwards every call
//! to the system allocator and counts `alloc`, `alloc_zeroed` and
//! `realloc` on the calling thread, in a `const`-initialised
//! thread-local `Cell` (no lazy initialisation, no destructor, so the
//! allocator never allocates itself). Each test runs on its own thread,
//! so only its own allocations are counted.

#![expect(
    clippy::expect_used,
    reason = "integration-test helper: a panic is the failure report"
)]

use shield5g::core::paka::SgxConfig;
use shield5g::core::slice::{build_slice, AkaDeployment, Slice, SliceConfig};
use shield5g::faults::plan::{FaultConfig, SbiFaultPlan};
use shield5g::mw::RetryPolicy;
use shield5g::ran::gnbsim::GnbSim;
use shield5g::ran::workload::WorkloadSpec;
use shield5g::scale::openloop::{run_scenario, Scenario};
use shield5g::scale::pool::PoolConfig;
use shield5g::scale::queue::QueueConfig;
use shield5g::sim::time::SimDuration;
use shield5g::sim::Env;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // Past thread exit there is no counter; those calls are not ours.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added effect is a
// thread-local counter update, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and a valid `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most allocations one steady-state SGX registration plus PDU session
/// may make: this run reads 17 (the benchmark's `reg_sgx` ≈ 17.7 per op);
/// with each call-out's continuation boxed, it read 25.
const CEILING: u64 = 18;

/// Subscribers of the slice; the warm-up registers each twice.
const SUBSCRIBERS: usize = 20;

/// Allocations made on this thread while `work` runs.
fn allocations(work: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    work();
    ALLOCS.with(Cell::get) - before
}

fn register(env: &mut Env, slice: &Slice, gnb: &mut GnbSim, index: usize) {
    let (_, ip) = gnb
        .register_with_session(env, slice, index)
        .expect("registration and PDU session");
    assert_eq!(ip[0], 10, "a UE address");
}

#[test]
fn a_steady_state_registration_allocates_a_fixed_count_under_the_ceiling() {
    let mut env = Env::new(300);
    env.log.disable();
    let config = SliceConfig {
        deployment: AkaDeployment::Sgx(SgxConfig::default()),
        subscriber_count: SUBSCRIBERS as u32,
    };
    let slice = build_slice(&mut env, &config).expect("an SGX slice");
    let mut gnb = GnbSim::new(&slice);
    // Warm every subscriber's state, the spare buffers and the tables.
    for op in 0..2 * SUBSCRIBERS {
        register(&mut env, &slice, &mut gnb, op % SUBSCRIBERS);
    }
    let counts: Vec<u64> = (0..2)
        .map(|index| allocations(|| register(&mut env, &slice, &mut gnb, index)))
        .collect();
    eprintln!("allocations per registration: {counts:?}");
    assert_eq!(counts[0], counts[1], "two consecutive registrations");
    assert!(counts[0] <= CEILING, "{} > {CEILING}", counts[0]);
}

/// Most allocations one more arrival at a faulted, retrying eUDM pool
/// may add. This run reads ≈ 0.6 (the benchmark's `pool_faulted`, set-up
/// included, ≈ 1.1 per op); with short error bodies crowding the spare
/// list and the key read into a `Vec`, it read ≈ 5.4.
const ARRIVAL_CEILING: f64 = 0.75;

/// Arrivals of the shorter run; the longer one offers twice as many.
const ARRIVALS: u32 = 400;

/// Allocations of one open-loop run of `arrivals` at 2800/s on four
/// replicas (the benchmark's admission queue), with 10 % SBI faults and
/// supervision retries.
fn faulted_pool_run(arrivals: u32) -> u64 {
    let scenario = Scenario {
        name: "alloc",
        pool: PoolConfig {
            replicas: 4,
            warm_standby: 0,
            queue: QueueConfig {
                capacity: 16,
                deadline: SimDuration::from_millis(100),
            },
            ..PoolConfig::default()
        },
        workload: WorkloadSpec {
            ues: 40,
            arrivals,
            rate_per_sec: 2800.0,
        },
        emergency_period: 0,
        cache: None,
        retry: RetryPolicy::supervision(),
        health: None,
        brownout: None,
        thrash_pages: 0,
        kill_at: None,
        crash_at: None,
        aex_storm: 0,
    };
    let faults = FaultConfig {
        drop_rate: 0.1 / 3.0,
        delay_rate: 0.1 / 3.0,
        error_rate: 0.1 / 3.0,
        ..FaultConfig::default()
    };
    let mut plan = None;
    let count = allocations(|| {
        let outcome = run_scenario(300, &scenario, |switch, env| {
            plan = SbiFaultPlan::install(switch, env, faults);
        });
        assert_eq!(outcome.pool.arrivals, u64::from(arrivals));
        assert!(outcome.tallies.retry.retries > 0, "no fault was retried");
    });
    let injected = plan.expect("an armed plan").borrow().counts().total();
    assert!(injected > 0, "no fault was injected");
    count
}

#[test]
fn an_open_loop_arrival_allocates_almost_nothing() {
    // Warm the spare list and the tables the way a steady-state pool is.
    faulted_pool_run(ARRIVALS);
    let short = faulted_pool_run(ARRIVALS);
    let long = faulted_pool_run(2 * ARRIVALS);
    let per_arrival = long.saturating_sub(short) as f64 / f64::from(ARRIVALS);
    eprintln!("allocations: {short} at {ARRIVALS} arrivals, {long} at twice that");
    assert!(
        per_arrival <= ARRIVAL_CEILING,
        "{per_arrival:.2} allocations per arrival > {ARRIVAL_CEILING}"
    );
}
