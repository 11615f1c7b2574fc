//! Heap allocations of one steady-state registration, counted in
//! process: a regression in the per-message buffers (the recycled wire
//! `Body`, the borrowed NGAP NAS PDU, the breaker's call table) fails
//! `cargo test`, not only the benchmark's allocation ratchet.
//!
//! The counter is this binary's global allocator: it forwards every call
//! to the system allocator and counts `alloc`, `alloc_zeroed` and
//! `realloc` on the calling thread, in a `const`-initialised
//! thread-local `Cell` (no lazy initialisation, no destructor, so the
//! allocator never allocates itself). Each test runs on its own thread,
//! so only its own allocations are counted.

use shield5g::core::paka::SgxConfig;
use shield5g::core::slice::{build_slice, AkaDeployment, Slice, SliceConfig};
use shield5g::ran::gnbsim::GnbSim;
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
/// may make (the benchmark's `reg_sgx` reads ≈ 27 per op).
const CEILING: u64 = 30;

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
