//! Heap allocations of steady-state registrations, of the identity
//! path inside them, of one arrival at a faulted and at an AV-cached eUDM
//! pool, of an unknown subscriber's refusal, of a batch of subscribers
//! provisioned into an eUDM enclave and of the id table at steady size,
//! counted in process: a
//! regression in the per-message buffers (the recycled wire
//! `Body` and which buffers the spare list keeps, the borrowed NGAP NAS
//! PDU, the breaker's call table, the NFs' flows parked by leg instead of
//! boxed per call-out), in the identities (a SUCI, its scheme output and
//! the ECIES ciphertext inside it are inline values, concealed and opened
//! on the stack; the AUSF forwards the body it decoded; a serving PLMN's
//! codes decode to static text; the USIM's challenge outcome is not boxed),
//! on the pool path (the completions buffer the open-loop driver keeps,
//! a retransmission encoded again from its first send's draws instead of
//! a copy kept of every request, the subscriber key read into its secret,
//! the static headers and text of shed and fault replies, copied into
//! spare bodies) or in the vault (a slot's name and first page index held
//! inline, every page image in the EPC's one image region, room made once
//! for a batch of keys) or in the per-request state (engine contexts,
//! spans, parked flows and the NFs' contexts in `sim::table::IdTable`s, the
//! simulator's markers borrowed as `static` header pairs) or on the AV
//! cache's miss path (a batch kept as its wire bytes, read straight into
//! the cache under inline `Supi` keys, into slots every SUPI shares) or
//! in a refusal (an unknown SUPI's 404) fails `cargo test`, not only the
//! benchmark's allocation ratchet.
//!
//! A cycle of steady-state registrations allocates only the P-AKA
//! modules' R logs growing, 3 allocations when they double (the
//! benchmark's `reg_sgx` reads ≈ 0.002 per op at 10 s).
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

use shield5g::core::harness::{deploy_module, ModuleDeployment};
use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, Slice, SliceConfig, Subscriber};
use shield5g::crypto::ecies::HomeNetworkKeyPair;
use shield5g::crypto::hex;
use shield5g::crypto::ident::{Plmn, Supi};
use shield5g::crypto::keys::{HeAv, ServingNetworkName};
use shield5g::mw::{FaultConfig, RetryPolicy};
use shield5g::nf::backend::{AkaOp, GenerateAv, UdmAkaRequest};
use shield5g::nf::messages::{NasUplink, UeIdentity};
use shield5g::nf::sbi::AuthenticateRequest;
use shield5g::ran::gnbsim::GnbSim;
use shield5g::ran::usim::Usim;
use shield5g::ran::workload::{test_supi, WorkloadSpec};
use shield5g::scale::avcache::{AvCache, AvCacheConfig};
use shield5g::scale::openloop::{run_scenario, Scenario};
use shield5g::scale::pool::PoolConfig;
use shield5g::scale::queue::QueueConfig;
use shield5g::sim::http::SharedPaths;
use shield5g::sim::table::IdTable;
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

/// Most allocations one steady-state cycle of SGX registrations plus PDU
/// sessions, every subscriber once, may make: none. The warm-up fills
/// every table a registration touches, and each P-AKA client tallies R in
/// a fixed-size `ModuleMetricsLog`, not a list that grows per call. With
/// the per-request state (the engine's contexts, the spans, the AMF's and
/// the AUSF's maps, the gNB's tunnels) in `BTreeMap`s the same cycles read
/// `[10, 18, 15, 15, 18, 15]`: a node split wherever an ascending id
/// crossed a full leaf.
const CEILING: u64 = 0;

/// Subscribers of the slice; the warm-up registers each twice.
const SUBSCRIBERS: usize = 20;

/// Cycles counted after the warm-up.
const CYCLES: usize = 6;

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
    let counts: Vec<u64> = (0..CYCLES)
        .map(|_| {
            allocations(|| {
                for index in 0..SUBSCRIBERS {
                    register(&mut env, &slice, &mut gnb, index);
                }
            })
        })
        .collect();
    eprintln!("allocations per cycle of {SUBSCRIBERS} registrations: {counts:?}");
    // At a ceiling of 0, "no cycle over it" is "every cycle at it".
    assert_eq!(counts, [CEILING; CYCLES], "a cycle over {CEILING}");
}

#[test]
fn the_identity_path_allocates_nothing() {
    // The pinned SBI request, as `wire_vectors.txt` holds it.
    let golden = include_str!("../crates/nf/tests/golden/wire_vectors.txt");
    let line = golden
        .lines()
        .find_map(|l| l.strip_prefix("sbi.authenticate_request.suci "))
        .expect("the pinned authenticate request");
    let request = hex::decode(line).expect("hex");
    let mut env = Env::new(300);
    let sub = Subscriber::test(0);
    let hn = HomeNetworkKeyPair::from_private(1, [0x8f; 32]);
    let usim = Usim::program(sub.supi, sub.k, sub.opc, 1, hn.public().clone());
    let uplink = NasUplink::RegistrationRequest {
        identity: UeIdentity::Suci(usim.conceal_identity(&mut env)),
    }
    .encode();

    let decoded = allocations(|| {
        let req = AuthenticateRequest::decode(&request).expect("the pinned request");
        assert_eq!((req.snn_mcc, req.snn_mnc), ("001", "01"));
    });
    assert_eq!(decoded, 0, "the pinned authenticate request");
    let identity = allocations(|| {
        let decoded = NasUplink::decode(&uplink).expect("own uplink");
        assert!(matches!(
            decoded,
            NasUplink::RegistrationRequest {
                identity: UeIdentity::Suci(_)
            }
        ));
        let suci = usim.conceal_identity(&mut env);
        assert_eq!(suci.deconceal(&hn), Ok(sub.supi));
    });
    assert_eq!(identity, 0, "NAS decode, concealment and de-concealment");
}

/// Most allocations one more arrival at a faulted, retrying eUDM pool
/// may add: 0.75 → 0.10 → 0.04. This run reads 0.0325 (13 more for 400
/// more arrivals). With each request copied for retransmission it read
/// 0.0975 (39 more); with the
/// in-flight state in `BTreeMap`s and each shed or fault marker in a fresh
/// header `Vec` it read ≈ 0.55; with shed and fault text in fresh `String`
/// bodies as well, ≈ 0.6; with short error bodies crowding the spare list
/// and the key read into a `Vec`, ≈ 5.4.
const ARRIVAL_CEILING: f64 = 0.04;

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
        sbi: FaultConfig {
            drop_rate: 0.1 / 3.0,
            delay_rate: 0.1 / 3.0,
            error_rate: 0.1 / 3.0,
        },
        health: false,
        brownout: None,
        thrash_pages: 0,
        kill_at: None,
        crash_at: None,
        aex_storm: 0,
    };
    let mut injected = 0;
    let count = allocations(|| {
        let outcome = run_scenario(300, &scenario);
        assert_eq!(outcome.pool.arrivals, u64::from(arrivals));
        assert!(outcome.tallies.retry.retries > 0, "no fault was retried");
        injected = outcome.sbi.total();
    });
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

/// Most allocations one more arrival at an AV-cached eUDM pool may add.
/// This run reads 0 (the same count at 400 and 800 arrivals). With each batch
/// built in a `Vec<HeAv>` in the module and decoded into another at the
/// frontend, under a `String` key per SUPI, it read 0.25 (100 more).
const CACHED_ARRIVAL_CEILING: f64 = 0.02;

/// Allocations of one open-loop run of `arrivals` at 2800/s on four
/// replicas (the benchmark's admission queue) behind the default AV
/// cache, 40 subscribers.
fn cached_pool_run(arrivals: u32) -> u64 {
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
        cache: Some(AvCacheConfig::default()),
        retry: RetryPolicy::disabled(),
        sbi: FaultConfig::default(),
        health: false,
        brownout: None,
        thrash_pages: 0,
        kill_at: None,
        crash_at: None,
        aex_storm: 0,
    };
    allocations(|| {
        let outcome = run_scenario(300, &scenario);
        assert_eq!(outcome.pool.arrivals, u64::from(arrivals));
        let stats = outcome.pool.cache.expect("the cache was on");
        assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    })
}

#[test]
fn a_cached_arrival_allocates_almost_nothing() {
    // Warm the spare list the way a steady-state pool is.
    cached_pool_run(ARRIVALS);
    let short = cached_pool_run(ARRIVALS);
    let long = cached_pool_run(2 * ARRIVALS);
    let per_arrival = long.saturating_sub(short) as f64 / f64::from(ARRIVALS);
    eprintln!("allocations: {short} at {ARRIVALS} arrivals, {long} at twice that");
    assert!(
        per_arrival <= CACHED_ARRIVAL_CEILING,
        "{per_arrival:.4} allocations per arrival > {CACHED_ARRIVAL_CEILING}"
    );
}

/// Most allocations an AV cache may make for a batch of 8 for each of
/// 400 SUPIs, all taken, twice over: the AVs share blocks of slots, so
/// the 3 200 live AVs take 13 blocks and the second round reuses the
/// first's slots; the rest is the block list's growth and the SUPI
/// keys' B-tree nodes (this run reads 82). With one `VecDeque` per SUPI
/// it read 466, one per SUPI plus the nodes.
const AV_CACHE_CEILING: u64 = 100;

#[test]
fn an_av_cache_allocates_per_block_not_per_subscriber() {
    let supis: Vec<String> = (0..400).map(test_supi).collect();
    let batch: Vec<HeAv> = (0..8u8)
        .map(|i| HeAv {
            rand: [i; 16],
            autn: [i; 16],
            xres_star: [i; 16].into(),
            kausf: [i; 32].into(),
        })
        .collect();
    let count = allocations(|| {
        let mut cache = AvCache::new(AvCacheConfig::default());
        for _ in 0..2 {
            for supi in &supis {
                cache.put_batch(supi, batch.iter().cloned());
            }
            for supi in &supis {
                for av in &batch {
                    assert_eq!(cache.take(supi).as_ref(), Some(av));
                }
            }
        }
    });
    eprintln!("allocations: {count} for 400 SUPIs' batches, twice");
    assert!(
        count <= AV_CACHE_CEILING,
        "{count} allocations > {AV_CACHE_CEILING}"
    );
}

/// A GenerateAv for an unprovisioned SUPI is refused 404 by a warm SGX
/// eUDM module without allocating: the error carries the inline `Supi`
/// and its text is formatted into a spare body. With the SUPI copied into
/// a `String` and the text `format!`ted, each refusal allocated 4.
#[test]
fn a_warm_unknown_subscriber_refusal_allocates_nothing() {
    let (mut env, mut module) = deploy_module(
        300,
        PakaKind::EUdm,
        ModuleDeployment::Sgx(SgxConfig::default()),
    );
    // The harness provisioned subscriber 1 only.
    let stranger = Supi::numbered(Plmn::test_network(), 777, 10);
    let mut paths = SharedPaths::default();
    let mut request = || {
        GenerateAv::request(
            &mut paths,
            &UdmAkaRequest {
                supi: stranger,
                opc: [0xcd; 16].into(),
                rand: [0x23; 16],
                sqn: [0, 0, 0, 0, 0, 1],
                amf_field: [0x80, 0],
                snn: ServingNetworkName::of(&Plmn::test_network()),
            },
        )
    };
    // Warm the spare list and the module's logs.
    for _ in 0..8 {
        let (resp, _) = module.serve(&mut env, request());
        assert_eq!(resp.status, 404);
    }
    let counts: Vec<u64> = (0..4)
        .map(|_| {
            let req = request();
            allocations(|| {
                let (resp, _) = module.serve(&mut env, req);
                assert_eq!(resp.status, 404);
                assert_eq!(&resp.body[..], b"unknown subscriber imsi-001010000000777");
            })
        })
        .collect();
    assert_eq!(counts, [0; 4], "a refused GenerateAv serve allocated");
}

/// Allocations of provisioning `subscribers` keys, as one batch, into a
/// freshly deployed SGX eUDM module.
fn provisioning(subscribers: u32) -> u64 {
    let (mut env, mut module) = deploy_module(
        300,
        PakaKind::EUdm,
        ModuleDeployment::Sgx(SgxConfig::default()),
    );
    // The harness provisioned subscriber 1.
    let keys: Vec<_> = (0..u64::from(subscribers))
        .map(|i| {
            (
                Supi::numbered(Plmn::test_network(), i + 2, 10),
                [0x46; 16].into(),
            )
        })
        .collect();
    allocations(|| module.provision_subscriber_keys(&mut env, &keys))
}

/// A batch of keys makes room once, in the vault map, the EPC's page
/// records and its image region, so 400 more subscribers add nothing (this
/// run reads 3 for either batch). Key by key, each of the three grew by
/// doubling, 3 more for 400 more keys; with each slot's name, page list
/// and page image on the heap, 1202 more.
#[test]
fn provisioning_allocates_per_module_not_per_subscriber() {
    let short = provisioning(ARRIVALS);
    let long = provisioning(2 * ARRIVALS);
    eprintln!("allocations: {short} provisioning {ARRIVALS} keys, {long} twice that");
    assert_eq!(long, short, "{ARRIVALS} more subscribers allocated");
}

#[test]
fn an_id_table_at_steady_state_allocates_nothing() {
    const LIVE: u64 = 64;
    let mut table = IdTable::new();
    for id in 0..LIVE {
        table.insert(id, [id; 4]);
    }
    // One round of each kind grows the buffer to what it keeps.
    let mut next = LIVE;
    let mut round = |table: &mut IdTable<[u64; 4]>, i: u64| {
        table.insert(next, [next; 4]);
        next += 1;
        let victim = if i.is_multiple_of(2) {
            table.iter().next()
        } else {
            table.iter().nth(table.len() / 2)
        };
        let victim = victim.map(|(id, _)| id).expect("a live entry");
        assert!(table.remove(victim).is_some());
    };
    round(&mut table, 0);
    round(&mut table, 1);
    let count = allocations(|| {
        for i in 0..10_000 {
            round(&mut table, i);
        }
    });
    assert_eq!(table.len(), LIVE as usize);
    assert_eq!(count, 0, "insert-newest, remove-oldest or -middle rounds");
}
