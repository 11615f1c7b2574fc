//! End-to-end AUTS resynchronisation (TS 33.102 §C.2.2) after a
//! failover: when the network side loses its SQN state — a rebuilt
//! shielded deployment, or a pool frontend whose AV window died with a
//! replica — a UE whose USIM window is ahead must re-register through
//! exactly the resync path, not get stuck or fall back to rejecting the
//! subscriber.

use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig, Subscriber};
use shield5g::crypto::ecies::HomeNetworkKeyPair;
use shield5g::crypto::keys::ServingNetworkName;
use shield5g::crypto::sqn::{sqn_from_bytes, sqn_to_bytes, SqnGenerator};
use shield5g::nf::backend::{
    AkaOp, GenerateAvBatch, Resync, UdmAkaBatchRequest, UdmAkaResyncRequest,
};
use shield5g::nf::wire::Wire;
use shield5g::ran::gnbsim::GnbSim;
use shield5g::ran::usim::{ChallengeOutcome, Usim};
use shield5g::scale::avcache::{AvCache, AvCacheConfig};
use shield5g::scale::pool::{EnclavePool, PoolConfig};
use shield5g::sim::http::SharedPaths;
use shield5g::sim::Env;

/// Full NAS-level regression: a UE registered against a shielded
/// deployment survives a failover to a *rebuilt* deployment (same
/// subscriber keys, network SQN generator reset to zero). The stale-SQN
/// challenge must trigger AUTS → AUSF → shielded eUDM `/eudm/resync` →
/// UDR push, and the re-registration must complete — then the *next*
/// registration needs no resync at all, proving the network generator
/// was actually jumped forward rather than patched per-challenge.
#[test]
fn sgx_failover_resync_re_registers_desynced_ue() {
    let mut env = Env::new(301);
    env.log.disable();
    let cfg = SliceConfig {
        deployment: AkaDeployment::Sgx(SgxConfig::default()),
        subscriber_count: 2,
    };
    let slice = build_slice(&mut env, &cfg).unwrap();
    let mut sim = GnbSim::new(&slice);
    let mut ue = sim.ue_for(&slice, 0);
    // Drive the USIM's SQN window forward on the original deployment.
    ue.register(&mut env, sim.gnb_mut()).unwrap();

    // Failover: the replacement deployment shares subscriber keys (they
    // derive deterministically) but its SQN generator starts from zero —
    // strictly behind the USIM's window.
    let mut env2 = Env::new(302);
    env2.log.disable();
    let slice2 = build_slice(&mut env2, &cfg).unwrap();
    let mut sim2 = GnbSim::new(&slice2);
    let report = ue.register(&mut env2, sim2.gnb_mut()).unwrap();
    assert!(
        report.resyncs >= 1,
        "a post-failover challenge must resync, got {}",
        report.resyncs
    );
    assert!(ue.is_registered());
    assert_eq!(slice2.amf.borrow().registrations_completed(), 1);

    // The resync pushed the home generator past the USIM window: a
    // follow-up registration authenticates cleanly on the first AV.
    let clean = ue.register(&mut env2, sim2.gnb_mut()).unwrap();
    assert_eq!(
        clean.resyncs, 0,
        "generator not repaired — still resyncing after recovery"
    );
    assert_eq!(slice2.amf.borrow().registrations_completed(), 2);
}

/// Pool-level regression: the AV frontend's SQN window dies with a
/// replica failover, the promoted standby mints AVs from SQN 1, and the
/// USIM (window ahead) reports sync failure. The AUTS must verify on
/// the promoted replica's `/eudm/resync`, the frontend cache must
/// re-anchor past `SQN_MS`, and the very next AV must authenticate.
#[test]
fn pool_failover_resync_restores_the_av_stream() {
    let mut env = Env::new(303);
    env.log.disable();
    let mut pool = EnclavePool::deploy(
        &mut env,
        PakaKind::EUdm,
        PoolConfig {
            replicas: 1,
            warm_standby: 1,
            ..PoolConfig::default()
        },
    );
    let sub = Subscriber::test(0);
    let supi = sub.supi.to_string();
    pool.provision_subscriber(&mut env, sub.supi, sub.k);

    let hn = HomeNetworkKeyPair::from_private(1, [9; 32]);
    let mut usim = Usim::program(sub.supi, sub.k, sub.opc, 1, hn.public().clone());
    let snn = ServingNetworkName::new("001", "01");

    // The frontend owns the home-network SQN authority: a generator
    // anchors the cache window on the real SEQ/IND scheme (raw in-batch
    // `+1` increments then walk the IND slots within the block).
    let align = |cache: &mut AvCache, generator: &mut SqnGenerator| {
        let next = generator.next_sqn();
        // invalidate only touches known SUPIs (spoofed AUTS must not
        // allocate cache state); an empty put_batch opens the entry.
        cache.put_batch(&supi, Vec::new());
        cache.invalidate(&supi, &sqn_to_bytes(sqn_from_bytes(&next).wrapping_sub(1)));
    };

    let mut cache = AvCache::new(AvCacheConfig::default());
    let mut generator = SqnGenerator::new();
    align(&mut cache, &mut generator);

    let batch_req = |env: &mut Env, cache: &AvCache| {
        GenerateAvBatch::request(
            &mut SharedPaths::default(),
            &UdmAkaBatchRequest {
                supi: sub.supi,
                opc: sub.opc.into(),
                rand_seed: env.rng.bytes(),
                sqn_start: cache.next_sqn(&supi),
                amf_field: [0x80, 0],
                snn,
                count: cache.batch_size(),
            },
        )
    };

    // Consume a full batch through the primary; every AV authenticates
    // and the USIM window tracks the stream.
    let primary = pool.route(&supi);
    let req = batch_req(&mut env, &cache);
    let (resp, _, _) = pool.serve_on(&mut env, primary, req);
    assert!(resp.is_success());
    cache.put_batch(&supi, Vec::decode(&resp.body).unwrap());
    while let Some(av) = cache.take(&supi) {
        match usim.evaluate_challenge(&av.rand, &av.autn, &snn) {
            ChallengeOutcome::Success(_) => {}
            other => panic!("in-window AV rejected: {other:?}"),
        }
    }

    // Failover. The warm standby takes the ring share; the frontend's
    // SQN state (cache window and generator) is lost with the primary.
    let failover = pool.kill_replica(&mut env, primary);
    assert!(failover.standby_promoted);
    let survivor = failover.replacement;
    assert_eq!(pool.route(&supi), survivor);
    let mut cache = AvCache::new(AvCacheConfig::default());
    let mut generator = SqnGenerator::new();
    align(&mut cache, &mut generator);

    // The rebuilt frontend restarts its generator from SEQ 0 — at or
    // behind the USIM window — so the challenge comes back as a sync
    // failure.
    let req = batch_req(&mut env, &cache);
    let (resp, _, _) = pool.serve_on(&mut env, survivor, req);
    assert!(resp.is_success());
    cache.put_batch(&supi, Vec::decode(&resp.body).unwrap());
    let stale = cache.take(&supi).unwrap();
    let auts = match usim.evaluate_challenge(&stale.rand, &stale.autn, &snn) {
        ChallengeOutcome::SyncFailure(auts) => auts,
        other => panic!("post-failover AV must desync, got {other:?}"),
    };

    // AUTS → the promoted replica's resync endpoint. It recovers SQN_MS
    // under the subscriber key it was provisioned with.
    let resync = UdmAkaResyncRequest {
        supi: sub.supi,
        opc: sub.opc.into(),
        rand: stale.rand,
        auts,
    };
    let (resp, _, _) = pool.serve_on(
        &mut env,
        survivor,
        Resync::request(&mut SharedPaths::default(), &resync),
    );
    assert!(
        resp.is_success(),
        "AUTS must verify on the promoted replica"
    );
    let sqn_ms = <[u8; 6]>::decode(&resp.body).unwrap();

    // Jump the generator past SQN_MS (the UDR `push_resync` step) and
    // re-anchor the cache: the UE is back in sync on the very next
    // challenge.
    generator.resynchronise(&sqn_ms);
    align(&mut cache, &mut generator);
    let req = batch_req(&mut env, &cache);
    let (resp, _, _) = pool.serve_on(&mut env, survivor, req);
    assert!(resp.is_success());
    cache.put_batch(&supi, Vec::decode(&resp.body).unwrap());
    let fresh = cache.take(&supi).unwrap();
    assert!(
        matches!(
            usim.evaluate_challenge(&fresh.rand, &fresh.autn, &snn),
            ChallengeOutcome::Success(_)
        ),
        "post-resync AV must authenticate"
    );
}
