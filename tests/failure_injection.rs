//! Failure-injection integration tests: the system must fail *closed*
//! and fail *informatively* when components break.

use shield5g::core::harness::standard_request;
use shield5g::core::paka::{PakaKind, PakaModule, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::hmee::enclave::EnclaveBuilder;
use shield5g::hmee::seal::{seal, SealPolicy};
use shield5g::nf::addr;
use shield5g::nf::backend::{AkaOp, GenerateAv};
use shield5g::ran::gnbsim::GnbSim;
use shield5g::ran::RanError;
use shield5g::sim::Env;

#[test]
fn ausf_outage_rejects_registrations_cleanly() {
    let mut env = Env::new(201);
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Monolithic,
            subscriber_count: 1,
        },
    )
    .unwrap();
    // Take the AUSF down mid-operation.
    assert!(slice.engine.borrow_mut().deregister(addr::AUSF));
    let mut sim = GnbSim::new(&slice);
    let mut ue = sim.ue_for(&slice, 0);
    let result = ue.register(&mut env, sim.gnb_mut());
    assert!(
        matches!(result, Err(RanError::Rejected { .. })),
        "{result:?}"
    );
    assert!(!ue.is_registered());
    assert_eq!(slice.amf.borrow().registrations_completed(), 0);
    // The AMF's call to the vanished AUSF resumed with the 502: nothing
    // stays parked anywhere.
    let parked = [
        slice.amf.borrow().parked(),
        slice.ausf.borrow().parked(),
        slice.udm.borrow().parked(),
        slice.smf.borrow().parked(),
    ];
    assert_eq!(parked, [0; 4], "AMF, AUSF, UDM, SMF");
}

#[test]
fn module_outage_mid_sequence_recovers_on_redeploy() {
    let mut env = Env::new(202);
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 2,
        },
    )
    .unwrap();
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 1).unwrap();
    // Corrupt the eUDM enclave's key store: the §III integrity attack.
    let module = slice.module(PakaKind::EUdm).unwrap();
    assert!(module
        .borrow_mut()
        .container()
        .borrow_mut()
        .shielded
        .as_mut()
        .unwrap()
        .enclave_mut()
        .epc_tamper(0, 0));
    // Registrations now fail closed (enclave detects the corruption).
    let result = sim.register_ues(&mut env, &slice, 1);
    assert!(result.is_err(), "corrupted enclave must not authenticate");
    // Re-provisioning the key (operator remediation) restores service.
    let sub = slice.subscribers[0].clone();
    module
        .borrow_mut()
        .provision_subscriber_key(&mut env, &sub.supi.to_string(), sub.k);
    sim.register_ues(&mut env, &slice, 1).unwrap();
}

#[test]
fn enclave_thread_exhaustion_is_reported() {
    let mut env = Env::new(203);
    let platform = shield5g::hmee::platform::SgxPlatform::new(&mut env);
    let mut enclave = EnclaveBuilder::new("tiny")
        .heap_bytes(1 << 20)
        .max_threads(4)
        .build(&mut env, &platform)
        .unwrap();
    for _ in 0..4 {
        enclave.ecall_enter(&mut env).unwrap();
    }
    assert!(matches!(
        enclave.ecall_enter(&mut env),
        Err(shield5g::hmee::HmeeError::ThreadLimit { max_threads: 4 })
    ));
}

#[test]
fn sealed_provisioning_end_to_end_and_failure_modes() {
    // KI 27: the operator seals subscriber keys on the target platform
    // (MRSIGNER policy, same signing identity as the P-AKA builds); only
    // the shielded module can open them.
    let (mut env, mut module) = shield5g::core::harness::deploy_module(
        204,
        PakaKind::EUdm,
        shield5g::core::harness::ModuleDeployment::Sgx(SgxConfig::default()),
    );
    // A provisioning enclave from the same vendor on the same platform…
    // (the platform is embedded in the module's world; rebuild one the
    // same way the harness did).
    let platform = {
        // deploy_module consumed its platform; reconstruct an identical
        // world is not possible — instead use the module's own enclave to
        // seal (self-provisioning), which exercises the same unseal path.
        let container = module.container();
        let mut c = container.borrow_mut();
        let blob = {
            let libos = c.shielded.as_mut().unwrap();
            seal(
                &mut env,
                libos.enclave(),
                SealPolicy::MrSigner,
                &[0x99u8; 16],
            )
        };
        drop(c);
        blob
    };
    module
        .provision_sealed_key(&mut env, "imsi-001010000000077", &platform)
        .unwrap();

    // Tampered blob: refused.
    let container = module.container();
    let mut tampered = {
        let mut c = container.borrow_mut();
        let libos = c.shielded.as_mut().unwrap();
        seal(
            &mut env,
            libos.enclave(),
            SealPolicy::MrEnclave,
            &[0x88u8; 16],
        )
    };
    tampered.ciphertext[0] ^= 1;
    assert!(matches!(
        module.provision_sealed_key(&mut env, "imsi-x", &tampered),
        Err(shield5g::core::CoreError::Hmee(_))
    ));

    // A container module cannot unseal at all.
    let (mut env2, mut container_module) = shield5g::core::harness::deploy_module(
        205,
        PakaKind::EUdm,
        shield5g::core::harness::ModuleDeployment::Container,
    );
    let blob = {
        let mut env3 = Env::new(206);
        let p = shield5g::hmee::platform::SgxPlatform::new(&mut env3);
        let e = EnclaveBuilder::new("prov")
            .heap_bytes(1 << 20)
            .signer(PakaModule::signing_key())
            .build(&mut env3, &p)
            .unwrap();
        seal(&mut env3, &e, SealPolicy::MrSigner, &[0x77u8; 16])
    };
    assert!(matches!(
        container_module.provision_sealed_key(&mut env2, "imsi-y", &blob),
        Err(shield5g::core::CoreError::Module { status: 501, .. })
    ));
}

#[test]
fn guti_re_registration_skips_suci_and_succeeds() {
    let mut env = Env::new(207);
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Container,
            subscriber_count: 1,
        },
    )
    .unwrap();
    let mut sim = GnbSim::new(&slice);
    let mut ue = sim.ue_for(&slice, 0);
    let first = ue.register(&mut env, sim.gnb_mut()).unwrap();
    let second = ue.re_register_with_guti(&mut env, sim.gnb_mut()).unwrap();
    assert_ne!(
        first.guti, second.guti,
        "a fresh GUTI is allocated per registration"
    );
    assert_eq!(slice.amf.borrow().registrations_completed(), 2);
}

#[test]
fn guti_re_registration_without_prior_registration_fails() {
    let mut env = Env::new(208);
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Container,
            subscriber_count: 1,
        },
    )
    .unwrap();
    let mut sim = GnbSim::new(&slice);
    let mut ue = sim.ue_for(&slice, 0);
    assert!(matches!(
        ue.re_register_with_guti(&mut env, sim.gnb_mut()),
        Err(RanError::Protocol(_))
    ));
}

#[test]
fn stale_guti_after_amf_restart_recovers_via_identity_request() {
    let mut env = Env::new(209);
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Container,
            subscriber_count: 1,
        },
    )
    .unwrap();
    let mut sim = GnbSim::new(&slice);
    let mut ue = sim.ue_for(&slice, 0);
    ue.register(&mut env, sim.gnb_mut()).unwrap();
    // "Restart" the AMF: a new world with empty GUTI maps.
    let mut env2 = Env::new(210);
    let slice2 = build_slice(
        &mut env2,
        &SliceConfig {
            deployment: AkaDeployment::Container,
            subscriber_count: 1,
        },
    )
    .unwrap();
    let mut sim2 = GnbSim::new(&slice2);
    // The fresh AMF cannot resolve the old GUTI; it sends an Identity
    // Request, the UE answers with a fresh SUCI, and registration
    // completes (with one SQN resync because the fresh network's
    // generator is behind the USIM's window).
    let report = ue.re_register_with_guti(&mut env2, sim2.gnb_mut()).unwrap();
    assert!(
        report.resyncs >= 1,
        "expected a resync, got {}",
        report.resyncs
    );
    assert!(ue.is_registered());
    assert_eq!(slice2.amf.borrow().registrations_completed(), 1);
}

#[test]
fn amf_survives_nas_garbage_without_panicking() {
    let mut env = Env::new(211);
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Monolithic,
            subscriber_count: 1,
        },
    )
    .unwrap();
    let mut rng = shield5g::sim::DetRng::new(212);
    for i in 0..200 {
        let len = (rng.next_u64() % 64) as usize;
        let garbage: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let ngap = shield5g::nf::messages::Ngap::InitialUeMessage {
            ran_ue_id: i,
            nas: garbage,
        }
        .encode();
        let resp = slice
            .engine
            .borrow_mut()
            .dispatch(
                &mut env,
                addr::AMF,
                shield5g::sim::http::HttpRequest::post("/ngap", ngap),
            )
            .unwrap();
        assert!(!resp.is_success(), "garbage NAS must be rejected");
    }
    // The AMF still works afterwards.
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 1).unwrap();
}

#[test]
fn paka_module_survives_request_fuzz() {
    let (mut env, mut module) = shield5g::core::harness::deploy_module(
        213,
        PakaKind::EUdm,
        shield5g::core::harness::ModuleDeployment::Sgx(SgxConfig::default()),
    );
    let mut rng = shield5g::sim::DetRng::new(214);
    for _ in 0..100 {
        let len = (rng.next_u64() % 128) as usize;
        let body: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        let req = shield5g::sim::http::HttpRequest::post(GenerateAv::PATH, body);
        let (resp, _) = module.serve(&mut env, req);
        assert!(!resp.is_success());
    }
    // Still serves valid requests.
    let (resp, _) = module.serve(&mut env, standard_request(PakaKind::EUdm));
    assert!(resp.is_success());
}
