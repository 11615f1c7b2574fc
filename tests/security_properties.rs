//! Security-property integration tests: the paper's §III/§VI claims
//! verified across crate boundaries.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helper: a panic is the failure report"
)]

use shield5g::core::harness::standard_request;
use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::hmee::attest::{AttestationService, QuotePolicy, Report};
use shield5g::infra::attacker::Attacker;
use shield5g::ran::gnbsim::GnbSim;
use shield5g::sim::Env;

fn attacked_slice(
    deployment: AkaDeployment,
    seed: u64,
) -> (Env, shield5g::core::slice::Slice, Attacker) {
    let mut env = Env::new(seed);
    env.log.disable();
    let mut slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment,
            subscriber_count: 2,
        },
    )
    .unwrap();
    // Drive a real registration so session keys are resident everywhere.
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 1).unwrap();
    let mut attacker = Attacker::new("mallory");
    while attacker.gain_co_residency(&mut env, &slice.host).is_err() {}
    attacker.escape_to_host(&mut env, &slice.host).unwrap();
    let _ = &mut slice;
    (env, slice, attacker)
}

#[test]
fn long_term_key_leaks_from_container_not_from_enclave() {
    let (k, _) = shield5g::core::slice::Subscriber::test_credentials(0);

    let (mut env, slice, attacker) = attacked_slice(AkaDeployment::Container, 11);
    let findings = attacker
        .introspect_memory(&mut env, &slice.host, &k)
        .unwrap();
    assert!(
        findings.iter().any(|f| f.found_plaintext),
        "container must leak K"
    );

    let (mut env, slice, attacker) = attacked_slice(AkaDeployment::Sgx(SgxConfig::default()), 12);
    let findings = attacker
        .introspect_memory(&mut env, &slice.host, &k)
        .unwrap();
    assert!(
        findings.iter().all(|f| !f.found_plaintext),
        "enclave deployment must never leak K"
    );
    // The attacker did look at real (encrypted) bytes.
    assert!(findings.iter().any(|f| f.shielded && f.bytes_scanned > 0));
}

#[test]
fn derived_session_keys_also_protected() {
    // K_AUSF ends up in eUDM scratch space after AV generation; in the
    // container deployment the attacker can read it, in SGX not.
    let (mut env, slice, attacker) = attacked_slice(AkaDeployment::Container, 13);
    let module = slice.module(PakaKind::EUdm).unwrap();
    let c = module.borrow().container();
    let kausf = c
        .borrow()
        .plain_memory
        .read("scratch:kausf")
        .map(<[u8]>::to_vec);
    let kausf = kausf.expect("container module stores derived keys in plain memory");
    let findings = attacker
        .introspect_memory(&mut env, &slice.host, &kausf)
        .unwrap();
    assert!(findings.iter().any(|f| f.found_plaintext));

    let (mut env, slice, attacker) = attacked_slice(AkaDeployment::Sgx(SgxConfig::default()), 14);
    // In the SGX world the scratch value exists only inside the vault; an
    // attacker probing for *any* 32-byte window of it must fail. We fetch
    // the true value via the enclave's own (trusted) read path.
    let module = slice.module(PakaKind::EUdm).unwrap();
    let kausf = {
        let container = module.borrow().container();
        let mut c = container.borrow_mut();
        let libos = c.shielded.as_mut().unwrap();
        libos
            .enclave_mut()
            .vault_read(&mut env, "scratch:kausf")
            .unwrap()
    };
    let findings = attacker
        .introspect_memory(&mut env, &slice.host, &kausf)
        .unwrap();
    assert!(findings.iter().all(|f| !f.found_plaintext));
}

#[test]
fn bridge_traffic_is_ciphertext_even_for_the_root_attacker() {
    let mut env = Env::new(15);
    env.log.disable();
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 1,
        },
    )
    .unwrap();
    slice.bridge.borrow_mut().enable_tap();
    let mut client = slice.client_for(PakaKind::EUdm, "udm.oai").unwrap();
    let req = standard_request(PakaKind::EUdm);
    client.call(&mut env, &req.path, req.body.clone()).unwrap();
    let bridge = slice.bridge.borrow();
    assert!(!bridge.captured().is_empty());
    // The OPc travels in the request; it must not appear in any frame.
    assert!(!bridge.captured_contains(&shield5g::core::slice::Subscriber::test_credentials(0).1));
    assert!(!bridge.captured_contains(b"generate-av"));
}

#[test]
fn tampering_with_enclave_state_fails_closed() {
    let (mut env, slice, attacker) = attacked_slice(AkaDeployment::Sgx(SgxConfig::default()), 16);
    assert!(attacker
        .tamper_container(&slice.host, PakaKind::EUdm.endpoint(), "any")
        .unwrap());
    // The next AKA request against the corrupted key page fails loudly
    // instead of producing forged vectors.
    let module = slice.module(PakaKind::EUdm).unwrap();
    let req = standard_request(PakaKind::EUdm);
    let (resp, _) = module.borrow_mut().serve(&mut env, req);
    assert!(
        !resp.is_success(),
        "corrupted enclave state must not authenticate UEs"
    );
}

#[test]
fn attestation_gates_deployment_to_genuine_enclaves() {
    let mut env = Env::new(17);
    env.log.disable();
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 1,
        },
    )
    .unwrap();
    let platform = slice.host.platform();
    let mut svc = AttestationService::new();
    svc.register_platform(platform);
    let module = slice.module(PakaKind::EAusf).unwrap();
    let module = module.borrow();
    let container = module.container();
    let container = container.borrow();
    let enclave = container.shielded.as_ref().unwrap().enclave();
    let quote = platform.quote(&Report::create(enclave, [1; 64])).unwrap();
    let mut policy = QuotePolicy::exact(*enclave.mrenclave());
    policy.allow_debug = true;
    svc.verify(&quote, &policy).unwrap();
    // An orchestrator pinning a different measurement refuses it.
    let mut other = QuotePolicy::exact([0xAB; 32]);
    other.allow_debug = true;
    assert!(svc.verify(&quote, &other).is_err());
}

#[test]
fn attested_tls_binding_gates_the_offload_channel() {
    // §VII: remote attestation verifies P-AKA module integrity before key
    // provisioning / TLS establishment. An SGX module quotes its TLS key;
    // a container module cannot quote at all.
    let mut env = Env::new(19);
    env.log.disable();
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 1,
        },
    )
    .unwrap();
    let platform = slice.host.platform();
    let mut service = AttestationService::new();
    service.register_platform(platform);
    let mut client = slice.client_for(PakaKind::EUdm, "udm.oai").unwrap();
    client.attest_and_pin(platform, &service).unwrap();
    // The attested channel then serves normally.
    let req = standard_request(PakaKind::EUdm);
    client.call(&mut env, &req.path, req.body.clone()).unwrap();

    // Container module: no enclave, no quote.
    let mut env2 = Env::new(20);
    env2.log.disable();
    let slice2 = build_slice(
        &mut env2,
        &SliceConfig {
            deployment: AkaDeployment::Container,
            subscriber_count: 1,
        },
    )
    .unwrap();
    let platform2 = slice2.host.platform();
    let mut client2 = slice2.client_for(PakaKind::EUdm, "udm.oai").unwrap();
    assert!(matches!(
        client2.attest_and_pin(platform2, &service),
        Err(shield5g::core::CoreError::Module { status: 501, .. })
    ));

    // An unregistered platform's quotes are refused.
    let empty_service = AttestationService::new();
    let mut client3 = slice.client_for(PakaKind::EAusf, "ausf.oai").unwrap();
    assert!(matches!(
        client3.attest_and_pin(platform, &empty_service),
        Err(shield5g::core::CoreError::Hmee(_))
    ));
}

#[test]
fn nas_security_protects_post_auth_messages() {
    // After security mode, NAS PDUs on the air interface are ciphered:
    // the GUTI assigned in RegistrationAccept must not be recoverable
    // from the raw NAS bytes. We verify by checking the UE's GUTI bytes
    // never appear in the (protected) downlink encodings — covered
    // implicitly by the NAS security unit tests; here we assert the
    // end-to-end effect: a replayed protected PDU is rejected.
    use shield5g::nf::nas_security::NasSecurityContext;
    let kamf = [0x77; 32];
    let mut ue = NasSecurityContext::from_kamf(&kamf, true);
    let mut amf = NasSecurityContext::from_kamf(&kamf, false);
    let pdu = ue.protect(b"registration complete");
    assert!(amf.unprotect(&pdu).is_ok());
    assert!(
        amf.unprotect(&pdu).is_err(),
        "replayed NAS must be rejected"
    );
}

#[test]
fn suci_concealment_hides_the_imsi_on_the_air() {
    let mut env = Env::new(18);
    let sub = shield5g::core::slice::Subscriber::test(0);
    let hn = shield5g::crypto::ecies::HomeNetworkKeyPair::from_private(1, [3; 32]);
    let usim = shield5g::ran::usim::Usim::program(sub.supi, sub.k, sub.opc, 1, hn.public().clone());
    let suci = usim.conceal_identity(&mut env);
    let nas = shield5g::nf::messages::NasUplink::RegistrationRequest {
        identity: shield5g::nf::messages::UeIdentity::Suci(suci),
    }
    .encode();
    // The BCD-coded MSIN must not appear in the registration request.
    let msin_bcd = sub.supi.msin_bcd();
    assert!(!nas.windows(msin_bcd.len()).any(|w| w == &*msin_bcd));
}
