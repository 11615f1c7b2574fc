//! Wire bytes pinned: one fixed instance of every NAS / NGAP / SBI / P-AKA
//! message type, of the HTTP framing and of a protected NAS PDU, as hex in
//! `tests/golden/wire_vectors.txt`. The latency model charges per byte and
//! Table I counts bytes across the enclave boundary, so a codec or framing
//! refactor must reproduce every line; regenerate only for an intentional
//! wire-format change (`SHIELD5G_REGEN_GOLDEN=1 cargo test -p shield5g-nf
//! --test wire_vectors`).

use shield5g_crypto::ecies::HomeNetworkKeyPair;
use shield5g_crypto::hex;
use shield5g_crypto::ident::{Guti, Plmn, Supi};
use shield5g_crypto::keys::{HeAv, SeAv, ServingNetworkName};
use shield5g_crypto::secret::SecretBytes;
use shield5g_crypto::sqn::Auts;
use shield5g_nf::backend::{
    AmfAkaRequest, AusfAkaRequest, AusfAkaResponse, UdmAkaBatchRequest, UdmAkaRequest,
    UdmAkaResyncRequest, Wire,
};
use shield5g_nf::messages::{AuthFailureCause, NasDownlink, NasUplink, Ngap, UeIdentity};
use shield5g_nf::nas_security::NasSecurityContext;
use shield5g_nf::nrf::NfProfile;
use shield5g_nf::sbi::{
    AuthenticateRequest, AuthenticateResponse, ConfirmRequest, ConfirmResponse,
    CreateSessionRequest, CreateSessionResponse, ResyncRequest, UdmAuthGetRequest,
    UdmAuthGetResponse, UdrAuthDataRequest, UdrAuthDataResponse, UdrResyncRequest,
};
use shield5g_nf::smf::N4Establish;
use shield5g_nf::upf::GtpPacket;
use shield5g_nf::NfType;
use shield5g_sim::http::{HttpRequest, HttpResponse, Method};

const SUPI: &str = "imsi-001010000000001";

fn profile_a(supi: &Supi) -> UeIdentity {
    let hn = HomeNetworkKeyPair::from_private(1, [0x8f; 32]);
    UeIdentity::Suci(supi.conceal_profile_a(hn.id(), hn.public(), &[0x42; 32]))
}

fn guti() -> Guti {
    Guti::new(1, 0x2ff, 0x3f, 0xdead_beef)
}

fn auts() -> Auts {
    Auts {
        sqn_ms_xor_ak: [0xa1; 6],
        mac_s: [0xb2; 8],
    }
}

fn snn() -> ServingNetworkName {
    ServingNetworkName::new("001", "01")
}

fn he_av(tag: u8) -> HeAv {
    HeAv {
        rand: [tag; 16],
        autn: [tag + 1; 16],
        xres_star: [tag + 2; 16],
        kausf: SecretBytes::new([tag + 3; 32]),
    }
}

fn nas_uplink(supi: &Supi) -> Vec<(&'static str, Vec<u8>)> {
    let identity_response = NasUplink::IdentityResponse {
        suci: supi.conceal_null(),
    };
    vec![
        (
            "nas.up.registration_request.suci_null",
            NasUplink::RegistrationRequest {
                identity: UeIdentity::Suci(supi.conceal_null()),
            }
            .encode(),
        ),
        (
            "nas.up.registration_request.suci_profile_a",
            NasUplink::RegistrationRequest {
                identity: profile_a(supi),
            }
            .encode(),
        ),
        (
            "nas.up.registration_request.guti",
            NasUplink::RegistrationRequest {
                identity: UeIdentity::Guti(guti()),
            }
            .encode(),
        ),
        (
            "nas.up.authentication_response",
            NasUplink::AuthenticationResponse { res_star: [7; 16] }.encode(),
        ),
        (
            "nas.up.authentication_failure.mac",
            NasUplink::AuthenticationFailure {
                cause: AuthFailureCause::MacFailure,
            }
            .encode(),
        ),
        (
            "nas.up.authentication_failure.synch",
            NasUplink::AuthenticationFailure {
                cause: AuthFailureCause::SynchFailure(auts()),
            }
            .encode(),
        ),
        (
            "nas.up.security_mode_complete",
            NasUplink::SecurityModeComplete.encode(),
        ),
        (
            "nas.up.registration_complete",
            NasUplink::RegistrationComplete.encode(),
        ),
        (
            "nas.up.pdu_session_establishment_request",
            NasUplink::PduSessionEstablishmentRequest { pdu_session_id: 5 }.encode(),
        ),
        ("nas.up.identity_response", identity_response.encode()),
        (
            "nas.up.deregistration_request",
            NasUplink::DeregistrationRequest { switch_off: true }.encode(),
        ),
    ]
}

fn nas_downlink() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "nas.down.authentication_request",
            NasDownlink::AuthenticationRequest {
                rand: [1; 16],
                autn: [2; 16],
                abba: [0, 0],
                ngksi: 3,
            }
            .encode(),
        ),
        (
            "nas.down.authentication_reject",
            NasDownlink::AuthenticationReject.encode(),
        ),
        (
            "nas.down.security_mode_command",
            NasDownlink::SecurityModeCommand {
                integrity_alg: 2,
                ciphering_alg: 2,
            }
            .encode(),
        ),
        (
            "nas.down.registration_accept",
            NasDownlink::RegistrationAccept { guti: guti() }.encode(),
        ),
        (
            "nas.down.registration_reject",
            NasDownlink::RegistrationReject { cause: 111 }.encode(),
        ),
        (
            "nas.down.pdu_session_establishment_accept",
            NasDownlink::PduSessionEstablishmentAccept {
                pdu_session_id: 5,
                ue_ip: [10, 0, 0, 2],
            }
            .encode(),
        ),
        (
            "nas.down.deregistration_accept",
            NasDownlink::DeregistrationAccept.encode(),
        ),
        (
            "nas.down.identity_request",
            NasDownlink::IdentityRequest.encode(),
        ),
    ]
}

/// A protected PDU per direction and COUNT under one fixed K_AMF, alone and
/// as carried in NGAP.
fn protected_and_ngap(supi: &Supi) -> Vec<(&'static str, Vec<u8>)> {
    let kamf = [0x42; 32];
    let mut ue = NasSecurityContext::from_kamf(&kamf, true);
    let mut amf = NasSecurityContext::from_kamf(&kamf, false);
    let up0 = ue
        .protect(&NasUplink::SecurityModeComplete.encode())
        .encode();
    let up1 = ue
        .protect(&NasUplink::RegistrationComplete.encode())
        .encode();
    let down0 = amf
        .protect(&NasDownlink::RegistrationAccept { guti: guti() }.encode())
        .encode();
    let plain = NasUplink::RegistrationRequest {
        identity: profile_a(supi),
    }
    .encode();
    vec![
        ("nas.protected.uplink.count0", up0.clone()),
        ("nas.protected.uplink.count1", up1.clone()),
        ("nas.protected.downlink.count0", down0.clone()),
        (
            "ngap.initial_ue_message",
            Ngap::InitialUeMessage {
                ran_ue_id: 7,
                nas: plain,
            }
            .encode(),
        ),
        (
            "ngap.uplink_nas_transport",
            Ngap::UplinkNasTransport {
                ran_ue_id: 7,
                nas: up0,
            }
            .encode(),
        ),
        (
            "ngap.downlink_nas_transport",
            Ngap::DownlinkNasTransport {
                ran_ue_id: 7,
                nas: down0.clone(),
            }
            .encode(),
        ),
        (
            "ngap.initial_context_setup",
            Ngap::InitialContextSetup {
                ran_ue_id: 7,
                nas: down0,
                teid: 0x0102_0304,
            }
            .encode(),
        ),
    ]
}

fn sbi(supi: &Supi) -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "sbi.authenticate_request.suci",
            AuthenticateRequest {
                identity: profile_a(supi),
                known_supi: String::new(),
                snn_mcc: "001".into(),
                snn_mnc: "01".into(),
            }
            .encode(),
        ),
        (
            "sbi.authenticate_request.guti",
            AuthenticateRequest {
                identity: UeIdentity::Guti(guti()),
                known_supi: SUPI.into(),
                snn_mcc: "001".into(),
                snn_mnc: "01".into(),
            }
            .encode(),
        ),
        (
            "sbi.authenticate_response",
            AuthenticateResponse {
                auth_ctx_id: 99,
                se_av: SeAv {
                    rand: [1; 16],
                    autn: [2; 16],
                    hxres_star: [3; 16],
                },
            }
            .encode(),
        ),
        (
            "sbi.confirm_request",
            ConfirmRequest {
                auth_ctx_id: 99,
                res_star: [9; 16],
            }
            .encode(),
        ),
        (
            "sbi.confirm_response",
            ConfirmResponse {
                success: true,
                supi: SUPI.into(),
                kseaf: [4; 32].into(),
            }
            .encode(),
        ),
        (
            "sbi.udm_auth_get_request.suci",
            UdmAuthGetRequest {
                identity: UeIdentity::Suci(supi.conceal_null()),
                known_supi: String::new(),
                snn_mcc: "001".into(),
                snn_mnc: "01".into(),
            }
            .encode(),
        ),
        (
            "sbi.udm_auth_get_request.guti",
            UdmAuthGetRequest {
                identity: UeIdentity::Guti(guti()),
                known_supi: SUPI.into(),
                snn_mcc: "310".into(),
                snn_mnc: "260".into(),
            }
            .encode(),
        ),
        (
            "sbi.udm_auth_get_response",
            UdmAuthGetResponse {
                supi: SUPI.into(),
                he_av: he_av(0x10).encode(),
            }
            .encode(),
        ),
        (
            "sbi.resync_request",
            ResyncRequest {
                supi: SUPI.into(),
                rand: [5; 16],
                auts: auts(),
            }
            .encode(),
        ),
        (
            "sbi.udr_auth_data_request",
            UdrAuthDataRequest { supi: SUPI.into() }.encode(),
        ),
        (
            "sbi.udr_auth_data_response",
            UdrAuthDataResponse {
                opc: [0xcd; 16].into(),
                sqn: [0, 0, 0, 0, 1, 2],
                amf_field: [0x80, 0],
            }
            .encode(),
        ),
        (
            "sbi.udr_resync_request",
            UdrResyncRequest {
                supi: SUPI.into(),
                sqn_ms: [0, 0, 0, 0, 3, 4],
            }
            .encode(),
        ),
        (
            "sbi.create_session_request",
            CreateSessionRequest {
                supi: SUPI.into(),
                pdu_session_id: 5,
            }
            .encode(),
        ),
        (
            "sbi.create_session_response",
            CreateSessionResponse {
                ue_ip: [10, 0, 0, 2],
                upf_teid: 77,
            }
            .encode(),
        ),
        (
            "sbi.nf_profile",
            NfProfile {
                nf_type: NfType::AUSF,
                addr: "ausf.oai".into(),
            }
            .encode(),
        ),
        (
            "n4.establish",
            N4Establish {
                teid: 77,
                ue_ip: [10, 0, 0, 2],
            }
            .encode(),
        ),
        (
            "gtp.packet",
            GtpPacket {
                teid: 77,
                payload: b"ping".to_vec(),
            }
            .encode(),
        ),
    ]
}

fn paka() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        (
            "paka.udm_aka_request",
            UdmAkaRequest {
                supi: SUPI.into(),
                opc: [0xcd; 16].into(),
                rand: [0x23; 16],
                sqn: [0, 0, 0, 0, 0, 7],
                amf_field: [0x80, 0],
                snn: snn(),
            }
            .encode(),
        ),
        (
            "paka.udm_aka_batch_request",
            UdmAkaBatchRequest {
                supi: SUPI.into(),
                opc: [0xcd; 16].into(),
                rand_seed: [0x77; 16],
                sqn_start: [0, 0, 0, 0, 0xff, 0xfe],
                amf_field: [0x80, 0],
                snn: ServingNetworkName::new("310", "260"),
                count: 8,
            }
            .encode(),
        ),
        (
            "paka.udm_aka_resync_request",
            UdmAkaResyncRequest {
                supi: SUPI.into(),
                opc: [0xcd; 16].into(),
                rand: [0x23; 16],
                auts: auts(),
            }
            .encode(),
        ),
        ("paka.he_av", he_av(0x10).encode()),
        ("paka.he_av_batch", vec![he_av(0x10), he_av(0x20)].encode()),
        ("paka.he_av_batch.empty", Vec::<HeAv>::new().encode()),
        (
            "paka.ausf_aka_request",
            AusfAkaRequest {
                rand: [1; 16],
                xres_star: [2; 16],
                kausf: [3; 32].into(),
                snn: snn(),
            }
            .encode(),
        ),
        (
            "paka.ausf_aka_response",
            AusfAkaResponse {
                hxres_star: [5; 16],
                kseaf: [6; 32].into(),
            }
            .encode(),
        ),
        (
            "paka.amf_aka_request",
            AmfAkaRequest {
                kseaf: [4; 32].into(),
                supi: SUPI.into(),
                abba: [0, 0],
            }
            .encode(),
        ),
        ("paka.sqn_ms", [0u8, 0, 0, 0, 3, 3].encode()),
        ("paka.kamf", SecretBytes::new([8u8; 32]).encode()),
    ]
}

fn http() -> Vec<(&'static str, Vec<u8>)> {
    let body: Vec<u8> = (0u8..=31).collect();
    vec![
        (
            "http.request.post",
            HttpRequest::post("/nausf-auth/authenticate", body.clone()).to_bytes(),
        ),
        (
            "http.request.post.headers",
            HttpRequest::post("/eudm/generate-av", body.clone())
                .with_header("x-sim-priority", "emergency")
                .with_header("Accept", "application/json")
                .to_bytes(),
        ),
        ("http.request.get", HttpRequest::get("/status").to_bytes()),
        (
            "http.request.put.empty",
            HttpRequest::new(Method::Put, "/p", Vec::new()).to_bytes(),
        ),
        (
            "http.request.delete.body1000",
            HttpRequest::new(Method::Delete, "/d", vec![0x5a; 1000]).to_bytes(),
        ),
        ("http.response.ok", HttpResponse::ok(body).to_bytes()),
        (
            "http.response.ok.empty",
            HttpResponse::ok(Vec::new()).to_bytes(),
        ),
        (
            "http.response.error.404",
            HttpResponse::error(404, "unknown subscriber imsi-001010000000042").to_bytes(),
        ),
        (
            "http.response.error.503.header",
            HttpResponse::error(503, "shed")
                .with_header("x-sim-shed", "queue-full")
                .to_bytes(),
        ),
        (
            "http.response.error.unknown_status",
            HttpResponse::error(508, "call loop through amf.oai").to_bytes(),
        ),
    ]
}

#[test]
fn every_message_type_encodes_to_its_pinned_bytes() -> Result<(), Box<dyn std::error::Error>> {
    let supi = Supi::new(Plmn::test_network(), "0000000001")?;
    let groups = [
        nas_uplink(&supi),
        nas_downlink(),
        protected_and_ngap(&supi),
        sbi(&supi),
        paka(),
        http(),
    ];
    let live: String = groups
        .iter()
        .flatten()
        .map(|(name, bytes)| format!("{name} {}\n", hex::encode(bytes)))
        .collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_vectors.txt");
    if std::env::var_os("SHIELD5G_REGEN_GOLDEN").is_some() {
        return Ok(std::fs::write(&path, &live)?);
    }
    let golden = std::fs::read_to_string(&path)?;
    for (g, l) in golden.lines().zip(live.lines()) {
        assert_eq!(g, l, "wire bytes moved");
    }
    assert_eq!(golden.lines().count(), live.lines().count(), "vector count");
    Ok(())
}
