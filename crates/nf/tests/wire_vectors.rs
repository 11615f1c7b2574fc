//! Wire bytes pinned: one fixed instance of every NAS / NGAP / SBI / P-AKA
//! message type, of the HTTP framing and of a protected NAS PDU, as hex in
//! `tests/golden/wire_vectors.txt`. The latency model charges per byte and
//! Table I counts bytes across the enclave boundary, so a codec or framing
//! refactor must reproduce every line; regenerate only for an intentional
//! wire-format change (`SHIELD5G_REGEN_GOLDEN=1 cargo test -p shield5g-nf
//! --test wire_vectors`).
//!
//! Pinned both ways: every line is also decoded and re-encoded byte for
//! byte. And every [`Wire`] type here meets one generic hostile-input
//! property ([`hostile`]).

use shield5g_crypto::ecies::HomeNetworkKeyPair;
use shield5g_crypto::hex;
use shield5g_crypto::ident::{Guti, Plmn, Supi};
use shield5g_crypto::keys::{HeAv, SeAv, ServingNetworkName};
use shield5g_crypto::secret::SecretBytes;
use shield5g_crypto::sqn::Auts;
use shield5g_nf::backend::{
    AmfAkaRequest, AusfAkaRequest, AusfAkaResponse, UdmAkaBatchRequest, UdmAkaRequest,
    UdmAkaResyncRequest,
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
use shield5g_nf::wire::Wire;
use shield5g_nf::{NfError, NfType};
use shield5g_sim::codec::Writer;
use shield5g_sim::http::{HttpRequest, HttpResponse, Method};
use shield5g_sim::SimError;
use std::fmt::Debug;

const SUPI: &str = "imsi-001010000000001";

/// Decodes wire bytes and encodes what was accepted.
type Again = fn(&[u8]) -> Result<Vec<u8>, String>;

/// One pinned message: its name, its bytes, the codec that must read the
/// pinned bytes back and write them again, and its hostile property.
struct Vector {
    name: &'static str,
    bytes: Vec<u8>,
    again: Again,
    hostile: Box<dyn Fn()>,
}

fn wire<T: Wire + PartialEq + Debug + 'static>(name: &'static str, msg: T) -> Vector {
    Vector {
        name,
        bytes: msg.encode().to_vec(),
        again: |bytes| {
            T::decode(bytes)
                .map(|msg| msg.encode().to_vec())
                .map_err(|e| e.to_string())
        },
        hostile: Box::new(move || hostile(&msg)),
    }
}

/// HTTP framing has its own parser, and its hostile property lives in the
/// workspace's `tests/hostile_wire.rs`.
fn http_vector(name: &'static str, bytes: Vec<u8>, again: Again) -> Vector {
    Vector {
        name,
        bytes,
        again,
        hostile: Box::new(|| {}),
    }
}

fn request(name: &'static str, req: HttpRequest) -> Vector {
    http_vector(name, req.to_bytes(), |bytes| {
        HttpRequest::from_bytes(bytes)
            .map(|req| req.to_bytes())
            .map_err(|e| e.to_string())
    })
}

fn response(name: &'static str, resp: HttpResponse) -> Vector {
    http_vector(name, resp.to_bytes(), |bytes| {
        HttpResponse::from_bytes(bytes)
            .map(|resp| resp.to_bytes())
            .map_err(|e| e.to_string())
    })
}

/// Mutants of valid wire bytes after 5Greplay's field mutations
/// (arXiv:2304.05719): every single-bit flip, every truncation, a false
/// `u32` at every offset (so at every length prefix and count), and one
/// appended byte.
fn mutants(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut mutants: Vec<Vec<u8>> = (0..bytes.len()).map(|at| bytes[..at].to_vec()).collect();
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << bit;
            mutants.push(flipped);
        }
    }
    for at in 0..bytes.len().saturating_sub(3) {
        let field = u32::from_be_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        for lie in [field.wrapping_add(1), field.wrapping_sub(1), u32::MAX] {
            let mut lied = bytes.to_vec();
            lied[at..at + 4].copy_from_slice(&lie.to_be_bytes());
            mutants.push(lied);
        }
    }
    mutants.push([bytes, &[0]].concat());
    mutants
}

/// The stateless hostile-input property of one codec, on the [`mutants`]
/// of a valid message. The contract: no panic; what is accepted
/// re-encodes to exactly the bytes given; a refusal is a framing error or
/// a protocol violation.
fn hostile<T: Wire + PartialEq + Debug>(valid: &T) {
    let bytes = valid.encode();
    assert_eq!(T::decode(&bytes).as_ref(), Ok(valid));
    for mutant in &mutants(&bytes) {
        match T::decode(mutant) {
            Ok(got) => assert_eq!(&got.encode(), mutant, "{valid:?} accepted as {got:?}"),
            Err(NfError::Sim(SimError::MalformedHttp(_)) | NfError::Protocol(_)) => {}
            Err(e) => panic!("{valid:?}: {mutant:02x?} refused as {e:?}"),
        }
    }
}

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

fn nas_uplink(supi: &Supi) -> Vec<Vector> {
    vec![
        wire(
            "nas.up.registration_request.suci_null",
            NasUplink::RegistrationRequest {
                identity: UeIdentity::Suci(supi.conceal_null()),
            },
        ),
        wire(
            "nas.up.registration_request.suci_profile_a",
            NasUplink::RegistrationRequest {
                identity: profile_a(supi),
            },
        ),
        wire(
            "nas.up.registration_request.guti",
            NasUplink::RegistrationRequest {
                identity: UeIdentity::Guti(guti()),
            },
        ),
        wire(
            "nas.up.authentication_response",
            NasUplink::AuthenticationResponse { res_star: [7; 16] },
        ),
        wire(
            "nas.up.authentication_failure.mac",
            NasUplink::AuthenticationFailure {
                cause: AuthFailureCause::MacFailure,
            },
        ),
        wire(
            "nas.up.authentication_failure.synch",
            NasUplink::AuthenticationFailure {
                cause: AuthFailureCause::SynchFailure(auts()),
            },
        ),
        wire(
            "nas.up.security_mode_complete",
            NasUplink::SecurityModeComplete,
        ),
        wire(
            "nas.up.registration_complete",
            NasUplink::RegistrationComplete,
        ),
        wire(
            "nas.up.pdu_session_establishment_request",
            NasUplink::PduSessionEstablishmentRequest { pdu_session_id: 5 },
        ),
        wire(
            "nas.up.identity_response",
            NasUplink::IdentityResponse {
                suci: supi.conceal_null(),
            },
        ),
        wire(
            "nas.up.deregistration_request",
            NasUplink::DeregistrationRequest { switch_off: true },
        ),
    ]
}

fn nas_downlink() -> Vec<Vector> {
    vec![
        wire(
            "nas.down.authentication_request",
            NasDownlink::AuthenticationRequest {
                rand: [1; 16],
                autn: [2; 16],
                abba: [0, 0],
                ngksi: 3,
            },
        ),
        wire(
            "nas.down.authentication_reject",
            NasDownlink::AuthenticationReject,
        ),
        wire(
            "nas.down.security_mode_command",
            NasDownlink::SecurityModeCommand {
                integrity_alg: 2,
                ciphering_alg: 2,
            },
        ),
        wire(
            "nas.down.registration_accept",
            NasDownlink::RegistrationAccept { guti: guti() },
        ),
        wire(
            "nas.down.registration_reject",
            NasDownlink::RegistrationReject { cause: 111 },
        ),
        wire(
            "nas.down.pdu_session_establishment_accept",
            NasDownlink::PduSessionEstablishmentAccept {
                pdu_session_id: 5,
                ue_ip: [10, 0, 0, 2],
            },
        ),
        wire(
            "nas.down.deregistration_accept",
            NasDownlink::DeregistrationAccept,
        ),
        wire("nas.down.identity_request", NasDownlink::IdentityRequest),
    ]
}

/// A protected PDU per direction and COUNT under one fixed K_AMF, alone and
/// as carried in NGAP.
fn protected_and_ngap(supi: &Supi) -> Vec<Vector> {
    let kamf = [0x42; 32];
    let mut ue = NasSecurityContext::from_kamf(&kamf, true);
    let mut amf = NasSecurityContext::from_kamf(&kamf, false);
    let up0 = ue.protect(&NasUplink::SecurityModeComplete.encode());
    let up1 = ue.protect(&NasUplink::RegistrationComplete.encode());
    let down0 = amf.protect(&NasDownlink::RegistrationAccept { guti: guti() }.encode());
    let plain = NasUplink::RegistrationRequest {
        identity: profile_a(supi),
    }
    .encode();
    vec![
        wire("nas.protected.uplink.count0", up0.clone()),
        wire("nas.protected.uplink.count1", up1),
        wire("nas.protected.downlink.count0", down0.clone()),
        wire(
            "ngap.initial_ue_message",
            Ngap::InitialUeMessage {
                ran_ue_id: 7,
                nas: plain.to_vec(),
            },
        ),
        wire(
            "ngap.uplink_nas_transport",
            Ngap::UplinkNasTransport {
                ran_ue_id: 7,
                nas: up0.encode().to_vec(),
            },
        ),
        wire(
            "ngap.downlink_nas_transport",
            Ngap::DownlinkNasTransport {
                ran_ue_id: 7,
                nas: down0.encode().to_vec(),
            },
        ),
        wire(
            "ngap.initial_context_setup",
            Ngap::InitialContextSetup {
                ran_ue_id: 7,
                nas: down0.encode().to_vec(),
                teid: 0x0102_0304,
            },
        ),
    ]
}

fn sbi(supi: &Supi) -> Vec<Vector> {
    vec![
        wire(
            "sbi.authenticate_request.suci",
            AuthenticateRequest {
                identity: profile_a(supi),
                known_supi: String::new(),
                snn_mcc: "001".into(),
                snn_mnc: "01".into(),
            },
        ),
        wire(
            "sbi.authenticate_request.guti",
            AuthenticateRequest {
                identity: UeIdentity::Guti(guti()),
                known_supi: SUPI.into(),
                snn_mcc: "001".into(),
                snn_mnc: "01".into(),
            },
        ),
        wire(
            "sbi.authenticate_response",
            AuthenticateResponse {
                auth_ctx_id: 99,
                se_av: SeAv {
                    rand: [1; 16],
                    autn: [2; 16],
                    hxres_star: [3; 16],
                },
            },
        ),
        wire(
            "sbi.confirm_request",
            ConfirmRequest {
                auth_ctx_id: 99,
                res_star: [9; 16],
            },
        ),
        wire(
            "sbi.confirm_response",
            ConfirmResponse {
                success: true,
                supi: Some(*supi),
                kseaf: [4; 32].into(),
            },
        ),
        wire(
            "sbi.udm_auth_get_request.suci",
            UdmAuthGetRequest {
                identity: UeIdentity::Suci(supi.conceal_null()),
                known_supi: String::new(),
                snn_mcc: "001".into(),
                snn_mnc: "01".into(),
            },
        ),
        wire(
            "sbi.udm_auth_get_request.guti",
            UdmAuthGetRequest {
                identity: UeIdentity::Guti(guti()),
                known_supi: SUPI.into(),
                snn_mcc: "310".into(),
                snn_mnc: "260".into(),
            },
        ),
        wire(
            "sbi.udm_auth_get_response",
            UdmAuthGetResponse {
                supi: *supi,
                he_av: he_av(0x10),
            },
        ),
        wire(
            "sbi.resync_request",
            ResyncRequest {
                supi: *supi,
                rand: [5; 16],
                auts: auts(),
            },
        ),
        wire(
            "sbi.udr_auth_data_request",
            UdrAuthDataRequest { supi: *supi },
        ),
        wire(
            "sbi.udr_auth_data_response",
            UdrAuthDataResponse {
                opc: [0xcd; 16].into(),
                sqn: [0, 0, 0, 0, 1, 2],
                amf_field: [0x80, 0],
            },
        ),
        wire(
            "sbi.udr_resync_request",
            UdrResyncRequest {
                supi: *supi,
                sqn_ms: [0, 0, 0, 0, 3, 4],
            },
        ),
        wire(
            "sbi.create_session_request",
            CreateSessionRequest {
                supi: *supi,
                pdu_session_id: 5,
            },
        ),
        wire(
            "sbi.create_session_response",
            CreateSessionResponse {
                ue_ip: [10, 0, 0, 2],
                upf_teid: 77,
            },
        ),
        wire(
            "sbi.nf_profile",
            NfProfile {
                nf_type: NfType::AUSF,
                addr: "ausf.oai".into(),
            },
        ),
        wire(
            "n4.establish",
            N4Establish {
                teid: 77,
                ue_ip: [10, 0, 0, 2],
            },
        ),
        wire(
            "gtp.packet",
            GtpPacket {
                teid: 77,
                payload: b"ping".to_vec(),
            },
        ),
    ]
}

fn paka(supi: &Supi) -> Vec<Vector> {
    vec![
        wire(
            "paka.udm_aka_request",
            UdmAkaRequest {
                supi: *supi,
                opc: [0xcd; 16].into(),
                rand: [0x23; 16],
                sqn: [0, 0, 0, 0, 0, 7],
                amf_field: [0x80, 0],
                snn: snn(),
            },
        ),
        wire(
            "paka.udm_aka_batch_request",
            UdmAkaBatchRequest {
                supi: *supi,
                opc: [0xcd; 16].into(),
                rand_seed: [0x77; 16],
                sqn_start: [0, 0, 0, 0, 0xff, 0xfe],
                amf_field: [0x80, 0],
                snn: ServingNetworkName::new("310", "260"),
                count: 8,
            },
        ),
        wire(
            "paka.udm_aka_resync_request",
            UdmAkaResyncRequest {
                supi: *supi,
                opc: [0xcd; 16].into(),
                rand: [0x23; 16],
                auts: auts(),
            },
        ),
        wire("paka.he_av", he_av(0x10)),
        wire("paka.he_av_batch", vec![he_av(0x10), he_av(0x20)]),
        wire("paka.he_av_batch.empty", Vec::<HeAv>::new()),
        wire(
            "paka.ausf_aka_request",
            AusfAkaRequest {
                rand: [1; 16],
                xres_star: [2; 16],
                kausf: [3; 32].into(),
                snn: snn(),
            },
        ),
        wire(
            "paka.ausf_aka_response",
            AusfAkaResponse {
                hxres_star: [5; 16],
                kseaf: [6; 32].into(),
            },
        ),
        wire(
            "paka.amf_aka_request",
            AmfAkaRequest {
                kseaf: [4; 32].into(),
                supi: *supi,
                abba: [0, 0],
            },
        ),
        wire("paka.sqn_ms", [0u8, 0, 0, 0, 3, 3]),
        wire("paka.kamf", SecretBytes::new([8u8; 32])),
    ]
}

fn http() -> Vec<Vector> {
    let body: Vec<u8> = (0u8..=31).collect();
    vec![
        request(
            "http.request.post",
            HttpRequest::post("/nausf-auth/authenticate", body.clone()),
        ),
        request(
            "http.request.post.headers",
            HttpRequest::post("/eudm/generate-av", body.clone())
                .with_header("x-sim-priority", "emergency")
                .with_header("Accept", "application/json"),
        ),
        request("http.request.get", HttpRequest::get("/status")),
        request(
            "http.request.put.empty",
            HttpRequest::new(Method::Put, "/p", Vec::new()),
        ),
        request(
            "http.request.delete.body1000",
            HttpRequest::new(Method::Delete, "/d", vec![0x5a; 1000]),
        ),
        response("http.response.ok", HttpResponse::ok(body)),
        response("http.response.ok.empty", HttpResponse::ok(Vec::new())),
        response(
            "http.response.error.404",
            HttpResponse::error(404, "unknown subscriber imsi-001010000000042"),
        ),
        response(
            "http.response.error.503.header",
            HttpResponse::error(503, "shed").with_header("x-sim-shed", "queue-full"),
        ),
        response(
            "http.response.error.unknown_status",
            HttpResponse::error(508, "call loop through amf.oai"),
        ),
    ]
}

fn vectors() -> Result<Vec<Vector>, Box<dyn std::error::Error>> {
    let supi = Supi::new(Plmn::test_network(), "0000000001")?;
    Ok([
        nas_uplink(&supi),
        nas_downlink(),
        protected_and_ngap(&supi),
        sbi(&supi),
        paka(&supi),
        http(),
    ]
    .into_iter()
    .flatten()
    .collect())
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire_vectors.txt")
}

#[test]
fn every_message_type_encodes_to_its_pinned_bytes() -> Result<(), Box<dyn std::error::Error>> {
    let live: String = vectors()?
        .iter()
        .map(|v| format!("{} {}\n", v.name, hex::encode(&v.bytes)))
        .collect();
    if std::env::var_os("SHIELD5G_REGEN_GOLDEN").is_some() {
        return Ok(std::fs::write(golden_path(), &live)?);
    }
    let golden = std::fs::read_to_string(golden_path())?;
    for (g, l) in golden.lines().zip(live.lines()) {
        assert_eq!(g, l, "wire bytes moved");
    }
    assert_eq!(golden.lines().count(), live.lines().count(), "vector count");
    Ok(())
}

#[test]
fn every_pinned_line_decodes_and_re_encodes_byte_for_byte() -> Result<(), Box<dyn std::error::Error>>
{
    let golden = std::fs::read_to_string(golden_path())?;
    let vectors = vectors()?;
    assert_eq!(golden.lines().count(), vectors.len(), "vector count");
    for (line, vector) in golden.lines().zip(&vectors) {
        let (name, pinned) = line.split_once(' ').ok_or("unnamed line")?;
        assert_eq!(name, vector.name);
        let pinned = hex::decode(pinned)?;
        assert_eq!((vector.again)(&pinned)?, pinned, "{name}");
    }
    Ok(())
}

/// The gNB and the AMF read NGAP through `Ngap::borrow`: on every pinned
/// NGAP line and each of its mutants it accepts and refuses what
/// `Ngap::decode` does, with the same fields.
#[test]
fn ngap_borrow_is_decode_without_the_copy() -> Result<(), Box<dyn std::error::Error>> {
    let ngap: Vec<Vector> = vectors()?
        .into_iter()
        .filter(|v| v.name.starts_with("ngap."))
        .collect();
    assert_eq!(ngap.len(), 4, "one pinned line per NGAP message");
    for vector in &ngap {
        for bytes in [vec![vector.bytes.clone()], mutants(&vector.bytes)].concat() {
            let borrowed = Ngap::borrow(&bytes).map(|msg| msg.map(<[u8]>::to_vec));
            assert_eq!(
                borrowed,
                Ngap::decode(&bytes),
                "{}: {bytes:02x?}",
                vector.name
            );
        }
    }
    Ok(())
}

#[test]
fn every_wire_type_survives_hostile_bytes() -> Result<(), Box<dyn std::error::Error>> {
    for vector in vectors()? {
        (vector.hostile)();
    }
    Ok(())
}

/// `bytes` with the wire form of [`SUPI`] replaced by that of `text`, if
/// they carry it.
fn with_supi_text(bytes: &[u8], text: &str) -> Option<Vec<u8>> {
    let wire = |s: &str| {
        Writer::build(|w| {
            w.put_str(s);
        })
    };
    let (valid, forged) = (wire(SUPI), wire(text));
    let at = bytes.windows(valid.len()).position(|w| *w == valid[..])?;
    Some([&bytes[..at], &forged[..], &bytes[at + valid.len()..]].concat())
}

/// A SUPI field takes only text a SUPI displays as: a valid one
/// round-trips, anything else is a protocol violation.
fn refuses_non_imsi<T: Wire + PartialEq + Debug>(valid: &T) {
    let bytes = valid.encode();
    assert_eq!(T::decode(&bytes).as_ref(), Ok(valid));
    for text in [
        "imsi-1",
        "imsi-00101000000000a",
        "imsi-00101000000000000001",
        "IMSI-001010000000001",
        "imsi-001010000000001 ",
        "imsi-0010100000000\u{e9}",
        "nai-alice@example.org",
    ] {
        let Some(forged) = with_supi_text(&bytes, text) else {
            panic!("{valid:?} carries no SUPI");
        };
        assert!(
            matches!(T::decode(&forged), Err(NfError::Protocol(_))),
            "{valid:?} took {text:?}"
        );
    }
}

#[test]
fn every_supi_bearing_message_refuses_a_non_imsi_supi() -> Result<(), Box<dyn std::error::Error>> {
    let supi = Supi::parse(SUPI)?;
    refuses_non_imsi(&ConfirmResponse {
        success: true,
        supi: Some(supi),
        kseaf: [4; 32].into(),
    });
    refuses_non_imsi(&UdmAuthGetResponse {
        supi,
        he_av: he_av(0x10),
    });
    refuses_non_imsi(&ResyncRequest {
        supi,
        rand: [5; 16],
        auts: auts(),
    });
    refuses_non_imsi(&UdrAuthDataRequest { supi });
    refuses_non_imsi(&UdrResyncRequest {
        supi,
        sqn_ms: [0, 0, 0, 0, 3, 4],
    });
    refuses_non_imsi(&CreateSessionRequest {
        supi,
        pdu_session_id: 5,
    });
    refuses_non_imsi(&UdmAkaRequest {
        supi,
        opc: [0xcd; 16].into(),
        rand: [0x23; 16],
        sqn: [0, 0, 0, 0, 0, 7],
        amf_field: [0x80, 0],
        snn: snn(),
    });
    refuses_non_imsi(&UdmAkaBatchRequest {
        supi,
        opc: [0xcd; 16].into(),
        rand_seed: [0x77; 16],
        sqn_start: [0, 0, 0, 0, 0xff, 0xfe],
        amf_field: [0x80, 0],
        snn: snn(),
        count: 8,
    });
    refuses_non_imsi(&UdmAkaResyncRequest {
        supi,
        opc: [0xcd; 16].into(),
        rand: [0x23; 16],
        auts: auts(),
    });
    refuses_non_imsi(&AmfAkaRequest {
        kseaf: [4; 32].into(),
        supi,
        abba: [0, 0],
    });
    // The one optional SUPI, withheld on a failed confirmation, is the
    // empty string on the wire.
    let refused = ConfirmResponse {
        success: false,
        supi: None,
        kseaf: [0; 32].into(),
    };
    assert_eq!(ConfirmResponse::decode(&refused.encode()), Ok(refused));
    Ok(())
}
