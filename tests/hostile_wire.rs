//! Hostile input on the decoders outside the P-AKA operation table, and
//! the in-place writers against their owned forms.
//!
//! Every `Wire` message meets the exhaustive generic property of
//! `crates/nf/tests/wire_vectors.rs` on its one pinned instance. Here the
//! raw `Reader`, HTTP framing, NGAP and protected NAS get random valid
//! messages instead, each rewritten after 5Greplay's mutation catalogue
//! (arXiv:2304.05719) — truncate, flip one bit, lie about a length, splice
//! with another message — so the mutant reaches the length arithmetic, the
//! borrowed getters and the header parser. The contract: no panic; a typed
//! error, or a value that is a fixed point of its codec. The second half
//! pins `write_to` / `encode_into` / `protect_into` / `seal_in_place` to
//! `to_bytes` / `encode` / `protect` / `seal` on arbitrary inputs: the
//! owned forms are wrappers, and stay so.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helper: a panic is the failure report"
)]

use proptest::prelude::*;
use shield5g::crypto::ident::Guti;
use shield5g::nf::messages::{NasDownlink, NasUplink, Ngap};
use shield5g::nf::nas_security::{NasSecurityContext, ProtectedNas};
use shield5g::nf::wire::Wire;
use shield5g::nf::NfError;
use shield5g::sim::codec::{Body, Reader, Writer};
use shield5g::sim::http::{HttpRequest, HttpResponse, Method};
use shield5g::sim::tls::{establish, TlsIdentity, TlsSession};
use shield5g::sim::SimError;

/// One hostile rewrite of `valid`, chosen by `word`: truncate, flip one
/// bit, lie about a length (`lie` rewrites the message's length field by a
/// non-zero amount), or splice with `other`.
fn mutate(valid: &[u8], other: &[u8], word: u64, lie: impl Fn(&mut Vec<u8>, u32)) -> Vec<u8> {
    let at = (word >> 8) as usize % valid.len();
    let mut bytes = valid.to_vec();
    match word % 4 {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << ((word >> 4) % 8),
        2 => lie(&mut bytes, (word >> 8) as u32 % u32::MAX + 1),
        _ => {
            bytes.truncate(at);
            bytes.extend_from_slice(&other[(word >> 32) as usize % other.len()..]);
        }
    }
    bytes
}

/// Adds `by` to the big-endian `u32` length prefix at `at`.
fn lie_at(at: usize) -> impl Fn(&mut Vec<u8>, u32) {
    move |bytes, by| {
        let field: &mut [u8; 4] = (&mut bytes[at..at + 4]).try_into().unwrap();
        *field = u32::from_be_bytes(*field).wrapping_add(by).to_be_bytes();
    }
}

/// Rewrites the declared `Content-Length` of an HTTP message.
fn lie_content_length(bytes: &mut Vec<u8>, by: u32) {
    let key = b"Content-Length: ";
    let at = bytes.windows(key.len()).position(|w| w == key).unwrap() + key.len();
    let end = at + bytes[at..].iter().position(|b| *b == b'\r').unwrap();
    let declared: u32 = std::str::from_utf8(&bytes[at..end])
        .unwrap()
        .parse()
        .unwrap();
    let lie = declared.wrapping_add(by).to_string();
    bytes.splice(at..end, lie.bytes());
}

fn method(index: usize) -> Method {
    [Method::Get, Method::Post, Method::Put, Method::Delete][index % 4]
}

fn request(
    method_index: usize,
    path: &str,
    headers: &[(String, String)],
    body: &[u8],
) -> HttpRequest {
    let req = HttpRequest::new(method(method_index), path, body.to_vec());
    headers
        .iter()
        .fold(req, |req, (n, v)| req.with_header(n.clone(), v.clone()))
}

fn response(status: u16, headers: &[(String, String)], body: &[u8]) -> HttpResponse {
    let mut resp = HttpResponse::ok(body.to_vec());
    resp.status = status;
    headers
        .iter()
        .fold(resp, |resp, (n, v)| resp.with_header(n.clone(), v.clone()))
}

fn sessions() -> (TlsSession, TlsSession) {
    let client = TlsIdentity::new("udm.oai", [1; 32]);
    let server = TlsIdentity::new("eudm-paka.oai", [2; 32]);
    let (c, s, _) = establish(&client, &server, [3; 32], [4; 32]).unwrap();
    (c, s)
}

fn nas_pair() -> (NasSecurityContext, NasSecurityContext) {
    let kamf = [0x42; 32];
    (
        NasSecurityContext::from_kamf(&kamf, true),
        NasSecurityContext::from_kamf(&kamf, false),
    )
}

proptest! {
    #[test]
    fn borrowed_getters_survive_hostile_fields(
        data in proptest::collection::vec(0u8.., 0..80),
        text in "[a-z0-9-]{0,40}",
        script in proptest::collection::vec(0u64.., 32..=32),
    ) {
        let mut w = Writer::new();
        w.put_bytes(&data).put_str(&text).put_u16(7);
        let valid = w.into_bytes();
        let mut other = Writer::new();
        other.put_str("imsi-001010000000001").put_bytes(&[0xff; 9]);
        let other = other.into_bytes();
        for word in script {
            // The lie lands on either length prefix.
            let len_at = if word & 0x80 == 0 { 0 } else { 4 + data.len() };
            let bytes = mutate(&valid, &other, word, lie_at(len_at));
            let read = |bytes: &[u8]| -> Result<Body, SimError> {
                let mut r = Reader::new(bytes);
                let (data, text, tail) = (r.bytes_ref()?, r.str_ref()?, r.u16()?);
                r.finish()?;
                let mut again = Writer::new();
                again.put_bytes(data).put_str(text).put_u16(tail);
                Ok(again.into_bytes())
            };
            match read(&bytes) {
                // What was accepted is exactly what was sent.
                Ok(again) => prop_assert_eq!(&again, &bytes),
                Err(e) => prop_assert!(matches!(e, SimError::MalformedHttp(_))),
            }
            // The owned getters are the borrowed ones, copied.
            let (mut owned, mut borrowed) = (Reader::new(&bytes), Reader::new(&bytes));
            prop_assert_eq!(owned.bytes().ok(), borrowed.bytes_ref().ok().map(<[u8]>::to_vec));
            prop_assert_eq!(owned.str().ok(), borrowed.str_ref().ok().map(str::to_owned));
        }
    }

    #[test]
    fn http_parsers_survive_hostile_messages(
        method_index in 0usize..4,
        path in "[a-z/-]{1,40}",
        names in proptest::collection::vec("[A-Za-z-]{1,12}", 0..=3),
        values in proptest::collection::vec("[ -~]{0,24}", 3),
        status in 0usize..6,
        body in proptest::collection::vec(0u8.., 0..120),
        script in proptest::collection::vec(0u64.., 32..=32),
    ) {
        let headers: Vec<(String, String)> = names.into_iter().zip(values).collect();
        let status = [200u16, 204, 404, 503, 508, 7][status];
        let req = request(method_index, &path, &headers, &body).to_bytes();
        let resp = response(status, &headers, &body).to_bytes();
        for word in script {
            let hostile_req = mutate(&req, &resp, word, lie_content_length);
            match HttpRequest::from_bytes(&hostile_req) {
                Ok(got) => {
                    prop_assert_eq!(got.wire_len(), got.to_bytes().len());
                    prop_assert_eq!(HttpRequest::from_bytes(&got.to_bytes()), Ok(got));
                }
                Err(e) => prop_assert!(matches!(e, SimError::MalformedHttp(_))),
            }
            let hostile_resp = mutate(&resp, &req, word, lie_content_length);
            match HttpResponse::from_bytes(&hostile_resp) {
                Ok(got) => {
                    prop_assert_eq!(got.wire_len(), got.to_bytes().len());
                    prop_assert_eq!(HttpResponse::from_bytes(&got.to_bytes()), Ok(got));
                }
                Err(e) => prop_assert!(matches!(e, SimError::MalformedHttp(_))),
            }
            // A lie about the length is never believed.
            if word % 4 == 2 {
                prop_assert!(HttpRequest::from_bytes(&hostile_req).is_err());
                prop_assert!(HttpResponse::from_bytes(&hostile_resp).is_err());
            }
        }
    }

    #[test]
    fn ngap_and_protected_nas_survive_hostile_messages(
        ran_ue_id in 0u64..,
        nas in proptest::collection::vec(0u8.., 0..100),
        teid in 0u32..,
        script in proptest::collection::vec(0u64.., 32..=32),
    ) {
        let (mut ue, _) = nas_pair();
        let pdu = ue.protect(&nas).encode();
        let ngap = Ngap::InitialContextSetup { ran_ue_id, nas: pdu.clone(), teid }.encode();
        let uplink = Ngap::UplinkNasTransport { ran_ue_id, nas }.encode();
        for word in script {
            // NGAP: tag, ran_ue_id, then the length-prefixed NAS.
            let hostile = mutate(&ngap, &uplink, word, lie_at(9));
            let owned = Ngap::decode(&hostile);
            match &owned {
                Ok(got) => prop_assert_eq!(&got.encode(), &hostile),
                Err(e) => prop_assert!(matches!(
                    e,
                    NfError::Sim(SimError::MalformedHttp(_)) | NfError::Protocol(_)
                )),
            }
            // What the gNB and the AMF read: the owned decoder, uncopied.
            let borrowed = Ngap::borrow(&hostile).map(|msg| msg.map(<[u8]>::to_vec));
            prop_assert_eq!(borrowed, owned);
            // Protected NAS: count, mac, then the length-prefixed ciphertext.
            let hostile = mutate(&pdu, &ngap, word, lie_at(8));
            let owned = ProtectedNas::decode(&hostile);
            match &owned {
                Ok(got) => prop_assert_eq!(&got.encode(), &hostile),
                Err(e) => prop_assert!(matches!(e, NfError::Sim(SimError::MalformedHttp(_)))),
            }
            // The borrowed decoder is the owned one without the copy.
            let borrowed = ProtectedNas::borrow(&hostile).map(|p| ProtectedNas {
                count: p.count,
                mac: p.mac,
                ciphertext: p.ciphertext.to_vec(),
            });
            prop_assert_eq!(borrowed, owned);
        }
    }

    #[test]
    fn http_write_to_is_to_bytes(
        method_index in 0usize..4,
        path in "[a-z/-]{0,40}",
        names in proptest::collection::vec("[A-Za-z-]{1,12}", 0..=3),
        values in proptest::collection::vec("[ -~]{0,24}", 3),
        status in 0u16..,
        body in proptest::collection::vec(0u8.., 0..300),
        prefix in proptest::collection::vec(0u8.., 0..40),
    ) {
        let headers: Vec<(String, String)> = names.into_iter().zip(values).collect();
        let req = request(method_index, &path, &headers, &body);
        let resp = response(status, &headers, &body);
        // Appended to whatever the buffer already holds.
        let mut out = prefix.clone();
        req.write_to(&mut out);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &req.to_bytes()[..]);
        prop_assert_eq!(req.wire_len(), out.len() - prefix.len());
        let mut out = prefix.clone();
        resp.write_to(&mut out);
        prop_assert_eq!(&out[prefix.len()..], &resp.to_bytes()[..]);
        prop_assert_eq!(resp.wire_len(), out.len() - prefix.len());
    }

    #[test]
    fn nested_and_protected_writes_are_the_owned_forms(
        res_star in proptest::array::uniform16(0u8..),
        tmsi in 0u32..,
        session in 0u8..,
        lead in proptest::collection::vec(0u8.., 0..20),
    ) {
        let uplinks = [
            NasUplink::AuthenticationResponse { res_star },
            NasUplink::SecurityModeComplete,
            NasUplink::PduSessionEstablishmentRequest { pdu_session_id: session },
        ];
        let downlink = NasDownlink::RegistrationAccept { guti: Guti::new(1, 1, 1, tmsi) };
        let (mut ue_a, mut amf_a) = nas_pair();
        let (mut ue_b, mut amf_b) = nas_pair();
        for msg in &uplinks {
            // Nested: the length-prefixed field `put_bytes` would append.
            let mut nested = Writer::new();
            nested.put_bytes(&lead).put_nested(|w| msg.encode_into(w));
            let mut flat = Writer::new();
            flat.put_bytes(&lead).put_bytes(&msg.encode());
            prop_assert_eq!(nested.into_bytes(), flat.into_bytes());
            // Protected where written: COUNT advances in step on both.
            let in_place = Writer::build(|w| ue_a.protect_into(w, |w| msg.encode_into(w)));
            let owned = ue_b.protect(&msg.encode()).encode();
            prop_assert_eq!(&in_place, &owned);
            // And the peer unprotects it from the bytes that carried it.
            let pdu = ProtectedNas::borrow(&in_place).unwrap();
            prop_assert_eq!(amf_a.unprotect(&pdu).unwrap(), msg.encode());
        }
        let in_place = Writer::build(|w| {
            w.put_bytes(&lead);
            amf_a.protect_into(w, |w| downlink.encode_into(w));
        });
        let mut owned = Writer::new();
        owned.put_bytes(&lead);
        let mut owned = owned.into_bytes().to_vec();
        owned.extend_from_slice(&amf_b.protect(&downlink.encode()).encode());
        prop_assert_eq!(in_place, owned);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn tls_seal_in_place_is_seal(
        first in proptest::collection::vec(0u8.., 0..300),
        second in proptest::collection::vec(0u8.., 0..300),
    ) {
        let (mut in_place, mut peer) = sessions();
        let (mut owned, _) = sessions();
        // Two records, so the sequence number advances in step too.
        for payload in [first, second] {
            let mut record = payload.clone();
            in_place.seal_in_place(&mut record);
            prop_assert_eq!(&record, &owned.seal(&payload));
            prop_assert_eq!(peer.open(&record).unwrap(), payload);
        }
    }
}
