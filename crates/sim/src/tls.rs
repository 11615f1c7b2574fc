//! A TLS-like secure channel with real cryptography.
//!
//! 3GPP requires TLS with mutual authentication on service-based
//! interfaces (TS 33.210), and the paper's P-AKA containers "communicate
//! over TLS using REST APIs via the OAI Docker bridge" (§IV-A). This
//! module gives the simulator an honest equivalent:
//!
//! * handshake: X25519 ephemeral key agreement, authenticated by an
//!   HMAC transcript tag under each peer's static key (a stand-in for
//!   certificate signatures that keeps the wire sizes realistic),
//! * record protection: AES-128-CTR under the counter block `record
//!   sequence ‖ block counter` and a truncated HMAC-SHA-256 tag, each
//!   direction's MAC key held prepared ([`HmacKey`]).
//!
//! Records really are encrypted — the infrastructure attacker model
//! demonstrates that sniffing the bridge yields ciphertext only.

use crate::SimError;
use serde::{Deserialize, Serialize};
use shield5g_crypto::aes::Aes128;
use shield5g_crypto::hmac::{hmac_sha256, HmacKey};
use shield5g_crypto::kdf::kdf_x963;
use shield5g_crypto::x25519::{x25519, x25519_base};

/// Record MAC tag length (bytes).
pub const TAG_LEN: usize = 16;

/// Bytes exchanged during the handshake (client hello + server hello +
/// finished tags); used by the latency model when charging the wire.
pub const HANDSHAKE_WIRE_BYTES: usize = 32 + 32 + 32 + 32 + 32 + 32;

/// A static identity key pair for one endpoint.
#[derive(Clone)]
pub struct TlsIdentity {
    name: String,
    private: [u8; 32],
    public: [u8; 32],
}

impl std::fmt::Debug for TlsIdentity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsIdentity")
            .field("name", &self.name)
            .field("private", &"<redacted>")
            .finish()
    }
}

impl TlsIdentity {
    /// Creates an identity from a name and a private scalar.
    #[must_use]
    pub fn new(name: impl Into<String>, private: [u8; 32]) -> Self {
        let public = x25519_base(&private);
        TlsIdentity {
            name: name.into(),
            private,
            public,
        }
    }

    /// The endpoint name (certificate subject stand-in).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The static public key peers pin.
    #[must_use]
    pub fn public(&self) -> &[u8; 32] {
        &self.public
    }
}

/// One direction of record protection.
#[derive(Clone)]
struct DirectionKeys {
    cipher: Aes128,
    mac: HmacKey,
    seq: u64,
}

impl DirectionKeys {
    fn new(key: &[u8; 16], mac_key: &[u8]) -> Self {
        DirectionKeys {
            cipher: Aes128::new(key),
            mac: HmacKey::new(mac_key),
            seq: 0,
        }
    }

    /// The record's initial counter block `seq ‖ 0⁶⁴`. The sequence sits
    /// in the high half because CTR's block counter runs in the low one:
    /// no two blocks of a direction may share a counter.
    fn nonce(seq: u64) -> [u8; 16] {
        let mut icb = [0u8; 16];
        icb[..8].copy_from_slice(&seq.to_be_bytes());
        icb
    }

    /// The truncated HMAC over `seq ‖ ct`, streamed rather than assembled.
    fn record_tag(&self, ct: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = self.mac.start();
        mac.update(&self.seq.to_be_bytes());
        mac.update(ct);
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&mac.finalize()[..TAG_LEN]);
        tag
    }

    /// Turns the plaintext `record` holds into its sealed record, in
    /// place: ciphertext, then the tag.
    fn seal_in_place(&mut self, record: &mut Vec<u8>) {
        self.cipher.ctr_apply(&Self::nonce(self.seq), record);
        let tag = self.record_tag(record);
        record.extend_from_slice(&tag);
        self.seq += 1;
    }

    fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, SimError> {
        if record.len() < TAG_LEN {
            return Err(SimError::TlsRecordRejected(
                "record shorter than tag".into(),
            ));
        }
        let (ct, tag) = record.split_at(record.len() - TAG_LEN);
        if !shield5g_crypto::ct_eq(&self.record_tag(ct), tag) {
            return Err(SimError::TlsRecordRejected("bad record mac".into()));
        }
        let mut pt = ct.to_vec();
        self.cipher.ctr_apply(&Self::nonce(self.seq), &mut pt);
        self.seq += 1;
        Ok(pt)
    }
}

/// An established secure channel endpoint.
///
/// [`establish`] returns one for each peer with mirrored directions.
#[derive(Clone)]
pub struct TlsSession {
    peer_name: String,
    write: DirectionKeys,
    read: DirectionKeys,
}

impl std::fmt::Debug for TlsSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsSession")
            .field("peer_name", &self.peer_name)
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl TlsSession {
    /// The authenticated name of the remote peer.
    #[must_use]
    pub fn peer_name(&self) -> &str {
        &self.peer_name
    }

    /// Encrypts and authenticates the outgoing record whose plaintext
    /// `record` holds, in the same buffer (it grows by [`TAG_LEN`]), which
    /// holds ciphertext from here on.
    pub fn seal_in_place(&mut self, record: &mut Vec<u8>) {
        self.write.seal_in_place(record);
    }

    /// Encrypts and authenticates an outgoing record
    /// ([`TlsSession::seal_in_place`] on a copy of `plaintext`).
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut record = Vec::with_capacity(plaintext.len() + TAG_LEN);
        record.extend_from_slice(plaintext);
        self.seal_in_place(&mut record);
        record
    }

    /// Verifies and decrypts an incoming record.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TlsRecordRejected`] for tampered, replayed or
    /// reordered records.
    pub fn open(&mut self, record: &[u8]) -> Result<Vec<u8>, SimError> {
        self.read.open(record)
    }
}

/// Wire transcript sizes produced by a handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HandshakeInfo {
    /// Bytes that crossed the wire during the handshake.
    pub wire_bytes: usize,
    /// Round trips consumed (TLS 1.3-style: 1-RTT plus TCP-layer costs are
    /// charged separately by the channel).
    pub round_trips: u32,
}

/// Performs a mutually authenticated handshake between two identities.
///
/// Both endpoints live in the same world, so the function returns the two
/// session halves directly; the *cost* of the handshake (round trips,
/// bytes, crypto time) is charged by the caller's channel model using the
/// returned [`HandshakeInfo`].
///
/// # Errors
///
/// Returns [`SimError::TlsRecordRejected`] when either transcript MAC fails
/// — i.e. one side does not actually hold the static key the other pinned.
pub fn establish(
    client: &TlsIdentity,
    server: &TlsIdentity,
    client_ephemeral: [u8; 32],
    server_ephemeral: [u8; 32],
) -> Result<(TlsSession, TlsSession, HandshakeInfo), SimError> {
    let client_eph_pub = x25519_base(&client_ephemeral);
    let server_eph_pub = x25519_base(&server_ephemeral);
    let shared_c = x25519(&client_ephemeral, &server_eph_pub);
    debug_assert_eq!(shared_c, x25519(&server_ephemeral, &client_eph_pub));

    // Transcript binds both ephemerals, both certificates (name + static
    // public key) — as a real TLS transcript hash would.
    let mut transcript = Vec::with_capacity(128 + client.name.len() + server.name.len());
    transcript.extend_from_slice(&client_eph_pub);
    transcript.extend_from_slice(&server_eph_pub);
    transcript.extend_from_slice(client.name.as_bytes());
    transcript.extend_from_slice(&client.public);
    transcript.extend_from_slice(server.name.as_bytes());
    transcript.extend_from_slice(&server.public);

    // "Certificate verify" stand-ins: HMAC over the transcript under each
    // static DH result (static-ephemeral agreement authenticates the peer).
    let client_auth_secret = x25519(&client.private, &server_eph_pub);
    let server_auth_secret = x25519(&server.private, &client_eph_pub);
    let client_tag = hmac_sha256(&client_auth_secret, &transcript);
    let server_tag = hmac_sha256(&server_auth_secret, &transcript);

    // Each side recomputes the peer's expected tag from the pinned static
    // public key.
    let expect_client = hmac_sha256(&x25519(&server_ephemeral, &client.public), &transcript);
    let expect_server = hmac_sha256(&x25519(&client_ephemeral, &server.public), &transcript);
    if !shield5g_crypto::ct_eq(&client_tag, &expect_client) {
        return Err(SimError::TlsRecordRejected(
            "client authentication failed".into(),
        ));
    }
    if !shield5g_crypto::ct_eq(&server_tag, &expect_server) {
        return Err(SimError::TlsRecordRejected(
            "server authentication failed".into(),
        ));
    }

    // Traffic keys from the ephemeral secret + transcript; each direction
    // is keyed once and shared by its two ends.
    let key_data = kdf_x963::<96>(&shared_c, &transcript);
    let mut c2s_key = [0u8; 16];
    let mut s2c_key = [0u8; 16];
    c2s_key.copy_from_slice(&key_data[0..16]);
    s2c_key.copy_from_slice(&key_data[16..32]);
    let c2s = DirectionKeys::new(&c2s_key, &key_data[32..64]);
    let s2c = DirectionKeys::new(&s2c_key, &key_data[64..96]);

    let client_session = TlsSession {
        peer_name: server.name.clone(),
        write: c2s.clone(),
        read: s2c.clone(),
    };
    let server_session = TlsSession {
        peer_name: client.name.clone(),
        write: s2c,
        read: c2s,
    };
    Ok((
        client_session,
        server_session,
        HandshakeInfo {
            wire_bytes: HANDSHAKE_WIRE_BYTES,
            round_trips: 2,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TlsIdentity, TlsIdentity) {
        (
            TlsIdentity::new("udm.oai", [1; 32]),
            TlsIdentity::new("eudm-paka.oai", [2; 32]),
        )
    }

    #[test]
    fn handshake_and_bidirectional_records() {
        let (c, s) = pair();
        let (mut cs, mut ss, info) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
        assert_eq!(info.round_trips, 2);
        assert_eq!(cs.peer_name(), "eudm-paka.oai");
        assert_eq!(ss.peer_name(), "udm.oai");

        let record = cs.seal(b"generate-auth-data");
        assert_ne!(&record[..18], b"generate-auth-data");
        assert_eq!(ss.open(&record).unwrap(), b"generate-auth-data");

        let reply = ss.seal(b"he-av");
        assert_eq!(cs.open(&reply).unwrap(), b"he-av");
    }

    #[test]
    fn tampering_detected() {
        let (c, s) = pair();
        let (mut cs, mut ss, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
        let mut record = cs.seal(b"secret");
        record[0] ^= 1;
        assert!(matches!(
            ss.open(&record),
            Err(SimError::TlsRecordRejected(_))
        ));
    }

    #[test]
    fn replay_detected() {
        let (c, s) = pair();
        let (mut cs, mut ss, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
        let record = cs.seal(b"once");
        assert!(ss.open(&record).is_ok());
        // Same bytes again: sequence number advanced, MAC no longer matches.
        assert!(ss.open(&record).is_err());
    }

    #[test]
    fn reorder_detected() {
        let (c, s) = pair();
        let (mut cs, mut ss, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
        let r1 = cs.seal(b"first");
        let r2 = cs.seal(b"second");
        assert!(ss.open(&r2).is_err());
        // The failed attempt must not consume seq 0: in-order delivery
        // still works afterwards.
        assert_eq!(ss.open(&r1).unwrap(), b"first");
        assert_eq!(ss.open(&r2).unwrap(), b"second");
    }

    #[test]
    fn no_keystream_block_is_used_twice() {
        // All-zero plaintext makes the ciphertext the keystream: were the
        // sequence number to share the ICB's low half with the block
        // counter, block 1 of record n would equal block 0 of record n+1.
        let (c, s) = pair();
        let (mut cs, mut ss, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
        for session in [&mut cs, &mut ss] {
            let mut blocks = std::collections::BTreeSet::new();
            for _ in 0..3 {
                let record = session.seal(&[0u8; 64]);
                blocks.extend(record[..64].chunks(16).map(<[u8]>::to_vec));
            }
            assert_eq!(blocks.len(), 12, "a keystream block repeated");
        }
    }

    #[test]
    fn impostor_key_changes_traffic_keys() {
        // An impostor presenting c's name but its own static key derives
        // different authentication secrets than a peer pinning c's public
        // key would accept; with identical ephemerals the resulting
        // sessions are nevertheless distinct, so stolen-name impersonation
        // cannot splice into an existing channel.
        let (c, s) = pair();
        let impostor = TlsIdentity::new("udm.oai", [9; 32]);
        let (mut imp_sess, _, _) = establish(&impostor, &s, [3; 32], [4; 32]).unwrap();
        let (mut real_sess, _, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
        assert_ne!(imp_sess.seal(b"x"), real_sess.seal(b"x"));
    }

    #[test]
    fn distinct_ephemerals_distinct_keys() {
        let (c, s) = pair();
        let (mut s1, _, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
        let (mut s2, _, _) = establish(&c, &s, [5; 32], [6; 32]).unwrap();
        assert_ne!(s1.seal(b"m"), s2.seal(b"m"));
    }

    #[test]
    fn short_record_rejected() {
        let (c, s) = pair();
        let (_, mut ss, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
        assert!(ss.open(&[0u8; 4]).is_err());
    }

    #[test]
    fn empty_record_round_trips() {
        let (c, s) = pair();
        let (mut cs, mut ss, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
        let record = cs.seal(b"");
        assert_eq!(record.len(), TAG_LEN);
        assert_eq!(ss.open(&record).unwrap(), b"");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn arbitrary_payloads_round_trip(payload in proptest::collection::vec(0u8.., 0..300)) {
            let (c, s) = pair();
            let (mut cs, mut ss, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
            let record = cs.seal(&payload);
            proptest::prop_assert_eq!(ss.open(&record).unwrap(), payload);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn a_hostile_record_is_rejected_and_leaves_no_state(
            junk in proptest::collection::vec(0u8.., 0..300),
            payload in proptest::collection::vec(0u8.., 0..300),
            bit in 0usize..,
            cut in 0usize..,
            extra in 0u8..,
        ) {
            let (c, s) = pair();
            let (mut cs, mut ss, _) = establish(&c, &s, [3; 32], [4; 32]).unwrap();
            // Random bytes, then a bit flip, a truncation and an appended
            // byte of the very record that comes next: each is rejected
            // with a typed error, after which that honest record still
            // opens, so a reject consumed nothing.
            let rejected = ss.open(&junk);
            proptest::prop_assert!(matches!(rejected, Err(SimError::TlsRecordRejected(_))));
            for mutation in ["flip", "truncate", "append"] {
                let honest = cs.seal(&payload);
                let mut hostile = honest.clone();
                match mutation {
                    "flip" => {
                        let bit = bit % (honest.len() * 8);
                        hostile[bit / 8] ^= 1 << (bit % 8);
                    }
                    "truncate" => hostile.truncate(cut % honest.len()),
                    _ => hostile.push(extra),
                }
                let rejected = ss.open(&hostile);
                proptest::prop_assert!(
                    matches!(rejected, Err(SimError::TlsRecordRejected(_))),
                    "{} accepted", mutation
                );
                proptest::prop_assert_eq!(ss.open(&honest).unwrap(), payload.clone());
            }
        }
    }
}
