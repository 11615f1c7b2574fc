//! NAS security context: integrity protection and ciphering of NAS
//! messages after the security mode procedure (TS 33.501 §6.4).
//!
//! The paper's Figure 5 ends with "Establish secure NAS connection with
//! UE" — this module is that connection. Algorithms are simulation
//! equivalents of 5G-EA2/5G-IA2 (AES-CTR ciphering, HMAC-based 32-bit
//! integrity MAC) keyed from K_AMF via the TS 33.501 A.8 derivations.
//! The integrity key is held prepared ([`HmacKey`]): every MAC resumes
//! from its pad states instead of keying HMAC afresh.
//!
//! A sender protects a message where it is written
//! ([`NasSecurityContext::protect_into`]) and a receiver unprotects it
//! from the message that carried it ([`ProtectedNas::borrow`]), so a
//! protected PDU is never a buffer of its own.

use crate::wire::wire;
use crate::NfError;
use shield5g_crypto::aes::Aes128;
use shield5g_crypto::hmac::HmacKey;
use shield5g_crypto::keys::derive_nas_key;
use shield5g_crypto::secret::SecretBytes;
use shield5g_sim::codec::{Body, Reader, Writer};

/// Identifier of the simulated AES-based ciphering algorithm (5G-EA2-like).
pub const CIPHER_ALG_AES: u8 = 2;
/// Identifier of the simulated HMAC-based integrity algorithm (5G-IA2-like).
pub const INTEGRITY_ALG_HMAC: u8 = 2;

/// A protected NAS PDU: `count || mac32 || ciphertext`, the ciphertext
/// owned (`Vec<u8>`) or borrowed from the wire bytes (`&[u8]`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtectedNas<B = Vec<u8>> {
    /// NAS COUNT used for replay protection and keystream freshness.
    pub count: u32,
    /// Truncated 32-bit message authentication code.
    pub mac: [u8; 4],
    /// Ciphered inner NAS message.
    pub ciphertext: B,
}

impl<'a> ProtectedNas<&'a [u8]> {
    /// Decodes wire bytes, the ciphertext left where it is: the zero-copy
    /// form of [`ProtectedNas::decode`].
    ///
    /// # Errors
    ///
    /// Returns [`NfError::Sim`] on framing violations.
    pub fn borrow(bytes: &'a [u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let pdu = ProtectedNas {
            count: r.u32()?,
            mac: r.array()?,
            ciphertext: r.bytes_ref()?,
        };
        r.finish()?;
        Ok(pdu)
    }
}

wire!(ProtectedNas {
    count,
    mac,
    ciphertext
});

/// One side's NAS security context (the peer holds the mirror image).
#[derive(Clone)]
pub struct NasSecurityContext {
    knas_int: HmacKey,
    knas_enc: SecretBytes<16>,
    uplink: bool,
    tx_count: u32,
    rx_count: u32,
}

impl std::fmt::Debug for NasSecurityContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NasSecurityContext")
            .field("uplink", &self.uplink)
            .field("tx_count", &self.tx_count)
            .field("rx_count", &self.rx_count)
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl NasSecurityContext {
    /// Derives a context from K_AMF. `uplink_sender` is true for the UE
    /// side (sends uplink, receives downlink) and false for the AMF side.
    #[must_use]
    pub fn new(kamf: &SecretBytes<32>, uplink_sender: bool) -> Self {
        let kamf = HmacKey::from(kamf);
        NasSecurityContext {
            knas_int: HmacKey::from(&derive_nas_key(&kamf, 0x02, INTEGRITY_ALG_HMAC)),
            knas_enc: derive_nas_key(&kamf, 0x01, CIPHER_ALG_AES),
            uplink: uplink_sender,
            tx_count: 0,
            rx_count: 0,
        }
    }

    /// [`NasSecurityContext::new`] from a literal K_AMF (tests, benchmarks).
    #[must_use]
    pub fn from_kamf(kamf: &[u8; 32], uplink_sender: bool) -> Self {
        Self::new(&SecretBytes::new(*kamf), uplink_sender)
    }

    fn keystream_nonce(count: u32, uplink: bool) -> [u8; 16] {
        let mut nonce = [0u8; 16];
        nonce[0] = u8::from(uplink);
        nonce[4..8].copy_from_slice(&count.to_be_bytes());
        nonce
    }

    /// The truncated HMAC over `direction ‖ count ‖ ciphertext`, streamed
    /// rather than assembled.
    fn mac(&self, count: u32, uplink: bool, ciphertext: &[u8]) -> [u8; 4] {
        let mut mac = self.knas_int.start();
        mac.update(&[u8::from(uplink)]);
        mac.update(&count.to_be_bytes());
        mac.update(ciphertext);
        let mut tag = [0u8; 4];
        tag.copy_from_slice(&mac.finalize()[..4]);
        tag
    }

    /// Cipher then MAC: ciphers `body` in place under the TX COUNT, spends
    /// that COUNT and returns the MAC over the result.
    fn seal(&mut self, body: &mut [u8]) -> [u8; 4] {
        let count = self.tx_count;
        self.tx_count += 1;
        Aes128::from(&self.knas_enc).ctr_apply(&Self::keystream_nonce(count, self.uplink), body);
        self.mac(count, self.uplink, body)
    }

    /// Protects an outgoing plain NAS message.
    pub fn protect(&mut self, plain: &[u8]) -> ProtectedNas {
        let count = self.tx_count;
        let mut ciphertext = plain.to_vec();
        let mac = self.seal(&mut ciphertext);
        ProtectedNas {
            count,
            mac,
            ciphertext,
        }
    }

    /// Writes the protected PDU of the message `plain` writes into `w`,
    /// ciphering it where it was written: the bytes
    /// `protect(&plain).encode()` would append, with no buffer between.
    pub fn protect_into(&mut self, w: &mut Writer, plain: impl FnOnce(&mut Writer)) {
        w.put_u32(self.tx_count);
        // The MAC is known once the body is ciphered.
        let mac_at = w.len();
        w.put_array(&[0; 4]);
        let body = w.put_nested(plain);
        let mac = self.seal(&mut w.written_mut()[body]);
        w.written_mut()[mac_at..mac_at + 4].copy_from_slice(&mac);
    }

    /// Verifies and deciphers an incoming protected NAS message, into a
    /// recycled buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NfError::AuthenticationRejected`] on MAC failure or a
    /// replayed/regressed COUNT.
    pub fn unprotect<B: AsRef<[u8]>>(&mut self, pdu: &ProtectedNas<B>) -> Result<Body, NfError> {
        if pdu.count < self.rx_count {
            return Err(NfError::AuthenticationRejected(format!(
                "NAS COUNT replay: got {}, expected >= {}",
                pdu.count, self.rx_count
            )));
        }
        let expected = self.mac(pdu.count, !self.uplink, pdu.ciphertext.as_ref());
        if !shield5g_crypto::ct_eq(&expected, &pdu.mac) {
            return Err(NfError::AuthenticationRejected(
                "NAS integrity check failed".into(),
            ));
        }
        self.rx_count = pdu.count + 1;
        let mut plain = Body::from(pdu.ciphertext.as_ref());
        Aes128::from(&self.knas_enc)
            .ctr_apply(&Self::keystream_nonce(pdu.count, !self.uplink), &mut plain);
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (NasSecurityContext, NasSecurityContext) {
        let kamf = [0x42; 32];
        (
            NasSecurityContext::from_kamf(&kamf, true),
            NasSecurityContext::from_kamf(&kamf, false),
        )
    }

    #[test]
    fn protect_unprotect_round_trip_uplink() {
        let (mut ue, mut amf) = pair();
        let pdu = ue.protect(b"registration complete");
        assert_eq!(amf.unprotect(&pdu).unwrap(), b"registration complete");
    }

    #[test]
    fn protect_unprotect_round_trip_downlink() {
        let (mut ue, mut amf) = pair();
        let pdu = amf.protect(b"registration accept");
        assert_eq!(ue.unprotect(&pdu).unwrap(), b"registration accept");
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let (mut ue, _) = pair();
        let pdu = ue.protect(b"plaintext nas");
        assert_ne!(pdu.ciphertext, b"plaintext nas");
    }

    #[test]
    fn counts_advance_and_keystreams_differ() {
        let (mut ue, mut amf) = pair();
        let p1 = ue.protect(b"same");
        let p2 = ue.protect(b"same");
        assert_eq!(p1.count, 0);
        assert_eq!(p2.count, 1);
        assert_ne!(p1.ciphertext, p2.ciphertext);
        assert_eq!(amf.unprotect(&p1).unwrap(), b"same");
        assert_eq!(amf.unprotect(&p2).unwrap(), b"same");
    }

    #[test]
    fn replay_rejected() {
        let (mut ue, mut amf) = pair();
        let pdu = ue.protect(b"once");
        amf.unprotect(&pdu).unwrap();
        assert!(amf.unprotect(&pdu).is_err());
    }

    #[test]
    fn tampering_rejected() {
        let (mut ue, mut amf) = pair();
        let mut pdu = ue.protect(b"payload");
        pdu.ciphertext[0] ^= 1;
        assert!(amf.unprotect(&pdu).is_err());
    }

    #[test]
    fn direction_confusion_rejected() {
        // A reflected uplink PDU must not verify as downlink.
        let (mut ue1, _) = pair();
        let (mut ue2, _) = pair();
        let pdu = ue1.protect(b"reflect");
        assert!(ue2.unprotect(&pdu).is_err());
    }

    #[test]
    fn wrong_kamf_rejected() {
        let (mut ue, _) = pair();
        let mut wrong = NasSecurityContext::from_kamf(&[0x43; 32], false);
        let pdu = ue.protect(b"x");
        assert!(wrong.unprotect(&pdu).is_err());
    }

    #[test]
    fn wire_round_trip() {
        let (mut ue, _) = pair();
        let pdu = ue.protect(b"wire");
        let decoded = ProtectedNas::decode(&pdu.encode()).unwrap();
        assert_eq!(decoded, pdu);
    }

    #[test]
    fn debug_redacts_keys() {
        let (ue, _) = pair();
        assert!(format!("{ue:?}").contains("redacted"));
    }
}
