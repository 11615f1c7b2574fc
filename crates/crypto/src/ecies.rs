//! SUCI ECIES protection scheme Profile A (TS 33.501 Annex C.3.4.1).
//!
//! Profile A conceals the subscriber's MSIN with:
//!
//! 1. an ephemeral X25519 key agreement against the home network's public
//!    key,
//! 2. ANSI X9.63 key expansion of the shared secret (shared info = the
//!    ephemeral public key) into an AES-128 key, an initial counter block
//!    and a MAC key,
//! 3. AES-128-CTR encryption of the plaintext, and
//! 4. an HMAC-SHA-256 tag truncated to 64 bits over the ciphertext.
//!
//! The UE runs [`conceal`]; the UDM/SIDF inside the home network runs
//! [`HomeNetworkKeyPair::deconceal`]. In the paper's deployment the
//! de-concealment happens in the UDM before the AV request reaches the
//! eUDM P-AKA enclave.

use crate::aes::Aes128;
use crate::hmac::hmac_sha256;
use crate::kdf::kdf_x963;
use crate::secret::SecretBytes;
use crate::x25519::{x25519, x25519_base};
use crate::{ct_eq, CryptoError};

/// Length of the truncated MAC tag (64 bits, per Profile A).
pub const MAC_LEN: usize = 8;

/// Key data layout produced by the X9.63 KDF: AES key, ICB, MAC key.
const KEY_DATA_LEN: usize = 16 + 16 + 32;

/// A Profile A ciphertext: what travels inside the SUCI `scheme output`.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EciesCiphertext {
    /// The UE's ephemeral X25519 public key.
    pub ephemeral_public: [u8; 32],
    /// AES-128-CTR encrypted plaintext (the BCD-packed MSIN for SUCI).
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA-256 tag truncated to [`MAC_LEN`] bytes.
    pub mac: [u8; MAC_LEN],
}

impl EciesCiphertext {
    /// Serialises to the flat `scheme output` byte layout:
    /// `ephemeral_public || ciphertext || mac`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.ciphertext.len() + MAC_LEN);
        out.extend_from_slice(&self.ephemeral_public);
        out.extend_from_slice(&self.ciphertext);
        out.extend_from_slice(&self.mac);
        out
    }

    /// Parses the flat `scheme output` layout.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] when `bytes` is too short to
    /// contain an ephemeral key and a MAC tag.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() < 32 + MAC_LEN {
            return Err(CryptoError::InvalidLength {
                what: "ECIES scheme output",
                expected: 32 + MAC_LEN,
                actual: bytes.len(),
            });
        }
        let mut ephemeral_public = [0u8; 32];
        ephemeral_public.copy_from_slice(&bytes[..32]);
        let mac_start = bytes.len() - MAC_LEN;
        let mut mac = [0u8; MAC_LEN];
        mac.copy_from_slice(&bytes[mac_start..]);
        Ok(EciesCiphertext {
            ephemeral_public,
            ciphertext: bytes[32..mac_start].to_vec(),
            mac,
        })
    }
}

/// Derives (AES key, ICB, MAC key) from an X25519 shared secret.
fn derive_key_data(
    shared: &[u8; 32],
    ephemeral_public: &[u8; 32],
) -> ([u8; 16], [u8; 16], [u8; 32]) {
    let kd = kdf_x963(shared, ephemeral_public, KEY_DATA_LEN);
    let mut aes_key = [0u8; 16];
    let mut icb = [0u8; 16];
    let mut mac_key = [0u8; 32];
    aes_key.copy_from_slice(&kd[..16]);
    icb.copy_from_slice(&kd[16..32]);
    mac_key.copy_from_slice(&kd[32..]);
    (aes_key, icb, mac_key)
}

/// Conceals `plaintext` for the home network owning `hn_public`.
///
/// `ephemeral_private` must be fresh random bytes for every invocation; the
/// caller (the USIM model) owns entropy so that the simulation stays
/// deterministic under a seeded RNG.
#[must_use]
pub fn conceal(
    plaintext: &[u8],
    hn_public: &[u8; 32],
    ephemeral_private: &[u8; 32],
) -> EciesCiphertext {
    let ephemeral_public = x25519_base(ephemeral_private);
    let shared = x25519(ephemeral_private, hn_public);
    let (aes_key, icb, mac_key) = derive_key_data(&shared, &ephemeral_public);
    let mut ciphertext = plaintext.to_vec();
    Aes128::new(&aes_key).ctr_apply(&icb, &mut ciphertext);
    let tag = hmac_sha256(&mac_key, &ciphertext);
    let mut mac = [0u8; MAC_LEN];
    mac.copy_from_slice(&tag[..MAC_LEN]);
    EciesCiphertext {
        ephemeral_public,
        ciphertext,
        mac,
    }
}

/// A home-network ECIES key pair, identified by the 8-bit key identifier
/// that the UE places in the SUCI.
#[derive(Clone)]
pub struct HomeNetworkKeyPair {
    id: u8,
    private: SecretBytes<32>,
    public: [u8; 32],
}

impl std::fmt::Debug for HomeNetworkKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomeNetworkKeyPair")
            .field("id", &self.id)
            .field("public", &crate::hex::encode(&self.public))
            .field("private", &"<redacted>")
            .finish()
    }
}

impl HomeNetworkKeyPair {
    /// Builds a key pair from a private scalar, deriving the public key.
    #[must_use]
    pub fn from_private(id: u8, private: [u8; 32]) -> Self {
        let public = x25519_base(&private);
        HomeNetworkKeyPair {
            id,
            private: SecretBytes::new(private),
            public,
        }
    }

    /// The key identifier the UE references in its SUCI.
    #[must_use]
    pub fn id(&self) -> u8 {
        self.id
    }

    /// The public key provisioned onto USIMs.
    #[must_use]
    pub fn public(&self) -> &[u8; 32] {
        &self.public
    }

    /// De-conceals a Profile A ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MacMismatch`] when the tag does not verify
    /// (wrong key, corrupted ciphertext, or a tampered ephemeral key), and
    /// [`CryptoError::LowOrderPoint`] when the ephemeral key is a low-order
    /// point: the shared secret would be all zeros whatever our private
    /// key, so anyone could compute a tag that verifies.
    pub fn deconceal(&self, ct: &EciesCiphertext) -> Result<Vec<u8>, CryptoError> {
        let shared = x25519(self.private.expose(), &ct.ephemeral_public);
        if ct_eq(&shared, &[0u8; 32]) {
            return Err(CryptoError::LowOrderPoint);
        }
        let (aes_key, icb, mac_key) = derive_key_data(&shared, &ct.ephemeral_public);
        let tag = hmac_sha256(&mac_key, &ct.ciphertext);
        if !ct_eq(&tag[..MAC_LEN], &ct.mac) {
            return Err(CryptoError::MacMismatch);
        }
        let mut plaintext = ct.ciphertext.clone();
        Aes128::new(&aes_key).ctr_apply(&icb, &mut plaintext);
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hn() -> HomeNetworkKeyPair {
        HomeNetworkKeyPair::from_private(1, [0x42; 32])
    }

    #[test]
    fn conceal_deconceal_round_trip() {
        let hn = hn();
        let msin = b"0000000001";
        let ct = conceal(msin, hn.public(), &[0x99; 32]);
        assert_eq!(hn.deconceal(&ct).unwrap(), msin);
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let hn = hn();
        let msin = b"0000000001";
        let ct = conceal(msin, hn.public(), &[0x99; 32]);
        assert_ne!(&ct.ciphertext[..], &msin[..]);
    }

    #[test]
    fn distinct_ephemerals_randomise_ciphertext() {
        let hn = hn();
        let ct1 = conceal(b"0000000001", hn.public(), &[0x01; 32]);
        let ct2 = conceal(b"0000000001", hn.public(), &[0x02; 32]);
        assert_ne!(ct1.ciphertext, ct2.ciphertext);
        assert_ne!(ct1.ephemeral_public, ct2.ephemeral_public);
    }

    #[test]
    fn tampered_ciphertext_fails_mac() {
        let hn = hn();
        let mut ct = conceal(b"0000000001", hn.public(), &[0x99; 32]);
        ct.ciphertext[0] ^= 1;
        assert_eq!(hn.deconceal(&ct), Err(CryptoError::MacMismatch));
    }

    #[test]
    fn tampered_ephemeral_key_fails_mac() {
        let hn = hn();
        let mut ct = conceal(b"0000000001", hn.public(), &[0x99; 32]);
        ct.ephemeral_public[5] ^= 0x10;
        assert_eq!(hn.deconceal(&ct), Err(CryptoError::MacMismatch));
    }

    #[test]
    fn wrong_home_key_fails_mac() {
        let hn = hn();
        let other = HomeNetworkKeyPair::from_private(2, [0x43; 32]);
        let ct = conceal(b"0000000001", hn.public(), &[0x99; 32]);
        assert_eq!(other.deconceal(&ct), Err(CryptoError::MacMismatch));
    }

    #[test]
    fn low_order_ephemeral_key_is_rejected() {
        // The shared secret of a low-order point is all zeros, so the
        // forger below needs nothing of the home network's to make the
        // tag verify.
        let hn = hn();
        for point in crate::x25519::tests::LOW_ORDER_POINTS {
            let ephemeral_public = crate::hex::decode_array::<32>(point).unwrap();
            let (aes_key, icb, mac_key) = derive_key_data(&[0; 32], &ephemeral_public);
            let mut ciphertext = b"0000000001".to_vec();
            Aes128::new(&aes_key).ctr_apply(&icb, &mut ciphertext);
            let mut mac = [0u8; MAC_LEN];
            mac.copy_from_slice(&hmac_sha256(&mac_key, &ciphertext)[..MAC_LEN]);
            let forged = EciesCiphertext {
                ephemeral_public,
                ciphertext,
                mac,
            };
            assert_eq!(hn.deconceal(&forged), Err(CryptoError::LowOrderPoint));
            let honest = conceal(b"0000000001", hn.public(), &[0x99; 32]);
            assert_eq!(hn.deconceal(&honest).unwrap(), b"0000000001");
        }
    }

    #[test]
    fn byte_layout_round_trip() {
        let hn = hn();
        let ct = conceal(b"314159265358", hn.public(), &[0x77; 32]);
        let bytes = ct.to_bytes();
        assert_eq!(bytes.len(), 32 + 12 + MAC_LEN);
        let parsed = EciesCiphertext::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, ct);
        assert_eq!(hn.deconceal(&parsed).unwrap(), b"314159265358");
    }

    #[test]
    fn from_bytes_rejects_short_input() {
        assert!(matches!(
            EciesCiphertext::from_bytes(&[0u8; 10]),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn empty_plaintext_round_trips() {
        let hn = hn();
        let ct = conceal(b"", hn.public(), &[0x99; 32]);
        assert!(ct.ciphertext.is_empty());
        assert_eq!(hn.deconceal(&ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn debug_redacts_private_key() {
        let s = format!("{:?}", hn());
        assert!(s.contains("redacted"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        #[test]
        fn round_trip_arbitrary_plaintext(pt in proptest::collection::vec(0u8.., 0..64), eph in proptest::array::uniform32(1u8..)) {
            let hn = hn();
            let ct = conceal(&pt, hn.public(), &eph);
            proptest::prop_assert_eq!(hn.deconceal(&ct).unwrap(), pt);
        }
    }
}
