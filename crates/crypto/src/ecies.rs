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
//!
//! Both of the UE's multiplications are by a fixed point (the base point,
//! the home network's key) and use the comb of [`crate::x25519`]; the UDM
//! multiplies a fresh ephemeral point and keeps the ladder.

use crate::aes::Aes128;
use crate::hmac::hmac_sha256;
use crate::kdf::kdf_x963;
use crate::secret::{Secret, SecretBytes};
use crate::x25519::{x25519, x25519_base, CombTable};
use crate::{ct_eq, CryptoError};
use alloc::rc::Rc;
use alloc::vec::Vec;

/// Length of the truncated MAC tag (64 bits, per Profile A).
pub const MAC_LEN: usize = 8;

/// Key data layout produced by the X9.63 KDF: AES key, ICB, MAC key.
const KEY_DATA_LEN: usize = 16 + 16 + 32;

/// A Profile A ciphertext: what travels inside the SUCI `scheme output`.
#[derive(Clone, Debug, PartialEq, Eq)]
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

/// What the X9.63 KDF expands a shared secret into, wiped on drop.
struct KeyData {
    aes_key: SecretBytes<16>,
    icb: SecretBytes<16>,
    mac_key: SecretBytes<32>,
}

impl KeyData {
    fn derive(shared: &SecretBytes<32>, ephemeral_public: &[u8; 32]) -> KeyData {
        fn part<const N: usize>(bytes: &[u8]) -> SecretBytes<N> {
            let mut out = [0u8; N];
            out.copy_from_slice(bytes);
            SecretBytes::new(out)
        }
        let kd = Secret::new(kdf_x963::<KEY_DATA_LEN>(shared.expose(), ephemeral_public));
        let kd = kd.expose();
        KeyData {
            aes_key: part(&kd[..16]),
            icb: part(&kd[16..32]),
            mac_key: part(&kd[32..]),
        }
    }

    /// The 64-bit Profile A tag over `ciphertext`.
    fn tag(&self, ciphertext: &[u8]) -> [u8; MAC_LEN] {
        let mut mac = [0u8; MAC_LEN];
        mac.copy_from_slice(&hmac_sha256(self.mac_key.expose(), ciphertext)[..MAC_LEN]);
        mac
    }

    /// AES-128-CTR over `data`, either direction.
    fn apply_keystream(&self, data: &mut [u8]) {
        Aes128::new(self.aes_key.expose()).ctr_apply(self.icb.expose(), data);
    }
}

/// A home network's ECIES public key as a USIM holds it.
///
/// The UE multiplies this one point on every registration, so the key
/// carries its comb table: built once, when the key is derived or
/// provisioned, and shared by every clone of the handle — hand a USIM a
/// clone, not the bytes. A `u` on the twist has no table (the Edwards form
/// has no such point) and is multiplied by the ladder; which of the two a
/// key gets is a property of its public bytes, fixed at construction.
#[derive(Clone)]
pub struct HomeNetworkPublicKey {
    bytes: [u8; 32],
    table: Option<Rc<CombTable>>,
}

impl core::fmt::Debug for HomeNetworkPublicKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let hex = crate::hex::encode(&self.bytes);
        write!(f, "HomeNetworkPublicKey({hex})")
    }
}

impl HomeNetworkPublicKey {
    /// Takes a provisioned key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::LowOrderPoint`] for a `u` of low order (the
    /// RFC 7748 §6.1 values, in any encoding): every SUPI concealed under
    /// it would use the all-zero shared secret anyone can derive.
    pub fn from_bytes(bytes: [u8; 32]) -> Result<Self, CryptoError> {
        // The clamped zero scalar is 2^254, which annihilates exactly the
        // points whose order divides 8.
        if ct_eq(&x25519(&[0; 32], &bytes), &[0; 32]) {
            return Err(CryptoError::LowOrderPoint);
        }
        Ok(Self::with_table(bytes))
    }

    fn with_table(bytes: [u8; 32]) -> Self {
        let (table, on_curve) = CombTable::new(&bytes);
        HomeNetworkPublicKey {
            bytes,
            table: on_curve.then(|| Rc::new(table)),
        }
    }

    /// The 32 bytes of the key.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// Whether `self` and `other` are handles on one table (clones of one
    /// key), not merely equal keys.
    #[must_use]
    pub fn shares_table_with(&self, other: &HomeNetworkPublicKey) -> bool {
        match (&self.table, &other.table) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// `x25519(scalar, self)`.
    fn agree(&self, scalar: &[u8; 32]) -> SecretBytes<32> {
        SecretBytes::new(match &self.table {
            Some(table) => table.mul(scalar),
            None => x25519(scalar, &self.bytes),
        })
    }
}

/// Conceals `plaintext` for the home network owning `hn_public`.
///
/// `ephemeral_private` must be fresh random bytes for every invocation; the
/// caller (the USIM model) owns entropy so that the simulation stays
/// deterministic under a seeded RNG.
#[must_use]
pub fn conceal(
    plaintext: &[u8],
    hn_public: &HomeNetworkPublicKey,
    ephemeral_private: &[u8; 32],
) -> EciesCiphertext {
    let ephemeral_public = x25519_base(ephemeral_private);
    let keys = KeyData::derive(&hn_public.agree(ephemeral_private), &ephemeral_public);
    let mut ciphertext = plaintext.to_vec();
    keys.apply_keystream(&mut ciphertext);
    let mac = keys.tag(&ciphertext);
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
    public: HomeNetworkPublicKey,
}

impl core::fmt::Debug for HomeNetworkKeyPair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HomeNetworkKeyPair")
            .field("id", &self.id)
            .field("public", &self.public)
            .field("private", &"<redacted>")
            .finish()
    }
}

impl HomeNetworkKeyPair {
    /// Builds a key pair from a private scalar, deriving the public key.
    #[must_use]
    pub fn from_private(id: u8, private: [u8; 32]) -> Self {
        // A clamped multiple of the base point is never of low order.
        let public = HomeNetworkPublicKey::with_table(x25519_base(&private));
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
    pub fn public(&self) -> &HomeNetworkPublicKey {
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
        let shared = SecretBytes::new(x25519(self.private.expose(), &ct.ephemeral_public));
        if shared == [0u8; 32] {
            return Err(CryptoError::LowOrderPoint);
        }
        let keys = KeyData::derive(&shared, &ct.ephemeral_public);
        if !ct_eq(&keys.tag(&ct.ciphertext), &ct.mac) {
            return Err(CryptoError::MacMismatch);
        }
        let mut plaintext = ct.ciphertext.clone();
        keys.apply_keystream(&mut plaintext);
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
            let keys = KeyData::derive(&SecretBytes::new([0; 32]), &ephemeral_public);
            let mut ciphertext = b"0000000001".to_vec();
            keys.apply_keystream(&mut ciphertext);
            let mac = keys.tag(&ciphertext);
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
    fn low_order_home_network_keys_are_refused() {
        // The UE-side mirror of the check above: a USIM can never hold a
        // key under which every shared secret is zero.
        use crate::x25519::tests::{plus, LOW_ORDER_POINTS, P_BYTES};
        for point in LOW_ORDER_POINTS {
            let mut bytes = crate::hex::decode_array::<32>(point).unwrap();
            assert_eq!(
                HomeNetworkPublicKey::from_bytes(bytes).unwrap_err(),
                CryptoError::LowOrderPoint
            );
            bytes[31] ^= 0x80;
            assert_eq!(
                HomeNetworkPublicKey::from_bytes(bytes).unwrap_err(),
                CryptoError::LowOrderPoint
            );
        }
        // p + 2 is the twist generator 2 again: not of low order.
        assert!(HomeNetworkPublicKey::from_bytes(plus(P_BYTES, 2)).is_ok());
        let derived = *hn().public().as_bytes();
        assert!(HomeNetworkPublicKey::from_bytes(derived).is_ok());
    }

    #[test]
    fn twist_key_conceals_through_the_ladder() {
        // u = 2 generates the twist: no Edwards image, so no table, and the
        // SUCI is what the ladder alone produces.
        let mut u = [0u8; 32];
        u[0] = 2;
        let key = HomeNetworkPublicKey::from_bytes(u).unwrap();
        assert!(key.table.is_none());
        assert!(hn().public().table.is_some());
        let eph = [0x99; 32];
        let ct = conceal(b"0000000001", &key, &eph);
        assert_eq!(ct.ephemeral_public, x25519_base(&eph));
        let shared = SecretBytes::new(x25519(&eph, &u));
        let keys = KeyData::derive(&shared, &ct.ephemeral_public);
        assert_eq!(keys.tag(&ct.ciphertext), ct.mac);
        let mut plaintext = ct.ciphertext.clone();
        keys.apply_keystream(&mut plaintext);
        assert_eq!(plaintext, b"0000000001");
    }

    #[test]
    fn clones_share_one_table() {
        let hn = hn();
        let usim_copy = hn.public().clone();
        assert!(usim_copy.shares_table_with(hn.public()));
        assert!(hn.clone().public().shares_table_with(hn.public()));
        // Equal bytes, separately provisioned: a second table.
        let again = HomeNetworkPublicKey::from_bytes(*hn.public().as_bytes()).unwrap();
        assert!(!again.shares_table_with(hn.public()));
        assert!(format!("{usim_copy:?}").contains(&crate::hex::encode(usim_copy.as_bytes())));
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

    #[test]
    fn arbitrary_keys_take_both_paths_and_agree_with_the_ladder() {
        // About half of all u are on the curve (table), half on the twist
        // (ladder); either way the shared secret is x25519's.
        let (mut tabled, mut laddered) = (0, 0);
        for i in 0..32u8 {
            let u = crate::sha256::Sha256::digest(&[i]);
            let k = crate::sha256::Sha256::digest(&[i, i]);
            let key = HomeNetworkPublicKey::with_table(u);
            tabled += usize::from(key.table.is_some());
            laddered += usize::from(key.table.is_none());
            assert_eq!(key.agree(&k), x25519(&k, &u));
        }
        assert!(tabled >= 8 && laddered >= 8, "{tabled} {laddered}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn fixed_point_agreement_is_x25519(
            k in proptest::array::uniform32(0u8..),
            private in proptest::array::uniform32(0u8..),
            arbitrary in proptest::array::uniform32(0u8..),
            edge in 0usize..9,
        ) {
            let derived = x25519_base(&private);
            let mut high = derived;
            high[31] |= 0x80;
            for u in [derived, high, arbitrary, crate::x25519::tests::boundary()[edge]] {
                let key = HomeNetworkPublicKey::with_table(u);
                proptest::prop_assert_eq!(key.agree(&k), x25519(&k, &u));
            }
        }
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
