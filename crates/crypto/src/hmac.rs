//! HMAC-SHA-256 (RFC 2104), validated against the RFC 4231 test vectors.
//!
//! HMAC-SHA-256 *is* the 3GPP generic KDF core (TS 33.220 Annex B), protects
//! sim-TLS records and NAS messages, and provides the SUCI Profile A MAC tag.
//!
//! A key is keyed once: [`HmacKey`] holds the chaining states after the
//! `key ⊕ ipad` and `key ⊕ opad` blocks, and each MAC under it resumes
//! from them, two compressions fewer than keying afresh. Every key that
//! outlives one MAC is held as an `HmacKey`; [`hmac_sha256`] keys once.
//!
//! ```rust
//! use shield5g_crypto::hmac::{hmac_sha256, HmacKey};
//! let mut mac = HmacKey::new(b"key").start();
//! mac.update(b"message");
//! assert_eq!(mac.finalize(), hmac_sha256(b"key", b"message"));
//! ```

use crate::secret::{SecretBytes, Zeroize};
use crate::sha256::Sha256;

/// SHA-256 block size in bytes.
const BLOCK: usize = 64;

/// Computes `HMAC-SHA-256(key, data)`.
#[must_use]
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut hmac = HmacSha256::new(key);
    hmac.update(data);
    hmac.finalize()
}

/// An HMAC-SHA-256 key prepared once: the chaining states after the two
/// pad blocks, redacted in `Debug` and zeroized on drop.
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl core::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

impl Drop for HmacKey {
    fn drop(&mut self) {
        self.inner.zeroize();
        self.outer.zeroize();
    }
}

impl HmacKey {
    /// Prepares `key` (any length; keys longer than one block are hashed
    /// first, per RFC 2104).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        key_block.iter_mut().for_each(|b| *b ^= 0x36);
        let inner = Sha256::block_state(&key_block);
        // ipad → opad in place.
        key_block.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        let outer = Sha256::block_state(&key_block);
        key_block.zeroize();
        HmacKey { inner, outer }
    }

    /// Starts one MAC under this key.
    #[must_use]
    pub fn start(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::resume(self.inner),
            key: self.clone(),
        }
    }
}

/// A key held as a secret (K_SEAF, K_AMF, a NAS integrity key), prepared
/// with no copy of its bytes outside the container.
impl<const N: usize> From<&SecretBytes<N>> for HmacKey {
    fn from(key: &SecretBytes<N>) -> Self {
        HmacKey::new(key.expose())
    }
}

/// Incremental HMAC-SHA-256.
///
/// The keyed inner hash state is secret material: `Debug` is redacted,
/// and the prepared key it finishes under zeroizes on drop.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    key: HmacKey,
}

impl core::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HmacSha256")
            .field("key", &"<redacted>")
            .finish()
    }
}

impl HmacSha256 {
    /// Creates an HMAC context keyed with `key`, prepared for this one MAC
    /// (`HmacKey::new(key).start()`).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).start()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::resume(self.key.outer);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn rfc4231_case_1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaa; 131];
        let data = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = hmac_sha256(&key, data);
        assert_eq!(
            hex::encode(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let key = b"some key";
        let data = b"split message body";
        let mut h = HmacSha256::new(key);
        h.update(&data[..5]);
        h.update(&data[5..]);
        assert_eq!(h.finalize(), hmac_sha256(key, data));
    }

    #[test]
    fn distinct_keys_give_distinct_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn debug_is_redacted() {
        let key = HmacKey::new(b"secret");
        assert_eq!(format!("{key:?}"), "HmacKey(<redacted>)");
        assert!(format!("{:?}", key.start()).contains("redacted"));
    }

    #[test]
    fn a_prepared_key_saves_two_compressions_per_mac() {
        use crate::sha256::tests::compressions;
        let msg = [0x5a; 100];
        for key_len in [0, 16, 32, 64] {
            let key = vec![0x0b; key_len];
            let (fresh, fresh_cost) = compressions(|| hmac_sha256(&key, &msg));
            let prepared = HmacKey::new(&key);
            let (tag, cost) = compressions(|| {
                let mut mac = prepared.start();
                mac.update(&msg);
                mac.finalize()
            });
            assert_eq!(tag, fresh);
            assert_eq!(cost + 2, fresh_cost, "{key_len}-byte key");
        }
    }

    /// RFC 2104 written out: `H(K' ⊕ opad ‖ H(K' ⊕ ipad ‖ m))`.
    fn rfc2104(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&k.map(|b| b ^ 0x36));
        inner.update(msg);
        let mut outer = Sha256::new();
        outer.update(&k.map(|b| b ^ 0x5c));
        outer.update(&inner.finalize());
        outer.finalize()
    }

    proptest::proptest! {
        #[test]
        fn key_exactly_block_size_is_used_raw(key in proptest::collection::vec(0u8.., 64..=64), msg in proptest::collection::vec(0u8.., 0..100)) {
            // A 64-byte key must not be hashed first.
            proptest::prop_assert_eq!(rfc2104(&key, &msg), hmac_sha256(&key, &msg));
        }

        #[test]
        fn a_prepared_key_is_rfc2104(
            key_len in 0usize..=200,
            key_byte in 0u8..,
            msgs in proptest::collection::vec(proptest::collection::vec(0u8.., 0..300), 1..4),
            split in 0usize..300,
        ) {
            // The drawn length, and every length around the block size.
            for key_len in [key_len, 63, 64, 65] {
                let key: Vec<u8> = (0..key_len).map(|i| key_byte.wrapping_add(i as u8)).collect();
                let prepared = HmacKey::new(&key);
                // Interleaved MACs under one key: every one starts from the
                // prepared states, none disturbs another.
                let mut macs: Vec<HmacSha256> = msgs.iter().map(|_| prepared.start()).collect();
                for (mac, msg) in macs.iter_mut().zip(&msgs) {
                    mac.update(&msg[..split.min(msg.len())]);
                }
                for (mac, msg) in macs.iter_mut().zip(&msgs).rev() {
                    mac.update(&msg[split.min(msg.len())..]);
                }
                for (mac, msg) in macs.into_iter().zip(&msgs) {
                    let expected = rfc2104(&key, msg);
                    proptest::prop_assert_eq!(mac.finalize(), expected);
                    proptest::prop_assert_eq!(hmac_sha256(&key, msg), expected);
                }
            }
        }
    }
}
