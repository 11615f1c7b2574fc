//! Key-derivation functions.
//!
//! * [`kdf_3gpp`] — the generic 3GPP KDF of TS 33.220 Annex B.2, used for
//!   every key in the 5G hierarchy (K_AUSF, K_SEAF, K_AMF, RES*, ...).
//!   Its key comes prepared ([`HmacKey`]), so a key with two outputs
//!   (CK‖IK: K_AUSF and RES*; K_AMF: both NAS keys) is keyed once.
//! * [`kdf_x963`] — the ANSI X9.63 KDF with SHA-256, used by the SUCI ECIES
//!   protection scheme Profile A (TS 33.501 Annex C.3.4.1) and the sim-TLS
//!   key schedule, both through [`derive_x963`].

use crate::hmac::HmacKey;
use crate::secret::SecretBytes;
use crate::sha256::Sha256;

/// The generic 3GPP key-derivation function (TS 33.220 B.2.0).
/// Public for its doctest.
///
/// Computes `HMAC-SHA-256(key, S)` where
/// `S = FC || P0 || L0 || P1 || L1 || ... || Pn || Ln`
/// and each `Li` is the 16-bit big-endian length of `Pi`.
///
/// # Panics
///
/// Panics if a parameter is longer than 65535 bytes — 3GPP parameters are
/// all tiny (RAND is 16 bytes, serving-network names tens of bytes), so a
/// longer input indicates a caller bug rather than a runtime condition.
///
/// ```rust
/// use shield5g_crypto::hmac::HmacKey;
/// use shield5g_crypto::kdf::kdf_3gpp;
/// let k = kdf_3gpp(&HmacKey::new(&[0u8; 32]), 0x6C, &[b"5G:mnc001.mcc001.3gppnetwork.org"]);
/// assert_eq!(k.len(), 32);
/// ```
#[must_use]
pub fn kdf_3gpp(key: &HmacKey, fc: u8, params: &[&[u8]]) -> [u8; 32] {
    let mut mac = key.start();
    mac.update(&[fc]);
    for p in params {
        assert!(
            p.len() <= u16::MAX as usize,
            "3GPP KDF parameter longer than 65535 bytes"
        );
        mac.update(p);
        mac.update(&(p.len() as u16).to_be_bytes());
    }
    mac.finalize()
}

/// ANSI X9.63 KDF with SHA-256 (SEC 1 §3.6.1).
///
/// Produces `N` bytes of key data from the ECDH shared secret `z` and
/// `shared_info` (the ephemeral public key for SUCI Profile A):
/// `K = SHA-256(z || counter_1 || info) || SHA-256(z || counter_2 || info) || ...`
/// with a 32-bit big-endian counter starting at 1. Its callers take a
/// fixed length (64 bytes for ECIES, 96 for the sim-TLS traffic keys), so
/// the key data is an array, not a heap buffer.
#[must_use]
pub fn kdf_x963<const N: usize>(z: &[u8], shared_info: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (counter, block) in (1u32..).zip(out.chunks_mut(32)) {
        let mut h = Sha256::new();
        h.update(z);
        h.update(&counter.to_be_bytes());
        h.update(shared_info);
        block.copy_from_slice(&h.finalize()[..block.len()]);
    }
    out
}

/// [`kdf_x963`] from a shared secret held as a secret, into key data held
/// as one ([`SecretBytes::part`] splits it into keys): neither the secret
/// nor the key data leaves a container.
#[must_use]
pub fn derive_x963<const N: usize, const Z: usize>(
    z: &SecretBytes<Z>,
    shared_info: &[u8],
) -> SecretBytes<N> {
    SecretBytes::new(kdf_x963(z.expose(), shared_info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn kdf_3gpp_s_string_layout() {
        // Manually build S and compare against kdf_3gpp.
        let key = [0x11u8; 32];
        let p0 = b"5G:mnc001.mcc001.3gppnetwork.org";
        let p1 = [0xde, 0xad, 0xbe, 0xef];
        let mut s = vec![0x6A];
        s.extend_from_slice(p0);
        s.extend_from_slice(&(p0.len() as u16).to_be_bytes());
        s.extend_from_slice(&p1);
        s.extend_from_slice(&(p1.len() as u16).to_be_bytes());
        let expected = crate::hmac::hmac_sha256(&key, &s);
        assert_eq!(kdf_3gpp(&HmacKey::new(&key), 0x6A, &[p0, &p1]), expected);
    }

    #[test]
    fn kdf_3gpp_no_params() {
        let key = [0u8; 32];
        assert_eq!(
            kdf_3gpp(&HmacKey::new(&key), 0x42, &[]),
            crate::hmac::hmac_sha256(&key, &[0x42])
        );
    }

    #[test]
    fn kdf_3gpp_empty_param_still_encodes_length() {
        let key = [0u8; 32];
        // FC || "" || 0x0000
        let expected = crate::hmac::hmac_sha256(&key, &[0x42, 0, 0]);
        assert_eq!(kdf_3gpp(&HmacKey::new(&key), 0x42, &[b""]), expected);
    }

    #[test]
    fn x963_lengths() {
        // Each length is the first bytes of the counter-block stream.
        fn check<const N: usize>() {
            let blocks: Vec<u8> = (1u32..=4)
                .flat_map(|counter| {
                    let mut h = Sha256::new();
                    h.update(b"z");
                    h.update(&counter.to_be_bytes());
                    h.update(b"info");
                    h.finalize()
                })
                .collect();
            let out = kdf_x963::<N>(b"z", b"info");
            assert_eq!(out.len(), N);
            assert_eq!(&out[..], &blocks[..N]);
        }
        check::<0>();
        check::<1>();
        check::<16>();
        check::<31>();
        check::<32>();
        check::<33>();
        check::<64>();
        check::<100>();
    }

    #[test]
    fn x963_prefix_property() {
        // A shorter output must be a prefix of a longer one.
        let long = kdf_x963::<96>(b"secret", b"si");
        let short = kdf_x963::<40>(b"secret", b"si");
        assert_eq!(&long[..40], &short[..]);
    }

    #[test]
    fn x963_first_block_structure() {
        // First block is SHA-256(z || 00000001 || info).
        let z = [9u8; 32];
        let info = b"ephemeral";
        let mut h = Sha256::new();
        h.update(&z);
        h.update(&1u32.to_be_bytes());
        h.update(info);
        assert_eq!(kdf_x963::<32>(&z, info), h.finalize());
    }

    #[test]
    fn x963_depends_on_shared_info() {
        assert_ne!(kdf_x963::<32>(b"z", b"a"), kdf_x963::<32>(b"z", b"b"));
    }

    #[test]
    fn kdf_3gpp_fc_separates_domains() {
        let key = HmacKey::new(&[1u8; 32]);
        assert_ne!(kdf_3gpp(&key, 0x6A, &[b"x"]), kdf_3gpp(&key, 0x6B, &[b"x"]));
    }

    #[test]
    fn kdf_3gpp_param_boundaries_matter() {
        // ["ab", "c"] and ["a", "bc"] must derive different keys because the
        // length fields delimit parameters.
        let key = HmacKey::new(&[1u8; 32]);
        assert_ne!(
            kdf_3gpp(&key, 0x10, &[b"ab", b"c"]),
            kdf_3gpp(&key, 0x10, &[b"a", b"bc"])
        );
    }

    #[test]
    fn known_answer_stability() {
        // Pinned output (HMAC-SHA-256 of the S string, computed outside
        // this crate) guards the S-string layout and the prepared key.
        let key = HmacKey::new(&[0u8; 32]);
        let snn: &[u8] = b"5G:mnc001.mcc001.3gppnetwork.org";
        assert_eq!(
            hex::encode(&kdf_3gpp(&key, 0x6C, &[snn])),
            "08d236c96081e173c0c898bf4a4adf3be51a7b332981b1b01031747be38fc2fd"
        );
        // The same key derives again, unchanged by the first use.
        assert_eq!(
            kdf_3gpp(&key, 0x6C, &[snn]),
            kdf_3gpp(&HmacKey::new(&[0u8; 32]), 0x6C, &[snn])
        );
    }

    #[test]
    fn derive_x963_is_kdf_x963_in_containers() {
        let z = SecretBytes::new([0x17; 32]);
        let kd: SecretBytes<96> = derive_x963(&z, b"transcript");
        assert_eq!(kd, kdf_x963::<96>(&[0x17; 32], b"transcript"));
        let whole = kdf_x963::<96>(&[0x17; 32], b"transcript");
        assert_eq!(kd.part::<32, 32>().expose(), &whole[32..64]);
        assert_eq!(kd.part::<80, 16>().expose(), &whole[80..]);
    }
}
