//! Poly1305 (Bernstein 2005; RFC 8439 §2.5) in its Carter–Wegman form:
//! `tag = (Poly1305_r(message) + pad) mod 2^128`, with the pad supplied by
//! the caller.
//!
//! The HMEE simulator authenticates every EPC page with Poly1305-AES —
//! `pad = AES_k(page version)` — for the reason the hardware's Memory
//! Encryption Engine pairs AES-CTR with a Carter–Wegman MAC: a polynomial
//! over the ciphertext costs a fraction of a hash. The tag is only as
//! good as the pad is fresh: one `r` must never meet the same pad input
//! twice. RFC 8439's one-time form is `Poly1305::new(&key[..16])` with
//! `pad = key[16..]`.
//!
//! ```rust
//! use shield5g_crypto::poly1305::Poly1305;
//! let mac = Poly1305::new(&[0x42; 16]);
//! assert_ne!(mac.tag(b"page", &[7; 16]), mac.tag(b"pagf", &[7; 16]));
//! ```
//!
//! # Arithmetic
//!
//! A value modulo `p = 2^130 - 5` is three `u64` limbs in radix `2^44`:
//! `l0 + l1·2^44 + l2·2^88`, the top limb 42 bits wide. A product that
//! lands on `2^132` or `2^176` folds back through `2^130 ≡ 5`, i.e. ×20 one
//! or two limbs down; `20·r1` and `20·r2` are computed once per key. Each
//! block costs nine `u128` products and one carry chain.
//!
//! | value | limb bounds |
//! |---|---|
//! | `r` (clamped, `< 2^124`) | `r0, r1 < 2^44`, `r2 < 2^36`, `20·r1 < 2^49`, `20·r2 < 2^41` |
//! | accumulator between blocks | `h0 < 2^44`, `h1 < 2^45`, `h2 < 2^42` |
//! | accumulator + block | `< 2^45`, `< 2^46`, `< 2^43` |
//! | column sums of `step` | `< 2^94`; the wrap `5·(d2 >> 42) < 2^52` |
//!
//! The accumulator's value stays below `2p`, so `finish` takes off `p` at
//! most once.
//!
//! # Constant time
//!
//! `r`, the accumulator and the pad are secret-derived. Outside
//! `cfg(test)` this file contains no `if`, `while`, `match`, `&&`, `||`
//! or `?`: the loops run over the message *length*, which is public, and
//! the final subtraction of `p` is an arithmetic select. The workspace
//! linter enforces it (rule `CT001`).

use crate::secret::Secret;

const M44: u64 = (1 << 44) - 1;
const M42: u64 = (1 << 42) - 1;

/// RFC 8439 §2.5: the top four bits of bytes 3, 7, 11, 15 and the bottom
/// two of bytes 4, 8, 12 of `r` are cleared.
const CLAMP: u128 = 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff;

/// The full 64 × 64 → 128-bit product.
fn m(x: u64, y: u64) -> u128 {
    u128::from(x) * u128::from(y)
}

/// A Poly1305 evaluation key: `r`, clamped and split into limbs once.
///
/// Key material: `Debug` is redacted and the limbs are wiped on drop.
#[derive(Debug)]
pub struct Poly1305 {
    /// `r0, r1, r2, 20·r1, 20·r2`.
    pub(crate) r: Secret<[u64; 5]>,
}

impl Poly1305 {
    /// Clamps `r` (little-endian, RFC 8439 §2.5) and expands it.
    #[must_use]
    pub fn new(r: &[u8; 16]) -> Self {
        let r = u128::from_le_bytes(*r) & CLAMP;
        let (r1, r2) = ((r >> 44) as u64 & M44, (r >> 88) as u64);
        Poly1305 {
            r: Secret::new([r as u64 & M44, r1, r2, 20 * r1, 20 * r2]),
        }
    }

    /// `(Poly1305_r(message) + pad) mod 2^128`, both little-endian. Each
    /// 16-byte block is read with a `1` bit appended; a short last block
    /// gets its `0x01` byte and zero padding instead.
    #[must_use]
    pub fn tag(&self, message: &[u8], pad: &[u8; 16]) -> [u8; 16] {
        let r = self.r.expose();
        let mut h = [0u64; 3];
        let mut block = [0u8; 16];
        let blocks = message.chunks_exact(16);
        let tail = blocks.remainder();
        for full in blocks {
            block.copy_from_slice(full);
            h = step(r, h, u128::from_le_bytes(block), 1 << 40);
        }
        // Zero or one short block.
        for short in tail.chunks(16) {
            block = [0; 16];
            block[..short.len()].copy_from_slice(short);
            block[short.len()] = 1;
            h = step(r, h, u128::from_le_bytes(block), 0);
        }
        finish(h, u128::from_le_bytes(*pad)).to_le_bytes()
    }
}

/// `(h + block + hibit·2^88) · r`, carried back to the between-blocks
/// bounds of the module docs.
fn step(r: &[u64; 5], h: [u64; 3], block: u128, hibit: u64) -> [u64; 3] {
    let [r0, r1, r2, s1, s2] = *r;
    let h0 = h[0] + (block as u64 & M44);
    let h1 = h[1] + ((block >> 44) as u64 & M44);
    let h2 = h[2] + ((block >> 88) as u64 | hibit);
    let d0 = m(h0, r0) + m(h1, s2) + m(h2, s1);
    let d1 = m(h0, r1) + m(h1, r0) + m(h2, s2) + (d0 >> 44);
    let d2 = m(h0, r2) + m(h1, r1) + m(h2, r0) + (d1 >> 44);
    let h0 = (d0 as u64 & M44) + (d2 >> 42) as u64 * 5;
    [h0 & M44, (d1 as u64 & M44) + (h0 >> 44), d2 as u64 & M42]
}

/// `((h mod p) + pad) mod 2^128` for an accumulator within the
/// between-blocks bounds.
fn finish(h: [u64; 3], pad: u128) -> u128 {
    // q = 1 exactly when h >= p: the carry out of bit 130 of h + 5.
    let q = (h[0] + 5) >> 44;
    let q = (h[1] + q) >> 44;
    let q = (h[2] + q) >> 42;
    // h - q·p = h + 5q - q·2^130, and 2^130 vanishes modulo 2^128 (so do
    // the bits the top limb's shift pushes out).
    (u128::from(h[0]) + (u128::from(h[1]) << 44))
        .wrapping_add(u128::from(h[2]) << 88)
        .wrapping_add(u128::from(5 * q))
        .wrapping_add(pad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// A deliberately slow reference that shares nothing with the code
    /// above: schoolbook arithmetic on little-endian `u32` limbs,
    /// `h = ((h + block) · r) mod p` block by block.
    mod reference {
        pub(crate) type Big = Vec<u32>;

        pub(crate) fn from_le(bytes: &[u8]) -> Big {
            bytes
                .chunks(4)
                .map(|c| {
                    c.iter()
                        .rev()
                        .fold(0u32, |word, &b| (word << 8) | u32::from(b))
                })
                .collect()
        }

        pub(crate) fn add(a: &[u32], b: &[u32]) -> Big {
            let mut out = Vec::new();
            let mut carry = 0u64;
            for i in 0..a.len().max(b.len()) {
                let sum = carry
                    + u64::from(a.get(i).copied().unwrap_or(0))
                    + u64::from(b.get(i).copied().unwrap_or(0));
                out.push(sum as u32);
                carry = sum >> 32;
            }
            out.push(carry as u32);
            out
        }

        pub(crate) fn mul(a: &[u32], b: &[u32]) -> Big {
            let mut out = vec![0u32; a.len() + b.len() + 1];
            for (i, &x) in a.iter().enumerate() {
                let mut carry = 0u64;
                for (j, &y) in b.iter().enumerate() {
                    let t = u64::from(out[i + j]) + u64::from(x) * u64::from(y) + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                let mut k = i + b.len();
                while carry != 0 {
                    let t = u64::from(out[k]) + carry;
                    out[k] = t as u32;
                    carry = t >> 32;
                    k += 1;
                }
            }
            out
        }

        /// `x << bits`.
        pub(crate) fn shl(x: &[u32], bits: usize) -> Big {
            let mut shift = vec![0u32; bits / 32 + 1];
            shift[bits / 32] = 1 << (bits % 32);
            mul(x, &shift)
        }

        /// `(x mod 2^130, x >> 130)`; 130 = 4·32 + 2.
        fn split130(x: &[u32]) -> (Big, Big) {
            let limb = |i: usize| x.get(i).copied().unwrap_or(0);
            let lo = vec![limb(0), limb(1), limb(2), limb(3), limb(4) & 3];
            let hi = (4..x.len())
                .map(|i| (limb(i) >> 2) | (limb(i + 1) << 30))
                .collect();
            (lo, hi)
        }

        /// `x mod (2^130 - 5)`.
        pub(crate) fn mod_p(x: &[u32]) -> Big {
            let mut x = x.to_vec();
            loop {
                let (lo, hi) = split130(&x);
                if hi.iter().all(|&l| l == 0) {
                    // lo < 2^130; it is >= p exactly when lo + 5 carries
                    // into bit 130, and then lo - p is what stays below.
                    let (wrapped, carried) = split130(&add(&lo, &[5]));
                    return if carried.iter().any(|&l| l != 0) {
                        wrapped
                    } else {
                        lo
                    };
                }
                x = add(&lo, &mul(&hi, &[5]));
            }
        }

        /// The low 128 bits, as 16 little-endian bytes.
        pub(crate) fn low128(x: &[u32]) -> [u8; 16] {
            let mut out = [0u8; 16];
            for (chunk, limb) in out.chunks_mut(4).zip(x) {
                chunk.copy_from_slice(&limb.to_le_bytes());
            }
            out
        }

        pub(crate) fn poly1305(r: &[u8; 16], message: &[u8], pad: &[u8; 16]) -> [u8; 16] {
            let mut r = *r;
            for i in [3, 7, 11, 15] {
                r[i] &= 15;
            }
            for i in [4, 8, 12] {
                r[i] &= 252;
            }
            let r = from_le(&r);
            let mut h = vec![0u32];
            for chunk in message.chunks(16) {
                let mut block = chunk.to_vec();
                block.push(1);
                h = mod_p(&mul(&add(&h, &from_le(&block)), &r));
            }
            low128(&add(&h, &from_le(pad)))
        }
    }

    fn tag(r: &[u8; 16], message: &[u8], pad: &[u8; 16]) -> [u8; 16] {
        Poly1305::new(r).tag(message, pad)
    }

    /// A fixed, uneven byte pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 167 + 13) as u8).collect()
    }

    /// The accumulator as one integer.
    fn big(h: [u64; 3]) -> reference::Big {
        let limb = |l: u64| reference::from_le(&l.to_le_bytes());
        reference::add(
            &reference::add(&limb(h[0]), &reference::shl(&limb(h[1]), 44)),
            &reference::shl(&limb(h[2]), 88),
        )
    }

    const BETWEEN_BLOCKS: [u64; 3] = [(1 << 44) - 1, (1 << 45) - 1, (1 << 42) - 1];

    fn within_bounds(h: [u64; 3]) -> bool {
        h.iter().zip(BETWEEN_BLOCKS).all(|(&limb, max)| limb <= max)
    }

    #[test]
    fn rfc8439_section_2_5_2() {
        let r = hex::decode_array::<16>("85d6be7857556d337f4452fe42d506a8").unwrap();
        let s = hex::decode_array::<16>("0103808afb0db2fd4abff6af4149f51b").unwrap();
        let message = b"Cryptographic Forum Research Group";
        assert_eq!(
            hex::encode(&tag(&r, message, &s)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
        assert_eq!(
            hex::encode(&reference::poly1305(&r, message, &s)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    #[test]
    fn rfc8439_appendix_a3_reduction_vectors() {
        // Vectors 5–11: partially reduced accumulators, p itself, carries
        // out of 2^128 and out of the limbs. (r, s, message, tag)
        let r2 = "02000000000000000000000000000000";
        let r1 = "01000000000000000000000000000000";
        let r10 = "01000000000000000400000000000000";
        let zero = "00000000000000000000000000000000";
        let ones = "ffffffffffffffffffffffffffffffff";
        let vectors = [
            (
                r2,
                zero,
                ones.to_owned(),
                "03000000000000000000000000000000",
            ),
            (r2, ones, r2.to_owned(), "03000000000000000000000000000000"),
            (
                r1,
                zero,
                [
                    ones,
                    "f0ffffffffffffffffffffffffffffff",
                    "11000000000000000000000000000000",
                ]
                .concat(),
                "05000000000000000000000000000000",
            ),
            (
                r1,
                zero,
                [
                    ones,
                    "fbfefefefefefefefefefefefefefefe",
                    "01010101010101010101010101010101",
                ]
                .concat(),
                zero,
            ),
            (
                r2,
                zero,
                "fdffffffffffffffffffffffffffffff".to_owned(),
                "faffffffffffffffffffffffffffffff",
            ),
            (
                r10,
                zero,
                [
                    "e33594d7505e43b90000000000000000",
                    "3394d7505e4379cd0100000000000000",
                    zero,
                    "01000000000000000000000000000000",
                ]
                .concat(),
                "14000000000000005500000000000000",
            ),
            (
                r10,
                zero,
                [
                    "e33594d7505e43b90000000000000000",
                    "3394d7505e4379cd0100000000000000",
                    zero,
                ]
                .concat(),
                "13000000000000000000000000000000",
            ),
        ];
        for (r, s, message, expected) in vectors {
            let r = hex::decode_array::<16>(r).unwrap();
            let s = hex::decode_array::<16>(s).unwrap();
            let message = hex::decode(&message).unwrap();
            assert_eq!(hex::encode(&tag(&r, &message, &s)), expected);
            assert_eq!(
                hex::encode(&reference::poly1305(&r, &message, &s)),
                expected
            );
        }
    }

    #[test]
    fn edge_lengths_match_the_reference() {
        let r = hex::decode_array::<16>("85d6be7857556d337f4452fe42d506a8").unwrap();
        let pad = [0x5a; 16];
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 255, 256, 4096] {
            let message = pattern(len);
            assert_eq!(
                tag(&r, &message, &pad),
                reference::poly1305(&r, &message, &pad),
                "length {len}"
            );
        }
        // Nothing to evaluate: the tag of the empty message is the pad.
        assert_eq!(tag(&r, b"", &pad), pad);
        // A short block's padding is not the same message as its zeros.
        assert_ne!(tag(&r, &[7], &pad), tag(&r, &[7, 0], &pad));
        assert_ne!(tag(&r, &[0; 15], &pad), tag(&r, &[0; 16], &pad));
    }

    #[test]
    fn extreme_keys_match_the_reference() {
        // Every clamped bit of r set and all-0xff blocks: the largest
        // products the carry chain sees, and an accumulator that ends
        // between p and 2^130 at some lengths.
        for len in [16, 32, 48, 4096, 4099] {
            let message = vec![0xff; len];
            for pad in [[0u8; 16], [0xff; 16]] {
                assert_eq!(
                    tag(&[0xff; 16], &message, &pad),
                    reference::poly1305(&[0xff; 16], &message, &pad),
                    "length {len}"
                );
            }
        }
        // r = 0 (and r with only clamped-away bits): the polynomial
        // vanishes, the tag is the pad.
        let mut clamped_away = [0u8; 16];
        for i in [3, 7, 11, 15] {
            clamped_away[i] = 0xf0;
        }
        for i in [4, 8, 12] {
            clamped_away[i] = 0x03;
        }
        for r in [[0u8; 16], clamped_away] {
            assert_eq!(tag(&r, &pattern(100), &[0xab; 16]), [0xab; 16]);
            assert_eq!(
                reference::poly1305(&r, &pattern(100), &[0xab; 16]),
                [0xab; 16]
            );
        }
        // s = all-0xff: the carry out of 2^128 is discarded. With r = 1
        // one block evaluates to itself plus 2^128, i.e. to 3 here.
        let mut one = [0u8; 16];
        one[0] = 1;
        let mut three = [0u8; 16];
        three[0] = 3;
        let mut two = [0u8; 16];
        two[0] = 2;
        assert_eq!(tag(&one, &three, &[0xff; 16]), two);
    }

    #[test]
    fn step_holds_its_bounds_at_the_documented_headroom() {
        // Largest accumulator, largest block, largest clamped r: a debug
        // build traps any u64/u128 overflow on the way.
        let mac = Poly1305::new(&[0xff; 16]);
        let r = mac.r.expose();
        assert!(r[0] < 1 << 44 && r[1] < 1 << 44 && r[2] < 1 << 36);
        assert!(r[3] < 1 << 49 && r[4] < 1 << 41);
        let out = step(r, BETWEEN_BLOCKS, u128::MAX, 1 << 40);
        assert!(within_bounds(out), "{out:?}");
        // ... and it is still the right value.
        let clamped = reference::from_le(&CLAMP.to_le_bytes());
        let sum = reference::add(
            &big(BETWEEN_BLOCKS),
            &reference::from_le(&[&[0xff; 16][..], &[1]].concat()),
        );
        let expected = reference::mod_p(&reference::mul(&sum, &clamped));
        assert_eq!(finish(out, 0).to_le_bytes(), reference::low128(&expected));
        // Unclamped limbs at full width fit as well.
        let wide = [M44, M44, M42, 20 * M44, 20 * M42];
        assert!(within_bounds(step(
            &wide,
            BETWEEN_BLOCKS,
            u128::MAX,
            1 << 40
        )));
    }

    #[test]
    fn finish_subtracts_p_exactly_when_it_must() {
        let p = [M44 - 4, M44, M42];
        let cases = [
            [0, 0, 0],
            [p[0] - 1, p[1], p[2]],
            p,
            [p[0] + 1, p[1], p[2]],
            [M44, M44, M42],
            // The same values with limb 1 not carried.
            [p[0], M44 + (1 << 44), M42 - 1],
            [0, 1 << 44, M42],
            BETWEEN_BLOCKS,
        ];
        for h in cases {
            for pad in [0u128, 1, u128::MAX] {
                let expected = reference::add(
                    &reference::mod_p(&big(h)),
                    &reference::from_le(&pad.to_le_bytes()),
                );
                assert_eq!(
                    finish(h, pad).to_le_bytes(),
                    reference::low128(&expected),
                    "{h:?} + {pad:#x}"
                );
            }
        }
        assert_eq!(finish(p, 0), 0);
        assert_eq!(finish([p[0] - 1, p[1], p[2]], 0), u128::MAX - 5);
    }

    #[test]
    fn debug_is_redacted_and_clamped_bits_are_ignored() {
        let mac = Poly1305::new(&[0x11; 16]);
        assert!(format!("{mac:?}").contains("<redacted>"));
        assert!(!format!("{mac:?}").contains("11"));
        let mut r = [0x11; 16];
        r[3] |= 0xf0;
        r[4] |= 0x03;
        assert_eq!(
            tag(&r, b"same key", &[0; 16]),
            mac.tag(b"same key", &[0; 16])
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn matches_the_reference(
            r in proptest::array::uniform16(0u8..),
            pad in proptest::array::uniform16(0u8..),
            message in proptest::collection::vec(0u8.., 0..=300),
            saturate in 0u8..2,
        ) {
            // Half the cases push every block to all-ones, where carries
            // and the final subtraction are most likely to matter.
            let message = if saturate == 1 { vec![0xff; message.len()] } else { message };
            proptest::prop_assert_eq!(
                tag(&r, &message, &pad),
                reference::poly1305(&r, &message, &pad)
            );
        }
    }
}
