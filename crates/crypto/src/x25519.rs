//! X25519 Diffie–Hellman over Curve25519 (RFC 7748).
//!
//! The SUCI protection scheme Profile A (TS 33.501 Annex C.3.4.1) conceals
//! the subscriber's permanent identifier with an ECIES construction whose
//! key agreement is Curve25519 — this module provides that primitive.
//!
//! ```rust
//! use shield5g_crypto::x25519::{x25519, x25519_base};
//! let alice_priv = [1u8; 32];
//! let bob_priv = [2u8; 32];
//! let alice_pub = x25519_base(&alice_priv);
//! let bob_pub = x25519_base(&bob_priv);
//! assert_eq!(x25519(&alice_priv, &bob_pub), x25519(&bob_priv, &alice_pub));
//! ```
//!
//! # Two routines, one function
//!
//! [`x25519`] is the Montgomery ladder: 255 steps, any `u`, nothing to
//! prepare. It multiplies every *fresh* point — the ephemeral key a SUCI
//! carries, the peer's share in a sim-TLS handshake. A *fixed* point is
//! multiplied by the comb in the `comb` submodule, a signed radix-16
//! fixed-window walk over a table of the point's multiples on the Edwards
//! form of the curve: 64 table additions and 4 doublings, about a third of
//! the ladder's time, for a table that costs two and a half ladders to
//! build. [`x25519_base`] is the comb on the base point, whose table the
//! compiler builds; `ecies::HomeNetworkPublicKey` carries the table of a
//! home network's key. Both routines return the same bytes for every
//! scalar and every `u` that has a table; a `u` without one (the twist, 0)
//! stays with the ladder, decided once from the public `u` when the key is
//! built.
//!
//! # Field arithmetic
//!
//! An element of GF(`2^255 - 19`) is five `u64` limbs in radix `2^51`:
//! `l0 + l1·2^51 + l2·2^102 + l3·2^153 + l4·2^204`. Reduction is lazy: a
//! limb may run past 51 bits, and only `Fe::to_bytes` produces the
//! canonical value `< p`. Each operation states the limb size it accepts
//! and the one it returns; a *carried* element has limbs `< 2^52`, so the
//! sum of two sums of carried elements (`< 2^54`) is still a valid operand
//! everywhere, which is all the ladder and the comb's point formulas (their
//! own table is in `comb`) need.
//!
//! | operation | accepts limbs | returns limbs |
//! |---|---|---|
//! | `from_bytes` | any 32 bytes, bit 255 ignored | `< 2^51` |
//! | `add` | sum `< 2^64` | `a_i + b_i`, not carried |
//! | `carry` | `< 2^64` | `< 2^51 + 2^18` |
//! | `sub`, `neg` | `< 2^54` | `< 2^52` (adds `16p`, one carry pass) |
//! | `mul`, `square`, `mul_small` | `< 2^54` | `< 2^52` |
//! | `invert` | `< 2^54` | `< 2^52`; `0` maps to `0` |
//! | `invsqrt` | `< 2^54` | root `< 2^52`, flag 0 or 1; `0` is "no root" |
//! | `to_bytes`, `is_zero` | `< 2^54` | the 32 canonical bytes; 0 or 1 |
//! | `cswap`, `cmov` | any | the operands' limbs, moved |
//!
//! `invert` and `invsqrt` share one addition chain to `x^(2^250 - 1)`
//! (`pow_250`).
//!
//! # Constant time
//!
//! Outside `cfg(test)` this file and `comb` contain no `if`, `while`,
//! `match`, `&&`, `||` or `?`: every loop has a public trip count and secret
//! bits reach the data only through masks (`cswap`, `cmov`), so neither the
//! instruction stream nor the host cost depends on the scalar or the point.
//! The workspace linter enforces it (rule `CT001`). The comb's table
//! builder (`comb/table.rs`) is a `const fn` and needs `while`; it only
//! sees public points, and lives outside the rule's files.

pub(crate) mod comb;

pub(crate) use comb::CombTable;

use crate::secret::SecretBytes;

const MASK: u64 = (1 << 51) - 1;

/// `16p` limb by limb: what [`Fe::sub`] adds so no limb goes negative.
const P16: Fe = Fe([(MASK - 18) << 4, MASK << 4, MASK << 4, MASK << 4, MASK << 4]);

/// `(486662 - 2) / 4`, the ladder constant.
const A24: u64 = 121_665;

/// A square root of `-1`: `2^((p-1)/4)`.
const SQRT_M1: Fe = Fe([
    1_718_705_420_411_056,
    234_908_883_556_509,
    2_233_514_472_574_048,
    2_117_202_627_021_982,
    765_476_049_583_133,
]);

/// A field element modulo `2^255 - 19`: five little-endian 51-bit limbs,
/// lazily reduced (see the module docs for the bounds).
#[derive(Clone, Copy)]
pub(crate) struct Fe(pub(crate) [u64; 5]);

impl core::fmt::Debug for Fe {
    // Field elements carry private-scalar-derived ladder state: a derived
    // Debug would print the limbs into any `{:?}` trace. (`Fe` must stay
    // `Copy` for the ladder arithmetic, so it zeroizes via callers, not
    // `Drop`.)
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("Fe(<redacted>)")
    }
}

/// The full 64 × 64 → 128-bit product.
const fn m(x: u64, y: u64) -> u128 {
    x as u128 * y as u128
}

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Parses a little-endian 32-byte string, ignoring the top bit (RFC 7748
    /// §5 decodeUCoordinate). Values in `[p, 2^255)` are kept as they are:
    /// the arithmetic works on any representative.
    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let mut w = [0u64; 4];
        for (i, &byte) in bytes.iter().enumerate() {
            w[i / 8] |= u64::from(byte) << (8 * (i % 8));
        }
        Fe([
            w[0] & MASK,
            (w[0] >> 51 | w[1] << 13) & MASK,
            (w[1] >> 38 | w[2] << 26) & MASK,
            (w[2] >> 25 | w[3] << 39) & MASK,
            (w[3] >> 12) & MASK,
        ])
    }

    /// The canonical encoding: the one place that reduces fully.
    fn to_bytes(self) -> [u8; 32] {
        // After one pass the value is below 2p, so at most one p comes off.
        let mut l = self.carry().0;
        // q = 1 exactly when the value is >= p: the carry out of bit 255
        // of value + 19.
        let mut q = (l[0] + 19) >> 51;
        for limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        // Adding 19q and dropping bit 255 subtracts q·p.
        let mut carry = 19 * q;
        for limb in &mut l {
            *limb += carry;
            carry = *limb >> 51;
            *limb &= MASK;
        }
        let w = [
            l[0] | l[1] << 51,
            l[1] >> 13 | l[2] << 38,
            l[2] >> 26 | l[3] << 25,
            l[3] >> 39 | l[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(8).zip(w) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// One parallel carry pass with the `2^255 ≡ 19` wrap: limbs `< 2^64`
    /// in, limbs `< 2^51 + 19·2^13` out. The value is unchanged modulo `p`.
    const fn carry(self) -> Fe {
        let l = self.0;
        Fe([
            (l[0] & MASK) + (l[4] >> 51) * 19,
            (l[1] & MASK) + (l[0] >> 51),
            (l[2] & MASK) + (l[1] >> 51),
            (l[3] & MASK) + (l[2] >> 51),
            (l[4] & MASK) + (l[3] >> 51),
        ])
    }

    const fn add(self, rhs: Fe) -> Fe {
        let (Fe([a0, a1, a2, a3, a4]), Fe([b0, b1, b2, b3, b4])) = (self, rhs);
        Fe([a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4])
    }

    const fn sub(self, rhs: Fe) -> Fe {
        let (Fe([a0, a1, a2, a3, a4]), Fe([b0, b1, b2, b3, b4])) = (self.add(P16), rhs);
        Fe([a0 - b0, a1 - b1, a2 - b2, a3 - b3, a4 - b4]).carry()
    }

    /// The carry chain shared by `mul`, `square` and `mul_small`: five
    /// column sums `< 2^115` in, a carried element out.
    const fn fold(c: [u128; 5]) -> Fe {
        let c1 = c[1] + (c[0] >> 51);
        let c2 = c[2] + (c1 >> 51);
        let c3 = c[3] + (c2 >> 51);
        let c4 = c[4] + (c3 >> 51);
        // Column 4 has no ×19 term (< 2^111), so this carry is < 2^60 and
        // its ×19 wrap into limb 0 fits a u64.
        let l0 = (c[0] as u64 & MASK) + (c4 >> 51) as u64 * 19;
        Fe([
            l0 & MASK,
            (c1 as u64 & MASK) + (l0 >> 51),
            c2 as u64 & MASK,
            c3 as u64 & MASK,
            c4 as u64 & MASK,
        ])
    }

    /// 25-product schoolbook; products that land on `2^255` and above are
    /// folded back with `2^255 ≡ 19`.
    const fn mul(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let (b1, b2, b3, b4) = (b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19);
        Fe::fold([
            m(a[0], b[0]) + m(a[4], b1) + m(a[3], b2) + m(a[2], b3) + m(a[1], b4),
            m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2) + m(a[3], b3) + m(a[2], b4),
            m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3) + m(a[3], b4),
            m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4),
            m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]),
        ])
    }

    /// 15 products: each cross term is computed once and doubled.
    const fn square(self) -> Fe {
        let a = self.0;
        let (a3, a4) = (a[3] * 19, a[4] * 19);
        Fe::fold([
            m(a[0], a[0]) + 2 * (m(a[1], a4) + m(a[2], a3)),
            m(a[3], a3) + 2 * (m(a[0], a[1]) + m(a[2], a4)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3)),
            m(a[4], a4) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    fn mul_small(self, small: u64) -> Fe {
        Fe::fold(self.0.map(|limb| m(limb, small)))
    }

    /// `self^(2^k)`.
    fn square_times(mut self, k: u32) -> Fe {
        for _ in 0..k {
            self = self.square();
        }
        self
    }

    /// `(self^(2^250 - 1), self^11)`: the addition chain `invert` and
    /// `invsqrt` share, 249 squarings and 10 multiplications, the same ones
    /// for every input.
    fn pow_250(self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.square_times(2).mul(self);
        let z11 = z9.mul(z2);
        // zN_0 = self^(2^N - 1)
        let z5_0 = z11.square().mul(z9);
        let z10_0 = z5_0.square_times(5).mul(z5_0);
        let z20_0 = z10_0.square_times(10).mul(z10_0);
        let z40_0 = z20_0.square_times(20).mul(z20_0);
        let z50_0 = z40_0.square_times(10).mul(z10_0);
        let z100_0 = z50_0.square_times(50).mul(z50_0);
        let z200_0 = z100_0.square_times(100).mul(z100_0);
        (z200_0.square_times(50).mul(z50_0), z11)
    }

    /// Computes `self^(p-2)`, the multiplicative inverse for nonzero input.
    fn invert(self) -> Fe {
        let (z250_0, z11) = self.pow_250();
        // 2^255 - 32 + 11 = p - 2
        z250_0.square_times(5).mul(z11)
    }

    /// `(r, 1)` with `self · r^2 = 1` when `self` is a nonzero square,
    /// `(_, 0)` when it is not: the root and the Euler test in one
    /// exponentiation.
    fn invsqrt(self) -> (Fe, u64) {
        let w3 = self.square().mul(self);
        let w7 = w3.square().mul(self);
        // w^3 · (w^7)^((p-5)/8), and (p - 5)/8 = 2^252 - 4 + 1.
        let r = w3.mul(w7.pow_250().0.square_times(2).mul(w7));
        // w · r^2 = (w^7)^((p-1)/4): a fourth root of unity, ±1 exactly
        // when `w` is a square; 0 for w = 0.
        let check = self.mul(r.square());
        let minus = check.add(Fe::ONE).is_zero();
        let mut root = r;
        cmov(minus, &mut root, &r.mul(SQRT_M1));
        (root, check.sub(Fe::ONE).is_zero() | minus)
    }

    /// `-self`.
    fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// 1 when the value is `0 mod p`, else 0.
    fn is_zero(self) -> u64 {
        u64::from(crate::ct_eq(&self.to_bytes(), &[0; 32]))
    }
}

/// Replaces `a` with `b` when `flag == 1`, without branching on the flag.
fn cmov(flag: u64, a: &mut Fe, b: &Fe) {
    let mask = flag.wrapping_neg();
    for i in 0..5 {
        a.0[i] ^= mask & (a.0[i] ^ b.0[i]);
    }
}

/// Conditionally swaps `(a, b)` when `swap == 1`, without branching on the
/// secret bit.
fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
    let mask = swap.wrapping_neg();
    for i in 0..5 {
        let x = mask & (a.0[i] ^ b.0[i]);
        a.0[i] ^= x;
        b.0[i] ^= x;
    }
}

/// Clamps a 32-byte scalar per RFC 7748 §5 decodeScalar25519.
fn clamp(scalar: &[u8; 32]) -> [u8; 32] {
    let mut s = *scalar;
    s[0] &= 248;
    s[31] &= 127;
    s[31] |= 64;
    s
}

/// The X25519 function: scalar multiplication on Curve25519.
///
/// Returns the u-coordinate of `scalar * point(u)` as 32 little-endian
/// bytes. The all-zero output (low-order point input) is returned as-is;
/// callers that need contributory behaviour must check for it.
#[must_use]
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(scalar);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        cswap(swap, &mut x2, &mut x3);
        cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(A24)));
    }
    cswap(swap, &mut x2, &mut x3);
    cswap(swap, &mut z2, &mut z3);
    x2.mul(z2.invert()).to_bytes()
}

/// [`x25519`] under a private scalar held as a secret (a static key), whose
/// bytes never leave the container.
#[must_use]
pub fn agree(private: &SecretBytes<32>, u: &[u8; 32]) -> [u8; 32] {
    x25519(private.expose(), u)
}

/// [`x25519_base`] under a private scalar held as a secret: its public key
/// (an ephemeral key's, say), by the comb.
#[must_use]
pub fn public_of(private: &SecretBytes<32>) -> [u8; 32] {
    x25519_base(private.expose())
}

/// X25519 with the standard base point `u = 9` (public-key generation):
/// the comb on a table the compiler builds.
#[must_use]
pub fn x25519_base(scalar: &[u8; 32]) -> [u8; 32] {
    comb::BASE.mul(scalar)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hex;

    /// The base point, `u = 9`.
    pub(crate) const BASE_POINT: [u8; 32] = {
        let mut u = [0; 32];
        u[0] = 9;
        u
    };

    /// The u-coordinates of small order below 2^255 (RFC 7748 §6.1,
    /// cr.yp.to/ecdh.html): 0, 1, the two of order 8, p - 1, p, p + 1.
    pub(crate) const LOW_ORDER_POINTS: [&str; 7] = [
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    ];

    #[test]
    fn rfc7748_vector_1() {
        let scalar = hex::decode_array::<32>(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(&scalar, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar = hex::decode_array::<32>(
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        )
        .unwrap();
        let u = hex::decode_array::<32>(
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&x25519(&scalar, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    #[test]
    fn rfc7748_diffie_hellman() {
        let alice_priv = hex::decode_array::<32>(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        )
        .unwrap();
        let bob_priv = hex::decode_array::<32>(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        )
        .unwrap();
        let alice_pub = x25519_base(&alice_priv);
        let bob_pub = x25519_base(&bob_priv);
        assert_eq!(
            hex::encode(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = x25519(&alice_priv, &bob_pub);
        let shared_b = x25519(&bob_priv, &alice_pub);
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex::encode(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn rfc7748_iterated_once_and_thousand() {
        // §5.2 iteration test: k = u = base point, apply k' = X25519(k, u).
        let mut k = [0u8; 32];
        k[0] = 9;
        let mut u = k;
        let out1 = x25519(&k, &u);
        assert_eq!(
            hex::encode(&out1),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
        u = k;
        k = out1;
        for _ in 1..1000 {
            let next = x25519(&k, &u);
            u = k;
            k = next;
        }
        assert_eq!(
            hex::encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    /// `2^255 - 19` as the 32 little-endian bytes `from_bytes` reads.
    pub(crate) const P_BYTES: [u8; 32] = {
        let mut p = [0xff; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        p
    };

    /// Little-endian bytes of `base + small`.
    pub(crate) fn plus(base: [u8; 32], small: u8) -> [u8; 32] {
        let mut out = base;
        let mut carry = u16::from(small);
        for byte in &mut out {
            carry += u16::from(*byte);
            *byte = carry as u8;
            carry >>= 8;
        }
        out
    }

    fn pow2(bit: usize) -> [u8; 32] {
        let mut out = [0u8; 32];
        out[bit / 8] = 1 << (bit % 8);
        out
    }

    /// 0, 1, 2^51 - 1, 2^51, p - 1, p, p + 1, 2^255 - 1, all-0xff.
    pub(crate) fn boundary() -> Vec<[u8; 32]> {
        let mut limb_ones = [0u8; 32];
        limb_ones[..7].copy_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x07]);
        let mut p_minus_1 = P_BYTES;
        p_minus_1[0] -= 1;
        let mut top = [0xff; 32];
        top[31] = 0x7f;
        vec![
            [0; 32],
            pow2(0),
            limb_ones,
            pow2(51),
            p_minus_1,
            P_BYTES,
            plus(P_BYTES, 1),
            top,
            [0xff; 32],
        ]
    }

    fn fe(bytes: &[u8; 32]) -> Fe {
        Fe::from_bytes(bytes)
    }

    /// `x` pushed to the documented operand limit: the sum of two sums,
    /// limbs just under 2^54 when `x` is carried. Its value is `4x`.
    fn headroom(x: Fe) -> Fe {
        x.add(x).add(x.add(x))
    }

    /// Every limb at the largest value `sub`, `mul`, `square` and
    /// `mul_small` document as an operand.
    pub(super) const SATURATED: Fe = Fe([(1 << 54) - 1; 5]);

    /// Every field identity the ladder relies on, for one triple, on
    /// freshly parsed operands and on operands at the headroom limit.
    fn check_identities(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) {
        for lift in [std::convert::identity as fn(Fe) -> Fe, headroom] {
            let (a, b, c) = (lift(fe(a)), lift(fe(b)), lift(fe(c)));
            assert_eq!(a.mul(b).mul(c).to_bytes(), a.mul(b.mul(c)).to_bytes());
            assert_eq!(a.mul(b).to_bytes(), b.mul(a).to_bytes());
            assert_eq!(a.square().to_bytes(), a.mul(a).to_bytes());
            assert_eq!(
                a.mul_small(A24).to_bytes(),
                a.mul(Fe([A24, 0, 0, 0, 0])).to_bytes()
            );
            assert_eq!(
                a.add(b).mul(c).to_bytes(),
                a.mul(c).add(b.mul(c)).to_bytes()
            );
            assert_eq!(a.sub(b).add(b).to_bytes(), a.to_bytes());
            assert_eq!(a.add(b).sub(b).to_bytes(), a.to_bytes());
            assert_eq!(a.sub(a).to_bytes(), [0; 32]);
            let is_zero = a.to_bytes() == [0; 32];
            let expected = if is_zero { Fe::ZERO } else { Fe::ONE };
            assert_eq!(a.mul(a.invert()).to_bytes(), expected.to_bytes());
        }
    }

    #[test]
    fn field_identities_on_the_boundary_set() {
        let set = boundary();
        for a in &set {
            for b in &set {
                for c in &set {
                    check_identities(a, b, c);
                }
            }
        }
    }

    #[test]
    fn field_add_sub_round_trip() {
        let top = SATURATED;
        assert_eq!(top.sub(top).to_bytes(), [0; 32]);
        assert_eq!(Fe::ZERO.sub(top).add(top).to_bytes(), [0; 32]);
        assert_eq!(top.sub(Fe::ZERO).to_bytes(), top.to_bytes());
    }

    #[test]
    fn field_inverse() {
        // 0 has no inverse and maps to 0; p is 0; p + 1 is 1.
        assert_eq!(Fe::ZERO.invert().to_bytes(), [0; 32]);
        assert_eq!(fe(&P_BYTES).invert().to_bytes(), [0; 32]);
        assert_eq!(fe(&plus(P_BYTES, 1)).invert().to_bytes(), pow2(0));
        // 2^-1 = (p + 1) / 2 = 2^254 - 9.
        let mut half = [0xff; 32];
        half[0] = 0xf7;
        half[31] = 0x3f;
        assert_eq!(fe(&pow2(1)).invert().to_bytes(), half);
    }

    #[test]
    fn inverse_square_root() {
        assert_eq!(SQRT_M1.square().add(Fe::ONE).is_zero(), 1);
        // 4 = 2^2 and 2 is not a square (p = 5 mod 8); 0 has no inverse.
        let (root, square) = fe(&pow2(2)).invsqrt();
        assert_eq!(square, 1);
        assert_eq!(root.square().mul(fe(&pow2(2))).to_bytes(), pow2(0));
        assert_eq!(fe(&pow2(1)).invsqrt().1, 0);
        assert_eq!(Fe::ZERO.invsqrt().1, 0);
        assert_eq!(fe(&P_BYTES).invsqrt().1, 0);
        // Both fourth roots of unity that mean "square": x^2 and -(x^2)
        // for x running over the boundary set, at the operand limit too.
        for x in boundary().iter().map(fe) {
            for w in [x.square(), x.square().neg(), headroom(x.square())] {
                let (root, square) = w.invsqrt();
                assert_eq!(square, 1 - w.is_zero());
                if square == 1 {
                    assert_eq!(root.square().mul(w).to_bytes(), pow2(0));
                }
                assert!(root.0.iter().all(|&l| l < 1 << 52));
            }
        }
    }

    #[test]
    fn zero_test_negation_and_conditional_move() {
        for bytes in boundary() {
            let x = fe(&bytes);
            assert_eq!(x.is_zero(), u64::from(x.to_bytes() == [0; 32]));
            assert_eq!(headroom(x).is_zero(), x.is_zero());
            assert_eq!(x.neg().add(x).is_zero(), 1);
            assert_eq!(SATURATED.neg().add(SATURATED).is_zero(), 1);
            assert!(SATURATED.neg().0.iter().all(|&l| l < 1 << 52));
        }
        let a = Fe([1, 2, 3, 4, u64::MAX]);
        let b = Fe([u64::MAX, 7, 0, MASK, 5]);
        let mut x = a;
        cmov(0, &mut x, &b);
        assert_eq!(x.0, a.0);
        cmov(1, &mut x, &b);
        assert_eq!(x.0, b.0);
    }

    #[test]
    fn field_mul_distributes_over_add() {
        // The widest column sums `fold` ever sees (a debug build would
        // trap an overflow).
        let top = SATURATED;
        let sum = top.mul(top).add(top.mul(top));
        assert_eq!(top.add(top).carry().mul(top).to_bytes(), sum.to_bytes());
        assert_eq!(top.square().to_bytes(), top.mul(top).to_bytes());
        assert!(top.mul(top).0.iter().all(|&l| l < 1 << 52));
        assert!(top.square().0.iter().all(|&l| l < 1 << 52));
        assert!(top.mul_small(A24).0.iter().all(|&l| l < 1 << 52));
        assert!(top.sub(top).0.iter().all(|&l| l < 1 << 52));
    }

    #[test]
    fn from_bytes_reduces_noncanonical() {
        // to_bytes ∘ from_bytes is the canonical form: p + k reads as k,
        // bit 255 is ignored, and a second pass changes nothing.
        for k in 0..19 {
            assert_eq!(fe(&plus(P_BYTES, k)).to_bytes(), plus([0; 32], k));
        }
        assert_eq!(fe(&[0xff; 32]).to_bytes(), plus([0; 32], 18));
        for bytes in boundary() {
            let once = fe(&bytes).to_bytes();
            assert_eq!(fe(&once).to_bytes(), once);
            assert_eq!(once[31] & 0x80, 0);
            let mut flipped = bytes;
            flipped[31] ^= 0x80;
            assert_eq!(fe(&flipped).to_bytes(), once);
        }
    }

    #[test]
    fn cswap_is_exact() {
        let a = Fe([1, 2, 3, 4, u64::MAX]);
        let b = Fe([u64::MAX, 7, 0, MASK, 5]);
        let (mut x, mut y) = (a, b);
        cswap(0, &mut x, &mut y);
        assert_eq!((x.0, y.0), (a.0, b.0));
        cswap(1, &mut x, &mut y);
        assert_eq!((x.0, y.0), (b.0, a.0));
    }

    #[test]
    fn noncanonical_u_coordinates_agree() {
        // u, u + p and u with bit 255 set name the same point.
        let k = [0x5a; 32];
        for u in 0..19u8 {
            let canonical = x25519(&k, &plus([0; 32], u));
            assert_eq!(x25519(&k, &plus(P_BYTES, u)), canonical);
            let mut high = plus([0; 32], u);
            high[31] |= 0x80;
            assert_eq!(x25519(&k, &high), canonical);
        }
    }

    #[test]
    #[ignore = "RFC 7748 §5.2, 1 000 000 iterations: about a minute in release"]
    fn rfc7748_iterated_million() {
        let mut k = [0u8; 32];
        k[0] = 9;
        let mut u = k;
        for _ in 0..1_000_000 {
            let next = x25519(&k, &u);
            u = k;
            k = next;
        }
        assert_eq!(
            hex::encode(&k),
            "7c3911e0ab2586fd864497297e575e6f3bc601c0883c30df5f4dd2d24f665424"
        );
    }

    #[test]
    fn clamping_is_applied() {
        // Two scalars differing only in clamped bits produce the same output.
        let mut s1 = [0x55u8; 32];
        let mut s2 = s1;
        s2[0] ^= 0x07; // low three bits are cleared by clamping
        s2[31] ^= 0x80; // top bit cleared
        s1[31] |= 0x40;
        s2[31] |= 0x40;
        assert_eq!(x25519_base(&s1), x25519_base(&s2));
    }

    #[test]
    fn low_order_zero_point_yields_zero() {
        // A low-order point gives the all-zero output whatever the scalar;
        // callers needing contributory behaviour must reject it themselves
        // (documented on `x25519`).
        for u in LOW_ORDER_POINTS {
            let u = hex::decode_array::<32>(u).unwrap();
            assert_eq!(x25519(&[0x42; 32], &u), [0u8; 32]);
            assert_eq!(x25519(&[0xa7; 32], &u), [0u8; 32]);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]
        #[test]
        fn dh_shared_secret_agrees(a in proptest::array::uniform32(1u8..), b in proptest::array::uniform32(1u8..)) {
            let pa = x25519_base(&a);
            let pb = x25519_base(&b);
            proptest::prop_assert_eq!(x25519(&a, &pb), x25519(&b, &pa));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        #[test]
        fn field_identities_on_random_elements(
            a in proptest::array::uniform32(0u8..),
            b in proptest::array::uniform32(0u8..),
            c in proptest::array::uniform32(0u8..),
            edge in 0usize..9,
        ) {
            check_identities(&a, &b, &c);
            check_identities(&a, &boundary()[edge], &c);
            let once = fe(&a).to_bytes();
            proptest::prop_assert_eq!(fe(&once).to_bytes(), once);
            proptest::prop_assert_eq!(once[31] & 0x80, 0);
        }
    }
}
