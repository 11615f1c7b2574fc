//! Fixed-point scalar multiplication: a signed radix-16 comb on the
//! twisted-Edwards form of Curve25519.
//!
//! The ladder in the parent module costs 255 steps whatever the point. When
//! the point is fixed — the base point of [`x25519_base`](super::x25519_base),
//! a home network's public key — its multiples can be tabled once and a
//! multiplication becomes 64 table additions and 4 doublings (ref10's
//! `ge_scalarmult_base`). The point `u` is carried over the birational map
//! to `-x^2 + y^2 = 1 + d·x^2·y^2`, `(x, y) = (sqrt(-486664)·u/v,
//! (u - 1)/(u + 1))`, where the addition law is complete: one formula adds
//! any two points of the curve, doubling, the neutral element and the points
//! of low order included. Only `u` comes back out, so the sign of `v` is
//! never needed.
//!
//! [`CombTable::new`] holds `j·256^i·P` for `j` in `1..=8`, `i` in `0..32`
//! as affine `(y + x, y - x, 2d·x·y)`: 256 entries of 120 bytes, normalised
//! with one shared inversion. [`CombTable::mul`] recodes the clamped scalar
//! into 64 digits `e_i` in `[-8, 8]` with `Σ e_i·16^i` the scalar, adds the
//! odd digits' entries, doubles four times, adds the even digits' entries,
//! and returns `u = (Z + Y)/(Z - Y)`; the neutral element gives 0 as the
//! ladder does. The result is the ladder's, byte for byte.
//!
//! A `u` on the quadratic twist (`u^3 + 486662·u^2 + u` not a square, which
//! covers `u = -1`, the map's one pole) and `u = 0` have no table:
//! [`CombTable::new`] says so and the caller keeps the ladder for that key.
//!
//! | operation | accepts limbs | returns limbs |
//! |---|---|---|
//! | `Point::lift` | any 32 bytes | coordinates `< 2^52` |
//! | `double`, `add`, `add_affine` | coordinates and entries `< 2^54` | coordinates `< 2^52` |
//! | `niels` | coordinates `< 2^54` | entries `< 2^52` |
//! | `select` | table entries (`< 2^52`) | entries `< 2^52` |
//!
//! # Constant time
//!
//! As in the parent: no `if`, `while`, `match`, `&&`, `||` or `?` outside
//! `cfg(test)` (lint rule `CT001`). A digit picks its entry by reading all
//! eight of the row and masking one in, and its sign by a masked swap, so
//! neither the instruction stream nor the addresses touched depend on the
//! scalar.

use super::{cmov, Fe, A24};
use crate::secret::Zeroize;

/// The Montgomery coefficient `A = 486662`.
const A: u64 = 4 * A24 + 2;

/// `2d` for `d = -121665/121666`.
const D2: Fe = Fe([
    1_859_910_466_990_425,
    932_731_440_258_426,
    1_072_319_116_312_658,
    1_815_898_335_770_999,
    633_789_495_995_903,
]);

/// A square root of `-(A + 2) = -486664`, the scale of the birational map.
const SQRT_NEG_A_PLUS_2: Fe = Fe([
    1_693_982_333_959_686,
    608_509_411_481_997,
    2_235_573_344_831_311,
    947_681_270_984_193,
    266_558_006_233_600,
]);

/// A curve point in extended coordinates: `x = X/Z`, `y = Y/Z`,
/// `x·y = T/Z`.
#[derive(Clone, Copy)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl std::fmt::Debug for Point {
    // The accumulator of a multiplication is a multiple of the point by a
    // prefix of the scalar. (`Copy` for the arithmetic, like `Fe`: wiped by
    // `CombTable::mul`, not by `Drop`.)
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Point(<redacted>)")
    }
}

/// A point as the right-hand side of an addition: `(y + x, y - x, 2d·x·y)`,
/// affine in the table, over the point's `Z` inside [`Point::add`].
#[derive(Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    t2d: Fe,
}

impl std::fmt::Debug for Niels {
    // A selected entry names a digit of the scalar.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Niels(<redacted>)")
    }
}

impl Niels {
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        t2d: Fe::ZERO,
    };

    /// Replaces `self` with `other` when `flag == 1`.
    fn cmov(&mut self, flag: u64, other: &Niels) {
        cmov(flag, &mut self.y_plus_x, &other.y_plus_x);
        cmov(flag, &mut self.y_minus_x, &other.y_minus_x);
        cmov(flag, &mut self.t2d, &other.t2d);
    }
}

impl Point {
    const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The Edwards point over the Montgomery coordinate `u`, and 1 when
    /// there is one: `u` is on the curve and not 0. `y` stays the fraction
    /// `(u - 1)/(u + 1)`, so the square root is the only exponentiation.
    fn lift(u: &[u8; 32]) -> (Point, u64) {
        let u = Fe::from_bytes(u);
        // v^2 = u^3 + A·u^2 + u
        let v2 = u.mul(u.square().add(u.mul_small(A)).add(Fe::ONE));
        let (v_inverse, on_curve) = v2.invsqrt();
        let x = SQRT_NEG_A_PLUS_2.mul(u).mul(v_inverse);
        let (y_num, y_den) = (u.sub(Fe::ONE), u.add(Fe::ONE));
        let point = Point {
            x: x.mul(y_den),
            y: y_num,
            z: y_den,
            t: x.mul(y_num),
        };
        (point, on_curve)
    }

    /// The tail `double` and `sum` share (ref10's completed → extended).
    fn from_efgh(e: Fe, f: Fe, g: Fe, h: Fe) -> Point {
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// `2·self`: four squarings and four multiplications.
    fn double(self) -> Point {
        let (xx, yy, zz) = (self.x.square(), self.y.square(), self.z.square());
        let g = yy.sub(xx);
        // (x + y)^2 - x^2 - y^2 = 2xy
        let e = self.x.add(self.y).carry().square().sub(yy.add(xx));
        Point::from_efgh(e, zz.add(zz).sub(g), g, yy.add(xx))
    }

    /// `self + q` for `q` over the denominator `Z_q`, given `zz = 2·Z·Z_q`.
    fn sum(self, q: &Niels, zz: Fe) -> Point {
        let a = self.y.add(self.x).carry().mul(q.y_plus_x);
        let b = self.y.sub(self.x).mul(q.y_minus_x);
        let c = self.t.mul(q.t2d);
        Point::from_efgh(a.sub(b), zz.sub(c), zz.add(c).carry(), a.add(b))
    }

    /// `self + q` for a table entry: seven multiplications.
    fn add_affine(self, q: &Niels) -> Point {
        self.sum(q, self.z.add(self.z))
    }

    /// `self + rhs`, any two points (building the table).
    fn add(self, rhs: Point) -> Point {
        let zz = self.z.mul(rhs.z);
        self.sum(&rhs.niels(), zz.add(zz))
    }

    /// `(Y + X, Y - X, 2d·T)`, still over `Z`.
    fn niels(self) -> Niels {
        Niels {
            y_plus_x: self.y.add(self.x).carry(),
            y_minus_x: self.y.sub(self.x),
            t2d: self.t.mul(D2),
        }
    }
}

/// The clamped scalar as 64 signed radix-16 digits, wiped on drop.
struct Digits([i8; 64]);

impl std::fmt::Debug for Digits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Digits(<redacted>)")
    }
}

impl Drop for Digits {
    fn drop(&mut self) {
        self.0.zeroize();
    }
}

impl Digits {
    /// Digits `e_i` in `[-8, 8]` with `Σ e_i·16^i` the scalar clamped per
    /// RFC 7748 §5.
    fn recode(scalar: &[u8; 32]) -> Digits {
        let mut e = [0i8; 64];
        for (pair, byte) in e.chunks_exact_mut(2).zip(scalar) {
            pair[0] = (byte & 15) as i8;
            pair[1] = (byte >> 4) as i8;
        }
        // decodeScalar25519 on the nibbles: clear bits 0-2 and 255, set 254.
        e[0] &= 8;
        e[63] = (e[63] & 7) | 4;
        // Digits above 7 borrow 16 from the next one up; the top nibble is
        // at most 7, so the last digit absorbs its carry.
        let mut carry = 0i8;
        for digit in &mut e[..63] {
            *digit += carry;
            carry = (*digit + 8) >> 4;
            *digit -= carry << 4;
        }
        e[63] += carry;
        Digits(e)
    }
}

/// The multiples `j·256^i·P`, `j` in `1..=8`, `i` in `0..32`, of one fixed
/// point `P`. Public data; 30 KiB, so share it rather than copy it.
pub(crate) struct CombTable([[Niels; 8]; 32]);

impl CombTable {
    /// Tables the point with Montgomery coordinate `u` (any 32 bytes, read
    /// as [`x25519`](super::x25519) reads them). Returns `false` beside a
    /// meaningless table when `u` is 0 or on the twist, where the
    /// birational map has no image: the caller multiplies such a point with
    /// the ladder. Costs about two and a half ladder multiplications.
    pub(crate) fn new(u: &[u8; 32]) -> (CombTable, bool) {
        let (point, on_curve) = Point::lift(u);
        // multiples[8·i + j - 1] = j·256^i·P, projective.
        let mut multiples = [Point::IDENTITY; 256];
        let mut base = point;
        for row in multiples.chunks_exact_mut(8) {
            row[0] = base;
            for j in 1..8 {
                row[j] = row[j - 1].add(base);
            }
            base = row[7];
            for _ in 0..5 {
                base = base.double();
            }
        }
        // Montgomery's trick, one inversion for the 256 denominators:
        // before[i] = Z_0 ⋯ Z_(i-1), and walking back `inverse` is
        // 1/(Z_0 ⋯ Z_i).
        let mut before = [Fe::ONE; 256];
        let mut product = Fe::ONE;
        for (slot, multiple) in before.iter_mut().zip(&multiples) {
            *slot = product;
            product = product.mul(multiple.z);
        }
        let mut inverse = product.invert();
        let mut table = [[Niels::IDENTITY; 8]; 32];
        for i in (0..256).rev() {
            let z_inverse = inverse.mul(before[i]);
            inverse = inverse.mul(multiples[i].z);
            let over_z = multiples[i].niels();
            table[i / 8][i % 8] = Niels {
                y_plus_x: over_z.y_plus_x.mul(z_inverse),
                y_minus_x: over_z.y_minus_x.mul(z_inverse),
                t2d: over_z.t2d.mul(z_inverse),
            };
        }
        (CombTable(table), on_curve == 1)
    }

    /// `digit·256^row·P` for `digit` in `[-8, 8]`: every entry of the row
    /// is read and one masked in (none for 0), then negated by mask.
    fn select(&self, row: usize, digit: i8) -> Niels {
        let sign = digit >> 7;
        let magnitude = ((digit ^ sign) - sign) as u64;
        let mut entry = Niels::IDENTITY;
        for (j, candidate) in (1u64..).zip(&self.0[row]) {
            entry.cmov((magnitude ^ j).wrapping_sub(1) >> 63, candidate);
        }
        let negated = Niels {
            y_plus_x: entry.y_minus_x,
            y_minus_x: entry.y_plus_x,
            t2d: entry.t2d.neg(),
        };
        entry.cmov(sign as u64 & 1, &negated);
        entry
    }

    /// `x25519(scalar, u)` for the `u` this table was built from.
    pub(crate) fn mul(&self, scalar: &[u8; 32]) -> [u8; 32] {
        let digits = Digits::recode(scalar);
        let mut acc = Point::IDENTITY;
        for i in (1..64).step_by(2) {
            acc = acc.add_affine(&self.select(i / 2, digits.0[i]));
        }
        for _ in 0..4 {
            acc = acc.double();
        }
        for i in (0..64).step_by(2) {
            acc = acc.add_affine(&self.select(i / 2, digits.0[i]));
        }
        // u = (1 + y)/(1 - y); the neutral element's 2/0 is 0, the
        // ladder's answer for a point of low order.
        let u = acc.z.add(acc.y).mul(acc.z.sub(acc.y).invert()).to_bytes();
        for coordinate in [&mut acc.x, &mut acc.y, &mut acc.z, &mut acc.t] {
            coordinate.0.zeroize();
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::x25519::tests::{boundary, plus, P_BYTES, SATURATED};
    use crate::x25519::{clamp, x25519, x25519_base, BASE_POINT as BASE};

    fn table(u: &[u8; 32]) -> CombTable {
        let (table, on_curve) = CombTable::new(u);
        assert!(on_curve, "{}", hex::encode(u));
        table
    }

    /// The canonical bytes of an addend over the denominator `z`.
    fn canonical(q: &Niels, z: Fe) -> [[u8; 32]; 3] {
        let z_inverse = z.invert();
        [q.y_plus_x, q.y_minus_x, q.t2d].map(|c| c.mul(z_inverse).to_bytes())
    }

    fn carried(p: &Point) -> bool {
        [p.x, p.y, p.z, p.t]
            .iter()
            .all(|c| c.0.iter().all(|&limb| limb < 1 << 52))
    }

    #[test]
    fn constants_are_what_their_names_say() {
        assert_eq!(A, 486_662);
        let d2_times_121666 = D2.mul_small(121_666);
        assert_eq!(
            d2_times_121666.add(Fe([2 * 121_665, 0, 0, 0, 0])).is_zero(),
            1
        );
        assert_eq!(
            SQRT_NEG_A_PLUS_2
                .square()
                .add(Fe([A + 2, 0, 0, 0, 0]))
                .is_zero(),
            1
        );
    }

    #[test]
    fn lifted_points_and_their_multiples_are_on_the_edwards_curve() {
        // 2·(-x^2 + y^2 - 1) = 2d·x^2·y^2, cleared of denominators.
        let on_curve = |p: Point| {
            let (xx, yy, zz) = (p.x.square(), p.y.square(), p.z.square());
            let lhs = yy.sub(xx).sub(zz).mul(zz);
            assert_eq!(lhs.add(lhs).sub(D2.mul(xx).mul(yy)).is_zero(), 1);
            assert_eq!(p.x.mul(p.y).sub(p.t.mul(p.z)).is_zero(), 1);
        };
        for u in [BASE, x25519_base(&[0x42; 32]), x25519_base(&[0xa7; 32])] {
            let (p, lifted) = Point::lift(&u);
            assert_eq!(lifted, 1);
            on_curve(p);
            on_curve(p.double());
            on_curve(p.add(p.double()));
            on_curve(p.add(Point::IDENTITY));
            // The way back: u = (Z + Y)/(Z - Y).
            let back = p.z.add(p.y).mul(p.z.sub(p.y).invert()).to_bytes();
            assert_eq!(back, u);
            // Doubling is adding a point to itself.
            assert_eq!(
                canonical(&p.double().niels(), p.double().z),
                canonical(&p.add(p).niels(), p.add(p).z)
            );
        }
    }

    #[test]
    fn rfc7748_vectors_through_the_comb() {
        // §6.1: Alice's and Bob's public keys.
        let base = table(&BASE);
        for (private, public) in [
            (
                "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
                "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
            ),
            (
                "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
                "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
            ),
        ] {
            let private = hex::decode_array::<32>(private).unwrap();
            assert_eq!(hex::encode(&base.mul(&private)), public);
            assert_eq!(hex::encode(&x25519_base(&private)), public);
        }
        // §6.1 shared secret: Alice's scalar on the table of Bob's key.
        let alice = hex::decode_array::<32>(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        )
        .unwrap();
        let bob_public = hex::decode_array::<32>(
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
        )
        .unwrap();
        assert_eq!(
            hex::encode(&table(&bob_public).mul(&alice)),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
        // §5.2, first iterate: k = u = 9.
        assert_eq!(
            hex::encode(&base.mul(&BASE)),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    /// `Σ e_i·16^i` as 32 little-endian bytes, borrowing downwards.
    fn evaluate(digits: &Digits) -> [u8; 32] {
        let mut nibbles = [0i8; 64];
        let mut borrow = 0i8;
        for (nibble, &digit) in nibbles.iter_mut().zip(&digits.0) {
            let value = digit - borrow;
            borrow = i8::from(value < 0);
            *nibble = value + 16 * borrow;
        }
        assert_eq!(borrow, 0);
        let mut out = [0u8; 32];
        for (byte, pair) in out.iter_mut().zip(nibbles.chunks_exact(2)) {
            assert!((0..16).contains(&pair[0]) && (0..16).contains(&pair[1]));
            *byte = (pair[0] | pair[1] << 4) as u8;
        }
        out
    }

    fn check_recoding(scalar: &[u8; 32]) {
        let digits = Digits::recode(scalar);
        assert!(digits.0.iter().all(|e| (-8..=8).contains(e)));
        assert_eq!(evaluate(&digits), clamp(scalar));
    }

    #[test]
    fn recoding_is_the_clamped_scalar_in_signed_digits() {
        for scalar in [[0u8; 32], [0xff; 32], [0x88; 32], [0x77; 32], [0x8f; 32]] {
            check_recoding(&scalar);
        }
        // All ones carries into every digit and lands on the top one.
        assert_eq!(Digits::recode(&[0xff; 32]).0[63], 8);
        assert_eq!(
            format!("{:?}", Digits::recode(&[7; 32])),
            "Digits(<redacted>)"
        );
    }

    #[test]
    fn select_returns_the_signed_multiple_and_the_identity() {
        let (point, _) = Point::lift(&BASE);
        let table = table(&BASE);
        for row in [0usize, 15, 31] {
            // 256^row·P by doubling, then its multiples by repeated addition.
            let mut multiple = point;
            for _ in 0..8 * row {
                multiple = multiple.double();
            }
            let step = multiple;
            assert_eq!(
                canonical(&table.select(row, 0), Fe::ONE),
                canonical(&Niels::IDENTITY, Fe::ONE)
            );
            for j in 1..=8i8 {
                let positive = canonical(&multiple.niels(), multiple.z);
                assert_eq!(
                    canonical(&table.select(row, j), Fe::ONE),
                    positive,
                    "{row} {j}"
                );
                // -(x, y) = (-x, y): the sums swap and 2dxy changes sign
                // (here by dividing it by -Z).
                let minus_t2d = canonical(&multiple.niels(), multiple.z.neg())[2];
                let negative = [positive[1], positive[0], minus_t2d];
                assert_eq!(
                    canonical(&table.select(row, -j), Fe::ONE),
                    negative,
                    "{row} -{j}"
                );
                multiple = multiple.add(step);
            }
        }
    }

    #[test]
    fn point_arithmetic_has_headroom() {
        // Every coordinate and entry at the documented operand limit (a
        // debug build traps an overflow).
        let top = Point {
            x: SATURATED,
            y: SATURATED,
            z: SATURATED,
            t: SATURATED,
        };
        let entry = Niels {
            y_plus_x: SATURATED,
            y_minus_x: SATURATED,
            t2d: SATURATED,
        };
        assert!(carried(&top.double()));
        assert!(carried(&top.add_affine(&entry)));
        assert!(carried(&top.add(top)));
        let prepared = top.niels();
        for c in [prepared.y_plus_x, prepared.y_minus_x, prepared.t2d] {
            assert!(c.0.iter().all(|&limb| limb < 1 << 52));
        }
        // And the values agree with the same operands reduced first.
        let reduce = |c: Fe| Fe::from_bytes(&c.to_bytes());
        let small = Point {
            x: reduce(top.x),
            y: reduce(top.y),
            z: reduce(top.z),
            t: reduce(top.t),
        };
        assert_eq!(
            canonical(&top.double().niels(), Fe::ONE),
            canonical(&small.double().niels(), Fe::ONE)
        );
        assert_eq!(
            canonical(&top.add(top).niels(), Fe::ONE),
            canonical(&small.add(small).niels(), Fe::ONE)
        );
    }

    #[test]
    fn the_twist_zero_and_the_pole_have_no_table() {
        let mut minus_one = P_BYTES;
        minus_one[0] -= 1;
        // u = 2 generates the twist.
        for u in [plus([0; 32], 2), [0; 32], P_BYTES, minus_one, [9; 32]] {
            assert!(!CombTable::new(&u).1, "{}", hex::encode(&u));
        }
    }

    #[test]
    fn low_order_points_on_the_curve_multiply_to_zero() {
        // u = 1 and the two of order 8 lift to Edwards points of order 4
        // and 8; the complete addition law takes them like any other.
        for u in [
            "0100000000000000000000000000000000000000000000000000000000000000",
            "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
            "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        ] {
            let table = table(&hex::decode_array::<32>(u).unwrap());
            for k in [[0x42; 32], [0xa7; 32]] {
                assert_eq!(table.mul(&k), [0; 32]);
            }
        }
    }

    #[test]
    fn boundary_and_noncanonical_coordinates_agree_with_the_ladder() {
        let k = [0x5a; 32];
        let mut tabled = 0;
        let mut encodings = boundary();
        for u in 0..19u8 {
            let mut high = plus([0; 32], u);
            high[31] |= 0x80;
            encodings.extend([plus([0; 32], u), plus(P_BYTES, u), high]);
        }
        for u in encodings {
            let (table, on_curve) = CombTable::new(&u);
            if on_curve {
                assert_eq!(table.mul(&k), x25519(&k, &u), "{}", hex::encode(&u));
                tabled += 1;
            }
        }
        // 1, 4, 6, …: most small u are on the curve, thrice each.
        assert!(tabled > 30, "{tabled}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn the_comb_is_the_ladder(
            k in proptest::array::uniform32(0u8..),
            private in proptest::array::uniform32(0u8..),
            arbitrary in proptest::array::uniform32(0u8..),
        ) {
            check_recoding(&k);
            proptest::prop_assert_eq!(x25519_base(&k), x25519(&k, &BASE));
            let derived = x25519_base(&private);
            proptest::prop_assert_eq!(table(&derived).mul(&k), x25519(&k, &derived));
            let (table, on_curve) = CombTable::new(&arbitrary);
            if on_curve {
                proptest::prop_assert_eq!(table.mul(&k), x25519(&k, &arbitrary));
            }
        }
    }
}
