//! The one builder of a [`CombTable`]: a `const fn`, run by the compiler
//! for the base point (`comb::BASE`) and at run time for a home network's
//! key ([`CombTable::new`]). Its loops are `while`, which rule `CT001`
//! bans from the parent files; it only ever sees public points, so its
//! branches may depend on the point.

use super::{CombTable, Niels, Point};
use crate::x25519::Fe;

/// `p - 2 = 2^255 - 21`, little-endian: the exponent of [`invert`].
const P_MINUS_2: [u8; 32] = {
    let mut e = [0xff; 32];
    e[0] = 0xeb;
    e[31] = 0x7f;
    e
};

/// `z^(p-2)`, the inverse of a nonzero `z`, by square-and-multiply over
/// the bits of [`P_MINUS_2`]: limbs `< 2^54` in, `< 2^52` out. `Fe::invert`
/// is the faster chain, but its `square_times` loop is not `const`.
const fn invert(z: Fe) -> Fe {
    let mut r = Fe::ONE;
    let mut bit = 255;
    while bit > 0 {
        bit -= 1;
        r = r.square();
        if (P_MINUS_2[bit / 8] >> (bit % 8)) & 1 == 1 {
            r = r.mul(z);
        }
    }
    r
}

impl CombTable {
    /// Tables `point`, any point of the curve: `j·256^i·point` for `j` in
    /// `1..=8`, `i` in `0..32`, normalised to affine with one inversion.
    pub(super) const fn from_point(point: Point) -> CombTable {
        // multiples[8·i + j - 1] = j·256^i·P, projective.
        let mut multiples = [Point::IDENTITY; 256];
        let mut base = point;
        let mut row = 0;
        while row < 256 {
            multiples[row] = base;
            let mut j = 1;
            while j < 8 {
                multiples[row + j] = multiples[row + j - 1].add(base);
                j += 1;
            }
            base = multiples[row + 7];
            let mut k = 0;
            while k < 5 {
                base = base.double();
                k += 1;
            }
            row += 8;
        }
        // Montgomery's trick, one inversion for the 256 denominators:
        // before[i] = Z_0 ⋯ Z_(i-1), and walking back `inverse` is
        // 1/(Z_0 ⋯ Z_i).
        let mut before = [Fe::ONE; 256];
        let mut product = Fe::ONE;
        let mut i = 0;
        while i < 256 {
            before[i] = product;
            product = product.mul(multiples[i].z);
            i += 1;
        }
        let mut inverse = invert(product);
        let mut table = [[Niels::IDENTITY; 8]; 32];
        while i > 0 {
            i -= 1;
            let z_inverse = inverse.mul(before[i]);
            inverse = inverse.mul(multiples[i].z);
            let over_z = multiples[i].niels();
            table[i / 8][i % 8] = Niels {
                y_plus_x: over_z.y_plus_x.mul(z_inverse),
                y_minus_x: over_z.y_minus_x.mul(z_inverse),
                t2d: over_z.t2d.mul(z_inverse),
            };
        }
        CombTable(table)
    }
}
