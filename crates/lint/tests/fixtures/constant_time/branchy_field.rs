//! Seeded CT001 violations: the 4 × 64-bit field subtraction and wide
//! reduction X25519 used before the radix-2^51 rewrite. `sub` adds `p`
//! back only `if` the subtraction borrowed and `from_wide` folds the top
//! carry `while` it is nonzero — both branch on secret-derived limbs.
//! (An `if` in this comment or in a "string" is not a finding.)

struct Fe([u64; 4]);

const P: [u64; 4] = [
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
];

impl Fe {
    fn sub(self, rhs: Fe) -> Fe {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (o, (&a, &b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 | b2) as u64;
        }
        if borrow != 0 {
            let mut carry = 0u64;
            for i in 0..4 {
                let (s1, c1) = out[i].overflowing_add(P[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                out[i] = s2;
                carry = (c1 | c2) as u64;
            }
        }
        Fe(out)
    }

    fn from_wide(t: [u64; 8]) -> Fe {
        let mut lo = [t[0], t[1], t[2], t[3]];
        let mut carry: u128 = 0;
        for (l, &hi) in lo.iter_mut().zip(t[4..].iter()) {
            let acc = *l as u128 + hi as u128 * 38 + carry;
            *l = acc as u64;
            carry = acc >> 64;
        }
        let mut top = carry as u64;
        while top != 0 {
            let mut fold: u128 = top as u128 * 38;
            for limb in &mut lo {
                let acc = *limb as u128 + (fold & u64::MAX as u128);
                *limb = acc as u64;
                fold = (fold >> 64) + (acc >> 64);
            }
            top = fold as u64;
        }
        Fe(lo)
    }

    /// Straight-line: a mask select, no finding.
    fn select(mask: u64, a: u64, b: u64) -> u64 {
        (a & mask) | (b & !mask)
    }

    fn is_small(&self) -> bool {
        self.0[3] == 0 && self.0[2] == 0
    }

    fn parse(bytes: &[u8]) -> Option<Fe> {
        let word = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?);
        Some(Fe([word, 0, 0, 0]))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn branches_are_fine_in_tests() {
        if 1 + 1 == 2 || false {
            match 3 {
                _ => {}
            }
        }
    }
}
