//! Seeded CT001 violations: a fixed-point comb's table lookup written the
//! obvious way. `select` skips the addition `if` the digit is zero and
//! picks the sign with a `match`, so both the instruction stream and the
//! table line touched name a digit of the scalar.

struct Entry([u64; 5]);

struct Table([[Entry; 8]; 32]);

impl Table {
    fn select(&self, row: usize, digit: i8) -> Option<(&Entry, bool)> {
        if digit == 0 {
            return None;
        }
        let entry = &self.0[row][usize::from(digit.unsigned_abs()) - 1];
        match digit.signum() {
            1 => Some((entry, false)),
            _ => Some((entry, true)),
        }
    }

    /// Straight-line: every entry read, one masked in, no finding.
    fn select_masked(&self, row: usize, magnitude: u64) -> Entry {
        let mut out = [0u64; 5];
        for (j, entry) in (1u64..).zip(&self.0[row]) {
            let mask = ((magnitude ^ j).wrapping_sub(1) >> 63).wrapping_neg();
            for (limb, candidate) in out.iter_mut().zip(entry.0) {
                *limb |= mask & candidate;
            }
        }
        Entry(out)
    }
}
