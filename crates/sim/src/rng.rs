//! Fork-able deterministic randomness.
//!
//! All stochastic behaviour in the simulator — RAND challenges, ephemeral
//! ECIES keys, latency jitter, interrupt arrivals — draws from a [`DetRng`]
//! seeded once per world, so every experiment replays bit-for-bit.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, held here
//! rather than borrowed from a crate whose small-generator algorithm is
//! not promised to stay: "same seed ⇒ same bytes" rests on this file
//! alone. The streams are those of rand 0.8's `SmallRng` on 64-bit
//! targets (53-bit `f64`, widening multiply-and-reject ranges), which the
//! calibrated experiment seeds were drawn against.

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a stream from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // SplitMix64 fills the 256-bit state, one word per step.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent child stream labelled by `label`.
    ///
    /// Forked streams decouple consumers: the UE's ephemeral-key draws do
    /// not perturb the network-jitter sequence, keeping sub-experiments
    /// comparable across configurations.
    #[must_use]
    pub fn fork(&mut self, label: &str) -> DetRng {
        // Mix the label into a fresh seed via FNV-1a over a drawn base.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.next_u64();
        for b in label.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        DetRng::new(h)
    }

    /// A uniform `u64` (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics when `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        // Widening multiply; reject a low word above the unbiased zone.
        let span = hi - lo;
        let zone = (span << span.leading_zeros()).wrapping_sub(1);
        loop {
            let m = u128::from(self.next_u64()) * u128::from(span);
            if (m as u64) <= zone {
                return lo + (m >> 64) as u64;
            }
        }
    }

    /// Fills and returns an N-byte array: little-endian draws, the last
    /// one truncated.
    pub fn bytes<const N: usize>(&mut self) -> [u8; N] {
        let mut out = [0u8; N];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes()[..chunk.len()]);
        }
        out
    }

    /// A uniform `f64` in `[0, 1)`: 53 random mantissa bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// A jittered value: `base` scaled by a factor drawn from a triangular
    /// distribution on `[1 - spread, 1 + spread]` (mode 1).
    ///
    /// Triangular noise approximates the unimodal latency spreads visible
    /// in the paper's box plots without heavy tails.
    pub fn jitter(&mut self, base: u64, spread: f64) -> u64 {
        let spread = spread.clamp(0.0, 0.95);
        // Sum of two uniforms gives a triangular sample in [0, 2].
        let t = self.unit() + self.unit();
        let factor = 1.0 + (t - 1.0) * spread;
        (base as f64 * factor).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Pinned draws: a drifted generator fails here in one line instead of
    /// as a diff of every golden.
    #[test]
    fn known_answers() {
        let mut r = DetRng::new(0);
        let first: [u64; 4] = std::array::from_fn(|_| r.next_u64());
        assert_eq!(
            first,
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
            ]
        );
        assert_eq!(DetRng::new(0).range(10, 1000), 331);
        assert_eq!(
            DetRng::new(0).bytes::<13>(),
            [0xdf, 0x23, 0x0b, 0x49, 0x61, 0x5d, 0x17, 0x53, 0x07, 0xd5, 0x80, 0xc3, 0x3d]
        );
        // The first f64 of seed 0 is exactly 0x3fd4_c5d7_5852_42c8.
        assert!(!DetRng::new(0).chance(f64::from_bits(0x3fd4_c5d7_5852_42c8)));
        assert!(DetRng::new(0).chance(f64::from_bits(0x3fd4_c5d7_5852_42c9)));
        assert_eq!(
            DetRng::new(0).fork("radio").next_u64(),
            0x2b6b_7ead_687b_e442
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn forks_are_deterministic_and_label_sensitive() {
        let mut parent1 = DetRng::new(99);
        let mut parent2 = DetRng::new(99);
        let mut f1 = parent1.fork("radio");
        let mut f2 = parent2.fork("radio");
        assert_eq!(f1.next_u64(), f2.next_u64());
        let mut parent3 = DetRng::new(99);
        let mut f3 = parent3.fork("bridge");
        let mut parent4 = DetRng::new(99);
        let mut f4 = parent4.fork("radio");
        assert_ne!(f3.next_u64(), f4.next_u64());
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..100 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        DetRng::new(0).range(5, 5);
    }

    #[test]
    fn jitter_stays_within_spread() {
        let mut r = DetRng::new(4);
        for _ in 0..200 {
            let v = r.jitter(1_000, 0.2);
            assert!((800..=1200).contains(&v), "{v} outside 20% spread");
        }
    }

    #[test]
    fn jitter_zero_spread_is_identity() {
        let mut r = DetRng::new(4);
        assert_eq!(r.jitter(12345, 0.0), 12345);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(6);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
