//! The harness's own arithmetic: quantiles, the tail-percentile rule,
//! SLO-ladder selection and the digest of simulated outputs.

/// Linear-interpolation percentile (`p` in 0..=1) of an ascending slice —
/// the same type-7 rule as `core::stats::Summary`, so percentiles the
/// harness computes from raw samples agree with the ones reports carry.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let idx = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - lo as f64)
}

/// First quartile, median and third quartile of unsorted values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        percentile(&sorted, 0.25),
        percentile(&sorted, 0.5),
        percentile(&sorted, 0.75),
    )
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Percentiles a tail latency may be read at, highest first (the ones
/// `core::stats::Summary` carries, so pool reports can serve them too).
pub const TAILS: [f64; 4] = [0.99, 0.95, 0.75, 0.5];

/// The highest of [`TAILS`] that `n` samples support: at least ten
/// samples must lie beyond it. Falls back to the median for tiny `n`.
pub fn tail_percentile(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// One rung of an open-loop rate ladder.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Offered rate, requests per virtual second.
    pub rate_per_s: f64,
    /// Tail latency at that rate, virtual milliseconds.
    pub tail_ms: f64,
    /// (failed + shed + lost) ÷ attempted at that rate.
    pub fail_frac: f64,
}

/// Highest ladder rate that meets both limits *and* whose every lower
/// rate met them too: a rate that passes above one that failed is a
/// lucky draw, not capacity. `None` when the lowest rate already fails.
pub fn slo_rate(ladder: &[Rung], tail_limit_ms: f64, fail_limit: f64) -> Option<f64> {
    debug_assert!(ladder.windows(2).all(|w| w[0].rate_per_s < w[1].rate_per_s));
    ladder
        .iter()
        .take_while(|r| r.tail_ms <= tail_limit_ms && r.fail_frac <= fail_limit)
        .last()
        .map(|r| r.rate_per_s)
}

/// 64-bit FNV-1a over everything a run simulated. Deliberately not one of
/// the program's own hashes: a bug there must not hide in the digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_batches_ignores_one_slow_batch() {
        let mut batches = vec![1.0; 19];
        batches.push(30.0);
        assert_eq!(median(&batches), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 3.0, 4.0));
    }

    #[test]
    fn percentile_matches_summary_interpolation() {
        // core::stats pins p95 of [1..5] at 4.8 (type 7), not 5.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-12);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(6000), 0.99);
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(999), 0.95);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(199), 0.75);
        assert_eq!(tail_percentile(40), 0.75);
        assert_eq!(tail_percentile(39), 0.5);
        assert_eq!(tail_percentile(3), 0.5);
    }

    fn rung(rate_per_s: f64, tail_ms: f64, fail_frac: f64) -> Rung {
        Rung {
            rate_per_s,
            tail_ms,
            fail_frac,
        }
    }

    #[test]
    fn slo_rate_must_hold_at_every_lower_rate() {
        let ladder = [
            rung(2000.0, 5.0, 0.0),
            rung(2400.0, 7.0, 0.0),
            rung(2800.0, 13.0, 0.0), // misses the latency limit
            rung(3200.0, 11.0, 0.0), // passes again: must not count
        ];
        assert_eq!(slo_rate(&ladder, 12.0, 0.005), Some(2400.0));
        // A failure-fraction miss stops the climb just the same.
        let shed = [rung(2000.0, 5.0, 0.0), rung(2400.0, 5.0, 0.006)];
        assert_eq!(slo_rate(&shed, 12.0, 0.005), Some(2000.0));
        // Limits are inclusive; nothing passing yields no rate at all.
        assert_eq!(
            slo_rate(&[rung(2000.0, 12.0, 0.005)], 12.0, 0.005),
            Some(2000.0)
        );
        assert_eq!(slo_rate(&[rung(2000.0, 12.1, 0.0)], 12.0, 0.005), None);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Published FNV-1a 64 vectors: a changed digest function would
        // silently invalidate every recorded baseline digest.
        assert_eq!(Digest::new().value(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::new();
        d.bytes(b"foobar");
        assert_eq!(d.value(), 0x8594_4171_f739_67e8);
        let (mut ab, mut ba) = (Digest::new(), Digest::new());
        ab.u64(1);
        ab.u64(2);
        ba.u64(2);
        ba.u64(1);
        assert_ne!(ab, ba);
    }
}
