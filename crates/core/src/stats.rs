//! Sample statistics for the characterization experiments.
//!
//! The paper reports box plots (median, interquartile range, whiskers)
//! over 500 repetitions (§V-A2); [`Summary`] carries exactly those
//! figures plus mean/stddev for the tables.

use shield5g_sim::time::SimDuration;

/// Summary statistics over a set of duration samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: SimDuration,
    /// First quartile.
    pub p25: SimDuration,
    /// Median.
    pub median: SimDuration,
    /// Third quartile.
    pub p75: SimDuration,
    /// 95th percentile (tail latency under load).
    pub p95: SimDuration,
    /// 99th percentile (tail latency under load).
    pub p99: SimDuration,
    /// Maximum.
    pub max: SimDuration,
    /// Arithmetic mean.
    pub mean: SimDuration,
    /// Population standard deviation.
    pub stddev: SimDuration,
}

impl Summary {
    /// The summary of zero samples: `count == 0`, every statistic zero.
    /// Fault runs can shed 100% of requests, so the empty set is a
    /// reachable, legitimate input — not a caller bug.
    pub const EMPTY: Summary = Summary {
        count: 0,
        min: SimDuration::ZERO,
        p25: SimDuration::ZERO,
        median: SimDuration::ZERO,
        p75: SimDuration::ZERO,
        p95: SimDuration::ZERO,
        p99: SimDuration::ZERO,
        max: SimDuration::ZERO,
        mean: SimDuration::ZERO,
        stddev: SimDuration::ZERO,
    };

    /// Whether this summary covers zero samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Summarises a set of samples; the empty set yields
    /// [`Summary::EMPTY`].
    #[must_use]
    pub fn of(samples: &[SimDuration]) -> Summary {
        Summary::of_in_place(&mut samples.to_vec())
    }

    /// [`Summary::of`] without the copy: sorts `samples` in place.
    #[must_use]
    pub fn of_in_place(samples: &mut [SimDuration]) -> Summary {
        if samples.is_empty() {
            return Summary::EMPTY;
        }
        samples.sort_unstable();
        let sorted: &[SimDuration] = samples;
        let count = sorted.len();
        let ns = |i: usize| sorted[i].as_nanos();
        let pct = |p: f64| -> u64 {
            // Linear interpolation between the two closest ranks (the
            // "linear"/type-7 method of NumPy and R) — NOT nearest-rank:
            // p95 of [1..5] µs is 4.8 µs, not 5 µs. Pinned by
            // `percentile_semantics_are_linear_interpolation` below; the
            // shield5g-obs exporters rely on these exact semantics.
            let idx = p * (count - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            if lo == hi {
                ns(lo)
            } else {
                let frac = idx - lo as f64;
                (ns(lo) as f64 * (1.0 - frac) + ns(hi) as f64 * frac).round() as u64
            }
        };
        let mean = sorted.iter().map(|d| d.as_nanos()).sum::<u64>() as f64 / count as f64;
        let var = sorted
            .iter()
            .map(|d| (d.as_nanos() as f64 - mean).powi(2))
            .sum::<f64>()
            / count as f64;
        Summary {
            count,
            min: sorted[0],
            p25: SimDuration::from_nanos(pct(0.25)),
            median: SimDuration::from_nanos(pct(0.5)),
            p75: SimDuration::from_nanos(pct(0.75)),
            p95: SimDuration::from_nanos(pct(0.95)),
            p99: SimDuration::from_nanos(pct(0.99)),
            max: sorted[count - 1],
            mean: SimDuration::from_nanos(mean.round() as u64),
            stddev: SimDuration::from_nanos(var.sqrt().round() as u64),
        }
    }

    /// Interquartile range.
    #[must_use]
    pub fn iqr(&self) -> SimDuration {
        self.p75 - self.p25
    }

    /// Renders the summary as a JSON object with integer nanosecond
    /// fields — the form the shield5g-obs exporters and the
    /// `BENCH_*.json` emitters embed verbatim.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"min_ns\":{},\"p25_ns\":{},\"p50_ns\":{},\"p75_ns\":{},\
             \"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"stddev_ns\":{}}}",
            self.count,
            self.min.as_nanos(),
            self.p25.as_nanos(),
            self.median.as_nanos(),
            self.p75.as_nanos(),
            self.p95.as_nanos(),
            self.p99.as_nanos(),
            self.max.as_nanos(),
            self.mean.as_nanos(),
            self.stddev.as_nanos(),
        )
    }

    /// Ratio of this summary's median to another's (the paper's "×"
    /// overhead figures). Zero when either side is empty.
    #[must_use]
    pub fn median_ratio_to(&self, baseline: &Summary) -> f64 {
        if baseline.median.as_nanos() == 0 {
            return 0.0;
        }
        self.median.as_nanos() as f64 / baseline.median.as_nanos() as f64
    }

    /// Fraction of samples outside 1.5 IQR whiskers (the paper notes
    /// "less than 5% outliers", §V-A2). Zero for the empty set.
    #[must_use]
    pub fn outlier_fraction(samples: &[SimDuration]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let s = Summary::of(samples);
        let iqr = s.iqr().as_nanos() as f64;
        let lo = s.p25.as_nanos() as f64 - 1.5 * iqr;
        let hi = s.p75.as_nanos() as f64 + 1.5 * iqr;
        let n = samples
            .iter()
            .filter(|d| (d.as_nanos() as f64) < lo || (d.as_nanos() as f64) > hi)
            .count();
        n as f64 / samples.len() as f64
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {} [p25 {}, p75 {}] mean {} (n={})",
            self.median, self.p25, self.p75, self.mean, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn summary_of_known_samples() {
        let samples: Vec<SimDuration> = (1..=5).map(us).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, us(1));
        assert_eq!(s.median, us(3));
        assert_eq!(s.max, us(5));
        assert_eq!(s.mean, us(3));
        assert_eq!(s.p25, us(2));
        assert_eq!(s.p75, us(4));
        assert_eq!(s.iqr(), us(2));
        // Interpolated tail quantiles: index 0.95·4 = 3.8 → 4.8 µs.
        assert_eq!(s.p95, SimDuration::from_nanos(4_800));
        assert_eq!(s.p99, SimDuration::from_nanos(4_960));
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[us(7)]);
        assert_eq!(s.median, us(7));
        assert_eq!(s.min, s.max);
        assert_eq!(s.stddev, SimDuration::ZERO);
    }

    #[test]
    fn empty_is_safe() {
        // Regression: used to panic — reachable once fault injection
        // sheds 100% of a run.
        let s = Summary::of(&[]);
        assert!(s.is_empty());
        assert_eq!(s, Summary::EMPTY);
        assert_eq!(s.count, 0);
        assert_eq!(s.median, SimDuration::ZERO);
        assert_eq!(s.iqr(), SimDuration::ZERO);
        assert_eq!(Summary::outlier_fraction(&[]), 0.0);
        let nonempty = Summary::of(&[us(7)]);
        assert_eq!(nonempty.median_ratio_to(&s), 0.0);
    }

    #[test]
    fn median_ratio() {
        let sgx = Summary::of(&[us(120), us(130), us(140)]);
        let container = Summary::of(&[us(60), us(65), us(70)]);
        let ratio = sgx.median_ratio_to(&container);
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn outlier_fraction_flags_tails() {
        let mut samples: Vec<SimDuration> = (0..99).map(|_| us(50)).collect();
        samples.push(us(5_000));
        let frac = Summary::outlier_fraction(&samples);
        assert!((frac - 0.01).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_handled() {
        let s = Summary::of(&[us(9), us(1), us(5)]);
        assert_eq!(s.min, us(1));
        assert_eq!(s.median, us(5));
        assert_eq!(s.max, us(9));
    }

    #[test]
    fn in_place_sorts_its_samples() {
        let mut samples = [us(9), us(1), us(5), us(1)];
        let s = Summary::of_in_place(&mut samples);
        assert_eq!(samples, [us(1), us(1), us(5), us(9)]);
        assert_eq!(s, Summary::of(&[us(9), us(1), us(5), us(1)]));
        assert_eq!(s.median, us(3));
        assert_eq!(Summary::of_in_place(&mut []), Summary::EMPTY);
    }

    #[test]
    fn display_mentions_median() {
        let s = Summary::of(&[us(3)]);
        assert!(s.to_string().contains("median"));
    }

    #[test]
    fn percentile_semantics_are_linear_interpolation() {
        // Pins the quantile method: linear interpolation between closest
        // ranks, not nearest-rank. Under nearest-rank, p95 of [1..5] µs
        // would be 5 µs and p50 of [1..4] µs would be 2 or 3 µs; the
        // interpolated values differ and exporters depend on them.
        let five: Vec<SimDuration> = (1..=5).map(us).collect();
        let s = Summary::of(&five);
        assert_eq!(s.p95, SimDuration::from_nanos(4_800));
        let four: Vec<SimDuration> = (1..=4).map(us).collect();
        let s = Summary::of(&four);
        assert_eq!(s.median, SimDuration::from_nanos(2_500));
        assert_eq!(s.p25, SimDuration::from_nanos(1_750));
    }

    #[test]
    fn to_json_embeds_every_field_in_nanos() {
        let s = Summary::of(&(1..=5).map(us).collect::<Vec<_>>());
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"count\":5"));
        assert!(json.contains("\"min_ns\":1000"));
        assert!(json.contains("\"p50_ns\":3000"));
        assert!(json.contains("\"p95_ns\":4800"));
        assert!(json.contains("\"max_ns\":5000"));
        assert!(json.contains("\"stddev_ns\":"));
        let empty = Summary::EMPTY.to_json();
        assert!(empty.contains("\"count\":0"));
    }

    proptest::proptest! {
        #[test]
        fn quantiles_are_ordered(samples in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let d: Vec<SimDuration> = samples.iter().map(|&n| SimDuration::from_nanos(n)).collect();
            let s = Summary::of(&d);
            proptest::prop_assert!(s.min <= s.p25);
            proptest::prop_assert!(s.p25 <= s.median);
            proptest::prop_assert!(s.median <= s.p75);
            proptest::prop_assert!(s.p75 <= s.p95);
            proptest::prop_assert!(s.p95 <= s.p99);
            proptest::prop_assert!(s.p99 <= s.max);
            proptest::prop_assert!(s.mean >= s.min && s.mean <= s.max);
        }

        #[test]
        fn summary_is_permutation_invariant(samples in proptest::collection::vec(0u64..1_000_000, 1..50)) {
            let d: Vec<SimDuration> = samples.iter().map(|&n| SimDuration::from_nanos(n)).collect();
            let mut reversed = d.clone();
            reversed.reverse();
            proptest::prop_assert_eq!(Summary::of(&d), Summary::of(&reversed));
        }
    }
}
