//! The metrics registry: counters, gauges, and log-linear histograms
//! keyed by `(nf, endpoint, label)`.
//!
//! Storage is `BTreeMap`-only so iteration order — and therefore every
//! exporter's output — is a pure function of what was recorded, never of
//! hash seeds. Histogram buckets are log-linear (16 linear sub-buckets
//! per power of two), bounding the relative quantile error at ~6% while
//! keeping memory flat regardless of sample count.

use std::collections::{BTreeMap, BTreeSet};

/// Identifies one time series: which network function, which endpoint
/// (address or path), and what is being measured.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Owning component (`amf`, `ausf`, `hmee`, `pool`, …).
    pub nf: String,
    /// Endpoint, address, or instance within the component.
    pub endpoint: String,
    /// What is measured (`requests`, `queue_wait_ns`, `eenter`, …).
    pub label: String,
}

impl Key {
    /// Builds a key from its three parts.
    #[must_use]
    pub(crate) fn new(nf: &str, endpoint: &str, label: &str) -> Key {
        Key {
            nf: nf.to_owned(),
            endpoint: endpoint.to_owned(),
            label: label.to_owned(),
        }
    }
}

/// Number of linear sub-buckets per power of two (2^4 = 16).
const SUB_BITS: u32 = 4;

/// A log-linear histogram over `u64` samples (virtual-time nanoseconds,
/// counts, depths). Values below 16 get exact buckets; above that, each
/// power of two is split into 16 linear sub-buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index of a value.
fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let mag = 63 - v.leading_zeros();
    let shift = mag - SUB_BITS;
    let sub = ((v >> shift) & ((1 << SUB_BITS) - 1)) as usize;
    ((mag - SUB_BITS) as usize + 1) * (1 << SUB_BITS) + sub
}

/// Lower bound of the value range covered by a bucket, saturating at
/// `u64::MAX`. Saturation matters for exactly one caller pattern:
/// `bucket_floor(bucket_index(u64::MAX) + 1)` names the upper edge of
/// the last reachable bucket, which sits at 2^64 — a plain `u64` shift
/// there silently wraps to 0 and would corrupt every quantile read on a
/// histogram holding near-`u64::MAX` samples.
fn bucket_floor(index: usize) -> u64 {
    let per = 1usize << SUB_BITS;
    if index < per {
        return index as u64;
    }
    let octave = (index / per) as u32 - 1;
    let sub = (index % per) as u64;
    let lo = (u128::from(per as u64) + u128::from(sub)) << octave;
    u64::try_from(lo).unwrap_or(u64::MAX)
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    #[must_use]
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean (zero when empty).
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Bucket-approximate value of the 0-based `rank`-th sample in
    /// sorted order: the representative of the bucket holding it (the
    /// exact value for unit-width buckets below 16, the midpoint
    /// otherwise), clamped to the observed `[min, max]`.
    fn rank_value(&self, rank: u64) -> u64 {
        // Endpoint ranks are exact: the histogram tracks the true
        // min/max, matching `Summary` (where q=0 and q=1 are exact).
        if rank == 0 {
            return self.min;
        }
        if rank + 1 >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                let lo = bucket_floor(idx);
                let hi = bucket_floor(idx + 1);
                let mid = if hi - lo <= 1 { lo } else { lo + (hi - lo) / 2 };
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Approximate value at quantile `q` in `[0, 1]`, using the same
    /// linear-interpolation definition as `shield5g_core::stats::Summary`
    /// (NumPy/R type 7): the fractional rank `q·(count−1)` interpolates
    /// between the two straddling samples' bucket representatives.
    /// Exact for samples below 16 (unit-width buckets); otherwise the
    /// relative error is bounded by the bucket width (≤ 1/16 of the
    /// value).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let pos = q.clamp(0.0, 1.0) * (self.count - 1) as f64;
        let lo_rank = pos.floor() as u64;
        let hi_rank = pos.ceil() as u64;
        let lo = self.rank_value(lo_rank);
        let v = if lo_rank == hi_rank {
            lo as f64
        } else {
            let hi = self.rank_value(hi_rank);
            let frac = pos - lo_rank as f64;
            lo as f64 * (1.0 - frac) + hi as f64 * frac
        };
        (v.round() as u64).clamp(self.min, self.max)
    }

    /// Pools another histogram's samples into this one (bucket-wise
    /// addition; min/max/count/sum fold exactly).
    pub(crate) fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &n) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += n;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The same statistic set as `shield5g_core::stats::Summary`
    /// (count, min, p25, median, p75, p95, p99, max, mean), extracted
    /// from the buckets.
    #[must_use]
    pub(crate) fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            min: self.min,
            p25: self.quantile(0.25),
            median: self.quantile(0.50),
            p75: self.quantile(0.75),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
            mean: self.mean(),
        }
    }
}

/// `Summary`-compatible statistics extracted from a [`Histogram`]:
/// the same fields the paper's box plots and tables report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact minimum.
    pub min: u64,
    /// First quartile (bucket-approximate).
    pub p25: u64,
    /// Median (bucket-approximate).
    pub median: u64,
    /// Third quartile (bucket-approximate).
    pub p75: u64,
    /// 95th percentile (bucket-approximate).
    pub p95: u64,
    /// 99th percentile (bucket-approximate).
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
}

/// The registry: every counter, gauge, and histogram of one observed
/// world, keyed by `(nf, endpoint, label)`.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
    /// Gauges that have only ever been touched by `max_gauge`: merging
    /// registries must treat these as high-water marks (raise-only),
    /// while a gauge last written by `set_gauge` is overwritten by the
    /// later context. Without the marker a merge cannot tell the two
    /// apart and would either lose peaks or resurrect stale absolutes.
    max_only: BTreeSet<Key>,
}

impl Registry {
    /// Adds `n` to a counter, creating it at zero first.
    pub(crate) fn add(&mut self, nf: &str, endpoint: &str, label: &str, n: u64) {
        *self
            .counters
            .entry(Key::new(nf, endpoint, label))
            .or_insert(0) += n;
    }

    /// Reads a counter (zero when never touched).
    #[must_use]
    pub fn counter(&self, nf: &str, endpoint: &str, label: &str) -> u64 {
        self.counters
            .get(&Key::new(nf, endpoint, label))
            .copied()
            .unwrap_or(0)
    }

    /// Sets a gauge to an absolute value.
    pub(crate) fn set_gauge(&mut self, nf: &str, endpoint: &str, label: &str, v: f64) {
        let key = Key::new(nf, endpoint, label);
        self.max_only.remove(&key);
        self.gauges.insert(key, v);
    }

    /// Raises a gauge to `v` if `v` exceeds its current value
    /// (high-water marks: peak queue depth, peak pool occupancy).
    pub(crate) fn max_gauge(&mut self, nf: &str, endpoint: &str, label: &str, v: f64) {
        let key = Key::new(nf, endpoint, label);
        match self.gauges.entry(key.clone()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(v);
                self.max_only.insert(key);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                if v > *e.get() {
                    *e.get_mut() = v;
                }
            }
        }
    }

    /// Records a sample into a histogram, creating it first.
    pub(crate) fn observe(&mut self, nf: &str, endpoint: &str, label: &str, v: u64) {
        self.histograms
            .entry(Key::new(nf, endpoint, label))
            .or_default()
            .record(v);
    }

    /// Reads a histogram (`None` when never observed).
    #[must_use]
    pub fn histogram(&self, nf: &str, endpoint: &str, label: &str) -> Option<&Histogram> {
        self.histograms.get(&Key::new(nf, endpoint, label))
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// All gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&Key, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// All histograms in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&Key, &Histogram)> {
        self.histograms.iter()
    }

    /// Folds `other` into this registry, reproducing what one registry
    /// would hold had both recording sequences run against it in order
    /// (this one first): counters add, histograms pool, `max_gauge`-only
    /// gauges raise, and gauges `other` last wrote with `set_gauge`
    /// overwrite.
    pub(crate) fn merge(&mut self, other: Registry) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in other.gauges {
            if other.max_only.contains(&k) {
                match self.gauges.entry(k.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(v);
                        self.max_only.insert(k);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        if v > *e.get() {
                            *e.get_mut() = v;
                        }
                    }
                }
            } else {
                self.max_only.remove(&k);
                self.gauges.insert(k, v);
            }
        }
        for (k, h) in other.histograms {
            self.histograms.entry(k).or_default().merge(&h);
        }
    }
}

#[cfg(test)]
impl Registry {
    /// Reads a gauge (`None` when never set).
    #[must_use]
    pub(crate) fn gauge(&self, nf: &str, endpoint: &str, label: &str) -> Option<f64> {
        self.gauges.get(&Key::new(nf, endpoint, label)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_are_contiguous_and_monotonic() {
        let mut last = bucket_index(0);
        assert_eq!(last, 0);
        for v in 1..10_000u64 {
            let idx = bucket_index(v);
            assert!(idx == last || idx == last + 1, "gap at {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_floor_inverts_index() {
        for idx in 0..200 {
            let lo = bucket_floor(idx);
            assert_eq!(bucket_index(lo), idx, "floor({idx}) = {lo}");
            if idx > 0 {
                assert!(bucket_floor(idx) > bucket_floor(idx - 1));
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for &(q, exact) in &[(0.25, 2_500u64), (0.5, 5_000), (0.95, 9_500), (0.99, 9_900)] {
            let got = h.quantile(q);
            let err = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.07, "q={q}: got {got}, exact {exact}, err {err}");
        }
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 10_000);
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 3, 7, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 15);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary().count, 0);
        assert!((h.mean() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn summary_quantiles_are_ordered() {
        let mut h = Histogram::new();
        for v in [5u64, 90, 900, 17, 44_000, 230, 230, 8] {
            h.record(v);
        }
        let s = h.summary();
        assert!(s.min <= s.p25);
        assert!(s.p25 <= s.median);
        assert!(s.median <= s.p75);
        assert!(s.p75 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = Registry::default();
        r.add("amf", "/ngap", "requests", 2);
        r.add("amf", "/ngap", "requests", 3);
        assert_eq!(r.counter("amf", "/ngap", "requests"), 5);
        assert_eq!(r.counter("amf", "/ngap", "ghost"), 0);

        r.set_gauge("pool", "r0", "depth", 3.0);
        r.max_gauge("pool", "r0", "depth", 1.0);
        assert_eq!(r.gauge("pool", "r0", "depth"), Some(3.0));
        r.max_gauge("pool", "r0", "depth", 9.0);
        assert_eq!(r.gauge("pool", "r0", "depth"), Some(9.0));

        r.observe("udm", "/av", "latency_ns", 1_000);
        r.observe("udm", "/av", "latency_ns", 3_000);
        let h = r.histogram("udm", "/av", "latency_ns").unwrap();
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn registry_iteration_is_key_ordered() {
        let mut r = Registry::default();
        r.add("z", "e", "l", 1);
        r.add("a", "e", "l", 1);
        r.add("m", "e", "l", 1);
        let nfs: Vec<&str> = r.counters().map(|(k, _)| k.nf.as_str()).collect();
        assert_eq!(nfs, ["a", "m", "z"]);
    }

    #[test]
    fn bucket_floor_saturates_past_last_bucket() {
        let last = bucket_index(u64::MAX);
        // The upper edge of the last reachable bucket is 2^64: floor
        // must saturate, not silently shift the bit out to 0.
        assert_eq!(bucket_floor(last + 1), u64::MAX);
        assert!(bucket_floor(last) <= bucket_floor(last + 1));
        assert!(bucket_floor(last) > bucket_floor(last - 1));
    }

    #[test]
    fn quantile_is_safe_near_u64_max() {
        let mut h = Histogram::new();
        for v in [u64::MAX, u64::MAX - 1, u64::MAX / 2] {
            h.record(v);
        }
        // Pre-fix this panicked (debug overflow in the midpoint add) or
        // returned a wrapped-to-tiny value in release.
        for &q in &[0.0, 0.5, 0.95, 1.0] {
            let got = h.quantile(q);
            assert!(got >= u64::MAX / 2, "q={q}: got {got}");
        }
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_merge_pools_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut serial = Histogram::new();
        for v in [3u64, 900, 17] {
            a.record(v);
            serial.record(v);
        }
        for v in [44_000u64, 5, 230] {
            b.record(v);
            serial.record(v);
        }
        a.merge(&b);
        assert_eq!(a, serial);
        // Merging an empty histogram is a no-op.
        a.merge(&Histogram::new());
        assert_eq!(a, serial);
        // Merging into an empty histogram copies.
        let mut empty = Histogram::new();
        empty.merge(&serial);
        assert_eq!(empty, serial);
    }

    #[test]
    fn registry_merge_matches_serial_recording() {
        // Serial reference: one registry sees both recording sequences.
        let mut serial = Registry::default();
        serial.add("amf", "/ngap", "requests", 2);
        serial.set_gauge("pool", "r0", "replicas", 4.0);
        serial.max_gauge("pool", "r0", "peak_depth", 7.0);
        serial.observe("udm", "/av", "latency_ns", 1_000);
        serial.add("amf", "/ngap", "requests", 3);
        serial.set_gauge("pool", "r0", "replicas", 2.0);
        serial.max_gauge("pool", "r0", "peak_depth", 5.0);
        serial.observe("udm", "/av", "latency_ns", 9_000);

        // Parallel shape: two registries, merged in recording order.
        let mut first = Registry::default();
        first.add("amf", "/ngap", "requests", 2);
        first.set_gauge("pool", "r0", "replicas", 4.0);
        first.max_gauge("pool", "r0", "peak_depth", 7.0);
        first.observe("udm", "/av", "latency_ns", 1_000);
        let mut second = Registry::default();
        second.add("amf", "/ngap", "requests", 3);
        second.set_gauge("pool", "r0", "replicas", 2.0);
        second.max_gauge("pool", "r0", "peak_depth", 5.0);
        second.observe("udm", "/av", "latency_ns", 9_000);
        first.merge(second);

        assert_eq!(first.counter("amf", "/ngap", "requests"), 5);
        // set_gauge: the later context's absolute wins (2.0, not 4.0).
        assert_eq!(first.gauge("pool", "r0", "replicas"), Some(2.0));
        // max_gauge: the high-water mark survives (7.0, not 5.0).
        assert_eq!(first.gauge("pool", "r0", "peak_depth"), Some(7.0));
        assert_eq!(
            first.histogram("udm", "/av", "latency_ns").unwrap().count(),
            2
        );
        assert_eq!(
            first.gauge("pool", "r0", "replicas"),
            serial.gauge("pool", "r0", "replicas")
        );
        assert_eq!(
            first.gauge("pool", "r0", "peak_depth"),
            serial.gauge("pool", "r0", "peak_depth")
        );
    }

    #[test]
    fn set_gauge_after_max_gauge_clears_high_water_semantics() {
        // A set_gauge downstream of max_gauge makes the key absolute:
        // a later merge must overwrite, not raise.
        let mut first = Registry::default();
        first.max_gauge("pool", "r0", "depth", 9.0);
        first.set_gauge("pool", "r0", "depth", 9.0);
        let mut second = Registry::default();
        second.set_gauge("pool", "r0", "depth", 1.0);
        first.merge(second);
        assert_eq!(first.gauge("pool", "r0", "depth"), Some(1.0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        /// Over the full u64 range (shift-overflow territory included):
        /// a bucket's floor never exceeds the values it holds, floor
        /// round-trips back to the same bucket, and the bucketing is
        /// monotone.
        #[test]
        fn bucket_floor_bounds_and_monotonicity(v in 0u64..=u64::MAX) {
            let idx = bucket_index(v);
            proptest::prop_assert!(bucket_floor(idx) <= v, "floor({idx}) > {v}");
            proptest::prop_assert_eq!(bucket_index(bucket_floor(idx)), idx);
            if v > 0 {
                proptest::prop_assert!(bucket_index(v - 1) <= idx);
            }
            if v < u64::MAX {
                proptest::prop_assert!(bucket_index(v + 1) >= idx);
                proptest::prop_assert!(bucket_floor(idx + 1) > bucket_floor(idx));
            }
        }

        /// Single-sample histograms: every quantile is the (bucket-
        /// clamped) sample itself, and recording never panics anywhere
        /// in the u64 range.
        #[test]
        fn single_sample_quantiles_are_the_sample(v in 0u64..=u64::MAX, q_pct in 0u64..=100) {
            let mut h = Histogram::new();
            h.record(v);
            proptest::prop_assert_eq!(h.quantile(q_pct as f64 / 100.0), v);
        }
    }
}
