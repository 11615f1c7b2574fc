//! Batched AV pre-generation cache at the eUDM frontend.
//!
//! Table III's per-registration cost is ~91 enclave transitions — almost
//! all of them the HTTPS connection choreography, not the AKA crypto
//! (§V-B5). Pre-generating a *batch* of AVs per enclave round trip
//! amortises that choreography: one 91-transition call yields B vectors,
//! and the next B−1 authentications for the SUPI are served from VNF
//! memory without entering the enclave at all.
//!
//! Correctness hinges on SQN discipline (TS 33.102): cached AVs embed
//! consecutive SQNs, so they must be consumed in order and discarded
//! wholesale whenever the USIM reports a resynchronisation — a stale
//! cached SQN would push the UE straight back into AUTS resync loops.

use shield5g_crypto::keys::HeAv;
use shield5g_nf::backend::sqn_add;
use shield5g_obs::{hub as obs, labels};
use shield5g_sim::time::SimDuration;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Cache parameters.
#[derive(Clone, Copy, Debug)]
pub struct AvCacheConfig {
    /// AVs generated per enclave round trip.
    pub batch_size: u32,
    /// Maximum cached AVs per SUPI (oldest dropped beyond this).
    pub capacity_per_supi: usize,
}

impl Default for AvCacheConfig {
    fn default() -> Self {
        AvCacheConfig {
            batch_size: 8,
            capacity_per_supi: 16,
        }
    }
}

/// Running cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from cache (no enclave transition).
    pub hits: u64,
    /// Requests that triggered a batch generation.
    pub misses: u64,
    /// AVs pre-generated in total.
    pub pregenerated: u64,
    /// AVs dropped by SQN invalidation.
    pub invalidated: u64,
    /// AVs dropped because a batch overflowed the per-SUPI capacity.
    pub evicted: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Default)]
struct SupiEntry {
    /// Pre-generated AVs in SQN order (front = next to hand out).
    avs: VecDeque<HeAv>,
    /// SQN the *next* generated batch must start at.
    next_sqn: [u8; 6],
}

/// Per-SUPI FIFO cache of pre-generated HE AVs.
#[derive(Debug, Default)]
pub struct AvCache {
    cfg: AvCacheConfig,
    entries: BTreeMap<String, SupiEntry>,
    stats: CacheStats,
}

impl AvCache {
    /// An empty cache.
    #[must_use]
    pub fn new(cfg: AvCacheConfig) -> Self {
        AvCache {
            cfg,
            entries: BTreeMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Takes the next cached AV for `supi`, oldest SQN first. `None`
    /// counts as a miss; the caller should generate a batch and
    /// [`AvCache::put_batch`] it.
    pub fn take(&mut self, supi: &str) -> Option<HeAv> {
        match self.entries.get_mut(supi).and_then(|e| e.avs.pop_front()) {
            Some(av) => {
                self.stats.hits += 1;
                Some(av)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Pops the next AV without touching the hit/miss statistics — the
    /// miss path uses this to consume the first AV of the batch it just
    /// generated (that request already counted as the miss).
    pub fn pop_uncounted(&mut self, supi: &str) -> Option<HeAv> {
        self.entries.get_mut(supi).and_then(|e| e.avs.pop_front())
    }

    /// The SQN a new batch for `supi` must start at.
    #[must_use]
    pub fn next_sqn(&self, supi: &str) -> [u8; 6] {
        self.entries
            .get(supi)
            .map_or([0, 0, 0, 0, 0, 1], |e| e.next_sqn)
    }

    /// Stores a freshly generated batch whose first AV carries
    /// [`AvCache::next_sqn`]; advances the SQN window past the AVs
    /// actually retained. Overflow beyond the per-SUPI capacity is
    /// truncated from the *newest* end (highest SQNs): the front of the
    /// deque is the next AV to hand out, so dropping from the front
    /// would skip SQNs mid-stream and push UEs into AUTS resync. The
    /// window restarts at the first evicted SQN so the next batch
    /// regenerates it.
    pub fn put_batch(&mut self, supi: &str, avs: Vec<HeAv>) {
        let count = avs.len() as u64;
        // The key is allocated on a SUPI's first batch only.
        let entry = match self.entries.get_mut(supi) {
            Some(entry) => entry,
            None => self.entries.entry(supi.to_owned()).or_default(),
        };
        if entry.next_sqn == [0; 6] {
            entry.next_sqn = [0, 0, 0, 0, 0, 1];
        }
        let before = entry.avs.len();
        entry.avs.extend(avs);
        let evicted = entry.avs.len().saturating_sub(self.cfg.capacity_per_supi);
        entry.avs.truncate(self.cfg.capacity_per_supi);
        let accepted = (entry.avs.len() - before) as u64;
        entry.next_sqn = sqn_add(&entry.next_sqn, accepted);
        self.stats.evicted += evicted as u64;
        self.stats.pregenerated += count;
    }

    /// SQN-aware invalidation: the USIM reported `SQN_MS` via AUTS
    /// resync, so every cached AV for `supi` is stale. Drops them and
    /// restarts the window just past the USIM's counter. Returns the
    /// number of AVs discarded.
    pub fn invalidate(&mut self, supi: &str, sqn_ms: &[u8; 6]) -> usize {
        // Only existing entries: an AUTS naming an unknown/spoofed SUPI
        // must not allocate cache state (unbounded map growth otherwise).
        let Some(entry) = self.entries.get_mut(supi) else {
            return 0;
        };
        let dropped = entry.avs.len();
        entry.avs.clear();
        entry.next_sqn = sqn_add(sqn_ms, 1);
        self.stats.invalidated += dropped as u64;
        dropped
    }

    /// Drops every cached AV for the SUPIs selected by `pred` — the
    /// failover path: AVs pre-generated by a dead replica must not be
    /// served by its successor (their SQN windows would interleave).
    /// Entries stay so the SQN window survives; returns AVs discarded.
    pub fn purge_where(&mut self, pred: impl Fn(&str) -> bool) -> usize {
        let mut dropped = 0;
        for (supi, entry) in &mut self.entries {
            if pred(supi) {
                dropped += entry.avs.len();
                entry.avs.clear();
            }
        }
        self.stats.invalidated += dropped as u64;
        dropped
    }

    /// Cached AVs currently held for `supi`.
    #[must_use]
    pub fn depth(&self, supi: &str) -> usize {
        self.entries.get(supi).map_or(0, |e| e.avs.len())
    }

    /// Batch size to request on a miss.
    #[must_use]
    pub fn batch_size(&self) -> u32 {
        self.cfg.batch_size
    }

    /// Running statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Brownout trigger thresholds (hysteresis on the client-observed
/// response-latency EWMA).
#[derive(Clone, Copy, Debug)]
pub struct BrownoutPolicy {
    /// Enter brownout when the latency EWMA exceeds this.
    pub enter_above: SimDuration,
    /// Exit once the EWMA falls below `exit_fraction * enter_above`
    /// (strictly below the entry threshold, so the mode doesn't
    /// flap at the boundary).
    pub exit_fraction: f64,
    /// EWMA smoothing factor.
    pub alpha: f64,
}

impl Default for BrownoutPolicy {
    fn default() -> Self {
        BrownoutPolicy {
            enter_above: SimDuration::from_millis(5),
            exit_fraction: 0.7,
            alpha: 0.3,
        }
    }
}

/// The frontend's brownout mode: while [`Brownout::active`], batch
/// prefetching is off — each miss pays one single-AV round trip and
/// hits are served from what the cache already banked.
#[derive(Clone, Copy, Debug)]
pub struct Brownout {
    policy: BrownoutPolicy,
    /// Response-latency EWMA in nanoseconds (the trigger signal), once
    /// a pool round trip was observed.
    pub latency_ewma_ns: Option<f64>,
    /// Whether prefetching is currently disabled.
    pub active: bool,
    /// Times the mode was entered.
    pub entries: u64,
    /// Times the mode was exited.
    pub exits: u64,
}

impl Brownout {
    /// Prefetching on, nothing observed yet.
    #[must_use]
    pub fn new(policy: BrownoutPolicy) -> Self {
        Brownout {
            policy,
            latency_ewma_ns: None,
            active: false,
            entries: 0,
            exits: 0,
        }
    }

    /// Folds one observed pool round trip into the EWMA and switches
    /// the mode with hysteresis.
    pub fn observe(&mut self, latency: SimDuration) {
        let sample = latency.as_nanos() as f64;
        let ewma = match self.latency_ewma_ns {
            Some(e) => self.policy.alpha * sample + (1.0 - self.policy.alpha) * e,
            None => sample,
        };
        self.latency_ewma_ns = Some(ewma);
        let enter = self.policy.enter_above.as_nanos() as f64;
        if !self.active && ewma > enter {
            self.active = true;
            self.entries += 1;
            obs::count("faults", "brownout", labels::BROWNOUT_ENTRIES, 1);
        } else if self.active && ewma < self.policy.exit_fraction * enter {
            self.active = false;
            self.exits += 1;
            obs::count("faults", "brownout", labels::BROWNOUT_EXITS, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn av(i: u8) -> HeAv {
        HeAv {
            rand: [i; 16],
            autn: [i; 16],
            xres_star: [i; 16],
            kausf: [i; 32].into(),
        }
    }

    #[test]
    fn miss_then_hits_in_fifo_order() {
        let mut c = AvCache::new(AvCacheConfig::default());
        assert!(c.take("imsi-1").is_none());
        c.put_batch("imsi-1", vec![av(1), av(2), av(3)]);
        assert_eq!(c.take("imsi-1").unwrap(), av(1));
        assert_eq!(c.take("imsi-1").unwrap(), av(2));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.pregenerated), (2, 1, 3));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sqn_window_advances_per_batch() {
        let mut c = AvCache::new(AvCacheConfig::default());
        assert_eq!(c.next_sqn("imsi-1"), [0, 0, 0, 0, 0, 1]);
        c.put_batch("imsi-1", vec![av(1); 8]);
        assert_eq!(c.next_sqn("imsi-1"), [0, 0, 0, 0, 0, 9]);
        c.put_batch("imsi-1", vec![av(2); 8]);
        assert_eq!(c.next_sqn("imsi-1"), [0, 0, 0, 0, 0, 17]);
    }

    #[test]
    fn resync_drops_cache_and_restarts_window() {
        let mut c = AvCache::new(AvCacheConfig::default());
        c.put_batch("imsi-1", vec![av(1), av(2)]);
        let dropped = c.invalidate("imsi-1", &[0, 0, 0, 0, 1, 0]);
        assert_eq!(dropped, 2);
        assert_eq!(c.depth("imsi-1"), 0);
        assert_eq!(c.next_sqn("imsi-1"), [0, 0, 0, 0, 1, 1]);
        assert!(c.take("imsi-1").is_none(), "stale AVs must not survive");
        assert_eq!(c.stats().invalidated, 2);
    }

    #[test]
    fn per_supi_capacity_bounds_memory() {
        let mut c = AvCache::new(AvCacheConfig {
            batch_size: 4,
            capacity_per_supi: 5,
        });
        c.put_batch("imsi-1", (0..8).map(av).collect());
        assert_eq!(c.depth("imsi-1"), 5);
        // Overflow is truncated from the newest end: the front — the
        // next AV handed out — is still AV 0.
        assert_eq!(c.take("imsi-1").unwrap(), av(0));
        let s = c.stats();
        assert_eq!(s.evicted, 3);
        assert_eq!(s.invalidated, 0, "capacity evictions are not resyncs");
    }

    #[test]
    fn over_capacity_put_keeps_served_sqns_consecutive() {
        // Regression: front-eviction used to drop the lowest-SQN AVs so
        // consumption skipped SQNs mid-stream. Model each AV's SQN by
        // its construction index and check the served stream + the SQN
        // window stay consecutive across an over-capacity put_batch.
        let mut c = AvCache::new(AvCacheConfig {
            batch_size: 8,
            capacity_per_supi: 5,
        });
        // Batch carries SQNs 1..=8; only 1..=5 fit.
        c.put_batch("imsi-1", (1..=8).map(av).collect());
        for expect in 1..=5u8 {
            assert_eq!(c.take("imsi-1").unwrap(), av(expect));
        }
        // The window restarted at the first evicted SQN (6), so the next
        // batch regenerates it and the stream continues 6, 7, ...
        assert_eq!(c.next_sqn("imsi-1"), [0, 0, 0, 0, 0, 6]);
        c.put_batch("imsi-1", (6..=9).map(av).collect());
        for expect in 6..=9u8 {
            assert_eq!(c.take("imsi-1").unwrap(), av(expect));
        }
    }

    #[test]
    fn invalidate_unknown_supi_allocates_nothing() {
        let mut c = AvCache::new(AvCacheConfig::default());
        c.put_batch("imsi-1", vec![av(1)]);
        assert_eq!(c.invalidate("imsi-spoofed", &[0, 0, 0, 0, 9, 9]), 0);
        // No entry was created: the spoofed SUPI still reports the
        // default starting SQN and the known SUPI is untouched.
        assert_eq!(c.next_sqn("imsi-spoofed"), [0, 0, 0, 0, 0, 1]);
        assert_eq!(c.depth("imsi-1"), 1);
        assert_eq!(c.stats().invalidated, 0);
    }

    #[test]
    fn purge_where_drops_only_selected_supis() {
        let mut c = AvCache::new(AvCacheConfig::default());
        c.put_batch("imsi-1", vec![av(1), av(2)]);
        c.put_batch("imsi-2", vec![av(3)]);
        let dropped = c.purge_where(|s| s == "imsi-1");
        assert_eq!(dropped, 2);
        assert_eq!(c.depth("imsi-1"), 0);
        assert_eq!(c.depth("imsi-2"), 1);
        // SQN window survives the purge.
        assert_eq!(c.next_sqn("imsi-1"), [0, 0, 0, 0, 0, 3]);
    }

    #[test]
    fn supis_are_isolated() {
        let mut c = AvCache::new(AvCacheConfig::default());
        c.put_batch("imsi-1", vec![av(1)]);
        assert!(c.take("imsi-2").is_none());
        assert_eq!(c.take("imsi-1").unwrap(), av(1));
        c.invalidate("imsi-1", &[0; 6]);
        assert_eq!(c.next_sqn("imsi-2"), [0, 0, 0, 0, 0, 1]);
    }
}
