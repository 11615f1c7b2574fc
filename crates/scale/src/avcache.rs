//! Batched AV pre-generation cache at the eUDM frontend.
//!
//! Table III's per-registration cost is ~91 enclave transitions — almost
//! all of them the HTTPS connection choreography, not the AKA crypto
//! (§V-B5). Pre-generating a *batch* of AVs per enclave round trip
//! amortises that choreography: one 91-transition call yields B vectors,
//! and the next B−1 authentications for the SUPI are served from VNF
//! memory without entering the enclave at all.
//!
//! Correctness hinges on SQN discipline (TS 33.102). The caller numbers
//! the AVs: one counter per subscriber, which reserves a batch's SQNs
//! when the batch is sent. The cache keeps each subscriber's AVs in the
//! order they were minted, so they are handed out in SQN order, and
//! [`AvCache::purge_where`] drops them wholesale once they are stale (a
//! resynchronisation or a failover) — a stale cached SQN would push the
//! UE straight back into AUTS resync loops.
//!
//! A batch reaches the cache as the module's reply bytes and its AVs are
//! read out of them straight into the SUPI's queue
//! (`shield5g_nf::backend::AvBatch::avs`, which refuses a malformed body
//! before reading any AV, so a refused batch leaves the cache as it was).
//! Keys are inline [`Supi`] values, looked up by the bytes of their text:
//! no parse, and no UTF-8 check per comparison.
//! What still allocates is one storage block per SUPI per cache, sized
//! from the SUPI's first batch, and its growth, at most to
//! `capacity_per_supi`, when a batch lands on AVs still queued; a hit,
//! and a later batch that fits, allocate nothing.

use shield5g_crypto::ident::Supi;
use shield5g_crypto::keys::HeAv;
use shield5g_obs::{hub as obs, labels};
use shield5g_sim::time::SimDuration;
use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};

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
    /// AVs dropped as stale by [`AvCache::purge_where`].
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

/// A cache key: a SUPI, found by the bytes of its text, which order as
/// the `Supi` does.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key(Supi);

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        self.0.as_bytes()
    }
}

/// Per-SUPI FIFO cache of pre-generated HE AVs.
#[derive(Debug, Default)]
pub struct AvCache {
    cfg: AvCacheConfig,
    /// Each SUPI's AVs in SQN order (front = next to hand out).
    entries: BTreeMap<Key, VecDeque<HeAv>>,
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
        match self
            .entries
            .get_mut(supi.as_bytes())
            .and_then(VecDeque::pop_front)
        {
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
    pub(crate) fn pop_uncounted(&mut self, supi: &str) -> Option<HeAv> {
        self.entries
            .get_mut(supi.as_bytes())
            .and_then(VecDeque::pop_front)
    }

    /// Stores a freshly generated batch, its AVs in SQN order behind
    /// those already cached. Overflow beyond the per-SUPI capacity is
    /// truncated from the *newest* end (highest SQNs): the front of the
    /// deque is the next AV to hand out, so dropping from the front
    /// would skip SQNs mid-stream and push UEs into AUTS resync. Only
    /// the AVs that fit are stored, so the queue never grows past the
    /// capacity. A `supi` that is no SUPI's text has no storage: its
    /// AVs count as evicted.
    pub fn put_batch(&mut self, supi: &str, avs: impl IntoIterator<Item = HeAv>) {
        let mut avs = avs.into_iter();
        let cached = match self.entries.get_mut(supi.as_bytes()) {
            Some(cached) => Some(cached),
            // A SUPI's key is parsed on its first batch only.
            None => Supi::parse(supi)
                .ok()
                .map(|key| self.entries.entry(Key(key)).or_default()),
        };
        let mut stored = 0;
        if let Some(cached) = cached {
            let before = cached.len();
            cached.extend(
                avs.by_ref()
                    .take(self.cfg.capacity_per_supi.saturating_sub(before)),
            );
            stored = cached.len() - before;
        }
        let evicted = avs.count();
        self.stats.evicted += evicted as u64;
        self.stats.pregenerated += (stored + evicted) as u64;
    }

    /// Drops every cached AV for the SUPIs selected by `pred` — the
    /// resync and failover path: AVs at or behind the USIM's `SQN_MS`,
    /// or minted by a dead replica, must not be served. Returns AVs
    /// discarded.
    pub fn purge_where(&mut self, pred: impl Fn(&str) -> bool) -> usize {
        let mut dropped = 0;
        for (supi, cached) in &mut self.entries {
            if pred(supi.0.as_str()) {
                dropped += cached.len();
                cached.clear();
            }
        }
        self.stats.invalidated += dropped as u64;
        dropped
    }

    /// Cached AVs currently held for `supi`.
    #[must_use]
    pub(crate) fn depth(&self, supi: &str) -> usize {
        self.entries.get(supi.as_bytes()).map_or(0, VecDeque::len)
    }

    /// Batch size to request on a miss.
    #[must_use]
    pub fn batch_size(&self) -> u32 {
        self.cfg.batch_size
    }

    /// Running statistics.
    #[must_use]
    pub(crate) fn stats(&self) -> CacheStats {
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
    pub(crate) fn new(policy: BrownoutPolicy) -> Self {
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
    pub(crate) fn observe(&mut self, latency: SimDuration) {
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
    use shield5g_nf::backend::{AvBatch, MAX_AV_BATCH};
    use shield5g_nf::wire::Wire;
    use shield5g_nf::NfError;
    use shield5g_sim::codec::Writer;

    const S1: &str = "imsi-001010000000001";
    const S2: &str = "imsi-001010000000002";

    fn av(i: u8) -> HeAv {
        HeAv {
            rand: [i; 16],
            autn: [i; 16],
            xres_star: [i; 16].into(),
            kausf: [i; 32].into(),
        }
    }

    #[test]
    fn miss_then_hits_in_fifo_order() {
        let mut c = AvCache::new(AvCacheConfig::default());
        assert!(c.take(S1).is_none());
        c.put_batch(S1, vec![av(1), av(2), av(3)]);
        assert_eq!(c.take(S1).unwrap(), av(1));
        assert_eq!(c.take(S1).unwrap(), av(2));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.pregenerated), (2, 1, 3));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_supi_capacity_bounds_memory() {
        let mut c = AvCache::new(AvCacheConfig {
            batch_size: 4,
            capacity_per_supi: 5,
        });
        c.put_batch(S1, (0..8).map(av));
        assert_eq!(c.depth(S1), 5);
        // Overflow is truncated from the newest end: the front — the
        // next AV handed out — is still AV 0.
        assert_eq!(c.take(S1).unwrap(), av(0));
        let s = c.stats();
        assert_eq!(s.evicted, 3);
        assert_eq!(s.invalidated, 0, "capacity evictions are not resyncs");
    }

    #[test]
    fn over_capacity_put_keeps_served_sqns_consecutive() {
        // Regression: front-eviction used to drop the lowest-SQN AVs so
        // consumption skipped SQNs mid-stream. Model each AV's SQN by
        // its construction index and check the served stream stays
        // consecutive across an over-capacity put_batch.
        let mut c = AvCache::new(AvCacheConfig {
            batch_size: 8,
            capacity_per_supi: 5,
        });
        // Batch carries SQNs 1..=8; only 1..=5 fit.
        c.put_batch(S1, (1..=8).map(av));
        for expect in 1..=5u8 {
            assert_eq!(c.take(S1).unwrap(), av(expect));
        }
        c.put_batch(S1, (6..=9).map(av));
        for expect in 6..=9u8 {
            assert_eq!(c.take(S1).unwrap(), av(expect));
        }
    }

    #[test]
    fn purge_where_drops_only_selected_supis() {
        let mut c = AvCache::new(AvCacheConfig::default());
        c.put_batch(S1, vec![av(1), av(2)]);
        c.put_batch(S2, vec![av(3)]);
        let dropped = c.purge_where(|s| s == S1);
        assert_eq!(dropped, 2);
        assert_eq!(c.depth(S1), 0);
        assert_eq!(c.depth(S2), 1);
    }

    #[test]
    fn supis_are_isolated() {
        let mut c = AvCache::new(AvCacheConfig::default());
        c.put_batch(S1, vec![av(1)]);
        assert!(c.take(S2).is_none());
        assert_eq!(c.take(S1).unwrap(), av(1));
    }

    #[test]
    fn a_refused_batch_leaves_the_cache_as_it_was() {
        let mut c = AvCache::new(AvCacheConfig::default());
        c.put_batch(S1, vec![av(1)]);
        let before = (c.depth(S1), c.stats());
        let valid = AvBatch::from_avs([av(2), av(3)].iter()).encode();
        let mut over = Writer::new();
        over.put_u32(MAX_AV_BATCH + 1);
        let bodies = [
            (over.into_bytes().to_vec(), "a count above the cap"),
            (valid[..valid.len() - 1].to_vec(), "a truncated AV"),
            ([&valid[..], &[0]].concat(), "a trailing byte"),
        ];
        for (body, what) in &bodies {
            match AvBatch::avs(body) {
                Ok(avs) => panic!("{what} accepted: {} AVs", avs.len()),
                Err(NfError::Protocol(_)) => assert_eq!(*what, "a count above the cap"),
                Err(NfError::Sim(_)) => assert_ne!(*what, "a count above the cap"),
                Err(e) => panic!("{what} refused as {e:?}"),
            }
            assert_eq!((c.depth(S1), c.stats()), before, "{what}");
        }
        c.put_batch(S1, AvBatch::avs(&valid).unwrap());
        assert_eq!(c.depth(S1), 3);
        assert_eq!([c.take(S1), c.take(S1)], [Some(av(1)), Some(av(2))]);
    }

    #[test]
    fn a_key_that_is_no_supi_stores_nothing() {
        let mut c = AvCache::new(AvCacheConfig::default());
        c.put_batch("imsi-1", vec![av(1), av(2)]);
        assert_eq!(c.depth("imsi-1"), 0);
        let s = c.stats();
        assert_eq!((s.pregenerated, s.evicted), (2, 2));
    }
}
