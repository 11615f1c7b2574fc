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
//! Every SUPI's AVs share one slot store: blocks of `BLOCK` slots, each
//! slot one AV and a link, made one at a time and never moved. A SUPI's
//! queue is a FIFO linked through its slots. A slot whose AV is handed
//! out, popped or purged is wiped and goes onto a free list, which the
//! next batch of any SUPI takes from. What still allocates is a new
//! block, made only when every slot is in use, and a B-tree node when a
//! SUPI's key is first seen; a hit, and a batch that finds free slots,
//! allocate nothing.

use shield5g_crypto::ident::Supi;
use shield5g_crypto::keys::HeAv;
use shield5g_obs::{hub as obs, labels};
use shield5g_sim::time::SimDuration;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::mem;

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

/// Slots per storage block: one allocation, made when no slot is free.
const BLOCK: u32 = 256;

/// The end of a slot list.
const NIL: u32 = u32::MAX;

/// One AV's storage. `next` links the slot to the next-newer AV of its
/// SUPI's queue while it holds one, and to the next free slot once it
/// is released.
#[derive(Debug)]
struct Slot {
    av: HeAv,
    next: u32,
}

/// One SUPI's FIFO in the slot store: its oldest (`head`, the next to
/// hand out) and newest (`tail`) slots, and how many AVs it holds.
/// `head` and `tail` mean nothing while `len` is 0.
#[derive(Debug, Default)]
struct Queue {
    head: u32,
    tail: u32,
    len: u32,
}

/// An AV of zero bytes: what a free slot holds.
fn wiped() -> HeAv {
    HeAv {
        rand: [0; 16],
        autn: [0; 16],
        xres_star: [0; 16].into(),
        kausf: [0; 32].into(),
    }
}

/// The slot store every SUPI's queue is linked through.
#[derive(Debug)]
struct Slots {
    /// Fixed blocks of `BLOCK` slots; slot `i` is in block `i / BLOCK`.
    /// A block is never moved or reallocated.
    blocks: Vec<Box<[Slot]>>,
    /// The first free slot, or `NIL`: released slots, newest first,
    /// then the unused rest of the newest block.
    free: u32,
}

impl Slots {
    fn slot(&mut self, i: u32) -> &mut Slot {
        &mut self.blocks[(i / BLOCK) as usize][(i % BLOCK) as usize]
    }

    /// Appends `av` to `queue`, in a free slot, or in a new block when
    /// none is free.
    fn push(&mut self, queue: &mut Queue, av: HeAv) {
        if self.free == NIL {
            let base = self.blocks.len() as u32 * BLOCK;
            self.blocks.push(
                (1..=BLOCK)
                    .map(|i| Slot {
                        av: wiped(),
                        next: if i < BLOCK { base + i } else { NIL },
                    })
                    .collect(),
            );
            self.free = base;
        }
        let i = self.free;
        let slot = self.slot(i);
        slot.av = av;
        self.free = mem::replace(&mut slot.next, NIL);
        if queue.len == 0 {
            queue.head = i;
        } else {
            self.slot(queue.tail).next = i;
        }
        queue.tail = i;
        queue.len += 1;
    }

    /// Takes `queue`'s oldest AV out of its slot, which is wiped and
    /// freed: the store keeps no copy of a key it handed out.
    fn pop(&mut self, queue: &mut Queue) -> Option<HeAv> {
        if queue.len == 0 {
            return None;
        }
        let (i, free) = (queue.head, self.free);
        let slot = self.slot(i);
        let av = mem::replace(&mut slot.av, wiped());
        queue.head = mem::replace(&mut slot.next, free);
        queue.len -= 1;
        self.free = i;
        Some(av)
    }
}

/// Per-SUPI FIFO cache of pre-generated HE AVs.
#[derive(Debug)]
pub struct AvCache {
    cfg: AvCacheConfig,
    /// Each SUPI's queue of AVs in SQN order, in `slots`.
    entries: BTreeMap<Key, Queue>,
    /// The AVs of every SUPI, in one store.
    slots: Slots,
    stats: CacheStats,
}

impl AvCache {
    /// An empty cache.
    #[must_use]
    pub fn new(cfg: AvCacheConfig) -> Self {
        AvCache {
            cfg,
            entries: BTreeMap::new(),
            slots: Slots {
                blocks: Vec::new(),
                free: NIL,
            },
            stats: CacheStats::default(),
        }
    }

    /// Takes the next cached AV for `supi`, oldest SQN first. `None`
    /// counts as a miss; the caller should generate a batch and
    /// [`AvCache::put_batch`] it.
    pub fn take(&mut self, supi: &str) -> Option<HeAv> {
        match self.pop_uncounted(supi) {
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
        let queue = self.entries.get_mut(supi.as_bytes())?;
        self.slots.pop(queue)
    }

    /// Stores a freshly generated batch, its AVs in SQN order behind
    /// those already cached. Overflow beyond the per-SUPI capacity is
    /// truncated from the *newest* end (highest SQNs): the front of the
    /// queue is the next AV to hand out, so dropping from the front
    /// would skip SQNs mid-stream and push UEs into AUTS resync. Only
    /// the AVs that fit are stored, so the queue never grows past the
    /// capacity. A `supi` that is no SUPI's text has no storage: its
    /// AVs count as evicted.
    pub fn put_batch(&mut self, supi: &str, avs: impl IntoIterator<Item = HeAv>) {
        let mut avs = avs.into_iter();
        let queue = match self.entries.get_mut(supi.as_bytes()) {
            Some(queue) => Some(queue),
            // A SUPI's key is parsed on its first batch only.
            None => Supi::parse(supi)
                .ok()
                .map(|key| self.entries.entry(Key(key)).or_default()),
        };
        let mut stored = 0;
        if let Some(queue) = queue {
            let room = self
                .cfg
                .capacity_per_supi
                .saturating_sub(queue.len as usize);
            for av in avs.by_ref().take(room) {
                self.slots.push(queue, av);
                stored += 1;
            }
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
        for (supi, queue) in &mut self.entries {
            if pred(supi.0.as_str()) {
                while self.slots.pop(queue).is_some() {
                    dropped += 1;
                }
            }
        }
        self.stats.invalidated += dropped as u64;
        dropped
    }

    /// Cached AVs currently held for `supi`.
    #[must_use]
    pub(crate) fn depth(&self, supi: &str) -> usize {
        self.entries
            .get(supi.as_bytes())
            .map_or(0, |queue| queue.len as usize)
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

/// Brownout exits once the latency EWMA falls below this fraction of the
/// entry threshold: strictly below it, so the mode doesn't flap at the
/// boundary.
const EXIT_FRACTION: f64 = 0.7;
/// Smoothing factor of the brownout's latency EWMA.
const ALPHA: f64 = 0.3;

/// The frontend's brownout mode: while [`Brownout::active`], batch
/// prefetching is off — each miss pays one single-AV round trip and
/// hits are served from what the cache already banked.
#[derive(Clone, Copy, Debug)]
pub struct Brownout {
    /// Enter brownout when the latency EWMA exceeds this.
    enter_above: SimDuration,
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
    pub(crate) fn new(enter_above: SimDuration) -> Self {
        Brownout {
            enter_above,
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
            Some(e) => ALPHA * sample + (1.0 - ALPHA) * e,
            None => sample,
        };
        self.latency_ewma_ns = Some(ewma);
        let enter = self.enter_above.as_nanos() as f64;
        if !self.active && ewma > enter {
            self.active = true;
            self.entries += 1;
            obs::count("faults", "brownout", labels::BROWNOUT_ENTRIES, 1);
        } else if self.active && ewma < EXIT_FRACTION * enter {
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
    use std::collections::VecDeque;

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

    /// An AV told apart from every other by `n`.
    fn numbered(n: u32) -> HeAv {
        let mut av = av(n as u8);
        av.rand[..4].copy_from_slice(&n.to_le_bytes());
        av
    }

    fn supi(i: u32) -> String {
        format!("imsi-00101{i:010}")
    }

    /// The cache as it was before the slot store, one `VecDeque` per
    /// SUPI: the oracle the store is checked against.
    struct Model {
        cfg: AvCacheConfig,
        entries: BTreeMap<Key, VecDeque<HeAv>>,
        stats: CacheStats,
    }

    impl Model {
        fn take(&mut self, supi: &str) -> Option<HeAv> {
            let av = self.pop_uncounted(supi);
            if av.is_some() {
                self.stats.hits += 1;
            } else {
                self.stats.misses += 1;
            }
            av
        }

        fn pop_uncounted(&mut self, supi: &str) -> Option<HeAv> {
            self.entries
                .get_mut(supi.as_bytes())
                .and_then(VecDeque::pop_front)
        }

        fn put_batch(&mut self, supi: &str, avs: impl IntoIterator<Item = HeAv>) {
            let mut avs = avs.into_iter();
            let cached = match self.entries.get_mut(supi.as_bytes()) {
                Some(cached) => Some(cached),
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

        fn purge_where(&mut self, pred: impl Fn(&str) -> bool) -> usize {
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

        fn depth(&self, supi: &str) -> usize {
            self.entries.get(supi.as_bytes()).map_or(0, VecDeque::len)
        }
    }

    proptest::proptest! {
        /// Any sequence of batches, takes, pops and purges, on up to six
        /// SUPIs and on a key that is no SUPI, hands out the same AVs,
        /// leaves the same depths and counts the same statistics in the
        /// slot store as in one `VecDeque` per SUPI.
        #[test]
        fn the_slot_store_is_the_deque_cache(
            ops in proptest::collection::vec(0u32.., 0..64),
            small in 0u8..2,
        ) {
            let cfg = AvCacheConfig {
                batch_size: 8,
                capacity_per_supi: if small == 1 { 5 } else { 16 },
            };
            let mut cache = AvCache::new(cfg);
            let mut model = Model {
                cfg,
                entries: BTreeMap::new(),
                stats: CacheStats::default(),
            };
            // Keys 0..6 are SUPIs; key 6 is text that is no SUPI's.
            let keys: Vec<String> = (1..=6).map(supi).chain(["imsi-1".into()]).collect();
            let mut minted = 0;
            for op in ops {
                let key = &keys[(op / 4 % 7) as usize];
                match op % 4 {
                    0 => {
                        let count = op / 28 % 11;
                        let batch = minted..minted + count;
                        minted += count;
                        cache.put_batch(key, batch.clone().map(numbered));
                        model.put_batch(key, batch.map(numbered));
                    }
                    1 => proptest::prop_assert_eq!(cache.take(key), model.take(key)),
                    2 => proptest::prop_assert_eq!(
                        cache.pop_uncounted(key),
                        model.pop_uncounted(key)
                    ),
                    _ => {
                        let chosen = |s: &str| {
                            keys.iter()
                                .position(|k| k == s)
                                .is_some_and(|i| op >> (2 + i) & 1 == 1)
                        };
                        proptest::prop_assert_eq!(
                            cache.purge_where(chosen),
                            model.purge_where(chosen)
                        );
                    }
                }
                for key in &keys {
                    proptest::prop_assert_eq!(cache.depth(key), model.depth(key));
                }
                proptest::prop_assert_eq!(cache.stats(), model.stats);
            }
        }
    }

    #[test]
    fn every_free_slot_is_wiped() {
        let mut c = AvCache::new(AvCacheConfig::default());
        let supis: Vec<String> = (1..=40).map(supi).collect();
        for (k, s) in (0..).zip(&supis) {
            c.put_batch(s, (16 * k..16 * k + 16).map(numbered));
        }
        // 640 AVs fill two blocks and part of a third.
        assert_eq!(c.slots.blocks.len(), 3);
        for s in &supis[..10] {
            assert!(c.take(s).is_some() && c.take(s).is_some());
        }
        for s in &supis[10..20] {
            assert!(c.pop_uncounted(s).is_some());
        }
        assert_eq!(c.purge_where(|s| supis[20..30].iter().any(|p| p == s)), 160);
        let mut free = 0;
        let mut i = c.slots.free;
        while i != NIL {
            let slot = c.slots.slot(i);
            assert!(slot.av == wiped(), "free slot {i} holds key bytes");
            i = slot.next;
            free += 1;
        }
        let live: usize = supis.iter().map(|s| c.depth(s)).sum();
        assert_eq!((live, free + live), (450, 3 * BLOCK as usize));
        // A released slot serves the next batch, behind the queued AVs.
        c.put_batch(&supis[0], [numbered(1000), numbered(1001)]);
        let served: Vec<HeAv> = std::iter::from_fn(|| c.take(&supis[0])).collect();
        let expect: Vec<HeAv> = (2..16).chain([1000, 1001]).map(numbered).collect();
        assert_eq!(served, expect);
        assert_eq!(c.slots.blocks.len(), 3);
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
