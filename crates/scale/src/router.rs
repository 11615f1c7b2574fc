//! Consistent-hash request routing.
//!
//! P-AKA state is subscriber-scoped: the eUDM's SQN bookkeeping and the
//! AV pre-generation cache are both keyed by SUPI. Routing every request
//! for a SUPI to the *same* replica keeps that state replica-local — no
//! cross-enclave coordination — while growing the ring by one replica
//! remaps only ~K/n of K keys instead of reshuffling everything (which
//! would dump every cached AV and SQN window at once).

use std::collections::BTreeSet;
use std::io::Write as _;

/// Identifier of a pool replica.
pub type ReplicaId = u32;

/// 64-bit FNV-1a with a murmur3-style finaliser — stable and
/// dependency-free. Raw FNV concentrates its entropy in the low bits on
/// short structured strings (SUPIs differ only in their digit suffix),
/// which skews ring placement badly; the avalanche mix spreads it across
/// the full word, which is what the sorted-point binary search compares.
#[must_use]
pub(crate) fn hash64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Ring point of replica `id`'s virtual node `v`: the hash of the label
/// `replica-{id}/vnode-{v}`, spelled into a stack buffer (35 bytes at
/// most).
fn vnode_point(id: ReplicaId, v: u32) -> u64 {
    let mut label = [0u8; 40];
    let mut rest = &mut label[..];
    let _ = write!(rest, "replica-{id}/vnode-{v}");
    let len = 40 - rest.len();
    hash64(&label[..len])
}

/// A consistent-hash ring with virtual nodes.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// Sorted (point, replica) pairs.
    points: Vec<(u64, ReplicaId)>,
    replicas: BTreeSet<ReplicaId>,
    vnodes: u32,
}

impl HashRing {
    /// An empty ring placing `vnodes` virtual nodes per replica.
    ///
    /// # Panics
    ///
    /// Panics when `vnodes == 0`.
    #[must_use]
    pub fn new(vnodes: u32) -> Self {
        assert!(vnodes > 0, "a replica needs at least one virtual node");
        HashRing {
            points: Vec::new(),
            replicas: BTreeSet::new(),
            vnodes,
        }
    }

    /// Adds a replica's virtual nodes; no-op if already present.
    pub fn add(&mut self, id: ReplicaId) {
        if !self.replicas.insert(id) {
            return;
        }
        self.points.reserve(self.vnodes as usize);
        for v in 0..self.vnodes {
            self.points.push((vnode_point(id, v), id));
        }
        self.points.sort_unstable();
    }

    /// Removes a replica's virtual nodes; no-op if absent.
    pub(crate) fn remove(&mut self, id: ReplicaId) {
        if self.replicas.remove(&id) {
            self.points.retain(|&(_, r)| r != id);
        }
    }

    /// Routes a SUPI to its owning replica (clockwise successor of the
    /// key's hash).
    ///
    /// # Panics
    ///
    /// Panics on an empty ring — the pool never routes with zero ready
    /// replicas.
    #[must_use]
    pub fn route(&self, supi: &str) -> ReplicaId {
        assert!(!self.points.is_empty(), "routing on an empty ring");
        let h = hash64(supi.as_bytes());
        let idx = self.points.partition_point(|&(p, _)| p < h);
        self.points[idx % self.points.len()].1
    }

    /// Replicas currently on the ring, ascending.
    #[must_use]
    pub(crate) fn replica_ids(&self) -> Vec<ReplicaId> {
        self.replicas.iter().copied().collect()
    }

    /// Number of replicas on the ring.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.replicas.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(n: u32) -> HashRing {
        let mut ring = HashRing::new(64);
        for id in 0..n {
            ring.add(id);
        }
        ring
    }

    fn keys(n: u32) -> Vec<String> {
        (0..n).map(shield5g_ran::workload::test_supi).collect()
    }

    #[test]
    fn ring_points_are_the_hashes_of_the_vnode_labels() {
        let ring = ring_of(3);
        let mut expected: Vec<(u64, ReplicaId)> = (0..3)
            .flat_map(|id| {
                (0..64).map(move |v| (hash64(format!("replica-{id}/vnode-{v}").as_bytes()), id))
            })
            .collect();
        expected.sort_unstable();
        assert_eq!(ring.points, expected);
        // The longest label a replica id and vnode index can spell fits.
        assert_eq!(
            vnode_point(u32::MAX, u32::MAX),
            hash64(format!("replica-{}/vnode-{}", u32::MAX, u32::MAX).as_bytes())
        );
    }

    #[test]
    fn single_replica_takes_everything() {
        let ring = ring_of(1);
        for supi in keys(50) {
            assert_eq!(ring.route(&supi), 0);
        }
    }

    #[test]
    fn load_spreads_across_replicas() {
        let ring = ring_of(4);
        let mut counts = [0u32; 4];
        for supi in keys(400) {
            counts[ring.route(&supi) as usize] += 1;
        }
        for (id, &c) in counts.iter().enumerate() {
            assert!((40..=200).contains(&c), "replica {id} got {c}/400 keys");
        }
    }

    #[test]
    fn removal_only_moves_the_removed_replicas_keys() {
        let mut ring = ring_of(4);
        let before: Vec<(String, ReplicaId)> = keys(300)
            .into_iter()
            .map(|s| {
                let r = ring.route(&s);
                (s, r)
            })
            .collect();
        ring.remove(2);
        for (supi, owner) in before {
            if owner != 2 {
                assert_eq!(ring.route(&supi), owner, "{supi} moved needlessly");
            } else {
                assert_ne!(ring.route(&supi), 2);
            }
        }
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut ring = ring_of(2);
        let points_before = ring.points.len();
        ring.add(1);
        assert_eq!(ring.points.len(), points_before);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_panics_on_route() {
        let _ = HashRing::new(8).route("imsi-001010000000001");
    }

    #[test]
    fn grow_then_shrink_restores_supi_affinity() {
        // Scale-up followed by retirement of the same replica must return
        // every SUPI to its original owner: per-subscriber SQN windows
        // and cached AVs on the survivors are valid again, not just
        // "some replica's" state. A ring that rebuilt its points on
        // membership change (mod-N, rendezvous-reseeded, …) would fail.
        let mut ring = ring_of(3);
        let before: Vec<(String, ReplicaId)> = keys(300)
            .into_iter()
            .map(|s| {
                let r = ring.route(&s);
                (s, r)
            })
            .collect();
        ring.add(3);
        ring.remove(3);
        for (supi, owner) in before {
            assert_eq!(ring.route(&supi), owner, "{supi} lost its affinity");
        }
    }

    proptest::proptest! {
        /// A fixed ring always routes a SUPI to the same replica —
        /// replica affinity is what keeps SQN state consistent.
        #[test]
        fn routing_is_stable(idx in 0u32..100_000, n in 1u32..12) {
            let ring = ring_of(n);
            let supi = shield5g_ran::workload::test_supi(idx);
            let first = ring.route(&supi);
            proptest::prop_assert!(first < n);
            proptest::prop_assert_eq!(ring.route(&supi), first);
        }

        /// Growing the ring n → n+1 remaps roughly K/(n+1) of K keys; the
        /// bound below is loose (3× the expectation plus slack for vnode
        /// placement variance) but catches any mod-N-style rehash, which
        /// would move ~n/(n+1) of them.
        #[test]
        fn ring_growth_remaps_few_keys(n in 1u32..10, key_seed in 0u32..1_000) {
            const K: u32 = 400;
            let mut ring = ring_of(n);
            let supis: Vec<String> = (0..K)
                .map(|i| shield5g_ran::workload::test_supi(key_seed * K + i))
                .collect();
            let before: Vec<ReplicaId> = supis.iter().map(|s| ring.route(s)).collect();
            ring.add(n);
            let moved = supis
                .iter()
                .zip(&before)
                .filter(|(s, &owner)| ring.route(s) != owner)
                .count();
            let bound = (3.0 * f64::from(K) / f64::from(n + 1)).ceil() as usize + 16;
            proptest::prop_assert!(
                moved <= bound,
                "{moved}/{K} keys moved growing {n}->{} (bound {bound})", n + 1
            );
            // Moved keys must have moved *to* the new replica.
            for (s, &owner) in supis.iter().zip(&before) {
                let now = ring.route(s);
                proptest::prop_assert!(now == owner || now == n);
            }
        }

        /// Retiring a replica n → n−1 moves *only* the retired replica's
        /// keys; every survivor keeps its SUPIs (and therefore its SQN
        /// windows and cached AVs). The retired replica's keys scatter
        /// across the survivors instead of piling onto one successor.
        #[test]
        fn ring_retirement_remaps_only_retired_keys(
            n in 2u32..10,
            victim_pick in 0u32..10,
            key_seed in 0u32..1_000,
        ) {
            const K: u32 = 400;
            let victim = victim_pick % n;
            let mut ring = ring_of(n);
            let supis: Vec<String> = (0..K)
                .map(|i| shield5g_ran::workload::test_supi(key_seed * K + i))
                .collect();
            let before: Vec<ReplicaId> = supis.iter().map(|s| ring.route(s)).collect();
            let victim_keys = before.iter().filter(|&&o| o == victim).count();
            ring.remove(victim);
            let mut moved = 0usize;
            for (s, &owner) in supis.iter().zip(&before) {
                let now = ring.route(s);
                proptest::prop_assert_ne!(now, victim);
                if owner == victim {
                    moved += 1;
                } else {
                    proptest::prop_assert_eq!(now, owner);
                }
            }
            proptest::prop_assert_eq!(moved, victim_keys);
            // With ≥3 survivors and enough orphans, vnode interleaving
            // must scatter them — a single-successor takeover (plain
            // sorted-id fallback) would concentrate every orphan.
            if n >= 4 && victim_keys >= 32 {
                let mut inherited = std::collections::BTreeMap::new();
                for (s, &owner) in supis.iter().zip(&before) {
                    if owner == victim {
                        *inherited.entry(ring.route(s)).or_insert(0u32) += 1;
                    }
                }
                proptest::prop_assert!(
                    inherited.len() >= 2,
                    "all {} orphans of replica {} landed on one successor",
                    victim_keys, victim
                );
            }
        }
    }
}
