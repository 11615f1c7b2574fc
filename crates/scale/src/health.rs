//! Per-replica health tracking for health-gated routing.
//!
//! The consistent-hash ring ([`crate::router::HashRing`]) only knows
//! which replicas *exist*; under the paper's fault model (AEX storms,
//! EPC thrash, injected SBI failures) a replica can be alive yet
//! useless, timing out or erroring on most of what it serves. The
//! [`HealthTracker`] watches every completion the harness observes —
//! success or failure — and drives the same
//! closed → open → half-open machine the middleware breaker uses
//! ([`shield5g_mw::BreakerCore`], keyed by [`ReplicaId`]): a replica
//! whose failure EWMA trips is **ejected** from the ring (traffic routes
//! around it), after the hold-off a single half-open probe tests it, and
//! a probe success **reinstates** it.
//!
//! The tracker is pure bookkeeping — the pool owns the ring, so ring
//! surgery (and the never-empty-the-ring guard) lives in
//! `EnclavePool::note_outcome`. Determinism: `BTreeMap`
//! state, virtual time only, no RNG.

use crate::router::ReplicaId;
use shield5g_mw::{BreakerCore, BreakerDecision, BreakerPolicy, BreakerTransition};
use shield5g_sim::time::SimTime;
use std::collections::BTreeSet;

/// A routing-relevant health transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthEvent {
    /// The replica's failure EWMA tripped: take it off the ring.
    Ejected(ReplicaId),
    /// A half-open probe succeeded: put it back on the ring.
    Reinstated(ReplicaId),
    /// A half-open probe failed: stay off the ring for another hold-off.
    Reopened(ReplicaId),
}

/// EWMA health state across one pool's replicas.
#[derive(Debug)]
pub struct HealthTracker {
    core: BreakerCore<ReplicaId>,
    ejected: BTreeSet<ReplicaId>,
}

impl HealthTracker {
    /// A tracker with no history: every replica starts healthy, and
    /// each trips and recovers by the default [`BreakerPolicy`].
    #[must_use]
    pub(crate) fn new() -> Self {
        HealthTracker {
            core: BreakerCore::new(BreakerPolicy::default()),
            ejected: BTreeSet::new(),
        }
    }

    /// Feed one observed completion for `id`. `ok` is transport-level
    /// success (no 5xx/timeout). Returns [`HealthEvent::Ejected`] when
    /// this outcome trips the replica's circuit.
    pub(crate) fn note(&mut self, id: ReplicaId, ok: bool, now: SimTime) -> Option<HealthEvent> {
        match self.core.on_outcome(&id, false, ok, now) {
            Some(BreakerTransition::Opened) => {
                self.ejected.insert(id);
                Some(HealthEvent::Ejected(id))
            }
            _ => None,
        }
    }

    /// Whether an ejected replica's hold-off has expired and a half-open
    /// probe slot is free. A `true` claims the probe slot: report the
    /// probe's outcome through [`HealthTracker::note_probe`].
    pub(crate) fn due_probe(&mut self, id: ReplicaId, now: SimTime) -> bool {
        self.ejected.contains(&id) && self.core.admit(&id, now) == BreakerDecision::Probe
    }

    /// Feed a probe outcome back. Returns [`HealthEvent::Reinstated`]
    /// on success (put the replica back on the ring) or
    /// [`HealthEvent::Reopened`] on failure.
    pub(crate) fn note_probe(
        &mut self,
        id: ReplicaId,
        ok: bool,
        now: SimTime,
    ) -> Option<HealthEvent> {
        match self.core.on_outcome(&id, true, ok, now) {
            Some(BreakerTransition::Closed) => {
                self.ejected.remove(&id);
                Some(HealthEvent::Reinstated(id))
            }
            Some(BreakerTransition::Reopened) => Some(HealthEvent::Reopened(id)),
            _ => None,
        }
    }

    /// Replicas currently routed around, ascending.
    #[must_use]
    pub(crate) fn ejected(&self) -> Vec<ReplicaId> {
        self.ejected.iter().copied().collect()
    }

    /// Whether `id` is currently ejected.
    #[must_use]
    pub(crate) fn is_ejected(&self, id: ReplicaId) -> bool {
        self.ejected.contains(&id)
    }

    /// Reset `id` to healthy regardless of history (the pool refuses to
    /// eject its last ring member).
    pub(crate) fn force_close(&mut self, id: ReplicaId) {
        self.core.force_close(&id);
        self.ejected.remove(&id);
    }

    /// Drop `id`'s history entirely (killed or retired).
    pub(crate) fn forget(&mut self, id: ReplicaId) {
        self.core.forget(&id);
        self.ejected.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_mw::BreakerState;

    fn tracker() -> HealthTracker {
        HealthTracker::new()
    }

    fn trip(t: &mut HealthTracker, id: ReplicaId, now: SimTime) {
        for _ in 0..8 {
            if t.note(id, false, now).is_some() {
                return;
            }
        }
        panic!("eight straight failures did not eject replica {id}");
    }

    #[test]
    fn sustained_failures_eject() {
        let mut t = tracker();
        let now = SimTime::from_nanos(0);
        trip(&mut t, 3, now);
        assert!(t.is_ejected(3));
        assert_eq!(t.ejected(), vec![3]);
        assert_eq!(t.core.state(&3), BreakerState::Open);
    }

    #[test]
    fn probe_success_reinstates() {
        let mut t = tracker();
        let t0 = SimTime::from_nanos(0);
        trip(&mut t, 1, t0);
        // Not due inside the hold-off.
        assert!(!t.due_probe(1, t0));
        let later = t0 + BreakerPolicy::default().open_for;
        assert!(t.due_probe(1, later));
        // The probe slot is claimed: no second probe until it resolves.
        assert!(!t.due_probe(1, later));
        assert_eq!(
            t.note_probe(1, true, later),
            Some(HealthEvent::Reinstated(1))
        );
        assert!(!t.is_ejected(1));
        assert_eq!(t.core.state(&1), BreakerState::Closed);
    }

    #[test]
    fn probe_failure_keeps_ejected() {
        let mut t = tracker();
        let t0 = SimTime::from_nanos(0);
        trip(&mut t, 1, t0);
        let later = t0 + BreakerPolicy::default().open_for;
        assert!(t.due_probe(1, later));
        assert_eq!(
            t.note_probe(1, false, later),
            Some(HealthEvent::Reopened(1))
        );
        assert!(t.is_ejected(1));
        // Fresh hold-off: not due again until it passes.
        assert!(!t.due_probe(1, later));
        assert!(t.due_probe(1, later + BreakerPolicy::default().open_for));
    }

    #[test]
    fn latency_ewma_tracks_but_never_trips() {
        let mut t = tracker();
        let now = SimTime::from_nanos(0);
        for _ in 0..64 {
            // Successes never trip: the circuit stays closed.
            assert!(t.note(2, true, now).is_none());
        }
        assert_eq!(t.core.state(&2), BreakerState::Closed);
    }

    #[test]
    fn forget_clears_history() {
        let mut t = tracker();
        let now = SimTime::from_nanos(0);
        trip(&mut t, 7, now);
        t.forget(7);
        assert!(!t.is_ejected(7));
        assert_eq!(t.core.state(&7), BreakerState::Closed);
    }
}
