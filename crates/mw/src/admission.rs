//! [`AdmissionLayer`]: bounded-queue and queueing-deadline shedding,
//! extracted verbatim from the engine's old per-endpoint bookkeeping —
//! now priority-aware: emergency registrations (TS 23.501 §5.16.4) are
//! shed only when capacity is truly exhausted, while normal traffic is
//! shed early at `capacity - emergency_headroom` so overload degrades
//! the classes at different rates instead of uniformly.

use shield5g_obs::hub as obs;
use shield5g_obs::labels;
use shield5g_sim::engine::{Gate, Layer, LegMeta, PriorityClass, SHED_HEADER};
use shield5g_sim::http::{marker, Header, HttpResponse};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::cell::RefCell;
use std::rc::Rc;

/// Admission-control policy of one endpoint. Defaults to unbounded: every
/// arrival waits as long as it takes. Enforced by [`AdmissionLayer`], not
/// by the engine's scheduler.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmissionPolicy {
    /// Maximum in-flight requests (serving + waiting); arrivals beyond it
    /// are shed with a synthesized 503 (`x-sim-shed: queue-full`).
    pub capacity: Option<usize>,
    /// Maximum queueing delay: when a worker finally frees up for a
    /// request that has already waited longer than this, the request is
    /// shed (503, `x-sim-shed: deadline`) instead of served — the
    /// caller's supervision timer has long expired.
    pub deadline: Option<SimDuration>,
}

/// Per-class shed counters (the harness keeps a clone of the shared
/// handle to read after runs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassSheds {
    /// Normal-class arrivals shed (queue-full or deadline).
    pub normal: u64,
    /// Emergency-class arrivals shed.
    pub emergency: u64,
}

/// Shared per-class shed counter handle.
pub type ClassShedsHandle = Rc<RefCell<ClassSheds>>;

/// Enforces an [`AdmissionPolicy`] at the endpoint's door: arrivals
/// beyond `capacity` are shed immediately with a 503 (`x-sim-shed:
/// queue-full`, no worker consumed), and admitted requests whose FIFO
/// wait exceeded `deadline` by the time a worker frees up are shed at
/// begin (503, `x-sim-shed: deadline`) — the caller's supervision timer
/// has long expired, serving them would only waste the worker.
///
/// With a non-zero `emergency_headroom`, the last `headroom` queue slots
/// are reserved for [`PriorityClass::Emergency`] legs: normal arrivals
/// shed once depth reaches `capacity - headroom`, emergency arrivals are
/// admitted until depth reaches the full `capacity`. Headroom zero (the
/// default) reproduces the classless behavior bit-for-bit.
///
/// The engine counts what this layer sheds, at the door and at begin,
/// and the peak depth it admits to
/// ([`shield5g_sim::engine::Engine::shed_counts`] /
/// [`shield5g_sim::engine::Engine::depth_peak`]); the layer counts its
/// sheds per class.
#[derive(Debug, Default)]
pub struct AdmissionLayer {
    policy: AdmissionPolicy,
    emergency_headroom: usize,
    class_sheds: ClassShedsHandle,
}

impl AdmissionLayer {
    /// A layer enforcing `policy` (the default policy is unbounded — an
    /// always-admit layer that still tracks depth).
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionLayer {
            policy,
            emergency_headroom: 0,
            class_sheds: ClassShedsHandle::default(),
        }
    }

    /// A layer reserving the top `headroom` capacity slots for
    /// emergency-class arrivals.
    #[must_use]
    pub fn with_priority(policy: AdmissionPolicy, headroom: usize) -> Self {
        AdmissionLayer {
            emergency_headroom: headroom,
            ..Self::new(policy)
        }
    }

    /// Counts class sheds into a caller-owned handle instead of a fresh
    /// one — a replica pool shares one handle across all its endpoints
    /// so per-class shed curves aggregate pool-wide.
    #[must_use]
    pub fn share_class_sheds(mut self, handle: ClassShedsHandle) -> Self {
        self.class_sheds = handle;
        self
    }

    /// The capacity ceiling `class` arrivals are admitted under.
    fn capacity_for(&self, class: PriorityClass) -> Option<usize> {
        self.policy.capacity.map(|cap| match class {
            PriorityClass::Emergency => cap,
            PriorityClass::Normal => cap.saturating_sub(self.emergency_headroom),
        })
    }

    /// Counts one shed against the leg's priority class.
    fn count_class_shed(&mut self, leg: &LegMeta) {
        let mut sheds = self.class_sheds.borrow_mut();
        let label = match leg.class {
            PriorityClass::Normal => {
                sheds.normal += 1;
                labels::SHED_NORMAL
            }
            PriorityClass::Emergency => {
                sheds.emergency += 1;
                labels::SHED_EMERGENCY
            }
        };
        obs::count(&leg.dest, &leg.path, label, 1);
    }
}

static QUEUE_FULL: Header = marker(SHED_HEADER, "queue-full");
static DEADLINE: Header = marker(SHED_HEADER, "deadline");

impl Layer for AdmissionLayer {
    fn on_arrive(&mut self, _env: &mut Env, leg: &LegMeta, depth: usize) -> Gate {
        if let Some(cap) = self.capacity_for(leg.class) {
            if depth >= cap {
                obs::count(&leg.dest, &leg.path, labels::SHED_QUEUE_FULL, 1);
                self.count_class_shed(leg);
                return Gate::Shed {
                    resp: HttpResponse::error(503, "admission queue full").with_marker(&QUEUE_FULL),
                    note: "shed-full",
                };
            }
        }
        Gate::Admit
    }

    fn on_begin(&mut self, _env: &mut Env, leg: &LegMeta, waited: SimDuration) -> Gate {
        if self.policy.deadline.is_some_and(|d| waited > d) {
            obs::count(&leg.dest, &leg.path, labels::SHED_DEADLINE, 1);
            self.count_class_shed(leg);
            return Gate::Shed {
                resp: HttpResponse::error(503, "admission deadline exceeded")
                    .with_marker(&DEADLINE),
                note: "shed-deadline",
            };
        }
        Gate::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_sim::time::SimTime;

    fn leg_with_class(class: PriorityClass) -> LegMeta {
        LegMeta {
            id: 1,
            dest: "eudm.oai".into(),
            path: "/p".into(),
            submitted: SimTime::from_nanos(0),
            arrived: SimTime::from_nanos(0),
            root: true,
            class,
        }
    }

    fn bounded(capacity: usize, headroom: usize) -> AdmissionLayer {
        AdmissionLayer::with_priority(
            AdmissionPolicy {
                capacity: Some(capacity),
                deadline: None,
            },
            headroom,
        )
    }

    #[test]
    fn normal_sheds_at_reduced_capacity() {
        let mut env = Env::new(1);
        let mut layer = bounded(10, 2);
        // Depth 8 = capacity minus headroom: normal is shed...
        let gate = layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Normal), 8);
        assert!(matches!(gate, Gate::Shed { .. }));
        // ...while emergency still has the reserved slots.
        let gate = layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Emergency), 8);
        assert!(matches!(gate, Gate::Admit));
        let sheds = *layer.class_sheds.borrow();
        assert_eq!((sheds.normal, sheds.emergency), (1, 0));
    }

    #[test]
    fn emergency_sheds_only_at_full_capacity() {
        let mut env = Env::new(1);
        let mut layer = bounded(10, 2);
        let gate = layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Emergency), 10);
        assert!(matches!(gate, Gate::Shed { .. }));
        assert_eq!(layer.class_sheds.borrow().emergency, 1);
    }

    #[test]
    fn zero_headroom_treats_classes_identically() {
        let mut env = Env::new(1);
        let mut layer = bounded(4, 0);
        for class in [PriorityClass::Normal, PriorityClass::Emergency] {
            assert!(matches!(
                layer.on_arrive(&mut env, &leg_with_class(class), 3),
                Gate::Admit
            ));
            assert!(matches!(
                layer.on_arrive(&mut env, &leg_with_class(class), 4),
                Gate::Shed { .. }
            ));
        }
    }

    #[test]
    fn headroom_larger_than_capacity_saturates() {
        let mut env = Env::new(1);
        let mut layer = bounded(2, 8);
        // Normal capacity saturates at zero: everything normal sheds.
        assert!(matches!(
            layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Normal), 0),
            Gate::Shed { .. }
        ));
        assert!(matches!(
            layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Emergency), 0),
            Gate::Admit
        ));
    }
}
