//! [`FaultLayer`]: seed-driven fault injection as a layer, consulting
//! the world's [`FaultInjector`].

use shield5g_obs::hub as obs;
use shield5g_obs::labels;
use shield5g_sim::engine::{FaultAction, Layer, LegMeta};
use shield5g_sim::Env;
use std::cell::RefCell;
use std::rc::Rc;

/// Decides the fate of each engine message delivery. Implementations
/// must be deterministic functions of their own seeded state — every
/// [`FaultLayer`] consults the armed injector from the engine's
/// [`Layer::request_fate`] / [`Layer::response_fate`] hooks, in event
/// order, so a seed-driven injector yields byte-identical fault
/// schedules across same-seed runs.
pub trait FaultInjector {
    /// Consulted when a `Step::CallOut` request is about to travel to
    /// `dest` (the SBI request leg).
    fn on_request(&mut self, dest: &str, path: &str) -> FaultAction {
        let _ = (dest, path);
        FaultAction::Deliver
    }

    /// Consulted when a service's reply from `dest` is about to travel
    /// back to its caller (the SBI response leg).
    fn on_response(&mut self, dest: &str, path: &str, status: u16) -> FaultAction {
        let _ = (dest, path, status);
        FaultAction::Deliver
    }
}

/// Shared handle to a fault injector (the harness keeps a clone to read
/// its counters after a run).
pub type FaultInjectorHandle = Rc<RefCell<dyn FaultInjector>>;

/// A shared slot for the world's [`FaultInjector`].
///
/// Stacks are built once at slice construction, but fault plans are
/// installed (and swapped) per experiment. The switch decouples the two:
/// every endpoint's [`FaultLayer`] holds a clone, and
/// [`FaultSwitch::install`] arms them all at once. An empty switch is
/// byte-invisible — no RNG draw, no trace perturbation.
#[derive(Clone, Default)]
pub struct FaultSwitch {
    inner: Rc<RefCell<Option<FaultInjectorHandle>>>,
}

impl FaultSwitch {
    /// An empty (disarmed) switch.
    #[must_use]
    pub fn new() -> Self {
        FaultSwitch::default()
    }

    /// Arms every layer sharing this switch with `injector` (or disarms
    /// them all with `None`).
    pub fn install(&self, injector: Option<FaultInjectorHandle>) {
        *self.inner.borrow_mut() = injector;
    }

    /// Whether an injector is currently armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.inner.borrow().is_some()
    }
}

impl std::fmt::Debug for FaultSwitch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultSwitch")
            .field("armed", &self.is_armed())
            .finish()
    }
}

/// Consults the armed injector for the fate of every request leg this
/// endpoint sends and every response leg it produces, and counts the
/// non-`Deliver` outcomes. With nothing armed it is a pure pass-through.
#[derive(Debug)]
pub struct FaultLayer {
    switch: FaultSwitch,
}

impl FaultLayer {
    /// A layer consulting (a clone of) `switch`.
    #[must_use]
    pub fn new(switch: FaultSwitch) -> Self {
        FaultLayer { switch }
    }

    fn count(dest: &str, path: &str, action: FaultAction) {
        match action {
            FaultAction::Deliver => {}
            FaultAction::Drop { .. } => obs::count(dest, path, labels::FAULT_DROP, 1),
            FaultAction::Delay(_) => obs::count(dest, path, labels::FAULT_DELAY, 1),
            FaultAction::Error { .. } => obs::count(dest, path, labels::FAULT_5XX, 1),
        }
    }
}

impl Layer for FaultLayer {
    fn request_fate(&mut self, _env: &mut Env, dest: &str, path: &str) -> FaultAction {
        let action = match &*self.switch.inner.borrow() {
            Some(injector) => injector.borrow_mut().on_request(dest, path),
            None => FaultAction::Deliver,
        };
        Self::count(dest, path, action);
        action
    }

    fn response_fate(&mut self, _env: &mut Env, leg: &LegMeta, status: u16) -> FaultAction {
        let action = match &*self.switch.inner.borrow() {
            Some(injector) => injector
                .borrow_mut()
                .on_response(&leg.dest, &leg.path, status),
            None => FaultAction::Deliver,
        };
        Self::count(&leg.dest, &leg.path, action);
        action
    }
}
