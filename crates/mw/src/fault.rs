//! [`FaultLayer`]: seed-driven fault injection as a layer, consulting
//! the world's [`FaultInjector`]; and [`SbiFaultPlan`], the seeded
//! injector a world arms.
//!
//! An [`SbiFaultPlan`] sits behind a world's [`FaultSwitch`] and decides,
//! per delivered message, whether to drop it (the waiting side eats a
//! supervision timeout), delay it (congestion / rerouting), or replace it
//! with a transport-level 5xx (connection reset, proxy failure). Every
//! decision is drawn from a [`DetRng`] forked off the run's seeded
//! environment, so the fault schedule is a pure function of the seed —
//! two same-seed runs inject byte-identical faults at byte-identical
//! instants.
//!
//! **The zero-rate invariant**: [`SbiFaultPlan::install`] with a config
//! whose rates are all zero installs nothing and — critically — forks
//! nothing. A `DetRng::fork` consumes a draw from the parent stream, so
//! even a dormant plan would perturb every subsequent random choice in
//! the run. Returning `None` leaves the switch disarmed and keeps
//! fault-free runs bit-identical to runs that install no plan at all
//! (the regression gate the determinism suite enforces).

use shield5g_obs::hub as obs;
use shield5g_obs::labels;
use shield5g_sim::engine::{FaultAction, Layer, LegMeta};
use shield5g_sim::rng::DetRng;
use shield5g_sim::time::SimDuration;
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

/// Base in-network delay of a delayed message: the simulated SBI's 2 ms.
const DELAY: SimDuration = SimDuration::from_millis(2);
/// Fractional jitter (±spread) on [`DELAY`], drawn from the plan RNG.
const DELAY_JITTER: f64 = 0.3;
/// Supervision-timer expiry charged to the caller of a dropped message
/// before it sees the synthesized 504; it brackets the supervision retry
/// backoffs.
const DROP_TIMEOUT: SimDuration = SimDuration::from_millis(50);
/// Status of an injected transport error.
const ERROR_STATUS: u16 = 503;

/// Per-message fault probabilities of one SBI plan; the default is all
/// zero, a plan that installs nothing. A dropped message costs its caller
/// a 50 ms supervision timeout, a delayed one arrives 2 ms ± 30 % late,
/// and an injected error is a 503.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Probability a message is lost.
    pub drop_rate: f64,
    /// Probability a message is delivered late.
    pub delay_rate: f64,
    /// Probability a message is replaced by a 503.
    pub error_rate: f64,
}

impl FaultConfig {
    /// Whether this config can ever inject anything.
    #[must_use]
    pub(crate) fn enabled(&self) -> bool {
        self.drop_rate > 0.0 || self.delay_rate > 0.0 || self.error_rate > 0.0
    }
}

/// What a plan injected over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Messages dropped.
    pub drops: u64,
    /// Messages delayed.
    pub delays: u64,
    /// Messages replaced by 5xx errors.
    pub errors: u64,
}

impl FaultCounts {
    /// Total injections of any kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.drops + self.delays + self.errors
    }
}

/// A seeded per-message fault decider (see the module docs).
#[derive(Debug)]
pub struct SbiFaultPlan {
    cfg: FaultConfig,
    rng: DetRng,
    counts: FaultCounts,
}

impl SbiFaultPlan {
    /// Installs a plan for `cfg` by arming `switch` (shared by every
    /// endpoint's fault layer), forking the plan's RNG off `env`. Returns
    /// a handle for reading [`FaultCounts`] after the run — or `None`,
    /// touching neither the switch nor the RNG stream, when every rate is
    /// zero (the zero-rate invariant above).
    pub fn install(
        switch: &FaultSwitch,
        env: &mut Env,
        cfg: FaultConfig,
    ) -> Option<Rc<RefCell<SbiFaultPlan>>> {
        if !cfg.enabled() {
            return None;
        }
        let plan = Rc::new(RefCell::new(SbiFaultPlan {
            cfg,
            rng: env.rng.fork("sbi-fault-plan"),
            counts: FaultCounts::default(),
        }));
        switch.install(Some(plan.clone()));
        Some(plan)
    }

    /// Injections so far.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// One decision for one message. Always draws the same three chances
    /// in the same order, so the schedule depends only on message *count*,
    /// not on which faults happened to fire earlier.
    fn decide(&mut self) -> FaultAction {
        let drop = self.rng.chance(self.cfg.drop_rate);
        let delay = self.rng.chance(self.cfg.delay_rate);
        let error = self.rng.chance(self.cfg.error_rate);
        if drop {
            self.counts.drops += 1;
            return FaultAction::Drop {
                timeout: DROP_TIMEOUT,
            };
        }
        if delay {
            self.counts.delays += 1;
            let d = self.rng.jitter(DELAY.as_nanos(), DELAY_JITTER);
            return FaultAction::Delay(SimDuration::from_nanos(d));
        }
        if error {
            self.counts.errors += 1;
            return FaultAction::Error {
                status: ERROR_STATUS,
            };
        }
        FaultAction::Deliver
    }
}

impl FaultInjector for SbiFaultPlan {
    fn on_request(&mut self, _dest: &str, _path: &str) -> FaultAction {
        self.decide()
    }

    fn on_response(&mut self, _dest: &str, _path: &str, status: u16) -> FaultAction {
        // A reply that is already a failure carries its bad news fine on
        // its own; injecting on top would double-count faults.
        if status >= 500 {
            return FaultAction::Deliver;
        }
        self.decide()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_config_installs_nothing_and_draws_nothing() {
        let mut env = Env::new(3);
        let switch = FaultSwitch::new();
        let before = env.rng.fork("probe").bytes::<8>();
        let mut env2 = Env::new(3);
        assert!(SbiFaultPlan::install(&switch, &mut env2, FaultConfig::default()).is_none());
        assert!(
            !switch.is_armed(),
            "zero-rate install must leave the switch cold"
        );
        // The parent stream was not consumed: the next fork matches a
        // fresh environment's.
        assert_eq!(env2.rng.fork("probe").bytes::<8>(), before);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let schedule = |seed: u64| {
            let mut env = Env::new(seed);
            let switch = FaultSwitch::new();
            let plan = SbiFaultPlan::install(
                &switch,
                &mut env,
                FaultConfig {
                    drop_rate: 0.1,
                    delay_rate: 0.2,
                    error_rate: 0.1,
                },
            )
            .expect("enabled config installs");
            let mut decisions = Vec::new();
            for i in 0..200 {
                let action = plan.borrow_mut().decide();
                decisions.push(format!("{i}:{action:?}"));
            }
            let counts = plan.borrow().counts();
            (decisions, counts)
        };
        let (d1, c1) = schedule(42);
        let (d2, c2) = schedule(42);
        assert_eq!(d1, d2);
        assert_eq!(c1, c2);
        assert!(c1.total() > 0, "rates this high must fire in 200 draws");
        let (d3, _) = schedule(43);
        assert_ne!(d1, d3, "different seeds must diverge");
    }

    #[test]
    fn failed_responses_are_never_doubly_faulted() {
        let mut env = Env::new(9);
        let switch = FaultSwitch::new();
        let plan = SbiFaultPlan::install(
            &switch,
            &mut env,
            FaultConfig {
                drop_rate: 1.0,
                ..FaultConfig::default()
            },
        )
        .expect("enabled");
        let mut p = plan.borrow_mut();
        assert!(matches!(
            p.on_response("d", "/p", 503),
            FaultAction::Deliver
        ));
        assert!(matches!(
            p.on_response("d", "/p", 200),
            FaultAction::Drop { .. }
        ));
    }

    #[test]
    fn counts_track_each_kind() {
        let mut env = Env::new(11);
        let switch = FaultSwitch::new();
        let plan = SbiFaultPlan::install(
            &switch,
            &mut env,
            FaultConfig {
                drop_rate: 0.2,
                delay_rate: 0.2,
                error_rate: 0.2,
            },
        )
        .expect("enabled");
        let mut injected = 0;
        for _ in 0..500 {
            if !matches!(plan.borrow_mut().decide(), FaultAction::Deliver) {
                injected += 1;
            }
        }
        let c = plan.borrow().counts();
        assert_eq!(c.total(), injected);
        assert!(c.drops > 0 && c.delays > 0 && c.errors > 0);
    }
}
