//! Seed-driven SBI fault plans.
//!
//! An [`SbiFaultPlan`] sits behind a world's
//! [`FaultSwitch`] — the shared slot every
//! endpoint's [`FaultLayer`](shield5g_mw::FaultLayer) consults — and
//! decides, per delivered message, whether to drop it (the waiting side
//! eats a supervision timeout), delay it (congestion / rerouting), or
//! replace it with a transport-level 5xx (connection reset, proxy
//! failure). Every decision is drawn from a [`DetRng`] forked off the
//! run's seeded environment, so the fault schedule is a pure function of
//! the seed — two same-seed runs inject byte-identical faults at
//! byte-identical instants.
//!
//! **The zero-rate invariant**: [`SbiFaultPlan::install`] with a config
//! whose rates are all zero installs nothing and — critically — forks
//! nothing. A `DetRng::fork` consumes a draw from the parent stream, so
//! even a dormant plan would perturb every subsequent random choice in
//! the run. Returning `None` leaves the switch disarmed and keeps
//! fault-free runs bit-identical to builds that have never heard of this
//! crate (the regression gate the determinism suite enforces).

use shield5g_mw::{FaultInjector, FaultSwitch};
use shield5g_sim::engine::FaultAction;
use shield5g_sim::rng::DetRng;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-message fault probabilities and shapes for one SBI plan.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Probability a message is lost (caller waits out `drop_timeout`).
    pub drop_rate: f64,
    /// Probability a message is delivered `delay` (± jitter) late.
    pub delay_rate: f64,
    /// Probability a message is replaced by `error_status`.
    pub error_rate: f64,
    /// Base in-network delay for delayed messages.
    pub delay: SimDuration,
    /// Fractional jitter (±spread) on the delay, drawn from the plan RNG.
    pub delay_jitter: f64,
    /// Supervision-timer expiry charged to the caller of a dropped
    /// message before it sees the synthesized 504.
    pub drop_timeout: SimDuration,
    /// Status of injected transport errors (a 5xx).
    pub error_status: u16,
}

impl Default for FaultConfig {
    /// All rates zero (a no-op plan); shape parameters sized to the
    /// simulated SBI: 2 ms in-network delay ±30%, a 50 ms supervision
    /// timeout (bracketing the supervision retry backoffs), 503 errors.
    fn default() -> Self {
        FaultConfig {
            drop_rate: 0.0,
            delay_rate: 0.0,
            error_rate: 0.0,
            delay: SimDuration::from_millis(2),
            delay_jitter: 0.3,
            drop_timeout: SimDuration::from_millis(50),
            error_status: 503,
        }
    }
}

impl FaultConfig {
    /// Whether this config can ever inject anything.
    #[must_use]
    pub fn enabled(&self) -> bool {
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

    /// The installed config.
    #[must_use]
    pub fn config(&self) -> FaultConfig {
        self.cfg
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
                timeout: self.cfg.drop_timeout,
            };
        }
        if delay {
            self.counts.delays += 1;
            let d = self
                .rng
                .jitter(self.cfg.delay.as_nanos(), self.cfg.delay_jitter);
            return FaultAction::Delay(SimDuration::from_nanos(d));
        }
        if error {
            self.counts.errors += 1;
            return FaultAction::Error {
                status: self.cfg.error_status,
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
                    ..FaultConfig::default()
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
                ..FaultConfig::default()
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
