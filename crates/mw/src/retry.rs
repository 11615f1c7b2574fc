//! [`RetryLayer`]: SBI supervision retries — capped exponential backoff
//! with deterministic jitter — replacing the hand-threaded `Retrier`
//! that used to live inside each NF's continuation plumbing.
//!
//! OAI's NFs guard every SBI round trip with a supervision timer (the
//! NAS T35xx family on the UE side, HTTP client timeouts between NFs).
//! When fault injection drops or breaks a response, the caller retries
//! the call a bounded number of times, backing off exponentially, and
//! *fails fast* once the budget is spent — a registration that cannot
//! reach its AUSF sheds cleanly instead of hanging forever.
//!
//! As a layer the mechanism is transparent to the service: on the way
//! out ([`crate::Layer::on_step`]) the layer wraps each `CallOut`'s
//! continuation state and keeps a clone of the outbound request; on the
//! way back in ([`crate::Layer::on_response`]) a failed-but-retryable
//! response waits out the backoff (charged on the caller's timeline —
//! the worker is held, thread-per-request, like every other wait in the
//! model) and re-issues the stored request as a fresh `CallOut`;
//! anything else unwraps and proceeds. With retries disabled — the
//! default — the wrapper is never created, so fault-free traces are
//! byte-identical to a stack without this layer.
//!
//! All jitter comes from the seeded [`Env`] RNG: same seed, same fault
//! schedule, same backoff sequence, byte-identical trace.

use shield5g_sim::engine::{Layer, LegMeta, Resume, Step, ERROR_HEADER};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// Retry budget and backoff shape for one NF's outbound SBI calls.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Retransmissions after the first attempt (0 disables retries).
    pub max_retries: u32,
    /// Backoff before the first retransmission; doubles per attempt.
    pub base_backoff: SimDuration,
    /// Cap on the (pre-jitter) backoff.
    pub max_backoff: SimDuration,
    /// Fractional jitter applied to each backoff (±spread, drawn from
    /// the seeded env RNG — deterministic per seed).
    pub jitter: f64,
}

impl RetryPolicy {
    /// Retries disabled: every failure is final on the first response.
    #[must_use]
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter: 0.0,
        }
    }

    /// The default supervision policy: three retransmissions at
    /// 5 ms → 10 ms → 20 ms (±20% jitter), capped at 80 ms — scaled to
    /// the simulated SBI round-trip times the same way OAI's HTTP
    /// client timeouts scale to real ones.
    #[must_use]
    pub fn supervision() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: SimDuration::from_micros(5_000),
            max_backoff: SimDuration::from_micros(80_000),
            jitter: 0.2,
        }
    }

    /// Whether this policy ever retries.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// The pre-jitter backoff before retry number `attempt` (1-based).
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let doubled = self
            .base_backoff
            .as_nanos()
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
        SimDuration::from_nanos(doubled.min(self.max_backoff.as_nanos()))
    }
}

/// Counters across every call guarded by one [`RetryLayer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// First attempts (distinct guarded calls).
    pub calls: u64,
    /// Retransmissions issued.
    pub retries: u64,
    /// Calls that succeeded after at least one retransmission.
    pub recovered: u64,
    /// Calls abandoned with the budget spent (fail-fast shed).
    pub exhausted: u64,
}

impl RetryStats {
    /// Total send attempts divided by distinct calls — the paper-style
    /// retry-amplification factor (1.0 when nothing ever failed).
    #[must_use]
    pub fn amplification(&self) -> f64 {
        if self.calls == 0 {
            return 1.0;
        }
        (self.calls + self.retries) as f64 / self.calls as f64
    }
}

/// Shared counter handle (the harness keeps a clone to read after runs).
pub type RetryStatsHandle = Rc<RefCell<RetryStats>>;

/// Continuation wrapper carried through the engine for a guarded call.
struct RetryState {
    dest: Rc<str>,
    req: HttpRequest,
    attempt: u32,
    inner: Box<dyn Any>,
}

/// Whether a response is worth retransmitting for: transport-level 5xx
/// (including injected faults and supervision-timeout 504s), but never
/// a call-loop cut — re-sending into a loop can only loop again.
fn retryable(resp: &HttpResponse) -> bool {
    resp.status >= 500 && resp.header(ERROR_HEADER) != Some("loop")
}

/// Guards every `CallOut` the wrapped service emits with the policy's
/// retransmission budget.
pub struct RetryLayer {
    policy: RetryPolicy,
    stats: RetryStatsHandle,
}

impl std::fmt::Debug for RetryLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryLayer")
            .field("policy", &self.policy)
            .field("stats", &self.stats.borrow())
            .finish()
    }
}

impl RetryLayer {
    /// A layer with `policy`, tracking into a fresh counter set.
    #[must_use]
    pub fn new(policy: RetryPolicy) -> Self {
        RetryLayer {
            policy,
            stats: Rc::new(RefCell::new(RetryStats::default())),
        }
    }

    /// A layer that never retries (pass-through, no wrapping).
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(RetryPolicy::disabled())
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// A snapshot of the counters.
    #[must_use]
    pub fn stats(&self) -> RetryStats {
        *self.stats.borrow()
    }

    /// The shared counter handle (clone to read after a run).
    #[must_use]
    pub fn stats_handle(&self) -> RetryStatsHandle {
        self.stats.clone()
    }
}

impl Layer for RetryLayer {
    fn on_step(&mut self, _env: &mut Env, _leg: &LegMeta, step: Step) -> Step {
        if !self.policy.enabled() {
            return step;
        }
        match step {
            Step::CallOut { dest, req, state } => {
                self.stats.borrow_mut().calls += 1;
                let wrapped = RetryState {
                    dest: dest.clone(),
                    req: req.clone(),
                    attempt: 0,
                    inner: state,
                };
                Step::CallOut {
                    dest,
                    req,
                    state: Box::new(wrapped),
                }
            }
            reply @ Step::Reply(_) => reply,
        }
    }

    fn on_response(
        &mut self,
        env: &mut Env,
        _leg: &LegMeta,
        state: Box<dyn Any>,
        resp: HttpResponse,
    ) -> Resume {
        let mut rs = match state.downcast::<RetryState>() {
            Ok(rs) => *rs,
            Err(other) => return Resume::Continue(other, resp),
        };
        if retryable(&resp) && rs.attempt < self.policy.max_retries {
            rs.attempt += 1;
            self.stats.borrow_mut().retries += 1;
            let backoff = self.policy.backoff(rs.attempt);
            let jittered = env.rng.jitter(backoff.as_nanos(), self.policy.jitter);
            env.clock.advance(SimDuration::from_nanos(jittered));
            env.log.record(
                env.clock.now(),
                "retry",
                format_args!(
                    "retransmit {} {} (attempt {}/{})",
                    rs.dest, rs.req.path, rs.attempt, self.policy.max_retries
                ),
            );
            let req = rs.req.clone();
            return Resume::Break(Step::CallOut {
                dest: rs.dest.clone(),
                req,
                state: Box::new(rs),
            });
        }
        {
            let mut stats = self.stats.borrow_mut();
            if rs.attempt > 0 {
                if retryable(&resp) {
                    stats.exhausted += 1;
                } else {
                    stats.recovered += 1;
                }
            } else if retryable(&resp) {
                // Budget of zero retries left for a retryable failure
                // cannot happen (enabled() implies max_retries > 0 and
                // the branch above would have fired), but a non-5xx
                // protocol failure on attempt 0 lands here: final.
                stats.exhausted += 1;
            }
        }
        Resume::Continue(rs.inner, resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env::new(42)
    }

    fn leg() -> LegMeta {
        LegMeta {
            id: 1,
            dest: "amf.oai".into(),
            path: "/p".into(),
            submitted: shield5g_sim::time::SimTime::from_nanos(0),
            arrived: shield5g_sim::time::SimTime::from_nanos(0),
            root: true,
            class: shield5g_sim::engine::PriorityClass::Normal,
        }
    }

    fn callout(body: Vec<u8>, inner: Box<dyn Any>) -> Step {
        Step::CallOut {
            dest: "ausf.oai".into(),
            req: HttpRequest::post("/p", body),
            state: inner,
        }
    }

    #[test]
    fn disabled_policy_passes_state_through_unwrapped() {
        let mut env = env();
        let mut layer = RetryLayer::disabled();
        let step = layer.on_step(&mut env, &leg(), callout(vec![1, 2], Box::new(7u32)));
        let Step::CallOut { state, .. } = step else {
            panic!("expected callout");
        };
        // No wrapper: the state is the inner value itself.
        assert_eq!(*state.downcast::<u32>().unwrap(), 7);
        assert_eq!(layer.stats(), RetryStats::default());
    }

    #[test]
    fn foreign_state_proceeds_untouched() {
        let mut env = env();
        let mut layer = RetryLayer::new(RetryPolicy::supervision());
        let out = layer.on_response(
            &mut env,
            &leg(),
            Box::new("not-a-retry-state"),
            HttpResponse::error(504, "x"),
        );
        match out {
            Resume::Continue(state, resp) => {
                assert!(state.downcast::<&str>().is_ok());
                assert_eq!(resp.status, 504);
            }
            Resume::Break(_) => panic!("foreign state must not be retried"),
        }
    }

    #[test]
    fn retryable_5xx_is_retransmitted_with_backoff() {
        let mut env = env();
        let mut layer = RetryLayer::new(RetryPolicy::supervision());
        let step = layer.on_step(&mut env, &leg(), callout(vec![9], Box::new(1u8)));
        let Step::CallOut { state, .. } = step else {
            panic!("expected callout");
        };
        let before = env.clock.now();
        let out = layer.on_response(&mut env, &leg(), state, HttpResponse::error(504, "drop"));
        let Resume::Break(Step::CallOut { dest, req, .. }) = out else {
            panic!("expected a retransmission");
        };
        assert_eq!(&*dest, "ausf.oai");
        assert_eq!(&*req.path, "/p");
        assert_eq!(req.body, vec![9]);
        // The backoff was charged on the caller's timeline.
        assert!(env.clock.now() - before >= SimDuration::from_micros(3_000));
        assert_eq!(layer.stats().retries, 1);
    }

    #[test]
    fn budget_exhaustion_fails_fast_with_final_response() {
        let mut env = env();
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::supervision()
        };
        let mut layer = RetryLayer::new(policy);
        let mut step = layer.on_step(&mut env, &leg(), callout(vec![], Box::new(5i64)));
        for _ in 0..2 {
            let Step::CallOut { state, .. } = step else {
                panic!("expected callout");
            };
            match layer.on_response(&mut env, &leg(), state, HttpResponse::error(503, "x")) {
                Resume::Break(s) => step = s,
                Resume::Continue(..) => panic!("budget not yet spent"),
            }
        }
        let Step::CallOut { state, .. } = step else {
            panic!("expected callout");
        };
        match layer.on_response(&mut env, &leg(), state, HttpResponse::error(503, "x")) {
            Resume::Continue(inner, resp) => {
                assert_eq!(*inner.downcast::<i64>().unwrap(), 5);
                assert_eq!(resp.status, 503);
            }
            Resume::Break(_) => panic!("budget exceeded"),
        }
        let s = layer.stats();
        assert_eq!((s.calls, s.retries, s.exhausted, s.recovered), (1, 2, 1, 0));
        assert!((s.amplification() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn success_after_retry_counts_as_recovered() {
        let mut env = env();
        let mut layer = RetryLayer::new(RetryPolicy::supervision());
        let step = layer.on_step(&mut env, &leg(), callout(vec![], Box::new(0u8)));
        let Step::CallOut { state, .. } = step else {
            panic!("expected callout");
        };
        let Resume::Break(Step::CallOut { state, .. }) =
            layer.on_response(&mut env, &leg(), state, HttpResponse::error(502, "x"))
        else {
            panic!("expected a retransmission");
        };
        match layer.on_response(&mut env, &leg(), state, HttpResponse::ok(vec![1])) {
            Resume::Continue(_, resp) => assert!(resp.is_success()),
            Resume::Break(_) => panic!("success must not retry"),
        }
        let s = layer.stats();
        assert_eq!((s.recovered, s.exhausted), (1, 0));
    }

    #[test]
    fn call_loops_are_never_retried() {
        let mut env = env();
        let mut layer = RetryLayer::new(RetryPolicy::supervision());
        let step = layer.on_step(&mut env, &leg(), callout(vec![], Box::new(0u8)));
        let Step::CallOut { state, .. } = step else {
            panic!("expected callout");
        };
        let resp = HttpResponse::error(508, "loop").with_header(ERROR_HEADER, "loop");
        match layer.on_response(&mut env, &leg(), state, resp) {
            Resume::Continue(_, resp) => assert_eq!(resp.status, 508),
            Resume::Break(_) => panic!("loops must fail immediately"),
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::supervision();
        assert_eq!(p.backoff(1), SimDuration::from_micros(5_000));
        assert_eq!(p.backoff(2), SimDuration::from_micros(10_000));
        assert_eq!(p.backoff(3), SimDuration::from_micros(20_000));
        assert_eq!(p.backoff(10), SimDuration::from_micros(80_000));
    }

    #[test]
    fn same_seed_same_backoff_sequence() {
        let run = || {
            let mut env = Env::new(77);
            let mut layer = RetryLayer::new(RetryPolicy::supervision());
            let mut times = Vec::new();
            let mut step = layer.on_step(&mut env, &leg(), callout(vec![], Box::new(0u8)));
            for _ in 0..3 {
                let Step::CallOut { state, .. } = step else {
                    panic!("expected callout");
                };
                match layer.on_response(&mut env, &leg(), state, HttpResponse::error(504, "x")) {
                    Resume::Break(s) => {
                        times.push(env.clock.now());
                        step = s;
                    }
                    Resume::Continue(..) => break,
                }
            }
            times
        };
        assert_eq!(run(), run());
    }
}
