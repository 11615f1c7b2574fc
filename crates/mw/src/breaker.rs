//! [`BreakerLayer`]: per-peer circuit breaking for outbound SBI calls —
//! the closed → open → half-open state machine every production service
//! mesh puts in front of a flaky upstream, driven here entirely by
//! virtual time and a deterministic failure EWMA.
//!
//! A thrashing enclave replica answers slowly or not at all; without a
//! breaker every caller keeps burning workers (and supervision retries)
//! on a peer that cannot answer, amplifying the overload the paper's
//! fault model predicts (AEX storms, EPC thrash, §VI KI 2/8/22). The
//! breaker watches each peer's failure EWMA and, once it trips, fails
//! calls fast with a synthetic 503 (`x-sim-shed: breaker-open`) instead
//! of sending them. After a hold-off it admits a bounded number of
//! half-open probes; one probe success closes the circuit, one failure
//! re-opens it.
//!
//! The state machine lives in [`BreakerCore`] — a pure, engine-free
//! struct keyed on an ordered peer key — so the scale tier can reuse the
//! identical (proptested) semantics for replica health gating while this
//! module only adds the [`crate::Layer`] plumbing. Determinism: no RNG,
//! no wall clock, `BTreeMap` state; a fault-free run never trips any
//! circuit, records nothing, and its engine trace is byte-identical to a
//! stack without this layer.

use shield5g_obs::hub as obs;
use shield5g_obs::labels;
use shield5g_sim::engine::{Layer, LegMeta, Parked, Resume, Step, SHED_HEADER};
use shield5g_sim::http::HttpResponse;
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::Env;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Trip and recovery thresholds for one breaker instance (shared by
/// every peer the instance tracks).
#[derive(Clone, Copy, Debug)]
pub struct BreakerPolicy {
    /// EWMA failure rate at or above which the circuit opens.
    pub failure_threshold: f64,
    /// EWMA smoothing factor (weight of the newest outcome).
    pub alpha: f64,
    /// Outcomes observed before the EWMA is trusted to trip — a single
    /// early failure must not open a cold circuit.
    pub min_samples: u32,
    /// How long an open circuit rejects before going half-open.
    pub open_for: SimDuration,
    /// Probes admitted concurrently while half-open.
    pub half_open_probes: u32,
}

impl Default for BreakerPolicy {
    /// Trips after a sustained majority of failures (EWMA ≥ 0.5 over at
    /// least 4 outcomes, newest weighted 0.3), holds open for 100 ms of
    /// virtual time — two supervision-retry cycles — then admits one
    /// half-open probe.
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 0.5,
            alpha: 0.3,
            min_samples: 4,
            open_for: SimDuration::from_micros(100_000),
            half_open_probes: 1,
        }
    }
}

/// Where one peer's circuit currently stands.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; outcomes feed the failure EWMA.
    #[default]
    Closed,
    /// Every call is rejected fail-fast until the hold-off expires.
    Open,
    /// A bounded number of probes may test the peer.
    HalfOpen,
}

impl BreakerState {
    /// Stable label for logs and artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// Numeric encoding for the `breaker_state` gauge.
    #[must_use]
    pub fn as_gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::Open => 1.0,
            BreakerState::HalfOpen => 2.0,
        }
    }
}

/// What the breaker says about one outbound call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Circuit closed: send normally.
    Admit,
    /// Circuit half-open: send, and report the outcome as a probe.
    Probe,
    /// Circuit open: do not send; fail fast.
    Reject,
}

/// A state-machine edge taken while processing an outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerTransition {
    /// Closed → open: the failure EWMA tripped the threshold.
    Opened,
    /// Half-open → open: a probe failed.
    Reopened,
    /// Half-open → closed: a probe succeeded; state is reset.
    Closed,
}

/// Counters across every peer one breaker instance guards.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed → open transitions.
    pub opened: u64,
    /// Half-open → open transitions (failed probes).
    pub reopened: u64,
    /// Half-open → closed transitions (successful probes).
    pub closed: u64,
    /// Calls rejected fail-fast while open.
    pub rejected: u64,
    /// Half-open probes admitted.
    pub probes: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Peer {
    state: BreakerState,
    ewma: f64,
    samples: u32,
    open_until: SimTime,
    probes_in_flight: u32,
}

/// A call admitted by [`BreakerCore::admit_call`] and not yet settled.
#[derive(Debug)]
struct Call<K> {
    peer: K,
    probe: bool,
}

/// The pure closed → open → half-open machine, one circuit per peer key.
///
/// Engine-free on purpose: [`BreakerLayer`] drives it with SBI peer
/// addresses, `shield5g-scale` drives the same semantics with replica
/// ids for health-gated routing, and the property tests drive it with
/// arbitrary interleavings. All state is `BTreeMap`-ordered and every
/// decision is a pure function of (policy, history, virtual now).
///
/// A caller that cannot carry an admitted call's peer and probe flag to
/// its outcome hands the core a call id instead ([`Self::admit_call`],
/// [`Self::settle`]); the core parks the calls in flight by id
/// ([`Parked`]), so a call allocates nothing.
#[derive(Debug)]
pub struct BreakerCore<K: Ord + Clone = Rc<str>> {
    policy: BreakerPolicy,
    peers: BTreeMap<K, Peer>,
    stats: BreakerStats,
    calls: Parked<Call<K>>,
}

impl<K: Ord + Clone> BreakerCore<K> {
    /// A core with no history: every peer starts closed.
    #[must_use]
    pub fn new(policy: BreakerPolicy) -> Self {
        BreakerCore {
            policy,
            peers: BTreeMap::new(),
            stats: BreakerStats::default(),
            calls: Parked::new(),
        }
    }

    /// The trip/recovery thresholds in force.
    #[must_use]
    pub fn policy(&self) -> BreakerPolicy {
        self.policy
    }

    /// Counter snapshot across all peers.
    #[must_use]
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// The peer's current state (closed for peers never seen).
    #[must_use]
    pub fn state(&self, peer: &K) -> BreakerState {
        self.peers
            .get(peer)
            .map_or(BreakerState::Closed, |p| p.state)
    }

    /// The peer's current failure EWMA (0.0 for peers never seen).
    #[must_use]
    pub fn failure_ewma(&self, peer: &K) -> f64 {
        self.peers.get(peer).map_or(0.0, |p| p.ewma)
    }

    /// Closed-state outcome samples recorded across every peer — proof a
    /// breaker actually guarded traffic even when nothing ever tripped.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.peers.values().map(|p| u64::from(p.samples)).sum()
    }

    /// Gate one outbound call to `peer` at virtual instant `now`. An
    /// expired open circuit flips to half-open here — admission is the
    /// only place time is consulted, so the machine needs no timers.
    pub fn admit(&mut self, peer: &K, now: SimTime) -> BreakerDecision {
        let half_open_probes = self.policy.half_open_probes;
        // Look up first: the key is cloned only for a peer not yet seen.
        let p = match self.peers.get_mut(peer) {
            Some(p) => p,
            None => self.peers.entry(peer.clone()).or_default(),
        };
        if p.state == BreakerState::Open {
            if now < p.open_until {
                self.stats.rejected += 1;
                return BreakerDecision::Reject;
            }
            p.state = BreakerState::HalfOpen;
            p.probes_in_flight = 0;
        }
        match p.state {
            BreakerState::Closed => BreakerDecision::Admit,
            BreakerState::HalfOpen => {
                if p.probes_in_flight < half_open_probes {
                    p.probes_in_flight += 1;
                    self.stats.probes += 1;
                    BreakerDecision::Probe
                } else {
                    self.stats.rejected += 1;
                    BreakerDecision::Reject
                }
            }
            BreakerState::Open => unreachable!("open handled above"),
        }
    }

    /// Feed one call outcome back. `probe` must echo what [`Self::admit`]
    /// decided for that call; `ok` is protocol-level success (no
    /// transport 5xx/timeout). Returns the transition taken, if any.
    pub fn on_outcome(
        &mut self,
        peer: &K,
        probe: bool,
        ok: bool,
        now: SimTime,
    ) -> Option<BreakerTransition> {
        let policy = self.policy;
        let p = match self.peers.get_mut(peer) {
            Some(p) => p,
            None => self.peers.entry(peer.clone()).or_default(),
        };
        if probe {
            p.probes_in_flight = p.probes_in_flight.saturating_sub(1);
            if p.state != BreakerState::HalfOpen {
                return None;
            }
            if ok {
                *p = Peer::default();
                self.stats.closed += 1;
                return Some(BreakerTransition::Closed);
            }
            p.state = BreakerState::Open;
            p.open_until = now + policy.open_for;
            self.stats.reopened += 1;
            return Some(BreakerTransition::Reopened);
        }
        // Stragglers admitted before the circuit tripped resolve while
        // it is open or half-open; they must not drive the machine.
        if p.state != BreakerState::Closed {
            return None;
        }
        p.samples = p.samples.saturating_add(1);
        let outcome = if ok { 0.0 } else { 1.0 };
        p.ewma = policy.alpha * outcome + (1.0 - policy.alpha) * p.ewma;
        if !ok && p.samples >= policy.min_samples && p.ewma >= policy.failure_threshold {
            p.state = BreakerState::Open;
            p.open_until = now + policy.open_for;
            p.probes_in_flight = 0;
            self.stats.opened += 1;
            return Some(BreakerTransition::Opened);
        }
        None
    }

    /// [`Self::admit`] for call `id`, whose peer and probe flag are kept
    /// until [`Self::settle`] or [`Self::abandon`] names the id again. An
    /// id still in flight is replaced: one caller has one call out.
    pub fn admit_call(&mut self, id: u64, peer: &K, now: SimTime) -> BreakerDecision {
        let decision = self.admit(peer, now);
        if decision != BreakerDecision::Reject {
            let probe = decision == BreakerDecision::Probe;
            let peer = peer.clone();
            self.calls.park(id, Call { peer, probe });
        }
        decision
    }

    /// [`Self::on_outcome`] for call `id`: its peer and the transition
    /// taken, or `None` when no call `id` is in flight.
    pub fn settle(
        &mut self,
        id: u64,
        ok: bool,
        now: SimTime,
    ) -> Option<(K, Option<BreakerTransition>)> {
        let call = self.calls.take(id)?;
        let transition = self.on_outcome(&call.peer, call.probe, ok, now);
        Some((call.peer, transition))
    }

    /// Forgets call `id` without an outcome (its caller finished first).
    pub fn abandon(&mut self, id: u64) {
        self.calls.take(id);
    }

    /// Calls admitted and neither settled nor abandoned.
    #[must_use]
    pub fn calls_in_flight(&self) -> usize {
        self.calls.len()
    }

    /// Reset the peer's circuit to closed regardless of history (e.g.
    /// the routing tier cannot afford to eject its last replica).
    pub fn force_close(&mut self, peer: &K) {
        self.peers.insert(peer.clone(), Peer::default());
    }

    /// Drop a peer's history entirely (the peer was retired or killed).
    pub fn forget(&mut self, peer: &K) {
        self.peers.remove(peer);
    }
}

/// Shared handle to a breaker core (the harness keeps a clone to read
/// states and stats after runs).
pub type BreakerHandle = Rc<RefCell<BreakerCore<Rc<str>>>>;

/// Guards every `CallOut` the wrapped service emits with a per-peer
/// circuit breaker. It ranks outside [`crate::RetryLayer`] so an open
/// circuit also cuts retransmission storms off, and inside
/// [`crate::AdmissionLayer`] — inbound shedding happens at the door,
/// breaking happens on the way out ([`crate::stack`]).
///
/// The core parks a guarded call's peer and probe flag under the calling
/// leg's [`LegMeta::id`] (a leg has one call out at a time), settles it
/// on the response and, should the leg finish without one reaching this
/// layer, drops it on delivery.
pub struct BreakerLayer {
    core: BreakerHandle,
}

impl std::fmt::Debug for BreakerLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BreakerLayer")
            .field("policy", &self.core.borrow().policy())
            .field("stats", &self.core.borrow().stats())
            .finish()
    }
}

impl BreakerLayer {
    /// A layer tripping per `policy`, with a fresh core.
    #[must_use]
    pub fn new(policy: BreakerPolicy) -> Self {
        BreakerLayer {
            core: Rc::new(RefCell::new(BreakerCore::new(policy))),
        }
    }

    /// A layer sharing an existing core — one circuit table spanning
    /// every endpoint it wraps (a slice shares one, like its
    /// [`crate::FaultSwitch`]).
    #[must_use]
    pub fn with_core(core: BreakerHandle) -> Self {
        BreakerLayer { core }
    }

    /// The shared core handle (clone to inspect after a run).
    #[must_use]
    pub fn core(&self) -> BreakerHandle {
        self.core.clone()
    }

    /// Counter snapshot across all peers.
    #[must_use]
    pub fn stats(&self) -> BreakerStats {
        self.core.borrow().stats()
    }

    /// Records a transition into metrics, the current span and the log.
    fn note_transition(
        env: &mut Env,
        nf: &str,
        peer: &str,
        t: BreakerTransition,
        state: BreakerState,
    ) {
        let (label, attr) = match t {
            BreakerTransition::Opened => (labels::BREAKER_OPENED, "breaker_opened"),
            BreakerTransition::Reopened => (labels::BREAKER_REOPENED, "breaker_reopened"),
            BreakerTransition::Closed => (labels::BREAKER_CLOSED, "breaker_closed"),
        };
        obs::count(nf, peer, label, 1);
        obs::gauge(nf, peer, labels::BREAKER_STATE, state.as_gauge());
        let current = obs::with(|o| o.current()).flatten();
        obs::span_attr(current, attr, 1);
        env.log.record(
            env.clock.now(),
            "breaker",
            format_args!("{nf} -> {peer}: circuit {}", state.name()),
        );
    }
}

impl Layer for BreakerLayer {
    fn on_step(&mut self, env: &mut Env, leg: &LegMeta, step: Step) -> Step {
        match step {
            Step::CallOut { dest, req } => {
                let decision = self
                    .core
                    .borrow_mut()
                    .admit_call(leg.id, &dest, env.clock.now());
                match decision {
                    BreakerDecision::Admit | BreakerDecision::Probe => {
                        if decision == BreakerDecision::Probe {
                            obs::count(&leg.dest, &dest, labels::BREAKER_PROBES, 1);
                        }
                        Step::CallOut { dest, req }
                    }
                    BreakerDecision::Reject => {
                        obs::count(&leg.dest, &dest, labels::BREAKER_REJECTED, 1);
                        env.log.record(
                            env.clock.now(),
                            "breaker",
                            format_args!("fail-fast {} {} (circuit open)", dest, req.path),
                        );
                        Step::Reply(
                            HttpResponse::error(503, "upstream circuit open")
                                .with_header(SHED_HEADER, "breaker-open"),
                        )
                    }
                }
            }
            reply @ Step::Reply(_) => reply,
        }
    }

    fn on_response(&mut self, env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Resume {
        let ok = resp.status < 500;
        let settled = self.core.borrow_mut().settle(leg.id, ok, env.clock.now());
        if let Some((peer, Some(t))) = settled {
            let state_now = self.core.borrow().state(&peer);
            Self::note_transition(env, &leg.dest, &peer, t, state_now);
        }
        Resume::Continue(resp)
    }

    fn on_deliver(&mut self, _env: &mut Env, leg: &LegMeta, _resp: &HttpResponse) {
        self.core.borrow_mut().abandon(leg.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_sim::engine::PriorityClass;
    use shield5g_sim::time::SimTime;

    fn env() -> Env {
        Env::new(9)
    }

    fn leg() -> LegMeta {
        LegMeta {
            id: 1,
            dest: "amf.oai".into(),
            path: "/p".into(),
            submitted: SimTime::from_nanos(0),
            arrived: SimTime::from_nanos(0),
            root: true,
            class: PriorityClass::Normal,
        }
    }

    fn callout() -> Step {
        Step::CallOut {
            dest: "ausf.oai".into(),
            req: shield5g_sim::http::HttpRequest::post("/p", vec![1]),
        }
    }

    fn trip(core: &mut BreakerCore<String>, peer: &str, now: SimTime) {
        let peer = peer.to_owned();
        for _ in 0..8 {
            assert_ne!(core.admit(&peer, now), BreakerDecision::Reject);
            if core.on_outcome(&peer, false, false, now).is_some() {
                return;
            }
        }
        panic!("eight straight failures did not trip the circuit");
    }

    #[test]
    fn sustained_failures_trip_the_circuit() {
        let mut core: BreakerCore<String> = BreakerCore::new(BreakerPolicy::default());
        let now = SimTime::from_nanos(0);
        trip(&mut core, "udm.oai", now);
        assert_eq!(core.state(&"udm.oai".into()), BreakerState::Open);
        assert_eq!(core.admit(&"udm.oai".into(), now), BreakerDecision::Reject);
        assert_eq!(core.stats().opened, 1);
        assert!(core.stats().rejected >= 1);
    }

    #[test]
    fn single_early_failure_stays_closed() {
        let mut core: BreakerCore<String> = BreakerCore::new(BreakerPolicy::default());
        let now = SimTime::from_nanos(0);
        let peer = "udm.oai".to_owned();
        assert!(core.on_outcome(&peer, false, false, now).is_none());
        assert_eq!(core.state(&peer), BreakerState::Closed);
    }

    #[test]
    fn recovers_through_half_open_probe() {
        let policy = BreakerPolicy::default();
        let mut core: BreakerCore<String> = BreakerCore::new(policy);
        let peer = "udm.oai".to_owned();
        let t0 = SimTime::from_nanos(0);
        trip(&mut core, &peer, t0);
        // Still rejecting inside the hold-off.
        let early = t0 + SimDuration::from_nanos(policy.open_for.as_nanos() / 2);
        assert_eq!(core.admit(&peer, early), BreakerDecision::Reject);
        // Past the hold-off: exactly one probe, further calls rejected.
        let later = t0 + policy.open_for;
        assert_eq!(core.admit(&peer, later), BreakerDecision::Probe);
        assert_eq!(core.admit(&peer, later), BreakerDecision::Reject);
        // Probe success closes and fully resets the circuit.
        assert_eq!(
            core.on_outcome(&peer, true, true, later),
            Some(BreakerTransition::Closed)
        );
        assert_eq!(core.state(&peer), BreakerState::Closed);
        assert_eq!(core.failure_ewma(&peer), 0.0);
        assert_eq!(core.admit(&peer, later), BreakerDecision::Admit);
    }

    #[test]
    fn failed_probe_reopens() {
        let policy = BreakerPolicy::default();
        let mut core: BreakerCore<String> = BreakerCore::new(policy);
        let peer = "udm.oai".to_owned();
        let t0 = SimTime::from_nanos(0);
        trip(&mut core, &peer, t0);
        let later = t0 + policy.open_for;
        assert_eq!(core.admit(&peer, later), BreakerDecision::Probe);
        assert_eq!(
            core.on_outcome(&peer, true, false, later),
            Some(BreakerTransition::Reopened)
        );
        assert_eq!(core.admit(&peer, later), BreakerDecision::Reject);
        // The fresh hold-off starts at the probe failure.
        let again = later + policy.open_for;
        assert_eq!(core.admit(&peer, again), BreakerDecision::Probe);
    }

    #[test]
    fn straggler_outcomes_while_open_are_inert() {
        let policy = BreakerPolicy::default();
        let mut core: BreakerCore<String> = BreakerCore::new(policy);
        let peer = "udm.oai".to_owned();
        let t0 = SimTime::from_nanos(0);
        trip(&mut core, &peer, t0);
        // A success admitted before the trip resolves late: no close.
        assert!(core.on_outcome(&peer, false, true, t0).is_none());
        assert_eq!(core.state(&peer), BreakerState::Open);
    }

    #[test]
    fn peers_are_independent() {
        let mut core: BreakerCore<String> = BreakerCore::new(BreakerPolicy::default());
        let now = SimTime::from_nanos(0);
        trip(&mut core, "udm.oai", now);
        assert_eq!(core.admit(&"udr.oai".into(), now), BreakerDecision::Admit);
        assert_eq!(core.state(&"udr.oai".into()), BreakerState::Closed);
    }

    #[test]
    fn layer_rejects_fail_fast_while_open() {
        let mut env = env();
        let mut layer = BreakerLayer::new(BreakerPolicy::default());
        // Trip via the layer: wrap + fail the same callout repeatedly.
        for _ in 0..6 {
            let step = layer.on_step(&mut env, &leg(), callout());
            assert!(
                matches!(step, Step::CallOut { .. }),
                "expected callout while closed/tripping"
            );
            let _ = layer.on_response(&mut env, &leg(), HttpResponse::error(504, "drop"));
            if layer.stats().opened > 0 {
                break;
            }
        }
        assert_eq!(layer.stats().opened, 1, "circuit never opened");
        let step = layer.on_step(&mut env, &leg(), callout());
        let Step::Reply(resp) = step else {
            panic!("open circuit must fail fast");
        };
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header(SHED_HEADER), Some("breaker-open"));
        assert_eq!(layer.stats().rejected, 1);
    }

    #[test]
    fn a_response_for_a_leg_with_nothing_parked_passes_through_untouched() {
        let mut env = env();
        let mut layer = BreakerLayer::new(BreakerPolicy::default());
        let out = layer.on_response(&mut env, &leg(), HttpResponse::error(504, "x"));
        match out {
            Resume::Continue(resp) => assert_eq!((resp.status, &resp.body[..]), (504, &b"x"[..])),
            Resume::Break(_) => panic!("an unguarded response must pass through"),
        }
        assert_eq!(layer.stats(), BreakerStats::default());
        assert_eq!(layer.core().borrow().total_samples(), 0);
    }

    #[test]
    fn healthy_traffic_is_invisible() {
        let mut env = env();
        let mut layer = BreakerLayer::new(BreakerPolicy::default());
        for _ in 0..32 {
            let step = layer.on_step(&mut env, &leg(), callout());
            assert!(
                matches!(step, Step::CallOut { .. }),
                "healthy callouts must pass"
            );
            match layer.on_response(&mut env, &leg(), HttpResponse::ok(vec![])) {
                Resume::Continue(resp) => assert!(resp.is_success()),
                Resume::Break(_) => panic!("healthy responses must continue"),
            }
            assert_eq!(layer.core().borrow().calls_in_flight(), 0);
        }
        assert_eq!(layer.stats(), BreakerStats::default());
    }
}
