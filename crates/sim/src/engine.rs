//! The deterministic discrete-event simulation engine.
//!
//! Every network call in a simulated world is an *event* on a single
//! binary-heap queue keyed by `(virtual_time, seq)` — the sequence number
//! breaks ties deterministically, so two runs with the same seed replay
//! the exact same event order. Services run as resumable request
//! contexts: a handler that needs a downstream SBI call returns
//! [`Step::CallOut`] and yields back to the scheduler instead of
//! recursing, and the engine resumes it when the response event fires.
//!
//! Concurrency is *mechanistic*, not analytic: each endpoint holds a
//! fixed pool of worker threads (for an enclave module, `sgx.max_threads`
//! minus Gramine's helper threads). A busy worker charges its enclave
//! transitions and crypto time exclusively on its own context's timeline
//! — the engine rewinds the shared [`crate::clock::Clock`] to each
//! event's timestamp before running it — and excess arrivals wait in the
//! endpoint's FIFO. Queueing delay, the Fig. 8 thread sweep, and
//! admission shedding all emerge from event ordering.
//!
//! The engine itself is a *pure scheduler*: heap, worker budgets, and
//! the event trace — one structured [`TraceRecord`] per decision,
//! rendered to its byte-exact line only when somebody reads it
//! ([`Engine::trace_lines`]). The hot path owns no strings: an endpoint's
//! address lives once — as its registry key for a root leg, as the
//! caller's handle for its peer on a [`Step::CallOut`] — and every leg,
//! release event and trace record naming it holds an `Rc<str>` clone; a
//! leg's path is the request's own handle. Cross-cutting
//! per-endpoint concerns — admission control, fault injection,
//! observability, retries, deadlines — live in middleware layers (the
//! `shield5g-mw` crate) stacked around each registered service. The
//! scheduler exposes the seams those layers need as default-no-op
//! [`EngineService`] hooks (`on_arrive`, `on_begin`, `request_fate`,
//! `response_fate`, ...): a bare service scheduled directly behaves
//! exactly like one wrapped in an empty stack, and a hook that declines
//! to act is byte-invisible in the trace.
//!
//! Two driving modes:
//!
//! * **Closed loop** — [`Engine::dispatch`] injects one root request and
//!   runs the event loop until it completes (the Fig. 8–10 rep-at-a-time
//!   experiments, and the gNB's synchronous N2 exchange).
//! * **Open loop** — [`Engine::schedule_request`] posts arrivals at
//!   absolute virtual times; [`Engine::run_until`] /
//!   [`Engine::run_until_idle`] then crank the event loop and return
//!   [`Completion`]s (the pool-scaling experiments).
//!
//! # Threading model
//!
//! One engine is one single-threaded simulated world: services are
//! `Rc`-based, the event heap is unsynchronized, and the rendered
//! trace depends only on the seed. The engine neither spawns OS threads
//! nor tolerates being shared across them — the "worker threads" above
//! are simulated capacity, not parallelism. Host-level parallelism
//! comes from running *independent* engines (one per sweep point, each
//! with its own `Env` and seed) on separate OS threads, as the bench
//! sweep runner (`shield5g-bench::runner`) does; because a run never
//! reads anything outside its own world, its trace is byte-identical
//! whether it ran alone or beside fifteen others.

use crate::http::{HttpRequest, HttpResponse};
use crate::service::{Env, ServiceHandle};
use crate::time::{SimDuration, SimTime};
use crate::SimError;
use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::rc::Rc;

/// Response header the engine sets on synthesized (non-service) replies:
/// `unknown-endpoint` for a call to an unregistered address, `loop` for a
/// call that would re-enter an endpoint already on the context's call
/// chain.
pub const ERROR_HEADER: &str = "x-sim-error";

/// Response header set on replies synthesized by admission control:
/// `queue-full` when the endpoint's bounded queue was full at arrival,
/// `deadline` when the request's wait exceeded the admission deadline
/// before a worker freed up (or, with a deadline layer stacked, when the
/// virtual deadline passed mid-chain).
pub const SHED_HEADER: &str = "x-sim-shed";

/// Response header set when an injected fault touched the delivery:
/// `drop` on the synthesized 504 a lost message resolves to once the
/// caller's supervision timer fires, `injected-5xx` on a synthesized
/// upstream error, `delay` on a real response that was held back in
/// flight.
pub const FAULT_HEADER: &str = "x-sim-fault";

/// Request header marking a leg's priority class. The scheduler reads it
/// once when the context is created (`emergency` selects
/// [`PriorityClass::Emergency`]; anything else is normal traffic) and
/// carries the class on [`LegMeta`], so admission layers can shed by
/// class at arrival time — before the request body is in reach.
pub const PRIORITY_HEADER: &str = "x-sim-priority";

/// Priority class of a request leg, derived from [`PRIORITY_HEADER`].
/// Emergency registrations (TS 23.501 §5.16.4 emergency services) must
/// survive overload that sheds ordinary traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PriorityClass {
    /// Ordinary traffic: first to be shed under overload.
    #[default]
    Normal,
    /// Emergency traffic: shed only when capacity is truly exhausted.
    Emergency,
}

impl PriorityClass {
    /// Reads the class a request announces via [`PRIORITY_HEADER`].
    #[must_use]
    pub fn of(req: &HttpRequest) -> PriorityClass {
        if req.header(PRIORITY_HEADER) == Some("emergency") {
            PriorityClass::Emergency
        } else {
            PriorityClass::Normal
        }
    }

    /// Stable label for metrics and artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Normal => "normal",
            PriorityClass::Emergency => "emergency",
        }
    }
}

/// What an injected fault does to one message delivery (a `CallOut`
/// request leg or a `Reply` response leg).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: deliver normally.
    Deliver,
    /// The message is lost. The waiting side learns nothing until its
    /// supervision timer expires: a synthesized 504 (`x-sim-fault:
    /// drop`) is delivered after `timeout`.
    Drop {
        /// Supervision-timer expiry charged to the waiting caller.
        timeout: SimDuration,
    },
    /// The message is delivered intact, `delay` late (congestion,
    /// rerouting). Marked `x-sim-fault: delay` on response legs.
    Delay(SimDuration),
    /// The message is replaced by a synthesized transport-level error
    /// (`x-sim-fault: injected-5xx`) delivered immediately — a connection
    /// reset or proxy failure.
    Error {
        /// HTTP status of the synthesized error (5xx).
        status: u16,
    },
}

/// Decides the fate of each engine message delivery. Implementations
/// must be deterministic functions of their own seeded state — the
/// engine consults them (through the [`EngineService::request_fate`] /
/// [`EngineService::response_fate`] hooks) in event order, so a
/// seed-driven injector yields byte-identical fault schedules across
/// same-seed runs.
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

/// What a service segment does next.
pub enum Step {
    /// The request is answered; the worker is released and the response
    /// travels back to the caller (or completes the root context).
    Reply(HttpResponse),
    /// The service needs a downstream round trip. The context keeps its
    /// worker (thread-per-request, as in OAI's NFs); `state` is handed
    /// back verbatim to [`EngineService::resume`] with the response.
    CallOut {
        /// Destination endpoint address: the handle the caller keeps for
        /// its peer, shared by the leg and every trace record naming it.
        dest: Rc<str>,
        /// The outbound request. Send-side latency (TLS record, link
        /// transfer) must already be charged: the arrival is scheduled at
        /// the clock instant this step is returned.
        req: HttpRequest,
        /// Continuation state, returned to `resume` untouched.
        state: Box<dyn Any>,
    },
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Reply(r) => f.debug_tuple("Reply").field(&r.status).finish(),
            Step::CallOut { dest, req, .. } => f
                .debug_struct("CallOut")
                .field("dest", dest)
                .field("path", &req.path)
                .finish(),
        }
    }
}

/// Identity and timing of one request leg, handed to every
/// [`EngineService`] hook. Built by the scheduler from its context
/// table; layers key any per-leg state they carry on [`LegMeta::id`].
#[derive(Clone, Debug)]
pub struct LegMeta {
    /// Engine-unique context id of this leg.
    pub id: u64,
    /// Destination endpoint address: a clone of the registry's own
    /// handle for it, shared by every leg and trace record that names it.
    pub dest: Rc<str>,
    /// Request path, shared once per leg from the request.
    pub path: Rc<str>,
    /// When the root request entered the engine.
    pub submitted: SimTime,
    /// When this leg reached (or will reach) its destination endpoint.
    pub arrived: SimTime,
    /// Whether this is a root leg (no parent context).
    pub root: bool,
    /// Priority class the request announced via [`PRIORITY_HEADER`].
    pub class: PriorityClass,
}

/// An admission decision from [`EngineService::on_arrive`] /
/// [`EngineService::on_begin`]. On [`Gate::Shed`] the scheduler writes
/// `note` into the event trace and delivers `resp` to the caller without
/// running the service — so a shedding layer controls the synthesized
/// response while the trace format stays the scheduler's.
pub enum Gate {
    /// Let the request proceed.
    Admit,
    /// Refuse the request: deliver `resp` instead of serving it.
    Shed {
        /// The synthesized response (conventionally 503 + [`SHED_HEADER`]).
        resp: HttpResponse,
        /// Trace annotation, e.g. `"shed-full"` / `"shed-deadline"`.
        note: &'static str,
    },
}

/// Admission counters reported by a service stack through
/// [`EngineService::admission_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Arrivals refused because the bounded queue was full.
    pub shed_full: u64,
    /// Waiters refused because their queueing delay exceeded the
    /// admission deadline.
    pub shed_deadline: u64,
    /// Peak in-flight depth (serving + waiting) seen at the endpoint.
    pub depth_peak: usize,
}

/// A service in continuation-passing form: `start` handles a fresh
/// request, `resume` continues after a downstream response. Handlers
/// never touch the engine — they advance the clock for their own compute
/// and return a [`Step`]; the scheduler owns all routing.
///
/// Beyond the two segment methods, the trait carries the *scheduler
/// hooks*: default-no-op seams the engine invokes at each routing
/// decision so a middleware stack (`shield5g-mw`) can interpose
/// admission control, fault injection, observability, retries and
/// deadlines without the scheduler knowing any of those concerns. A
/// plain service that overrides nothing behaves exactly as if no hook
/// existed.
pub trait EngineService {
    /// Begins handling `req`. Called once per request, with the clock set
    /// to the instant the request reached a free worker.
    fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step;

    /// Continues after the downstream response to an earlier
    /// [`Step::CallOut`]. `state` is the continuation state that call
    /// carried. Response-side latency (link transfer, TLS record) is
    /// charged here by the service's client helper.
    fn resume(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        state: Box<dyn Any>,
        resp: HttpResponse,
    ) -> Step;

    /// Hook: a root leg for this endpoint was posted via
    /// [`Engine::schedule_request`] (clock may not be at
    /// `leg.submitted` yet — open-loop arrivals are scheduled ahead).
    fn on_submit(&mut self, leg: &LegMeta) {
        let _ = leg;
    }

    /// Hook: a leg reached this endpoint. `depth` is the in-flight count
    /// (serving + waiting) *before* this arrival. Returning
    /// [`Gate::Shed`] refuses it at the door.
    fn on_arrive(&mut self, env: &mut Env, leg: &LegMeta, depth: usize) -> Gate {
        let _ = (env, leg, depth);
        Gate::Admit
    }

    /// Hook: the arrival was admitted; `depth` now counts it
    /// (serving + waiting, inclusive).
    fn on_admitted(&mut self, env: &mut Env, leg: &LegMeta, depth: usize) {
        let _ = (env, leg, depth);
    }

    /// Hook: the admitted leg found no free worker and joined the FIFO.
    fn on_queued(&mut self, env: &mut Env, leg: &LegMeta) {
        let _ = (env, leg);
    }

    /// Hook: a worker is about to run the leg after waiting `waited` in
    /// the FIFO. Returning [`Gate::Shed`] refuses it (the worker is
    /// released) — this is where deadline shedding lives.
    fn on_begin(&mut self, env: &mut Env, leg: &LegMeta, waited: SimDuration) -> Gate {
        let _ = (env, leg, waited);
        Gate::Admit
    }

    /// Hook: this service returned a [`Step::CallOut`]; `child` is the
    /// freshly minted downstream leg.
    fn on_callout(&mut self, env: &mut Env, parent: &LegMeta, child: &LegMeta) {
        let _ = (env, parent, child);
    }

    /// Hook: fate of an outbound request leg this service is sending to
    /// `dest` (consulted on the *caller's* stack).
    fn request_fate(&mut self, env: &mut Env, dest: &str, path: &str) -> FaultAction {
        let _ = (env, dest, path);
        FaultAction::Deliver
    }

    /// Hook: fate of the response leg this service just produced
    /// (consulted on the *replier's* stack).
    fn response_fate(&mut self, env: &mut Env, leg: &LegMeta, status: u16) -> FaultAction {
        let _ = (env, leg, status);
        FaultAction::Deliver
    }

    /// Hook: a response (service-produced or synthesized) is being
    /// delivered for a leg addressed to this endpoint; the leg is done.
    fn on_deliver(&mut self, env: &mut Env, leg: &LegMeta, resp: &HttpResponse) {
        let _ = (env, leg, resp);
    }

    /// Hook: install an admission policy. Returns whether anything in
    /// the service accepted it (a bare service has no admission layer
    /// and returns `false`).
    fn set_admission_policy(&mut self, policy: AdmissionPolicy) -> bool {
        let _ = policy;
        false
    }

    /// Hook: admission counters accumulated by the service's stack.
    fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats::default()
    }
}

/// Shared handle to an engine service.
pub type EngineServiceHandle = Rc<RefCell<dyn EngineService>>;

/// Compatibility shim: adapts a plain synchronous [`crate::service::Service`]
/// (a *leaf* — it never calls out) to the engine trait.
struct LeafService {
    inner: ServiceHandle,
}

impl EngineService for LeafService {
    fn start(&mut self, env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
        Step::Reply(self.inner.borrow_mut().handle(env, req))
    }

    fn resume(
        &mut self,
        _env: &mut Env,
        _leg: &LegMeta,
        _state: Box<dyn Any>,
        _resp: HttpResponse,
    ) -> Step {
        Step::Reply(HttpResponse::error(500, "leaf service cannot resume"))
    }
}

/// Admission-control policy of one endpoint. Defaults to unbounded: every
/// arrival waits as long as it takes. Enforced by an admission layer
/// stacked on the endpoint's service (`shield5g-mw`), not by the
/// scheduler itself.
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

/// A finished root request from the open-loop API.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Caller-chosen tag from [`Engine::schedule_request`].
    pub tag: u64,
    /// The final response (may be engine-synthesized: check
    /// [`SHED_HEADER`] / [`ERROR_HEADER`]).
    pub response: HttpResponse,
    /// When the request was injected.
    pub submitted: SimTime,
    /// When the response was ready.
    pub finished: SimTime,
    /// Time spent waiting for a worker at the root endpoint.
    pub queued: SimDuration,
}

impl Completion {
    /// True when admission control shed this request.
    #[must_use]
    pub fn shed(&self) -> bool {
        self.response.header(SHED_HEADER).is_some()
    }
}

struct Endpoint {
    service: EngineServiceHandle,
    workers: u32,
    busy: u32,
    waiting: VecDeque<u64>,
}

struct ParentLink {
    ctx: u64,
    state: Box<dyn Any>,
}

struct Ctx {
    leg: LegMeta,
    req: Option<HttpRequest>,
    parent: Option<ParentLink>,
    tag: u64,
    queued: SimDuration,
}

/// The second half of a [`TraceRecord`]: what the decision was about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceDetail {
    /// The request path of the leg (every kind but the two below).
    Path(Rc<str>),
    /// The response status (`reply` and `complete`).
    Status(u16),
}

impl std::fmt::Display for TraceDetail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDetail::Path(path) => f.write_str(path),
            TraceDetail::Status(status) => write!(f, "{status}"),
        }
    }
}

/// One scheduler decision, kept as data: recording it formats nothing
/// and copies no string (`dest` and the path are shared handles).
/// [`TraceRecord::line`] renders it when somebody reads the trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual instant of the decision.
    pub at: SimTime,
    /// `arrive`, `queue`, `begin`, `callout`, `reply`, `resume`,
    /// `complete`, `fault-drop`, `fault-delay`, `fault-5xx`, or the note
    /// of a [`Gate::Shed`] (`shed-full`, `shed-deadline`, ...).
    pub kind: &'static str,
    /// The endpoint the decision concerns.
    pub dest: Rc<str>,
    /// Path or status.
    pub detail: TraceDetail,
}

impl TraceRecord {
    /// The record as the trace line `t=<nanos> seq=<n> <kind> <endpoint>
    /// <path|status>`, `seq` being its index in [`Engine::trace`].
    #[must_use]
    pub fn line(&self, seq: usize) -> String {
        let (at, kind, dest, detail) = (self.at.as_nanos(), self.kind, &self.dest, &self.detail);
        format!("t={at} seq={seq} {kind} {dest} {detail}")
    }
}

enum EventKind {
    /// A request context reaches its destination endpoint.
    Arrive { ctx: u64 },
    /// A queued context is granted a worker.
    Begin { ctx: u64 },
    /// A worker frees up. Releases are events (not inline bookkeeping) so
    /// that a worker busy until virtual time `t` stays busy for every
    /// arrival popping before `t` — same-instant arrival order decides
    /// who queues, deterministically.
    Release { dest: Rc<str> },
    /// A response travels back: resume the parent or complete the root.
    Deliver { ctx: u64, resp: HttpResponse },
}

struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event scheduler and endpoint registry of one world.
pub struct Engine {
    endpoints: BTreeMap<Rc<str>, Endpoint>,
    heap: BinaryHeap<Reverse<Event>>,
    ctxs: BTreeMap<u64, Ctx>,
    next_ctx: u64,
    next_seq: u64,
    completions: Vec<Completion>,
    trace: Vec<TraceRecord>,
    trace_enabled: bool,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("endpoints", &self.endpoints.len())
            .field("pending_events", &self.heap.len())
            .finish()
    }
}

impl Engine {
    /// An empty engine.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            endpoints: BTreeMap::new(),
            heap: BinaryHeap::new(),
            ctxs: BTreeMap::new(),
            next_ctx: 1,
            next_seq: 0,
            completions: Vec::new(),
            trace: Vec::new(),
            trace_enabled: true,
        }
    }

    /// Wraps a synchronous leaf service (UDR, UPF, a P-AKA module
    /// endpoint) for registration.
    #[must_use]
    pub fn leaf(inner: ServiceHandle) -> EngineServiceHandle {
        Rc::new(RefCell::new(LeafService { inner }))
    }

    /// Registers (or replaces) `service` at `addr` with a pool of
    /// `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`.
    pub fn register(
        &mut self,
        addr: impl Into<String>,
        workers: u32,
        service: EngineServiceHandle,
    ) {
        assert!(workers > 0, "an endpoint needs at least one worker");
        // Re-registering keeps the map's existing key, so handles held by
        // legs in flight stay the registry's own.
        self.endpoints.insert(
            Rc::from(addr.into()),
            Endpoint {
                service,
                workers,
                busy: 0,
                waiting: VecDeque::new(),
            },
        );
    }

    /// Routes an admission policy to the service registered at `addr`
    /// (its admission layer, when it has one). Returns `false` when
    /// `addr` is unknown or the service has nothing that accepts a
    /// policy — callers that require enforcement must check.
    pub fn set_policy(&mut self, addr: &str, policy: AdmissionPolicy) -> bool {
        self.endpoints
            .get(addr)
            .is_some_and(|e| e.service.borrow_mut().set_admission_policy(policy))
    }

    /// Removes an endpoint; returns whether it existed.
    pub fn deregister(&mut self, addr: &str) -> bool {
        self.endpoints.remove(addr).is_some()
    }

    /// Whether `addr` is registered.
    #[must_use]
    pub fn knows(&self, addr: &str) -> bool {
        self.endpoints.contains_key(addr)
    }

    /// All registered addresses, sorted.
    #[must_use]
    pub fn addresses(&self) -> Vec<String> {
        let mut out: Vec<String> = self.endpoints.keys().map(|k| k.to_string()).collect();
        out.sort();
        out
    }

    /// `(queue-full, deadline)` shed counters reported by an endpoint's
    /// service stack.
    #[must_use]
    pub fn shed_counts(&self, addr: &str) -> (u64, u64) {
        self.endpoints.get(addr).map_or((0, 0), |e| {
            let s = e.service.borrow().admission_stats();
            (s.shed_full, s.shed_deadline)
        })
    }

    /// Peak in-flight depth (serving + waiting) reported by an
    /// endpoint's service stack.
    #[must_use]
    pub fn depth_peak(&self, addr: &str) -> usize {
        self.endpoints
            .get(addr)
            .map_or(0, |e| e.service.borrow().admission_stats().depth_peak)
    }

    /// Disables (or re-enables) event tracing — long open-loop sweeps
    /// don't need the per-event transcript.
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
        if !enabled {
            self.trace.clear();
        }
    }

    /// The event trace so far: one record per scheduler decision, in
    /// execution order. Identical across same-seed runs.
    #[must_use]
    pub fn trace(&self) -> &[TraceRecord] {
        &self.trace
    }

    /// The trace rendered on read, one [`TraceRecord::line`] per record
    /// (`t=<nanos> seq=<n> <kind> <endpoint> <path|status>`).
    /// Byte-identical across same-seed runs.
    #[must_use]
    pub fn trace_lines(&self) -> Vec<String> {
        let numbered = self.trace.iter().enumerate();
        numbered.map(|(seq, record)| record.line(seq)).collect()
    }

    /// Injects one request at the current clock instant and runs the
    /// event loop until it completes, leaving the clock at the completion
    /// instant — the synchronous, closed-loop call form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEndpoint`] when `addr` is not
    /// registered. Downstream failures arrive as ordinary non-2xx
    /// responses.
    pub fn dispatch(
        &mut self,
        env: &mut Env,
        addr: &str,
        req: HttpRequest,
    ) -> Result<HttpResponse, SimError> {
        let tag = self.schedule_request(env.clock.now(), addr, req);
        loop {
            if let Some(pos) = self.completions.iter().position(|c| c.tag == tag) {
                let done = self.completions.swap_remove(pos);
                env.clock.set(done.finished);
                if done.response.header(ERROR_HEADER) == Some("unknown-root") {
                    return Err(SimError::UnknownEndpoint(addr.to_owned()));
                }
                return Ok(done.response);
            }
            let ev = self
                .heap
                .pop()
                .expect("root context pending but event queue empty")
                .0;
            self.process(env, ev);
        }
    }

    /// Like [`Engine::dispatch`] but maps non-2xx responses to
    /// [`SimError::ServiceFailure`].
    ///
    /// # Errors
    ///
    /// Everything `dispatch` returns, plus `ServiceFailure` for non-2xx.
    pub fn dispatch_ok(
        &mut self,
        env: &mut Env,
        addr: &str,
        req: HttpRequest,
    ) -> Result<HttpResponse, SimError> {
        let resp = self.dispatch(env, addr, req)?;
        if resp.is_success() {
            Ok(resp)
        } else {
            Err(SimError::ServiceFailure {
                endpoint: addr.to_owned(),
                status: resp.status,
            })
        }
    }

    /// Posts an open-loop arrival at absolute virtual time `at` and
    /// returns its completion tag.
    pub fn schedule_request(&mut self, at: SimTime, addr: &str, req: HttpRequest) -> u64 {
        let id = self.next_ctx;
        self.next_ctx += 1;
        // The registry's own handle for `addr`, so naming the endpoint on
        // the leg and its trace records is a reference-count bump. An
        // unknown address gets a fresh one; its arrival synthesizes the 502.
        let known = self.endpoints.get_key_value(addr);
        let leg = LegMeta {
            id,
            dest: known.map_or_else(|| Rc::from(addr), |(key, _)| key.clone()),
            path: req.path.clone(),
            submitted: at,
            arrived: at,
            root: true,
            class: PriorityClass::of(&req),
        };
        // Root legs announce themselves to the destination stack (an obs
        // layer roots the leg's request span under the ambient harness
        // stage span here, so a whole registration's hops share one
        // trace). Unknown destinations get no announcement — the arrival
        // will synthesize the error.
        if let Some(ep) = self.endpoints.get(addr) {
            ep.service.borrow_mut().on_submit(&leg);
        }
        self.ctxs.insert(
            id,
            Ctx {
                leg,
                req: Some(req),
                parent: None,
                tag: id,
                queued: SimDuration::ZERO,
            },
        );
        self.push_event(at, EventKind::Arrive { ctx: id });
        id
    }

    /// Whether a context up `ctx`'s call chain is already addressed to its
    /// endpoint. Every ancestor is still in the table: a context is only
    /// removed once its own response is delivered, after its children's.
    fn loops(&self, ctx: &Ctx) -> bool {
        let up = |c: &Ctx| c.parent.as_ref().and_then(|link| self.ctxs.get(&link.ctx));
        let mut ancestor = up(ctx);
        while let Some(a) = ancestor {
            if a.leg.dest == ctx.leg.dest {
                return true;
            }
            ancestor = up(a);
        }
        false
    }

    /// Runs every event with `at <= until`, leaves the clock at `until`,
    /// and drains the completions so far.
    pub fn run_until(&mut self, env: &mut Env, until: SimTime) -> Vec<Completion> {
        while self.heap.peek().is_some_and(|Reverse(ev)| ev.at <= until) {
            if let Some(Reverse(ev)) = self.heap.pop() {
                self.process(env, ev);
            }
        }
        env.clock.set(until);
        std::mem::take(&mut self.completions)
    }

    /// Runs until no events remain and drains the completions.
    pub fn run_until_idle(&mut self, env: &mut Env) -> Vec<Completion> {
        while let Some(Reverse(ev)) = self.heap.pop() {
            self.process(env, ev);
        }
        std::mem::take(&mut self.completions)
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { at, seq, kind }));
    }

    fn note(&mut self, at: SimTime, kind: &'static str, dest: &Rc<str>, detail: TraceDetail) {
        if self.trace_enabled {
            let dest = dest.clone();
            self.trace.push(TraceRecord {
                at,
                kind,
                dest,
                detail,
            });
        }
    }

    /// [`Engine::note`] about the leg's own endpoint and path.
    fn note_leg(&mut self, at: SimTime, kind: &'static str, leg: &LegMeta) {
        self.note(at, kind, &leg.dest, TraceDetail::Path(leg.path.clone()));
    }

    fn process(&mut self, env: &mut Env, ev: Event) {
        env.clock.set(ev.at);
        match ev.kind {
            EventKind::Arrive { ctx } => self.on_arrive(env, ctx),
            EventKind::Begin { ctx } => self.run_begin(env, ctx),
            EventKind::Release { dest } => self.release_worker(&dest, ev.at),
            EventKind::Deliver { ctx, resp } => self.on_deliver(env, ctx, resp),
        }
    }

    fn on_arrive(&mut self, env: &mut Env, id: u64) {
        let now = env.clock.now();
        let ctx = self.ctxs.get(&id).expect("arriving context exists");
        let (leg, looped) = (ctx.leg.clone(), self.loops(ctx));
        self.note_leg(now, "arrive", &leg);
        if looped {
            let resp = HttpResponse::error(508, format!("call loop through {}", leg.dest))
                .with_header(ERROR_HEADER, "loop");
            self.push_event(now, EventKind::Deliver { ctx: id, resp });
            return;
        }
        let Some(ep) = self.endpoints.get_mut(&leg.dest) else {
            // Roots get a distinct marker so `dispatch` can surface a hard
            // error; nested callers see an ordinary 502 they can map.
            let marker = if leg.root {
                "unknown-root"
            } else {
                "unknown-endpoint"
            };
            let resp = HttpResponse::error(502, format!("unknown endpoint {}", leg.dest))
                .with_header(ERROR_HEADER, marker);
            self.push_event(now, EventKind::Deliver { ctx: id, resp });
            return;
        };
        let service = ep.service.clone();
        let depth = ep.busy as usize + ep.waiting.len();
        match service.borrow_mut().on_arrive(env, &leg, depth) {
            Gate::Admit => {}
            Gate::Shed { resp, note } => {
                // Shed at the door: no worker was taken, so no Release —
                // the synthesized reply completes at the arrival instant.
                self.note_leg(now, note, &leg);
                self.push_event(now, EventKind::Deliver { ctx: id, resp });
                return;
            }
        }
        service.borrow_mut().on_admitted(env, &leg, depth + 1);
        if ep.busy < ep.workers {
            ep.busy += 1;
            self.run_begin(env, id);
        } else {
            ep.waiting.push_back(id);
            self.note_leg(now, "queue", &leg);
            service.borrow_mut().on_queued(env, &leg);
        }
    }

    /// Runs the `start` segment of a context that has been granted a
    /// worker (its endpoint's `busy` already counts it).
    fn run_begin(&mut self, env: &mut Env, id: u64) {
        let now = env.clock.now();
        let (leg, wait, req) = {
            let ctx = self.ctxs.get_mut(&id).expect("beginning context exists");
            ctx.queued = now - ctx.leg.arrived;
            let req = ctx.req.take().expect("request not yet started");
            (ctx.leg.clone(), ctx.queued, req)
        };
        let service = self
            .endpoints
            .get(&leg.dest)
            .expect("endpoint exists")
            .service
            .clone();
        match service.borrow_mut().on_begin(env, &leg, wait) {
            Gate::Admit => {}
            Gate::Shed { resp, note } => {
                // Shed at begin: the worker granted to this leg is
                // released before the synthesized reply travels back.
                self.note_leg(now, note, &leg);
                self.push_event(now, EventKind::Release { dest: leg.dest });
                self.push_event(now, EventKind::Deliver { ctx: id, resp });
                return;
            }
        }
        self.note_leg(now, "begin", &leg);
        let step = service.borrow_mut().start(env, &leg, req);
        self.apply_step(env, id, step);
    }

    fn apply_step(&mut self, env: &mut Env, id: u64, step: Step) {
        let now = env.clock.now();
        match step {
            Step::Reply(resp) => {
                let leg = self.ctxs.get(&id).expect("replying context").leg.clone();
                self.note(now, "reply", &leg.dest, TraceDetail::Status(resp.status));
                // The worker did its work regardless of what happens to
                // the response in flight: release fires at `now`.
                self.push_event(
                    now,
                    EventKind::Release {
                        dest: leg.dest.clone(),
                    },
                );
                let action = match self.endpoints.get(&leg.dest) {
                    Some(ep) => {
                        let service = ep.service.clone();
                        let a = service.borrow_mut().response_fate(env, &leg, resp.status);
                        a
                    }
                    None => FaultAction::Deliver,
                };
                match action {
                    FaultAction::Deliver => {
                        self.push_event(now, EventKind::Deliver { ctx: id, resp });
                    }
                    FaultAction::Drop { timeout } => {
                        self.note_leg(now, "fault-drop", &leg);
                        let resp = HttpResponse::error(504, "injected response drop")
                            .with_header(FAULT_HEADER, "drop");
                        self.push_event(now + timeout, EventKind::Deliver { ctx: id, resp });
                    }
                    FaultAction::Delay(d) => {
                        self.note_leg(now, "fault-delay", &leg);
                        let resp = resp.with_header(FAULT_HEADER, "delay");
                        self.push_event(now + d, EventKind::Deliver { ctx: id, resp });
                    }
                    FaultAction::Error { status } => {
                        self.note_leg(now, "fault-5xx", &leg);
                        let resp = HttpResponse::error(status, "injected upstream failure")
                            .with_header(FAULT_HEADER, "injected-5xx");
                        self.push_event(now, EventKind::Deliver { ctx: id, resp });
                    }
                }
            }
            Step::CallOut { dest, req, state } => {
                let child = self.next_ctx;
                self.next_ctx += 1;
                let parent = self.ctxs.get(&id).expect("calling context");
                let (tag, parent_leg) = (parent.tag, parent.leg.clone());
                // A callout inherits the caller's priority class unless
                // the outbound request re-marks itself — an emergency
                // registration's whole SBI chain stays emergency.
                let class = if req.header(PRIORITY_HEADER).is_some() {
                    PriorityClass::of(&req)
                } else {
                    parent_leg.class
                };
                let mut child_leg = LegMeta {
                    id: child,
                    dest,
                    path: req.path.clone(),
                    submitted: parent_leg.submitted,
                    arrived: now,
                    root: false,
                    class,
                };
                self.note_leg(now, "callout", &child_leg);
                // The *caller's* stack observes the new leg and decides
                // its request-leg fate — the callee may not even exist.
                let parent_service = self
                    .endpoints
                    .get(&parent_leg.dest)
                    .map(|ep| ep.service.clone());
                let action = match parent_service {
                    Some(service) => {
                        let mut svc = service.borrow_mut();
                        svc.on_callout(env, &parent_leg, &child_leg);
                        svc.request_fate(env, &child_leg.dest, &child_leg.path)
                    }
                    None => FaultAction::Deliver,
                };
                let (at, kind) = match action {
                    FaultAction::Deliver => (now, EventKind::Arrive { ctx: child }),
                    FaultAction::Drop { timeout } => {
                        // The request never reaches `dest`; the caller
                        // sits on its supervision timer and resumes with
                        // a synthesized 504.
                        self.note_leg(now, "fault-drop", &child_leg);
                        let resp = HttpResponse::error(504, "injected request drop")
                            .with_header(FAULT_HEADER, "drop");
                        (now + timeout, EventKind::Deliver { ctx: child, resp })
                    }
                    FaultAction::Delay(d) => {
                        self.note_leg(now, "fault-delay", &child_leg);
                        // In-network delay is not queueing delay: move the
                        // arrival instant so admission deadlines measure
                        // only the wait at the endpoint.
                        child_leg.arrived = now + d;
                        (now + d, EventKind::Arrive { ctx: child })
                    }
                    FaultAction::Error { status } => {
                        self.note_leg(now, "fault-5xx", &child_leg);
                        let resp = HttpResponse::error(status, "injected upstream failure")
                            .with_header(FAULT_HEADER, "injected-5xx");
                        (now, EventKind::Deliver { ctx: child, resp })
                    }
                };
                self.ctxs.insert(
                    child,
                    Ctx {
                        leg: child_leg,
                        req: Some(req),
                        parent: Some(ParentLink { ctx: id, state }),
                        tag,
                        queued: SimDuration::ZERO,
                    },
                );
                self.push_event(at, kind);
            }
        }
    }

    /// Frees one worker at `dest` and hands it to the head waiter, if
    /// any. The waiter's `Begin` fires at `now` (same instant, later
    /// sequence number — deterministic).
    fn release_worker(&mut self, dest: &str, now: SimTime) {
        let Some(ep) = self.endpoints.get_mut(dest) else {
            return; // deregistered while the request was in flight
        };
        ep.busy = ep.busy.saturating_sub(1);
        if let Some(next) = ep.waiting.pop_front() {
            ep.busy += 1;
            self.push_event(now, EventKind::Begin { ctx: next });
        }
    }

    fn on_deliver(&mut self, env: &mut Env, id: u64, resp: HttpResponse) {
        let now = env.clock.now();
        let Ctx {
            leg,
            parent,
            tag,
            queued,
            ..
        } = self.ctxs.remove(&id).expect("delivered context exists");
        // The destination stack sees every delivery for its legs —
        // service-produced and engine-synthesized alike (an obs layer
        // closes the leg's request span here). A leg to an unregistered
        // address has no stack to notify.
        if let Some(ep) = self.endpoints.get(&leg.dest) {
            let service = ep.service.clone();
            service.borrow_mut().on_deliver(env, &leg, &resp);
        }
        match parent {
            None => {
                self.note(now, "complete", &leg.dest, TraceDetail::Status(resp.status));
                self.completions.push(Completion {
                    tag,
                    response: resp,
                    submitted: leg.submitted,
                    finished: now,
                    queued,
                });
            }
            Some(link) => {
                let parent = self.ctxs.get(&link.ctx).expect("parent context exists");
                let parent_leg = parent.leg.clone();
                self.note(now, "resume", &parent_leg.dest, TraceDetail::Path(leg.path));
                let Some(ep) = self.endpoints.get(&parent_leg.dest) else {
                    // Parent's endpoint was deregistered mid-flight: the
                    // whole chain collapses with a synthesized error.
                    let text = format!("unknown endpoint {}", parent_leg.dest);
                    let resp = HttpResponse::error(502, text)
                        .with_header(ERROR_HEADER, "unknown-endpoint");
                    self.push_event(
                        now,
                        EventKind::Deliver {
                            ctx: link.ctx,
                            resp,
                        },
                    );
                    return;
                };
                let service = ep.service.clone();
                let step = service
                    .borrow_mut()
                    .resume(env, &parent_leg, link.state, resp);
                self.apply_step(env, link.ctx, step);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_handle, Service};

    /// A leaf that charges a fixed service time and echoes the body.
    struct SlowEcho {
        nanos: u64,
    }

    impl Service for SlowEcho {
        fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
            env.clock.advance(SimDuration::from_nanos(self.nanos));
            HttpResponse::ok(req.body)
        }
    }

    /// A relay that forwards to `next` and tags the response.
    struct Relay {
        next: Rc<str>,
    }

    impl EngineService for Relay {
        fn start(&mut self, _env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
            Step::CallOut {
                dest: self.next.clone(),
                req,
                state: Box::new(()),
            }
        }

        fn resume(
            &mut self,
            _env: &mut Env,
            _leg: &LegMeta,
            _state: Box<dyn Any>,
            resp: HttpResponse,
        ) -> Step {
            Step::Reply(resp)
        }
    }

    fn engine_with_echo(workers: u32, nanos: u64) -> Engine {
        let mut engine = Engine::new();
        engine.register(
            "echo",
            workers,
            Engine::leaf(service_handle(SlowEcho { nanos })),
        );
        engine
    }

    #[test]
    fn dispatch_round_trips_a_leaf() {
        let mut env = Env::new(1);
        let mut engine = engine_with_echo(1, 5_000);
        let t0 = env.clock.now();
        let resp = engine
            .dispatch(&mut env, "echo", HttpRequest::post("/x", b"hi".to_vec()))
            .unwrap();
        assert_eq!(resp.body, b"hi");
        assert_eq!(env.clock.now() - t0, SimDuration::from_nanos(5_000));
    }

    #[test]
    fn unknown_root_endpoint_errors() {
        let mut env = Env::new(2);
        let mut engine = Engine::new();
        let err = engine
            .dispatch(&mut env, "ghost", HttpRequest::get("/"))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownEndpoint(e) if e == "ghost"));
    }

    #[test]
    fn nested_unknown_endpoint_synthesizes_502() {
        let mut env = Env::new(3);
        let mut engine = Engine::new();
        engine.register(
            "front",
            1,
            Rc::new(RefCell::new(Relay {
                next: "ghost".into(),
            })),
        );
        let resp = engine
            .dispatch(&mut env, "front", HttpRequest::get("/"))
            .unwrap();
        assert_eq!(resp.status, 502);
        assert_eq!(resp.header(ERROR_HEADER), Some("unknown-endpoint"));
    }

    #[test]
    fn call_loops_are_cut_with_508() {
        let mut env = Env::new(4);
        let mut engine = Engine::new();
        engine.register("a", 1, Rc::new(RefCell::new(Relay { next: "b".into() })));
        engine.register("b", 1, Rc::new(RefCell::new(Relay { next: "a".into() })));
        let resp = engine
            .dispatch(&mut env, "a", HttpRequest::get("/loop"))
            .unwrap();
        assert_eq!(resp.status, 508);
        assert_eq!(resp.header(ERROR_HEADER), Some("loop"));
    }

    #[test]
    fn self_calls_and_three_hop_loops_are_cut_with_508() {
        for ring in [&["a"][..], &["a", "b", "c"]] {
            let mut env = Env::new(4);
            let mut engine = Engine::new();
            for (i, name) in ring.iter().enumerate() {
                let next = ring[(i + 1) % ring.len()].into();
                engine.register(*name, 1, Rc::new(RefCell::new(Relay { next })));
            }
            let resp = engine
                .dispatch(&mut env, "a", HttpRequest::get("/loop"))
                .unwrap();
            assert_eq!(resp.status, 508, "{ring:?}");
            assert_eq!(resp.header(ERROR_HEADER), Some("loop"));
        }
    }

    /// Calls `next` twice in sequence from one context, then replies.
    struct TwiceRelay {
        next: Rc<str>,
    }

    impl EngineService for TwiceRelay {
        fn start(&mut self, _env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
            Step::CallOut {
                dest: self.next.clone(),
                req,
                state: Box::new(true),
            }
        }

        fn resume(
            &mut self,
            _env: &mut Env,
            _leg: &LegMeta,
            state: Box<dyn Any>,
            resp: HttpResponse,
        ) -> Step {
            if state.downcast_ref() == Some(&true) {
                Step::CallOut {
                    dest: self.next.clone(),
                    req: HttpRequest::post("/again", resp.body),
                    state: Box::new(false),
                }
            } else {
                Step::Reply(resp)
            }
        }
    }

    #[test]
    fn sequential_callouts_to_one_peer_are_not_a_loop() {
        let mut env = Env::new(12);
        let mut engine = engine_with_echo(1, 1_000);
        let front = TwiceRelay {
            next: "echo".into(),
        };
        engine.register("front", 1, Rc::new(RefCell::new(front)));
        let t0 = env.clock.now();
        let resp = engine
            .dispatch(&mut env, "front", HttpRequest::post("/x", b"hi".to_vec()))
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hi");
        assert_eq!(env.clock.now() - t0, SimDuration::from_nanos(2_000));
    }

    /// A [`Relay`] whose outbound request legs spend `delay` in flight.
    struct DelayedRelay {
        relay: Relay,
        delay: SimDuration,
    }

    impl EngineService for DelayedRelay {
        fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
            self.relay.start(env, leg, req)
        }

        fn resume(
            &mut self,
            env: &mut Env,
            leg: &LegMeta,
            state: Box<dyn Any>,
            resp: HttpResponse,
        ) -> Step {
            self.relay.resume(env, leg, state, resp)
        }

        fn request_fate(&mut self, _env: &mut Env, _dest: &str, _path: &str) -> FaultAction {
            FaultAction::Delay(self.delay)
        }
    }

    #[test]
    fn endpoint_deregistered_mid_flight_collapses_with_502() {
        // `callee_goes`: echo vanishes while the relay's request leg is
        // still in flight towards it. Otherwise the relay itself vanishes
        // while echo is serving — nobody is left to resume.
        for callee_goes in [true, false] {
            let mut env = Env::new(13);
            let mut engine = engine_with_echo(1, 10_000);
            let front = DelayedRelay {
                relay: Relay {
                    next: "echo".into(),
                },
                delay: SimDuration::from_nanos(if callee_goes { 10_000 } else { 0 }),
            };
            engine.register("front", 1, Rc::new(RefCell::new(front)));
            let t0 = env.clock.now();
            engine.schedule_request(t0, "front", HttpRequest::get("/x"));
            let half_way = t0 + SimDuration::from_nanos(5_000);
            assert!(engine.run_until(&mut env, half_way).is_empty());
            assert!(engine.deregister(if callee_goes { "echo" } else { "front" }));
            let done = engine.run_until_idle(&mut env);
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].response.status, 502);
            assert_eq!(
                done[0].response.header(ERROR_HEADER),
                Some("unknown-endpoint")
            );
        }
    }

    #[test]
    fn trace_renders_one_documented_line_per_decision() {
        let mut env = Env::new(14);
        let mut engine = engine_with_echo(1, 1_000);
        let front = DelayedRelay {
            relay: Relay {
                next: "echo".into(),
            },
            delay: SimDuration::from_nanos(500),
        };
        engine.register("front", 2, Rc::new(RefCell::new(front)));
        for body in [1, 2] {
            engine.schedule_request(SimTime::ZERO, "front", HttpRequest::post("/x", vec![body]));
        }
        engine.run_until_idle(&mut env);
        let lines = engine.trace_lines();
        assert_eq!(lines.len(), engine.trace().len());
        assert_eq!(
            lines,
            [
                "t=0 seq=0 arrive front /x",
                "t=0 seq=1 begin front /x",
                "t=0 seq=2 callout echo /x",
                "t=0 seq=3 fault-delay echo /x",
                "t=0 seq=4 arrive front /x",
                "t=0 seq=5 begin front /x",
                "t=0 seq=6 callout echo /x",
                "t=0 seq=7 fault-delay echo /x",
                "t=500 seq=8 arrive echo /x",
                "t=500 seq=9 begin echo /x",
                "t=1500 seq=10 reply echo 200",
                "t=500 seq=11 arrive echo /x",
                "t=500 seq=12 queue echo /x",
                "t=1500 seq=13 resume front /x",
                "t=1500 seq=14 reply front 200",
                "t=1500 seq=15 begin echo /x",
                "t=2500 seq=16 reply echo 200",
                "t=1500 seq=17 complete front 200",
                "t=2500 seq=18 resume front /x",
                "t=2500 seq=19 reply front 200",
                "t=2500 seq=20 complete front 200",
            ]
        );
        // Turning the trace off drops it; back on, `seq` restarts at 0.
        engine.set_trace(false);
        engine.set_trace(true);
        assert!(engine.trace().is_empty());
        engine
            .dispatch(&mut env, "echo", HttpRequest::get("/y"))
            .unwrap();
        assert_eq!(engine.trace_lines()[0], "t=2500 seq=0 arrive echo /y");
    }

    #[test]
    fn single_worker_serializes_simultaneous_arrivals() {
        let mut env = Env::new(5);
        let mut engine = engine_with_echo(1, 10_000);
        let t0 = env.clock.now();
        let tags: Vec<u64> = (0..4)
            .map(|i| engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i])))
            .collect();
        let mut done = engine.run_until_idle(&mut env);
        done.sort_by_key(|c| c.tag);
        // K simultaneous arrivals at one worker: response times grow
        // monotonically — queueing is mechanistic.
        let times: Vec<SimDuration> = done.iter().map(|c| c.finished - c.submitted).collect();
        for pair in times.windows(2) {
            assert!(pair[1] > pair[0], "{times:?}");
        }
        assert_eq!(times[0], SimDuration::from_nanos(10_000));
        assert_eq!(times[3], SimDuration::from_nanos(40_000));
        assert_eq!(done[3].queued, SimDuration::from_nanos(30_000));
        let _ = tags;
    }

    #[test]
    fn enough_workers_overlap_simultaneous_arrivals() {
        let mut env = Env::new(6);
        let mut engine = engine_with_echo(4, 10_000);
        let t0 = env.clock.now();
        for i in 0..4 {
            engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i]));
        }
        let done = engine.run_until_idle(&mut env);
        for c in &done {
            assert_eq!(c.finished - c.submitted, SimDuration::from_nanos(10_000));
            assert_eq!(c.queued, SimDuration::ZERO);
        }
    }

    #[test]
    fn set_policy_reports_unhandled_policies() {
        // A pure scheduler has nowhere to put a policy: routing one to an
        // unknown address or to a bare (stackless) service must say so
        // instead of silently half-working.
        let mut engine = engine_with_echo(1, 1_000);
        let policy = AdmissionPolicy {
            capacity: Some(4),
            deadline: None,
        };
        assert!(!engine.set_policy("ghost", policy));
        assert!(!engine.set_policy("echo", policy));
        assert_eq!(engine.shed_counts("echo"), (0, 0));
        assert_eq!(engine.depth_peak("echo"), 0);
    }

    /// A service whose hooks shed by script: first `shed_at_arrive`
    /// arrivals at the door, then `shed_at_begin` at worker grant.
    struct SheddingEcho {
        nanos: u64,
        shed_at_arrive: u32,
        shed_at_begin: u32,
        stats: AdmissionStats,
    }

    impl EngineService for SheddingEcho {
        fn start(&mut self, env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
            env.clock.advance(SimDuration::from_nanos(self.nanos));
            Step::Reply(HttpResponse::ok(req.body))
        }

        fn resume(
            &mut self,
            _env: &mut Env,
            _leg: &LegMeta,
            _state: Box<dyn Any>,
            _resp: HttpResponse,
        ) -> Step {
            Step::Reply(HttpResponse::error(500, "leaf"))
        }

        fn on_arrive(&mut self, _env: &mut Env, _leg: &LegMeta, _depth: usize) -> Gate {
            if self.shed_at_arrive > 0 {
                self.shed_at_arrive -= 1;
                self.stats.shed_full += 1;
                return Gate::Shed {
                    resp: HttpResponse::error(503, "admission queue full")
                        .with_header(SHED_HEADER, "queue-full"),
                    note: "shed-full",
                };
            }
            Gate::Admit
        }

        fn on_begin(&mut self, _env: &mut Env, _leg: &LegMeta, _waited: SimDuration) -> Gate {
            if self.shed_at_begin > 0 {
                self.shed_at_begin -= 1;
                self.stats.shed_deadline += 1;
                return Gate::Shed {
                    resp: HttpResponse::error(503, "admission deadline exceeded")
                        .with_header(SHED_HEADER, "deadline"),
                    note: "shed-deadline",
                };
            }
            Gate::Admit
        }

        fn admission_stats(&self) -> AdmissionStats {
            self.stats
        }
    }

    #[test]
    fn shed_at_arrive_completes_instantly_without_a_worker() {
        let mut env = Env::new(7);
        let mut engine = Engine::new();
        engine.register(
            "echo",
            1,
            Rc::new(RefCell::new(SheddingEcho {
                nanos: 10_000,
                shed_at_arrive: 1,
                shed_at_begin: 0,
                stats: AdmissionStats::default(),
            })),
        );
        let t0 = env.clock.now();
        engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![0]));
        engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![1]));
        let done = engine.run_until_idle(&mut env);
        let shed: Vec<_> = done.iter().filter(|c| c.shed()).collect();
        assert_eq!(shed.len(), 1);
        // Shed replies are synthesized at arrival — no service time, and
        // no worker was consumed so the other request ran immediately.
        assert_eq!(shed[0].finished, shed[0].submitted);
        assert_eq!(shed[0].response.status, 503);
        assert_eq!(engine.shed_counts("echo"), (1, 0));
        let served = done.iter().find(|c| !c.shed()).unwrap();
        assert_eq!(served.queued, SimDuration::ZERO);
    }

    #[test]
    fn shed_at_begin_releases_the_granted_worker() {
        let mut env = Env::new(8);
        let mut engine = Engine::new();
        engine.register(
            "echo",
            1,
            Rc::new(RefCell::new(SheddingEcho {
                nanos: 10_000,
                shed_at_begin: 1,
                shed_at_arrive: 0,
                stats: AdmissionStats::default(),
            })),
        );
        let t0 = env.clock.now();
        for i in 0..3 {
            engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i]));
        }
        let done = engine.run_until_idle(&mut env);
        // The first grant is shed and its worker released, so the other
        // two still serialize through the single worker.
        assert_eq!(done.iter().filter(|c| c.shed()).count(), 1);
        assert_eq!(engine.shed_counts("echo"), (0, 1));
        let mut served: Vec<SimDuration> = done
            .iter()
            .filter(|c| !c.shed())
            .map(|c| c.finished - c.submitted)
            .collect();
        served.sort();
        assert_eq!(
            served,
            vec![
                SimDuration::from_nanos(10_000),
                SimDuration::from_nanos(20_000),
            ]
        );
    }

    #[test]
    fn run_until_processes_only_due_events() {
        let mut env = Env::new(9);
        let mut engine = engine_with_echo(1, 1_000);
        engine.schedule_request(SimTime::from_nanos(100), "echo", HttpRequest::get("/a"));
        engine.schedule_request(SimTime::from_nanos(50_000), "echo", HttpRequest::get("/b"));
        let first = engine.run_until(&mut env, SimTime::from_nanos(10_000));
        assert_eq!(first.len(), 1);
        assert_eq!(env.clock.now(), SimTime::from_nanos(10_000));
        let rest = engine.run_until_idle(&mut env);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut env = Env::new(seed);
            let mut engine = engine_with_echo(2, 7_000);
            engine.register(
                "front",
                2,
                Rc::new(RefCell::new(Relay {
                    next: "echo".into(),
                })),
            );
            for i in 0u64..3 {
                engine.schedule_request(
                    SimTime::from_nanos(i * 500),
                    "front",
                    HttpRequest::post("/x", vec![u8::try_from(i).unwrap()]),
                );
            }
            engine.run_until_idle(&mut env);
            engine.trace_lines()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn deregistered_endpoint_mid_topology_fails_closed() {
        let mut env = Env::new(10);
        let mut engine = engine_with_echo(1, 1_000);
        assert!(engine.deregister("echo"));
        assert!(!engine.deregister("echo"));
        assert!(!engine.knows("echo"));
        let err = engine
            .dispatch(&mut env, "echo", HttpRequest::get("/"))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownEndpoint(_)));
    }
}
