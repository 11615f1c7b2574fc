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
//! the event trace ([`Trace`]) — a count of every decision and, only in a
//! world that opts in ([`Engine::set_trace`]), one 16-byte record per
//! decision in 64 KiB chunks, rendered to its byte-exact line only when
//! somebody reads it ([`Engine::trace_lines`]). The hot path owns no
//! strings: an endpoint's address lives once — as its registry key for a
//! root leg, as the caller's handle for its peer on a [`Step::CallOut`] —
//! and every leg and release event naming it holds an `Rc<str>` clone; a
//! leg's path is the request's own handle. Trace records hold ids into the world's
//! name table, where a leg's address and path are interned once, when it
//! is minted: recording a decision touches integers only. Cross-cutting
//! per-endpoint concerns — admission control, fault injection,
//! observability, retries, deadlines — live in middleware layers (the
//! `shield5g-mw` crate) stacked around each registered service. The
//! seams those layers need are the nine scheduler hooks of [`Layer`]
//! (`on_arrive`, `on_begin`, `request_fate`, `response_fate`, ...),
//! declared once, here: a service hands the engine its layers through
//! [`EngineService::layers`], and the engine asks them in order — the
//! first [`Gate::Shed`] wins, the first fate that is not
//! [`FaultAction::Deliver`] wins, every layer hears each notification. A
//! bare service has no layers and behaves exactly like one wrapped in an
//! empty stack, and a hook that declines to act is byte-invisible in the
//! trace. The engine counts only its own decisions per endpoint: the
//! legs shed at arrival and at begin, and the peak admitted depth
//! ([`Engine::shed_counts`], [`Engine::depth_peak`]).
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

use crate::http::{marker, Header, HttpRequest, HttpResponse};
use crate::service::{Env, ServiceHandle};
use crate::table::IdTable;
use crate::time::{SimDuration, SimTime};
use crate::SimError;
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

/// The markers of the replies the engine synthesizes, each borrowed by
/// its reply ([`HttpResponse::with_marker`]).
static LOOP: Header = marker(ERROR_HEADER, "loop");
static UNKNOWN_ROOT: Header = marker(ERROR_HEADER, "unknown-root");
static UNKNOWN_ENDPOINT: Header = marker(ERROR_HEADER, "unknown-endpoint");
static DROPPED: Header = marker(FAULT_HEADER, "drop");
static DELAYED: Header = marker(FAULT_HEADER, "delay");
static INJECTED_5XX: Header = marker(FAULT_HEADER, "injected-5xx");

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
    pub(crate) fn of(req: &HttpRequest) -> PriorityClass {
        if req.header(PRIORITY_HEADER) == Some("emergency") {
            PriorityClass::Emergency
        } else {
            PriorityClass::Normal
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

/// What a service segment does next.
pub enum Step {
    /// The request is answered; the worker is released and the response
    /// travels back to the caller (or completes the root context).
    Reply(HttpResponse),
    /// The service needs a downstream round trip. The context keeps its
    /// worker (thread-per-request, as in OAI's NFs) and the response
    /// resumes the same leg through [`EngineService::resume`]. The step
    /// carries no state: a service that needs some across the call parks
    /// it under the serving leg's [`LegMeta::id`] ([`Parked`]).
    CallOut {
        /// Destination endpoint address: the handle the caller keeps for
        /// its peer, shared by the leg and every trace record naming it.
        dest: Rc<str>,
        /// The outbound request. Send-side latency (TLS record, link
        /// transfer) must already be charged: the arrival is scheduled at
        /// the clock instant this step is returned.
        req: HttpRequest,
    },
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Reply(r) => f.debug_tuple("Reply").field(&r.status).finish(),
            Step::CallOut { dest, req } => f
                .debug_struct("CallOut")
                .field("dest", dest)
                .field("path", &req.path)
                .finish(),
        }
    }
}

/// Identity and timing of one request leg, handed to every
/// [`Layer`] hook. Built by the scheduler from its context
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

/// An admission decision from [`Layer::on_arrive`] /
/// [`Layer::on_begin`]. On [`Gate::Shed`] the scheduler writes
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

/// A service in continuation-passing form: `start` handles a fresh
/// request, `resume` continues after a downstream response. Handlers
/// never touch the engine — they advance the clock for their own compute
/// and return a [`Step`]; the scheduler owns all routing.
///
/// A service may also hand the scheduler its [`Layer`]s, whose hooks the
/// engine consults at each routing decision. A plain service has none
/// and is asked nothing.
pub trait EngineService {
    /// Begins handling `req`. Called once per request, with the clock set
    /// to the instant the request reached a free worker.
    fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step;

    /// Continues leg `leg` after the downstream response to the
    /// [`Step::CallOut`] it made; what the service parked under
    /// `leg.id` for that call is its continuation. Response-side latency
    /// (link transfer, TLS record) is charged here by the service's
    /// client helper.
    fn resume(&mut self, env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Step;

    /// A leg addressed to this service was delivered: answered, shed, or
    /// broken off by a layer. Nothing it parked under `leg.id` will be
    /// resumed, so drop it here. Nothing to drop by default.
    fn delivered(&mut self, _leg: &LegMeta) {}

    /// The layers whose scheduler hooks the engine fans out for this
    /// endpoint, outermost first. None by default.
    fn layers(&mut self) -> &mut [Box<dyn Layer>] {
        &mut []
    }
}

/// What a layer's [`Layer::on_response`] decided about a resumed
/// downstream response. Only the response travels inward: each layer and
/// the service find their own state for the leg where they parked it.
pub enum Resume {
    /// Hand the response to the next layer inward (and eventually to the
    /// service's own `resume`).
    Continue(HttpResponse),
    /// Consume the response and substitute this [`Step`] — a
    /// retransmission, a synthesized abandon-reply. Inner layers and the
    /// service never see the response; the step traverses only the
    /// layers *outside* the breaking one on its way out.
    Break(Step),
}

/// One middleware layer (`shield5g-mw`): admission control, fault
/// injection, observability, retries, deadlines. Every method is a
/// default no-op (or pass-through), so a layer implements exactly the
/// seams it cares about.
///
/// The nine *scheduler hooks* (`on_submit` through `on_deliver`) are
/// called by the engine, in order over [`EngineService::layers`]: the
/// first [`Gate::Shed`] of a gate wins and the layers after it are not
/// asked, the first fate that is not [`FaultAction::Deliver`] wins
/// likewise, and notifications reach every layer. A hook that declines
/// to act is byte-invisible in the trace. The three *traversal* methods
/// (`on_request`, `on_response`, `on_step`) wrap the service's
/// resumable segments; the stack that owns the layers calls them.
#[expect(unused_variables, reason = "a default hook ignores its arguments")]
pub trait Layer {
    /// A root leg for the endpoint was posted via
    /// [`Engine::schedule_request`] (clock may not be at
    /// `leg.submitted` yet — open-loop arrivals are scheduled ahead).
    fn on_submit(&mut self, leg: &LegMeta) {}

    /// A leg reached the endpoint. `depth` is the in-flight count
    /// (serving + waiting) *before* this arrival. Returning
    /// [`Gate::Shed`] refuses it at the door.
    fn on_arrive(&mut self, env: &mut Env, leg: &LegMeta, depth: usize) -> Gate {
        Gate::Admit
    }

    /// The arrival was admitted; `depth` now counts it (serving +
    /// waiting, inclusive).
    fn on_admitted(&mut self, env: &mut Env, leg: &LegMeta, depth: usize) {}

    /// The admitted leg found no free worker and joined the FIFO.
    fn on_queued(&mut self, env: &mut Env, leg: &LegMeta) {}

    /// A worker is about to run the leg after waiting `waited` in the
    /// FIFO. Returning [`Gate::Shed`] refuses it (the worker is
    /// released) — this is where deadline shedding lives.
    fn on_begin(&mut self, env: &mut Env, leg: &LegMeta, waited: SimDuration) -> Gate {
        Gate::Admit
    }

    /// The service returned a [`Step::CallOut`]; `child` is the freshly
    /// minted downstream leg.
    fn on_callout(&mut self, env: &mut Env, parent: &LegMeta, child: &LegMeta) {}

    /// Fate of an outbound request leg the service is sending to `dest`
    /// (consulted on the *caller's* layers).
    fn request_fate(&mut self, env: &mut Env, dest: &str, path: &str) -> FaultAction {
        FaultAction::Deliver
    }

    /// Fate of the response leg the service just produced (consulted on
    /// the *replier's* layers).
    fn response_fate(&mut self, env: &mut Env, leg: &LegMeta, status: u16) -> FaultAction {
        FaultAction::Deliver
    }

    /// A response (service-produced or synthesized) is being delivered
    /// for a leg addressed to the endpoint; the leg is done.
    fn on_deliver(&mut self, env: &mut Env, leg: &LegMeta, resp: &HttpResponse) {}

    /// Inbound: a fresh request is about to start on the service
    /// (outermost layer first).
    fn on_request(&mut self, env: &mut Env, leg: &LegMeta, req: &HttpRequest) {}

    /// Inbound: a downstream response is resuming leg `leg`. Layers see
    /// it outermost-first; see [`Resume`]. A layer that keeps state
    /// across the call parks it under `leg.id` and drops what a break
    /// left behind in [`Layer::on_deliver`].
    fn on_response(&mut self, env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Resume {
        Resume::Continue(resp)
    }

    /// Outbound: the produced [`Step`] on its way back to the scheduler
    /// (innermost layer first, reverse of inbound).
    fn on_step(&mut self, env: &mut Env, leg: &LegMeta, step: Step) -> Step {
        step
    }
}

/// The first [`Gate::Shed`] `hook` returns over `layers`, which are not
/// asked past it; [`Gate::Admit`] when none sheds.
fn gate(layers: &mut [Box<dyn Layer>], mut hook: impl FnMut(&mut dyn Layer) -> Gate) -> Gate {
    let mut gates = layers.iter_mut().map(|layer| hook(layer.as_mut()));
    gates
        .find(|gate| matches!(gate, Gate::Shed { .. }))
        .unwrap_or(Gate::Admit)
}

/// The first fate `hook` returns over `layers` that is not
/// [`FaultAction::Deliver`], which are not asked past it.
fn fate(
    layers: &mut [Box<dyn Layer>],
    mut hook: impl FnMut(&mut dyn Layer) -> FaultAction,
) -> FaultAction {
    let mut fates = layers.iter_mut().map(|layer| hook(layer.as_mut()));
    fates
        .find(|fate| *fate != FaultAction::Deliver)
        .unwrap_or(FaultAction::Deliver)
}

/// Shared handle to an engine service.
pub type EngineServiceHandle = Rc<RefCell<dyn EngineService>>;

/// What services and layers carry across a [`Step::CallOut`], parked by
/// the leg that made the call. A leg has one call out at a time, so each
/// keeps its flow under the serving leg's [`LegMeta::id`] and takes it
/// back ([`IdTable::remove`]) when the response resumes that leg. A flow
/// whose leg finished unresumed (a layer replaced its call or broke its
/// response off) is dropped when the engine reports the delivery
/// ([`EngineService::delivered`], [`Layer::on_deliver`]). It is the
/// world's one per-request table, so parking a flow allocates nothing
/// once the table has grown.
pub type Parked<T> = IdTable<T>;

impl<T> IdTable<T> {
    /// Parks `flow` under `leg` and yields the call it waits on.
    pub fn call_out(&mut self, leg: &LegMeta, dest: Rc<str>, req: HttpRequest, flow: T) -> Step {
        self.insert(leg.id, flow);
        Step::CallOut { dest, req }
    }
}

/// Compatibility shim: adapts a plain synchronous [`crate::service::Service`]
/// (a *leaf* — it never calls out) to the engine trait.
struct LeafService {
    inner: ServiceHandle,
}

impl EngineService for LeafService {
    fn start(&mut self, env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
        Step::Reply(self.inner.borrow_mut().handle(env, req))
    }

    fn resume(&mut self, _env: &mut Env, _leg: &LegMeta, _resp: HttpResponse) -> Step {
        Step::Reply(HttpResponse::error(500, "leaf service cannot resume"))
    }
}

/// Admission-control policy of one endpoint. Defaults to unbounded: every
/// arrival waits as long as it takes. Enforced by `shield5g-mw`'s
/// admission layer, not by the scheduler; the type lives here only
/// because the benchmark's kernels name it at this path.
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
    /// Legs its layers shed at arrival and at begin.
    sheds: (u64, u64),
    /// Peak admitted depth (serving + waiting).
    depth_peak: usize,
}

struct Ctx {
    leg: LegMeta,
    /// Name-table ids of `leg.dest` and `leg.path`, learnt at minting.
    ids: (u32, u32),
    req: Option<HttpRequest>,
    /// The context that made this leg's call-out; none for a root leg.
    parent: Option<u64>,
    tag: u64,
    queued: SimDuration,
}

/// The scheduler's own trace kinds, in id order; a world's kind table starts
/// with them and grows by the notes of [`Gate::Shed`] (`shed-full`, ...).
const KINDS: &str =
    "arrive queue begin callout reply resume complete fault-drop fault-delay fault-5xx";
const ARRIVE: u32 = 0;
const QUEUE: u32 = 1;
const BEGIN: u32 = 2;
const CALLOUT: u32 = 3;
const REPLY: u32 = 4;
const RESUME: u32 = 5;
const COMPLETE: u32 = 6;
const FAULT_DROP: u32 = 7;
const FAULT_DELAY: u32 = 8;
const FAULT_5XX: u32 = 9;
/// The kind that ends a trace which ran out of ids (never in the table).
const TRACE_FULL: u32 = 0xFF;
/// Last id of the name table (24 bits); names past it are all `NO_NAME`.
const MAX_NAME: u32 = (1 << 24) - 1;
const NO_NAME: u32 = u32::MAX;
/// Marks a record's second word as a response status, not a path id.
const STATUS_BIT: u32 = 1 << 31;

/// One scheduler decision in 16 bytes of integers: the instant,
/// `kind << 24 | endpoint id`, and the path id or `STATUS_BIT | status`
/// (`reply`, `complete`); [`Engine::trace_lines`] renders it from the name
/// table. A [`Trace`] holds them in chunks of [`CHUNK`]. Past 2^24 names
/// or 255 kinds the engine stops recording and says so, ending the trace
/// with one `trace-full` record: it never aliases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TraceRecord {
    at: SimTime,
    who: u32,
    what: u32,
}

/// Records per trace chunk: 4096 × 16 bytes = 64 KiB.
const CHUNK: usize = 4096;

/// A world's event trace: the count of every scheduler decision, and the
/// records of those made while tracing was on, in 64 KiB chunks of 4096
/// records, each allocated whole when the last one fills: a long trace
/// holds its records and at most one chunk of slack, and no record moves
/// once written. An untraced world holds the count alone.
#[derive(Debug, Default)]
pub struct Trace {
    chunks: Vec<Vec<TraceRecord>>,
    decisions: usize,
}

impl Trace {
    /// Decisions made so far, recorded or not.
    #[must_use]
    pub fn len(&self) -> usize {
        self.decisions
    }

    /// True when no decision has been made.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.decisions == 0
    }

    fn push(&mut self, record: TraceRecord) {
        if self.chunks.last().is_none_or(|last| last.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        if let Some(last) = self.chunks.last_mut() {
            last.push(record);
        }
    }
}

impl TraceRecord {
    /// Packs a decision, or the `trace-full` marker when a field overflows.
    fn pack(at: SimTime, kind: u32, dest: u32, what: u32) -> TraceRecord {
        let fits = kind < TRACE_FULL && dest <= MAX_NAME && what <= STATUS_BIT | 0xFFFF;
        let who = if fits { kind << 24 | dest } else { u32::MAX };
        TraceRecord { at, who, what }
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

/// What a world's scheduler counted about itself, tracing or not.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed so far.
    pub events: u64,
    /// Most events ever pending at once.
    pub peak_queue_depth: usize,
    /// Request contexts in flight now.
    pub live_contexts: usize,
    /// Most request contexts ever in flight at once.
    pub peak_live_contexts: usize,
}

/// The discrete-event scheduler and endpoint registry of one world.
pub struct Engine {
    endpoints: BTreeMap<Rc<str>, Endpoint>,
    heap: BinaryHeap<Reverse<Event>>,
    ctxs: IdTable<Ctx>,
    next_ctx: u64,
    next_seq: u64,
    /// Instant of the last event processed.
    now: SimTime,
    completions: Vec<Completion>,
    /// The name table: every address and path a leg has named, by id.
    names: Vec<Rc<str>>,
    name_ids: BTreeMap<Rc<str>, u32>,
    kinds: Vec<&'static str>,
    trace: Trace,
    trace_enabled: bool,
    stats: EngineStats,
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
            ctxs: IdTable::new(),
            next_ctx: 1,
            next_seq: 0,
            now: SimTime::ZERO,
            completions: Vec::new(),
            names: Vec::new(),
            name_ids: BTreeMap::new(),
            kinds: KINDS.split(' ').collect(),
            trace: Trace::default(),
            trace_enabled: false,
            stats: EngineStats::default(),
        }
    }

    /// Wraps a synchronous leaf service (UDR, UPF, a P-AKA module
    /// endpoint) for registration.
    #[must_use]
    pub fn leaf(inner: ServiceHandle) -> EngineServiceHandle {
        Rc::new(RefCell::new(LeafService { inner }))
    }

    /// Registers `service` at `addr` with a pool of `workers` threads.
    /// At a live address it replaces service and pool size only: workers
    /// already busy and the FIFO carry over, so legs in flight survive.
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
        let ep = self.endpoints.entry(Rc::from(addr.into()));
        let ep = ep.or_insert_with(|| Endpoint {
            service: service.clone(),
            workers,
            busy: 0,
            waiting: VecDeque::new(),
            sheds: (0, 0),
            depth_peak: 0,
        });
        (ep.service, ep.workers) = (service, workers);
    }

    /// Removes an endpoint; returns whether it existed. Its waiters get
    /// the 502 of the mid-flight collapse, in FIFO order, at the instant
    /// of the last event processed; legs being served run to their reply.
    pub fn deregister(&mut self, addr: &str) -> bool {
        let gone = self.endpoints.remove(addr);
        for &ctx in gone.iter().flat_map(|ep| &ep.waiting) {
            let resp = unknown_endpoint(addr, &UNKNOWN_ENDPOINT);
            self.push_event(self.now, EventKind::Deliver { ctx, resp });
        }
        gone.is_some()
    }

    /// Whether `addr` is registered.
    #[must_use]
    pub fn knows(&self, addr: &str) -> bool {
        self.endpoints.contains_key(addr)
    }

    /// `(at arrival, at begin)`: the legs the endpoint's layers shed, by
    /// whichever layer. A pool replica's only shedding layer is its
    /// admission layer, so these are its queue-full and deadline sheds.
    #[must_use]
    pub fn shed_counts(&self, addr: &str) -> (u64, u64) {
        self.endpoints.get(addr).map_or((0, 0), |e| e.sheds)
    }

    /// Peak in-flight depth (serving + waiting) the endpoint reached on
    /// admitting a leg.
    #[must_use]
    pub fn depth_peak(&self, addr: &str) -> usize {
        self.endpoints.get(addr).map_or(0, |e| e.depth_peak)
    }

    /// Turns recording on or off; a new engine records nothing. On keeps a
    /// record per decision from here, `seq` counting from 0; off drops the
    /// chunks, not the names. [`Trace::len`] counts every decision either way.
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace_enabled = enabled;
        if !enabled {
            self.trace.chunks = Vec::new();
        }
    }

    /// The event trace so far: every scheduler decision counted, those made
    /// while tracing was on recorded in execution order. Identical across
    /// same-seed runs.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The trace rendered on read from the name table, one line per
    /// record: `t=<nanos> seq=<n> <kind> <endpoint> <path|status>`, `seq`
    /// the record's index. Empty unless tracing was on; byte-identical
    /// across same-seed runs.
    #[must_use]
    pub fn trace_lines(&self) -> Vec<String> {
        let name = |id: u32| &self.names[id as usize];
        let line = |(seq, r): (usize, &TraceRecord)| {
            let (at, kind, dest) = (r.at.as_nanos(), r.who >> 24, r.who & MAX_NAME);
            if kind == TRACE_FULL {
                return format!("t={at} seq={seq} trace-full");
            }
            let (kind, dest) = (self.kinds[kind as usize], name(dest));
            match r.what & STATUS_BIT {
                0 => format!("t={at} seq={seq} {kind} {dest} {}", name(r.what)),
                _ => format!("t={at} seq={seq} {kind} {dest} {}", r.what ^ STATUS_BIT),
            }
        };
        let records = self.trace.chunks.iter().flatten();
        records.enumerate().map(line).collect()
    }

    /// What the scheduler has counted so far.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.live_contexts = self.ctxs.len();
        stats
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
            #[expect(clippy::expect_used, reason = "the pending root has a queued event")]
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
            for layer in ep.service.borrow_mut().layers() {
                layer.on_submit(&leg);
            }
        }
        let ctx = Ctx {
            ids: (self.intern(&leg.dest), self.intern(&leg.path)),
            leg,
            req: Some(req),
            parent: None,
            tag: id,
            queued: SimDuration::ZERO,
        };
        self.ctxs.insert(id, ctx);
        self.push_event(at, EventKind::Arrive { ctx: id });
        id
    }

    /// Id of `name` in the world's name table, appended on first sight;
    /// `NO_NAME` once the table is full.
    fn intern(&mut self, name: &Rc<str>) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        if self.names.len() > MAX_NAME as usize {
            return NO_NAME;
        }
        let id = self.names.len() as u32;
        self.names.push(name.clone());
        self.name_ids.insert(name.clone(), id);
        id
    }

    /// Whether a context up `ctx`'s call chain is already addressed to its
    /// endpoint. Every ancestor is still in the table: a context is only
    /// removed once its own response is delivered, after its children's.
    fn loops(&self, ctx: &Ctx) -> bool {
        let up = |c: &Ctx| c.parent.and_then(|parent| self.ctxs.get(parent));
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
    /// and drains the completions so far onto the end of `done`, in
    /// completion order. A driver that keeps `done` for its whole run
    /// (and empties it after each call) moves completions through
    /// buffers that stop growing once they have held the largest batch.
    pub fn run_until(&mut self, env: &mut Env, until: SimTime, done: &mut Vec<Completion>) {
        while self.heap.peek().is_some_and(|Reverse(ev)| ev.at <= until) {
            if let Some(Reverse(ev)) = self.heap.pop() {
                self.process(env, ev);
            }
        }
        env.clock.set(until);
        done.append(&mut self.completions);
    }

    /// Runs until no events remain and drains the completions, as
    /// [`Engine::run_until`] does, into a fresh `Vec`.
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
        // A context is minted just before the event that will run it.
        let (stats, live, depth) = (&mut self.stats, self.ctxs.len(), self.heap.len());
        stats.peak_live_contexts = stats.peak_live_contexts.max(live);
        stats.peak_queue_depth = stats.peak_queue_depth.max(depth);
    }

    /// Counts one decision and, while tracing, records it from integers
    /// alone; ids that do not fit a record end the records with the
    /// `trace-full` marker.
    fn note(&mut self, at: SimTime, kind: u32, dest: u32, what: u32) {
        self.trace.decisions += 1;
        if self.trace_enabled {
            let record = TraceRecord::pack(at, kind, dest, what);
            self.trace_enabled = record.who >> 24 != TRACE_FULL;
            self.trace.push(record);
        }
    }

    /// [`Engine::note`] about a leg under the note of a [`Gate::Shed`],
    /// interned here: a world has a dozen kinds, and sheds are rare.
    fn note_shed(&mut self, at: SimTime, note: &'static str, ids: (u32, u32)) {
        let known = self.kinds.iter().position(|kind| *kind == note);
        let kind = known.unwrap_or(self.kinds.len());
        if known.is_none() && kind < TRACE_FULL as usize {
            self.kinds.push(note);
        }
        self.note(at, kind as u32, ids.0, ids.1);
    }

    fn process(&mut self, env: &mut Env, ev: Event) {
        env.clock.set(ev.at);
        self.now = ev.at;
        self.stats.events += 1;
        match ev.kind {
            EventKind::Arrive { ctx } => self.on_arrive(env, ctx),
            EventKind::Begin { ctx } => self.run_begin(env, ctx),
            EventKind::Release { dest } => self.release_worker(&dest, ev.at),
            EventKind::Deliver { ctx, resp } => self.on_deliver(env, ctx, resp),
        }
    }

    fn on_arrive(&mut self, env: &mut Env, id: u64) {
        let now = env.clock.now();
        #[expect(clippy::expect_used, reason = "Arrive is queued for a live context")]
        let ctx = self.ctxs.get(id).expect("arriving context exists");
        let (leg, ids, looped) = (ctx.leg.clone(), ctx.ids, self.loops(ctx));
        self.note(now, ARRIVE, ids.0, ids.1);
        if looped {
            let resp = HttpResponse::error(508, format_args!("call loop through {}", leg.dest))
                .with_marker(&LOOP);
            self.push_event(now, EventKind::Deliver { ctx: id, resp });
            return;
        }
        let Some(ep) = self.endpoints.get_mut(&leg.dest) else {
            // Roots get a distinct marker so `dispatch` can surface a hard
            // error; nested callers see an ordinary 502 they can map.
            let marker = if leg.root {
                &UNKNOWN_ROOT
            } else {
                &UNKNOWN_ENDPOINT
            };
            let resp = unknown_endpoint(&leg.dest, marker);
            self.push_event(now, EventKind::Deliver { ctx: id, resp });
            return;
        };
        let service = ep.service.clone();
        let mut service = service.borrow_mut();
        let depth = ep.busy as usize + ep.waiting.len();
        if let Gate::Shed { resp, note } =
            gate(service.layers(), |layer| layer.on_arrive(env, &leg, depth))
        {
            // Shed at the door: no worker was taken, so no Release —
            // the synthesized reply completes at the arrival instant.
            ep.sheds.0 += 1;
            self.note_shed(now, note, ids);
            self.push_event(now, EventKind::Deliver { ctx: id, resp });
            return;
        }
        ep.depth_peak = ep.depth_peak.max(depth + 1);
        for layer in service.layers() {
            layer.on_admitted(env, &leg, depth + 1);
        }
        if ep.busy < ep.workers {
            ep.busy += 1;
            drop(service);
            self.run_begin(env, id);
        } else {
            ep.waiting.push_back(id);
            self.note(now, QUEUE, ids.0, ids.1);
            for layer in service.layers() {
                layer.on_queued(env, &leg);
            }
        }
    }

    /// Runs the `start` segment of a context that has been granted a
    /// worker (its endpoint's `busy` already counts it).
    fn run_begin(&mut self, env: &mut Env, id: u64) {
        let now = env.clock.now();
        let (leg, ids, wait, req) = {
            #[expect(clippy::expect_used, reason = "Begin is queued for a live context")]
            let ctx = self.ctxs.get_mut(id).expect("beginning context exists");
            ctx.queued = now - ctx.leg.arrived;
            #[expect(clippy::expect_used, reason = "only its one Begin takes the request")]
            let req = ctx.req.take().expect("request not yet started");
            (ctx.leg.clone(), ctx.ids, ctx.queued, req)
        };
        #[expect(clippy::expect_used, reason = "arrival found this leg's endpoint")]
        let ep = self.endpoints.get_mut(&leg.dest).expect("endpoint exists");
        let service = ep.service.clone();
        if let Gate::Shed { resp, note } = gate(service.borrow_mut().layers(), |layer| {
            layer.on_begin(env, &leg, wait)
        }) {
            // Shed at begin: the worker granted to this leg is
            // released before the synthesized reply travels back.
            ep.sheds.1 += 1;
            self.note_shed(now, note, ids);
            self.push_event(now, EventKind::Release { dest: leg.dest });
            self.push_event(now, EventKind::Deliver { ctx: id, resp });
            return;
        }
        self.note(now, BEGIN, ids.0, ids.1);
        let step = service.borrow_mut().start(env, &leg, req);
        self.apply_step(env, id, step);
    }

    fn apply_step(&mut self, env: &mut Env, id: u64, step: Step) {
        let now = env.clock.now();
        match step {
            Step::Reply(resp) => {
                #[expect(clippy::expect_used, reason = "a step applies to its live context")]
                let ctx = self.ctxs.get(id).expect("replying context");
                let (leg, ids) = (ctx.leg.clone(), ctx.ids);
                self.note(now, REPLY, ids.0, STATUS_BIT | u32::from(resp.status));
                // The worker did its work regardless of what happens to
                // the response in flight: release fires at `now`.
                self.push_event(
                    now,
                    EventKind::Release {
                        dest: leg.dest.clone(),
                    },
                );
                let action = match self.endpoints.get(&leg.dest) {
                    Some(ep) => fate(ep.service.borrow_mut().layers(), |layer| {
                        layer.response_fate(env, &leg, resp.status)
                    }),
                    None => FaultAction::Deliver,
                };
                let (at, kind) = self.carry(now, id, ids, action, Some(resp));
                self.push_event(at, kind);
            }
            Step::CallOut { dest, req } => {
                let child = self.next_ctx;
                self.next_ctx += 1;
                let ids = (self.intern(&dest), self.intern(&req.path));
                #[expect(clippy::expect_used, reason = "a step applies to its live context")]
                let parent = self.ctxs.get(id).expect("calling context");
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
                self.note(now, CALLOUT, ids.0, ids.1);
                // The *caller's* stack observes the new leg and decides
                // its request-leg fate — the callee may not even exist.
                let action = match self.endpoints.get(&parent_leg.dest) {
                    Some(ep) => {
                        let mut service = ep.service.borrow_mut();
                        for layer in service.layers() {
                            layer.on_callout(env, &parent_leg, &child_leg);
                        }
                        fate(service.layers(), |layer| {
                            layer.request_fate(env, &child_leg.dest, &child_leg.path)
                        })
                    }
                    None => FaultAction::Deliver,
                };
                let (at, kind) = self.carry(now, child, ids, action, None);
                if let EventKind::Arrive { .. } = kind {
                    // In-network delay is not queueing delay: move the
                    // arrival instant so admission deadlines measure
                    // only the wait at the endpoint.
                    child_leg.arrived = at;
                }
                let ctx = Ctx {
                    leg: child_leg,
                    ids,
                    req: Some(req),
                    parent: Some(id),
                    tag,
                    queued: SimDuration::ZERO,
                };
                self.ctxs.insert(child, ctx);
                self.push_event(at, kind);
            }
        }
    }

    /// The event that carries leg `ctx`'s message leaving at `now` under
    /// `action`, and its instant: the leg's arrival when `reply` is `None`
    /// (a request), else the delivery of `reply`. A fault is noted under
    /// `ids`; a dropped message resolves to the 504 the waiting side's
    /// supervision timer synthesizes, an injected error to an immediate
    /// 5xx.
    fn carry(
        &mut self,
        now: SimTime,
        ctx: u64,
        ids: (u32, u32),
        action: FaultAction,
        reply: Option<HttpResponse>,
    ) -> (SimTime, EventKind) {
        let (kind, at, resp) = match action {
            FaultAction::Deliver => (None, now, reply),
            FaultAction::Drop { timeout } => {
                let what = match reply {
                    Some(_) => "injected response drop",
                    None => "injected request drop",
                };
                let resp = HttpResponse::error(504, what).with_marker(&DROPPED);
                (Some(FAULT_DROP), now + timeout, Some(resp))
            }
            FaultAction::Delay(d) => {
                let reply = reply.map(|resp| resp.with_marker(&DELAYED));
                (Some(FAULT_DELAY), now + d, reply)
            }
            FaultAction::Error { status } => {
                let resp = HttpResponse::error(status, "injected upstream failure")
                    .with_marker(&INJECTED_5XX);
                (Some(FAULT_5XX), now, Some(resp))
            }
        };
        if let Some(kind) = kind {
            self.note(now, kind, ids.0, ids.1);
        }
        match resp {
            Some(resp) => (at, EventKind::Deliver { ctx, resp }),
            None => (at, EventKind::Arrive { ctx }),
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
        #[expect(clippy::expect_used, reason = "one Deliver per live context")]
        let Ctx {
            leg,
            ids,
            parent,
            tag,
            queued,
            ..
        } = self.ctxs.remove(id).expect("delivered context exists");
        // The destination stack sees every delivery for its legs —
        // service-produced and engine-synthesized alike (an obs layer
        // closes the leg's request span here), then the service itself,
        // which drops what it parked under the leg: no response will
        // resume it. A leg to an unregistered address has no stack to
        // notify.
        if let Some(ep) = self.endpoints.get(&leg.dest) {
            let mut service = ep.service.borrow_mut();
            for layer in service.layers() {
                layer.on_deliver(env, &leg, &resp);
            }
            service.delivered(&leg);
        }
        match parent {
            None => {
                self.note(now, COMPLETE, ids.0, STATUS_BIT | u32::from(resp.status));
                self.completions.push(Completion {
                    tag,
                    response: resp,
                    submitted: leg.submitted,
                    finished: now,
                    queued,
                });
            }
            Some(caller) => {
                #[expect(clippy::expect_used, reason = "a parent outlives its call-outs")]
                let parent = self.ctxs.get(caller).expect("parent context exists");
                let (parent_leg, parent_ids) = (parent.leg.clone(), parent.ids);
                self.note(now, RESUME, parent_ids.0, ids.1);
                let Some(ep) = self.endpoints.get(&parent_leg.dest) else {
                    // Parent's endpoint was deregistered mid-flight: the
                    // whole chain collapses with a synthesized error.
                    let resp = unknown_endpoint(&parent_leg.dest, &UNKNOWN_ENDPOINT);
                    self.push_event(now, EventKind::Deliver { ctx: caller, resp });
                    return;
                };
                let service = ep.service.clone();
                let step = service.borrow_mut().resume(env, &parent_leg, resp);
                self.apply_step(env, caller, step);
            }
        }
    }
}

/// The 502 a leg to, or resumed at, an unregistered address resolves to.
fn unknown_endpoint(addr: &str, marker: &'static Header) -> HttpResponse {
    HttpResponse::error(502, format_args!("unknown endpoint {addr}")).with_marker(marker)
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
            }
        }

        fn resume(&mut self, _env: &mut Env, _leg: &LegMeta, resp: HttpResponse) -> Step {
            Step::Reply(resp)
        }
    }

    /// A service whose `layers` the engine consults; no traversal.
    struct Layered {
        service: EngineServiceHandle,
        layers: Vec<Box<dyn Layer>>,
    }

    impl EngineService for Layered {
        fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
            self.service.borrow_mut().start(env, leg, req)
        }

        fn resume(&mut self, env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Step {
            self.service.borrow_mut().resume(env, leg, resp)
        }

        fn delivered(&mut self, leg: &LegMeta) {
            self.service.borrow_mut().delivered(leg);
        }

        fn layers(&mut self) -> &mut [Box<dyn Layer>] {
            &mut self.layers
        }
    }

    fn layered(service: EngineServiceHandle, layers: Vec<Box<dyn Layer>>) -> EngineServiceHandle {
        Rc::new(RefCell::new(Layered { service, layers }))
    }

    fn echo(nanos: u64) -> EngineServiceHandle {
        Engine::leaf(service_handle(SlowEcho { nanos }))
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

    /// Calls `next` twice in sequence from one context, then replies;
    /// `first` holds, per leg, whether its first call is the one out.
    struct TwiceRelay {
        next: Rc<str>,
        first: Parked<bool>,
    }

    impl EngineService for TwiceRelay {
        fn start(&mut self, _env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
            self.first.call_out(leg, self.next.clone(), req, true)
        }

        fn resume(&mut self, _env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Step {
            if self.first.remove(leg.id) == Some(true) {
                let again = HttpRequest::post("/again", resp.body);
                self.first.call_out(leg, self.next.clone(), again, false)
            } else {
                Step::Reply(resp)
            }
        }
    }

    #[test]
    fn sequential_callouts_to_one_peer_are_not_a_loop() {
        let mut env = Env::new(12);
        let mut engine = engine_with_echo(1, 1_000);
        let front = Rc::new(RefCell::new(TwiceRelay {
            next: "echo".into(),
            first: Parked::new(),
        }));
        engine.register("front", 1, front.clone());
        let t0 = env.clock.now();
        let resp = engine
            .dispatch(&mut env, "front", HttpRequest::post("/x", b"hi".to_vec()))
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hi");
        assert_eq!(env.clock.now() - t0, SimDuration::from_nanos(2_000));
        assert!(front.borrow().first.is_empty());
    }

    /// Holds every outbound request leg `.0` in flight.
    struct DelayRequests(SimDuration);

    impl Layer for DelayRequests {
        fn request_fate(&mut self, _env: &mut Env, _dest: &str, _path: &str) -> FaultAction {
            FaultAction::Delay(self.0)
        }
    }

    /// A [`Relay`] to `echo` whose outbound request legs spend `delay` in
    /// flight.
    fn delayed_relay(delay: SimDuration) -> EngineServiceHandle {
        let relay = Rc::new(RefCell::new(Relay {
            next: "echo".into(),
        }));
        layered(relay, vec![Box::new(DelayRequests(delay))])
    }

    #[test]
    fn endpoint_deregistered_mid_flight_collapses_with_502() {
        // `callee_goes`: echo vanishes while the relay's request leg is
        // still in flight towards it. Otherwise the relay itself vanishes
        // while echo is serving — nobody is left to resume.
        for callee_goes in [true, false] {
            let mut env = Env::new(13);
            let mut engine = engine_with_echo(1, 10_000);
            let delay = SimDuration::from_nanos(if callee_goes { 10_000 } else { 0 });
            engine.register("front", 1, delayed_relay(delay));
            let t0 = env.clock.now();
            engine.schedule_request(t0, "front", HttpRequest::get("/x"));
            let half_way = t0 + SimDuration::from_nanos(5_000);
            let mut done = Vec::new();
            engine.run_until(&mut env, half_way, &mut done);
            assert!(done.is_empty());
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
        engine.set_trace(true);
        engine.register("front", 2, delayed_relay(SimDuration::from_nanos(500)));
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
        // Turning the trace off drops its records, not its count; back on,
        // `seq` is the record index again from 0 while `len` goes on counting
        // every decision, and names interned before the gap (`echo`) or in
        // it (`/gap`) render beside new ones (`/y`).
        engine.set_trace(false);
        engine
            .dispatch(&mut env, "echo", HttpRequest::get("/gap"))
            .unwrap();
        assert!(engine.trace_lines().is_empty());
        assert_eq!(engine.trace().len(), 21 + 4);
        engine.set_trace(true);
        for path in ["/y", "/gap"] {
            engine
                .dispatch(&mut env, "echo", HttpRequest::get(path))
                .unwrap();
        }
        assert_eq!(
            engine.trace_lines(),
            [
                "t=3500 seq=0 arrive echo /y",
                "t=3500 seq=1 begin echo /y",
                "t=4500 seq=2 reply echo 200",
                "t=4500 seq=3 complete echo 200",
                "t=4500 seq=4 arrive echo /gap",
                "t=4500 seq=5 begin echo /gap",
                "t=5500 seq=6 reply echo 200",
                "t=5500 seq=7 complete echo 200",
            ]
        );
        assert_eq!(engine.trace().len(), 21 + 4 + 8);
    }

    #[test]
    fn a_trace_record_is_sixteen_bytes_of_integers() {
        assert!(std::mem::size_of::<TraceRecord>() <= 16);
        // `pack` at each field's boundary: the largest kind, endpoint id
        // and path id, status 0 and 65535 come back out unchanged ...
        let at = SimTime::from_nanos(u64::MAX);
        let fields = |r: TraceRecord| (r.at, r.who >> 24, r.who & MAX_NAME, r.what);
        let (kind, path) = (TRACE_FULL - 1, STATUS_BIT - 1);
        for what in [0, path, STATUS_BIT, STATUS_BIT | 0xFFFF] {
            let record = TraceRecord::pack(at, kind, MAX_NAME, what);
            assert_eq!(fields(record), (at, kind, MAX_NAME, what));
            assert_eq!(fields(TraceRecord::pack(at, 0, 0, what)), (at, 0, 0, what));
        }
        // ... and one step past any limit is the marker, never a
        // neighbouring field's bits.
        for (kind, dest, what) in [
            (TRACE_FULL, 0, 0),
            (0, MAX_NAME + 1, 0),
            (0, NO_NAME, 0),
            (0, 0, STATUS_BIT | 0x1_0000),
            (0, 0, NO_NAME),
        ] {
            assert_eq!(
                TraceRecord::pack(at, kind, dest, what).who >> 24,
                TRACE_FULL
            );
        }
    }

    #[test]
    fn the_trace_is_exact_across_chunk_boundaries() {
        // Roots alternate between `echo` (its arrival writes arrive, begin
        // and reply, its delivery complete) and `ghost` (arrive, then
        // complete), run one event at a time: the trace passes through
        // every length around a chunk boundary.
        let mut env = Env::new(19);
        let mut engine = engine_with_echo(1, 1_000);
        engine.set_trace(true);
        assert_eq!((engine.trace().len(), engine.trace().is_empty()), (0, true));
        let (mut reference, mut lengths) = (Vec::new(), std::collections::BTreeSet::new());
        for i in 0u64.. {
            if engine.trace().len() > 3 * CHUNK + 1 {
                break;
            }
            let (at, seq, done) = (i * 10_000, reference.len(), i * 10_000 + 1_000);
            let dest = if i % 2 == 0 { "echo" } else { "ghost" };
            engine.schedule_request(SimTime::from_nanos(at), dest, HttpRequest::get("/x"));
            reference.push(format!("t={at} seq={seq} arrive {dest} /x"));
            if dest == "echo" {
                reference.push(format!("t={at} seq={} begin echo /x", seq + 1));
                reference.push(format!("t={done} seq={} reply echo 200", seq + 2));
                reference.push(format!("t={done} seq={} complete echo 200", seq + 3));
            } else {
                reference.push(format!("t={at} seq={} complete ghost 502", seq + 1));
            }
            while let Some(Reverse(ev)) = engine.heap.pop() {
                engine.process(&mut env, ev);
                let (len, chunks) = (engine.trace().len(), &engine.trace.chunks);
                assert_eq!(len, chunks.iter().map(Vec::len).sum::<usize>());
                assert!(chunks.iter().map(Vec::capacity).sum::<usize>() <= len + CHUNK);
                lengths.insert(len);
            }
        }
        for len in [CHUNK - 1, CHUNK, CHUNK + 1] {
            assert!(lengths.contains(&len), "never at {len} records");
        }
        // Every record renders as the reference line, `seq` running on
        // unbroken from one chunk into the next.
        let lines = engine.trace_lines();
        assert_eq!(engine.trace.chunks.len(), 4);
        for boundary in [CHUNK, 2 * CHUNK, 3 * CHUNK] {
            assert!(lines[boundary].contains(&format!(" seq={boundary} ")));
        }
        assert_eq!(lines, reference);
        engine.set_trace(false);
        assert!(engine.trace.chunks.is_empty());
    }

    /// Sheds every arrival under a note nobody used before.
    struct FreshNotes;

    impl Layer for FreshNotes {
        fn on_arrive(&mut self, _env: &mut Env, leg: &LegMeta, _depth: usize) -> Gate {
            Gate::Shed {
                resp: HttpResponse::error(503, "shed"),
                note: Box::leak(format!("note-{}", leg.id).into_boxed_str()),
            }
        }
    }

    #[test]
    fn a_world_out_of_kind_ids_stops_recording_and_says_so() {
        let mut env = Env::new(15);
        let mut engine = Engine::new();
        engine.set_trace(true);
        engine.register("gate", 1, layered(echo(0), vec![Box::new(FreshNotes)]));
        for i in 1..=300 {
            engine.schedule_request(SimTime::from_nanos(i), "gate", HttpRequest::get("/x"));
        }
        // Nothing panics and scheduling goes on untraced ...
        assert_eq!(engine.run_until_idle(&mut env).len(), 300);
        assert_eq!(engine.stats().events, 600);
        // ... the kind field's 255 ids went to the scheduler's ten and the
        // first 245 notes, each rendered under its own name; the 246th
        // shed is the marker, and the last record. The count goes on: three
        // decisions per shed.
        let lines = engine.trace_lines();
        let room = TRACE_FULL as usize - KINDS.split(' ').count();
        assert_eq!(engine.trace().len(), 3 * 300);
        assert_eq!(lines.len(), 3 * room + 2);
        for (i, shed) in lines.chunks(3).take(room).enumerate() {
            let (t, seq) = (i + 1, 3 * i);
            assert_eq!(shed[0], format!("t={t} seq={seq} arrive gate /x"));
            assert_eq!(shed[1], format!("t={t} seq={} note-{t} gate /x", seq + 1));
            assert_eq!(shed[2], format!("t={t} seq={} complete gate 503", seq + 2));
        }
        assert_eq!(lines[3 * room], "t=246 seq=735 arrive gate /x");
        assert_eq!(lines[3 * room + 1], "t=246 seq=736 trace-full");
    }

    /// The statuses of `done`, in completion order.
    fn statuses(done: &[Completion]) -> Vec<u16> {
        done.iter().map(|c| c.response.status).collect()
    }

    /// One worker, three simultaneous arrivals, the clock half-way
    /// through the first service: one leg being served, two in the FIFO.
    fn echo_with_two_waiters(env: &mut Env) -> Engine {
        let mut engine = engine_with_echo(1, 10_000);
        let t0 = env.clock.now();
        for i in 0..3 {
            engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i]));
        }
        let half_way = t0 + SimDuration::from_nanos(5_000);
        let mut done = Vec::new();
        engine.run_until(env, half_way, &mut done);
        assert!(done.is_empty());
        assert_eq!(engine.stats().live_contexts, 3);
        engine
    }

    #[test]
    fn deregister_answers_the_waiters_it_strands() {
        let mut env = Env::new(16);
        let t0 = env.clock.now();
        let mut engine = echo_with_two_waiters(&mut env);
        assert!(engine.deregister("echo"));
        let done = engine.run_until_idle(&mut env);
        // The waiters collapse first, in FIFO order, at the last instant
        // the engine processed; the leg being served runs to its reply.
        assert_eq!(statuses(&done), [502, 502, 200]);
        assert_eq!([done[0].tag, done[1].tag, done[2].tag], [2, 3, 1]);
        for waiter in &done[..2] {
            assert_eq!(waiter.finished, t0);
            assert_eq!(
                waiter.response.header(ERROR_HEADER),
                Some("unknown-endpoint")
            );
        }
        assert_eq!(engine.stats().live_contexts, 0);
        assert_eq!(engine.stats().peak_live_contexts, 3);
    }

    #[test]
    fn re_register_keeps_busy_workers_and_the_fifo() {
        let mut env = Env::new(17);
        let t0 = env.clock.now();
        let mut engine = echo_with_two_waiters(&mut env);
        let faster = Engine::leaf(service_handle(SlowEcho { nanos: 1_000 }));
        engine.register("echo", 1, faster);
        // The one worker is still the old leg's: a later arrival joins the
        // FIFO it found instead of starting beside it ...
        let late = t0 + SimDuration::from_nanos(6_000);
        engine.schedule_request(late, "echo", HttpRequest::post("/x", vec![3]));
        let done = engine.run_until_idle(&mut env);
        assert_eq!(statuses(&done), [200; 4]);
        // ... and the old leg's release (t0 + 10 µs) hands that worker down
        // the FIFO, to the new service.
        let finished: Vec<u64> = done.iter().map(|c| (c.finished - t0).as_nanos()).collect();
        assert_eq!(finished, [10_000, 11_000, 12_000, 13_000]);
        assert_eq!(engine.stats().live_contexts, 0);
        // The worker came back exactly once: the next arrival starts at
        // once, a simultaneous second one waits for it.
        let t1 = env.clock.now();
        for i in 0..2 {
            engine.schedule_request(t1, "echo", HttpRequest::post("/x", vec![i]));
        }
        let done = engine.run_until_idle(&mut env);
        let waits: Vec<u64> = done.iter().map(|c| c.queued.as_nanos()).collect();
        assert_eq!(waits, [0, 1_000]);
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

    /// Sheds by script: the first `at_arrive` arrivals at the door, then
    /// the first `at_begin` legs at worker grant.
    struct Shedding {
        at_arrive: u32,
        at_begin: u32,
    }

    impl Layer for Shedding {
        fn on_arrive(&mut self, _env: &mut Env, _leg: &LegMeta, _depth: usize) -> Gate {
            if self.at_arrive > 0 {
                self.at_arrive -= 1;
                return Gate::Shed {
                    resp: HttpResponse::error(503, "admission queue full")
                        .with_header(SHED_HEADER, "queue-full"),
                    note: "shed-full",
                };
            }
            Gate::Admit
        }

        fn on_begin(&mut self, _env: &mut Env, _leg: &LegMeta, _waited: SimDuration) -> Gate {
            if self.at_begin > 0 {
                self.at_begin -= 1;
                return Gate::Shed {
                    resp: HttpResponse::error(503, "admission deadline exceeded")
                        .with_header(SHED_HEADER, "deadline"),
                    note: "shed-deadline",
                };
            }
            Gate::Admit
        }
    }

    fn shedding_echo(at_arrive: u32, at_begin: u32) -> EngineServiceHandle {
        let shedding = Shedding {
            at_arrive,
            at_begin,
        };
        layered(echo(10_000), vec![Box::new(shedding)])
    }

    #[test]
    fn shed_at_arrive_completes_instantly_without_a_worker() {
        let mut env = Env::new(7);
        let mut engine = Engine::new();
        engine.register("echo", 1, shedding_echo(1, 0));
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
        engine.register("echo", 1, shedding_echo(0, 1));
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

    /// Writes `name:hook` for every scheduler hook it is asked; sheds
    /// every arrival when `shed`, and gives every request leg `fate`.
    struct Probe {
        name: String,
        log: Rc<RefCell<Vec<String>>>,
        shed: bool,
        fate: FaultAction,
    }

    impl Probe {
        fn asked(&self, hook: &str) {
            self.log.borrow_mut().push(format!("{}:{hook}", self.name));
        }
    }

    impl Layer for Probe {
        fn on_submit(&mut self, _leg: &LegMeta) {
            self.asked("submit");
        }

        fn on_arrive(&mut self, _env: &mut Env, _leg: &LegMeta, _depth: usize) -> Gate {
            self.asked("arrive");
            if !self.shed {
                return Gate::Admit;
            }
            let resp = HttpResponse::error(503, "probe").with_header(SHED_HEADER, "probe");
            let note = "shed-probe";
            Gate::Shed { resp, note }
        }

        fn on_admitted(&mut self, _env: &mut Env, _leg: &LegMeta, _depth: usize) {
            self.asked("admitted");
        }

        fn on_queued(&mut self, _env: &mut Env, _leg: &LegMeta) {
            self.asked("queued");
        }

        fn on_begin(&mut self, _env: &mut Env, _leg: &LegMeta, _waited: SimDuration) -> Gate {
            self.asked("begin");
            Gate::Admit
        }

        fn on_callout(&mut self, _env: &mut Env, _parent: &LegMeta, _child: &LegMeta) {
            self.asked("callout");
        }

        fn request_fate(&mut self, _env: &mut Env, _dest: &str, _path: &str) -> FaultAction {
            self.asked("request_fate");
            self.fate
        }

        fn response_fate(&mut self, _env: &mut Env, _leg: &LegMeta, _status: u16) -> FaultAction {
            self.asked("response_fate");
            FaultAction::Deliver
        }

        fn on_deliver(&mut self, _env: &mut Env, _leg: &LegMeta, _resp: &HttpResponse) {
            self.asked("deliver");
        }
    }

    #[test]
    fn the_engine_fans_each_hook_out_over_the_layers() {
        let log = Rc::new(RefCell::new(Vec::new()));
        // Probes `<addr>.1` and `<addr>.2` around `service`; the first
        // sheds or faults.
        let probed = |addr: &str, service, shed, fate| {
            let probe = |i| {
                let (name, log) = (format!("{addr}.{i}"), log.clone());
                let fate = if i == 1 { fate } else { FaultAction::Deliver };
                let shed = shed && i == 1;
                Box::new(Probe {
                    name,
                    log,
                    shed,
                    fate,
                }) as Box<dyn Layer>
            };
            layered(service, vec![probe(1), probe(2)])
        };
        let relay_to = |next: &str| -> EngineServiceHandle {
            let next = next.into();
            Rc::new(RefCell::new(Relay { next }))
        };
        let mut env = Env::new(20);
        let mut engine = Engine::new();
        let deliver = FaultAction::Deliver;
        engine.register("gate", 1, probed("gate", echo(1_000), true, deliver));
        engine.register("back", 1, probed("back", echo(1_000), false, deliver));
        engine.register("bare", 1, relay_to("back"));
        let fail = FaultAction::Error { status: 599 };
        engine.register("front", 1, probed("front", relay_to("back"), false, fail));
        let mut asked = |addr| {
            let resp = engine.dispatch(&mut env, addr, HttpRequest::get("/x"));
            (resp.unwrap().status, log.take())
        };
        // A shed from the first layer: the second is not asked at the door,
        // and no layer hears of an admission; every layer hears the delivery.
        let (status, hooks) = asked("gate");
        assert_eq!(status, 503);
        let shed = "gate.1:submit gate.2:submit gate.1:arrive gate.1:deliver gate.2:deliver";
        assert_eq!(hooks.join(" "), shed);
        // The first fate that is not `Deliver` wins and the second layer is
        // not consulted: `back` is never asked to admit the leg, and hears
        // only of the 5xx delivered in its place.
        let (status, hooks) = asked("front");
        assert_eq!(status, 599);
        let faulted = [
            "front.1:submit front.2:submit front.1:arrive front.2:arrive",
            "front.1:admitted front.2:admitted front.1:begin front.2:begin",
            "front.1:callout front.2:callout front.1:request_fate",
            "back.1:deliver back.2:deliver",
            "front.1:response_fate front.2:response_fate front.1:deliver front.2:deliver",
        ];
        assert_eq!(hooks.join(" "), faulted.join(" "));
        // A layerless endpoint is asked nothing: only `back`'s probes hear
        // of the leg `bare` sends them.
        let (status, hooks) = asked("bare");
        assert_eq!(status, 200);
        let callee = [
            "back.1:arrive back.2:arrive back.1:admitted back.2:admitted",
            "back.1:begin back.2:begin back.1:response_fate back.2:response_fate",
            "back.1:deliver back.2:deliver",
        ];
        assert_eq!(hooks.join(" "), callee.join(" "));
        // The engine counts what any layer sheds, at the door or at begin
        // (a deadline-style shed), and the depth of every admitted leg.
        assert_eq!(engine.shed_counts("gate"), (1, 0));
        assert_eq!(engine.depth_peak("gate"), 0);
        engine.register("late", 1, shedding_echo(1, 1));
        let t0 = env.clock.now();
        for i in 0..3 {
            engine.schedule_request(t0, "late", HttpRequest::post("/x", vec![i]));
        }
        let done = engine.run_until_idle(&mut env);
        assert_eq!(done.iter().filter(|c| c.shed()).count(), 2);
        assert_eq!(engine.shed_counts("late"), (1, 1));
        assert_eq!(engine.depth_peak("late"), 2);
        assert_eq!(engine.depth_peak("back"), 1);
    }

    #[test]
    fn run_until_processes_only_due_events() {
        let mut env = Env::new(9);
        let mut engine = engine_with_echo(1, 1_000);
        engine.schedule_request(SimTime::from_nanos(100), "echo", HttpRequest::get("/a"));
        engine.schedule_request(SimTime::from_nanos(50_000), "echo", HttpRequest::get("/b"));
        let mut done = Vec::new();
        engine.run_until(&mut env, SimTime::from_nanos(10_000), &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(env.clock.now(), SimTime::from_nanos(10_000));
        // Nothing more is due: the completion already drained stays.
        engine.run_until(&mut env, SimTime::from_nanos(20_000), &mut done);
        assert_eq!(done.len(), 1);
        let rest = engine.run_until_idle(&mut env);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut env = Env::new(seed);
            let mut engine = engine_with_echo(2, 7_000);
            engine.set_trace(true);
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
        let lines = run(11);
        assert!(!lines.is_empty());
        assert_eq!(lines, run(11));
    }

    /// One endpoint of the property world below, and its one layer (a
    /// clone sharing the dice). Through its hooks alone it writes, for
    /// every decision it is shown, the line the string-holding record
    /// used to render — endpoint, path and status read from the hook's
    /// own [`LegMeta`] and response, never from the engine's name table.
    #[derive(Clone)]
    struct Witness {
        oracle: Rc<RefCell<Vec<String>>>,
        /// Where a relay forwards; `None` is a leaf, which replies itself.
        next: Option<Rc<str>>,
        dice: Rc<std::cell::Cell<u64>>,
        /// The path each leg's call went out on, until it resumes.
        sent: Parked<Rc<str>>,
    }

    const PATHS: [&str; 3] = ["/x", "/nudm-ueau/generate-auth-data", "/x/y"];

    fn say(oracle: &RefCell<Vec<String>>, at: SimTime, kind: &str, dest: &str, detail: &str) {
        let (at, mut oracle) = (at.as_nanos(), oracle.borrow_mut());
        let seq = oracle.len();
        oracle.push(format!("t={at} seq={seq} {kind} {dest} {detail}"));
    }

    impl Witness {
        fn say(&self, env: &Env, kind: &str, dest: &str, detail: impl ToString) {
            say(
                &self.oracle,
                env.clock.now(),
                kind,
                dest,
                &detail.to_string(),
            );
        }

        /// Xorshift: the world's every choice follows from its script.
        fn roll(&mut self, sides: u64) -> u64 {
            let mut dice = self.dice.get();
            dice ^= dice << 13;
            dice ^= dice >> 7;
            dice ^= dice << 17;
            self.dice.set(dice);
            dice % sides
        }

        fn fate(&mut self, env: &Env, dest: &str, path: &str) -> FaultAction {
            let span = SimDuration::from_nanos(self.roll(3_000));
            let status = 500 + self.roll(100) as u16;
            let (kind, action) = match self.roll(12) {
                0 => ("fault-drop", FaultAction::Drop { timeout: span }),
                1 => ("fault-delay", FaultAction::Delay(span)),
                2 => ("fault-5xx", FaultAction::Error { status }),
                _ => return FaultAction::Deliver,
            };
            self.say(env, kind, dest, path);
            action
        }

        fn gate(&mut self, env: &Env, leg: &LegMeta, note: &'static str) -> Gate {
            if self.roll(8) > 0 {
                return Gate::Admit;
            }
            self.say(env, note, &leg.dest, &leg.path);
            let resp = HttpResponse::error(503, note);
            Gate::Shed { resp, note }
        }

        fn reply(&self, env: &Env, leg: &LegMeta, resp: HttpResponse) -> Step {
            self.say(env, "reply", &leg.dest, resp.status);
            Step::Reply(resp)
        }
    }

    impl EngineService for Witness {
        fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
            env.clock.advance(SimDuration::from_nanos(self.roll(4_000)));
            let Some(dest) = self.next.clone() else {
                let status = self.roll(1 << 16) as u16;
                return self.reply(env, leg, HttpResponse::error(status, "leaf"));
            };
            let req = HttpRequest::post(PATHS[self.roll(3) as usize], req.body);
            let path = req.path.clone();
            self.sent.call_out(leg, dest, req, path)
        }

        fn resume(&mut self, env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Step {
            let sent = self.sent.remove(leg.id).expect("the path `start` sent");
            self.say(env, "resume", &leg.dest, sent);
            self.reply(env, leg, resp)
        }

        fn delivered(&mut self, leg: &LegMeta) {
            self.sent.remove(leg.id);
        }
    }

    impl Layer for Witness {
        fn on_arrive(&mut self, env: &mut Env, leg: &LegMeta, _depth: usize) -> Gate {
            self.say(env, "arrive", &leg.dest, &leg.path);
            let note = ["shed-full", "shed-class"][self.roll(2) as usize];
            self.gate(env, leg, note)
        }

        fn on_queued(&mut self, env: &mut Env, leg: &LegMeta) {
            self.say(env, "queue", &leg.dest, &leg.path);
        }

        fn on_begin(&mut self, env: &mut Env, leg: &LegMeta, _waited: SimDuration) -> Gate {
            let gate = self.gate(env, leg, "shed-deadline");
            if matches!(gate, Gate::Admit) {
                self.say(env, "begin", &leg.dest, &leg.path);
            }
            gate
        }

        fn on_callout(&mut self, env: &mut Env, _parent: &LegMeta, child: &LegMeta) {
            self.say(env, "callout", &child.dest, &child.path);
        }

        fn request_fate(&mut self, env: &mut Env, dest: &str, path: &str) -> FaultAction {
            self.fate(env, dest, path)
        }

        fn response_fate(&mut self, env: &mut Env, leg: &LegMeta, _status: u16) -> FaultAction {
            self.fate(env, &leg.dest, &leg.path)
        }

        fn on_deliver(&mut self, env: &mut Env, leg: &LegMeta, resp: &HttpResponse) {
            if leg.root {
                self.say(env, "complete", &leg.dest, resp.status);
            }
        }
    }

    /// Runs the events due by `until` one at a time, writing the two
    /// decisions no hook is shown: a leg reaching, and a root completing
    /// at, an address nobody has registered.
    fn drain(engine: &mut Engine, env: &mut Env, oracle: &RefCell<Vec<String>>, until: SimTime) {
        while engine.heap.peek().is_some_and(|Reverse(ev)| ev.at <= until) {
            let Some(Reverse(ev)) = engine.heap.pop() else {
                break;
            };
            let unseen = match &ev.kind {
                EventKind::Arrive { ctx } => {
                    Some((&engine.ctxs.get(*ctx).unwrap().leg, "arrive", None))
                }
                EventKind::Deliver { ctx, resp } => {
                    let leg = &engine.ctxs.get(*ctx).unwrap().leg;
                    leg.root.then_some((leg, "complete", Some(resp.status)))
                }
                _ => None,
            };
            if let Some((leg, kind, status)) = unseen.filter(|(leg, ..)| !engine.knows(&leg.dest)) {
                let detail = status.map_or(leg.path.to_string(), |s| s.to_string());
                say(oracle, ev.at, kind, &leg.dest, &detail);
            }
            engine.process(env, ev);
        }
    }

    struct Witnessed {
        oracle: Vec<String>,
        lines: Vec<String>,
        decisions: usize,
        completions: String,
        stats: EngineStats,
        /// Paths still parked across the world's services at the end.
        parked: usize,
    }

    /// Plays `script` on a fresh world: relays `a` → `b` → `c`, `d` → an
    /// address nobody registers, leaves `c` and `e`. A word of the script
    /// registers one of the five (once), or posts a root arrival a little
    /// later at any of them, registered yet or not, or at `ghost`.
    fn witnessed(script: &[u64], trace: bool) -> Witnessed {
        let world = [
            ("a", Some("b")),
            ("b", Some("c")),
            ("c", None),
            ("d", Some("ghost")),
            ("e", None),
        ];
        let (mut env, mut engine) = (Env::new(18), Engine::new());
        engine.set_trace(trace);
        let oracle = Rc::new(RefCell::new(Vec::new()));
        let mut services = Vec::new();
        let mut at = SimTime::ZERO;
        for &word in script {
            let [op, who, path, gap] = [word, word >> 8, word >> 16, word >> 24];
            if op % 4 == 0 {
                let (name, next) = world[(who % 5) as usize];
                if !engine.knows(name) {
                    let (oracle, next) = (oracle.clone(), next.map(Rc::from));
                    let dice = Rc::new(std::cell::Cell::new(word | 1));
                    let sent = Parked::new();
                    let witness = Witness {
                        oracle,
                        next,
                        dice,
                        sent,
                    };
                    let service = Rc::new(RefCell::new(witness.clone()));
                    services.push(service.clone());
                    let workers = 1 + (gap % 2) as u32;
                    engine.register(name, workers, layered(service, vec![Box::new(witness)]));
                }
                continue;
            }
            at += SimDuration::from_nanos(gap % 2_000);
            drain(&mut engine, &mut env, &oracle, at);
            let dest = world
                .get((who % 6) as usize)
                .map_or("ghost", |(name, _)| name);
            engine.schedule_request(at, dest, HttpRequest::get(PATHS[(path % 3) as usize]));
        }
        drain(
            &mut engine,
            &mut env,
            &oracle,
            SimTime::from_nanos(u64::MAX),
        );
        let oracle = oracle.take();
        Witnessed {
            oracle,
            lines: engine.trace_lines(),
            decisions: engine.trace().len(),
            completions: format!("{:?}", engine.completions),
            stats: engine.stats(),
            parked: services.iter().map(|s| s.borrow().sent.len()).sum(),
        }
    }

    proptest::proptest! {
        #[test]
        fn the_compact_trace_is_the_line_per_decision_the_hooks_saw(
            script in proptest::collection::vec(0u64.., 1..80),
        ) {
            let traced = witnessed(&script, true);
            proptest::prop_assert_eq!(&traced.lines, &traced.oracle);
            proptest::prop_assert_eq!(traced.stats.live_contexts, 0);
            proptest::prop_assert_eq!(traced.parked, 0);
            // Tracing is scheduling-invisible: the same script untraced
            // decides, completes and counts the same, storing no record.
            let blind = witnessed(&script, false);
            proptest::prop_assert!(blind.lines.is_empty());
            proptest::prop_assert_eq!(blind.decisions, traced.lines.len());
            proptest::prop_assert_eq!(traced.decisions, traced.lines.len());
            proptest::prop_assert_eq!(blind.oracle, traced.oracle);
            proptest::prop_assert_eq!(blind.completions, traced.completions);
            proptest::prop_assert_eq!(blind.stats, traced.stats);
        }
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
