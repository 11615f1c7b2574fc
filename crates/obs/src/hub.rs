//! The ambient recording context.
//!
//! Instrumentation sites across the workspace (the engine's event loop,
//! the HMEE transition charges, the NF handlers, the scaling harness)
//! call the free functions here. When no hub is installed on the current
//! thread every call is a cheap no-op that touches neither the virtual
//! clock nor any engine state — the **zero-perturbation guarantee**:
//! obs-enabled and obs-disabled runs of the same seed produce
//! byte-identical engine event traces.
//!
//! The hub is thread-local because each simulated world is
//! single-threaded (`Rc`-based services); parallel test threads each get
//! their own isolated recording context. The flip side is that a thread
//! with **no** hub installed records nothing — historically *silently*.
//! Two mechanisms make that loss observable:
//!
//! * [`hub_misses`] — a process-global counter of instrumentation calls
//!   that found no hub on their thread. A harness that fans work out to
//!   worker threads can assert the counter did not move.
//! * [`set_strict`] — a per-thread flag that turns a miss into a
//!   `debug_assert!` failure, for contexts (like the bench sweep runner)
//!   where every recording thread is *supposed* to have a hub.
//!
//! Worker threads install their own [`ObsHandle`] and hand the recorded
//! [`Obs`] back to the coordinator, which folds the contexts together
//! with [`Obs::merge`] in a canonical order — the merged result is then
//! a pure function of that order, independent of thread scheduling.

use crate::metrics::Registry;
use crate::span::{SpanId, SpanKind, SpanLog};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// One recording context: a registry, a span log, and the stack of
/// currently-executing spans new children attach to.
#[derive(Debug, Default)]
pub struct Obs {
    /// The metrics registry.
    pub registry: Registry,
    /// The span log.
    pub spans: SpanLog,
    current: Vec<SpanId>,
}

impl Obs {
    /// Folds another recording context into this one.
    ///
    /// Counters add, gauges replay in call order (overwrite for
    /// `set_gauge`, raise-only for `max_gauge`), histograms pool their
    /// buckets, and `other`'s spans are appended with their ids remapped
    /// past this log's — so merging job contexts in a canonical job
    /// order reproduces exactly what a serial run recording into one
    /// hub would have produced.
    pub fn merge(&mut self, other: Obs) {
        self.registry.merge(other.registry);
        self.spans.absorb(other.spans);
    }

    /// The innermost currently-executing span, if any.
    #[must_use]
    pub fn current(&self) -> Option<SpanId> {
        self.current.last().copied()
    }

    /// Pushes a span onto the current-execution stack.
    pub(crate) fn push_current(&mut self, id: SpanId) {
        self.current.push(id);
    }

    /// Pops the top of the current-execution stack if it is `id`
    /// (defensive: unbalanced pops are dropped rather than corrupting
    /// the stack).
    pub(crate) fn pop_current(&mut self, id: SpanId) {
        if self.current.last() == Some(&id) {
            self.current.pop();
        }
    }
}

/// Shared handle to a recording context.
#[derive(Clone, Debug, Default)]
pub struct ObsHandle(Rc<RefCell<Obs>>);

impl ObsHandle {
    /// A fresh, empty context.
    #[must_use]
    pub fn new() -> ObsHandle {
        ObsHandle::default()
    }

    /// Runs `f` with mutable access to the context.
    pub fn with<R>(&self, f: impl FnOnce(&mut Obs) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ObsHandle>> = const { RefCell::new(None) };
    static STRICT: Cell<bool> = const { Cell::new(false) };
}

/// Process-global count of instrumentation calls that found no hub on
/// their thread. Grows monotonically for the life of the process.
static HUB_MISSES: AtomicU64 = AtomicU64::new(0);

/// How many instrumentation calls process-wide hit a thread with no
/// installed hub. Deliberate obs-off runs count too; the counter is for
/// harnesses that *expect* every recording thread to have a hub and
/// want to assert nothing was silently dropped (compare before/after).
#[must_use]
pub fn hub_misses() -> u64 {
    HUB_MISSES.load(Ordering::Relaxed)
}

/// Makes hub misses on **this thread** fail a `debug_assert!` instead
/// of passing silently (release builds still only count). The flag is
/// thread-local so a strict worker pool does not break unrelated
/// threads that legitimately run with observability off.
pub fn set_strict(strict: bool) {
    STRICT.with(|s| s.set(strict));
}

/// Installs `hub` as this thread's recording context (replacing any
/// previous one). Prefer [`scoped`] in tests and harnesses.
pub(crate) fn install(hub: &ObsHandle) {
    ACTIVE.with(|a| *a.borrow_mut() = Some(hub.clone()));
}

/// Removes the thread's recording context.
pub(crate) fn uninstall() {
    ACTIVE.with(|a| *a.borrow_mut() = None);
}

/// Whether a recording context is installed on this thread.
#[must_use]
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// RAII installation: the context is uninstalled when the guard drops.
pub struct Scope {
    _private: (),
}

impl Drop for Scope {
    fn drop(&mut self) {
        uninstall();
    }
}

/// Installs `hub` for the lifetime of the returned guard.
#[must_use]
pub fn scoped(hub: &ObsHandle) -> Scope {
    install(hub);
    Scope { _private: () }
}

/// Runs `f` against the installed context, or returns `None` without
/// side effects when observability is off. Misses bump the process-wide
/// [`hub_misses`] counter and, on a [`set_strict`] thread, fail a
/// `debug_assert!` — silent loss from a thread that was supposed to
/// record is a harness bug, not an obs-off run.
pub fn with<R>(f: impl FnOnce(&mut Obs) -> R) -> Option<R> {
    // Clone the handle out of the thread-local borrow before running
    // `f`: instrumentation called from inside `f` would otherwise hit
    // a RefCell double-borrow on ACTIVE.
    let handle = ACTIVE.with(|a| a.borrow().as_ref().cloned());
    match handle {
        Some(h) => Some(h.with(f)),
        None => {
            HUB_MISSES.fetch_add(1, Ordering::Relaxed);
            debug_assert!(
                !STRICT.with(Cell::get),
                "obs::hub miss on a strict thread: instrumentation ran with no hub installed"
            );
            None
        }
    }
}

/// Adds `n` to a counter.
pub fn count(nf: &str, endpoint: &str, label: &str, n: u64) {
    with(|o| o.registry.add(nf, endpoint, label, n));
}

/// Sets a gauge.
pub fn gauge(nf: &str, endpoint: &str, label: &str, v: f64) {
    with(|o| o.registry.set_gauge(nf, endpoint, label, v));
}

/// Raises a high-water-mark gauge.
pub fn gauge_max(nf: &str, endpoint: &str, label: &str, v: f64) {
    with(|o| o.registry.max_gauge(nf, endpoint, label, v));
}

/// Records a histogram sample.
pub fn observe(nf: &str, endpoint: &str, label: &str, v: u64) {
    with(|o| o.registry.observe(nf, endpoint, label, v));
}

/// Opens a span parented to the innermost currently-executing span.
pub fn open_span(kind: SpanKind, nf: &str, name: &str, start_ns: u64) -> Option<SpanId> {
    with(|o| {
        let parent = o.current();
        o.spans.open(kind, parent, nf, name, start_ns)
    })
    .flatten()
}

/// Opens a span under an explicit parent (`None` roots a new trace).
pub fn open_child(
    kind: SpanKind,
    parent: Option<SpanId>,
    nf: &str,
    name: &str,
    start_ns: u64,
) -> Option<SpanId> {
    with(|o| o.spans.open(kind, parent, nf, name, start_ns)).flatten()
}

/// Closes a span opened by [`open_span`] / [`open_child`].
pub fn close_span(id: Option<SpanId>, end_ns: u64) {
    if let Some(id) = id {
        with(|o| o.spans.close(id, end_ns));
    }
}

/// Records a closed interval in one step: opens a span parented to the
/// innermost currently-executing span, adds `attrs`, and closes it at
/// `end_ns`. Nothing is left open for a caller to forget.
pub fn record_span(
    kind: SpanKind,
    nf: &str,
    name: &str,
    start_ns: u64,
    end_ns: u64,
    attrs: &[(&'static str, u64)],
) {
    with(|o| {
        let parent = o.current();
        if let Some(id) = o.spans.open(kind, parent, nf, name, start_ns) {
            for &(key, n) in attrs {
                o.spans.add_attr(id, key, n);
            }
            o.spans.close(id, end_ns);
        }
    });
}

/// Adds to an attribute of an open span.
pub fn span_attr(id: Option<SpanId>, key: &'static str, n: u64) {
    if let Some(id) = id {
        with(|o| o.spans.add_attr(id, key, n));
    }
}

/// Marks `id` as the innermost executing span (children attach under
/// it) for the duration between this call and [`exit_span`].
pub fn enter_span(id: Option<SpanId>) {
    if let Some(id) = id {
        with(|o| o.push_current(id));
    }
}

/// Unmarks `id` as the innermost executing span.
pub fn exit_span(id: Option<SpanId>) {
    if let Some(id) = id {
        with(|o| o.pop_current(id));
    }
}

/// A harness-level stage span that unwinds safely on error paths: close
/// it explicitly with the end instant on success; dropping it without
/// closing abandons the span and rebalances the execution stack.
pub struct StageSpan {
    id: Option<SpanId>,
}

impl StageSpan {
    /// Opens a [`SpanKind::Stage`] span, enters it, and returns the
    /// guard. A `None` inside (hub off or span cap hit) is carried
    /// through silently.
    #[must_use]
    pub fn open(nf: &str, name: &str, start_ns: u64) -> StageSpan {
        let id = open_span(SpanKind::Stage, nf, name, start_ns);
        enter_span(id);
        StageSpan { id }
    }

    /// Exits and closes the span at `end_ns`.
    pub fn close(mut self, end_ns: u64) {
        if let Some(id) = self.id.take() {
            with(|o| {
                o.pop_current(id);
                o.spans.close(id, end_ns);
            });
        }
    }
}

impl Drop for StageSpan {
    fn drop(&mut self) {
        if let Some(id) = self.id.take() {
            with(|o| {
                o.pop_current(id);
                o.spans.abandon(id);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hub_means_no_ops() {
        uninstall();
        assert!(!is_active());
        count("a", "b", "c", 1);
        observe("a", "b", "c", 5);
        let id = open_span(SpanKind::Stage, "x", "y", 0);
        assert!(id.is_none());
        close_span(id, 10);
        assert!(with(|_| ()).is_none());
    }

    #[test]
    fn miss_from_spawned_thread_is_counted() {
        let before = hub_misses();
        std::thread::spawn(|| {
            // No hub installed on this thread: both calls must miss.
            count("amf", "/ngap", "requests", 1);
            observe("amf", "/ngap", "latency", 7);
        })
        .join()
        .unwrap();
        assert!(
            hub_misses() >= before + 2,
            "expected >= 2 new hub misses, got {} -> {}",
            before,
            hub_misses()
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn strict_thread_panics_on_miss() {
        let joined = std::thread::spawn(|| {
            set_strict(true);
            count("amf", "/ngap", "requests", 1);
        })
        .join();
        assert!(joined.is_err(), "strict miss must fail the debug assert");
    }

    #[test]
    fn strict_thread_with_hub_records_normally() {
        std::thread::spawn(|| {
            set_strict(true);
            let hub = ObsHandle::new();
            let _scope = scoped(&hub);
            count("amf", "/ngap", "requests", 3);
            assert_eq!(
                hub.with(|o| o.registry.counter("amf", "/ngap", "requests")),
                3
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn merge_reproduces_serial_recording() {
        // Serial reference: one hub records A then B.
        let serial = ObsHandle::new();
        {
            let _scope = scoped(&serial);
            count("amf", "/ngap", "requests", 2);
            observe("amf", "/ngap", "latency", 10);
            let a = open_span(SpanKind::Stage, "job", "a", 0);
            close_span(a, 5);
            count("amf", "/ngap", "requests", 3);
            observe("amf", "/ngap", "latency", 40);
            let b = open_span(SpanKind::Stage, "job", "b", 10);
            close_span(b, 25);
        }
        // Parallel shape: A and B record into separate hubs, merged in
        // job order.
        let job_a = ObsHandle::new();
        {
            let _scope = scoped(&job_a);
            count("amf", "/ngap", "requests", 2);
            observe("amf", "/ngap", "latency", 10);
            let a = open_span(SpanKind::Stage, "job", "a", 0);
            close_span(a, 5);
        }
        let job_b = ObsHandle::new();
        {
            let _scope = scoped(&job_b);
            count("amf", "/ngap", "requests", 3);
            observe("amf", "/ngap", "latency", 40);
            let b = open_span(SpanKind::Stage, "job", "b", 10);
            close_span(b, 25);
        }
        let merged = ObsHandle::new();
        merged.with(|o| {
            o.merge(job_a.with(std::mem::take));
            o.merge(job_b.with(std::mem::take));
        });
        let serial_prom = serial.with(|o| crate::export::prometheus(&o.registry));
        let merged_prom = merged.with(|o| crate::export::prometheus(&o.registry));
        assert_eq!(serial_prom, merged_prom);
        let serial_spans = serial.with(|o| crate::export::spans_jsonl(&o.spans));
        let merged_spans = merged.with(|o| crate::export::spans_jsonl(&o.spans));
        assert_eq!(serial_spans, merged_spans);
    }

    #[test]
    fn scoped_installs_and_uninstalls() {
        let hub = ObsHandle::new();
        {
            let _scope = scoped(&hub);
            assert!(is_active());
            count("amf", "/ngap", "requests", 2);
        }
        assert!(!is_active());
        assert_eq!(
            hub.with(|o| o.registry.counter("amf", "/ngap", "requests")),
            2
        );
    }

    #[test]
    fn spans_nest_via_current_stack() {
        let hub = ObsHandle::new();
        let _scope = scoped(&hub);
        let outer = open_span(SpanKind::Stage, "ue", "reg", 0);
        enter_span(outer);
        let inner = open_span(SpanKind::Request, "amf", "/ngap", 5);
        close_span(inner, 9);
        exit_span(outer);
        close_span(outer, 20);
        hub.with(|o| {
            let spans = o.spans.finished();
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].parent, outer);
            assert_eq!(spans[0].trace, outer.unwrap());
            assert_eq!(spans[1].parent, None);
        });
    }

    #[test]
    fn record_span_is_open_attrs_close() {
        let by_hand = ObsHandle::new();
        {
            let _scope = scoped(&by_hand);
            let id = open_span(SpanKind::Enclave, "e", "ocall", 3);
            span_attr(id, "eenter", 1);
            span_attr(id, "eexit", 1);
            close_span(id, 9);
        }
        let recorded = ObsHandle::new();
        {
            let _scope = scoped(&recorded);
            record_span(
                SpanKind::Enclave,
                "e",
                "ocall",
                3,
                9,
                &[("eenter", 1), ("eexit", 1)],
            );
        }
        let jsonl = |h: &ObsHandle| h.with(|o| crate::export::spans_jsonl(&o.spans));
        assert_eq!(jsonl(&recorded), jsonl(&by_hand));
        recorded.with(|o| assert_eq!(o.spans.open_count(), 0));
    }

    #[test]
    fn stage_span_closes_on_success_and_abandons_on_drop() {
        let hub = ObsHandle::new();
        let _scope = scoped(&hub);
        let stage = StageSpan::open("ue", "reg", 0);
        assert!(stage.id.is_some());
        stage.close(100);
        hub.with(|o| assert_eq!(o.spans.finished().len(), 1));

        let abandoned = StageSpan::open("ue", "reg2", 0);
        drop(abandoned);
        hub.with(|o| {
            assert_eq!(o.spans.finished().len(), 1);
            assert_eq!(o.current(), None);
        });
    }
}
