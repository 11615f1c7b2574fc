//! Virtual-time spans: the per-hop, per-transition decomposition of a
//! request's end-to-end latency.
//!
//! A span is an interval `[start_ns, end_ns]` on the virtual timeline
//! with a parent link. The engine opens a [`SpanKind::Request`] span per
//! request context, nests a [`SpanKind::Queue`] span for its admission
//! wait and a [`SpanKind::Service`] span for its worker occupancy, and
//! parents each downstream call's `Request` span under the caller's
//! `Service` span. The HMEE layer adds [`SpanKind::Enclave`] spans for
//! each transition batch. Because children are strictly nested within
//! their parents (the simulated world is single-timeline per context),
//! **exclusive times** — a span's duration minus its direct children's —
//! partition the root's duration exactly: summing them reconstructs the
//! harness-reported total to the nanosecond.

use std::collections::BTreeMap;

/// Identifier of one span, unique within a [`SpanLog`].
pub type SpanId = u64;

/// What kind of interval a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One request leg end to end: from the instant the caller posts it
    /// to the instant the response is delivered back (transit + queue +
    /// service + return).
    Request,
    /// Admission-queue wait at an endpoint (arrival → worker grant).
    Queue,
    /// Worker occupancy at an endpoint (grant → reply), including time
    /// blocked on downstream calls — which nest inside as `Request`
    /// children.
    Service,
    /// A batch of enclave transitions (OCALL round trip, ECALL
    /// enter/return, AEX storm, paging), with the transition counts as
    /// attributes.
    Enclave,
    /// A harness-level stage (a whole registration, a failover window).
    Stage,
}

impl SpanKind {
    /// Stable lowercase name used by the exporters.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Request => "request",
            SpanKind::Queue => "queue",
            SpanKind::Service => "service",
            SpanKind::Enclave => "enclave",
            SpanKind::Stage => "stage",
        }
    }
}

/// A finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the log.
    pub id: SpanId,
    /// Trace this span belongs to (the root span's id).
    pub trace: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Interval kind.
    pub kind: SpanKind,
    /// Owning component (endpoint address, enclave name, `ue`, …).
    pub nf: String,
    /// Operation (request path, transition kind, stage name).
    pub name: String,
    /// Opening instant, virtual nanoseconds.
    pub start_ns: u64,
    /// Closing instant, virtual nanoseconds.
    pub end_ns: u64,
    /// Numeric attributes (transition counts, shed markers, status).
    pub attrs: Vec<(&'static str, u64)>,
}

impl Span {
    /// Span duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Reads an attribute.
    #[must_use]
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Default ceiling on retained finished spans. Long open-loop sweeps can
/// emit millions of enclave-transition spans; past the cap new spans are
/// counted as dropped (reported by the exporters — never silently) while
/// metrics keep aggregating.
pub const DEFAULT_SPAN_CAP: usize = 250_000;

/// An open span under construction.
#[derive(Clone, Debug)]
struct OpenSpan {
    trace: u64,
    parent: Option<SpanId>,
    kind: SpanKind,
    nf: String,
    name: String,
    start_ns: u64,
    attrs: Vec<(&'static str, u64)>,
}

/// Collects spans in deterministic (close-instant) order.
#[derive(Clone, Debug)]
pub struct SpanLog {
    finished: Vec<Span>,
    open: BTreeMap<SpanId, OpenSpan>,
    next_id: SpanId,
    cap: usize,
    dropped: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log with the default retention cap.
    #[must_use]
    pub fn new() -> SpanLog {
        SpanLog {
            finished: Vec::new(),
            open: BTreeMap::new(),
            next_id: 1,
            cap: DEFAULT_SPAN_CAP,
            dropped: 0,
        }
    }

    /// Overrides the retained-span ceiling.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Opens a span. `parent = None` starts a new trace rooted at this
    /// span. Returns `None` once the retention cap is reached — callers
    /// treat that exactly like a disabled hub.
    pub fn open(
        &mut self,
        kind: SpanKind,
        parent: Option<SpanId>,
        nf: &str,
        name: &str,
        start_ns: u64,
    ) -> Option<SpanId> {
        if self.finished.len() + self.open.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let id = self.next_id;
        self.next_id += 1;
        let trace = match parent {
            Some(p) => self.trace_of(p).unwrap_or(id),
            None => id,
        };
        self.open.insert(
            id,
            OpenSpan {
                trace,
                parent,
                kind,
                nf: nf.to_owned(),
                name: name.to_owned(),
                start_ns,
                attrs: Vec::new(),
            },
        );
        Some(id)
    }

    /// Closes a span at `end_ns`, moving it to the finished list. A
    /// close for an id that is not open (capped, double-closed, or
    /// abandoned) is a no-op.
    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        if let Some(span) = self.open.remove(&id) {
            self.finished.push(Span {
                id,
                trace: span.trace,
                parent: span.parent,
                kind: span.kind,
                nf: span.nf,
                name: span.name,
                start_ns: span.start_ns,
                end_ns,
                attrs: span.attrs,
            });
        }
    }

    /// Discards an open span without recording it (error-path unwinding).
    pub fn abandon(&mut self, id: SpanId) {
        self.open.remove(&id);
    }

    /// Appends another log's finished spans to this one, remapping their
    /// ids (and trace/parent links) past this log's id space — exactly
    /// the ids they would have received had both sequences recorded into
    /// one log in this order. `other`'s open spans are discarded (a
    /// merged job context has nothing mid-flight); its drop count
    /// carries over, and this log's retention cap keeps applying.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.next_id - 1;
        self.dropped += other.dropped;
        for span in other.finished {
            if self.finished.len() + self.open.len() >= self.cap {
                self.dropped += 1;
                continue;
            }
            self.finished.push(Span {
                id: span.id + base,
                trace: span.trace + base,
                parent: span.parent.map(|p| p + base),
                ..span
            });
        }
        self.next_id += other.next_id - 1;
    }

    /// Adds `n` to an attribute of an *open* span, creating it at zero.
    pub fn add_attr(&mut self, id: SpanId, key: &'static str, n: u64) {
        if let Some(span) = self.open.get_mut(&id) {
            match span.attrs.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v += n,
                None => span.attrs.push((key, n)),
            }
        }
    }

    /// Trace id a span (open or finished) belongs to.
    #[must_use]
    pub fn trace_of(&self, id: SpanId) -> Option<u64> {
        if let Some(open) = self.open.get(&id) {
            return Some(open.trace);
        }
        self.finished.iter().find(|s| s.id == id).map(|s| s.trace)
    }

    /// Finished spans in close order.
    #[must_use]
    pub fn finished(&self) -> &[Span] {
        &self.finished
    }

    /// Spans opened and not yet closed or abandoned. Zero once a run is
    /// over: a span still open then was leaked by whoever opened it.
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Spans dropped after the retention cap was hit.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Finished spans of one trace, in close order.
    #[must_use]
    pub fn trace_spans(&self, trace: u64) -> Vec<&Span> {
        self.finished.iter().filter(|s| s.trace == trace).collect()
    }

    /// Per-span **exclusive** durations of one trace: each span's
    /// duration minus the summed durations of its direct children.
    /// Because spans nest strictly, these partition the root — their sum
    /// equals the root span's duration exactly.
    #[must_use]
    pub fn exclusive(&self, trace: u64) -> Vec<(&Span, u64)> {
        let spans = self.trace_spans(trace);
        let mut child_total: BTreeMap<SpanId, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_total.entry(p).or_insert(0) += s.duration_ns();
            }
        }
        spans
            .iter()
            .map(|s| {
                let children = child_total.get(&s.id).copied().unwrap_or(0);
                (*s, s.duration_ns().saturating_sub(children))
            })
            .collect()
    }

    /// Sum of exclusive durations over a trace — equal to the root
    /// span's duration when the trace closed cleanly.
    #[must_use]
    pub fn exclusive_total(&self, trace: u64) -> u64 {
        self.exclusive(trace).iter().map(|&(_, ns)| ns).sum()
    }

    /// Renders one trace as an indented flame view, children nested
    /// under parents in start order:
    ///
    /// ```text
    /// stage ue registration 64.11ms (self 1.93ms)
    ///   request amf.oai /ngap 20.04ms (self 0.31ms)
    ///     service amf.oai /ngap 19.52ms (self 3.18ms)
    ///       request ausf.oai /nausf-auth ... (self ...)
    ///       enclave eudm ocall 0.012ms [eenter=1 eexit=1 ocalls=1]
    /// ```
    #[must_use]
    pub fn flame(&self, trace: u64) -> String {
        let spans = self.trace_spans(trace);
        let excl: BTreeMap<SpanId, u64> = self
            .exclusive(trace)
            .into_iter()
            .map(|(s, ns)| (s.id, ns))
            .collect();
        let mut children: BTreeMap<Option<SpanId>, Vec<&Span>> = BTreeMap::new();
        let ids: Vec<SpanId> = spans.iter().map(|s| s.id).collect();
        for s in &spans {
            // A parent outside this trace's finished set renders at root.
            let key = s.parent.filter(|p| ids.contains(p));
            children.entry(key).or_default().push(s);
        }
        for list in children.values_mut() {
            list.sort_by_key(|s| (s.start_ns, s.id));
        }
        let mut out = String::new();
        // Iterative DFS keyed on the children map.
        let mut pending: Vec<(&Span, usize)> = children
            .get(&None)
            .map(|roots| roots.iter().rev().map(|s| (*s, 0)).collect())
            .unwrap_or_default();
        while let Some((span, depth)) = pending.pop() {
            let ms = span.duration_ns() as f64 / 1_000_000.0;
            let self_ms = excl.get(&span.id).copied().unwrap_or(0) as f64 / 1_000_000.0;
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "{} {} {} {ms:.3}ms (self {self_ms:.3}ms)",
                span.kind.name(),
                span.nf,
                span.name
            ));
            if !span.attrs.is_empty() {
                out.push_str(" [");
                for (i, (k, v)) in span.attrs.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    out.push_str(&format!("{k}={v}"));
                }
                out.push(']');
            }
            out.push('\n');
            if let Some(kids) = children.get(&Some(span.id)) {
                for kid in kids.iter().rev() {
                    pending.push((kid, depth + 1));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds root(0..100) { a(10..40) { leaf(15..25) }, b(50..90) }.
    fn nested_log() -> (SpanLog, u64) {
        let mut log = SpanLog::new();
        let root = log.open(SpanKind::Stage, None, "ue", "reg", 0).unwrap();
        let a = log
            .open(SpanKind::Request, Some(root), "amf", "/a", 10)
            .unwrap();
        let leaf = log
            .open(SpanKind::Enclave, Some(a), "eudm", "ocall", 15)
            .unwrap();
        log.close(leaf, 25);
        log.close(a, 40);
        let b = log
            .open(SpanKind::Request, Some(root), "amf", "/b", 50)
            .unwrap();
        log.close(b, 90);
        log.close(root, 100);
        (log, root)
    }

    #[test]
    fn traces_inherit_from_parents() {
        let (log, root) = nested_log();
        for s in log.finished() {
            assert_eq!(s.trace, root);
        }
        assert_eq!(log.trace_spans(root).len(), 4);
    }

    #[test]
    fn exclusive_partitions_the_root() {
        let (log, root) = nested_log();
        // root self = 100 - (30 + 40) = 30; a self = 30 - 10 = 20;
        // leaf = 10; b = 40. Total = root duration = 100.
        assert_eq!(log.exclusive_total(root), 100);
        let excl = log.exclusive(root);
        let of = |name: &str| {
            excl.iter()
                .find(|(s, _)| s.name == name)
                .map(|&(_, ns)| ns)
                .unwrap()
        };
        assert_eq!(of("reg"), 30);
        assert_eq!(of("/a"), 20);
        assert_eq!(of("ocall"), 10);
        assert_eq!(of("/b"), 40);
    }

    #[test]
    fn attrs_accumulate_and_read_back() {
        let mut log = SpanLog::new();
        let id = log.open(SpanKind::Enclave, None, "e", "ocall", 0).unwrap();
        log.add_attr(id, "eenter", 1);
        log.add_attr(id, "eenter", 2);
        log.add_attr(id, "eexit", 5);
        log.close(id, 7);
        let span = &log.finished()[0];
        assert_eq!(span.attr("eenter"), Some(3));
        assert_eq!(span.attr("eexit"), Some(5));
        assert_eq!(span.attr("ghost"), None);
        assert_eq!(span.duration_ns(), 7);
    }

    #[test]
    fn cap_drops_deterministically_and_counts() {
        let mut log = SpanLog::new();
        log.set_cap(2);
        let a = log.open(SpanKind::Stage, None, "x", "a", 0);
        let b = log.open(SpanKind::Stage, None, "x", "b", 0);
        let c = log.open(SpanKind::Stage, None, "x", "c", 0);
        assert!(a.is_some() && b.is_some());
        assert!(c.is_none());
        assert_eq!(log.dropped(), 1);
        // Closing a None-like id is a no-op; closing live ones works.
        log.close(a.unwrap(), 5);
        log.close(b.unwrap(), 5);
        assert_eq!(log.finished().len(), 2);
    }

    #[test]
    fn absorb_remaps_ids_like_serial_recording() {
        // Serial reference: both nests recorded into one log.
        let mut serial = SpanLog::new();
        for _ in 0..2 {
            let root = serial.open(SpanKind::Stage, None, "ue", "reg", 0).unwrap();
            let a = serial
                .open(SpanKind::Request, Some(root), "amf", "/a", 10)
                .unwrap();
            serial.close(a, 40);
            serial.close(root, 100);
        }
        // Parallel shape: separate logs, absorbed in job order.
        let build = || {
            let mut log = SpanLog::new();
            let root = log.open(SpanKind::Stage, None, "ue", "reg", 0).unwrap();
            let a = log
                .open(SpanKind::Request, Some(root), "amf", "/a", 10)
                .unwrap();
            log.close(a, 40);
            log.close(root, 100);
            log
        };
        let mut merged = build();
        merged.absorb(build());
        assert_eq!(merged.finished(), serial.finished());
        assert_eq!(merged.dropped(), 0);
        // Ids keep advancing past the absorbed range.
        let next = merged.open(SpanKind::Stage, None, "ue", "reg2", 0).unwrap();
        assert_eq!(next, 5);
    }

    #[test]
    fn absorb_respects_cap_and_carries_drops() {
        let mut a = SpanLog::new();
        a.set_cap(3);
        let s1 = a.open(SpanKind::Stage, None, "x", "a", 0).unwrap();
        a.close(s1, 5);
        let mut b = SpanLog::new();
        b.set_cap(2);
        for name in ["b", "c", "d"] {
            if let Some(id) = b.open(SpanKind::Stage, None, "x", name, 0) {
                b.close(id, 5);
            }
        }
        assert_eq!(b.dropped(), 1);
        a.absorb(b);
        // a takes both of b's retained spans (1 + 2 = cap 3), and b's
        // own drop carries over.
        assert_eq!(a.finished().len(), 3);
        assert_eq!(a.dropped(), 1);
        // One more absorbed span past a's cap drops deterministically.
        let mut c = SpanLog::new();
        let id = c.open(SpanKind::Stage, None, "x", "e", 0).unwrap();
        c.close(id, 5);
        a.absorb(c);
        assert_eq!(a.finished().len(), 3);
        assert_eq!(a.dropped(), 2);
    }

    #[test]
    fn abandon_discards_without_recording() {
        let mut log = SpanLog::new();
        let id = log.open(SpanKind::Stage, None, "ue", "reg", 0).unwrap();
        assert_eq!(log.open_count(), 1);
        log.abandon(id);
        assert_eq!(log.open_count(), 0);
        log.close(id, 10); // no-op
        assert!(log.finished().is_empty());
    }

    #[test]
    fn flame_renders_nested_indentation() {
        let (log, root) = nested_log();
        let flame = log.flame(root);
        let lines: Vec<&str> = flame.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("stage ue reg"));
        assert!(lines[1].starts_with("  request amf /a"));
        assert!(lines[2].starts_with("    enclave eudm ocall"));
        assert!(lines[3].starts_with("  request amf /b"));
        assert!(lines[0].contains("(self 0.000ms)") || lines[0].contains("self"));
    }
}
