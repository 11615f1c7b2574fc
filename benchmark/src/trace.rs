//! Benchmark-side host spans: one span around every call the traced run
//! makes into the program, kept in memory and written out at exit. The
//! program itself is not instrumented on the host clock; its own `obs`
//! spans are on the virtual clock and are summarised separately.

use crate::alloc;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) host-clock span.
#[derive(Clone, Debug)]
pub struct HostSpan {
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Layer (crate) the wrapped call belongs to.
    pub layer: &'static str,
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls into the program the span covers.
    pub calls: u64,
    /// Allocation calls made while the span was open.
    pub allocs: u64,
}

/// Records host spans when on; every method is a no-op when off, so the
/// untraced end-to-end runs share the workload code without paying for it.
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<HostSpan>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false, String::new())
    }

    pub fn on(run_id: String) -> Self {
        Self::new(true, run_id)
    }

    fn new(enabled: bool, run_id: String) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, layer: &'static str, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(HostSpan {
            parent: self.open.last().copied(),
            layer,
            name: name.to_owned(),
            start_ns: 0,
            end_ns: 0,
            calls: 0,
            allocs: 0,
        });
        self.open.push(id);
        // Stamp last, so the tracer's own bookkeeping stays outside.
        self.spans[id].allocs = alloc::allocs();
        self.spans[id].start_ns = self.now_ns();
        Some(id)
    }

    /// Closes the span [`Tracer::open`] returned, covering `calls` calls.
    pub fn close(&mut self, id: Option<usize>, calls: u64) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let allocs = alloc::allocs();
        assert_eq!(self.open.pop(), Some(id), "host spans must nest");
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.calls = calls;
    }

    /// Wraps one call into the program.
    pub fn call<R>(&mut self, layer: &'static str, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(layer, name);
        let out = f();
        self.close(id, 1);
        out
    }

    /// Writes every host span, then `extra` pre-rendered JSON lines.
    pub fn write_jsonl(&self, path: &Path, extra: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self_times(&self.spans);
        for (id, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"type\":\"host_span\",\"run\":\"{}\",\"id\":{id},\"parent\":{parent},\
                 \"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{self_ns},\"calls\":{},\"allocs\":{}}}",
                self.run_id,
                span.layer,
                span.name,
                span.start_ns,
                span.end_ns,
                span.calls,
                span.allocs
            )?;
        }
        for line in extra {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part its direct
/// children cover (children nest strictly and never overlap).
pub fn self_times(spans: &[HostSpan]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            selfs[parent] = selfs[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> HostSpan {
        HostSpan {
            parent,
            layer: "t",
            name: String::new(),
            start_ns,
            end_ns,
            calls: 1,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            span(None, 0, 100),    // root: children cover 30 + 50
            span(Some(0), 10, 40), // child a: its own child covers 5
            span(Some(1), 20, 25), // grandchild: counts against a only
            span(Some(0), 40, 90), // child b
        ];
        assert_eq!(self_times(&spans), vec![20, 25, 5, 50]);
        // Self times partition the root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_and_is_silent_when_off() {
        let mut off = Tracer::off();
        let id = off.open("l", "n");
        assert_eq!(id, None);
        off.close(id, 1);
        assert!(off.spans.is_empty());

        let mut on = Tracer::on("r".into());
        let outer = on.open("l", "outer");
        let got = on.call("l", "inner", || vec![0u8; 64].len());
        on.close(outer, 2);
        assert_eq!(got, 64);
        let spans = &on.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[0].calls, spans[1].calls), (2, 1));
        assert!(spans[1].allocs >= 1, "the inner call allocated");
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
