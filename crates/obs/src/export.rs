//! Machine-readable exports: Prometheus text exposition, JSONL span and
//! metric dumps, and the `BENCH_*.json` perf-point files the bench
//! harnesses leave behind so every PR records a comparable perf point.
//!
//! All output is rendered from `BTreeMap`-ordered state with fixed
//! formatting, so a fixed seed produces byte-identical files — the
//! exporter snapshot tests pin exactly that.

use crate::metrics::Registry;
use crate::span::SpanLog;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Escapes a string for embedding in a JSON string literal.
#[must_use]
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite float deterministically (non-finite values become
/// `0`, which JSON cannot represent otherwise).
#[must_use]
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// An ordered JSON object under construction (insertion order is
/// preserved; the caller decides it deterministically).
#[derive(Clone, Debug, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// An empty object.
    #[must_use]
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> JsonObj {
        self.fields
            .push((key.to_owned(), format!("\"{}\"", json_escape(value))));
        self
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, key: &str, value: u64) -> JsonObj {
        self.fields.push((key.to_owned(), format!("{value}")));
        self
    }

    /// Adds a float field.
    #[must_use]
    pub fn f64(mut self, key: &str, value: f64) -> JsonObj {
        self.fields.push((key.to_owned(), json_num(value)));
        self
    }

    /// Adds a raw, pre-rendered JSON value (nested object or array).
    #[must_use]
    pub fn raw(mut self, key: &str, value: &str) -> JsonObj {
        self.fields.push((key.to_owned(), value.to_owned()));
        self
    }

    /// Renders the object.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", json_escape(k), v);
        }
        out.push('}');
        out
    }
}

/// Sanitizes a metric label into Prometheus name charset
/// (`[a-zA-Z0-9_]`).
fn prom_name(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Renders the registry in Prometheus text exposition format. Counters
/// become `shield5g_<label>_total`, gauges `shield5g_<label>`, and
/// histograms a `summary`-style family with `quantile` dimensions plus
/// `_sum`/`_count` — the same percentile set the paper's tables report.
#[must_use]
pub fn prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for (key, value) in registry.counters() {
        let _ = writeln!(
            out,
            "shield5g_{}_total{{nf=\"{}\",endpoint=\"{}\"}} {value}",
            prom_name(&key.label),
            json_escape(&key.nf),
            json_escape(&key.endpoint),
        );
    }
    for (key, value) in registry.gauges() {
        let _ = writeln!(
            out,
            "shield5g_{}{{nf=\"{}\",endpoint=\"{}\"}} {}",
            prom_name(&key.label),
            json_escape(&key.nf),
            json_escape(&key.endpoint),
            json_num(value),
        );
    }
    for (key, hist) in registry.histograms() {
        let name = prom_name(&key.label);
        let nf = json_escape(&key.nf);
        let ep = json_escape(&key.endpoint);
        for (q, v) in [
            (0.25, hist.quantile(0.25)),
            (0.5, hist.quantile(0.5)),
            (0.75, hist.quantile(0.75)),
            (0.95, hist.quantile(0.95)),
            (0.99, hist.quantile(0.99)),
        ] {
            let _ = writeln!(
                out,
                "shield5g_{name}{{nf=\"{nf}\",endpoint=\"{ep}\",quantile=\"{q}\"}} {v}"
            );
        }
        let _ = writeln!(
            out,
            "shield5g_{name}_sum{{nf=\"{nf}\",endpoint=\"{ep}\"}} {}",
            hist.sum()
        );
        let _ = writeln!(
            out,
            "shield5g_{name}_count{{nf=\"{nf}\",endpoint=\"{ep}\"}} {}",
            hist.count()
        );
    }
    out
}

/// Renders the registry as JSONL: one object per series.
#[must_use]
pub fn metrics_jsonl(registry: &Registry) -> String {
    let mut out = String::new();
    for (key, value) in registry.counters() {
        out.push_str(
            &JsonObj::new()
                .str("type", "counter")
                .str("nf", &key.nf)
                .str("endpoint", &key.endpoint)
                .str("label", &key.label)
                .u64("value", value)
                .render(),
        );
        out.push('\n');
    }
    for (key, value) in registry.gauges() {
        out.push_str(
            &JsonObj::new()
                .str("type", "gauge")
                .str("nf", &key.nf)
                .str("endpoint", &key.endpoint)
                .str("label", &key.label)
                .f64("value", value)
                .render(),
        );
        out.push('\n');
    }
    for (key, hist) in registry.histograms() {
        let s = hist.summary();
        out.push_str(
            &JsonObj::new()
                .str("type", "histogram")
                .str("nf", &key.nf)
                .str("endpoint", &key.endpoint)
                .str("label", &key.label)
                .u64("count", s.count)
                .u64("min", s.min)
                .u64("p25", s.p25)
                .u64("p50", s.median)
                .u64("p75", s.p75)
                .u64("p95", s.p95)
                .u64("p99", s.p99)
                .u64("max", s.max)
                .f64("mean", s.mean)
                .render(),
        );
        out.push('\n');
    }
    out
}

/// Renders all finished spans as JSONL: one object per span, in close
/// order. A final `{"type":"spans_dropped",...}` line reports any spans
/// lost to the retention cap — truncation is never silent.
#[must_use]
pub fn spans_jsonl(spans: &SpanLog) -> String {
    let mut out = String::new();
    for span in spans.finished() {
        let mut obj = JsonObj::new().u64("id", span.id).u64("trace", span.trace);
        if let Some(parent) = span.parent {
            obj = obj.u64("parent", parent);
        }
        obj = obj
            .str("kind", span.kind.name())
            .str("nf", &span.nf)
            .str("name", &span.name)
            .u64("start_ns", span.start_ns)
            .u64("end_ns", span.end_ns)
            .u64("dur_ns", span.duration_ns());
        if !span.attrs.is_empty() {
            let mut attrs = JsonObj::new();
            for (k, v) in &span.attrs {
                attrs = attrs.u64(k, *v);
            }
            obj = obj.raw("attrs", &attrs.render());
        }
        out.push_str(&obj.render());
        out.push('\n');
    }
    if spans.dropped() > 0 {
        out.push_str(
            &JsonObj::new()
                .str("type", "spans_dropped")
                .u64("dropped", spans.dropped())
                .render(),
        );
        out.push('\n');
    }
    out
}

/// Renders a `BENCH_<name>.json` document: one machine-readable perf
/// point per measured configuration of a bench run.
#[must_use]
pub fn bench_json(bench: &str, points: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"bench\":\"{}\",\"points\":[", json_escape(bench));
    for (i, point) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(out, "{point}{sep}");
    }
    out.push_str("]}\n");
    out
}

/// Renders a `BENCH_<name>.json` document with a trailing `runner`
/// block (thread count, wall time, speedup — rendered by the bench
/// sweep runner). The block occupies exactly one line beginning with
/// `"runner"`, so thread-count byte-identity checks can mask it with
/// `grep -v '"runner"'`: everything else in the document is a pure
/// function of the merged results and must not vary with parallelism.
#[must_use]
pub fn bench_json_with_runner(bench: &str, points: &[String], runner_json: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"bench\":\"{}\",\"points\":[", json_escape(bench));
    for (i, point) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(out, "{point}{sep}");
    }
    out.push_str("],\n");
    let _ = writeln!(out, "\"runner\":{runner_json}");
    out.push_str("}\n");
    out
}

/// The directory observability artifacts are written to:
/// `$SHIELD5G_OBS_DIR`, defaulting to `target/obs`.
#[must_use]
pub fn obs_dir() -> PathBuf {
    std::env::var_os("SHIELD5G_OBS_DIR").map_or_else(|| PathBuf::from("target/obs"), PathBuf::from)
}

/// Errors from [`write_artifact`].
#[derive(Debug)]
pub enum ExportError {
    /// The rendered artifact was empty — an exporter bug (or a run that
    /// recorded nothing); callers are expected to fail the build.
    Empty(PathBuf),
    /// Filesystem failure.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Empty(p) => write!(f, "exporter produced empty artifact {}", p.display()),
            ExportError::Io(p, e) => write!(f, "writing {}: {e}", p.display()),
        }
    }
}

impl std::error::Error for ExportError {}

/// Writes one artifact into `dir` (created if missing), refusing to
/// write empty content.
///
/// # Errors
///
/// [`ExportError::Empty`] when `contents` is empty;
/// [`ExportError::Io`] on filesystem failure.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) -> Result<PathBuf, ExportError> {
    let path = dir.join(name);
    if contents.is_empty() {
        return Err(ExportError::Empty(path));
    }
    std::fs::create_dir_all(dir).map_err(|e| ExportError::Io(dir.to_path_buf(), e))?;
    std::fs::write(&path, contents).map_err(|e| ExportError::Io(path.clone(), e))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanKind;

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }

    #[test]
    fn json_obj_renders_in_insertion_order() {
        let o = JsonObj::new().str("b", "x").u64("a", 7).f64("c", 0.5);
        assert_eq!(o.render(), "{\"b\":\"x\",\"a\":7,\"c\":0.5}");
    }

    fn sample_registry() -> Registry {
        let mut r = Registry::default();
        r.add("amf", "/ngap", "requests", 41);
        r.set_gauge("pool", "r0", "depth_peak", 3.0);
        r.observe("udm", "/av", "latency_ns", 1_000);
        r.observe("udm", "/av", "latency_ns", 2_000);
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = prometheus(&sample_registry());
        assert!(text.contains("shield5g_requests_total{nf=\"amf\",endpoint=\"/ngap\"} 41"));
        assert!(text.contains("shield5g_depth_peak{nf=\"pool\",endpoint=\"r0\"} 3"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("shield5g_latency_ns_count{nf=\"udm\",endpoint=\"/av\"} 2"));
        assert!(text.contains("shield5g_latency_ns_sum{nf=\"udm\",endpoint=\"/av\"} 3000"));
    }

    #[test]
    fn metrics_jsonl_one_object_per_line() {
        let text = metrics_jsonl(&sample_registry());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        assert!(lines[2].contains("\"type\":\"histogram\""));
        assert!(lines[2].contains("\"p50\":"));
    }

    #[test]
    fn spans_jsonl_includes_attrs_and_drop_report() {
        let mut log = SpanLog::new();
        log.set_cap(1);
        let a = log.open(SpanKind::Enclave, None, "eudm", "ocall", 10);
        log.add_attr(a.unwrap(), "eenter", 1);
        log.close(a.unwrap(), 25);
        assert!(log.open(SpanKind::Stage, None, "x", "y", 0).is_none());
        let text = spans_jsonl(&log);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"attrs\":{\"eenter\":1}"));
        assert!(lines[0].contains("\"dur_ns\":15"));
        assert!(lines[1].contains("\"spans_dropped\""));
    }

    #[test]
    fn bench_json_is_valid_shape() {
        let points = vec![
            JsonObj::new().u64("replicas", 1).f64("rho", 0.8).render(),
            JsonObj::new().u64("replicas", 2).f64("rho", 0.8).render(),
        ];
        let doc = bench_json("pool_scaling", &points);
        assert!(doc.starts_with("{\"bench\":\"pool_scaling\",\"points\":["));
        assert!(doc.trim_end().ends_with("]}"));
        assert_eq!(doc.matches("replicas").count(), 2);
        assert_eq!(doc.matches(",\n").count(), 1);
    }

    #[test]
    fn bench_json_runner_block_is_one_maskable_line() {
        let points = vec![JsonObj::new().u64("replicas", 1).render()];
        let runner = JsonObj::new()
            .u64("threads", 4)
            .f64("wall_time_s", 1.25)
            .f64("speedup", 3.1)
            .render();
        let doc = bench_json_with_runner("pool_scaling", &points, &runner);
        // Exactly one line carries the runner block; removing it yields
        // the same line set regardless of thread count.
        let runner_lines: Vec<&str> = doc.lines().filter(|l| l.contains("\"runner\"")).collect();
        assert_eq!(runner_lines.len(), 1);
        assert!(runner_lines[0].starts_with("\"runner\":{"));
        assert!(runner_lines[0].contains("\"threads\":4"));
        let masked: Vec<&str> = doc.lines().filter(|l| !l.contains("\"runner\"")).collect();
        let other = bench_json_with_runner(
            "pool_scaling",
            &points,
            &JsonObj::new()
                .u64("threads", 1)
                .f64("wall_time_s", 4.9)
                .f64("speedup", 1.0)
                .render(),
        );
        let other_masked: Vec<&str> = other
            .lines()
            .filter(|l| !l.contains("\"runner\""))
            .collect();
        assert_eq!(masked, other_masked);
    }

    #[test]
    fn write_artifact_rejects_empty() {
        let dir = std::env::temp_dir().join("shield5g-obs-test");
        let err = write_artifact(&dir, "empty.json", "").unwrap_err();
        assert!(matches!(err, ExportError::Empty(_)));
        let ok = write_artifact(&dir, "ok.json", "{}\n").unwrap();
        assert_eq!(std::fs::read_to_string(ok).unwrap(), "{}\n");
    }
}
