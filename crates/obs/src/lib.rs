//! # shield5g-obs — deterministic observability
//!
//! The paper's entire contribution is a *measurement*: enclave transition
//! counts, OCALL storms, and load/latency/response-time distributions
//! (Tables I–V, Figs. 5–10). This crate is the uniform substrate those
//! measurements flow through:
//!
//! * [`metrics`] — a registry of counters, gauges, and log-linear
//!   histograms keyed by `(nf, endpoint, label)`, with
//!   `Summary`-compatible percentile extraction.
//! * [`span`] — virtual-time spans. The discrete-event engine opens and
//!   closes a span for every request leg, queue wait, and service
//!   segment; the HMEE layer adds per-enclave-transition spans. A single
//!   registration decomposes into per-hop, per-transition flame data
//!   whose exclusive times sum exactly to the end-to-end latency.
//! * [`hub`] — the ambient (thread-local) recording context. When no hub
//!   is installed every instrumentation site is a no-op, so obs-disabled
//!   runs are byte-identical to obs-enabled runs — the
//!   **zero-perturbation guarantee**, gated by `tests/determinism.rs`.
//!   Hubs install per thread: a parallel sweep gives each job its own
//!   hub and merges the recordings afterwards ([`hub::Obs::merge`]) in
//!   canonical job order, reproducing the serial recording
//!   byte-for-byte. Misses (instrumentation with no hub installed) are
//!   counted process-wide ([`hub::hub_misses`]) and panic in debug
//!   builds on threads opted into strict mode ([`hub::set_strict`]).
//! * [`labels`] — the closed registry of series label constants every
//!   instrumentation site draws from (typo'd inline labels are caught by
//!   a membership test over emitted keys).
//! * [`export`] — Prometheus text exposition, JSONL span/metric dumps,
//!   and the `BENCH_*.json` perf-point emitter the bench harnesses use
//!   to record a machine-readable trajectory per PR.
//!
//! Everything is deterministic: timestamps come from the virtual clock
//! (passed in as raw nanoseconds), collections are `BTreeMap`s, and no
//! ambient randomness or wall-clock source is touched — the crate is
//! held to shield5g-lint's DT rules like the engine itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod export;
pub mod hub;
pub mod labels;
pub mod metrics;
pub mod span;

pub use hub::{Obs, ObsHandle};
pub use metrics::Registry;
pub use span::{Span, SpanKind, SpanLog};
