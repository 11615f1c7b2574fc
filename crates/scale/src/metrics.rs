//! Per-pool observability: the figures a scaling experiment reports.
//!
//! Everything here is computed from ground truth — admission counters
//! absorbed from the engine endpoints, served counts on the replicas,
//! and real SGX transition counter deltas read from each replica's own
//! enclave — then summarised with [`shield5g_core::stats::Summary`] like
//! every other experiment in the workspace.

use crate::avcache::CacheStats;
use crate::pool::EnclavePool;
use crate::router::ReplicaId;
use shield5g_core::stats::Summary;
use shield5g_sim::engine::Engine;
use shield5g_sim::time::{SimDuration, SimTime};

/// Load and enclave-cost breakdown for one replica.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaLoadStats {
    /// The replica.
    pub replica: ReplicaId,
    /// Requests it served.
    pub served: u64,
    /// Requests shed at its queue (full + deadline).
    pub shed: u64,
    /// Peak in-flight depth of its queue.
    pub depth_peak: usize,
    /// EENTER transitions since preheat (serving cost only).
    pub eenter_delta: u64,
    /// EEXIT transitions since preheat.
    pub eexit_delta: u64,
    /// Asynchronous exits since preheat.
    pub aex_delta: u64,
}

/// Results of one pool experiment run.
#[derive(Clone, Debug)]
pub struct PoolReport {
    /// Ready replicas during the run.
    pub replicas: u32,
    /// Offered load (arrivals per second over the trace span).
    pub offered_per_sec: f64,
    /// Total arrivals offered.
    pub arrivals: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Completed authentications per second of trace span.
    pub throughput_per_sec: f64,
    /// End-to-end response time (arrival → completion) of served
    /// requests.
    pub response: Summary,
    /// Queueing delay component of the response time.
    pub queued: Summary,
    /// AV-cache statistics when pre-generation was enabled.
    pub cache: Option<CacheStats>,
    /// Per-replica breakdown.
    pub per_replica: Vec<ReplicaLoadStats>,
}

impl PoolReport {
    /// Fraction of offered arrivals shed.
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        if self.arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / self.arrivals as f64
        }
    }

    /// Mean EENTER transitions per *served* request across the pool —
    /// the figure the AV cache drives down.
    #[must_use]
    pub fn eenter_per_served(&self) -> f64 {
        let eenter: u64 = self.per_replica.iter().map(|r| r.eenter_delta).sum();
        if self.served == 0 {
            0.0
        } else {
            eenter as f64 / self.served as f64
        }
    }

    /// Mean AEX per served request across the pool.
    #[must_use]
    pub fn aex_per_served(&self) -> f64 {
        let aex: u64 = self.per_replica.iter().map(|r| r.aex_delta).sum();
        if self.served == 0 {
            0.0
        } else {
            aex as f64 / self.served as f64
        }
    }

    /// Mirrors this report into the ambient observability registry under
    /// `("pool", label, …)` — pool occupancy, admission-queue outcomes and
    /// shed counts per configuration point. A no-op when observability is
    /// off.
    pub fn record_obs(&self, label: &str) {
        use shield5g_obs::{hub as obs, labels};
        if !obs::is_active() {
            return;
        }
        obs::count("pool", label, labels::ARRIVALS, self.arrivals);
        obs::count("pool", label, labels::SERVED, self.served);
        obs::count("pool", label, labels::SHED, self.shed);
        obs::gauge("pool", label, labels::REPLICAS, f64::from(self.replicas));
        obs::gauge("pool", label, labels::OFFERED_PER_SEC, self.offered_per_sec);
        obs::gauge(
            "pool",
            label,
            labels::THROUGHPUT_PER_SEC,
            self.throughput_per_sec,
        );
        obs::gauge(
            "pool",
            label,
            labels::EENTER_PER_SERVED,
            self.eenter_per_served(),
        );
        obs::gauge(
            "pool",
            label,
            labels::RESPONSE_P50_NS,
            self.response.median.as_nanos() as f64,
        );
        obs::gauge(
            "pool",
            label,
            labels::RESPONSE_P95_NS,
            self.response.p95.as_nanos() as f64,
        );
        obs::gauge(
            "pool",
            label,
            labels::QUEUED_P50_NS,
            self.queued.median.as_nanos() as f64,
        );
        for r in &self.per_replica {
            let ep = format!("{label}/r{}", r.replica);
            obs::count("pool", &ep, labels::SERVED, r.served);
            obs::count("pool", &ep, labels::SHED, r.shed);
            obs::gauge_max("pool", &ep, labels::DEPTH_PEAK, r.depth_peak as f64);
        }
    }
}

impl std::fmt::Display for PoolReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} offered {:.0}/s -> {:.0}/s served ({} shed, {:.1}%), \
             response p50 {} p95 {} p99 {}, {:.1} EENTER/req",
            self.replicas,
            self.offered_per_sec,
            self.throughput_per_sec,
            self.shed,
            100.0 * self.shed_fraction(),
            self.response.median,
            self.response.p95,
            self.response.p99,
            self.eenter_per_served(),
        )
    }
}

/// `count` per second of `span`; 0.0 over a degenerate span (a run in
/// which nothing finished has no rate, not an astronomically large one).
fn per_sec(count: u64, span: SimDuration) -> f64 {
    if span == SimDuration::ZERO {
        0.0
    } else {
        count as f64 / span.as_secs_f64()
    }
}

/// Per-priority-class outcome figures.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassReport {
    /// Arrivals of this class offered to the pool.
    pub arrivals: u64,
    /// Arrivals eventually served (cache hits included).
    pub served: u64,
    /// Arrivals abandoned after the retry budget (shed or failed to the
    /// end).
    pub lost: u64,
    /// `served / arrivals` (1.0 for an empty class).
    pub availability: f64,
    /// Served completions per second of virtual run time.
    pub goodput_per_sec: f64,
}

impl ClassReport {
    /// Fills in the derived figures once the tallies are final.
    pub(crate) fn finish(&mut self, span: SimDuration) {
        self.availability = if self.arrivals == 0 {
            1.0
        } else {
            self.served as f64 / self.arrivals as f64
        };
        self.goodput_per_sec = per_sec(self.served, span);
    }
}

/// Collects response samples during a run and finalises a [`PoolReport`]
/// from them plus the pool's own counters.
#[derive(Debug, Default)]
pub struct RunRecorder {
    response_samples: Vec<SimDuration>,
    queued_samples: Vec<SimDuration>,
    first_arrival: Option<SimTime>,
    last_finish: Option<SimTime>,
    arrivals: u64,
    shed: u64,
}

impl RunRecorder {
    /// An empty recorder with room for the samples of `arrivals` served
    /// requests, reserved once.
    #[must_use]
    pub fn new(arrivals: u32) -> Self {
        let n = arrivals as usize;
        RunRecorder {
            response_samples: Vec::with_capacity(n),
            queued_samples: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Records an arrival (served or not).
    pub fn arrival(&mut self, at: SimTime) {
        self.arrivals += 1;
        if self.first_arrival.is_none() {
            self.first_arrival = Some(at);
        }
    }

    /// Records a served request's timing.
    pub fn served(&mut self, arrival: SimTime, queued: SimDuration, finish: SimTime) {
        self.response_samples.push(finish - arrival);
        self.queued_samples.push(queued);
        self.last_finish = Some(match self.last_finish {
            Some(t) if t > finish => t,
            _ => finish,
        });
    }

    /// Records a shed request.
    pub fn shed(&mut self) {
        self.shed += 1;
    }

    /// Finalises the report against the pool's per-replica state and the
    /// admission counters of the replicas' endpoints on `engine`. A run
    /// that served nothing (e.g. 100% shed under fault injection) yields
    /// empty summaries and zero rates.
    #[must_use]
    pub fn finish(
        mut self,
        pool: &EnclavePool,
        engine: &Engine,
        cache: Option<CacheStats>,
    ) -> PoolReport {
        let span = match (self.first_arrival, self.last_finish) {
            (Some(a), Some(f)) if f > a => f - a,
            _ => SimDuration::ZERO,
        };
        let served = self.response_samples.len() as u64;
        let per_replica: Vec<ReplicaLoadStats> = pool
            .replicas()
            .iter()
            .map(|r| {
                let delta = r.counters_delta();
                let addr = r.addr();
                let (shed_full, shed_deadline) = engine.shed_counts(addr);
                ReplicaLoadStats {
                    replica: r.id,
                    served: r.served(),
                    shed: shed_full + shed_deadline,
                    depth_peak: engine.depth_peak(addr),
                    eenter_delta: delta.eenter,
                    eexit_delta: delta.eexit,
                    aex_delta: delta.aex,
                }
            })
            .collect();
        PoolReport {
            replicas: pool.ready_ids().len() as u32,
            offered_per_sec: per_sec(self.arrivals, span),
            arrivals: self.arrivals,
            served,
            shed: self.shed,
            throughput_per_sec: per_sec(served, span),
            response: Summary::of_in_place(&mut self.response_samples),
            queued: Summary::of_in_place(&mut self.queued_samples),
            cache,
            per_replica,
        }
    }
}

/// Recovery figures of one fault-injection run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// Faults injected over the run (replica kills, enclave crashes,
    /// dropped/delayed/errored SBI responses…).
    pub faults: u64,
    /// Requests that completed with a failure response.
    pub failed: u64,
    /// Mean time to recovery: fault instant → next successful completion
    /// anywhere in the system.
    pub mttr: SimDuration,
    /// Worst observed time to recovery.
    pub mttr_max: SimDuration,
    /// Successful completions per second over the faulted span — the
    /// goodput the system sustains *while* being failed.
    pub goodput_per_sec: f64,
    /// `(first attempts + retransmissions) / first attempts`; 1.0 means
    /// no retry traffic.
    pub retry_amplification: f64,
}

impl RecoveryStats {
    /// Mirrors the recovery figures into the ambient observability
    /// registry under `("faults", label, …)` — fault counts, MTTR and
    /// retry amplification per sweep point. A no-op when observability is
    /// off.
    pub fn record_obs(&self, label: &str) {
        use shield5g_obs::{hub as obs, labels};
        if !obs::is_active() {
            return;
        }
        obs::count("faults", label, labels::INJECTED, self.faults);
        obs::count("faults", label, labels::FAILED, self.failed);
        obs::gauge(
            "faults",
            label,
            labels::MTTR_NS,
            self.mttr.as_nanos() as f64,
        );
        obs::gauge(
            "faults",
            label,
            labels::MTTR_MAX_NS,
            self.mttr_max.as_nanos() as f64,
        );
        obs::gauge(
            "faults",
            label,
            labels::GOODPUT_PER_SEC,
            self.goodput_per_sec,
        );
        obs::gauge(
            "faults",
            label,
            labels::RETRY_AMPLIFICATION,
            self.retry_amplification,
        );
    }
}

impl std::fmt::Display for RecoveryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} faults, {} failed, MTTR {} (max {}), goodput {:.0}/s, {:.2}x retry amplification",
            self.faults,
            self.failed,
            self.mttr,
            self.mttr_max,
            self.goodput_per_sec,
            self.retry_amplification,
        )
    }
}

/// Accumulates fault instants and completions during a faulted run and
/// computes the [`RecoveryStats`].
///
/// MTTR here is service-level: a fault is "recovered" at the first
/// *successful* completion observed at or after its injection instant,
/// because that is when the system demonstrably serves subscribers again.
#[derive(Debug, Default)]
pub struct RecoveryTracker {
    pending: Vec<SimTime>,
    recovery_samples: Vec<SimDuration>,
    faults: u64,
    failed: u64,
    successes: u64,
    first_event: Option<SimTime>,
    last_event: Option<SimTime>,
}

impl RecoveryTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a fault injected at `at`.
    pub fn fault(&mut self, at: SimTime) {
        self.faults += 1;
        self.pending.push(at);
        self.touch(at);
    }

    /// Records a failed completion.
    pub fn failure(&mut self, at: SimTime) {
        self.failed += 1;
        self.touch(at);
    }

    /// Records a successful completion at `at`, resolving every fault
    /// injected at or before that instant.
    pub fn success(&mut self, at: SimTime) {
        self.successes += 1;
        self.touch(at);
        self.pending.retain(|&f| {
            if f <= at {
                self.recovery_samples.push(at - f);
                false
            } else {
                true
            }
        });
    }

    /// Faults injected so far.
    #[must_use]
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Finalises the stats. `retry` is the `(first attempts,
    /// retransmissions)` pair from the supervision timers. Faults never
    /// followed by a success count into `mttr_max` as unrecovered-at-end
    /// (measured to the last observed event).
    #[must_use]
    pub fn finish(mut self, retry: (u64, u64)) -> RecoveryStats {
        let end = self.last_event.unwrap_or_default();
        for f in self.pending.drain(..) {
            self.recovery_samples.push(end.max(f) - f);
        }
        let (mttr, mttr_max) = match self.recovery_samples.iter().max() {
            None => (SimDuration::ZERO, SimDuration::ZERO),
            Some(&max) => {
                let total: u64 = self.recovery_samples.iter().map(|d| d.as_nanos()).sum();
                let mean = total / self.recovery_samples.len() as u64;
                (SimDuration::from_nanos(mean), max)
            }
        };
        let span = match (self.first_event, self.last_event) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => SimDuration::ZERO,
        };
        let (calls, retries) = retry;
        RecoveryStats {
            faults: self.faults,
            failed: self.failed,
            mttr,
            mttr_max,
            goodput_per_sec: per_sec(self.successes, span),
            retry_amplification: if calls == 0 {
                1.0
            } else {
                (calls + retries) as f64 / calls as f64
            },
        }
    }

    fn touch(&mut self, at: SimTime) {
        if self.first_event.is_none() {
            self.first_event = Some(at);
        }
        self.last_event = Some(match self.last_event {
            Some(t) if t > at => t,
            _ => at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_tracks_span_and_counts() {
        let mut r = RunRecorder::new(3);
        let t = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        r.arrival(t(0));
        r.served(t(0), SimDuration::ZERO, t(10));
        r.arrival(t(5));
        r.served(t(5), SimDuration::from_millis(2), t(20));
        r.arrival(t(6));
        r.shed();
        assert_eq!(r.response_samples.len(), 2);
        assert_eq!(r.arrivals, 3);
        assert_eq!(r.shed, 1);
        assert_eq!(r.first_arrival, Some(t(0)));
        assert_eq!(r.last_finish, Some(t(20)));
    }

    #[test]
    fn shed_fraction_and_eenter_math() {
        let report = PoolReport {
            replicas: 2,
            offered_per_sec: 100.0,
            arrivals: 10,
            served: 8,
            shed: 2,
            throughput_per_sec: 80.0,
            response: Summary::of(&[SimDuration::from_millis(1)]),
            queued: Summary::of(&[SimDuration::ZERO]),
            cache: None,
            per_replica: vec![
                ReplicaLoadStats {
                    replica: 0,
                    served: 4,
                    shed: 1,
                    depth_peak: 2,
                    eenter_delta: 380,
                    eexit_delta: 380,
                    aex_delta: 3,
                },
                ReplicaLoadStats {
                    replica: 1,
                    served: 4,
                    shed: 1,
                    depth_peak: 1,
                    eenter_delta: 388,
                    eexit_delta: 388,
                    aex_delta: 1,
                },
            ],
        };
        assert!((report.shed_fraction() - 0.2).abs() < 1e-9);
        assert!((report.eenter_per_served() - 96.0).abs() < 1e-9);
        assert!((report.aex_per_served() - 0.5).abs() < 1e-9);
        assert!(report.to_string().contains("EENTER/req"));
    }

    #[test]
    fn recovery_tracker_computes_mttr_and_amplification() {
        let t = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        let mut r = RecoveryTracker::new();
        r.success(t(0));
        r.fault(t(10));
        r.failure(t(12));
        r.success(t(30)); // resolves the t=10 fault: 20 ms
        r.fault(t(40));
        r.fault(t(50));
        r.success(t(100)); // resolves both: 60 ms and 50 ms
        assert_eq!(r.faults(), 3);
        let stats = r.finish((100, 25));
        assert_eq!(stats.faults, 3);
        assert_eq!(stats.failed, 1);
        // Mean of 20/60/50 ms.
        assert_eq!(stats.mttr, SimDuration::from_nanos(43_333_333));
        assert_eq!(stats.mttr_max, SimDuration::from_millis(60));
        assert!((stats.retry_amplification - 1.25).abs() < 1e-9);
        // 3 successes over the 100 ms event span.
        assert!((stats.goodput_per_sec - 30.0).abs() < 1e-6);
    }

    #[test]
    fn recovery_tracker_handles_unrecovered_and_empty() {
        let t = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        let mut r = RecoveryTracker::new();
        r.fault(t(10));
        r.failure(t(90)); // run ends without a success
        let stats = r.finish((0, 0));
        assert_eq!(stats.faults, 1);
        // Unrecovered fault measured to the end of the run.
        assert_eq!(stats.mttr_max, SimDuration::from_millis(80));
        assert!((stats.retry_amplification - 1.0).abs() < 1e-9);
        assert!((stats.goodput_per_sec).abs() < 1e-9);

        let empty = RecoveryTracker::new().finish((0, 0));
        assert_eq!(empty.faults, 0);
        assert_eq!(empty.mttr, SimDuration::ZERO);

        // One success is one instant, not a span: no rate, rather than
        // one event per nanosecond.
        let mut single = RecoveryTracker::new();
        single.success(t(5));
        assert_eq!(single.finish((1, 0)).goodput_per_sec, 0.0);
    }
}
