//! Central registry of metric label strings.
//!
//! Every `(nf, endpoint, label)` tuple recorded through [`crate::hub`]
//! must take its `label` from this module. Stringly-typed labels typed
//! inline at call sites drift (`"registration_completed"` vs
//! `"registrations_completed"`) and a typo'd label silently records into
//! a key nobody reads; a single constants module makes the set of series
//! greppable and lets a test assert that everything a run emitted is a
//! known series (see `label_registry_covers_every_emitted_key` in
//! `tests/observability.rs`).
//!
//! Grouped by emitter. `ALL` enumerates every constant; keep it in
//! sync when adding one (the membership test fails on an emitted label
//! missing from the registry, which is exactly the drift being guarded).

// --- scheduler / middleware stack (shield5g-mw ObsLayer, FaultLayer,
// --- AdmissionLayer, DeadlineLayer) ---

/// Legs that reached an endpoint (admitted or shed).
pub const ARRIVALS: &str = "arrivals";
/// Downstream legs spawned by a service (`Step::CallOut`).
pub const CALLOUTS: &str = "callouts";
/// Root legs that completed (any status).
pub const COMPLETIONS: &str = "completions";
/// Root-leg end-to-end latency histogram, nanoseconds.
pub const LATENCY_NS: &str = "latency_ns";
/// Per-leg FIFO wait histogram, nanoseconds.
pub const QUEUE_WAIT_NS: &str = "queue_wait_ns";
/// Peak in-flight depth (serving + waiting) gauge.
pub const DEPTH_PEAK: &str = "depth_peak";
/// Arrivals shed because the bounded admission queue was full.
pub const SHED_QUEUE_FULL: &str = "shed_queue_full";
/// Requests shed because their wait exceeded the admission deadline.
pub const SHED_DEADLINE: &str = "shed_deadline";
/// Deliveries suppressed by an injected drop fault.
pub const FAULT_DROP: &str = "fault_drop";
/// Deliveries held back by an injected delay fault.
pub const FAULT_DELAY: &str = "fault_delay";
/// Deliveries replaced by an injected 5xx fault.
pub const FAULT_5XX: &str = "fault_5xx";

// --- network functions (amf.rs / ausf.rs / udm.rs) ---

/// AMF: registrations that reached the registration-complete NAS state.
pub const REGISTRATIONS_COMPLETED: &str = "registrations_completed";
/// AMF: deregistrations processed.
pub const DEREGISTRATIONS: &str = "deregistrations";
/// AUSF: serving-environment AVs issued to the AMF.
pub const SE_AV_ISSUED: &str = "se_av_issued";
/// AUSF: RES* confirmations accepted.
pub const RES_STAR_CONFIRMED: &str = "res_star_confirmed";
/// AUSF: RES* confirmations rejected.
pub const RES_STAR_REJECTED: &str = "res_star_rejected";
/// UDM: home-environment AVs generated.
pub const HE_AV_GENERATED: &str = "he_av_generated";

// --- UE / RAN registration harness (ran/src/ue.rs) ---

/// UE registrations completed.
pub(crate) const COMPLETED: &str = "completed";
/// SQN resynchronisations performed during registration.
pub(crate) const RESYNCS: &str = "resyncs";
/// End-to-end session setup time histogram, nanoseconds.
pub(crate) const SETUP_TIME_NS: &str = "setup_time_ns";

// --- SGX transition counters (hmee/src/enclave.rs) ---

/// Enclave entries.
pub(crate) const EENTER: &str = "eenter";
/// Enclave exits.
pub(crate) const EEXIT: &str = "eexit";
/// OCALLs issued from inside the enclave.
pub(crate) const OCALLS: &str = "ocalls";
/// Asynchronous enclave exits.
pub(crate) const AEX: &str = "aex";
/// Enclave resumes after an AEX.
pub(crate) const ERESUME: &str = "eresume";
/// EPC pages written back (evicted).
pub(crate) const EWB: &str = "ewb";
/// EPC pages loaded back in.
pub(crate) const ELDU: &str = "eldu";

// --- pool scaling (scale/src/metrics.rs PoolReport) ---

/// Pool: requests served.
pub const SERVED: &str = "served";
/// Pool: requests shed.
pub const SHED: &str = "shed";
/// Pool: live replica count gauge.
pub const REPLICAS: &str = "replicas";
/// Pool: offered load gauge, arrivals per second.
pub const OFFERED_PER_SEC: &str = "offered_per_sec";
/// Pool: sustained throughput gauge, served per second.
pub const THROUGHPUT_PER_SEC: &str = "throughput_per_sec";
/// Pool: enclave entries per served request.
pub const EENTER_PER_SERVED: &str = "eenter_per_served";
/// Pool: median response time gauge, nanoseconds.
pub const RESPONSE_P50_NS: &str = "response_p50_ns";
/// Pool: p95 response time gauge, nanoseconds.
pub const RESPONSE_P95_NS: &str = "response_p95_ns";
/// Pool: median queueing delay gauge, nanoseconds.
pub const QUEUED_P50_NS: &str = "queued_p50_ns";

// --- fault sweep (faults/src/sweep.rs, scale RecoveryStats) ---

/// Fault sweep: SBI request/response legs dropped.
pub const DROPS: &str = "drops";
/// Fault sweep: SBI legs delayed.
pub const DELAYS: &str = "delays";
/// Fault sweep: SBI legs replaced with injected 5xx.
pub const ERRORS: &str = "errors";
/// Fault sweep: supervision retransmissions issued.
pub const RETRANSMISSIONS: &str = "retransmissions";
/// Fault sweep: enclave crash reloads paid.
pub const RELOADS: &str = "reloads";
/// Recovery: faults injected.
pub const INJECTED: &str = "injected";
/// Recovery: requests that finally failed.
pub const FAILED: &str = "failed";
/// Recovery: mean time to recovery gauge, nanoseconds.
pub const MTTR_NS: &str = "mttr_ns";
/// Recovery: worst-case time to recovery gauge, nanoseconds.
pub const MTTR_MAX_NS: &str = "mttr_max_ns";
/// Recovery: goodput gauge, successful registrations per second.
pub const GOODPUT_PER_SEC: &str = "goodput_per_sec";
/// Recovery: total sends divided by distinct calls.
pub const RETRY_AMPLIFICATION: &str = "retry_amplification";

// --- overload control (mw/src/breaker.rs, mw/src/admission.rs,
// --- scale/src/health.rs, faults/src/degradation.rs) ---

/// Breaker: circuit transitions closed → open (tripped on EWMA failure).
pub const BREAKER_OPENED: &str = "breaker_opened";
/// Breaker: half-open probe failed, circuit re-opened.
pub const BREAKER_REOPENED: &str = "breaker_reopened";
/// Breaker: half-open probe succeeded, circuit closed again.
pub const BREAKER_CLOSED: &str = "breaker_closed";
/// Breaker: callouts rejected fail-fast while the circuit was open.
pub const BREAKER_REJECTED: &str = "breaker_rejected";
/// Breaker: half-open probe callouts admitted.
pub const BREAKER_PROBES: &str = "breaker_probes";
/// Breaker: current state gauge (0 closed, 1 open, 2 half-open).
pub const BREAKER_STATE: &str = "breaker_state";
/// Admission: normal-class arrivals shed under overload.
pub const SHED_NORMAL: &str = "shed_normal";
/// Admission: emergency-class arrivals shed (capacity truly exhausted).
pub const SHED_EMERGENCY: &str = "shed_emergency";
/// Health: replicas ejected from the routing ring as unhealthy.
pub const REPLICA_EJECTED: &str = "replica_ejected";
/// Health: ejected replicas reinstated after a successful probe.
pub const REPLICA_REINSTATED: &str = "replica_reinstated";
/// Degradation: brownout mode entries (AV prefetch disabled).
pub const BROWNOUT_ENTRIES: &str = "brownout_entries";
/// Degradation: brownout mode exits (AV prefetch re-enabled).
pub const BROWNOUT_EXITS: &str = "brownout_exits";

/// Every label constant above — the closed set of series names. The
/// observability test suite asserts each emitted metric key's label is
/// in this list.
pub(crate) const ALL: &[&str] = &[
    ARRIVALS,
    CALLOUTS,
    COMPLETIONS,
    LATENCY_NS,
    QUEUE_WAIT_NS,
    DEPTH_PEAK,
    SHED_QUEUE_FULL,
    SHED_DEADLINE,
    FAULT_DROP,
    FAULT_DELAY,
    FAULT_5XX,
    REGISTRATIONS_COMPLETED,
    DEREGISTRATIONS,
    SE_AV_ISSUED,
    RES_STAR_CONFIRMED,
    RES_STAR_REJECTED,
    HE_AV_GENERATED,
    COMPLETED,
    RESYNCS,
    SETUP_TIME_NS,
    EENTER,
    EEXIT,
    OCALLS,
    AEX,
    ERESUME,
    EWB,
    ELDU,
    SERVED,
    SHED,
    REPLICAS,
    OFFERED_PER_SEC,
    THROUGHPUT_PER_SEC,
    EENTER_PER_SERVED,
    RESPONSE_P50_NS,
    RESPONSE_P95_NS,
    QUEUED_P50_NS,
    DROPS,
    DELAYS,
    ERRORS,
    RETRANSMISSIONS,
    RELOADS,
    INJECTED,
    FAILED,
    MTTR_NS,
    MTTR_MAX_NS,
    GOODPUT_PER_SEC,
    RETRY_AMPLIFICATION,
    BREAKER_OPENED,
    BREAKER_REOPENED,
    BREAKER_CLOSED,
    BREAKER_REJECTED,
    BREAKER_PROBES,
    BREAKER_STATE,
    SHED_NORMAL,
    SHED_EMERGENCY,
    REPLICA_EJECTED,
    REPLICA_REINSTATED,
    BROWNOUT_ENTRIES,
    BROWNOUT_EXITS,
];

/// Whether `label` is a registered series name.
#[must_use]
pub fn is_registered(label: &str) -> bool {
    ALL.contains(&label)
}

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn registry_has_no_duplicates() {
        let mut seen = std::collections::BTreeSet::new();
        for label in ALL {
            assert!(seen.insert(*label), "duplicate label constant {label:?}");
        }
    }

    #[test]
    fn membership_check_works() {
        assert!(super::is_registered("arrivals"));
        assert!(!super::is_registered("arivals"));
    }
}
