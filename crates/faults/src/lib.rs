//! Fault-injection experiments over the shielded control plane
//! (`shield5g-faults`).
//!
//! The paper argues (§VI, KI 2/8/22) that moving AKA into enclaves must
//! not make the control plane *more* fragile: enclaves crash (EPC power
//! events, host reboots, `EREMOVE` by a hostile OS), their ~60 s load
//! time (Fig. 7) turns every cold restart into an outage, and the SBI
//! mesh between NFs drops and delays messages like any other network.
//! The pool driver, [`shield5g_scale::openloop::run_scenario`], injects
//! those failures **deterministically** — the seeded SBI plan
//! ([`shield5g_mw::SbiFaultPlan`]) is part of its [`Scenario`] — and
//! this crate lists the points that measure how the recovery machinery
//! (supervision retries, warm-standby failover, AV-cache invalidation)
//! holds up:
//!
//! - [`sweep`] — the `fault_sweep` experiment: an open-loop registration
//!   workload against a real replica pool while faults fire at all three
//!   layers (SBI messages, enclave instances, whole replicas), with
//!   supervision retries at the client and warm-standby failover in the
//!   pool. Reports MTTR, goodput under fault, and retry amplification.
//! - [`degradation`] — the `degradation_sweep` graceful-degradation
//!   experiment: the SBI fault rate ramps while priority shedding,
//!   health-gated routing, and AV-cache brownout modes hold the
//!   emergency class up; the rows read availability / goodput /
//!   shed-rate curves per priority class off each run's `Outcome`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod degradation;
pub mod sweep;

/// The SBI plan's configuration at its former path.
/// Public for `benchmark/` (ROADMAP item 2), which names it.
pub mod plan {
    pub use shield5g_mw::FaultConfig;
}

pub use degradation::{brownout_config, degradation_points, pressured_config};
pub use sweep::{bench_points, fault_sweep, FaultReport, FaultSweepConfig};

use shield5g_scale::openloop::Scenario;

/// One point of a fault or degradation row: its label, the total SBI
/// fault rate it stands for (split evenly across drop/delay/5xx; 0 for
/// the scenarios that inject no SBI fault), its seed and its scenario.
/// `Copy + Send`, so the parallel sweep runner can move points onto
/// worker threads; running one is a pure function of this struct.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    /// Scenario label the row reports.
    pub label: &'static str,
    /// Total SBI fault rate of the point.
    pub rate: f64,
    /// Seed of this point's run.
    pub seed: u64,
    /// The run itself.
    pub scenario: Scenario,
}
