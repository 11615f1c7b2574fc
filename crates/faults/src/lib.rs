//! Deterministic fault injection for the shielded control plane
//! (`shield5g-faults`).
//!
//! The paper argues (§VI, KI 2/8/22) that moving AKA into enclaves must
//! not make the control plane *more* fragile: enclaves crash (EPC power
//! events, host reboots, `EREMOVE` by a hostile OS), their ~60 s load
//! time (Fig. 7) turns every cold restart into an outage, and the SBI
//! mesh between NFs drops and delays messages like any other network.
//! This crate injects those failures **deterministically** and measures
//! how the recovery machinery — supervision retries, warm-standby
//! failover, AV-cache invalidation — holds up:
//!
//! - [`plan`] — a seed-driven [`plan::SbiFaultPlan`] implementing the
//!   engine's `FaultInjector` hook: per-message drop / delay / 5xx
//!   decisions drawn from a forked [`shield5g_sim::rng::DetRng`], never
//!   ambient randomness. Same seed ⇒ byte-identical fault schedule; all
//!   rates zero ⇒ nothing is installed and nothing is drawn, so
//!   fault-free traces are bit-for-bit those of a build without this
//!   crate.
//! - [`sweep`] — the `fault_sweep` experiment: an open-loop registration
//!   workload against a real replica pool while faults fire at all three
//!   layers (SBI messages, enclave instances, whole replicas), with
//!   supervision retries at the client and warm-standby failover in the
//!   pool. Reports MTTR, goodput under fault, and retry amplification.
//! - [`degradation`] — the `degradation_sweep` graceful-degradation
//!   experiment: the SBI fault rate ramps while priority shedding,
//!   health-gated routing, and AV-cache brownout modes hold the
//!   emergency class up; reports availability / goodput / shed-rate
//!   curves per priority class.
//!
//! Both experiments are scenarios over the one open-loop pool driver,
//! [`shield5g_scale::openloop::run_scenario`]; what this crate adds is
//! the fault plan it arms, the point lists, and the reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod degradation;
pub mod plan;
pub mod sweep;

pub use degradation::{
    brownout_config, degradation_points, degradation_sweep, pressured_config,
    run_degradation_point, BrownoutPolicy, ClassReport, DegradationConfig, DegradationPoint,
    DegradationReport,
};
pub use plan::{FaultConfig, FaultCounts, SbiFaultPlan};
pub use sweep::{
    bench_points, fault_sweep, run_point, FaultReport, FaultSweepConfig, FaultSweepPoint,
};
