//! Horizontal scaling for the P-AKA modules (`shield5g-scale`).
//!
//! §VI of the paper notes that shielded control-plane functions scale
//! horizontally: each P-AKA module is a self-contained HTTPS microservice,
//! so capacity grows by deploying more enclave replicas behind a router.
//! This crate builds that tier for the simulation:
//!
//! - [`pool`] — per-kind replica pools with an explicit lifecycle
//!   (spawn → preheat → standby/ready → retire). Enclave loading costs
//!   ~60 s (Fig. 7), so pools keep warm standbys to take that cost off
//!   the request path.
//! - [`router`] — consistent-hash request routing keyed by SUPI, keeping
//!   each subscriber's SQN state replica-affine and bounding rebalancing
//!   churn when the pool grows.
//! - [`queue`] — the per-replica admission parameters; admission itself
//!   is [`shield5g_mw::AdmissionLayer`] on every replica endpoint, so
//!   overload is shed before it burns enclave transitions.
//! - [`health`] — per-replica failure/latency EWMAs driving health-gated
//!   routing: unhealthy replicas are ejected from the ring, probed
//!   half-open after a hold-off, and reinstated on probe success.
//! - [`avcache`] — batched AV pre-generation at the eUDM with SQN-aware
//!   invalidation, amortising the ~91-transition HTTPS choreography over
//!   a batch of authentications; plus the brownout policy that turns
//!   prefetching off under latency pressure.
//! - [`metrics`] — per-pool reports built from real per-replica SGX
//!   counter deltas, summarised with [`shield5g_core::stats::Summary`].
//! - [`openloop`] — the one open-loop driver: a gnbsim-style Poisson
//!   registration workload against a real pool on the engine, with
//!   retries, health probes, brownout and kill/crash injection. Every
//!   pool experiment (here and in `shield5g-faults`) is a scenario over
//!   it.
//! - [`harness`] — the §V-B7 horizontal-scaling experiment and
//!   `pool_sweep`, the fault-free view of the driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avcache;
pub mod harness;
pub mod health;
pub mod metrics;
pub mod openloop;
pub mod pool;
pub mod queue;
pub mod router;

pub use avcache::{AvCache, AvCacheConfig, Brownout, BrownoutPolicy, CacheStats};
pub use harness::{
    pool_sweep, probe_service_time, run_scaling_point, scaling_points, ScalingPoint, ScalingRow,
    SweepConfig,
};
pub use health::{HealthEvent, HealthPolicy, HealthTracker};
pub use metrics::{ClassReport, PoolReport, ReplicaLoadStats, RunRecorder};
pub use openloop::{run_scenario, Audit, Outcome, Scenario, Tallies};
pub use pool::{EnclavePool, PoolConfig, Replica, ReplicaState};
pub use queue::QueueConfig;
pub use router::{HashRing, ReplicaId};
