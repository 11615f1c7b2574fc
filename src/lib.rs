//! # shield5g
//!
//! A Rust reproduction of **"Towards Shielding 5G Control Plane
//! Functions"** (Maitra, Atalay, Stavrou, Wang — IEEE/IFIP DSN 2024).
//!
//! The paper extracts the sensitive 5G-AKA computations from the
//! monolithic UDM, AUSF and AMF network functions into three
//! microservices (the **P-AKA modules**), deploys them inside Intel SGX
//! enclaves via Gramine Shielded Containers, and characterizes the cost
//! of that isolation. This workspace rebuilds the entire system in Rust
//! over simulated substrates — crypto, TEE, LibOS, NFV infrastructure, 5G
//! core, and RAN — and regenerates every table and figure of the paper's
//! evaluation.
//!
//! This facade crate re-exports the workspace so downstream users depend
//! on one name:
//!
//! * [`crypto`] — AES/SHA/HMAC/MILENAGE/X25519/SUCI and the 5G key
//!   hierarchy, all validated against published test vectors.
//! * [`sim`] — virtual time, deterministic randomness, HTTP/TLS wire
//!   models, the discrete-event simulation engine.
//! * [`hmee`] — the SGX-class enclave simulator (encrypted EPC, lifecycle
//!   measurement, transition accounting, attestation, sealing).
//! * [`libos`] — the Gramine-style LibOS and GSC image pipeline.
//! * [`infra`] — SGX-capable hosts, containers, bridges, and the
//!   paper's co-residency attacker.
//! * [`nf`] — the 5G core (NRF/UDR/UDM/AUSF/AMF/SMF/UPF) with the full
//!   5G-AKA flow.
//! * [`core`] — the P-AKA modules, deployments, slice builder,
//!   characterization harness and Key-Issue analysis.
//! * [`ran`] — gNB, gNBSIM mass driver, the COTS-UE model and the OTA
//!   feasibility testbed.
//! * [`scale`] — sharded P-AKA enclave pools: consistent-hash routing,
//!   bounded admission queues, batched AV pre-generation, and the
//!   horizontal-scaling and fault-injection runs over real replica pools.
//! * [`mw`] — the engine's middleware layers (admission, deadline,
//!   breaker, fault, retry, observability) and the seeded SBI fault plan.
//! * [`obs`] — deterministic observability: virtual-time span tracing
//!   with per-hop/per-enclave-transition flame decomposition, a
//!   `(nf, endpoint, label)` metrics registry, and Prometheus/JSONL/
//!   `BENCH_*.json` exporters — zero perturbation of engine traces.
//!
//! # Quickstart
//!
//! Register a real (simulated) phone through enclave-shielded AKA:
//!
//! ```rust
//! use shield5g::core::slice::AkaDeployment;
//! use shield5g::core::paka::SgxConfig;
//! use shield5g::ran::ota::OtaTestbed;
//!
//! let mut testbed = OtaTestbed::assemble(7, AkaDeployment::Sgx(SgxConfig::default()));
//! let report = testbed.run().expect("registration succeeds");
//! assert!(report.registered);
//! assert!(report.data_echoed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub use shield5g_core as core;
pub use shield5g_crypto as crypto;
pub use shield5g_hmee as hmee;
pub use shield5g_infra as infra;
pub use shield5g_libos as libos;
pub use shield5g_mw as mw;
pub use shield5g_nf as nf;
pub use shield5g_obs as obs;
pub use shield5g_ran as ran;
pub use shield5g_scale as scale;

/// [`shield5g_sim`], with [`mw::AdmissionPolicy`] also at its former
/// `sim::engine` path.
pub mod sim {
    pub use shield5g_sim::*;

    /// [`shield5g_sim::engine`] plus the admission policy.
    pub mod engine {
        /// Public for `benchmark/` (ROADMAP item 2), which names it here.
        pub use shield5g_mw::AdmissionPolicy;
        pub use shield5g_sim::engine::*;
    }
}

/// The fault-injection run at the paths of the former `shield5g-faults`
/// crate.
pub mod faults {
    /// The SBI fault plan's configuration.
    pub mod plan {
        /// Public for `benchmark/` (ROADMAP item 2), which names it here.
        pub use shield5g_mw::FaultConfig;
    }

    /// The fault-injection run and its report.
    pub mod sweep {
        /// Public for `benchmark/` (ROADMAP item 2), which names them here.
        pub use shield5g_scale::harness::{fault_sweep, FaultReport, FaultSweepConfig};
    }
}
