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
//!   horizontal-scaling experiment over real replica pools.
//! * [`faults`] — the fault-injection experiments as pool scenarios:
//!   SBI drop/delay/error rates, enclave crash and replica death for the
//!   `fault_sweep` recovery experiment (MTTR, goodput under fault, retry
//!   amplification), and the `degradation_sweep` overload points.
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
pub use shield5g_faults as faults;
pub use shield5g_hmee as hmee;
pub use shield5g_infra as infra;
pub use shield5g_libos as libos;
pub use shield5g_mw as mw;
pub use shield5g_nf as nf;
pub use shield5g_obs as obs;
pub use shield5g_ran as ran;
pub use shield5g_scale as scale;
pub use shield5g_sim as sim;
