//! NFV infrastructure simulator: SGX-capable hosts, container runtime,
//! bridge networking — and the paper's attacker.
//!
//! Paper §III deploys the 5G core "on COTS hardware on the infrastructure
//! shared with third-party application providers", where a malicious
//! co-resident can escalate through the container engine, move laterally,
//! and read or tamper with the memory of the AKA functions. This crate
//! provides:
//!
//! * [`image`] — container images, optionally carrying embedded secrets
//!   (the KI 27 anti-pattern) and layers.
//! * [`container`] — containers with inspectable plain process memory and
//!   optionally a shielded ([`shield5g_libos::libos::GramineLibos`])
//!   payload whose memory is EPC ciphertext.
//! * [`host`] — a physical host: SGX platform + container runtime.
//! * [`bridge`] — the OAI docker bridge with an attacker-accessible tap.
//! * [`attacker`] — the §III attack chain: co-residency → engine escape →
//!   lateral movement → memory introspection/tampering, plus image-secret
//!   extraction and bridge sniffing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod attacker;
pub mod bridge;
pub mod container;
pub mod host;
pub mod image;

use std::error::Error;
use std::fmt;

/// Errors from the infrastructure layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InfraError {
    /// Image not present in the registry.
    UnknownImage(String),
    /// Container name not found on the host.
    UnknownContainer(String),
    /// An attack step failed (prerequisite not met or probabilistic miss).
    AttackFailed {
        /// The step attempted.
        step: &'static str,
        /// Why it failed.
        reason: String,
    },
}

impl fmt::Display for InfraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InfraError::UnknownImage(i) => write!(f, "unknown image {i:?}"),
            InfraError::UnknownContainer(c) => write!(f, "unknown container {c:?}"),
            InfraError::AttackFailed { step, reason } => {
                write!(f, "attack step {step} failed: {reason}")
            }
        }
    }
}

impl Error for InfraError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(InfraError::UnknownImage("x".into())
            .to_string()
            .contains('x'));
        assert!(InfraError::AttackFailed {
            step: "escape",
            reason: "patched".into()
        }
        .to_string()
        .contains("escape"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InfraError>();
    }
}
