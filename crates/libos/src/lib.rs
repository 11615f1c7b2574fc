//! A Gramine-style library OS for the HMEE simulator.
//!
//! The paper deploys its P-AKA modules with Gramine-SGX via GSC (Gramine
//! Shielded Containers, §IV-C): unmodified container images run inside an
//! enclave, with a LibOS translating every syscall into an OCALL round
//! trip. This crate models the pieces the evaluation depends on:
//!
//! * [`manifest`] — the Gramine manifest: `sgx.max_threads`,
//!   `sgx.preheat_enclave`, enclave size, debug/stats flags, trusted files.
//! * [`gsc`] — the GSC image transform: appends the container root FS to
//!   the trusted-file list (the cause of the paper's ~1 minute enclave
//!   load, §V-B1), signs the image, and rejects workloads needing
//!   protocols Gramine cannot shield (SCTP, §IV-A).
//! * [`syscalls`] — a syscall interface with two implementations: native
//!   (container deployment) and shielded (every call is an OCALL through
//!   the enclave boundary). The *same workload code* runs against both,
//!   so SGX overhead emerges from the boundary, not from different logic.
//! * [`libos`] — the boot sequence (manifest load, trusted-file
//!   verification, helper threads, optional preheat) and the runtime
//!   syscall translation, with Gramine's "exitless" mode as an option.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod gsc;
pub mod libos;
pub mod manifest;
pub mod syscalls;

use std::error::Error;
use std::fmt;

/// Errors from the LibOS layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LibosError {
    /// The workload requires a protocol the LibOS cannot shield.
    UnsupportedProtocol {
        /// Offending protocol (e.g. "SCTP").
        protocol: String,
        /// The image that requires it.
        image: String,
    },
    /// A file was accessed that is neither trusted nor allowed.
    UntrustedFile(String),
    /// Manifest validation failed.
    ManifestInvalid(String),
    /// The enclave could not be created.
    EnclaveBuild(shield5g_hmee::HmeeError),
    /// The image signature did not verify at load time.
    SignatureInvalid(String),
}

impl fmt::Display for LibosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibosError::UnsupportedProtocol { protocol, image } => {
                write!(
                    f,
                    "image {image:?} requires {protocol}, which the LibOS cannot shield"
                )
            }
            LibosError::UntrustedFile(p) => write!(f, "access to untrusted file {p:?}"),
            LibosError::ManifestInvalid(m) => write!(f, "invalid manifest: {m}"),
            LibosError::EnclaveBuild(e) => write!(f, "enclave build failed: {e}"),
            LibosError::SignatureInvalid(m) => write!(f, "image signature invalid: {m}"),
        }
    }
}

impl Error for LibosError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LibosError::EnclaveBuild(e) => Some(e),
            _ => None,
        }
    }
}

impl From<shield5g_hmee::HmeeError> for LibosError {
    fn from(e: shield5g_hmee::HmeeError) -> Self {
        LibosError::EnclaveBuild(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_protocol_and_image() {
        let e = LibosError::UnsupportedProtocol {
            protocol: "SCTP".into(),
            image: "oai-amf".into(),
        };
        let s = e.to_string();
        assert!(s.contains("SCTP"));
        assert!(s.contains("oai-amf"));
    }

    #[test]
    fn hmee_error_converts_with_source() {
        let e: LibosError = shield5g_hmee::HmeeError::ThreadLimit { max_threads: 4 }.into();
        assert!(Error::source(&e).is_some());
    }
}
