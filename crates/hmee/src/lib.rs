//! Hardware-Mediated Execution Enclave (HMEE) simulator.
//!
//! ETSI defines an HMEE as "a secure process space hardened against any
//! type of eavesdropping and data alteration attacks from the rest of the
//! system environment" (GS NFV-SEC 009); the paper instantiates it with
//! Intel SGX. This crate is a software model of such a TEE with the
//! properties the paper's evaluation depends on:
//!
//! * **An encrypted Enclave Page Cache** ([`epc`]): page contents at rest
//!   in "RAM" are genuinely AES-encrypted and integrity-tagged under a key
//!   that never leaves the simulated CPU package, so the infrastructure
//!   attacker of paper §III reads only ciphertext.
//! * **Lifecycle and measurement** ([`enclave`]): `ECREATE`/`EADD`/
//!   `EEXTEND`/`EINIT` build an MRENCLAVE-style SHA-256 measurement.
//! * **Transition accounting** ([`counters`]): every `EENTER`, `EEXIT`,
//!   `AEX` and `ERESUME` is counted — these counts, multiplied by the
//!   published per-transition costs, are what produce the paper's
//!   Table III and the SGX latency overheads.
//! * **A calibrated cost model** ([`cost`]): every timing constant in one
//!   place, with its provenance documented.
//! * **Attestation** ([`attest`]) and **sealing** ([`seal`]): the SGX
//!   features §VI leans on for KI 11/12/13/27.
//!
//! # Example
//!
//! ```rust
//! use shield5g_hmee::platform::SgxPlatform;
//! use shield5g_hmee::enclave::EnclaveBuilder;
//! use shield5g_sim::Env;
//!
//! let mut env = Env::new(7);
//! let platform = SgxPlatform::new(&mut env);
//! let mut enclave = EnclaveBuilder::new("eudm-paka")
//!     .heap_bytes(512 * 1024 * 1024)
//!     .max_threads(4)
//!     .build(&mut env, &platform)
//!     .expect("enclave fits in EPC");
//! enclave.vault_write(&mut env, "subscriber-key", b"top secret");
//! assert_eq!(enclave.vault_read(&mut env, "subscriber-key").unwrap(), b"top secret");
//! // Outside view: ciphertext only.
//! assert!(!enclave.epc_snapshot().contains_plaintext(b"top secret"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]
// The one crate outside the `clippy.toml` determinism perimeter.
#![expect(
    clippy::disallowed_types,
    reason = "the vault and attestation maps are looked up by key (`vault_slots` sorts), \
              and as BTreeMaps they cost +7.5 %/+6.9 % peak heap and +10.1 %/+2.3 % \
              allocations per op on the pool_open/pool_faulted benchmark workloads"
)]

pub mod attest;
pub mod cost;
pub mod counters;
pub mod enclave;
pub mod epc;
pub mod platform;
pub mod seal;

use std::error::Error;
use std::fmt;

/// Errors produced by the HMEE simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HmeeError {
    /// The requested enclave does not fit in the platform's EPC.
    EpcExhausted {
        /// Pages requested.
        requested_pages: u64,
        /// Pages the platform can hold.
        available_pages: u64,
    },
    /// An operation was attempted in the wrong lifecycle state.
    BadLifecycle {
        /// What was attempted.
        operation: &'static str,
        /// The state the enclave was in.
        state: &'static str,
    },
    /// More threads tried to enter than `TCS` slots exist.
    ThreadLimit {
        /// Configured maximum.
        max_threads: u32,
    },
    /// A vault slot was not found.
    UnknownSlot(enclave::SlotName),
    /// An EPC page is not in the state an operation needs.
    UnknownPage {
        /// The page index.
        index: usize,
        /// The state it is not in (`resident`, `evicted`).
        expected: &'static str,
    },
    /// Integrity verification failed: the EPC content was altered from
    /// outside (SGX would raise a machine check; we surface an error).
    IntegrityViolation(String),
    /// An attestation report or quote failed verification.
    AttestationFailed(String),
    /// A sealed blob could not be opened under this enclave's identity.
    UnsealDenied(String),
    /// The enclave instance was destroyed (host crash, EPC power event,
    /// `EREMOVE` by the OS) and must be rebuilt before further use.
    EnclaveLost(String),
    /// The platform's [`cost::CostModel`] cannot price a transition.
    InvalidCostModel {
        /// The field that is non-finite or out of range.
        field: &'static str,
    },
    /// A vault value was asked into a buffer of another length.
    ValueLength {
        /// Bytes the slot holds.
        stored: usize,
        /// Bytes the buffer has.
        buffer: usize,
    },
}

impl fmt::Display for HmeeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HmeeError::EpcExhausted {
                requested_pages,
                available_pages,
            } => write!(
                f,
                "epc exhausted: requested {requested_pages} pages, {available_pages} available"
            ),
            HmeeError::BadLifecycle { operation, state } => {
                write!(f, "cannot {operation} while enclave is {state}")
            }
            HmeeError::ThreadLimit { max_threads } => {
                write!(f, "all {max_threads} TCS slots busy")
            }
            HmeeError::UnknownSlot(s) => write!(f, "unknown vault slot {s:?}"),
            HmeeError::UnknownPage { index, expected } => {
                write!(f, "epc page {index} is not {expected}")
            }
            HmeeError::IntegrityViolation(w) => write!(f, "epc integrity violation: {w}"),
            HmeeError::AttestationFailed(w) => write!(f, "attestation failed: {w}"),
            HmeeError::UnsealDenied(w) => write!(f, "unseal denied: {w}"),
            HmeeError::EnclaveLost(name) => {
                write!(f, "enclave {name} was lost and must be reloaded")
            }
            HmeeError::InvalidCostModel { field } => {
                write!(f, "cost model field {field} is non-finite or out of range")
            }
            HmeeError::ValueLength { stored, buffer } => {
                write!(f, "vault value of {stored} bytes asked into {buffer}")
            }
        }
    }
}

impl Error for HmeeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_covers_variants() {
        assert!(HmeeError::EpcExhausted {
            requested_pages: 10,
            available_pages: 5
        }
        .to_string()
        .contains("10"));
        assert!(HmeeError::ThreadLimit { max_threads: 4 }
            .to_string()
            .contains('4'));
        assert!(HmeeError::UnknownSlot(enclave::SlotName::new("k"))
            .to_string()
            .contains("\"k\""));
        assert!(HmeeError::UnknownPage {
            index: 7,
            expected: "evicted"
        }
        .to_string()
        .contains("page 7 is not evicted"));
        assert!(HmeeError::ValueLength {
            stored: 17,
            buffer: 16
        }
        .to_string()
        .contains("17"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HmeeError>();
    }
}
