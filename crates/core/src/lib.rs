//! The paper's primary contribution: HMEE-shielded 5G control-plane
//! functions.
//!
//! *"Towards Shielding 5G Control Plane Functions"* (DSN 2024) extracts
//! the sensitive 5G-AKA computations out of the monolithic UDM, AUSF and
//! AMF into three microservices — the **P-AKA modules** — and deploys
//! them inside SGX enclaves via Gramine/GSC. This crate implements that
//! system over the workspace substrates:
//!
//! * [`paka`] — the eUDM/eAUSF/eAMF modules as HTTPS microservices with a
//!   syscall-accurate request choreography; deployable in a plain
//!   container or inside an SGX enclave (**P-AKA** proper), with the
//!   exact Table I enclave I/O.
//! * [`remote`] — the VNF side of the split: one client, and one
//!   `shield5g-nf` `AkaBackend` for every row of the operation table, that
//!   offloads to a P-AKA module over TLS through the OAI bridge (paper
//!   Fig. 4/5), measuring response times as the VNF sees them.
//! * [`slice`](mod@slice) — the network-slice builder: provisions subscribers,
//!   deploys the core VNFs and P-AKA modules on a host in a chosen
//!   [`slice::AkaDeployment`], and wires everything together.
//! * [`stats`] — sample summaries (median/quartiles) matching the paper's
//!   box plots.
//! * [`harness`] — single-module deploy and measure helpers (L_F/L_T,
//!   response times, engine endpoints) the §V experiments build on.
//! * [`ki`] — the §VI 3GPP Key Issue analysis (Table V), substantiated by
//!   attacker scenarios run against the simulated infrastructure.
//! * [`testbed`] — the Table IV testbed configuration descriptor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod harness;
pub mod ki;
pub mod migration;
pub mod paka;
pub mod remote;
pub mod slice;
pub mod stats;
pub mod testbed;

use std::error::Error;
use std::fmt;

/// Errors from the shielding layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum CoreError {
    /// Deployment failed at the infrastructure layer.
    Infra(shield5g_infra::InfraError),
    /// Deployment failed at the LibOS layer.
    Libos(shield5g_libos::LibosError),
    /// An enclave operation failed (sealing, attestation, vault).
    Hmee(shield5g_hmee::HmeeError),
    /// A network-function error surfaced during slice operation.
    Nf(shield5g_nf::NfError),
    /// A module served an error response.
    Module {
        /// Module name.
        module: String,
        /// HTTP status returned.
        status: u16,
        /// Body text.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Infra(e) => write!(f, "infrastructure failure: {e}"),
            CoreError::Libos(e) => write!(f, "libos failure: {e}"),
            CoreError::Hmee(e) => write!(f, "enclave failure: {e}"),
            CoreError::Nf(e) => write!(f, "network function failure: {e}"),
            CoreError::Module {
                module,
                status,
                detail,
            } => {
                write!(f, "module {module} returned {status}: {detail}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Infra(e) => Some(e),
            CoreError::Libos(e) => Some(e),
            CoreError::Hmee(e) => Some(e),
            CoreError::Nf(e) => Some(e),
            CoreError::Module { .. } => None,
        }
    }
}

impl From<shield5g_infra::InfraError> for CoreError {
    fn from(e: shield5g_infra::InfraError) -> Self {
        CoreError::Infra(e)
    }
}

impl From<shield5g_libos::LibosError> for CoreError {
    fn from(e: shield5g_libos::LibosError) -> Self {
        CoreError::Libos(e)
    }
}

impl From<shield5g_hmee::HmeeError> for CoreError {
    fn from(e: shield5g_hmee::HmeeError) -> Self {
        CoreError::Hmee(e)
    }
}

impl From<shield5g_nf::NfError> for CoreError {
    fn from(e: shield5g_nf::NfError) -> Self {
        CoreError::Nf(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_sources() {
        let e: CoreError = shield5g_nf::NfError::Protocol("x".into()).into();
        assert!(e.to_string().contains("network function"));
        assert!(Error::source(&e).is_some());
        let m = CoreError::Module {
            module: "eudm".into(),
            status: 500,
            detail: "boom".into(),
        };
        assert!(m.to_string().contains("eudm"));
        assert!(Error::source(&m).is_none());
    }

    /// This crate's registry of key-bearing types
    /// (`shield5g_crypto::secret`): a subscriber renders the same `{:?}`
    /// for a canary and its complement, and wipes through K and OPc.
    #[test]
    fn every_registered_type_redacts_and_wipes() {
        use crate::slice::Subscriber;
        use shield5g_crypto::ident::{Plmn, Supi};
        use shield5g_crypto::secret::{redacts, wipes_through};
        use shield5g_crypto::SecretBytes;

        let supi = Supi::numbered(Plmn::test_network(), 1, 10);
        assert!(redacts(|c| Subscriber {
            supi,
            k: SecretBytes::new([c; 16]),
            opc: SecretBytes::new([c; 16]),
        }));
        wipes_through(|sub: &Subscriber| &sub.k);
        wipes_through(|sub: &Subscriber| &sub.opc);
    }
}
