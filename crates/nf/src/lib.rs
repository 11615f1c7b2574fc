//! The 5G core network functions over a simulated service-based
//! architecture.
//!
//! Implements the control-plane slice of paper Figure 2: NRF (discovery),
//! UDR (credential storage), UDM (SIDF + authentication data), AUSF
//! (authentication server), AMF/SEAF (NAS handling and mobility), and the
//! SMF/UPF session anchors — with the complete 5G-AKA message flow of
//! TS 33.501 §6.1.3.2 including HXRES*/RES* double verification, NAS
//! security mode, GUTI allocation, sequence-number re-synchronisation and
//! PDU session establishment.
//!
//! The sensitive AKA computations are *pluggable*: each is one row of the
//! operation table in [`backend`], and UDM, AUSF and AMF reach their rows
//! through [`backend::AkaBackend`]. The in-process backend here models the
//! monolithic OAI deployment; the `shield5g-core` crate runs the same rows
//! in the paper's extracted P-AKA microservices (container and SGX-enclave
//! deployments) behind the same trait, so the registration flow is
//! byte-identical across deployments — exactly the paper's §IV-B design
//! goal of not altering the regular UE registration flow.
//!
//! Every message on those interfaces (NAS, NGAP, SBI, P-AKA) states its
//! field list once and gets its codec from [`wire`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amf;
pub mod ausf;
pub mod backend;
pub mod messages;
pub mod nas_security;
pub mod nrf;
pub mod sbi;
pub mod smf;
pub mod udm;
pub mod udr;
pub mod upf;
pub mod wire;

use shield5g_crypto::CryptoError;
use shield5g_sim::SimError;
use std::error::Error;
use std::fmt;

/// Canonical endpoint addresses on the OAI bridge.
pub mod addr {
    /// Network Repository Function.
    pub const NRF: &str = "nrf.oai";
    /// Unified Data Repository.
    pub const UDR: &str = "udr.oai";
    /// Unified Data Management.
    pub const UDM: &str = "udm.oai";
    /// Authentication Server Function.
    pub const AUSF: &str = "ausf.oai";
    /// Access and Mobility Management Function.
    pub const AMF: &str = "amf.oai";
    /// Session Management Function.
    pub const SMF: &str = "smf.oai";
    /// User Plane Function.
    pub const UPF: &str = "upf.oai";
}

/// 5G network function types (for NRF profiles).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum NfType {
    /// Network Repository Function.
    NRF,
    /// Unified Data Repository.
    UDR,
    /// Unified Data Management.
    UDM,
    /// Authentication Server Function.
    AUSF,
    /// Access and Mobility Management Function.
    AMF,
    /// Session Management Function.
    SMF,
    /// User Plane Function.
    UPF,
}

impl fmt::Display for NfType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Errors raised by network functions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NfError {
    /// A cryptographic operation failed.
    Crypto(CryptoError),
    /// A transport/bus failure.
    Sim(SimError),
    /// The subscriber is not provisioned.
    SubscriberUnknown(String),
    /// Authentication was rejected.
    AuthenticationRejected(String),
    /// A backend (P-AKA module) failure.
    Backend(String),
    /// Protocol violation (unexpected message or state).
    Protocol(String),
}

impl fmt::Display for NfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NfError::Crypto(e) => write!(f, "crypto failure: {e}"),
            NfError::Sim(e) => write!(f, "transport failure: {e}"),
            NfError::SubscriberUnknown(s) => write!(f, "unknown subscriber {s}"),
            NfError::AuthenticationRejected(why) => write!(f, "authentication rejected: {why}"),
            NfError::Backend(why) => write!(f, "aka backend failure: {why}"),
            NfError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl Error for NfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NfError::Crypto(e) => Some(e),
            NfError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for NfError {
    fn from(e: CryptoError) -> Self {
        NfError::Crypto(e)
    }
}

impl From<SimError> for NfError {
    fn from(e: SimError) -> Self {
        NfError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_sim::engine::{EngineService, LegMeta};

    /// A SUPI from its `imsi-` text, for the crate's tests.
    pub(crate) fn imsi(text: &str) -> shield5g_crypto::ident::Supi {
        shield5g_crypto::ident::Supi::parse(text).unwrap()
    }

    /// Resumes `service` on a leg it parked nothing under: the reply is
    /// `500 "<nf>: no parked flow"`.
    pub(crate) fn assert_no_parked_flow(service: &mut dyn EngineService, nf: &str) {
        use shield5g_sim::engine::{PriorityClass, Step};
        use shield5g_sim::time::SimTime;
        let leg = LegMeta {
            id: 77,
            dest: nf.into(),
            path: "/".into(),
            submitted: SimTime::ZERO,
            arrived: SimTime::ZERO,
            root: true,
            class: PriorityClass::Normal,
        };
        let mut env = shield5g_sim::Env::new(1);
        let resp = shield5g_sim::http::HttpResponse::ok(vec![1]);
        let Step::Reply(reply) = service.resume(&mut env, &leg, resp) else {
            panic!("{nf} resumed a flow it never parked");
        };
        let want = format!("{nf}: no parked flow");
        assert_eq!((reply.status, &reply.body[..]), (500, want.as_bytes()));
    }

    #[test]
    fn error_display_and_source() {
        let e = NfError::from(CryptoError::MacMismatch);
        assert!(e.to_string().contains("crypto"));
        assert!(Error::source(&e).is_some());
        assert!(NfError::SubscriberUnknown("imsi-1".into())
            .to_string()
            .contains("imsi-1"));
    }

    #[test]
    fn nf_type_display() {
        assert_eq!(NfType::AUSF.to_string(), "AUSF");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NfError>();
    }
}
