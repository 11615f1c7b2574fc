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
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

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

use shield5g_crypto::ident::Supi;
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
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
    /// The subscriber is not provisioned (the SUPI inline, so the refusal
    /// allocates nothing).
    SubscriberUnknown(Supi),
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

    /// This crate's registry of key-bearing types
    /// (`shield5g_crypto::secret`): each renders the same `{:?}` for a
    /// canary and its complement, and each names the field it wipes
    /// through. `AuthContext` has no `Debug`.
    #[test]
    fn every_registered_type_redacts_and_wipes() {
        use crate::ausf::AuthContext;
        use crate::backend::{
            AmfAkaRequest, AusfAkaRequest, AusfAkaResponse, AvBatch, LocalAka, UdmAkaBatchRequest,
            UdmAkaRequest, UdmAkaResyncRequest,
        };
        use crate::nas_security::NasSecurityContext;
        use crate::sbi::{ConfirmResponse, UdrAuthDataResponse};
        use crate::udr::SubscriberEntry;
        use shield5g_crypto::keys::{HeAv, ServingNetworkName};
        use shield5g_crypto::secret::{redacts, wipes_through};
        use shield5g_crypto::sqn::{Auts, SqnGenerator};
        use shield5g_crypto::SecretBytes;

        let supi = imsi("imsi-001010000000001");
        let snn = ServingNetworkName::new("001", "01");
        assert!(redacts(|c| UdmAkaRequest {
            supi,
            opc: SecretBytes::new([c; 16]),
            rand: [1; 16],
            sqn: [0, 0, 0, 0, 0, 1],
            amf_field: [0x80, 0],
            snn,
        }));
        assert!(redacts(|c| UdmAkaBatchRequest {
            supi,
            opc: SecretBytes::new([c; 16]),
            rand_seed: [1; 16],
            sqn_start: [0, 0, 0, 0, 0, 1],
            amf_field: [0x80, 0],
            snn,
            count: 8,
        }));
        assert!(redacts(|c| UdmAkaResyncRequest {
            supi,
            opc: SecretBytes::new([c; 16]),
            rand: [1; 16],
            auts: Auts {
                sqn_ms_xor_ak: [2; 6],
                mac_s: [3; 8],
            },
        }));
        assert!(redacts(|c| AusfAkaRequest {
            rand: [1; 16],
            xres_star: SecretBytes::new([c; 16]),
            kausf: SecretBytes::new([c; 32]),
            snn,
        }));
        assert!(redacts(|c| AusfAkaResponse {
            hxres_star: [c; 16],
            kseaf: SecretBytes::new([c; 32]),
        }));
        assert!(redacts(|c| AmfAkaRequest {
            kseaf: SecretBytes::new([c; 32]),
            supi,
            abba: [0, 0],
        }));
        assert!(redacts(|c| {
            let mut aka = LocalAka::default();
            aka.provision(supi.as_str(), [c; 16]);
            aka
        }));
        assert!(redacts(|c| ConfirmResponse {
            success: true,
            supi: Some(supi),
            kseaf: SecretBytes::new([c; 32]),
        }));
        assert!(redacts(|c| UdrAuthDataResponse {
            opc: SecretBytes::new([c; 16]),
            sqn: [0, 0, 0, 0, 0, 1],
            amf_field: [0x80, 0],
        }));
        assert!(redacts(|c| {
            let av = HeAv {
                rand: [1; 16],
                autn: [2; 16],
                xres_star: SecretBytes::new([c; 16]),
                kausf: SecretBytes::new([c; 32]),
            };
            AvBatch::from_avs([av.clone(), av].iter())
        }));
        assert!(redacts(|c| NasSecurityContext::from_kamf(&[c; 32], true)));
        assert!(redacts(|c| SubscriberEntry {
            opc: SecretBytes::new([c; 16]),
            amf_field: [0x80, 0],
            sqn: SqnGenerator::new(),
        }));

        wipes_through(|req: &UdmAkaRequest| &req.opc);
        wipes_through(|req: &UdmAkaBatchRequest| &req.opc);
        wipes_through(|req: &UdmAkaResyncRequest| &req.opc);
        wipes_through(|req: &AusfAkaRequest| &req.kausf);
        wipes_through(|req: &AusfAkaRequest| &req.xres_star);
        wipes_through(|resp: &AusfAkaResponse| &resp.kseaf);
        wipes_through(|req: &AmfAkaRequest| &req.kseaf);
        // The map's values: the accessor is typed, never called.
        wipes_through(|aka: &LocalAka| &aka.keys[""]);
        wipes_through(|context: &AuthContext| &context.kseaf);
        wipes_through(|context: &AuthContext| &context.xres_star);
        wipes_through(|resp: &ConfirmResponse| &resp.kseaf);
        wipes_through(|resp: &UdrAuthDataResponse| &resp.opc);
        wipes_through(|nas: &NasSecurityContext| &nas.knas_enc);
        wipes_through(|entry: &SubscriberEntry| &entry.opc);
        // `AvBatch` holds its keys in a wire `Body`, which the codec zeroes
        // when it drops; only `crypto` types are `ZeroizeOnDrop`.
    }

    #[test]
    fn error_display_and_source() {
        let e = NfError::from(CryptoError::MacMismatch);
        assert!(e.to_string().contains("crypto"));
        assert!(Error::source(&e).is_some());
        assert!(NfError::SubscriberUnknown(imsi("imsi-001010000000001"))
            .to_string()
            .contains("imsi-001010000000001"));
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
