//! The Unified Data Repository: "the credential storage unit for the
//! users" (paper §II-A).
//!
//! The UDR holds each subscriber's OPc, AMF field and the home-network
//! SQN generator. The long-term key `K` deliberately does *not* live here:
//! TS 33.501 requires it to remain in the UDM/ARPF secure environment,
//! which is the backend (and, in the shielded deployment, the enclave).

use crate::sbi::{UdrAuthDataRequest, UdrAuthDataResponse, UdrResyncRequest};
use crate::NfError;
use shield5g_crypto::secret::SecretBytes;
use shield5g_crypto::sqn::SqnGenerator;
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::service::Service;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::collections::BTreeMap;

/// One subscriber's stored authentication subscription data.
#[derive(Clone, Debug)]
struct SubscriberEntry {
    opc: SecretBytes<16>,
    amf_field: [u8; 2],
    sqn: SqnGenerator,
}

/// The UDR service.
#[derive(Debug, Default)]
pub struct UdrService {
    subscribers: BTreeMap<String, SubscriberEntry>,
}

impl UdrService {
    /// An empty repository.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Provisions a subscriber (OPc + AMF field; SQN starts at zero).
    pub fn provision(&mut self, supi: impl Into<String>, opc: [u8; 16], amf_field: [u8; 2]) {
        self.subscribers.insert(
            supi.into(),
            SubscriberEntry {
                opc: SecretBytes::new(opc),
                amf_field,
                sqn: SqnGenerator::new(),
            },
        );
    }

    /// Number of provisioned subscribers.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Current SEQ for a subscriber (test/diagnostic use).
    #[must_use]
    pub fn current_seq(&self, supi: &str) -> Option<u64> {
        self.subscribers.get(supi).map(|e| e.sqn.seq())
    }

    fn auth_data(&mut self, supi: &str) -> Result<UdrAuthDataResponse, NfError> {
        let entry = self
            .subscribers
            .get_mut(supi)
            .ok_or_else(|| NfError::SubscriberUnknown(supi.to_owned()))?;
        Ok(UdrAuthDataResponse {
            opc: entry.opc.clone(),
            sqn: entry.sqn.next_sqn(),
            amf_field: entry.amf_field,
        })
    }

    fn resync(&mut self, supi: &str, sqn_ms: &[u8; 6]) -> Result<(), NfError> {
        let entry = self
            .subscribers
            .get_mut(supi)
            .ok_or_else(|| NfError::SubscriberUnknown(supi.to_owned()))?;
        entry.sqn.resynchronise(sqn_ms);
        Ok(())
    }
}

impl Service for UdrService {
    fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
        // Database lookup + row serialisation.
        env.clock.advance(SimDuration::from_micros(35));
        match &*req.path {
            "/nudr-dr/auth-data" => {
                match UdrAuthDataRequest::decode(&req.body)
                    .and_then(|r| self.auth_data(r.supi.as_str()))
                {
                    Ok(resp) => HttpResponse::ok(resp.encode()),
                    Err(NfError::SubscriberUnknown(s)) => {
                        HttpResponse::error(404, format!("unknown subscriber {s}"))
                    }
                    Err(e) => HttpResponse::error(400, e.to_string()),
                }
            }
            "/nudr-dr/resync" => match UdrResyncRequest::decode(&req.body)
                .and_then(|r| self.resync(r.supi.as_str(), &r.sqn_ms))
            {
                Ok(()) => HttpResponse::ok(Vec::new()),
                Err(NfError::SubscriberUnknown(s)) => {
                    HttpResponse::error(404, format!("unknown subscriber {s}"))
                }
                Err(e) => HttpResponse::error(400, e.to_string()),
            },
            other => HttpResponse::error(404, format!("no handler for {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_crypto::sqn::sqn_from_bytes;

    fn udr() -> UdrService {
        let mut udr = UdrService::new();
        udr.provision("imsi-001010000000001", [0xcd; 16], [0x80, 0]);
        udr
    }

    #[test]
    fn auth_data_increments_sqn() {
        let mut env = Env::new(1);
        let mut udr = udr();
        let req = UdrAuthDataRequest {
            supi: crate::tests::imsi("imsi-001010000000001"),
        }
        .encode();
        let r1 = udr.handle(
            &mut env,
            HttpRequest::post("/nudr-dr/auth-data", req.clone()),
        );
        let r2 = udr.handle(&mut env, HttpRequest::post("/nudr-dr/auth-data", req));
        let d1 = UdrAuthDataResponse::decode(&r1.body).unwrap();
        let d2 = UdrAuthDataResponse::decode(&r2.body).unwrap();
        assert_eq!(d1.opc, [0xcd; 16]);
        assert!(sqn_from_bytes(&d2.sqn) > sqn_from_bytes(&d1.sqn));
        assert_eq!(udr.current_seq("imsi-001010000000001"), Some(2));
    }

    #[test]
    fn unknown_subscriber_is_404() {
        let mut env = Env::new(1);
        let mut udr = udr();
        let req = UdrAuthDataRequest {
            supi: crate::tests::imsi("imsi-001010000000099"),
        }
        .encode();
        assert_eq!(
            udr.handle(&mut env, HttpRequest::post("/nudr-dr/auth-data", req))
                .status,
            404
        );
    }

    #[test]
    fn resync_jumps_generator() {
        let mut env = Env::new(1);
        let mut udr = udr();
        let sqn_ms = shield5g_crypto::sqn::sqn_to_bytes(500 << 5);
        let req = UdrResyncRequest {
            supi: crate::tests::imsi("imsi-001010000000001"),
            sqn_ms,
        }
        .encode();
        assert!(udr
            .handle(&mut env, HttpRequest::post("/nudr-dr/resync", req))
            .is_success());
        assert!(udr.current_seq("imsi-001010000000001").unwrap() > 500);
    }

    #[test]
    fn malformed_body_is_400() {
        let mut env = Env::new(1);
        let mut udr = udr();
        assert_eq!(
            udr.handle(&mut env, HttpRequest::post("/nudr-dr/auth-data", vec![1]))
                .status,
            400
        );
    }

    #[test]
    fn provisioning_counts() {
        let mut udr = udr();
        assert_eq!(udr.subscriber_count(), 1);
        udr.provision("imsi-001010000000002", [1; 16], [0x80, 0]);
        assert_eq!(udr.subscriber_count(), 2);
    }
}
