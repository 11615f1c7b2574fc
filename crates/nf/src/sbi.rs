//! Service-based interface plumbing: the SBI client and the inter-NF
//! message payloads (CAPIF-style REST bodies, each a [`crate::wire`]
//! field list).

use crate::messages::UeIdentity;
use crate::wire::wire;
use crate::NfError;
use shield5g_crypto::ident::Supi;
use shield5g_crypto::keys::{HeAv, SeAv};
use shield5g_crypto::secret::SecretBytes;
use shield5g_crypto::sqn::Auts;
use shield5g_sim::codec::Body;
use shield5g_sim::engine;
use shield5g_sim::http::{HttpRequest, HttpResponse, SharedPaths};
use shield5g_sim::latency::LinkProfile;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::cell::RefCell;

/// Per-record TLS processing on persistent SBI connections (encrypt +
/// MAC on one side, verify + decrypt on the other).
const TLS_RECORD_NANOS: u64 = 2_100;

/// The send/receive halves of an NF-to-NF HTTP call.
///
/// Under the discrete-event engine an SBI round trip is split at the
/// scheduler boundary: [`SbiClient::send`] charges the send-side cost
/// (TLS record protection plus the request's link transfer) and builds
/// the request carried by a `Step::CallOut`; when the response event
/// resumes the caller, [`SbiClient::receive`] charges the receive-side
/// cost and maps transport-level failures. The two halves together charge
/// exactly what the old nested synchronous `post` did, so closed-loop
/// latencies are unchanged — only the waiting is now mechanistic.
#[derive(Clone, Debug)]
pub struct SbiClient {
    profile: LinkProfile,
    /// The paths this client has sent, so a request shares its path.
    paths: RefCell<SharedPaths>,
}

impl Default for SbiClient {
    fn default() -> Self {
        Self::new()
    }
}

impl SbiClient {
    /// A client over the docker-bridge profile (co-located VNFs).
    #[must_use]
    pub fn new() -> Self {
        SbiClient {
            profile: LinkProfile::docker_bridge(),
            paths: RefCell::default(),
        }
    }

    /// Charges the send-side cost of a POST (TLS record + request bytes
    /// on the link) and returns the request to hand to the scheduler in a
    /// `Step::CallOut`.
    pub fn send(&self, env: &mut Env, path: &str, body: impl Into<Body>) -> HttpRequest {
        let req = HttpRequest::post(self.paths.borrow_mut().get(path), body);
        env.clock.advance(SimDuration::from_nanos(TLS_RECORD_NANOS));
        self.profile.transfer(env, req.wire_len());
        req
    }

    /// Charges the receive-side cost of the response to an earlier
    /// [`SbiClient::send`] and unwraps the body.
    ///
    /// # Errors
    ///
    /// * [`NfError::Sim`] with `UnknownEndpoint` when the engine found
    ///   nobody at `addr` (connection refused), or `ReentrantCall` when
    ///   the call chain looped back into `addr`.
    /// * [`NfError::Sim`] with `ServiceFailure` for any non-2xx status,
    ///   including admission-control sheds (503).
    pub fn receive(&self, env: &mut Env, addr: &str, resp: HttpResponse) -> Result<Body, NfError> {
        env.clock.advance(SimDuration::from_nanos(TLS_RECORD_NANOS));
        self.profile.transfer(env, resp.wire_len());
        match resp.header(engine::ERROR_HEADER) {
            Some("unknown-endpoint" | "unknown-root") => {
                return Err(NfError::Sim(shield5g_sim::SimError::UnknownEndpoint(
                    addr.to_owned(),
                )));
            }
            Some("loop") => {
                return Err(NfError::Sim(shield5g_sim::SimError::ReentrantCall(
                    addr.to_owned(),
                )));
            }
            _ => {}
        }
        if resp.is_success() {
            Ok(resp.body)
        } else {
            Err(NfError::Sim(shield5g_sim::SimError::ServiceFailure {
                endpoint: addr.to_owned(),
                status: resp.status,
            }))
        }
    }
}

/// `Nausf_UEAuthentication_Authenticate` request (AMF → AUSF).
#[derive(Clone, Debug, PartialEq)]
pub struct AuthenticateRequest {
    /// The UE identity (SUCI on initial registration).
    pub identity: UeIdentity,
    /// SUPI already resolved by the AMF (GUTI re-authentication); empty
    /// for initial SUCI registrations.
    pub known_supi: String,
    /// Serving network name asserted by the SEAF.
    pub snn_mcc: String,
    /// MNC part of the serving network.
    pub snn_mnc: String,
}

wire!(AuthenticateRequest {
    identity,
    known_supi,
    snn_mcc,
    snn_mnc
});

/// `Nausf_UEAuthentication_Authenticate` response (AUSF → AMF): the SE AV
/// plus a context reference for the confirmation step.
#[derive(Clone, Debug, PartialEq)]
pub struct AuthenticateResponse {
    /// Reference to the AUSF-side authentication context.
    pub auth_ctx_id: u64,
    /// The security-edge authentication vector.
    pub se_av: SeAv,
}

wire!(AuthenticateResponse { auth_ctx_id, se_av });

/// RES* confirmation (AMF → AUSF).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfirmRequest {
    /// The context from [`AuthenticateResponse`].
    pub auth_ctx_id: u64,
    /// The UE's RES*.
    pub res_star: [u8; 16],
}

wire!(ConfirmRequest {
    auth_ctx_id,
    res_star
});

/// Confirmation result (AUSF → AMF): on success, the SUPI and K_SEAF.
#[derive(Clone, PartialEq, Eq)]
pub struct ConfirmResponse {
    /// Whether RES* matched XRES*.
    pub success: bool,
    /// The de-concealed subscriber identity, released only on success
    /// (TS 33.501 §6.1.3.2 step 11).
    pub supi: Option<Supi>,
    /// The anchor key (all zeros when `success` is false; zeroizes on
    /// drop).
    pub kseaf: SecretBytes<32>,
}

impl std::fmt::Debug for ConfirmResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConfirmResponse")
            .field("success", &self.success)
            .field("supi", &self.supi)
            .field("kseaf", &"<redacted>")
            .finish()
    }
}

wire!(ConfirmResponse {
    success,
    supi,
    kseaf
});

/// `Nudm_UEAuthentication_Get` request (AUSF → UDM): what the AMF asked
/// the AUSF, forwarded as it came — the same fields in the same bytes.
pub type UdmAuthGetRequest = AuthenticateRequest;

/// `Nudm_UEAuthentication_Get` response (UDM → AUSF): SUPI + HE AV.
#[derive(Clone, PartialEq, Eq)]
pub struct UdmAuthGetResponse {
    /// De-concealed subscriber identity.
    pub supi: Supi,
    /// The HE AV, nested in the body as a length-prefixed field.
    pub he_av: HeAv,
}

impl std::fmt::Debug for UdmAuthGetResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdmAuthGetResponse")
            .field("supi", &self.supi)
            .field("he_av", &"<redacted>")
            .finish()
    }
}

wire!(UdmAuthGetResponse {
    supi,
    #[nested]
    he_av
});

/// Re-synchronisation request (AUSF → UDM, triggered by an AUTS).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResyncRequest {
    /// Subscriber being re-synchronised.
    pub supi: Supi,
    /// The RAND of the failed challenge.
    pub rand: [u8; 16],
    /// The UE's AUTS token.
    pub auts: Auts,
}

wire!(ResyncRequest { supi, rand, auts });

/// UDR authentication-data request (UDM → UDR).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdrAuthDataRequest {
    /// Subscriber identity.
    pub supi: Supi,
}

wire!(UdrAuthDataRequest { supi });

/// UDR authentication-data response: OPc, a fresh SQN, the AMF field.
#[derive(Clone, PartialEq, Eq)]
pub struct UdrAuthDataResponse {
    /// Operator variant constant (secret subscriber data; zeroizes on
    /// drop).
    pub opc: SecretBytes<16>,
    /// Freshly incremented sequence number.
    pub sqn: [u8; 6],
    /// Authentication management field.
    pub amf_field: [u8; 2],
}

impl std::fmt::Debug for UdrAuthDataResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdrAuthDataResponse")
            .field("material", &"<redacted>")
            .finish()
    }
}

wire!(UdrAuthDataResponse {
    opc,
    sqn,
    amf_field
});

/// UDR SQN re-synchronisation (UDM → UDR).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdrResyncRequest {
    /// Subscriber identity.
    pub supi: Supi,
    /// The UE-reported SQN_MS.
    pub sqn_ms: [u8; 6],
}

wire!(UdrResyncRequest { supi, sqn_ms });

/// PDU session creation (AMF → SMF).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CreateSessionRequest {
    /// Subscriber identity.
    pub supi: Supi,
    /// UE-chosen PDU session id.
    pub pdu_session_id: u8,
}

wire!(CreateSessionRequest {
    supi,
    pdu_session_id
});

/// PDU session creation result (SMF → AMF).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CreateSessionResponse {
    /// Assigned UE IPv4 address.
    pub ue_ip: [u8; 4],
    /// UPF tunnel endpoint for the session.
    pub upf_teid: u32,
}

wire!(CreateSessionResponse { ue_ip, upf_teid });

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_crypto::ident::{Guti, Plmn, Supi};
    use shield5g_sim::engine::Engine;
    use shield5g_sim::http::HttpResponse;
    use shield5g_sim::service::{service_handle, Service};

    #[test]
    fn authenticate_round_trips() {
        let suci = Supi::new(Plmn::test_network(), "0000000001")
            .unwrap()
            .conceal_null();
        let req = AuthenticateRequest {
            identity: UeIdentity::Suci(suci),
            known_supi: String::new(),
            snn_mcc: "001".into(),
            snn_mnc: "01".into(),
        };
        assert_eq!(AuthenticateRequest::decode(&req.encode()).unwrap(), req);
        let resp = AuthenticateResponse {
            auth_ctx_id: 99,
            se_av: SeAv {
                rand: [1; 16],
                autn: [2; 16],
                hxres_star: [3; 16],
            },
        };
        assert_eq!(AuthenticateResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn confirm_round_trips() {
        let req = ConfirmRequest {
            auth_ctx_id: 7,
            res_star: [9; 16],
        };
        assert_eq!(ConfirmRequest::decode(&req.encode()).unwrap(), req);
        let resp = ConfirmResponse {
            success: true,
            supi: Some(crate::tests::imsi("imsi-001010000000001")),
            kseaf: [4; 32].into(),
        };
        assert_eq!(ConfirmResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn udm_and_udr_round_trips() {
        let guti = Guti::new(1, 2, 3, 4);
        let req = UdmAuthGetRequest {
            identity: UeIdentity::Guti(guti),
            known_supi: "imsi-001010000000001".into(),
            snn_mcc: "001".into(),
            snn_mnc: "01".into(),
        };
        assert_eq!(UdmAuthGetRequest::decode(&req.encode()).unwrap(), req);
        let resp = UdmAuthGetResponse {
            supi: crate::tests::imsi("imsi-001010000000001"),
            he_av: HeAv {
                rand: [1; 16],
                autn: [2; 16],
                xres_star: [3; 16],
                kausf: [4; 32].into(),
            },
        };
        assert_eq!(UdmAuthGetResponse::decode(&resp.encode()).unwrap(), resp);
        let udr_req = UdrAuthDataRequest {
            supi: crate::tests::imsi("imsi-001010000000001"),
        };
        assert_eq!(
            UdrAuthDataRequest::decode(&udr_req.encode()).unwrap(),
            udr_req
        );
        let udr_resp = UdrAuthDataResponse {
            opc: [1; 16].into(),
            sqn: [2; 6],
            amf_field: [0x80, 0],
        };
        assert_eq!(
            UdrAuthDataResponse::decode(&udr_resp.encode()).unwrap(),
            udr_resp
        );
    }

    #[test]
    fn resync_and_session_round_trips() {
        let req = ResyncRequest {
            supi: crate::tests::imsi("imsi-001010000000001"),
            rand: [5; 16],
            auts: Auts {
                sqn_ms_xor_ak: [6; 6],
                mac_s: [7; 8],
            },
        };
        assert_eq!(ResyncRequest::decode(&req.encode()).unwrap(), req);
        let udr = UdrResyncRequest {
            supi: crate::tests::imsi("imsi-001010000000001"),
            sqn_ms: [8; 6],
        };
        assert_eq!(UdrResyncRequest::decode(&udr.encode()).unwrap(), udr);
        let cs = CreateSessionRequest {
            supi: crate::tests::imsi("imsi-001010000000001"),
            pdu_session_id: 5,
        };
        assert_eq!(CreateSessionRequest::decode(&cs.encode()).unwrap(), cs);
        let csr = CreateSessionResponse {
            ue_ip: [10, 0, 0, 2],
            upf_teid: 77,
        };
        assert_eq!(CreateSessionResponse::decode(&csr.encode()).unwrap(), csr);
    }

    struct Echo;
    impl Service for Echo {
        fn handle(&mut self, _env: &mut Env, req: HttpRequest) -> HttpResponse {
            HttpResponse::ok(req.body)
        }
    }

    struct Sad;
    impl Service for Sad {
        fn handle(&mut self, _env: &mut Env, _req: HttpRequest) -> HttpResponse {
            HttpResponse::error(500, "boom")
        }
    }

    fn round_trip(
        engine: &mut Engine,
        env: &mut Env,
        addr: &str,
        body: Vec<u8>,
    ) -> Result<Body, NfError> {
        let client = SbiClient::new();
        let req = client.send(env, "/x", body);
        let resp = engine.dispatch(env, addr, req).map_err(NfError::Sim)?;
        client.receive(env, addr, resp)
    }

    #[test]
    fn sbi_client_charges_clock_and_delivers() {
        let mut env = Env::new(1);
        let mut engine = Engine::new();
        engine.register("echo", 1, Engine::leaf(service_handle(Echo)));
        let t0 = env.clock.now();
        let body = round_trip(&mut engine, &mut env, "echo", b"payload".to_vec()).unwrap();
        assert_eq!(body, b"payload");
        let spent = env.clock.now() - t0;
        // Two bridge traversals + TLS records: tens of microseconds.
        assert!(spent > SimDuration::from_micros(20), "{spent}");
        assert!(spent < SimDuration::from_micros(100), "{spent}");
    }

    #[test]
    fn sbi_client_maps_failures() {
        let mut env = Env::new(2);
        let mut engine = Engine::new();
        engine.register("sad", 1, Engine::leaf(service_handle(Sad)));
        assert!(matches!(
            round_trip(&mut engine, &mut env, "sad", Vec::new()),
            Err(NfError::Sim(shield5g_sim::SimError::ServiceFailure {
                status: 500,
                ..
            }))
        ));
        assert!(matches!(
            round_trip(&mut engine, &mut env, "ghost", Vec::new()),
            Err(NfError::Sim(shield5g_sim::SimError::UnknownEndpoint(_)))
        ));
    }

    #[test]
    fn sbi_receive_maps_engine_synthesized_responses() {
        let mut env = Env::new(3);
        let client = SbiClient::new();
        let unknown = HttpResponse::error(502, "unknown endpoint x")
            .with_header(shield5g_sim::engine::ERROR_HEADER, "unknown-endpoint");
        assert!(matches!(
            client.receive(&mut env, "x", unknown),
            Err(NfError::Sim(shield5g_sim::SimError::UnknownEndpoint(_)))
        ));
        let looped = HttpResponse::error(508, "call loop through x")
            .with_header(shield5g_sim::engine::ERROR_HEADER, "loop");
        assert!(matches!(
            client.receive(&mut env, "x", looped),
            Err(NfError::Sim(shield5g_sim::SimError::ReentrantCall(_)))
        ));
    }
}
