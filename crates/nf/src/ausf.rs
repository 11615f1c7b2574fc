//! The Authentication Server Function.
//!
//! Receives authentication requests from the AMF/SEAF, obtains the HE AV
//! from the UDM, derives the SE AV parameters through its [`AkaBackend`]
//! for [`DeriveSe`] (the eAUSF P-AKA module in the paper's deployments),
//! stores XRES*/K_SEAF, and performs the final RES* confirmation
//! (TS 33.501 §6.1.3.2 step 10/11).

use crate::backend::{AkaBackend, AusfAkaRequest, BackendOp, CallToken, DeriveSe};
use crate::sbi::{
    AuthenticateRequest, AuthenticateResponse, ConfirmRequest, ConfirmResponse, ResyncRequest,
    SbiClient, UdmAuthGetResponse,
};
use crate::NfError;
use shield5g_crypto::ident::Supi;
use shield5g_crypto::keys::{HeAv, SeAv, ServingNetworkName};
use shield5g_crypto::secret::SecretBytes;
use shield5g_sim::engine::{EngineService, LegMeta, Parked, Step};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::table::IdTable;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::rc::Rc;

/// AUSF handler parsing/auth-service-authorisation overhead.
const AUSF_HANDLER_NANOS: u64 = 48_000;

/// Stored per pending authentication.
pub(crate) struct AuthContext {
    supi: Supi,
    /// Held until the UE's RES* arrives, wiped with the context.
    pub(crate) xres_star: SecretBytes<16>,
    pub(crate) kseaf: SecretBytes<32>,
}

/// The AUSF service.
pub struct AusfService {
    client: SbiClient,
    udm_addr: Rc<str>,
    backend: Box<dyn AkaBackend<DeriveSe>>,
    contexts: IdTable<AuthContext>,
    next_ctx: u64,
    flows: Parked<AusfFlow>,
}

impl std::fmt::Debug for AusfService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AusfService")
            .field("udm_addr", &self.udm_addr)
            .field("pending_contexts", &self.contexts.len())
            .finish()
    }
}

impl AusfService {
    /// Creates an AUSF talking to the UDM at `udm_addr`.
    #[must_use]
    pub fn new(
        client: SbiClient,
        udm_addr: impl Into<Rc<str>>,
        backend: Box<dyn AkaBackend<DeriveSe>>,
    ) -> Self {
        AusfService {
            client,
            udm_addr: udm_addr.into(),
            backend,
            contexts: IdTable::new(),
            next_ctx: 1,
            flows: Parked::new(),
        }
    }

    /// Flows parked across a call-out; 0 whenever no request is in flight.
    #[must_use]
    pub fn parked(&self) -> usize {
        self.flows.len()
    }

    /// Error mapping shared by the authenticate and resync handler paths.
    fn upstream_error(e: NfError) -> HttpResponse {
        match e {
            NfError::Sim(shield5g_sim::SimError::ServiceFailure { status, .. }) => {
                HttpResponse::error(status, "upstream failure")
            }
            e => HttpResponse::error(400, e),
        }
    }

    /// Issues the SE AV once XRES*/K_SEAF are known.
    fn finish_authenticate(
        &mut self,
        supi: Supi,
        he_av: &HeAv,
        hxres_star: [u8; 16],
        kseaf: SecretBytes<32>,
    ) -> Step {
        let ctx_id = self.next_ctx;
        self.next_ctx += 1;
        self.contexts.insert(
            ctx_id,
            AuthContext {
                supi,
                xres_star: he_av.xres_star.clone(),
                kseaf,
            },
        );
        shield5g_obs::hub::count(
            "ausf",
            "/nausf-auth/authenticate",
            shield5g_obs::labels::SE_AV_ISSUED,
            1,
        );
        Step::Reply(HttpResponse::ok(
            AuthenticateResponse {
                auth_ctx_id: ctx_id,
                se_av: SeAv {
                    rand: he_av.rand,
                    autn: he_av.autn,
                    hxres_star,
                },
            }
            .encode(),
        ))
    }

    fn confirm(&mut self, env: &mut Env, req: &ConfirmRequest) -> Result<ConfirmResponse, NfError> {
        env.clock
            .advance(SimDuration::from_nanos(AUSF_HANDLER_NANOS / 2));
        let ctx = self.contexts.remove(req.auth_ctx_id).ok_or_else(|| {
            NfError::Protocol(format!("unknown auth context {}", req.auth_ctx_id))
        })?;
        if ctx.xres_star == req.res_star {
            shield5g_obs::hub::count(
                "ausf",
                "/nausf-auth/confirm",
                shield5g_obs::labels::RES_STAR_CONFIRMED,
                1,
            );
            Ok(ConfirmResponse {
                success: true,
                supi: Some(ctx.supi),
                kseaf: ctx.kseaf,
            })
        } else {
            shield5g_obs::hub::count(
                "ausf",
                "/nausf-auth/confirm",
                shield5g_obs::labels::RES_STAR_REJECTED,
                1,
            );
            Ok(ConfirmResponse {
                success: false,
                supi: None,
                kseaf: SecretBytes::new([0; 32]),
            })
        }
    }
}

/// Continuation state across the AUSF's outbound round trips, parked
/// under the serving leg's id while its call is out.
#[expect(clippy::enum_variant_names, reason = "variants await distinct peers")]
enum AusfFlow {
    /// Waiting on the UDM's HE AV.
    AwaitUdm { snn: ServingNetworkName },
    /// Waiting on the remote AKA module's SE parameters.
    AwaitSe {
        supi: Supi,
        he_av: HeAv,
        token: CallToken,
    },
    /// Waiting on the UDM's resync acknowledgement.
    AwaitUdmResync,
}

impl EngineService for AusfService {
    fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
        match &*req.path {
            "/nausf-auth/authenticate" => {
                env.clock
                    .advance(SimDuration::from_nanos(AUSF_HANDLER_NANOS));
                let decoded = match AuthenticateRequest::decode(&req.body) {
                    Ok(r) => r,
                    Err(e) => return Step::Reply(Self::upstream_error(e)),
                };
                // The SEAF's PLMN becomes the SNN the keys bind: refuse
                // one no serving network can have.
                let snn = match decoded.serving_network() {
                    Ok(snn) => snn,
                    Err(e) => return Step::Reply(Self::upstream_error(e)),
                };
                // Forward the body to the UDM for the HE AV: it decoded,
                // so it is the bytes a re-encoding would write.
                let path = "/nudm-ueau/generate-auth-data";
                let req = self.client.send(env, path, req.body);
                let flow = AusfFlow::AwaitUdm { snn };
                self.flows.call_out(leg, self.udm_addr.clone(), req, flow)
            }
            "/nausf-auth/confirm" => {
                match ConfirmRequest::decode(&req.body).and_then(|r| self.confirm(env, &r)) {
                    Ok(resp) => Step::Reply(HttpResponse::ok(resp.encode())),
                    Err(e) => Step::Reply(HttpResponse::error(400, e)),
                }
            }
            "/nausf-auth/resync" => {
                env.clock
                    .advance(SimDuration::from_nanos(AUSF_HANDLER_NANOS / 2));
                match ResyncRequest::decode(&req.body) {
                    Ok(decoded) => {
                        let req = self.client.send(env, "/nudm-ueau/resync", decoded.encode());
                        let flow = AusfFlow::AwaitUdmResync;
                        self.flows.call_out(leg, self.udm_addr.clone(), req, flow)
                    }
                    Err(e) => Step::Reply(Self::upstream_error(e)),
                }
            }
            other => Step::Reply(HttpResponse::error(
                404,
                format_args!("no handler for {other}"),
            )),
        }
    }

    fn resume(&mut self, env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Step {
        let Some(flow) = self.flows.remove(leg.id) else {
            return Step::Reply(HttpResponse::error(500, "ausf: no parked flow"));
        };
        match flow {
            AusfFlow::AwaitUdm { snn } => {
                let body = match self.client.receive(env, &self.udm_addr, resp) {
                    Ok(b) => b,
                    Err(e) => return Step::Reply(Self::upstream_error(e)),
                };
                let UdmAuthGetResponse { supi, he_av } = match UdmAuthGetResponse::decode(&body) {
                    Ok(r) => r,
                    Err(e) => return Step::Reply(Self::upstream_error(e)),
                };
                // SE parameters via the (possibly enclave-hosted) backend.
                let aka_req = AusfAkaRequest {
                    rand: he_av.rand,
                    xres_star: he_av.xres_star.clone(),
                    kausf: he_av.kausf.clone(),
                    snn,
                };
                match self.backend.begin(env, &aka_req) {
                    BackendOp::Done(Ok(se)) => {
                        self.finish_authenticate(supi, &he_av, se.hxres_star, se.kseaf)
                    }
                    BackendOp::Done(Err(e)) => Step::Reply(Self::upstream_error(e)),
                    BackendOp::Call { dest, req, token } => {
                        let flow = AusfFlow::AwaitSe { supi, he_av, token };
                        self.flows.call_out(leg, dest, req, flow)
                    }
                }
            }
            AusfFlow::AwaitSe { supi, he_av, token } => {
                match self.backend.finish(env, token, resp) {
                    Ok(se) => self.finish_authenticate(supi, &he_av, se.hxres_star, se.kseaf),
                    Err(e) => Step::Reply(Self::upstream_error(e)),
                }
            }
            AusfFlow::AwaitUdmResync => match self.client.receive(env, &self.udm_addr, resp) {
                Ok(_) => Step::Reply(HttpResponse::ok(Vec::new())),
                Err(e) => Step::Reply(Self::upstream_error(e)),
            },
        }
    }

    fn delivered(&mut self, leg: &LegMeta) {
        self.flows.remove(leg.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::LocalAka;
    use crate::messages::UeIdentity;
    use crate::udm::UdmService;
    use crate::udr::UdrService;
    use crate::wire::Wire;
    use shield5g_crypto::ecies::HomeNetworkKeyPair;
    use shield5g_crypto::ident::Supi;
    use shield5g_crypto::keys::derive_hxres_star;
    use shield5g_crypto::milenage::Milenage;
    use shield5g_sim::codec::{Body, Writer};
    use shield5g_sim::engine::Engine;
    use shield5g_sim::service::service_handle;
    use std::cell::RefCell;
    use std::rc::Rc;

    const K: [u8; 16] = [0x46; 16];
    const OPC: [u8; 16] = [0xcd; 16];
    const SUPI: &str = "imsi-001010000000001";

    fn world() -> (Env, Engine, HomeNetworkKeyPair) {
        let mut env = Env::new(4);
        let mut engine = Engine::new();
        let mut udr = UdrService::new();
        udr.provision(SUPI, OPC, [0x80, 0]);
        engine.register(crate::addr::UDR, 4, Engine::leaf(service_handle(udr)));
        let hn = HomeNetworkKeyPair::from_private(1, env.rng.bytes());
        let mut udm_backend = LocalAka::default();
        udm_backend.provision(SUPI, K);
        let udm = UdmService::new(
            hn.clone(),
            SbiClient::new(),
            crate::addr::UDR,
            Box::new(udm_backend),
        );
        engine.register(crate::addr::UDM, 4, Rc::new(RefCell::new(udm)));
        let ausf = AusfService::new(
            SbiClient::new(),
            crate::addr::UDM,
            Box::new(LocalAka::default()),
        );
        engine.register(crate::addr::AUSF, 4, Rc::new(RefCell::new(ausf)));
        (env, engine, hn)
    }

    fn authenticate(
        env: &mut Env,
        engine: &mut Engine,
        hn: &HomeNetworkKeyPair,
    ) -> AuthenticateResponse {
        let supi = Supi::parse(SUPI).unwrap();
        let eph: [u8; 32] = env.rng.bytes();
        let suci = supi.conceal_profile_a(1, hn.public(), &eph);
        let req = AuthenticateRequest {
            identity: UeIdentity::Suci(suci),
            known_supi: String::new(),
            snn_mcc: "001",
            snn_mnc: "01",
        };
        let body = engine
            .dispatch_ok(
                env,
                crate::addr::AUSF,
                HttpRequest::post("/nausf-auth/authenticate", req.encode()),
            )
            .unwrap()
            .body;
        AuthenticateResponse::decode(&body).unwrap()
    }

    /// The UE side of the challenge, straight from the crypto layer.
    fn ue_answer(rand: &[u8; 16], autn: &[u8; 16]) -> [u8; 16] {
        let mil = Milenage::with_opc(&K, &OPC);
        let snn = ServingNetworkName::new("001", "01");
        shield5g_crypto::keys::ue_process_challenge(&mil, rand, autn, &snn)
            .unwrap()
            .res_star
    }

    #[test]
    fn full_authenticate_confirm_round() {
        let (mut env, mut engine, hn) = world();
        let auth = authenticate(&mut env, &mut engine, &hn);
        // SEAF check: HXRES* must match the hash of the honest response.
        let res_star = ue_answer(&auth.se_av.rand, &auth.se_av.autn);
        assert_eq!(
            derive_hxres_star(&auth.se_av.rand, &SecretBytes::new(res_star)),
            auth.se_av.hxres_star
        );
        // Confirm with AUSF.
        let confirm = ConfirmRequest {
            auth_ctx_id: auth.auth_ctx_id,
            res_star,
        };
        let body = engine
            .dispatch_ok(
                &mut env,
                crate::addr::AUSF,
                HttpRequest::post("/nausf-auth/confirm", confirm.encode()),
            )
            .unwrap()
            .body;
        let resp = ConfirmResponse::decode(&body).unwrap();
        assert!(resp.success);
        assert_eq!(resp.supi, Some(crate::tests::imsi(SUPI)));
        assert_ne!(resp.kseaf, [0; 32]);
    }

    #[test]
    fn wrong_res_star_rejected() {
        let (mut env, mut engine, hn) = world();
        let auth = authenticate(&mut env, &mut engine, &hn);
        let confirm = ConfirmRequest {
            auth_ctx_id: auth.auth_ctx_id,
            res_star: [0xEE; 16],
        };
        let body = engine
            .dispatch_ok(
                &mut env,
                crate::addr::AUSF,
                HttpRequest::post("/nausf-auth/confirm", confirm.encode()),
            )
            .unwrap()
            .body;
        let resp = ConfirmResponse::decode(&body).unwrap();
        assert!(!resp.success);
        assert_eq!(
            resp.kseaf, [0; 32],
            "K_SEAF must not be released on failure"
        );
    }

    #[test]
    fn confirm_context_is_single_use() {
        let (mut env, mut engine, hn) = world();
        let auth = authenticate(&mut env, &mut engine, &hn);
        let res_star = ue_answer(&auth.se_av.rand, &auth.se_av.autn);
        let confirm = ConfirmRequest {
            auth_ctx_id: auth.auth_ctx_id,
            res_star,
        };
        engine
            .dispatch_ok(
                &mut env,
                crate::addr::AUSF,
                HttpRequest::post("/nausf-auth/confirm", confirm.encode()),
            )
            .unwrap();
        // Second use of the same context fails.
        let resp = engine
            .dispatch(
                &mut env,
                crate::addr::AUSF,
                HttpRequest::post("/nausf-auth/confirm", confirm.encode()),
            )
            .unwrap();
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn distinct_authentications_get_distinct_challenges() {
        let (mut env, mut engine, hn) = world();
        let a1 = authenticate(&mut env, &mut engine, &hn);
        let a2 = authenticate(&mut env, &mut engine, &hn);
        assert_ne!(a1.se_av.rand, a2.se_av.rand);
        assert_ne!(a1.auth_ctx_id, a2.auth_ctx_id);
    }

    #[test]
    fn an_implausible_serving_plmn_is_refused_400() {
        let (mut env, mut engine, _) = world();
        let supi = Supi::parse(SUPI).unwrap();
        let req = AuthenticateRequest {
            identity: UeIdentity::Suci(supi.conceal_null()),
            known_supi: String::new(),
            snn_mcc: "!!",
            snn_mnc: "01",
        };
        let resp = engine
            .dispatch(
                &mut env,
                crate::addr::AUSF,
                HttpRequest::post("/nausf-auth/authenticate", req.encode()),
            )
            .unwrap();
        assert_eq!(resp.status, 400);
    }

    /// The wire form of an authenticate request, field by field, so a
    /// scheme output no `Suci` can hold can still be sent.
    fn request_bytes(
        identity: impl FnOnce(&mut Writer),
        known_supi: &str,
        (mcc, mnc): (&str, &str),
    ) -> Body {
        Writer::build(|w| {
            identity(w);
            w.put_str(known_supi).put_str(mcc).put_str(mnc);
        })
    }

    #[test]
    fn malformed_identity_fields_are_refused_400_at_both_hops() {
        let (mut env, mut engine, hn) = world();
        let suci = Supi::parse(SUPI)
            .unwrap()
            .conceal_profile_a(1, hn.public(), &[7; 32]);
        let suci_with = |output: &[u8]| {
            let output = output.to_vec();
            move |w: &mut Writer| {
                w.put_u8(0).put_str("001").put_str("01").put_u16(0);
                w.put_u8(1).put_u8(1).put_bytes(&output);
            }
        };
        let guti = |w: &mut Writer| {
            UeIdentity::Guti(shield5g_crypto::ident::Guti::new(1, 1, 1, 1)).encode_into(w);
        };
        // The honest request, byte for byte as `Wire` writes it, passes.
        let honest = request_bytes(suci_with(&suci.scheme_output), "", ("001", "01"));
        assert_eq!(
            honest,
            AuthenticateRequest {
                identity: UeIdentity::Suci(suci),
                known_supi: String::new(),
                snn_mcc: "001",
                snn_mnc: "01",
            }
            .encode()
            .to_vec()
        );
        // One byte longer than Profile A's around a 10-digit MSIN: refused
        // at decode, before any X25519 agreement.
        let longer = [&suci.scheme_output[..], &[0]].concat();
        let mut cases = vec![
            (
                "a 46-byte scheme output".to_owned(),
                request_bytes(suci_with(&longer), "", ("001", "01")),
            ),
            (
                "a malformed known SUPI".to_owned(),
                request_bytes(guti, "imsi-12", ("001", "01")),
            ),
        ];
        // A serving PLMN is implausible, not mis-framed: a code that is
        // not 2-3 ASCII digits fails at decode, a 2-digit MCC at the PLMN.
        for plmn in [
            ("1", "01"),
            ("0011", "01"),
            ("0a1", "01"),
            ("01", "01"),
            ("001", "1"),
            ("001", "0101"),
            ("001", "a1"),
        ] {
            let body = request_bytes(suci_with(&suci.scheme_output), "", plmn);
            let refused = AuthenticateRequest::decode(&body).and_then(|r| r.serving_network());
            assert!(
                matches!(refused, Err(NfError::Protocol(_))),
                "{plmn:?}: {refused:?}"
            );
            cases.push((format!("the serving PLMN {plmn:?}"), body));
        }
        for (what, body) in cases {
            for (addr, path) in [
                (crate::addr::AUSF, "/nausf-auth/authenticate"),
                (crate::addr::UDM, "/nudm-ueau/generate-auth-data"),
            ] {
                let req = HttpRequest::post(path, body.to_vec());
                let resp = engine.dispatch(&mut env, addr, req).unwrap();
                assert_eq!(resp.status, 400, "{what} at {addr}");
            }
        }
        let req = HttpRequest::post("/nausf-auth/authenticate", honest);
        assert_eq!(
            engine
                .dispatch(&mut env, crate::addr::AUSF, req)
                .unwrap()
                .status,
            200
        );
    }

    #[test]
    fn a_response_with_no_parked_flow_is_500() {
        let backend = Box::new(LocalAka::default());
        let mut ausf = AusfService::new(SbiClient::new(), crate::addr::UDM, backend);
        crate::tests::assert_no_parked_flow(&mut ausf, "ausf");
    }

    #[test]
    fn unknown_subscriber_propagates_404() {
        let (mut env, mut engine, hn) = world();
        let supi = Supi::new(shield5g_crypto::ident::Plmn::test_network(), "0000000042").unwrap();
        let suci = supi.conceal_profile_a(1, hn.public(), &[7; 32]);
        let req = AuthenticateRequest {
            identity: UeIdentity::Suci(suci),
            known_supi: String::new(),
            snn_mcc: "001",
            snn_mnc: "01",
        };
        let resp = engine
            .dispatch(
                &mut env,
                crate::addr::AUSF,
                HttpRequest::post("/nausf-auth/authenticate", req.encode()),
            )
            .unwrap();
        assert_eq!(resp.status, 404);
    }
}
