//! The Unified Data Management function.
//!
//! Hosts the SIDF (SUCI de-concealment) and orchestrates HE-AV generation:
//! de-conceal → fetch subscription data from the UDR → draw RAND →
//! delegate the sensitive computation to its [`UdmAkaBackend`] (in-process
//! for the monolithic baseline, the eUDM P-AKA module in the paper's
//! deployments) → return SUPI + HE AV to the AUSF.

use crate::backend::{
    self, AkaBackend, BackendOp, CallToken, GenerateAv, Resync, UdmAkaBackend, UdmAkaRequest,
    UdmAkaResyncRequest,
};
use crate::messages::UeIdentity;
use crate::sbi::{
    ResyncRequest, SbiClient, UdmAuthGetRequest, UdmAuthGetResponse, UdrAuthDataRequest,
    UdrAuthDataResponse, UdrResyncRequest,
};
use crate::wire::implausible;
use crate::NfError;
use shield5g_crypto::ecies::HomeNetworkKeyPair;
use shield5g_crypto::ident::Supi;
use shield5g_crypto::keys::{HeAv, ServingNetworkName};
use shield5g_crypto::CryptoError;
use shield5g_sim::engine::{EngineService, LegMeta, Parked, Step};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::rc::Rc;

/// ECIES Profile A de-concealment compute time (X25519 + KDF + AES-CTR on
/// the OAI C++ path).
const SIDF_DECONCEAL_NANOS: u64 = 210_000;
/// Request parsing/serialisation overhead of the UDM handler.
const UDM_HANDLER_NANOS: u64 = 55_000;

/// The UDM service.
pub struct UdmService {
    sidf_key: HomeNetworkKeyPair,
    client: SbiClient,
    udr_addr: Rc<str>,
    backend: Box<dyn UdmAkaBackend>,
    flows: Parked<UdmFlow>,
}

impl std::fmt::Debug for UdmService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UdmService")
            .field("udr_addr", &self.udr_addr)
            .finish()
    }
}

impl UdmService {
    /// Creates a UDM with its home-network ECIES key and AKA backend.
    #[must_use]
    pub fn new(
        sidf_key: HomeNetworkKeyPair,
        client: SbiClient,
        udr_addr: impl Into<Rc<str>>,
        backend: Box<dyn UdmAkaBackend>,
    ) -> Self {
        UdmService {
            sidf_key,
            client,
            udr_addr: udr_addr.into(),
            backend,
            flows: Parked::new(),
        }
    }

    /// Flows parked across a call-out; 0 whenever no request is in flight.
    #[must_use]
    pub fn parked(&self) -> usize {
        self.flows.len()
    }

    fn resolve_supi(&mut self, env: &mut Env, req: &UdmAuthGetRequest) -> Result<Supi, NfError> {
        match &req.identity {
            UeIdentity::Suci(suci) => {
                env.clock
                    .advance(SimDuration::from_nanos(SIDF_DECONCEAL_NANOS));
                // A SUCI minted without the home-network key is refused the
                // same way whichever check caught it.
                let supi = suci.deconceal(&self.sidf_key).map_err(|e| match e {
                    CryptoError::LowOrderPoint => CryptoError::MacMismatch,
                    e => e,
                })?;
                Ok(supi)
            }
            // The AMF resolved the GUTI; a missing SUPI is an empty string.
            UeIdentity::Guti(_) => Supi::parse(&req.known_supi).map_err(implausible),
        }
    }

    /// Error mapping of the auth-data handler path.
    fn auth_error(e: NfError) -> HttpResponse {
        match e {
            NfError::Sim(shield5g_sim::SimError::ServiceFailure { status: 404, .. }) => {
                HttpResponse::error(404, "subscriber not found")
            }
            e => backend::error_reply(&e),
        }
    }

    /// Issues the UDR subscription-data fetch shared by both flows.
    fn fetch_auth_data(&mut self, env: &mut Env, leg: &LegMeta, supi: Supi, next: UdmFlow) -> Step {
        let req = self.client.send(
            env,
            "/nudr-dr/auth-data",
            UdrAuthDataRequest { supi }.encode(),
        );
        self.flows.call_out(leg, self.udr_addr.clone(), req, next)
    }

    fn finish_av(supi: Supi, he_av: HeAv) -> Step {
        shield5g_obs::hub::count(
            "udm",
            "/nudm-ueau",
            shield5g_obs::labels::HE_AV_GENERATED,
            1,
        );
        Step::Reply(HttpResponse::ok(
            UdmAuthGetResponse { supi, he_av }.encode(),
        ))
    }

    /// After the subscription data arrives: draw RAND and delegate the
    /// sensitive computation to the backend.
    fn start_av(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        snn: ServingNetworkName,
        supi: Supi,
        body: &[u8],
    ) -> Step {
        let auth_data = match UdrAuthDataResponse::decode(body) {
            Ok(d) => d,
            Err(e) => return Step::Reply(Self::auth_error(e)),
        };
        // RAND is drawn in the UDM (paper Fig. 5: RAND is an *input* to
        // the eUDM P-AKA module).
        let rand: [u8; 16] = env.rng.bytes();
        let aka_req = UdmAkaRequest {
            supi,
            opc: auth_data.opc,
            rand,
            sqn: auth_data.sqn,
            amf_field: auth_data.amf_field,
            snn,
        };
        match AkaBackend::<GenerateAv>::begin(&mut *self.backend, env, &aka_req) {
            BackendOp::Done(Ok(av)) => Self::finish_av(supi, av),
            BackendOp::Done(Err(e)) => Step::Reply(Self::auth_error(e)),
            BackendOp::Call { dest, req, token } => {
                let flow = UdmFlow::AwaitAv { supi, token };
                self.flows.call_out(leg, dest, req, flow)
            }
        }
    }

    /// After MAC-S checked out: push SQN_MS back to the UDR.
    fn push_resync(&mut self, env: &mut Env, leg: &LegMeta, supi: Supi, sqn_ms: [u8; 6]) -> Step {
        let req = self.client.send(
            env,
            "/nudr-dr/resync",
            UdrResyncRequest { supi, sqn_ms }.encode(),
        );
        let flow = UdmFlow::AwaitUdrResync;
        self.flows.call_out(leg, self.udr_addr.clone(), req, flow)
    }
}

/// Continuation state across the UDM's outbound round trips, parked
/// under the serving leg's id while its call is out.
enum UdmFlow {
    /// Auth-data flow: waiting on the UDR subscription fetch.
    AwaitAuthData { snn: ServingNetworkName, supi: Supi },
    /// Auth-data flow: waiting on the remote AKA module.
    AwaitAv { supi: Supi, token: CallToken },
    /// Resync flow: waiting on the UDR subscription fetch (OPc for MAC-S).
    ResyncAuthData { req: ResyncRequest },
    /// Resync flow: waiting on the remote AKA module's AUTS verdict.
    AwaitModuleResync { supi: Supi, token: CallToken },
    /// Resync flow: waiting on the UDR SQN update.
    AwaitUdrResync,
}

impl EngineService for UdmService {
    fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
        match &*req.path {
            "/nudm-ueau/generate-auth-data" => {
                env.clock
                    .advance(SimDuration::from_nanos(UDM_HANDLER_NANOS));
                let decoded = match UdmAuthGetRequest::decode(&req.body) {
                    Ok(r) => r,
                    Err(e) => return Step::Reply(Self::auth_error(e)),
                };
                // The serving PLMN becomes the SNN the keys bind: refuse
                // one no serving network can have, as the AUSF does.
                let snn = match decoded.serving_network() {
                    Ok(snn) => snn,
                    Err(e) => return Step::Reply(Self::auth_error(e)),
                };
                let supi = match self.resolve_supi(env, &decoded) {
                    Ok(s) => s,
                    Err(e) => return Step::Reply(Self::auth_error(e)),
                };
                // Fetch OPc / fresh SQN / AMF field from the UDR.
                self.fetch_auth_data(env, leg, supi, UdmFlow::AwaitAuthData { snn, supi })
            }
            "/nudm-ueau/resync" => {
                env.clock
                    .advance(SimDuration::from_nanos(UDM_HANDLER_NANOS));
                let decoded = match ResyncRequest::decode(&req.body) {
                    Ok(r) => r,
                    Err(e) => return Step::Reply(backend::error_reply(&e)),
                };
                // Need the OPc to check MAC-S; fetch subscription data
                // (the extra SQN this burns is inconsequential).
                let supi = decoded.supi;
                self.fetch_auth_data(env, leg, supi, UdmFlow::ResyncAuthData { req: decoded })
            }
            other => Step::Reply(HttpResponse::error(
                404,
                format_args!("no handler for {other}"),
            )),
        }
    }

    fn resume(&mut self, env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Step {
        let Some(flow) = self.flows.remove(leg.id) else {
            return Step::Reply(HttpResponse::error(500, "udm: no parked flow"));
        };
        match flow {
            UdmFlow::AwaitAuthData { snn, supi } => {
                let body = match self.client.receive(env, &self.udr_addr, resp) {
                    Ok(b) => b,
                    Err(e) => return Step::Reply(Self::auth_error(e)),
                };
                self.start_av(env, leg, snn, supi, &body)
            }
            UdmFlow::AwaitAv { supi, token } => {
                match AkaBackend::<GenerateAv>::finish(&mut *self.backend, env, token, resp) {
                    Ok(av) => Self::finish_av(supi, av),
                    Err(e) => Step::Reply(Self::auth_error(e)),
                }
            }
            UdmFlow::ResyncAuthData { req } => {
                let body = match self.client.receive(env, &self.udr_addr, resp) {
                    Ok(b) => b,
                    Err(e) => return Step::Reply(backend::error_reply(&e)),
                };
                let auth_data = match UdrAuthDataResponse::decode(&body) {
                    Ok(d) => d,
                    Err(e) => return Step::Reply(backend::error_reply(&e)),
                };
                let supi = req.supi;
                let aka_req = UdmAkaResyncRequest {
                    supi,
                    opc: auth_data.opc,
                    rand: req.rand,
                    auts: req.auts,
                };
                match AkaBackend::<Resync>::begin(&mut *self.backend, env, &aka_req) {
                    BackendOp::Done(Ok(sqn_ms)) => self.push_resync(env, leg, supi, sqn_ms),
                    BackendOp::Done(Err(e)) => Step::Reply(backend::error_reply(&e)),
                    BackendOp::Call { dest, req, token } => {
                        let flow = UdmFlow::AwaitModuleResync { supi, token };
                        self.flows.call_out(leg, dest, req, flow)
                    }
                }
            }
            UdmFlow::AwaitModuleResync { supi, token } => {
                match AkaBackend::<Resync>::finish(&mut *self.backend, env, token, resp) {
                    Ok(sqn_ms) => self.push_resync(env, leg, supi, sqn_ms),
                    Err(e) => Step::Reply(backend::error_reply(&e)),
                }
            }
            UdmFlow::AwaitUdrResync => match self.client.receive(env, &self.udr_addr, resp) {
                Ok(_) => Step::Reply(HttpResponse::ok(Vec::new())),
                Err(e) => Step::Reply(backend::error_reply(&e)),
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
    use crate::udr::UdrService;
    use shield5g_crypto::ident::{Plmn, Suci, Supi};
    use shield5g_crypto::milenage::Milenage;
    use shield5g_sim::codec::Body;
    use shield5g_sim::engine::Engine;
    use shield5g_sim::service::service_handle;
    use std::cell::RefCell;
    use std::rc::Rc;

    const K: [u8; 16] = [0x46; 16];
    const OPC: [u8; 16] = [0xcd; 16];
    const SUPI: &str = "imsi-001010000000001";
    /// Known to the UDR; the module holds no key for it.
    const UDR_ONLY: &str = "imsi-001010000000002";

    fn world() -> (Env, Engine, HomeNetworkKeyPair) {
        let mut env = Env::new(3);
        let mut engine = Engine::new();
        let mut udr = UdrService::new();
        udr.provision(SUPI, OPC, [0x80, 0]);
        udr.provision(UDR_ONLY, OPC, [0x80, 0]);
        engine.register(crate::addr::UDR, 4, Engine::leaf(service_handle(udr)));
        let hn = HomeNetworkKeyPair::from_private(1, env.rng.bytes());
        let mut backend = LocalAka::default();
        backend.provision(SUPI, K);
        let udm = UdmService::new(
            hn.clone(),
            SbiClient::new(),
            crate::addr::UDR,
            Box::new(backend),
        );
        engine.register(crate::addr::UDM, 4, Rc::new(RefCell::new(udm)));
        (env, engine, hn)
    }

    #[test]
    fn a_response_with_no_parked_flow_is_500() {
        let hn = HomeNetworkKeyPair::from_private(1, [7; 32]);
        let backend = Box::new(LocalAka::default());
        let mut udm = UdmService::new(hn, SbiClient::new(), crate::addr::UDR, backend);
        crate::tests::assert_no_parked_flow(&mut udm, "udm");
    }

    fn auth_get(identity: UeIdentity) -> Body {
        UdmAuthGetRequest {
            identity,
            known_supi: String::new(),
            snn_mcc: "001",
            snn_mnc: "01",
        }
        .encode()
    }

    #[test]
    fn generates_av_from_profile_a_suci() {
        let (mut env, mut engine, hn) = world();
        let supi = Supi::parse(SUPI).unwrap();
        let eph: [u8; 32] = env.rng.bytes();
        let suci = supi.conceal_profile_a(1, hn.public(), &eph);
        let body = engine
            .dispatch_ok(
                &mut env,
                crate::addr::UDM,
                HttpRequest::post(
                    "/nudm-ueau/generate-auth-data",
                    auth_get(UeIdentity::Suci(suci)),
                ),
            )
            .unwrap()
            .body;
        let resp = UdmAuthGetResponse::decode(&body).unwrap();
        assert_eq!(resp.supi.as_str(), SUPI);
        // The AV verifies on a USIM with the same credentials.
        let av = resp.he_av;
        let mil = Milenage::with_opc(&K, &OPC);
        let snn = ServingNetworkName::new("001", "01");
        let ue =
            shield5g_crypto::keys::ue_process_challenge(&mil, &av.rand, &av.autn, &snn).unwrap();
        assert_eq!(ue.res_star, av.xres_star);
    }

    #[test]
    fn unknown_subscriber_suci_is_404() {
        let (mut env, mut engine, hn) = world();
        let supi = Supi::new(Plmn::test_network(), "0000000099").unwrap();
        let suci = supi.conceal_profile_a(1, hn.public(), &[9; 32]);
        let resp = engine
            .dispatch(
                &mut env,
                crate::addr::UDM,
                HttpRequest::post(
                    "/nudm-ueau/generate-auth-data",
                    auth_get(UeIdentity::Suci(suci)),
                ),
            )
            .unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn tampered_suci_rejected_403() {
        let (mut env, mut engine, hn) = world();
        let supi = Supi::parse(SUPI).unwrap();
        let mut suci = supi.conceal_profile_a(1, hn.public(), &[9; 32]);
        let n = suci.scheme_output.len();
        suci.scheme_output[n - 1] ^= 1; // corrupt the MAC
        let resp = engine
            .dispatch(
                &mut env,
                crate::addr::UDM,
                HttpRequest::post(
                    "/nudm-ueau/generate-auth-data",
                    auth_get(UeIdentity::Suci(suci)),
                ),
            )
            .unwrap();
        assert_eq!(resp.status, 403);
    }

    #[test]
    fn low_order_suci_is_answered_like_a_bad_mac() {
        use shield5g_crypto::ecies::EciesCiphertext;
        use shield5g_crypto::inline::InlineBytes;
        use shield5g_crypto::{aes::Aes128, hmac::hmac_sha256, kdf::kdf_x963};
        let (mut env, mut engine, hn) = world();
        let supi = Supi::parse(SUPI).unwrap();
        let honest = supi.conceal_profile_a(1, hn.public(), &[9; 32]);
        let mut ask = |suci: Suci| {
            let req = HttpRequest::post(
                "/nudm-ueau/generate-auth-data",
                auth_get(UeIdentity::Suci(suci)),
            );
            engine.dispatch(&mut env, crate::addr::UDM, req).unwrap()
        };
        let mut tampered = honest;
        *tampered.scheme_output.last_mut().unwrap() ^= 1;
        let bad_mac = ask(tampered);
        assert_eq!(bad_mac.status, 403);

        // u = 0, 1 and p - 1: the shared secret is all zeros, so the forger
        // derives the keys and a verifying tag without the home key.
        let msin_bcd = hn
            .deconceal(&EciesCiphertext::from_bytes(&honest.scheme_output).unwrap())
            .unwrap();
        let mut one = [0; 32];
        one[0] = 1;
        let mut p_minus_1 = [0xff; 32];
        (p_minus_1[0], p_minus_1[31]) = (0xec, 0x7f);
        for low_order in [[0; 32], one, p_minus_1] {
            let kd = kdf_x963::<64>(&[0; 32], &low_order);
            let mut body = msin_bcd;
            Aes128::new(kd[..16].try_into().unwrap())
                .ctr_apply(kd[16..32].try_into().unwrap(), &mut body);
            let tag = hmac_sha256(&kd[32..], &body);
            let mut forged = honest;
            let bytes = [&low_order[..], &body, &tag[..8]].concat();
            forged.scheme_output = InlineBytes::new(&bytes).unwrap();
            let resp = ask(forged);
            assert_eq!((resp.status, &resp.body), (bad_mac.status, &bad_mac.body));
            assert_eq!(ask(honest).status, 200);
        }
    }

    #[test]
    fn an_implausible_serving_plmn_is_refused_400() {
        // The AUSF refuses these before they reach the UDM; a UDM asked
        // directly must not bind keys to them either (nor pad "1" into
        // "mnc001").
        let (mut env, mut engine, hn) = world();
        let suci = Supi::parse(SUPI)
            .unwrap()
            .conceal_profile_a(1, hn.public(), &[9; 32]);
        for (mcc, mnc) in [("!!", "01"), ("0001", "01"), ("001", "1")] {
            let req = UdmAuthGetRequest {
                identity: UeIdentity::Suci(suci),
                known_supi: String::new(),
                snn_mcc: mcc,
                snn_mnc: mnc,
            };
            let resp = engine
                .dispatch(
                    &mut env,
                    crate::addr::UDM,
                    HttpRequest::post("/nudm-ueau/generate-auth-data", req.encode()),
                )
                .unwrap();
            assert_eq!(resp.status, 400, "{mcc}/{mnc}");
        }
    }

    #[test]
    fn guti_identity_requires_known_supi() {
        let (mut env, mut engine, _hn) = world();
        let req = UdmAuthGetRequest {
            identity: UeIdentity::Guti(shield5g_crypto::ident::Guti::new(1, 1, 1, 1)),
            known_supi: String::new(),
            snn_mcc: "001",
            snn_mnc: "01",
        };
        let resp = engine
            .dispatch(
                &mut env,
                crate::addr::UDM,
                HttpRequest::post("/nudm-ueau/generate-auth-data", req.encode()),
            )
            .unwrap();
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn guti_identity_with_known_supi_works() {
        let (mut env, mut engine, _hn) = world();
        let req = UdmAuthGetRequest {
            identity: UeIdentity::Guti(shield5g_crypto::ident::Guti::new(1, 1, 1, 1)),
            known_supi: SUPI.into(),
            snn_mcc: "001",
            snn_mnc: "01",
        };
        let body = engine
            .dispatch_ok(
                &mut env,
                crate::addr::UDM,
                HttpRequest::post("/nudm-ueau/generate-auth-data", req.encode()),
            )
            .unwrap()
            .body;
        assert_eq!(
            UdmAuthGetResponse::decode(&body).unwrap().supi.as_str(),
            SUPI
        );
    }

    #[test]
    fn resync_flow_updates_udr() {
        let (mut env, mut engine, _hn) = world();
        let mil = Milenage::with_opc(&K, &OPC);
        let rand = [0x23; 16];
        let sqn_ms = shield5g_crypto::sqn::sqn_to_bytes(700 << 5);
        let auts = shield5g_crypto::sqn::Auts::generate(&mil, &rand, &sqn_ms);
        let req = ResyncRequest {
            supi: crate::tests::imsi(SUPI),
            rand,
            auts,
        };
        let resp = engine
            .dispatch(
                &mut env,
                crate::addr::UDM,
                HttpRequest::post("/nudm-ueau/resync", req.encode()),
            )
            .unwrap();
        assert!(
            resp.is_success(),
            "resync failed: {:?}",
            String::from_utf8_lossy(&resp.body)
        );
    }

    #[test]
    fn a_subscriber_without_a_module_key_is_404_on_both_paths() {
        let (mut env, mut engine, hn) = world();
        let supi = crate::tests::imsi(UDR_ONLY);
        let suci = supi.conceal_profile_a(1, hn.public(), &[9; 32]);
        let auth = HttpRequest::post(
            "/nudm-ueau/generate-auth-data",
            auth_get(UeIdentity::Suci(suci)),
        );
        let resync = ResyncRequest {
            supi,
            rand: [0x23; 16],
            auts: shield5g_crypto::sqn::Auts {
                sqn_ms_xor_ak: [1; 6],
                mac_s: [2; 8],
            },
        };
        let resync = HttpRequest::post("/nudm-ueau/resync", resync.encode());
        for req in [auth, resync] {
            let resp = engine.dispatch(&mut env, crate::addr::UDM, req).unwrap();
            assert_eq!(resp.status, 404, "{}", String::from_utf8_lossy(&resp.body));
        }
    }

    #[test]
    fn forged_auts_rejected() {
        let (mut env, mut engine, _hn) = world();
        let req = ResyncRequest {
            supi: crate::tests::imsi(SUPI),
            rand: [0x23; 16],
            auts: shield5g_crypto::sqn::Auts {
                sqn_ms_xor_ak: [1; 6],
                mac_s: [2; 8],
            },
        };
        let resp = engine
            .dispatch(
                &mut env,
                crate::addr::UDM,
                HttpRequest::post("/nudm-ueau/resync", req.encode()),
            )
            .unwrap();
        assert_eq!(resp.status, 403);
    }
}
