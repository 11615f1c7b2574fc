//! The VNF side of the P-AKA split.
//!
//! Paper §IV-A: "the VNFs offload the sensitive functionality to their
//! respective external AKA modules", communicating "over TLS using REST
//! APIs via the OAI Docker bridge". [`PakaClient`] is that path: it
//! charges the VNF-side connection work, carries genuinely TLS-encrypted
//! records across the (tappable) bridge, and measures the response time
//! `R` exactly as §V-A2 experiment 4 defines it — "from when a request is
//! sent to the P-AKA module (i.e., from the OAI VNF) until the reception
//! of a response". It is also the one remote [`AkaBackend`]: for any row
//! of `shield5g-nf`'s operation table, `begin` is `PakaClient::begin_call`
//! on the row's path and `finish` is `PakaClient::finish_call` plus the
//! row's response codec.

use crate::paka::{PakaKind, PakaModule};
use crate::CoreError;
use shield5g_crypto::SecretBytes;
use shield5g_infra::bridge::BridgeNetwork;
use shield5g_nf::backend::{reply_error, AkaBackend, AkaOp, BackendOp, CallToken};
use shield5g_nf::wire::Wire;
use shield5g_nf::NfError;
use shield5g_sim::codec::Body;
use shield5g_sim::http::{HttpRequest, HttpResponse, SharedPaths};
use shield5g_sim::service::Service;
use shield5g_sim::time::SimDuration;
use shield5g_sim::tls::{establish, TlsIdentity, TlsSession};
use shield5g_sim::Env;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// VNF-side client work per offload call (TLS client handshake crypto,
/// connection setup syscalls, serialisation on the OAI C++ path).
/// Calibrated per parent VNF against the paper's container-mode stable
/// response times (R^C): the UDM's client path is the heaviest.
fn vnf_client_overhead_nanos(kind: PakaKind) -> u64 {
    match kind {
        PakaKind::EUdm => 310_000,
        PakaKind::EAusf => 200_000,
        PakaKind::EAmf => 110_000,
    }
}

/// TCP + TLS handshake frames exchanged on the bridge before the request
/// (SYN/SYN-ACK/ACK + hellos/finished).
const HANDSHAKE_FRAMES: [usize; 7] = [74, 74, 66, 517, 1290, 324, 280];

/// What a handshake frame carries in the simulation: each is a slice of
/// this block, which is as long as the longest.
static HANDSHAKE_ZEROS: [u8; 1290] = [0; 1290];

/// The VNF's running tally of one module's response times (R), fixed in
/// size; a caller that needs every sample reads `last` after each call.
/// L_F and L_T are the module's own: [`PakaModule::serve`] reports them.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModuleMetricsLog {
    /// Calls finished, failed ones included.
    pub calls: u64,
    /// The sum of their response times.
    pub total: SimDuration,
    /// The response time of the latest call.
    pub last: SimDuration,
}

/// The module side of the offload path as a discrete-event endpoint: a
/// leaf service the engine schedules like any other, so module worker
/// occupancy (the `sgx.max_threads` ceiling) is enforced by event
/// ordering rather than assumed. Serves requests straight into the
/// wrapped [`PakaModule`].
pub struct PakaEndpoint {
    module: Rc<RefCell<PakaModule>>,
}

impl std::fmt::Debug for PakaEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PakaEndpoint")
            .field("module", &self.module.borrow().kind().name())
            .finish()
    }
}

impl Service for PakaEndpoint {
    fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
        self.module.borrow_mut().serve(env, req).0
    }
}

/// The VNF-side client for one P-AKA module.
pub struct PakaClient {
    module: Rc<RefCell<PakaModule>>,
    bridge: Rc<RefCell<BridgeNetwork>>,
    vnf_name: String,
    /// The module's engine address, shared with every call-out to it.
    endpoint: Rc<str>,
    paths: SharedPaths,
    sessions: Option<(TlsSession, TlsSession)>,
    /// The last record carried, kept for its capacity. A message is framed
    /// here only with the session in hand and sealed in place at once, so
    /// between calls this is ciphertext, never an OPc or a K_AUSF.
    record: Vec<u8>,
    metrics: Rc<Cell<ModuleMetricsLog>>,
}

impl std::fmt::Debug for PakaClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PakaClient")
            .field("vnf", &self.vnf_name)
            .finish()
    }
}

impl PakaClient {
    /// Creates the client used by `vnf_name` to reach `module` over
    /// `bridge`.
    #[must_use]
    pub fn new(
        module: Rc<RefCell<PakaModule>>,
        bridge: Rc<RefCell<BridgeNetwork>>,
        vnf_name: impl Into<String>,
    ) -> Self {
        let endpoint = module.borrow().kind().endpoint().into();
        PakaClient {
            module,
            bridge,
            vnf_name: vnf_name.into(),
            endpoint,
            paths: SharedPaths::default(),
            sessions: None,
            record: Vec::new(),
            metrics: Rc::default(),
        }
    }

    /// A handle on this client's R tally, which each finished call updates.
    #[must_use]
    pub fn metrics(&self) -> Rc<Cell<ModuleMetricsLog>> {
        self.metrics.clone()
    }

    /// Builds the engine-side endpoint for this client's module.
    #[must_use]
    pub(crate) fn endpoint(&self) -> PakaEndpoint {
        PakaEndpoint {
            module: self.module.clone(),
        }
    }

    /// Lazily establishes the *cryptographic* session once. The per-call
    /// handshake cost is charged virtually on every request (the modules
    /// negotiate a fresh connection per request, as their 91-syscall
    /// choreography reflects); reusing the cipher state just avoids
    /// re-running real X25519 500× per experiment.
    fn sessions(&mut self, env: &mut Env) -> Result<&mut (TlsSession, TlsSession), CoreError> {
        Ok(match &mut self.sessions {
            Some(established) => established,
            unset => {
                let client_id = TlsIdentity::new(self.vnf_name.clone(), env.rng.bytes());
                let server_id = self.module.borrow().tls_identity().clone();
                // The two ephemerals in draw order, each a secret as drawn.
                let client_ephemeral = SecretBytes::new(env.rng.bytes());
                let server_ephemeral = SecretBytes::new(env.rng.bytes());
                let (c, s, _info) =
                    establish(&client_id, &server_id, client_ephemeral, server_ephemeral)
                        .map_err(NfError::Sim)?;
                unset.insert((c, s))
            }
        })
    }

    /// Attests the module before trusting its TLS identity (the paper's
    /// §VII remote-attestation pattern for "key provisioning and TLS
    /// session establishment"): verifies a quote whose report data binds
    /// the module's TLS public key, against the verifier `service` and a
    /// vendor policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Module`]/[`CoreError::Hmee`] when the module
    /// cannot quote, the quote fails verification, or the TLS binding does
    /// not match the identity the client would pin.
    pub fn attest_and_pin(
        &mut self,
        platform: &shield5g_hmee::platform::SgxPlatform,
        service: &shield5g_hmee::attest::AttestationService,
    ) -> Result<(), CoreError> {
        let module = self.module.borrow();
        let quote = module.quote_tls_binding(platform)?;
        let mut policy = shield5g_hmee::attest::QuotePolicy::signer(
            crate::paka::PakaModule::expected_mrsigner(),
        );
        policy.allow_debug = true; // stats builds are debug-mode
        service.verify(&quote, &policy).map_err(CoreError::Hmee)?;
        let expected = shield5g_crypto::sha256::Sha256::digest(module.tls_identity().public());
        if quote.report_data[..32] != expected {
            return Err(CoreError::Module {
                module: module.kind().name().to_owned(),
                status: 495,
                detail: "attestation quote does not bind the presented TLS key".into(),
            });
        }
        Ok(())
    }

    /// Carries one sealed record across the bridge: `frame` writes the
    /// message into the record buffer, the sender's half of the session
    /// (the VNF's when `from_client`, else the module's) seals it there,
    /// and the ciphertext travels to the other side.
    fn carry_sealed(
        &mut self,
        env: &mut Env,
        from_client: bool,
        frame: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), CoreError> {
        let mut record = std::mem::take(&mut self.record);
        record.clear();
        let (client, server) = self.sessions(env)?;
        frame(&mut record);
        let (from, to) = if from_client {
            client.seal_in_place(&mut record);
            (self.vnf_name.as_str(), &*self.endpoint)
        } else {
            server.seal_in_place(&mut record);
            (&*self.endpoint, self.vnf_name.as_str())
        };
        self.bridge.borrow_mut().carry(env, from, to, &record);
        self.record = record;
        Ok(())
    }

    /// First half of an offloaded call: charges the VNF-side client work,
    /// carries the handshake and the sealed request record across the
    /// bridge, and returns the engine destination, the request to yield as
    /// a `CallOut`, and the [`CallToken`] the matching [`Self::finish_call`]
    /// needs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Nf`] when the TLS session to the module cannot
    /// be established.
    pub(crate) fn begin_call(
        &mut self,
        env: &mut Env,
        path: &str,
        body: impl Into<Body>,
    ) -> Result<(Rc<str>, HttpRequest, CallToken), CoreError> {
        let kind = self.module.borrow().kind();
        let issued = env.clock.now();

        // VNF-side client work (TLS handshake crypto, socket setup).
        env.clock
            .advance(SimDuration::from_nanos(vnf_client_overhead_nanos(kind)));

        // TCP + TLS handshake frames on the bridge.
        for bytes in HANDSHAKE_FRAMES {
            let frame = &HANDSHAKE_ZEROS[..bytes];
            let mut bridge = self.bridge.borrow_mut();
            bridge.carry(env, &self.vnf_name, &self.endpoint, frame);
        }

        // The request record: genuinely encrypted on the wire.
        let request = HttpRequest::post(self.paths.get(path), body);
        self.carry_sealed(env, true, |record| request.write_to(record))?;

        Ok((self.endpoint.clone(), request, CallToken { issued }))
    }

    /// Second half of an offloaded call: carries the sealed response record
    /// back across the bridge, charges the client-side read path, tallies
    /// the response time R, and maps module failures.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Module`] for non-2xx module responses.
    pub(crate) fn finish_call(
        &mut self,
        env: &mut Env,
        resp: HttpResponse,
        token: CallToken,
    ) -> Result<Body, CoreError> {
        // Response record back across the bridge.
        self.carry_sealed(env, false, |record| resp.write_to(record))?;

        // Client-side record decrypt + read path.
        env.clock.advance(SimDuration::from_micros(9));

        let mut tally = self.metrics.get();
        tally.last = env.clock.now() - token.issued;
        tally.calls += 1;
        tally.total += tally.last;
        self.metrics.set(tally);
        if resp.is_success() {
            Ok(resp.body)
        } else {
            Err(CoreError::Module {
                module: self.module.borrow().kind().name().to_owned(),
                status: resp.status,
                detail: String::from_utf8_lossy(&resp.body).into_owned(),
            })
        }
    }

    /// One offloaded call: returns the response body and tallies R.
    /// The synchronous form used by the direct-characterization harness
    /// (§V-A2 experiments 1–3 measure the module in isolation, with no
    /// engine contention in the path).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Module`] for non-2xx module responses.
    pub fn call(
        &mut self,
        env: &mut Env,
        path: &str,
        body: impl Into<Body>,
    ) -> Result<Body, CoreError> {
        let (_dest, request, token) = self.begin_call(env, path, body)?;
        // The module serves inline (its own choreography charges the clock).
        let resp = self.endpoint().handle(env, request);
        self.finish_call(env, resp, token)
    }
}

fn to_nf_error(e: CoreError) -> NfError {
    match e {
        CoreError::Module { status, detail, .. } => reply_error(status, &detail),
        CoreError::Nf(e) => e,
        other => NfError::Backend(other.to_string()),
    }
}

impl<O: AkaOp> AkaBackend<O> for PakaClient {
    fn begin(&mut self, env: &mut Env, req: &O::Request) -> BackendOp<O::Response> {
        match self.begin_call(env, O::PATH, req.encode()) {
            Ok((dest, req, token)) => BackendOp::Call { dest, req, token },
            Err(e) => BackendOp::Done(Err(to_nf_error(e))),
        }
    }

    fn finish(
        &mut self,
        env: &mut Env,
        token: CallToken,
        resp: HttpResponse,
    ) -> Result<O::Response, NfError> {
        let body = self.finish_call(env, resp, token).map_err(to_nf_error)?;
        O::Response::decode(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paka::{populate_registry, ModuleDeployment, SgxConfig};
    use shield5g_crypto::keys::{self, HeAv, ServingNetworkName};
    use shield5g_crypto::milenage::Milenage;
    use shield5g_crypto::sqn::Auts;
    use shield5g_crypto::CryptoError;
    use shield5g_hmee::platform::SgxPlatform;
    use shield5g_infra::host::Host;
    use shield5g_infra::image::Registry;
    use shield5g_nf::backend::{
        AmfAkaRequest, AusfAkaRequest, AusfAkaResponse, DeriveKamf, DeriveSe, GenerateAv,
        GenerateAvBatch, LocalAka, Resync, UdmAkaBatchRequest, UdmAkaRequest, UdmAkaResyncRequest,
    };
    use std::fmt::Debug;

    const K: [u8; 16] = [0x46; 16];
    const OPC: [u8; 16] = [0xcd; 16];
    const SUPI: &str = "imsi-001010000000001";
    const STRANGER: &str = "imsi-001010000000042";

    fn imsi(text: &str) -> shield5g_crypto::ident::Supi {
        shield5g_crypto::ident::Supi::parse(text).unwrap()
    }

    fn setup(shielded: bool, kind: PakaKind) -> (Env, PakaClient) {
        let mut env = Env::new(23);
        let mut reg = Registry::new();
        populate_registry(&mut reg);
        let platform = SgxPlatform::new(&mut env);
        let mut host = Host::with_sgx("r450", platform);
        let deployment = if shielded {
            ModuleDeployment::Sgx(SgxConfig::default())
        } else {
            ModuleDeployment::Container
        };
        let mut module = PakaModule::deploy(&mut env, &mut host, &reg, kind, deployment).unwrap();
        if kind == PakaKind::EUdm {
            module.provision_subscriber_key(&mut env, SUPI, K);
        }
        let bridge = Rc::new(RefCell::new(BridgeNetwork::new("br-oai")));
        let client = PakaClient::new(Rc::new(RefCell::new(module)), bridge, "udm.oai");
        (env, client)
    }

    fn snn() -> ServingNetworkName {
        ServingNetworkName::new("001", "01")
    }

    fn mil() -> Milenage {
        Milenage::with_opc(&K, &OPC)
    }

    fn av_request() -> UdmAkaRequest {
        UdmAkaRequest {
            supi: imsi(SUPI),
            opc: OPC.into(),
            rand: [0x23; 16],
            sqn: [0, 0, 0, 0, 0, 7],
            amf_field: [0x80, 0],
            snn: snn(),
        }
    }

    fn batch_request(count: u32) -> UdmAkaBatchRequest {
        UdmAkaBatchRequest {
            supi: imsi(SUPI),
            opc: OPC.into(),
            rand_seed: [0x77; 16],
            sqn_start: [0, 0, 0, 0, 0xff, 0xfe],
            amf_field: [0x80, 0],
            snn: snn(),
            count,
        }
    }

    fn resync_request(auts: Auts) -> UdmAkaResyncRequest {
        UdmAkaResyncRequest {
            supi: imsi(SUPI),
            opc: OPC.into(),
            rand: [0x23; 16],
            auts,
        }
    }

    /// Drives one operation the way an NF does: `begin`, the module's
    /// engine endpoint when the backend calls out, `finish`.
    fn drive<O: AkaOp>(
        env: &mut Env,
        backend: &mut impl AkaBackend<O>,
        module: Option<PakaEndpoint>,
        req: &O::Request,
    ) -> Result<O::Response, NfError> {
        match (backend.begin(env, req), module) {
            (BackendOp::Done(out), _) => out,
            (BackendOp::Call { req, token, .. }, Some(mut module)) => {
                let resp = module.handle(env, req);
                backend.finish(env, token, resp)
            }
            (BackendOp::Call { dest, .. }, None) => panic!("call-out to {dest} without a module"),
        }
    }

    /// The monolithic, container and SGX outcome of one operation, in
    /// that order.
    fn three_ways<O: AkaOp>(kind: PakaKind, req: &O::Request) -> [Result<O::Response, NfError>; 3] {
        let mut local = LocalAka::default();
        local.provision(SUPI, K);
        let (mut env_c, mut container) = setup(false, kind);
        let (mut env_s, mut sgx) = setup(true, kind);
        let (module_c, module_s) = (container.endpoint(), sgx.endpoint());
        [
            drive::<O>(&mut Env::new(23), &mut local, None, req),
            drive::<O>(&mut env_c, &mut container, Some(module_c), req),
            drive::<O>(&mut env_s, &mut sgx, Some(module_s), req),
        ]
    }

    /// One row of the table-driven test: `req` yields the same output —
    /// and the same bytes on the module wire — from the in-process
    /// backend, a container module and an SGX module; both codecs
    /// round-trip; `verify` checks the output against the 3GPP functions.
    fn check_row<O: AkaOp>(kind: PakaKind, req: &O::Request, verify: impl Fn(&O::Response))
    where
        O::Request: PartialEq + Debug,
        O::Response: PartialEq + Debug,
    {
        assert_eq!(
            &O::Request::decode(&req.encode()).unwrap(),
            req,
            "{}",
            O::PATH
        );
        let [local, container, sgx] = three_ways::<O>(kind, req).map(Result::unwrap);
        assert_eq!(container, local, "{} in a container", O::PATH);
        assert_eq!(sgx, local, "{} in an enclave", O::PATH);
        verify(&local);
        let bytes = local.encode();
        assert_eq!(O::Response::decode(&bytes).unwrap(), local, "{}", O::PATH);
        for shielded in [false, true] {
            let (mut env, mut client) = setup(shielded, kind);
            let body = client.call(&mut env, O::PATH, req.encode()).unwrap();
            assert_eq!(body, bytes, "{} wire bytes (shielded: {shielded})", O::PATH);
        }
    }

    fn usim_accepts(av: &HeAv) {
        let ue = keys::ue_process_challenge(&mil(), &av.rand, &av.autn, &snn()).unwrap();
        assert_eq!(ue.res_star, av.xres_star);
    }

    #[test]
    fn one_compute_three_deployments() {
        check_row::<GenerateAv>(PakaKind::EUdm, &av_request(), usim_accepts);
        // The batch steps SQN across a byte carry and RAND per SQN.
        check_row::<GenerateAvBatch>(PakaKind::EUdm, &batch_request(3), |avs| {
            let avs: Vec<HeAv> = avs.iter().collect();
            assert_eq!(avs.len(), 3);
            avs.iter().for_each(usim_accepts);
            assert_ne!(avs[1].rand, avs[2].rand);
        });
        let sqn_ms = [0, 0, 0, 0, 3, 3];
        let auts = Auts::generate(&mil(), &[0x23; 16], &sqn_ms);
        check_row::<Resync>(PakaKind::EUdm, &resync_request(auts), |out| {
            assert_eq!(out, &sqn_ms);
        });
        let se = AusfAkaRequest {
            rand: [1; 16],
            xres_star: [2; 16].into(),
            kausf: [3; 32].into(),
            snn: snn(),
        };
        check_row::<DeriveSe>(PakaKind::EAusf, &se, |out| {
            let expected = AusfAkaResponse {
                hxres_star: keys::derive_hxres_star(&[1; 16], &SecretBytes::new([2; 16])),
                kseaf: keys::derive_kseaf(&[3; 32].into(), &snn()),
            };
            assert_eq!(out, &expected);
        });
        let kamf = AmfAkaRequest {
            kseaf: [4; 32].into(),
            supi: imsi(SUPI),
            abba: [0, 0],
        };
        check_row::<DeriveKamf>(PakaKind::EAmf, &kamf, |out| {
            assert_eq!(out, &keys::derive_kamf(&[4; 32].into(), SUPI, &[0, 0]));
        });
    }

    #[test]
    fn failures_are_the_same_error_in_every_deployment() {
        let mut stranger = av_request();
        stranger.supi = imsi(STRANGER);
        let unknown = NfError::SubscriberUnknown(imsi(STRANGER));
        assert_eq!(
            three_ways::<GenerateAv>(PakaKind::EUdm, &stranger),
            [Err(unknown.clone()), Err(unknown.clone()), Err(unknown)]
        );

        let forged = resync_request(Auts {
            sqn_ms_xor_ak: [1; 6],
            mac_s: [2; 8],
        });
        let bad_mac = NfError::Crypto(CryptoError::MacMismatch);
        assert_eq!(
            three_ways::<Resync>(PakaKind::EUdm, &forged),
            [Err(bad_mac.clone()), Err(bad_mac.clone()), Err(bad_mac)]
        );

        // The one malformed body the typed interface can express.
        let empty = NfError::Protocol("AV batch count 0 outside 1..=256".into());
        assert_eq!(
            three_ways::<GenerateAvBatch>(PakaKind::EUdm, &batch_request(0)),
            [Err(empty.clone()), Err(empty.clone()), Err(empty)]
        );
    }

    #[test]
    fn an_operation_sent_to_another_nfs_module_is_a_typed_error() {
        let (mut env, mut client) = setup(true, PakaKind::EAmf);
        let module = client.endpoint();
        let out = drive::<GenerateAv>(&mut env, &mut client, Some(module), &av_request());
        assert_eq!(
            out,
            Err(NfError::Protocol(
                "module eAMF has no handler for /eudm/generate-av".into()
            ))
        );
    }

    #[test]
    fn module_error_propagates_as_subscriber_unknown() {
        use shield5g_nf::sbi::{SbiClient, UdmAuthGetRequest};
        use shield5g_nf::{addr, messages::UeIdentity, udm::UdmService, udr::UdrService};
        use shield5g_sim::engine::Engine;
        use shield5g_sim::service::service_handle;

        // A subscriber the UDR knows and the eUDM module was never given a
        // key for: the module's 404 must reach the AUSF as the UDM's own.
        let (mut env, client) = setup(true, PakaKind::EUdm);
        let mut engine = Engine::new();
        let mut udr = UdrService::new();
        udr.provision(STRANGER, OPC, [0x80, 0]);
        engine.register(addr::UDR, 4, Engine::leaf(service_handle(udr)));
        engine.register(
            PakaKind::EUdm.endpoint(),
            1,
            Engine::leaf(service_handle(client.endpoint())),
        );
        let hn = shield5g_crypto::ecies::HomeNetworkKeyPair::from_private(1, [7; 32]);
        let udm = UdmService::new(hn, SbiClient::new(), addr::UDR, Box::new(client));
        engine.register(addr::UDM, 4, Rc::new(RefCell::new(udm)));
        let req = UdmAuthGetRequest {
            identity: UeIdentity::Guti(shield5g_crypto::ident::Guti::new(1, 1, 1, 1)),
            known_supi: STRANGER.into(),
            snn_mcc: "001",
            snn_mnc: "01",
        };
        let resp = engine
            .dispatch(
                &mut env,
                addr::UDM,
                HttpRequest::post("/nudm-ueau/generate-auth-data", req.encode()),
            )
            .unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(
            resp.body,
            format!("unknown subscriber {STRANGER}").into_bytes()
        );
    }

    /// Calls `client` `n` times and returns R for each call, read from the
    /// tally after it.
    fn sample_r(env: &mut Env, client: &mut PakaClient, n: usize) -> Vec<SimDuration> {
        let body = av_request().encode();
        let metrics = client.metrics();
        (0..n)
            .map(|_| {
                client.call(env, GenerateAv::PATH, body.clone()).unwrap();
                metrics.get().last
            })
            .collect()
    }

    #[test]
    fn response_time_logged_and_sgx_slower() {
        let (mut env_c, mut client_c) = setup(false, PakaKind::EUdm);
        let (mut env_s, mut client_s) = setup(true, PakaKind::EUdm);
        // Warm both, then sample.
        let rc = crate::stats::Summary::of(&sample_r(&mut env_c, &mut client_c, 21)[1..]);
        let rs = crate::stats::Summary::of(&sample_r(&mut env_s, &mut client_s, 21)[1..]);
        let ratio = rs.median_ratio_to(&rc);
        assert!(ratio > 1.8 && ratio < 3.5, "R_S/R_C = {ratio:.2}");
        // `call` tallies one R per call.
        assert_eq!(client_c.metrics().get().calls, 21);
        assert_eq!(client_s.metrics().get().calls, 21);
    }

    #[test]
    fn the_tally_counts_every_call_and_sums_their_r() {
        let (mut env, mut client) = setup(true, PakaKind::EUdm);
        let samples = sample_r(&mut env, &mut client, 7);
        let tally = client.metrics().get();
        assert_eq!(tally.calls, 7);
        assert_eq!(tally.total, samples.iter().copied().sum());
        assert_eq!(tally.last, samples[6]);
        // The initial call pays the cold path, so the samples differ.
        assert!(samples[0] > samples[1], "{samples:?}");
    }

    #[test]
    fn bridge_sees_only_ciphertext() {
        let (mut env, mut client) = setup(false, PakaKind::EUdm);
        client.bridge.borrow_mut().enable_tap();
        let req = av_request();
        client
            .call(&mut env, "/eudm/generate-av", req.encode())
            .unwrap();
        let bridge = client.bridge.borrow();
        assert!(!bridge.captured().is_empty());
        // Neither OPc nor the path appear in the clear on the wire.
        assert!(!bridge.captured_contains(&OPC));
        assert!(!bridge.captured_contains(b"/eudm/generate-av"));
    }
}
