//! Network-slice assembly: the testbed of paper Figure 4.
//!
//! A slice is the full control-plane service chain (NRF, UDR, UDM, AUSF,
//! AMF, SMF, UPF) on a host, with the sensitive AKA functions in one of
//! three deployments:
//!
//! * [`AkaDeployment::Monolithic`] — AKA inside the VNFs (stock OAI),
//! * [`AkaDeployment::Container`] — extracted modules in plain containers,
//! * [`AkaDeployment::Sgx`] — extracted modules inside SGX enclaves
//!   (the paper's P-AKA deployment).
//!
//! The builder also provisions subscribers end to end: UDR records, the
//! module/backend key tables, and [`Subscriber`] credentials for USIMs.

use crate::paka::{populate_registry, PakaKind, PakaModule, SgxConfig};
use crate::remote::{ModuleMetricsLog, PakaClient};
use crate::CoreError;
use shield5g_crypto::ecies::{HomeNetworkKeyPair, HomeNetworkPublicKey};
use shield5g_crypto::ident::{Plmn, Supi};
use shield5g_hmee::platform::SgxPlatform;
use shield5g_infra::bridge::BridgeNetwork;
use shield5g_infra::host::Host;
use shield5g_infra::image::{ContainerImage, Registry};
use shield5g_libos::gsc::ImageSpec;
use shield5g_mw::{
    BreakerLayer, BreakerPolicy, FaultLayer, FaultSwitch, ObsCoreHandle, ObsLayer, Stack,
};
use shield5g_nf::amf::AmfService;
use shield5g_nf::ausf::AusfService;
use shield5g_nf::backend::{AkaBackend, DeriveKamf, DeriveSe, LocalAka, UdmAkaBackend};
use shield5g_nf::nrf::{NfProfile, NrfService};
use shield5g_nf::sbi::SbiClient;
use shield5g_nf::smf::SmfService;
use shield5g_nf::udm::UdmService;
use shield5g_nf::udr::UdrService;
use shield5g_nf::upf::UpfService;
use shield5g_nf::{addr, NfType};
use shield5g_sim::engine::{Engine, EngineServiceHandle};
use shield5g_sim::http::HttpRequest;
use shield5g_sim::service::service_handle;
use shield5g_sim::Env;
use std::cell::RefCell;
use std::rc::Rc;

/// Worker threads per leaf service (UDR/UPF/NRF): effectively unbounded —
/// these stores are not the contended resources under study.
const LEAF_WORKERS: u32 = 64;

/// Worker threads per OAI VNF (UDM/AUSF/AMF/SMF): the OAI HTTP servers
/// run a small thread pool per NF.
const VNF_WORKERS: u32 = 16;

/// Where the sensitive AKA functions execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AkaDeployment {
    /// In-process inside the monolithic VNFs.
    Monolithic,
    /// Extracted modules in unprotected containers.
    Container,
    /// Extracted modules inside SGX enclaves (P-AKA).
    Sgx(SgxConfig),
}

impl AkaDeployment {
    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AkaDeployment::Monolithic => "monolithic",
            AkaDeployment::Container => "container",
            AkaDeployment::Sgx(_) => "sgx",
        }
    }
}

/// A provisioned subscriber: what the USIM and the home network share.
#[derive(Clone, Debug)]
pub struct Subscriber {
    /// Permanent identity.
    pub supi: Supi,
    /// Long-term key K.
    pub k: [u8; 16],
    /// Operator variant constant OPc.
    pub opc: [u8; 16],
}

impl Subscriber {
    /// The `i`-th test subscriber on PLMN 001/01 (credentials derived
    /// from the TS 35.208 test-set constants).
    ///
    /// # Panics
    ///
    /// Never: the two credential constants are valid hex.
    #[must_use]
    pub fn test(i: u32) -> Self {
        let supi = Supi::numbered(Plmn::test_network(), u64::from(i) + 1, 10);
        #[expect(clippy::expect_used, reason = "the constant is 32 hex digits")]
        let mut k = shield5g_crypto::hex::decode_array::<16>("465b5ce8b199b49faa5f0a2ee238a6bc")
            .expect("valid hex");
        k[12..16].copy_from_slice(&i.to_be_bytes());
        #[expect(clippy::expect_used, reason = "the constant is 32 hex digits")]
        let opc = shield5g_crypto::hex::decode_array::<16>("cd63cb71954a9f4e48a5994e37a02baf")
            .expect("valid hex");
        Subscriber { supi, k, opc }
    }
}

/// Slice build options.
#[derive(Clone, Debug)]
pub struct SliceConfig {
    /// AKA deployment flavour.
    pub deployment: AkaDeployment,
    /// Number of test subscribers to provision.
    pub subscriber_count: u32,
}

impl Default for SliceConfig {
    fn default() -> Self {
        SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 10,
        }
    }
}

/// A deployed slice.
pub struct Slice {
    /// The shared discrete-event engine (the "network").
    pub engine: Rc<RefCell<Engine>>,
    /// The physical host everything runs on.
    pub host: Host,
    /// The OAI docker bridge between VNFs and modules.
    pub bridge: Rc<RefCell<BridgeNetwork>>,
    /// The image registry used for deployment.
    pub registry: Registry,
    /// Deployment flavour in effect.
    pub deployment: AkaDeployment,
    /// Provisioned subscribers.
    pub subscribers: Vec<Subscriber>,
    /// Home-network ECIES public key (for USIM provisioning): a shared
    /// handle, so program USIMs with a clone of it.
    pub hn_public: HomeNetworkPublicKey,
    /// Home-network key identifier.
    pub hn_key_id: u8,
    /// Typed AMF handle (it is also registered on the engine).
    pub amf: Rc<RefCell<AmfService>>,
    /// Typed AUSF handle.
    pub ausf: Rc<RefCell<AusfService>>,
    /// Typed UDM handle.
    pub udm: Rc<RefCell<UdmService>>,
    /// Typed SMF handle.
    pub smf: Rc<RefCell<SmfService>>,
    /// Typed UPF handle.
    pub upf: Rc<RefCell<UpfService>>,
    /// Typed NRF handle.
    pub nrf: Rc<RefCell<NrfService>>,
    /// Arms/disarms fault injection across every slice endpoint at once
    /// (each endpoint's [`FaultLayer`] holds a clone; fault plans install
    /// through this switch after the slice is built).
    pub fault_switch: FaultSwitch,
    /// The slice-wide circuit-breaker core shared by every endpoint's
    /// [`BreakerLayer`] — one circuit table per peer address, readable
    /// after runs (states, failure EWMAs, trip counters).
    pub breaker: shield5g_mw::BreakerHandle,
    modules: Vec<(PakaKind, Rc<RefCell<PakaModule>>)>,
    backend_metrics: Vec<(PakaKind, Rc<RefCell<ModuleMetricsLog>>)>,
}

impl std::fmt::Debug for Slice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slice")
            .field("deployment", &self.deployment.label())
            .field("subscribers", &self.subscribers.len())
            .field("modules", &self.modules.len())
            .finish()
    }
}

impl Slice {
    /// The module of the given kind (None for monolithic slices).
    #[must_use]
    pub fn module(&self, kind: PakaKind) -> Option<Rc<RefCell<PakaModule>>> {
        self.modules
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| m.clone())
    }

    /// The in-slice backend metric log for a module (R samples collected
    /// from real registrations flowing through the slice).
    #[must_use]
    pub fn backend_metrics(&self, kind: PakaKind) -> Option<Rc<RefCell<ModuleMetricsLog>>> {
        self.backend_metrics
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, m)| m.clone())
    }

    /// Builds a fresh [`PakaClient`] against a deployed module — the
    /// harness uses these for direct module characterization.
    #[must_use]
    pub fn client_for(&self, kind: PakaKind, vnf_name: &str) -> Option<PakaClient> {
        self.module(kind)
            .map(|m| PakaClient::new(m, self.bridge.clone(), vnf_name))
    }
}

/// The operator's long-term SIDF private key (Curve25519 scalar).
const HN_SIDF_PRIVATE_KEY: [u8; 32] = [
    0x8f, 0x40, 0xc5, 0xad, 0xb6, 0x8f, 0x25, 0x62, 0x4a, 0xe5, 0xb2, 0x14, 0xea, 0x76, 0x7a, 0x6e,
    0xc9, 0x4d, 0x82, 0x9d, 0x3d, 0x7b, 0x5e, 0x1a, 0xd1, 0xba, 0x6f, 0x3e, 0x21, 0x38, 0x28, 0x5f,
];

/// VNF images for the host's container view (the attack surface of the
/// monolithic deployment).
fn vnf_image(name: &str) -> ContainerImage {
    ContainerImage::new(ImageSpec::synthetic(
        format!("oai/{name}:v1.5.0"),
        format!("/usr/bin/oai-{name}"),
        900_000_000,
        120,
    ))
}

/// The AKA backends of the UDM, AUSF and AMF, in that order.
type Backends = (
    Box<dyn UdmAkaBackend>,
    Box<dyn AkaBackend<DeriveSe>>,
    Box<dyn AkaBackend<DeriveKamf>>,
);

/// Builds and wires a complete slice on a fresh SGX-capable host. Its
/// engine counts decisions but records no trace.
///
/// # Errors
///
/// Returns [`CoreError`] when module deployment fails (e.g. invalid SGX
/// configuration).
pub fn build_slice(env: &mut Env, config: &SliceConfig) -> Result<Slice, CoreError> {
    build_on(env, config, Engine::new())
}

/// [`build_slice`] with the engine trace recorded from the first decision,
/// the build's own NRF registrations included, as golden traces begin.
///
/// # Errors
///
/// As [`build_slice`].
pub fn build_traced_slice(env: &mut Env, config: &SliceConfig) -> Result<Slice, CoreError> {
    let mut engine = Engine::new();
    engine.set_trace(true);
    build_on(env, config, engine)
}

fn build_on(env: &mut Env, config: &SliceConfig, engine: Engine) -> Result<Slice, CoreError> {
    let platform = SgxPlatform::new(env);
    let mut host = Host::with_sgx("r450", platform);
    let mut registry = Registry::new();
    populate_registry(&mut registry);
    for vnf in ["udm", "ausf", "amf", "udr", "smf", "upf", "nrf"] {
        registry.push(vnf_image(vnf));
    }
    let bridge = Rc::new(RefCell::new(BridgeNetwork::new("br-oai")));
    let engine = Rc::new(RefCell::new(engine));
    // One span table, one circuit table and one fault switch per slice,
    // shared by every endpoint's middleware stack; the order is the rank
    // table in `mw::stack`. A harness that needs admission builds its
    // own stack, as `scale::pool` does. The breaker only acts on
    // sustained outbound failures, so a fault-free slice traces
    // byte-identically to one without it.
    let obs_core: ObsCoreHandle = ObsLayer::core();
    let fault_switch = FaultSwitch::new();
    let breaker = BreakerLayer::new(BreakerPolicy::default()).core();
    let stacked = |svc: EngineServiceHandle| -> EngineServiceHandle {
        Stack::new(svc)
            .with(ObsLayer::new(obs_core.clone()))
            .with(BreakerLayer::with_core(breaker.clone()))
            .with(FaultLayer::new(fault_switch.clone()))
            .into_handle()
    };

    // Subscribers.
    let subscribers: Vec<Subscriber> = (0..config.subscriber_count).map(Subscriber::test).collect();

    // The home-network SIDF key pair. This is the *operator's* long-term
    // key: it is stable across deployments (a USIM provisioned once must
    // keep working when the core is redeployed), so it is a fixed
    // constant rather than a per-world random draw.
    let hn_key = HomeNetworkKeyPair::from_private(1, HN_SIDF_PRIVATE_KEY);

    // UDR with subscription data.
    let mut udr = UdrService::new();
    for sub in &subscribers {
        udr.provision(sub.supi.to_string(), sub.opc, [0x80, 0]);
    }

    // VNF containers on the host (attack surface bookkeeping).
    for vnf in ["udm", "ausf", "amf"] {
        host.run_plain(
            env,
            &registry,
            &format!("oai/{vnf}:v1.5.0"),
            format!("{vnf}.oai"),
        )?;
    }

    // AKA backends per deployment.
    let mut modules = Vec::new();
    let mut backend_metrics = Vec::new();
    // Deploys one extracted module for `vnf` (container, or enclave under
    // `sgx`) and returns the VNF's client to it. Each module is an engine
    // endpoint whose worker count is the enclave's serving-thread budget:
    // module concurrency (and the Fig. 8 thread-sweep knee) comes from
    // event ordering.
    let mut offload = |env: &mut Env,
                       kind: PakaKind,
                       vnf: &str,
                       sgx: Option<SgxConfig>|
     -> Result<PakaClient, CoreError> {
        let mut module = match sgx {
            Some(cfg) => PakaModule::deploy_sgx(env, &mut host, &registry, kind, cfg)?,
            None => PakaModule::deploy_container(env, &mut host, &registry, kind)?,
        };
        if kind == PakaKind::EUdm {
            for sub in &subscribers {
                module.provision_subscriber_key(env, &sub.supi.to_string(), sub.k);
            }
        }
        let workers = module.app_threads();
        let module = Rc::new(RefCell::new(module));
        let client = PakaClient::new(module.clone(), bridge.clone(), vnf);
        modules.push((kind, module));
        backend_metrics.push((kind, client.metrics()));
        engine.borrow_mut().register(
            kind.endpoint(),
            workers,
            stacked(Engine::leaf(service_handle(client.endpoint()))),
        );
        Ok(client)
    };
    let mut offload_all = |env: &mut Env, sgx: Option<SgxConfig>| -> Result<Backends, CoreError> {
        Ok((
            Box::new(offload(env, PakaKind::EUdm, "udm.oai", sgx)?),
            Box::new(offload(env, PakaKind::EAusf, "ausf.oai", sgx)?),
            Box::new(offload(env, PakaKind::EAmf, "amf.oai", sgx)?),
        ))
    };
    let (udm_backend, ausf_backend, amf_backend): Backends = match config.deployment {
        AkaDeployment::Monolithic => {
            let mut local = LocalAka::default();
            for sub in &subscribers {
                local.provision(sub.supi.to_string(), sub.k);
            }
            // Monolithic VNF process memory holds the raw keys — mirror
            // them into the UDM container so introspection sees what a
            // memory dump of the OAI UDM would contain.
            if let Some(udm_container) = host.container("udm.oai") {
                let mut c = udm_container.borrow_mut();
                for sub in &subscribers {
                    c.plain_memory.write(&format!("k:{}", sub.supi), &sub.k);
                }
            }
            (
                Box::new(local),
                Box::new(LocalAka::default()),
                Box::new(LocalAka::default()),
            )
        }
        AkaDeployment::Container => offload_all(env, None)?,
        AkaDeployment::Sgx(cfg) => offload_all(env, Some(cfg))?,
    };

    // The VNF service chain.
    let udm = UdmService::new(hn_key.clone(), SbiClient::new(), addr::UDR, udm_backend);
    let udm = Rc::new(RefCell::new(udm));
    let ausf = AusfService::new(SbiClient::new(), addr::UDM, ausf_backend);
    let ausf = Rc::new(RefCell::new(ausf));
    let amf = Rc::new(RefCell::new(AmfService::new(
        SbiClient::new(),
        addr::AUSF,
        addr::SMF,
        amf_backend,
        "001",
        "01",
    )));
    let smf = Rc::new(RefCell::new(SmfService::new(SbiClient::new(), addr::UPF)));
    let upf = Rc::new(RefCell::new(UpfService::new()));
    let nrf = Rc::new(RefCell::new(NrfService::new()));

    {
        let mut e = engine.borrow_mut();
        e.register(
            addr::UDR,
            LEAF_WORKERS,
            stacked(Engine::leaf(service_handle(udr))),
        );
        e.register(addr::UDM, VNF_WORKERS, stacked(udm.clone()));
        e.register(addr::AUSF, VNF_WORKERS, stacked(ausf.clone()));
        e.register(addr::AMF, VNF_WORKERS, stacked(amf.clone()));
        e.register(addr::SMF, VNF_WORKERS, stacked(smf.clone()));
        e.register(addr::UPF, LEAF_WORKERS, stacked(Engine::leaf(upf.clone())));
        e.register(addr::NRF, LEAF_WORKERS, stacked(Engine::leaf(nrf.clone())));
    }

    // NRF registrations (mutual discovery, paper Fig. 2).
    for (nf_type, a) in [
        (NfType::UDR, addr::UDR),
        (NfType::UDM, addr::UDM),
        (NfType::AUSF, addr::AUSF),
        (NfType::AMF, addr::AMF),
        (NfType::SMF, addr::SMF),
        (NfType::UPF, addr::UPF),
    ] {
        engine
            .borrow_mut()
            .dispatch_ok(
                env,
                addr::NRF,
                HttpRequest::post(
                    "/nnrf-nfm/register",
                    NfProfile {
                        nf_type,
                        addr: a.to_owned(),
                    }
                    .encode(),
                ),
            )
            .map_err(|e| CoreError::Nf(shield5g_nf::NfError::Sim(e)))?;
    }

    env.log.record(
        env.clock.now(),
        "slice",
        format_args!(
            "slice deployed ({}) with {} subscribers",
            config.deployment.label(),
            subscribers.len()
        ),
    );

    Ok(Slice {
        engine,
        host,
        bridge,
        registry,
        deployment: config.deployment,
        subscribers,
        hn_public: hn_key.public().clone(),
        hn_key_id: hn_key.id(),
        amf,
        ausf,
        udm,
        smf,
        upf,
        nrf,
        fault_switch,
        breaker,
        modules,
        backend_metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_crypto::keys::ServingNetworkName;
    use shield5g_nf::messages::UeIdentity;
    use shield5g_nf::sbi::{AuthenticateRequest, AuthenticateResponse};
    use shield5g_sim::http::HttpRequest;

    fn build(deployment: AkaDeployment) -> (Env, Slice) {
        let mut env = Env::new(29);
        env.log.disable();
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment,
                subscriber_count: 3,
            },
        )
        .unwrap();
        (env, slice)
    }

    /// Runs the SBI-level authentication (AMF → AUSF → UDM → backend) for
    /// subscriber 0 and checks the SE AV against the USIM-side crypto.
    fn authenticate_and_check(env: &mut Env, slice: &Slice) {
        let sub = &slice.subscribers[0];
        let eph: [u8; 32] = env.rng.bytes();
        let suci = sub
            .supi
            .conceal_profile_a(slice.hn_key_id, &slice.hn_public, &eph);
        let req = AuthenticateRequest {
            identity: UeIdentity::Suci(suci),
            known_supi: String::new(),
            snn_mcc: "001".into(),
            snn_mnc: "01".into(),
        };
        let body = slice
            .engine
            .borrow_mut()
            .dispatch_ok(
                env,
                addr::AUSF,
                HttpRequest::post("/nausf-auth/authenticate", req.encode()),
            )
            .unwrap()
            .body;
        let resp = AuthenticateResponse::decode(&body).unwrap();
        let mil = shield5g_crypto::milenage::Milenage::with_opc(&sub.k, &sub.opc);
        let snn = ServingNetworkName::new("001", "01");
        let ue = shield5g_crypto::keys::ue_process_challenge(
            &mil,
            &resp.se_av.rand,
            &resp.se_av.autn,
            &snn,
        )
        .unwrap();
        assert_eq!(
            shield5g_crypto::keys::derive_hxres_star(&resp.se_av.rand, &ue.res_star),
            resp.se_av.hxres_star
        );
    }

    #[test]
    fn monolithic_slice_authenticates() {
        let (mut env, slice) = build(AkaDeployment::Monolithic);
        assert!(slice.module(PakaKind::EUdm).is_none());
        authenticate_and_check(&mut env, &slice);
    }

    #[test]
    fn container_slice_authenticates() {
        let (mut env, slice) = build(AkaDeployment::Container);
        assert!(slice.module(PakaKind::EUdm).is_some());
        assert!(!slice.module(PakaKind::EUdm).unwrap().borrow().is_shielded());
        authenticate_and_check(&mut env, &slice);
        // The backend metric log captured the module round trips.
        let m = slice.backend_metrics(PakaKind::EUdm).unwrap();
        assert_eq!(m.borrow().response_times.len(), 1);
    }

    #[test]
    fn sgx_slice_authenticates() {
        let (mut env, slice) = build(AkaDeployment::Sgx(SgxConfig::default()));
        assert!(slice.module(PakaKind::EUdm).unwrap().borrow().is_shielded());
        authenticate_and_check(&mut env, &slice);
    }

    #[test]
    fn all_deployments_produce_identical_crypto() {
        // The flow is byte-identical across deployments (paper §IV-B goal):
        // same subscriber + same RAND → same XRES*. RANDs differ per world,
        // so compare via the USIM check in each deployment instead.
        for d in [
            AkaDeployment::Monolithic,
            AkaDeployment::Container,
            AkaDeployment::Sgx(SgxConfig::default()),
        ] {
            let (mut env, slice) = build(d);
            authenticate_and_check(&mut env, &slice);
        }
    }

    #[test]
    fn nrf_knows_all_functions() {
        let (_env, slice) = build(AkaDeployment::Monolithic);
        let nrf = slice.nrf.borrow();
        for t in [
            NfType::UDR,
            NfType::UDM,
            NfType::AUSF,
            NfType::AMF,
            NfType::SMF,
            NfType::UPF,
        ] {
            assert!(nrf.discover(t).is_some(), "{t} not registered");
        }
    }

    #[test]
    fn subscribers_have_distinct_keys() {
        let a = Subscriber::test(0);
        let b = Subscriber::test(1);
        assert_ne!(a.k, b.k);
        assert_ne!(a.supi, b.supi);
        assert_eq!(a.supi.to_string(), "imsi-001010000000001");
    }

    #[test]
    fn sgx_slice_deploys_three_enclaves() {
        let (_env, slice) = build(AkaDeployment::Sgx(SgxConfig::default()));
        for kind in PakaKind::all() {
            let m = slice.module(kind).unwrap();
            assert!(m.borrow().is_shielded());
            assert!(m.borrow().boot_report().is_some());
        }
    }

    #[test]
    fn host_sees_vnf_and_module_containers() {
        let (_env, slice) = build(AkaDeployment::Sgx(SgxConfig::default()));
        let names = slice.host.container_names();
        assert!(names.iter().any(|n| n == "udm.oai"));
        assert!(names.iter().any(|n| n == "eudm-paka.oai"));
        assert_eq!(names.len(), 6);
    }
}
