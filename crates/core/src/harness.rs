//! Single-module deploy and measure helpers over the simulated testbed.
//!
//! [`deploy_module`] builds one P-AKA module, container or SGX, in a fresh
//! deterministic world and [`standard_request`] is its Table I request.
//! [`measure_lf_lt`] and [`measure_response_times`] serve that request
//! and return the §V-A2 latencies; [`module_engine`] and
//! [`concurrency_sweep`] put the module behind a discrete-event engine
//! endpoint. The paper's figures and tables are rows of
//! `shield5g_bench::experiments`, which build on these helpers.

use crate::paka::{populate_registry, PakaKind, PakaModule, SgxConfig};
use crate::stats::Summary;
use shield5g_crypto::ident::{Plmn, Supi};
use shield5g_crypto::keys::ServingNetworkName;
use shield5g_hmee::platform::SgxPlatform;
use shield5g_infra::host::Host;
use shield5g_infra::image::Registry;
use shield5g_nf::backend::{
    AkaOp, AmfAkaRequest, AusfAkaRequest, DeriveKamf, DeriveSe, GenerateAv, UdmAkaRequest,
};
use shield5g_sim::http::{HttpRequest, SharedPaths};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;

const K: [u8; 16] = [0x46; 16];
const OPC: [u8; 16] = [0xcd; 16];

/// Deployment flavour for a single-module experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModuleDeployment {
    /// Plain container baseline.
    Container,
    /// SGX enclave with the given configuration.
    Sgx(SgxConfig),
}

/// The standard AKA request for a module (Table I inputs).
#[must_use]
pub fn standard_request(kind: PakaKind) -> HttpRequest {
    let snn = ServingNetworkName::of(&Plmn::test_network());
    let supi = Supi::numbered(Plmn::test_network(), 1, 10);
    match kind {
        PakaKind::EUdm => GenerateAv::request(
            &mut SharedPaths::default(),
            &UdmAkaRequest {
                supi,
                opc: OPC.into(),
                rand: [0x23; 16],
                sqn: [0, 0, 0, 0, 0, 1],
                amf_field: [0x80, 0],
                snn,
            },
        ),
        PakaKind::EAusf => DeriveSe::request(
            &mut SharedPaths::default(),
            &AusfAkaRequest {
                rand: [0x23; 16],
                xres_star: [0x5a; 16],
                kausf: [0x11; 32].into(),
                snn,
            },
        ),
        PakaKind::EAmf => DeriveKamf::request(
            &mut SharedPaths::default(),
            &AmfAkaRequest {
                kseaf: [0x22; 32].into(),
                supi,
                abba: [0, 0],
            },
        ),
    }
}

/// Deploys one module in a fresh world.
///
/// # Panics
///
/// Panics when deployment fails — the harness controls all inputs, so a
/// failure is a harness bug.
#[must_use]
pub fn deploy_module(seed: u64, kind: PakaKind, deployment: ModuleDeployment) -> (Env, PakaModule) {
    let mut env = Env::new(seed);
    env.log.disable();
    let mut registry = Registry::new();
    populate_registry(&mut registry);
    let platform = SgxPlatform::new(&mut env);
    let mut host = Host::with_sgx("r450", platform);
    let mut module = match deployment {
        #[expect(clippy::expect_used, reason = "the harness registry holds every image")]
        ModuleDeployment::Container => {
            PakaModule::deploy_container(&mut env, &mut host, &registry, kind)
                .expect("container deploy")
        }
        #[expect(clippy::expect_used, reason = "all images registered; host has SGX")]
        ModuleDeployment::Sgx(cfg) => {
            PakaModule::deploy_sgx(&mut env, &mut host, &registry, kind, cfg).expect("sgx deploy")
        }
    };
    if kind == PakaKind::EUdm {
        let supi = Supi::numbered(Plmn::test_network(), 1, 10);
        module.provision_subscriber_key(&mut env, supi.as_str(), K);
    }
    (env, module)
}

/// Serves `reps` requests after warmup and summarises L_F / L_T.
#[must_use]
pub fn measure_lf_lt(
    seed: u64,
    kind: PakaKind,
    deployment: ModuleDeployment,
    reps: u32,
) -> (Summary, Summary) {
    let (mut env, mut module) = deploy_module(seed, kind, deployment);
    let request = standard_request(kind);
    let _ = module.serve(&mut env, request.clone()); // warm-up / initial
    let mut lf = Vec::with_capacity(reps as usize);
    let mut lt = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let (_resp, m) = module.serve(&mut env, request.clone());
        lf.push(m.functional);
        lt.push(m.total);
    }
    (Summary::of(&lf), Summary::of(&lt))
}

/// Measures VNF-side response times for one deployment; the first-request
/// sample is returned separately (the initial response, §V-B4).
#[must_use]
pub fn measure_response_times(
    seed: u64,
    kind: PakaKind,
    deployment: ModuleDeployment,
    reps: u32,
) -> (SimDuration, Vec<SimDuration>) {
    let (mut env, module) = deploy_module(seed, kind, deployment);
    let bridge = std::rc::Rc::new(std::cell::RefCell::new(
        shield5g_infra::bridge::BridgeNetwork::new("br-oai"),
    ));
    let mut client = crate::remote::PakaClient::new(
        std::rc::Rc::new(std::cell::RefCell::new(module)),
        bridge,
        "vnf.oai",
    );
    let request = standard_request(kind);
    for _ in 0..=reps {
        #[expect(clippy::expect_used, reason = "the standard request fits its module")]
        client
            .call(&mut env, &request.path, request.body.clone())
            .expect("module call");
    }
    let metrics = client.metrics();
    let m = metrics.borrow();
    let initial = m.response_times[0];
    (initial, m.response_times[1..].to_vec())
}

/// One row of the concurrency sweep.
#[derive(Clone, Debug)]
pub struct ConcurrencyRow {
    /// Concurrent UE registration flows hitting the module.
    pub concurrent_clients: u32,
    /// `sgx.max_threads` configured.
    pub max_threads: u32,
    /// Mean response time across the batch (queueing included).
    pub mean_response: SimDuration,
}

/// Registers a freshly deployed module as a discrete-event endpoint on
/// its own engine (worker count = the module's serving-thread budget) and
/// returns `(env, engine)` ready for scheduled arrivals.
#[must_use]
pub fn module_engine(
    seed: u64,
    kind: PakaKind,
    deployment: ModuleDeployment,
) -> (Env, shield5g_sim::engine::Engine) {
    let (mut env, mut module) = deploy_module(seed, kind, deployment);
    let _ = module.serve(&mut env, standard_request(kind)); // warm
    let workers = module.app_threads();
    let bridge = std::rc::Rc::new(std::cell::RefCell::new(
        shield5g_infra::bridge::BridgeNetwork::new("br-oai"),
    ));
    let client = crate::remote::PakaClient::new(
        std::rc::Rc::new(std::cell::RefCell::new(module)),
        bridge,
        "vnf.oai",
    );
    let mut engine = shield5g_sim::engine::Engine::new();
    engine.register(
        kind.endpoint(),
        workers,
        shield5g_sim::engine::Engine::leaf(shield5g_sim::service::service_handle(
            client.endpoint(),
        )),
    );
    (env, engine)
}

/// **§V-B2 extension**: the paper notes that "increasing the number of
/// concurrent clients without impacting the performance of the modules
/// would require changing the maximum allowed number of threads" —
/// Gramine reserves 3 helper threads, so a module with `max_threads = T`
/// serves `T − 3` flows in parallel and queues the rest. This sweep fires
/// `clients` simultaneous arrivals at the module's engine endpoint under
/// each thread budget: queueing and overlap fall out of event ordering
/// (busy workers hold their slot for the full service time), not from an
/// analytic schedule.
#[must_use]
pub fn concurrency_sweep(
    base_seed: u64,
    clients: &[u32],
    thread_configs: &[u32],
) -> Vec<ConcurrencyRow> {
    let mut rows = Vec::new();
    for &max_threads in thread_configs {
        for &n in clients {
            let cfg = SgxConfig {
                max_threads,
                ..SgxConfig::default()
            };
            let (mut env, mut engine) = module_engine(
                base_seed + u64::from(max_threads),
                PakaKind::EUdm,
                ModuleDeployment::Sgx(cfg),
            );
            let request = standard_request(PakaKind::EUdm);
            let t0 = env.clock.now();
            for _ in 0..n {
                engine.schedule_request(t0, PakaKind::EUdm.endpoint(), request.clone());
            }
            let done = engine.run_until_idle(&mut env);
            assert_eq!(done.len(), n as usize, "all flows must complete");
            let total = done
                .iter()
                .fold(SimDuration::ZERO, |acc, c| acc + (c.finished - c.submitted));
            rows.push(ConcurrencyRow {
                concurrent_clients: n,
                max_threads,
                mean_response: total / u64::from(n),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_needs_threads() {
        // With 4 threads (1 app thread), 8 concurrent flows queue up;
        // with 12 threads (9 app threads) they nearly do not.
        let rows = concurrency_sweep(950, &[1, 8], &[4, 12]);
        let find = |threads: u32, clients: u32| {
            rows.iter()
                .find(|r| r.max_threads == threads && r.concurrent_clients == clients)
                .unwrap()
                .mean_response
        };
        let single_4 = find(4, 1);
        let loaded_4 = find(4, 8);
        let loaded_12 = find(12, 8);
        assert!(
            loaded_4 > single_4 * 3,
            "queueing must dominate: {loaded_4} vs {single_4}"
        );
        assert!(
            loaded_12 < loaded_4 / 2,
            "more threads must relieve queueing"
        );
    }

    #[test]
    fn simultaneous_arrivals_queue_monotonically_then_overlap_with_workers() {
        const K: u32 = 6;
        let run = |max_threads: u32| {
            let cfg = SgxConfig {
                max_threads,
                ..SgxConfig::default()
            };
            let (mut env, mut engine) =
                module_engine(952, PakaKind::EUdm, ModuleDeployment::Sgx(cfg));
            let request = standard_request(PakaKind::EUdm);
            let t0 = env.clock.now();
            for _ in 0..K {
                engine.schedule_request(t0, PakaKind::EUdm.endpoint(), request.clone());
            }
            let mut done = engine.run_until_idle(&mut env);
            assert_eq!(done.len(), K as usize);
            done.sort_by_key(|c| c.finished);
            done
        };

        // 1 app worker: FIFO service, so each of the K simultaneous
        // arrivals waits behind all earlier ones — response times are
        // strictly increasing in completion order.
        let queued = run(4);
        let lone = queued[0].finished - queued[0].submitted;
        for pair in queued.windows(2) {
            assert!(
                pair[1].finished - pair[1].submitted > pair[0].finished - pair[0].submitted,
                "queueing must grow monotonically"
            );
        }

        // ≥K app workers: every flow gets a worker at t0 and completes
        // within a constant factor of a lone request.
        let overlapped = run(K + 3);
        for c in &overlapped {
            assert_eq!(c.queued, SimDuration::ZERO);
            assert!(
                c.finished - c.submitted < lone * 2,
                "with {K} workers a flow took {} vs lone {lone}",
                c.finished - c.submitted
            );
        }
    }

    #[test]
    fn near_simultaneous_arrivals_serialize_or_overlap_by_thread_budget() {
        // Two registrations 1 µs apart: a 1-app-thread eUDM (max_threads=4)
        // must serve them back-to-back (second waits in queue), while a
        // 4-app-thread eUDM (max_threads=7) serves them concurrently — the
        // second flow never queues. This is pure event ordering: nothing
        // in the harness computes a schedule.
        let run = |max_threads: u32| {
            let cfg = SgxConfig {
                max_threads,
                ..SgxConfig::default()
            };
            let (mut env, mut engine) =
                module_engine(951, PakaKind::EUdm, ModuleDeployment::Sgx(cfg));
            let request = standard_request(PakaKind::EUdm);
            let t0 = env.clock.now();
            engine.schedule_request(t0, PakaKind::EUdm.endpoint(), request.clone());
            engine.schedule_request(
                t0 + SimDuration::from_micros(1),
                PakaKind::EUdm.endpoint(),
                request,
            );
            let mut done = engine.run_until_idle(&mut env);
            assert_eq!(done.len(), 2);
            done.sort_by_key(|c| c.submitted);
            done
        };

        let serialized = run(4);
        assert!(
            serialized[1].queued > SimDuration::ZERO,
            "1 app thread: second arrival must wait for the first"
        );
        assert!(serialized[1].finished >= serialized[0].finished);

        let overlapped = run(7);
        assert_eq!(
            overlapped[1].queued,
            SimDuration::ZERO,
            "4 app threads: second arrival must start immediately"
        );
        let second_latency = overlapped[1].finished - overlapped[1].submitted;
        let second_serialized = serialized[1].finished - serialized[1].submitted;
        assert!(
            second_latency < second_serialized * 2 / 3,
            "overlap must beat queueing: {second_latency} vs {second_serialized}"
        );
    }

    #[test]
    fn latency_outlier_fraction_is_small() {
        // §V-A2: "We noted less than 5% outliers in our measurements."
        let (mut env, mut module) = deploy_module(
            990,
            PakaKind::EUdm,
            ModuleDeployment::Sgx(SgxConfig::default()),
        );
        let request = standard_request(PakaKind::EUdm);
        let _ = module.serve(&mut env, request.clone());
        let samples: Vec<_> = (0..200)
            .map(|_| module.serve(&mut env, request.clone()).1.total)
            .collect();
        let frac = crate::stats::Summary::outlier_fraction(&samples);
        assert!(frac < 0.05, "outlier fraction {frac:.3}");
    }
}
