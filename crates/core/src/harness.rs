//! The §V characterization harness: every module-level experiment the
//! paper reports, as reusable functions over the simulated testbed.
//!
//! Each experiment builds fresh deterministic worlds from a base seed,
//! deploys the module(s) under test, runs the workload, and returns
//! [`Summary`] statistics matching the paper's box plots and tables. The
//! end-to-end and OTA experiments (which need the RAN) live in
//! `shield5g-ran`.

use crate::paka::{paka_image, populate_registry, PakaKind, PakaModule, SgxConfig};
use crate::stats::Summary;
use shield5g_crypto::ident::{Plmn, Supi};
use shield5g_crypto::keys::ServingNetworkName;
use shield5g_hmee::counters::SgxCounters;
use shield5g_hmee::platform::SgxPlatform;
use shield5g_infra::host::Host;
use shield5g_infra::image::Registry;
use shield5g_libos::gsc::{transform, ImageSpec};
use shield5g_libos::libos::GramineLibos;
use shield5g_libos::manifest::Manifest;
use shield5g_nf::backend::{
    AkaOp, AmfAkaRequest, AusfAkaRequest, DeriveKamf, DeriveSe, GenerateAv, UdmAkaRequest,
};
use shield5g_sim::http::HttpRequest;
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
        PakaKind::EUdm => GenerateAv::request(&UdmAkaRequest {
            supi,
            opc: OPC.into(),
            rand: [0x23; 16],
            sqn: [0, 0, 0, 0, 0, 1],
            amf_field: [0x80, 0],
            snn,
        }),
        PakaKind::EAusf => DeriveSe::request(&AusfAkaRequest {
            rand: [0x23; 16],
            xres_star: [0x5a; 16],
            kausf: [0x11; 32].into(),
            snn,
        }),
        PakaKind::EAmf => DeriveKamf::request(&AmfAkaRequest {
            kseaf: [0x22; 32].into(),
            supi,
            abba: [0, 0],
        }),
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
        ModuleDeployment::Container => {
            PakaModule::deploy_container(&mut env, &mut host, &registry, kind)
                .expect("container deploy")
        }
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

/// **Figure 7**: enclave load time per P-AKA module.
///
/// Each repetition deploys a fresh enclave (slice creation / migration,
/// §V-B1) and records the time until the module is operational.
#[must_use]
pub fn fig7_enclave_load(base_seed: u64, reps: u32) -> Vec<(PakaKind, Summary)> {
    PakaKind::all()
        .into_iter()
        .map(|kind| {
            let samples: Vec<SimDuration> = (0..reps)
                .map(|i| {
                    let (_env, module) = deploy_module(
                        base_seed + u64::from(i),
                        kind,
                        ModuleDeployment::Sgx(SgxConfig::default()),
                    );
                    module.boot_report().expect("sgx boot report").load_time
                })
                .collect();
            (kind, Summary::of(&samples))
        })
        .collect()
}

/// One configuration row of the Figure 8 sweep.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Row label, e.g. `"threads=4 epc=512M"` or `"non-SGX"`.
    pub label: String,
    /// Functional latency summary.
    pub lf: Summary,
    /// Total latency summary.
    pub lt: Summary,
}

/// **Figure 8**: eUDM L_F/L_T under varying `sgx.max_threads` and EPC
/// size, plus the non-SGX baseline.
#[must_use]
pub fn fig8_threads_epc(base_seed: u64, reps: u32) -> Vec<Fig8Row> {
    let gib = 1024 * 1024 * 1024;
    let configs: [(String, Option<SgxConfig>); 5] = [
        (
            "threads=4 epc=512M".into(),
            Some(SgxConfig {
                max_threads: 4,
                enclave_size_bytes: 512 * 1024 * 1024,
                preheat: true,
                exitless: false,
            }),
        ),
        (
            "threads=10 epc=512M".into(),
            Some(SgxConfig {
                max_threads: 10,
                enclave_size_bytes: 512 * 1024 * 1024,
                preheat: true,
                exitless: false,
            }),
        ),
        // §V-B2: "Increasing the EPC size from 512MB to 2GB does not have
        // any effect on the performance of the modules."
        (
            "threads=10 epc=2G".into(),
            Some(SgxConfig {
                max_threads: 10,
                enclave_size_bytes: 2 * gib,
                preheat: true,
                exitless: false,
            }),
        ),
        (
            "threads=50 epc=8G".into(),
            Some(SgxConfig {
                max_threads: 50,
                enclave_size_bytes: 8 * gib,
                preheat: true,
                exitless: false,
            }),
        ),
        ("non-SGX".into(), None),
    ];
    configs
        .into_iter()
        .map(|(label, cfg)| {
            let deployment = match cfg {
                Some(c) => ModuleDeployment::Sgx(c),
                None => ModuleDeployment::Container,
            };
            let (lf, lt) = measure_lf_lt(base_seed, PakaKind::EUdm, deployment, reps);
            Fig8Row { label, lf, lt }
        })
        .collect()
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

/// One module row of Figure 9 (and the L_F/L_T columns of Table II).
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// The module.
    pub kind: PakaKind,
    /// Container-mode functional latency.
    pub lf_container: Summary,
    /// SGX functional latency.
    pub lf_sgx: Summary,
    /// Container-mode total latency.
    pub lt_container: Summary,
    /// SGX total latency.
    pub lt_sgx: Summary,
}

impl Fig9Row {
    /// L_F overhead ratio (Table II column `L_F`).
    #[must_use]
    pub fn lf_ratio(&self) -> f64 {
        self.lf_sgx.median_ratio_to(&self.lf_container)
    }

    /// L_T overhead ratio (Table II column `L_T`).
    #[must_use]
    pub fn lt_ratio(&self) -> f64 {
        self.lt_sgx.median_ratio_to(&self.lt_container)
    }
}

/// **Figure 9**: functional and total latency, container vs SGX, for all
/// three modules.
#[must_use]
pub fn fig9_latency(base_seed: u64, reps: u32) -> Vec<Fig9Row> {
    PakaKind::all()
        .into_iter()
        .map(|kind| {
            let (lf_container, lt_container) =
                measure_lf_lt(base_seed, kind, ModuleDeployment::Container, reps);
            let (lf_sgx, lt_sgx) = measure_lf_lt(
                base_seed + 1000,
                kind,
                ModuleDeployment::Sgx(SgxConfig::default()),
                reps,
            );
            Fig9Row {
                kind,
                lf_container,
                lf_sgx,
                lt_container,
                lt_sgx,
            }
        })
        .collect()
}

/// One module row of Figure 10 (and the R columns of Table II).
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// The module.
    pub kind: PakaKind,
    /// Container-mode stable response time R^C.
    pub r_container: Summary,
    /// SGX stable response time R_S^SGX.
    pub r_sgx_stable: Summary,
    /// SGX initial response time R_I^SGX (first request after deploy).
    pub r_sgx_initial: Summary,
}

impl Fig10Row {
    /// R_S^SGX / R^C (Table II).
    #[must_use]
    pub fn rs_ratio(&self) -> f64 {
        self.r_sgx_stable.median_ratio_to(&self.r_container)
    }

    /// R_I^SGX / R_S^SGX (Table II).
    #[must_use]
    pub fn ri_over_rs(&self) -> f64 {
        self.r_sgx_initial.median_ratio_to(&self.r_sgx_stable)
    }
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
        client
            .call(&mut env, &request.path, request.body.clone())
            .expect("module call");
    }
    let metrics = client.metrics();
    let m = metrics.borrow();
    let initial = m.response_times[0];
    (initial, m.response_times[1..].to_vec())
}

/// **Figure 10**: stable and initial response times of the P-AKA modules,
/// with the container baseline for Table II's ratios.
#[must_use]
pub fn fig10_response(base_seed: u64, stable_reps: u32, initial_reps: u32) -> Vec<Fig10Row> {
    PakaKind::all()
        .into_iter()
        .map(|kind| {
            let (_, rc) =
                measure_response_times(base_seed, kind, ModuleDeployment::Container, stable_reps);
            let (_, rs) = measure_response_times(
                base_seed + 2000,
                kind,
                ModuleDeployment::Sgx(SgxConfig::default()),
                stable_reps,
            );
            // Initial responses need fresh deployments per sample.
            let initials: Vec<SimDuration> = (0..initial_reps)
                .map(|i| {
                    let (initial, _) = measure_response_times(
                        base_seed + 3000 + u64::from(i),
                        kind,
                        ModuleDeployment::Sgx(SgxConfig::default()),
                        1,
                    );
                    initial
                })
                .collect();
            Fig10Row {
                kind,
                r_container: Summary::of(&rc),
                r_sgx_stable: Summary::of(&rs),
                r_sgx_initial: Summary::of(&initials),
            }
        })
        .collect()
}

/// One (module, UE count) row of Table III.
#[derive(Clone, Copy, Debug)]
pub struct Table3Row {
    /// The module.
    pub kind: PakaKind,
    /// UEs registered.
    pub ues: u32,
    /// Counter totals after the registrations.
    pub counters: SgxCounters,
}

/// **Table III**: SGX-specific operational statistics. Registers `1..=
/// max_ues` UEs against fresh module deployments and reports the counter
/// totals, plus the empty-workload (bare GSC) baseline.
#[must_use]
pub fn table3_sgx_metrics(base_seed: u64, max_ues: u32) -> (Vec<Table3Row>, SgxCounters) {
    let mut rows = Vec::new();
    for kind in PakaKind::all() {
        for ues in 1..=max_ues {
            let (mut env, mut module) = deploy_module(
                base_seed + u64::from(ues),
                kind,
                ModuleDeployment::Sgx(SgxConfig::default()),
            );
            let request = standard_request(kind);
            for _ in 0..ues {
                let (resp, _) = module.serve(&mut env, request.clone());
                assert!(resp.is_success(), "module request failed");
            }
            rows.push(Table3Row {
                kind,
                ues,
                counters: module.sgx_stats().expect("sgx counters"),
            });
        }
    }
    (rows, empty_workload_counters(base_seed))
}

/// Boots the bare GSC base image ("Empty workload" row of Table III).
#[must_use]
pub fn empty_workload_counters(seed: u64) -> SgxCounters {
    let mut env = Env::new(seed);
    env.log.disable();
    let platform = SgxPlatform::new(&mut env);
    let image = ImageSpec::synthetic("empty-workload", "/gramine/app", 1_900_000_000, 209)
        .with_working_set(2 * 1024 * 1024);
    let manifest = Manifest::paka_default("x").with_enclave_size(192 * 1024 * 1024);
    let shielded = transform(&image, manifest, &[9; 32]).expect("gsc transform");
    let libos = GramineLibos::boot(&mut env, &shielded, &platform).expect("boot");
    libos.sgx_stats()
}

/// Per-UE-registration transition delta for a module (§V-B5: "around 90").
#[must_use]
pub fn per_registration_delta(seed: u64, kind: PakaKind) -> SgxCounters {
    let (mut env, mut module) =
        deploy_module(seed, kind, ModuleDeployment::Sgx(SgxConfig::default()));
    let request = standard_request(kind);
    let _ = module.serve(&mut env, request.clone());
    let before = module.sgx_stats().expect("counters");
    let _ = module.serve(&mut env, request);
    module.sgx_stats().expect("counters").delta_since(&before)
}

/// §V-B7 ablation result: stable response times under optimisations.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Configuration label.
    pub label: String,
    /// Stable response-time summary.
    pub r_stable: Summary,
}

/// **§V-B7 ablations**: baseline SGX vs Gramine exitless OCALLs vs a
/// user-level network stack inside the enclave (mTCP-style), on eUDM.
#[must_use]
pub fn ablation_optimizations(base_seed: u64, reps: u32) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    // Baseline.
    let (_, rs) = measure_response_times(
        base_seed,
        PakaKind::EUdm,
        ModuleDeployment::Sgx(SgxConfig::default()),
        reps,
    );
    rows.push(AblationRow {
        label: "sgx baseline".into(),
        r_stable: Summary::of(&rs),
    });
    // Exitless.
    let (_, rs) = measure_response_times(
        base_seed + 1,
        PakaKind::EUdm,
        ModuleDeployment::Sgx(SgxConfig {
            exitless: true,
            ..SgxConfig::default()
        }),
        reps,
    );
    rows.push(AblationRow {
        label: "exitless ocalls".into(),
        r_stable: Summary::of(&rs),
    });
    // User-level TCP (mTCP/DPDK-style): syscall choreography handled
    // in-enclave.
    let (mut env, mut module) = deploy_module(
        base_seed + 2,
        PakaKind::EUdm,
        ModuleDeployment::Sgx(SgxConfig::default()),
    );
    module.set_userspace_net(true);
    let bridge = std::rc::Rc::new(std::cell::RefCell::new(
        shield5g_infra::bridge::BridgeNetwork::new("br-oai"),
    ));
    let mut client = crate::remote::PakaClient::new(
        std::rc::Rc::new(std::cell::RefCell::new(module)),
        bridge,
        "vnf.oai",
    );
    let request = standard_request(PakaKind::EUdm);
    for _ in 0..=reps {
        client
            .call(&mut env, &request.path, request.body.clone())
            .expect("call");
    }
    let metrics = client.metrics();
    let samples = metrics.borrow().response_times[1..].to_vec();
    rows.push(AblationRow {
        label: "user-level tcp (mtcp)".into(),
        r_stable: Summary::of(&samples),
    });
    rows
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

// The §V-B7 horizontal-scaling experiment lives in `shield5g-scale`
// (`shield5g_scale::harness::{scaling_points, run_scaling_point}`, run by
// `shield5g_bench::sweeps::ablation_sweep`), which drives real replica
// pools instead of extrapolating from a single instance.

/// Verification that the Table I parameter sizes hold on the wire.
#[derive(Clone, Copy, Debug)]
pub struct Table1Row {
    /// The module.
    pub kind: PakaKind,
    /// Cryptographic input bytes (Table I "Enclave Input" total).
    pub input_bytes: usize,
    /// Cryptographic output bytes (Table I "Enclave Output" total).
    pub output_bytes: usize,
}

/// **Table I**: the enclave I/O parameter sizes.
#[must_use]
pub fn table1_parameter_sizes() -> Vec<Table1Row> {
    vec![
        // eUDM in: OPc 16 + RAND 16 + SQN 6 + AMF 2 = 40;
        //      out: RAND 16 + XRES* 16 + KAUSF 32 + AUTN 16 = 80.
        Table1Row {
            kind: PakaKind::EUdm,
            input_bytes: 16 + 16 + 6 + 2,
            output_bytes: 16 + 16 + 32 + 16,
        },
        // eAUSF in: RAND 16 + XRES* 16 + SNN 2(id) + KAUSF 32 = 66;
        //       out: KSEAF 32 + HXRES* 16 = 48 (the paper lists HXRES* as
        //       8 bytes; TS 33.501 A.5 defines 128 bits — we follow the
        //       spec and note the deviation in EXPERIMENTS.md).
        Table1Row {
            kind: PakaKind::EAusf,
            input_bytes: 16 + 16 + 2 + 32,
            output_bytes: 32 + 16,
        },
        // eAMF in: KSEAF 32; out: KAMF 32.
        Table1Row {
            kind: PakaKind::EAmf,
            input_bytes: 32,
            output_bytes: 32,
        },
    ]
}

/// Fig. 7 supporting detail: image bytes hashed per module (why eUDM
/// loads slowest).
#[must_use]
pub fn module_image_bytes(kind: PakaKind) -> u64 {
    paka_image(kind).spec.total_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_loads_are_about_a_minute_and_ordered() {
        let rows = fig7_enclave_load(100, 3);
        assert_eq!(rows.len(), 3);
        for (kind, s) in &rows {
            assert!(
                s.median > SimDuration::from_secs(50) && s.median < SimDuration::from_secs(70),
                "{} load {}",
                kind.name(),
                s.median
            );
        }
        // eUDM (largest image) slowest.
        assert!(rows[0].1.median > rows[1].1.median);
        assert!(rows[1].1.median > rows[2].1.median);
    }

    #[test]
    fn fig9_ratios_in_paper_bands() {
        let rows = fig9_latency(200, 40);
        let expected = [(1.1, 1.35), (1.2, 1.45), (1.3, 1.65)];
        for (row, (lo, hi)) in rows.iter().zip(expected) {
            let r = row.lf_ratio();
            assert!(r >= lo && r < hi, "{} L_F ratio {r:.2}", row.kind.name());
            let lt = row.lt_ratio();
            assert!(
                lt > 1.6 && lt < 3.0,
                "{} L_T ratio {lt:.2}",
                row.kind.name()
            );
        }
        // L_T overhead grows as the function shrinks (paper Table II).
        assert!(rows[2].lt_ratio() > rows[0].lt_ratio());
    }

    #[test]
    fn fig10_shapes() {
        let rows = fig10_response(300, 30, 3);
        for row in &rows {
            let rs = row.rs_ratio();
            assert!(
                rs > 1.9 && rs < 3.3,
                "{} R_S ratio {rs:.2}",
                row.kind.name()
            );
            let ri = row.ri_over_rs();
            assert!(
                ri > 12.0 && ri < 30.0,
                "{} R_I/R_S {ri:.1}",
                row.kind.name()
            );
        }
    }

    #[test]
    fn fig8_sweep_shapes() {
        let rows = fig8_threads_epc(400, 25);
        assert_eq!(rows.len(), 5);
        let base = &rows[0];
        let two_gig = &rows[2];
        let big_epc = &rows[3];
        let native = &rows[4];
        // Non-SGX is fastest; 8G EPC (over-committed) is slowest/noisiest.
        assert!(native.lf.median < base.lf.median);
        assert!(big_epc.lf.median >= base.lf.median);
        assert!(
            big_epc.lf.iqr() > base.lf.iqr(),
            "paging should widen the IQR"
        );
        // §V-B2: 2 GB EPC performs like 512 MB (within 5%).
        let drift = two_gig.lf.median.as_nanos() as f64 / base.lf.median.as_nanos() as f64;
        assert!((0.95..1.05).contains(&drift), "2G vs 512M drift {drift:.3}");
    }

    #[test]
    fn table3_shape_matches_paper() {
        let (rows, empty) = table3_sgx_metrics(500, 2);
        // Empty workload: exactly the paper's 762/680/49674.
        assert_eq!(empty.eenter, 762);
        assert_eq!(empty.eexit, 680);
        assert_eq!(empty.aex, 49_674);
        for pair in rows.chunks(2) {
            let one = &pair[0];
            let two = &pair[1];
            // EENTER/EEXIT grow ~91/UE; AEX stays flat.
            let d_enter = two.counters.eenter - one.counters.eenter;
            assert!((85..=100).contains(&d_enter), "{d_enter} eenter/UE");
            let aex_diff = two.counters.aex.abs_diff(one.counters.aex);
            assert!(aex_diff < 200, "AEX drift {aex_diff}");
            // Totals in the paper's 1400-1800 band at 1-2 UEs.
            assert!(
                (1300..=1900).contains(&one.counters.eenter),
                "{}",
                one.counters.eenter
            );
            // EENTER exceeds EEXIT by a near-constant (~94).
            let gap = one.counters.eenter - one.counters.eexit;
            assert!((80..=110).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn per_registration_delta_is_about_91() {
        let d = per_registration_delta(600, PakaKind::EAusf);
        assert!((88..=96).contains(&d.eenter), "{}", d.eenter);
        assert_eq!(d.eenter, d.eexit);
    }

    #[test]
    fn ablations_improve_response_time() {
        let rows = ablation_optimizations(700, 15);
        assert_eq!(rows.len(), 3);
        let baseline = rows[0].r_stable.median;
        assert!(
            rows[1].r_stable.median < baseline,
            "exitless should be faster"
        );
        assert!(rows[2].r_stable.median < baseline, "mtcp should be faster");
    }

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

    #[test]
    fn table1_sizes() {
        let rows = table1_parameter_sizes();
        assert_eq!(rows[0].input_bytes, 40);
        assert_eq!(rows[0].output_bytes, 80);
        assert_eq!(rows[2].input_bytes, 32);
    }

    #[test]
    fn image_bytes_ordering_drives_fig7() {
        assert!(module_image_bytes(PakaKind::EUdm) > module_image_bytes(PakaKind::EAusf));
        assert!(module_image_bytes(PakaKind::EAusf) > module_image_bytes(PakaKind::EAmf));
    }
}
