//! Host-clock kernels: one fixed-input loop per public entry point of a
//! layer. Each is calibrated to ≥ 0.2 s per repetition, repeated five
//! times, and reported as the median time per call with allocs per call.
//! Kernels bind only to public functions, so a signature change here is
//! a signature change for users too.

use crate::alloc;
use crate::clock;
use crate::metrics::{LayerValues, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use shield5g::core::harness::{deploy_module, standard_request, ModuleDeployment};
use shield5g::core::paka::{paka_image, PakaKind, PakaModule, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::crypto::aes::Aes128;
use shield5g::crypto::ecies::HomeNetworkKeyPair;
use shield5g::crypto::hmac::hmac_sha256;
use shield5g::crypto::ident::{Plmn, Supi};
use shield5g::crypto::keys::{generate_he_av, ue_process_challenge, ServingNetworkName};
use shield5g::crypto::milenage::Milenage;
use shield5g::crypto::sha256::Sha256;
use shield5g::crypto::x25519::{x25519, x25519_base};
use shield5g::hmee::enclave::EnclaveBuilder;
use shield5g::hmee::platform::SgxPlatform;
use shield5g::infra::bridge::BridgeNetwork;
use shield5g::libos::gsc;
use shield5g::libos::libos::GramineLibos;
use shield5g::libos::manifest::Manifest;
use shield5g::mw::{
    AdmissionLayer, BreakerLayer, BreakerPolicy, DeadlineLayer, FaultLayer, FaultSwitch, ObsLayer,
    RetryLayer, RetryPolicy, Stack,
};
use shield5g::nf::messages::{Ngap, UeIdentity};
use shield5g::nf::nas_security::NasSecurityContext;
use shield5g::nf::sbi::{AuthenticateRequest, SbiClient};
use shield5g::obs::export::spans_jsonl;
use shield5g::obs::hub::{self, ObsHandle};
use shield5g::obs::span::{SpanKind, SpanLog};
use shield5g::ran::workload::{poisson_registrations, test_supi, WorkloadSpec};
use shield5g::scale::avcache::{AvCache, AvCacheConfig};
use shield5g::scale::pool::{EnclavePool, PoolConfig};
use shield5g::scale::router::HashRing;
use shield5g::sim::engine::{AdmissionPolicy, Engine, EngineServiceHandle};
use shield5g::sim::http::{HttpRequest, HttpResponse};
use shield5g::sim::service::{service_handle, Service};
use shield5g::sim::time::{SimDuration, SimTime};
use shield5g::sim::tls::{self, TlsIdentity};
use shield5g::sim::Env;
use shield5g_bench::runner::{self, Job};
use shield5g_bench::sweeps::pool_scaling_sweep;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const REPS: usize = 5;
const REP_TARGET: Duration = Duration::from_millis(200);
/// Open-loop requests of one engine-kernel run.
const ENGINE_REQUESTS: u64 = 100_000;

/// Runs kernels and files their results under their metric names.
struct Bench<'a> {
    tracer: &'a mut Tracer,
    values: &'a mut LayerValues,
    /// Wall clock in place of the thread's on-CPU clock: for the kernels
    /// whose work runs on other threads.
    wall: Option<Instant>,
}

/// Layer (the part before the dot) and unit length in ns of a host
/// kernel metric.
fn layer_and_unit_ns(name: &str) -> (&'static str, f64) {
    let &(full, unit) = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
    let unit_ns = match unit {
        "ns" => 1.0,
        "us" => 1e3,
        "ms" => 1e6,
        "s" => 1e9,
        other => panic!("{name}: {other} is not a host time unit"),
    };
    (
        full.split('.').next().expect("split yields one item"),
        unit_ns,
    )
}

impl Bench<'_> {
    fn now(&self) -> Duration {
        self.wall.map_or_else(clock::cpu, |origin| origin.elapsed())
    }

    /// Times `f`, one call per iteration; see [`Bench::per`].
    fn run(&mut self, name: &'static str, f: impl FnMut()) {
        self.per(name, 1.0, f);
    }

    /// Times `f`, which does `units` units of work per call, and records
    /// the median time per unit in the metric's own unit. Returns allocs
    /// per unit.
    fn per(&mut self, name: &'static str, units: f64, mut f: impl FnMut()) -> f64 {
        let (layer, scale) = layer_and_unit_ns(name);
        let span = self.tracer.open(layer, name);
        // Calibrate: grow the count until a repetition is long enough to
        // time, then size repetitions to the target.
        let mut calls: u64 = 1;
        let per_call = loop {
            let started = self.now();
            for _ in 0..calls {
                f();
            }
            let elapsed = self.now() - started;
            if elapsed >= REP_TARGET / 10 {
                break elapsed.as_secs_f64() / calls as f64;
            }
            calls *= 4;
        };
        let iters = ((REP_TARGET.as_secs_f64() / per_call).ceil() as u64).max(1);
        let mut ns_per_unit = Vec::with_capacity(REPS);
        let mut allocs_per_unit = 0.0;
        for _ in 0..REPS {
            let allocs_before = alloc::allocs();
            let started = self.now();
            for _ in 0..iters {
                f();
            }
            let elapsed = self.now() - started;
            allocs_per_unit = (alloc::allocs() - allocs_before) as f64 / (iters as f64 * units);
            ns_per_unit.push(elapsed.as_nanos() as f64 / (iters as f64 * units));
        }
        self.tracer.close(span, calls + iters * REPS as u64);
        let (q1, median, q3) = stats::quartiles(&ns_per_unit);
        self.values.set(
            name,
            median / scale,
            format!(
                "host {}; median of {REPS} x {iters} calls, q1 {:.4} q3 {:.4}, {allocs_per_unit:.2} allocs/call",
                if self.wall.is_some() { "wall" } else { "on-CPU" },
                q1 / scale,
                q3 / scale
            ),
        );
        allocs_per_unit
    }
}

struct Echo;

impl Service for Echo {
    fn handle(&mut self, _env: &mut Env, req: HttpRequest) -> HttpResponse {
        HttpResponse::ok(req.body)
    }
}

fn quiet_env(seed: u64) -> Env {
    let mut env = Env::new(seed);
    env.log.disable();
    env
}

fn crypto(b: &mut Bench) {
    let mil = Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
    let rand = [0x23; 16];
    let snn = ServingNetworkName::new("001", "01");
    let he_av = || {
        generate_he_av(
            &mil,
            black_box(&rand),
            &[0, 0, 0, 0, 0, 1],
            &[0x80, 0],
            &snn,
        )
    };
    b.run("crypto.milenage_f2345_ns", || {
        black_box(mil.f2345(black_box(&rand)));
    });
    b.run("crypto.generate_he_av_ns", || {
        black_box(he_av());
    });
    let av = he_av();
    b.run("crypto.ue_process_challenge_ns", || {
        black_box(
            ue_process_challenge(&mil, black_box(&av.rand), &av.autn, &snn).expect("genuine AUTN"),
        );
    });
    let kib = vec![0xa5u8; 1024];
    b.run("crypto.sha256_1k_ns", || {
        black_box(Sha256::digest(black_box(&kib)));
    });
    b.run("crypto.hmac_sha256_ns", || {
        black_box(hmac_sha256(black_box(&[0x0b; 32]), black_box(&kib[..64])));
    });
    let cipher = Aes128::new(&[0x2b; 16]);
    let mut page = vec![0u8; 4096];
    b.run("crypto.aes_ctr_4k_ns", || {
        cipher.ctr_apply(black_box(&[7; 16]), black_box(&mut page));
    });
    let point = x25519_base(&[0x42; 32]);
    b.run("crypto.x25519_ns", || {
        black_box(x25519(black_box(&[0x77; 32]), black_box(&point)));
    });
    let hn = HomeNetworkKeyPair::from_private(1, [0x8f; 32]);
    let supi = Supi::new(Plmn::test_network(), "0000000001").expect("valid msin");
    let conceal = || supi.conceal_profile_a(hn.id(), hn.public(), black_box(&[0x42; 32]));
    b.run("crypto.suci_conceal_ns", || {
        black_box(conceal());
    });
    let suci = conceal();
    b.run("crypto.suci_deconceal_ns", || {
        black_box(suci.deconceal(&hn).expect("own SUCI"));
    });
}

/// One engine run: `ENGINE_REQUESTS` open-loop requests, 1 µs apart,
/// against a four-worker echo leaf. Returns the trace length (events).
fn engine_run(trace: bool) -> u64 {
    let mut env = quiet_env(1);
    let mut engine = Engine::new();
    engine.set_trace(trace);
    engine.register("echo", 4, Engine::leaf(service_handle(Echo)));
    for i in 0..ENGINE_REQUESTS {
        let req = HttpRequest::post("/echo", vec![0x5a; 64]);
        engine.schedule_request(SimTime::from_nanos(i * 1_000), "echo", req);
    }
    let done = engine.run_until_idle(&mut env);
    assert_eq!(done.len() as u64, ENGINE_REQUESTS, "echo completions");
    engine.trace().len() as u64
}

fn sim(b: &mut Bench) {
    let req = HttpRequest::post("/nausf-auth/authenticate", vec![0x5a; 96]);
    b.run("sim.http_roundtrip_ns", || {
        let wire = black_box(&req).to_bytes();
        let got = HttpRequest::from_bytes(&wire).expect("own request");
        let wire = HttpResponse::ok(got.body).to_bytes();
        black_box(HttpResponse::from_bytes(&wire).expect("own response"));
    });
    let client = TlsIdentity::new("udm.oai", [0x11; 32]);
    let server = TlsIdentity::new("eudm-paka.oai", [0x22; 32]);
    let establish = || tls::establish(&client, &server, [0x33; 32], [0x44; 32]).expect("handshake");
    b.run("sim.tls_establish_ns", || {
        black_box(establish());
    });
    let (mut c, mut s, _) = establish();
    let record = vec![0x5a; 256];
    b.run("sim.tls_seal_open_ns", || {
        let sealed = c.seal(black_box(&record));
        black_box(s.open(&sealed).expect("in-order record"));
    });
    // Trace lines are the engine's events: one per scheduler decision.
    let events = engine_run(true) as f64;
    let allocs = b.per("sim.engine_ns_per_event", events, || {
        black_box(engine_run(true));
    });
    b.values.set(
        "sim.engine_allocs_per_event",
        allocs,
        format!(
            "count; echo leaf, {ENGINE_REQUESTS} open-loop requests, {events} events, trace on"
        ),
    );
    b.per("sim.engine_ns_per_event_notrace", events, || {
        black_box(engine_run(false));
    });
}

fn paka_manifest(kind: PakaKind) -> Manifest {
    let cfg = SgxConfig::default();
    Manifest::paka_default(format!(
        "/usr/bin/{}-aka-server",
        kind.name().to_lowercase()
    ))
    .with_max_threads(cfg.max_threads)
    .with_enclave_size(cfg.enclave_size_bytes)
    .with_preheat(cfg.preheat)
    .with_exitless(cfg.exitless)
}

fn hmee_libos_infra(b: &mut Bench, seed: u64) {
    let mut env = quiet_env(seed);
    let platform = SgxPlatform::new(&mut env);
    let build = |env: &mut Env| {
        EnclaveBuilder::new("bench")
            .heap_bytes(1 << 20)
            .build(env, &platform)
            .expect("1 MiB enclave")
    };
    b.run("hmee.enclave_build_ms", || {
        black_box(build(&mut env));
    });
    let mut enclave = build(&mut env);
    b.run("hmee.ecall_roundtrip_ns", || {
        enclave.ecall_enter(&mut env).expect("thread budget");
        enclave.ecall_return(&mut env);
    });
    b.run("hmee.ocall_ns", || enclave.ocall(black_box(&mut env), 64));
    let secret = vec![0x5a; 4096];
    b.run("hmee.vault_rw_ns", || {
        enclave.vault_write(&mut env, "slot", black_box(&secret));
        black_box(enclave.vault_read(&mut env, "slot").expect("slot written"));
    });
    b.run("hmee.evict_reload_page_ns", || {
        let page = enclave.evict_page(&mut env, 0).expect("resident page");
        enclave.reload_page(&mut env, 0, page).expect("fresh blob");
    });

    let spec = paka_image(PakaKind::EUdm).spec;
    let key = PakaModule::signing_key();
    let transform =
        || gsc::transform(&spec, paka_manifest(PakaKind::EUdm), &key).expect("shieldable");
    b.run("libos.gsc_transform_ms", || {
        black_box(transform());
    });
    let shielded = transform();
    b.run("libos.boot_ms", || {
        black_box(GramineLibos::boot(&mut env, &shielded, &platform).expect("boots"));
    });

    let mut bridge = BridgeNetwork::new("br-oai");
    let frame = vec![0x5a; 256];
    b.run("infra.bridge_carry_ns", || {
        black_box(bridge.carry(&mut env, "udm.oai", "eudm-paka.oai", black_box(&frame)));
    });
}

fn nf(b: &mut Bench, seed: u64) {
    let kamf = [0x22; 32];
    let mut ue = NasSecurityContext::from_kamf(&kamf, true);
    let mut amf = NasSecurityContext::from_kamf(&kamf, false);
    let nas = vec![0x5a; 64];
    b.run("nf.nas_protect_unprotect_ns", || {
        let pdu = ue.protect(black_box(&nas));
        black_box(amf.unprotect(&pdu).expect("in-order PDU"));
    });
    let mut env = quiet_env(seed);
    let client = SbiClient::new();
    let hn = HomeNetworkKeyPair::from_private(1, [0x8f; 32]);
    let supi = Supi::new(Plmn::test_network(), "0000000001").expect("valid msin");
    let auth = AuthenticateRequest {
        identity: UeIdentity::Suci(supi.conceal_profile_a(hn.id(), hn.public(), &[0x42; 32])),
        known_supi: String::new(),
        snn_mcc: "001".into(),
        snn_mnc: "01".into(),
    };
    b.run("nf.sbi_roundtrip_ns", || {
        let req = client.send(
            &mut env,
            "/nausf-auth/authenticate",
            black_box(&auth).encode(),
        );
        let got = AuthenticateRequest::decode(&req.body).expect("own request");
        let body = client
            .receive(&mut env, "ausf.oai", HttpResponse::ok(got.encode()))
            .expect("2xx");
        black_box(body);
    });
    let ngap = Ngap::UplinkNasTransport {
        ran_ue_id: 7,
        nas: vec![0x5a; 64],
    };
    b.run("nf.ngap_roundtrip_ns", || {
        black_box(Ngap::decode(&black_box(&ngap).encode()).expect("own message"));
    });
}

fn core_layer(b: &mut Bench, seed: u64) {
    let sgx = ModuleDeployment::Sgx(SgxConfig::default());
    for (kind, deployment, host_name, sim_name) in [
        (
            PakaKind::EUdm,
            sgx,
            "core.serve_eudm_sgx_ns",
            Some("core.sim_lt_us_eudm"),
        ),
        (
            PakaKind::EAusf,
            sgx,
            "core.serve_eausf_sgx_ns",
            Some("core.sim_lt_us_eausf"),
        ),
        (
            PakaKind::EAmf,
            sgx,
            "core.serve_eamf_sgx_ns",
            Some("core.sim_lt_us_eamf"),
        ),
        (
            PakaKind::EUdm,
            ModuleDeployment::Container,
            "core.serve_eudm_container_ns",
            None,
        ),
    ] {
        let (mut env, mut module) = deploy_module(seed, kind, deployment);
        let req = standard_request(kind);
        let mut serve = |env: &mut Env| {
            let (resp, metrics) = module.serve(env, req.clone());
            assert!(
                resp.is_success(),
                "{} refused the standard request",
                kind.name()
            );
            metrics
        };
        b.run(host_name, || {
            black_box(serve(&mut env));
        });
        if let Some(sim_name) = sim_name {
            // L_T of the now-warm module, the paper's Fig. 9 quantity.
            let totals: Vec<f64> = (0..25)
                .map(|_| serve(&mut env).total.as_micros_f64())
                .collect();
            b.values.set(
                sim_name,
                stats::median(&totals),
                "sim; median L_T of 25 warm serves",
            );
        }
        if host_name == "core.serve_eudm_sgx_ns" {
            let load = module.boot_report().expect("SGX module boots").load_time;
            b.values.set(
                "hmee.sim_load_s",
                load.as_secs_f64(),
                "sim; eUDM enclave load (Fig. 7)",
            );
        }
    }
    let config = SliceConfig {
        deployment: AkaDeployment::Sgx(SgxConfig::default()),
        subscriber_count: crate::workloads::SUBSCRIBERS,
    };
    b.run("core.build_slice_sgx_ms", || {
        black_box(build_slice(&mut quiet_env(seed), &config).expect("slice builds"));
    });
}

fn ran_scale(b: &mut Bench, seed: u64) {
    let spec = WorkloadSpec {
        ues: 400,
        arrivals: 10_000,
        rate_per_sec: crate::workloads::READ_RATE,
    };
    let mut rng = quiet_env(seed).rng.fork("kernel-workload");
    b.per(
        "ran.poisson_ns_per_arrival",
        f64::from(spec.arrivals),
        || {
            black_box(poisson_registrations(
                &mut rng,
                SimTime::from_nanos(0),
                &spec,
            ));
        },
    );

    let mut ring = HashRing::new(64);
    (0..4).for_each(|id| ring.add(id));
    let supis: Vec<String> = (0..spec.ues).map(test_supi).collect();
    let mut next = 0;
    b.run("scale.route_ns", || {
        next = (next + 1) % supis.len();
        black_box(ring.route(black_box(&supis[next])));
    });
    let mil = Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
    let snn = ServingNetworkName::new("001", "01");
    let batch: Vec<_> = (1..=8u8)
        .map(|sqn| generate_he_av(&mil, &[0x23; 16], &[0, 0, 0, 0, 0, sqn], &[0x80, 0], &snn))
        .collect();
    let mut cache = AvCache::new(AvCacheConfig {
        batch_size: 8,
        capacity_per_supi: 16,
    });
    // One miss cycle of the cached pool: a batch of 8 stored, 8 AVs taken.
    b.run("scale.avcache_take_put_ns", || {
        next = (next + 1) % supis.len();
        cache.put_batch(&supis[next], batch.clone());
        for _ in 0..8 {
            black_box(cache.take(&supis[next]).expect("stocked"));
        }
    });
    let pool_cfg = PoolConfig {
        replicas: 4,
        warm_standby: 0,
        ..PoolConfig::default()
    };
    b.per("scale.pool_deploy_ms_per_replica", 4.0, || {
        black_box(EnclavePool::deploy(
            &mut quiet_env(seed),
            PakaKind::EUdm,
            pool_cfg,
        ));
    });
}

/// The canonical six-layer stack around `leaf`, outermost first.
fn full_stack(leaf: EngineServiceHandle) -> EngineServiceHandle {
    let timeout = SimDuration::from_millis(100);
    Stack::new(leaf)
        .with(ObsLayer::new(ObsLayer::core()))
        .with(DeadlineLayer::new(timeout))
        .with(AdmissionLayer::new(AdmissionPolicy {
            capacity: Some(16),
            deadline: Some(timeout),
        }))
        .with(BreakerLayer::new(BreakerPolicy::default()))
        .with(FaultLayer::new(FaultSwitch::new()))
        .with(RetryLayer::new(RetryPolicy::supervision()))
        .into_handle()
}

fn mw(b: &mut Bench, seed: u64) {
    for (name, stacked) in [("mw.stack_bare_ns", false), ("mw.stack_full_ns", true)] {
        let mut env = quiet_env(seed);
        let mut engine = Engine::new();
        // A closed-loop kernel runs millions of dispatches; their trace
        // lines would be the measurement.
        engine.set_trace(false);
        let leaf = Engine::leaf(service_handle(Echo));
        engine.register("echo", 4, if stacked { full_stack(leaf) } else { leaf });
        b.run(name, || {
            let req = HttpRequest::post("/echo", vec![0x5a; 64]);
            black_box(
                engine
                    .dispatch_ok(&mut env, "echo", req)
                    .expect("echo replies"),
            );
        });
    }
}

fn obs(b: &mut Bench) {
    b.run("obs.count_noop_ns", || {
        hub::count("bench", "kernel", "completed", black_box(1))
    });
    let recorder = ObsHandle::new();
    let _scope = hub::scoped(&recorder);
    b.run("obs.count_ns", || {
        hub::count("bench", "kernel", "completed", black_box(1))
    });
    let mut opened = 0u64;
    b.run("obs.span_ns", || {
        // Stay under the span cap, where spans are kept, not counted as dropped.
        opened += 1;
        if opened.is_multiple_of(65_536) {
            recorder.with(|o| o.spans = SpanLog::new());
        }
        let id = hub::open_span(SpanKind::Stage, "bench", "kernel", black_box(opened));
        hub::close_span(id, opened + 1);
    });
    recorder.with(|o| o.spans = SpanLog::new());
    for t in 0..10_000 {
        hub::close_span(hub::open_span(SpanKind::Stage, "bench", "kernel", t), t + 1);
    }
    recorder.with(|o| {
        b.per("obs.export_ns_per_span", 10_000.0, || {
            black_box(spans_jsonl(&o.spans));
        });
    });
}

/// The runner fans out over `nproc` threads — the only multi-threaded
/// measurements — so these are timed on the wall clock.
fn bench_lint(b: &mut Bench, repo_root: &Path) {
    let threads = runner::threads();
    b.per("bench.runner_us_per_job", 256.0, || {
        let jobs: Vec<Job<u64>> = (0..256u64)
            .map(|i| Box::new(move || i) as Job<u64>)
            .collect();
        black_box(runner::run_sweep(&ObsHandle::new(), threads, jobs));
    });
    b.run("bench.pool_scaling_smoke_s", || {
        black_box(pool_scaling_sweep(&ObsHandle::new(), threads, true));
    });
    b.run("lint.workspace_s", || {
        let report = shield5g_lint::run_repo(repo_root);
        assert!(
            report.files_scanned > 0,
            "lint found no files under {}",
            repo_root.display()
        );
        black_box(report);
    });
}

/// Runs every kernel; results land in `values` under their metric names.
pub fn run(seed: u64, repo_root: &Path, tracer: &mut Tracer, values: &mut LayerValues) {
    let span = tracer.open("bench", "kernels");
    let b = &mut Bench {
        tracer: &mut *tracer,
        values,
        wall: None,
    };
    crypto(b);
    sim(b);
    hmee_libos_infra(b, seed);
    nf(b, seed);
    core_layer(b, seed);
    ran_scale(b, seed);
    mw(b, seed);
    obs(b);
    b.wall = Some(Instant::now());
    bench_lint(b, repo_root);
    tracer.close(span, 0);
}
