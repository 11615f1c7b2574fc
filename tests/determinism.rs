//! Determinism guarantees: identical seeds replay bit-for-bit; distinct
//! seeds vary. Everything the benches print is reproducible.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "integration-test helper: a panic is the failure report"
)]

use shield5g::core::harness::{measure_lf_lt, measure_response_times, ModuleDeployment};
use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, build_traced_slice, AkaDeployment, Slice, SliceConfig};
use shield5g::ran::gnbsim::GnbSim;
use shield5g::sim::Env;

#[test]
fn same_seed_same_latency_distributions() {
    let a = measure_lf_lt(
        100,
        PakaKind::EUdm,
        ModuleDeployment::Sgx(SgxConfig::default()),
        20,
    );
    let b = measure_lf_lt(
        100,
        PakaKind::EUdm,
        ModuleDeployment::Sgx(SgxConfig::default()),
        20,
    );
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn different_seed_different_samples() {
    let a = measure_response_times(101, PakaKind::EAusf, ModuleDeployment::Container, 10);
    let b = measure_response_times(102, PakaKind::EAusf, ModuleDeployment::Container, 10);
    assert_ne!(a.1, b.1, "distinct seeds should shift jitter");
}

#[test]
fn same_seed_same_registration_transcript() {
    let run = |seed: u64| {
        let mut env = Env::new(seed);
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment: AkaDeployment::Monolithic,
                subscriber_count: 2,
            },
        )
        .unwrap();
        let mut sim = GnbSim::new(&slice);
        let regs = sim.register_ues(&mut env, &slice, 2).unwrap();
        (
            env.clock.now(),
            regs.iter()
                .map(|r| (r.report.guti, r.report.setup_time))
                .collect::<Vec<_>>(),
            env.log.len(),
        )
    };
    assert_eq!(run(103), run(103));
}

/// A fresh SGX slice with `subscribers` provisioned, the event log off
/// and the engine trace on.
fn traced_sgx_slice(seed: u64, subscribers: u32) -> (Env, Slice) {
    let mut env = Env::new(seed);
    env.log.disable();
    let slice = build_traced_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: subscribers,
        },
    )
    .unwrap();
    (env, slice)
}

/// Compares `lines` byte for byte with `tests/golden/<file>`; under
/// `SHIELD5G_REGEN_GOLDEN` rewrites the file instead (intentional
/// trace-format changes only).
fn assert_matches_golden(file: &str, lines: &[String]) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let trace = lines.join("\n") + "\n";
    if std::env::var_os("SHIELD5G_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &trace).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden trace present");
    assert!(
        golden == trace,
        "diverged from golden {file} (first differing line: {:?})",
        golden
            .lines()
            .zip(trace.lines())
            .find(|(g, t)| g != t)
            .map(|(g, t)| format!("golden `{g}` vs live `{t}`"))
            .unwrap_or_else(|| format!(
                "length {} vs {}",
                golden.lines().count(),
                trace.lines().count()
            ))
    );
}

/// One SGX-slice registration run with the engine trace on, returning
/// the byte-exact event log.
fn engine_trace_of(seed: u64) -> Vec<String> {
    let (mut env, slice) = traced_sgx_slice(seed, 2);
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 2).unwrap();
    let trace = slice.engine.borrow().trace_lines();
    assert!(!trace.is_empty(), "a traced slice records its decisions");
    trace
}

#[test]
fn same_seed_byte_identical_engine_event_log() {
    // The scheduler is a binary heap keyed (virtual_time, seq): replaying
    // a seed must pop every event in exactly the same order with exactly
    // the same timestamps, so the rendered trace is byte-identical.
    let a = engine_trace_of(300);
    let b = engine_trace_of(300);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

#[test]
fn an_untraced_registration_counts_what_its_traced_twin_records() {
    // `build_slice` records nothing but still counts every decision; the
    // count is the traced twin's line count, and tracing moves nothing a
    // UE or the scheduler can see.
    let run = |build: fn(&mut Env, &SliceConfig) -> Result<Slice, _>| {
        let mut env = Env::new(300);
        env.log.disable();
        let config = SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 2,
        };
        let slice = build(&mut env, &config).unwrap();
        let mut sim = GnbSim::new(&slice);
        let seen: Vec<String> = (0..2)
            .map(|i| format!("{:?}", sim.register_with_session(&mut env, &slice, i)))
            .collect();
        let engine = slice.engine.borrow();
        let visible = (seen, env.clock.now(), engine.stats());
        (visible, engine.trace().len(), engine.trace_lines())
    };
    let (untraced, decisions, none) = run(build_slice);
    let (traced, recorded, lines) = run(build_traced_slice);
    assert!(none.is_empty(), "an untraced world stores no record");
    assert!(!lines.is_empty());
    assert_eq!(decisions, lines.len());
    assert_eq!(recorded, lines.len());
    assert_eq!(untraced, traced);
}

#[test]
fn engine_trace_matches_pre_refactor_golden() {
    // The refactor gate for the middleware extraction: the same-seed,
    // fault-rate-0, obs-off SGX registration trace must stay byte-for-
    // byte what the pre-refactor engine produced. The golden file was
    // generated from the monolithic engine (admission + faults + obs
    // inlined in the scheduler); regenerate only for an intentional
    // trace-format change:
    //   SHIELD5G_REGEN_GOLDEN=1 cargo test engine_trace_matches
    assert_matches_golden("engine_trace_seed300.txt", &engine_trace_of(300));
}

#[test]
fn bridge_frames_match_golden() {
    // Every frame one seed-300 SGX registration puts on the OAI bridge, as
    // the §III attacker's tap records it: `from to len sha256(payload)`.
    // The payloads are the TCP/TLS handshake frames and the sealed P-AKA
    // request/response records, so this pins HTTP framing, the module
    // bodies and TLS sealing — keys and sequence numbers included — end
    // to end. Regenerate only for an intentional wire-format change.
    let (mut env, slice) = traced_sgx_slice(300, 1);
    slice.bridge.borrow_mut().enable_tap();
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 1).unwrap();
    let bridge = slice.bridge.borrow();
    let frames: Vec<String> = bridge
        .captured()
        .iter()
        .map(|f| {
            let digest = shield5g::crypto::sha256::Sha256::digest(&f.payload);
            let digest = shield5g::crypto::hex::encode(&digest);
            format!("{} {} {} {digest}", f.from, f.to, f.payload.len())
        })
        .collect();
    assert!(!frames.is_empty());
    assert_matches_golden("bridge_frames_seed300.txt", &frames);
}

#[test]
fn overload_layers_disarmed_are_trace_invisible() {
    // Disarm-invariance gate for the overload-control subsystem: the
    // slice stack now carries a BreakerLayer on every endpoint, but with
    // no faults armed nothing ever fails, so the breaker must neither
    // draw randomness nor reshape the schedule — the seed-300 trace
    // stays byte-identical to the pre-overload golden file.
    let (mut env, slice) = traced_sgx_slice(300, 2);
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 2).unwrap();
    let trace = slice.engine.borrow().trace_lines();

    // Not vacuous: the breaker really sampled the slice's outbound legs…
    let breaker = slice.breaker.borrow();
    assert!(
        breaker.total_samples() > 0,
        "breaker guarded no traffic — the layer is not in the stack"
    );
    // …but with every call succeeding it never left closed, never
    // rejected, never probed.
    assert_eq!(breaker.stats(), shield5g::mw::BreakerStats::default());

    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/engine_trace_seed300.txt"),
    )
    .expect("golden trace present");
    assert_eq!(
        golden,
        trace.join("\n") + "\n",
        "disarmed overload layers perturbed the engine trace"
    );
}

#[test]
fn different_seed_diverging_engine_event_log() {
    // A different seed shifts RANDs and jitter, which moves event
    // timestamps — the logs must not coincide.
    assert_ne!(engine_trace_of(300), engine_trace_of(301));
}

/// Like [`engine_trace_of`], but with a seeded SBI fault plan installed
/// on the slice engine before the registrations run.
fn faulted_trace_of(seed: u64, cfg: shield5g::mw::FaultConfig) -> Vec<String> {
    let (mut env, slice) = traced_sgx_slice(seed, 2);
    let _ = shield5g::mw::SbiFaultPlan::install(&slice.fault_switch, &mut env, cfg);
    let mut sim = GnbSim::new(&slice);
    sim.register_ues(&mut env, &slice, 2).unwrap();
    let trace = slice.engine.borrow().trace_lines();
    assert!(!trace.is_empty(), "a traced slice records its decisions");
    trace
}

/// A delay-only plan: every leg has a 50% chance of arriving late, which
/// reshapes the whole event schedule without failing any registration.
fn delay_heavy() -> shield5g::mw::FaultConfig {
    shield5g::mw::FaultConfig {
        delay_rate: 0.5,
        ..shield5g::mw::FaultConfig::default()
    }
}

#[test]
fn fault_plan_at_rate_zero_is_trace_invisible() {
    // The regression gate: a zero-rate plan installs nothing and draws
    // nothing, so the engine event log is byte-for-byte the pre-fault
    // baseline.
    assert_eq!(
        faulted_trace_of(300, shield5g::mw::FaultConfig::default()),
        engine_trace_of(300)
    );
}

#[test]
fn same_seed_byte_identical_fault_annotated_trace() {
    let a = faulted_trace_of(300, delay_heavy());
    let b = faulted_trace_of(300, delay_heavy());
    assert_eq!(a, b);
    // Faults actually fired and are visible in the trace...
    assert!(
        a.iter().any(|line| line.contains("fault-delay")),
        "a 50% delay rate must annotate the trace"
    );
    // ...which therefore differs from the fault-free baseline.
    assert_ne!(a, engine_trace_of(300));
}

/// The fault-annotated run with all three fault kinds armed, followed on
/// the same engine by four simultaneous arrivals at a one-worker echo
/// behind an admission stack (capacity 3, 15 µs deadline, 10 µs service):
/// one begins, two queue, one is shed at the door, and the second waiter
/// is shed at begin. Registrations may fail under the plan — the trace
/// is the product.
fn faulted_gated_trace_of(seed: u64) -> Vec<String> {
    use shield5g::mw::{AdmissionLayer, AdmissionPolicy, Stack};
    use shield5g::sim::engine::Engine;
    use shield5g::sim::http::{HttpRequest, HttpResponse};
    use shield5g::sim::service::{service_handle, Service};
    use shield5g::sim::time::SimDuration;

    struct SlowEcho;
    impl Service for SlowEcho {
        fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
            env.clock.advance(SimDuration::from_nanos(10_000));
            HttpResponse::ok(req.body)
        }
    }

    let (mut env, slice) = traced_sgx_slice(seed, 6);
    let cfg = shield5g::mw::FaultConfig {
        drop_rate: 0.03,
        delay_rate: 0.15,
        error_rate: 0.08,
    };
    let _ = shield5g::mw::SbiFaultPlan::install(&slice.fault_switch, &mut env, cfg);
    let mut sim = GnbSim::new(&slice);
    for i in 0..6 {
        let _ = sim.register_with_session(&mut env, &slice, i);
    }
    let mut engine = slice.engine.borrow_mut();
    let gate = Stack::new(Engine::leaf(service_handle(SlowEcho))).with(AdmissionLayer::new(
        AdmissionPolicy {
            capacity: Some(3),
            deadline: Some(SimDuration::from_nanos(15_000)),
        },
    ));
    engine.register("gate.test", 1, gate.into_handle());
    let t0 = env.clock.now();
    for i in 0..4 {
        engine.schedule_request(t0, "gate.test", HttpRequest::post("/gated", vec![i]));
    }
    engine.run_until_idle(&mut env);
    engine.trace_lines()
}

#[test]
fn faulted_engine_trace_matches_pre_refactor_golden() {
    // The refactor gate for the structured trace: the seed-300 golden
    // above holds only arrive / begin / callout / reply / resume /
    // complete. This one, captured from the string-formatting engine,
    // pins the rest — queue, shed-full, shed-deadline, fault-drop,
    // fault-delay, fault-5xx — byte for byte. Regenerate only for an
    // intentional trace-format change:
    //   SHIELD5G_REGEN_GOLDEN=1 cargo test faulted_engine_trace_matches
    let lines = faulted_gated_trace_of(300);
    for kind in [
        "queue",
        "shed-full",
        "shed-deadline",
        "fault-drop",
        "fault-delay",
        "fault-5xx",
    ] {
        let needle = format!(" {kind} ");
        assert!(
            lines.iter().any(|line| line.contains(&needle)),
            "no `{kind}` line in the faulted trace"
        );
    }
    assert_matches_golden("engine_trace_faulted_seed300.txt", &lines);
}

#[test]
fn observability_is_zero_perturbation() {
    // The shielding gate for shield5g-obs: recording spans and metrics
    // must not steer the simulation. Observability reads the virtual
    // clock but never advances it, draws no randomness, and enqueues no
    // events — so the engine event log with a hub installed is
    // byte-identical to the log without one, same seed.
    let bare = engine_trace_of(300);
    let hub = shield5g::obs::hub::ObsHandle::new();
    let observed = {
        let _scope = shield5g::obs::hub::scoped(&hub);
        engine_trace_of(300)
    };
    assert_eq!(bare, observed);
    // Guard against a vacuous pass: the instrumented run really recorded.
    let finished = hub.with(|o| o.spans.finished().len());
    assert!(finished > 0, "installed hub recorded no spans");
}

#[test]
fn different_seed_divergent_fault_schedule() {
    assert_ne!(
        faulted_trace_of(300, delay_heavy()),
        faulted_trace_of(301, delay_heavy())
    );
}

#[test]
fn crypto_outputs_are_seed_independent() {
    // The protocol crypto depends only on keys and RAND — which the seed
    // controls via the UDM's RNG draw; with a pinned RAND, outputs are
    // constants regardless of the world.
    let mil = shield5g::crypto::milenage::Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
    let snn = shield5g::crypto::keys::ServingNetworkName::new("001", "01");
    let av1 = shield5g::crypto::keys::generate_he_av(&mil, &[9; 16], &[0; 6], &[0x80, 0], &snn);
    let av2 = shield5g::crypto::keys::generate_he_av(&mil, &[9; 16], &[0; 6], &[0x80, 0], &snn);
    assert_eq!(av1, av2);
}
