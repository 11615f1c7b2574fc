//! Integration gates for shield5g-obs: a registration's span trace
//! decomposes the harness-reported latency exactly, and every exporter
//! is a pure function of the seed.

#![expect(
    clippy::expect_used,
    reason = "integration-test helper: a panic is the failure report"
)]

use shield5g::core::paka::SgxConfig;
use shield5g::core::slice::{build_slice, AkaDeployment, SliceConfig};
use shield5g::obs::export;
use shield5g::obs::hub::{self, ObsHandle};
use shield5g::obs::span::SpanKind;
use shield5g::ran::gnbsim::GnbSim;
use shield5g::sim::Env;

/// Runs one SGX-slice registration with a recording hub installed;
/// returns the hub and the harness-reported setup time in nanoseconds.
fn observed_registration(seed: u64) -> (ObsHandle, u64) {
    let recorder = ObsHandle::new();
    let _scope = hub::scoped(&recorder);
    let mut env = Env::new(seed);
    env.log.disable();
    let slice = build_slice(
        &mut env,
        &SliceConfig {
            deployment: AkaDeployment::Sgx(SgxConfig::default()),
            subscriber_count: 1,
        },
    )
    .expect("slice builds");
    let mut sim = GnbSim::new(&slice);
    let regs = sim.register_ues(&mut env, &slice, 1).expect("registration");
    let setup_ns = regs[0].report.setup_time.as_nanos();
    // Every span the run opened, parked ones included, was closed.
    assert_eq!(recorder.with(|o| o.spans.open_count()), 0, "leaked spans");
    (recorder, setup_ns)
}

#[test]
fn registration_trace_decomposes_setup_time_exactly() {
    // The paper's overhead story (§V-B) needs to know *where* the 12.5x
    // goes. The span trace answers that: under strict nesting, exclusive
    // times (span duration minus direct children) partition the root, so
    // summing them over the registration trace reconstructs the
    // harness-reported setup time to the nanosecond.
    let (recorder, setup_ns) = observed_registration(700);
    recorder.with(|o| {
        let stage = o
            .spans
            .finished()
            .iter()
            .find(|s| s.kind == SpanKind::Stage)
            .cloned()
            .expect("registration stage span");
        assert_eq!(
            (stage.nf.as_str(), stage.name.as_str()),
            ("ue", "registration")
        );
        assert_eq!(stage.duration_ns(), setup_ns, "stage span != setup_time");
        assert_eq!(
            o.spans.exclusive_total(stage.trace),
            setup_ns,
            "exclusive times no longer partition the root"
        );
        assert_eq!(o.spans.dropped(), 0, "cap must not truncate this trace");

        // The decomposition is per-hop and per-enclave-transition: the
        // trace nests SBI request legs, queue waits, worker service
        // intervals and enclave transition batches under the stage.
        // (No Queue span here: a lone sequential registration never
        // waits for a worker, so no admission wait ever opens one.)
        let trace = o.spans.trace_spans(stage.trace);
        for kind in [SpanKind::Request, SpanKind::Service, SpanKind::Enclave] {
            assert!(
                trace.iter().any(|s| s.kind == kind),
                "trace has no {} span",
                kind.name()
            );
        }
        // Enclave spans carry the transition counters the paper bills
        // the overhead to (EENTER/EEXIT/AEX/EWB...).
        assert!(
            trace
                .iter()
                .filter(|s| s.kind == SpanKind::Enclave)
                .any(|s| s.attr("eenter").is_some()),
            "no enclave span carries an eenter count"
        );
        // And the flame rendering of the same trace is non-trivial.
        let flame = o.spans.flame(stage.trace);
        assert!(flame.contains("stage ue registration"), "flame: {flame}");
        assert!(flame.contains("enclave"), "flame: {flame}");
    });
}

#[test]
fn exporters_are_pure_functions_of_the_seed() {
    // Fixed seed, two independent runs: every machine-readable artifact
    // must come out byte-identical — BTreeMap ordering, virtual-time
    // stamps and stable span ids leave nothing for the host to perturb.
    let render = || {
        let (recorder, _) = observed_registration(701);
        recorder.with(|o| {
            (
                export::spans_jsonl(&o.spans),
                export::metrics_jsonl(&o.registry),
                export::prometheus(&o.registry),
            )
        })
    };
    let (spans_a, metrics_a, prom_a) = render();
    let (spans_b, metrics_b, prom_b) = render();
    assert!(!spans_a.is_empty() && !metrics_a.is_empty() && !prom_a.is_empty());
    assert_eq!(
        spans_a, spans_b,
        "spans_jsonl drifted across identical runs"
    );
    assert_eq!(metrics_a, metrics_b, "metrics_jsonl drifted");
    assert_eq!(prom_a, prom_b, "prometheus exposition drifted");
}

#[test]
fn contention_opens_queue_spans() {
    // Queue spans appear only when a request actually waits for a
    // worker; an overloaded single replica guarantees admission waits,
    // and the engine must record each one with its measured duration.
    use shield5g::scale::harness::{pool_sweep, SweepConfig};
    use shield5g::scale::queue::QueueConfig;
    let recorder = ObsHandle::new();
    let _scope = hub::scoped(&recorder);
    let _ = pool_sweep(
        703,
        &SweepConfig {
            replicas: 1,
            offered_per_sec: 5_000.0,
            arrivals: 30,
            ues: 8,
            queue: QueueConfig::default(),
            cache: None,
        },
    );
    recorder.with(|o| {
        let queued: Vec<_> = o
            .spans
            .finished()
            .iter()
            .filter(|s| s.kind == SpanKind::Queue)
            .collect();
        assert!(!queued.is_empty(), "overload produced no queue spans");
        assert!(queued.iter().any(|s| s.duration_ns() > 0));
        assert_eq!(o.spans.open_count(), 0, "leaked spans");
    });
}

#[test]
fn registry_sees_the_whole_registration_pipeline() {
    // One registration touches the UE harness, the engine's SBI legs and
    // the enclave transition counters; all three families land in the
    // shared registry under their own (nf, endpoint, label) keys.
    let (recorder, _) = observed_registration(702);
    recorder.with(|o| {
        assert_eq!(o.registry.counter("ue", "registration", "completed"), 1);
        let arrivals: u64 = o
            .registry
            .counters()
            .filter(|(k, _)| k.label == "arrivals")
            .map(|(_, v)| v)
            .sum();
        assert!(arrivals > 0, "engine recorded no SBI arrivals");
        let eenters: u64 = o
            .registry
            .counters()
            .filter(|(k, _)| k.endpoint == "sgx" && k.label == "eenter")
            .map(|(_, v)| v)
            .sum();
        assert!(eenters > 0, "enclave recorded no EENTER transitions");
        let setup = o
            .registry
            .histogram("ue", "registration", "setup_time_ns")
            .expect("setup_time histogram");
        assert_eq!(setup.count(), 1);
    });
}

#[test]
fn label_registry_covers_every_emitted_key() {
    // Satellite gate for `shield5g_obs::labels`: every metric key any
    // subsystem emits must use a label from the central registry, so a
    // typo'd or ad-hoc label in an NF or harness fails here instead of
    // silently forking a new time series. The run mix below (a full SGX
    // registration, an overloaded pool sweep, a faulted sweep with
    // retries, a degradation run under sustained faults, and an
    // error-storm slice run that trips the SBI circuit breaker)
    // exercises the engine, NF, enclave, pool, faults, and
    // overload-control label families together.
    use shield5g::mw::{FaultConfig, SbiFaultPlan};
    use shield5g::obs::labels;
    use shield5g::scale::harness::{fault_sweep, pool_sweep, FaultSweepConfig, SweepConfig};
    use shield5g::scale::openloop::run_scenario;
    use shield5g::scale::queue::QueueConfig;
    use shield5g_bench::sweeps::{brownout_config, pressured_config, record_degradation_obs};
    let recorder = ObsHandle::new();
    {
        let _scope = hub::scoped(&recorder);
        let mut env = Env::new(705);
        env.log.disable();
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment: AkaDeployment::Sgx(SgxConfig::default()),
                subscriber_count: 1,
            },
        )
        .expect("slice builds");
        let mut sim = GnbSim::new(&slice);
        sim.register_ues(&mut env, &slice, 1).expect("registration");
        let _ = pool_sweep(
            706,
            &SweepConfig {
                replicas: 1,
                offered_per_sec: 5_000.0,
                arrivals: 20,
                ues: 6,
                queue: QueueConfig::default(),
                cache: None,
            },
        );
        let _ = fault_sweep(
            707,
            &FaultSweepConfig {
                sbi: FaultConfig {
                    drop_rate: 0.1,
                    delay_rate: 0.2,
                    error_rate: 0.1,
                },
                ..FaultSweepConfig::default()
            },
        );
        // Degradation under sustained faults: replica ejections, probes,
        // priority sheds.
        let mut pressured = pressured_config(200);
        pressured.sbi.error_rate = 0.6;
        record_degradation_obs(&run_scenario(804, &pressured));
        // Brownout under EPC thrash: entry/exit transitions.
        record_degradation_obs(&run_scenario(803, &brownout_config(160)));
        // An SBI error storm on a slice: the per-endpoint circuit
        // breakers trip and fail subsequent legs fast.
        let mut env = Env::new(708);
        env.log.disable();
        let slice = build_slice(
            &mut env,
            &SliceConfig {
                deployment: AkaDeployment::Sgx(SgxConfig::default()),
                subscriber_count: 8,
            },
        )
        .expect("slice builds");
        let _ = SbiFaultPlan::install(
            &slice.fault_switch,
            &mut env,
            FaultConfig {
                error_rate: 0.9,
                ..FaultConfig::default()
            },
        );
        let mut sim = GnbSim::new(&slice);
        for i in 0..8 {
            let mut ue = sim.ue_for(&slice, i);
            let _ = ue.register(&mut env, sim.gnb_mut());
        }
        assert!(
            slice.breaker.borrow().stats().opened > 0,
            "error storm never tripped a slice breaker"
        );
    }
    recorder.with(|o| {
        let mut seen = std::collections::BTreeSet::new();
        for (k, _) in o.registry.counters() {
            seen.insert(k.label.clone());
        }
        for (k, _) in o.registry.gauges() {
            seen.insert(k.label.clone());
        }
        for (k, _) in o.registry.histograms() {
            seen.insert(k.label.clone());
        }
        assert!(
            seen.len() > 20,
            "run mix emitted suspiciously few distinct labels: {seen:?}"
        );
        for label in &seen {
            assert!(
                labels::is_registered(label),
                "emitted metric label {label:?} is not in shield5g_obs::labels::ALL"
            );
        }
        // The overload-control families actually fired — a silent rename
        // would otherwise pass the registry check with the family absent.
        for label in [
            labels::BREAKER_OPENED,
            labels::BREAKER_REJECTED,
            labels::BREAKER_PROBES,
            labels::SHED_NORMAL,
            labels::SHED_EMERGENCY,
            labels::REPLICA_EJECTED,
            labels::BROWNOUT_ENTRIES,
        ] {
            assert!(seen.contains(label), "run mix emitted no {label:?} metric");
        }
    });
}

#[test]
fn histogram_quantiles_match_summary_on_shared_fixtures() {
    // `Histogram::quantile` and `core::stats::Summary` must agree on
    // the same samples: both use the linear-interpolation (NumPy/R
    // type 7) definition, and below 16 the histogram's buckets are
    // unit-width, so small fixtures must match *exactly* — the
    // pre-fix ceil-based nearest-rank diverged on n=2 medians.
    use shield5g::core::stats::Summary;
    use shield5g::obs::metrics::Histogram;
    use shield5g::sim::time::SimDuration;

    let fixtures: &[&[u64]] = &[&[7], &[2, 4], &[0, 3, 9], &[1, 1, 2, 5], &[0, 3, 3, 7, 15]];
    for samples in fixtures {
        let summary = Summary::of(
            &samples
                .iter()
                .map(|&v| SimDuration::from_nanos(v))
                .collect::<Vec<_>>(),
        );
        let mut hist = Histogram::new();
        for &v in *samples {
            hist.record(v);
        }
        for (q, expect) in [
            (0.0, summary.min),
            (0.5, summary.median),
            (0.95, summary.p95),
            (1.0, summary.max),
        ] {
            assert_eq!(
                hist.quantile(q),
                expect.as_nanos(),
                "samples {samples:?} q={q}: histogram {} vs summary {}",
                hist.quantile(q),
                expect.as_nanos(),
            );
        }
    }

    // Above 16 the buckets widen: agreement is bounded by one bucket
    // width (1/16 relative), not exact.
    let wide: Vec<u64> = (1..=500).map(|i| i * 37).collect();
    let summary = Summary::of(
        &wide
            .iter()
            .map(|&v| SimDuration::from_nanos(v))
            .collect::<Vec<_>>(),
    );
    let mut hist = Histogram::new();
    for &v in &wide {
        hist.record(v);
    }
    for (q, expect) in [(0.5, summary.median), (0.95, summary.p95)] {
        let got = hist.quantile(q) as f64;
        let want = expect.as_nanos() as f64;
        let err = (got - want).abs() / want;
        assert!(
            err <= 1.0 / 16.0,
            "q={q}: histogram {got} vs summary {want} ({err:.3} relative)"
        );
    }
}
