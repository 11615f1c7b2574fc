//! shield5g benchmark: one workload per process.
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! runs the per-layer kernels and the traced workload. Every metric is
//! printed as `name value unit  # clock; how`, then one JSON result line.
//! Exits non-zero, without a result line, when an output check fails.

mod alloc;
mod clock;
mod kernels;
mod layers;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{LayerValues, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{E2e, Timed, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Where `trace_<workload>.jsonl` goes.
    out_dir: PathBuf,
    /// The repository `lint.workspace_s` scans.
    repo_root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::RegSgx,
        seed: 300,
        seconds: 10,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
        repo_root: PathBuf::from("."),
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--out" => args.out_dir = PathBuf::from(value),
            "--repo" => args.repo_root = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", args.seconds));
    }
    Ok(args)
}

fn line(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name} {value} {unit}  # {note}");
}

/// Prints the end-to-end metrics; returns the ones the result line carries.
fn report_e2e(e2e: &E2e) -> Vec<(&'static str, f64)> {
    let seconds =
        |timed: &[Timed]| -> Vec<f64> { timed.iter().map(Timed::reference_seconds).collect() };
    let setups_s = seconds(&e2e.setups);
    let (_, setup_s, _) = stats::quartiles(&setups_s);
    let batches_s = seconds(&e2e.batches);
    let (q1, batch_median, q3) = stats::quartiles(&batches_s);
    // A ladder's batches are its rungs, each a different amount of work:
    // their median is one rung's time and says nothing of the others.
    let (batch_s, how) = if e2e.slo.is_some() {
        (
            batches_s.iter().sum::<f64>() / batches_s.len() as f64,
            "mean",
        )
    } else {
        (batch_median, "median")
    };
    let ops_per_s = e2e.ops_per_batch as f64 / batch_s;
    let n = e2e.batches.len() as f64;
    let cpu_s: f64 = e2e.batches.iter().map(|b| b.cpu_s).sum();
    let reference_s: f64 = e2e.batches.iter().map(|b| b.reference_s).sum();
    let allocs_per_op = e2e.allocs as f64 / e2e.attempted as f64;
    let sim = &e2e.sim;
    let ok_frac = sim.ok as f64 / sim.attempted as f64;
    line(
        "setup_s",
        setup_s,
        "s",
        &format!("host, reference s; median of {setups_s:?}"),
    );
    line(
        "ops_per_s",
        ops_per_s,
        "op/s",
        &format!(
            "host, reference s; {} ops per batch ÷ {how} of n={} batches, batch s q1 {q1:.4} median {batch_median:.4} q3 {q3:.4}",
            e2e.ops_per_batch,
            e2e.batches.len()
        ),
    );
    for (i, b) in e2e.batches.iter().enumerate() {
        println!(
            "# batch {i}: {:.4} s on-CPU while the reference kernel took {:.4} ms",
            b.cpu_s,
            b.reference_s * 1e3
        );
    }
    println!(
        "# on this machine, now: {:.1} op/s of on-CPU time over the timed phase, while the \
         reference kernel took {:.3} ms (mean of batches; a reference s is {} of them); {} page \
         faults in the timed phase after touching {} MB",
        e2e.ops_per_batch as f64 * n / cpu_s,
        reference_s / n * 1e3,
        1.0 / clock::REFERENCE_S,
        e2e.timed_page_faults,
        e2e.reserve_mb
    );
    line(
        "peak_heap_mb",
        e2e.peak_heap_mb,
        "MB",
        "count; most bytes held at once, set-ups and timed phase",
    );
    line(
        "allocs_per_op",
        allocs_per_op,
        "1/op",
        "count; timed phase only",
    );
    line(
        "sim_op_ms_p50",
        sim.p50_ms,
        "sim_ms",
        &format!("sim; n={}", sim.n),
    );
    line(
        "sim_op_ms_p99",
        sim.tail_ms,
        "sim_ms",
        &format!(
            "sim; read at p{}, the highest percentile n={} supports with >= 10 samples beyond",
            sim.tail_p * 100.0,
            sim.n
        ),
    );
    line(
        "sim_goodput_per_s",
        sim.goodput_per_s,
        "op/s",
        "sim; completed OK / virtual s, first arrival to last completion",
    );
    if let Some((rungs, rate)) = &e2e.slo {
        for r in rungs {
            println!(
                "# ladder {} /s: tail {:.3} sim_ms, fail_frac {:.4}",
                r.rate_per_s, r.tail_ms, r.fail_frac
            );
        }
        match rate {
            Some(rate) => line(
                "sim_slo_rate_per_s",
                *rate,
                "op/s",
                &format!(
                    "sim; highest rate with tail <= {} sim_ms and fail_frac <= {} at it and below",
                    workloads::SLO_TAIL_MS,
                    workloads::SLO_FAIL_FRAC
                ),
            ),
            None => println!("# sim_slo_rate_per_s: the lowest ladder rate already misses the SLO"),
        }
    }
    line(
        "fail_frac",
        sim.fail_frac(),
        "ratio",
        &format!(
            "{} of {} ops failed, shed or lost",
            sim.attempted - sim.ok,
            sim.attempted
        ),
    );
    line("ok_frac", ok_frac, "ratio", "1 - fail_frac");
    println!(
        "digest {:016x}  # every simulated output of the timed phase",
        e2e.digest
    );
    vec![
        ("setup_s", setup_s),
        ("ops_per_s", ops_per_s),
        ("peak_heap_mb", e2e.peak_heap_mb),
        ("allocs_per_op", allocs_per_op),
        ("sim_op_ms_p50", sim.p50_ms),
        ("sim_goodput_per_s", sim.goodput_per_s),
        ("ok_frac", ok_frac),
    ]
}

/// Prints the per-layer metrics that apply; the result line carries all.
fn report_layers(values: &LayerValues) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| match values.get(name) {
            Some((value, note)) => {
                line(name, *value, unit, note);
                (name, *value)
            }
            None => (name, 0.0),
        })
        .collect()
}

fn result_line(
    table: &[(&str, &str)],
    values: &[(&str, f64)],
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} was not measured"))
                .1;
            assert!(value.is_finite(), "{name} is {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<String, String> {
    println!(
        "# workload {} seed {} seconds {} trace {}: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.loop_kind()
    );
    if args.trace {
        let (values, attempted, failed) =
            layers::run(args.workload, args.seed, &args.repo_root, &args.out_dir)?;
        let reported = report_layers(&values);
        Ok(result_line(PER_LAYER, &reported, attempted, failed))
    } else {
        let e2e = workloads::run_e2e(args.workload, args.seed, args.seconds)?;
        let reported = report_e2e(&e2e);
        Ok(result_line(
            END_TO_END,
            &reported,
            e2e.attempted,
            e2e.failed,
        ))
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| alloc::tune().and_then(|()| run(&args))) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("benchmark failed: {message}");
            ExitCode::FAILURE
        }
    }
}
