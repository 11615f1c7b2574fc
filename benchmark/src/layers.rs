//! The traced run: the kernels, then the workload again at a reduced
//! fixed op count with an `obs` hub installed and a host span around
//! every call into the program. Counts (C) come from what the program
//! already exposes; virtual exclusive times (V) from its own span log.

use crate::clock;
use crate::kernels;
use crate::metrics::LayerValues;
use crate::stats::Digest;
use crate::trace::Tracer;
use crate::workloads::{Call, CallOut, RegWorld, Workload, READ_RATE};
use shield5g::core::slice::AkaDeployment;
use shield5g::obs::hub::{self, ObsHandle};
use shield5g::obs::span::{Span, SpanKind, SpanLog};
use std::path::Path;

/// Registrations of the traced `reg_*` run (≈ 390 spans each on SGX).
const TRACED_REG_OPS: u64 = 300;
/// Arrivals of the traced pool calls: ≈ 105 spans per uncached arrival
/// against the 250k span cap; the cached call keeps enough arrivals per
/// UE (15) for a representative hit rate.
const TRACED_POOL_ARRIVALS: u32 = 2000;
const TRACED_CACHED_ARRIVALS: u32 = 6000;
const TRACED_FAULT_ARRIVALS: u32 = 1500;
/// EENTERs per registration per module the repo already gates (Table III ≈ 91).
const TABLE3_EENTER: std::ops::RangeInclusive<f64> = 88.0..=96.0;

/// Groups a registration's virtual time is split into. The first six
/// are per-layer metrics; the rest only keep the sum exact.
const GROUPS: [&str; 8] = [
    "hmee.enclave_excl_us",
    "nf.amf_excl_us",
    "nf.ausf_excl_us",
    "nf.udm_excl_us",
    "core.paka_excl_us",
    "ran.ue_excl_us",
    "queue",
    "other",
];

/// Index of `ran.ue_excl_us` in [`GROUPS`].
const UE_GROUP: usize = 5;

fn group_of(span: &Span) -> usize {
    let name = match (span.kind, span.nf.as_str()) {
        (SpanKind::Enclave, _) => "hmee.enclave_excl_us",
        (SpanKind::Queue, _) => "queue",
        (_, "amf.oai") => "nf.amf_excl_us",
        (_, "ausf.oai") => "nf.ausf_excl_us",
        (_, "udm.oai") => "nf.udm_excl_us",
        (_, "ue") => "ran.ue_excl_us",
        (_, nf) if nf.contains("-paka.oai") => "core.paka_excl_us",
        _ => "other",
    };
    GROUPS
        .iter()
        .position(|g| *g == name)
        .expect("listed group")
}

/// Virtual exclusive ns per group, summed over decomposed traces.
#[derive(Default)]
struct Decomposition {
    excl_ns: [u64; GROUPS.len()],
    /// Σ root-span durations: what the groups must add up to.
    covered_ns: u64,
    spans: u64,
}

impl Decomposition {
    /// Adds every trace rooted in `spans` (a slice of `log`'s finished
    /// spans). Enclave-rooted traces are deployment and provisioning
    /// transitions outside any op and are skipped. Each trace's exclusive
    /// times must partition its root exactly.
    fn add(&mut self, log: &SpanLog, spans: &[Span]) -> Result<(), String> {
        for root in spans.iter().filter(|s| s.parent.is_none()) {
            if root.kind == SpanKind::Enclave {
                continue;
            }
            let mut total = 0;
            for (span, excl_ns) in log.exclusive(root.trace) {
                self.excl_ns[group_of(span)] += excl_ns;
                self.spans += 1;
                total += excl_ns;
            }
            if total != root.duration_ns() {
                return Err(format!(
                    "trace {}: exclusive times sum to {total} ns, root lasts {} ns",
                    root.trace,
                    root.duration_ns()
                ));
            }
            self.covered_ns += total;
        }
        Ok(())
    }

    /// Records the V metrics among `applies` per op and renders the
    /// trace-file lines for every group.
    fn finish(
        &self,
        ops: u64,
        applies: &[&'static str],
        run: &str,
        values: &mut LayerValues,
    ) -> Result<Vec<String>, String> {
        let groups_ns: u64 = self.excl_ns.iter().sum();
        if groups_ns != self.covered_ns {
            return Err(format!(
                "groups sum to {groups_ns} ns, ops took {} ns",
                self.covered_ns
            ));
        }
        let mut lines = Vec::new();
        for (name, &excl_ns) in GROUPS.iter().zip(&self.excl_ns) {
            if let Some(&metric) = applies.iter().find(|a| *a == name) {
                values.set(
                    metric,
                    excl_ns as f64 / ops as f64 / 1e3,
                    format!("sim; virtual exclusive time per op over {ops} ops"),
                );
            }
            lines.push(format!(
                "{{\"type\":\"sim_group\",\"run\":\"{run}\",\"group\":\"{name}\",\"excl_ns\":{excl_ns},\"ops\":{ops}}}"
            ));
        }
        lines.push(format!(
            "{{\"type\":\"sim_total\",\"run\":\"{run}\",\"groups_ns\":{groups_ns},\"ops_ns\":{},\"ops\":{ops},\"spans\":{}}}",
            self.covered_ns, self.spans
        ));
        values.set(
            "obs.spans_per_op",
            self.spans as f64 / ops as f64,
            "count; obs spans recorded per op",
        );
        Ok(lines)
    }
}

fn no_drops(log: &SpanLog) -> Result<(), String> {
    match log.dropped() {
        0 => Ok(()),
        n => Err(format!(
            "span cap hit: {n} spans dropped; shrink the traced op count"
        )),
    }
}

fn overhead(values: &mut LayerValues, untraced_s: f64, traced_s: f64) {
    values.set(
        "obs.overhead_frac",
        1.0 - untraced_s / traced_s,
        format!("host; 1 - traced/untraced ops_per_s: {untraced_s:.3} s untraced, {traced_s:.3} s traced"),
    );
}

fn traced_reg(
    deployment: AkaDeployment,
    seed: u64,
    run: &str,
    tracer: &mut Tracer,
    values: &mut LayerValues,
) -> Result<(Vec<String>, u64, u64), String> {
    // The untraced twin: same world, same ops, no hub.
    let off = &mut Tracer::off();
    let mut twin = RegWorld::build(seed, deployment, off)?;
    let mut twin_digest = Digest::new();
    let started = clock::cpu();
    for _ in 0..TRACED_REG_OPS {
        twin.op(&mut twin_digest, off)?;
    }
    let untraced_s = (clock::cpu() - started).as_secs_f64();

    let recorder = ObsHandle::new();
    let _scope = hub::scoped(&recorder);
    let root = tracer.open("bench", "workload");
    let mut world = RegWorld::build(seed, deployment, tracer)?;
    let events_before = world.engine_events();
    let sgx_before = world.sgx_counters();
    let mut digest = Digest::new();
    // (first span of the op, its virtual ns), analysed after the timing.
    let mut ops = Vec::with_capacity(TRACED_REG_OPS as usize);
    let started = clock::cpu();
    for _ in 0..TRACED_REG_OPS {
        let first_span = recorder.with(|o| o.spans.finished().len());
        ops.push((first_span, world.op(&mut digest, tracer)?));
    }
    let traced_s = (clock::cpu() - started).as_secs_f64();
    tracer.close(root, TRACED_REG_OPS);
    world.check_completed()?;
    if digest != twin_digest {
        return Err("tracing perturbed the simulation: traced and untraced digests differ".into());
    }
    overhead(values, untraced_s, traced_s);

    let n = TRACED_REG_OPS as f64;
    values.set(
        "sim.engine_events_per_op",
        (world.engine_events() - events_before) as f64 / n,
        "count; engine trace lines per op",
    );
    let (mut eenter, mut aex) = (0, 0);
    for ((kind, after), (_, before)) in world.sgx_counters().into_iter().zip(sgx_before) {
        let delta = after.delta_since(&before);
        let per_op = delta.eenter as f64 / n;
        if !TABLE3_EENTER.contains(&per_op) {
            return Err(format!(
                "{}: {per_op} EENTER per registration, Table III band is 88..=96",
                kind.name()
            ));
        }
        eenter += delta.eenter;
        aex += delta.aex;
    }
    values.set(
        "hmee.eenter_per_op",
        eenter as f64 / n,
        "count; summed over the three modules",
    );
    values.set(
        "hmee.aex_per_op",
        aex as f64 / n,
        "count; summed over the three modules",
    );
    values.set(
        "faults.injected_per_op",
        0.0,
        "count; no fault plan is installed",
    );
    if world.slice.fault_switch.is_armed() {
        return Err("a fault plan is armed on a fault-free workload".into());
    }

    recorder.with(|o| {
        no_drops(&o.spans)?;
        let mut parts = Decomposition::default();
        let finished = o.spans.finished();
        let mut ops_ns = 0;
        for (i, &(first_span, op_ns)) in ops.iter().enumerate() {
            let end = ops.get(i + 1).map_or(finished.len(), |next| next.0);
            let covered_before = parts.covered_ns;
            parts.add(&o.spans, &finished[first_span..end])?;
            // UE-side work outside any span (SUCI concealment, NAS
            // processing around the session) is the UE's own time.
            let uncovered = op_ns
                .checked_sub(parts.covered_ns - covered_before)
                .ok_or_else(|| format!("op {i}: spans cover more than its {op_ns} virtual ns"))?;
            parts.excl_ns[UE_GROUP] += uncovered;
            parts.covered_ns += uncovered;
            ops_ns += op_ns;
        }
        if parts.covered_ns != ops_ns {
            return Err(format!(
                "groups cover {} ns, ops took {ops_ns} ns",
                parts.covered_ns
            ));
        }
        let lines = parts.finish(TRACED_REG_OPS, &GROUPS[..6], run, values)?;
        Ok((lines, TRACED_REG_OPS, 0))
    })
}

fn traced_pool(
    workload: Workload,
    seed: u64,
    run: &str,
    tracer: &mut Tracer,
    values: &mut LayerValues,
) -> Result<(Vec<String>, u64, u64), String> {
    let call = match workload {
        Workload::PoolOpenCached => Call::sweep(true, READ_RATE, TRACED_CACHED_ARRIVALS),
        Workload::PoolFaulted => Call::fault(TRACED_FAULT_ARRIVALS),
        _ => Call::sweep(false, READ_RATE, TRACED_POOL_ARRIVALS),
    };
    let started = clock::cpu();
    let twin = call.run(seed, &mut Tracer::off())?;
    let untraced_s = (clock::cpu() - started).as_secs_f64();

    let recorder = ObsHandle::new();
    let _scope = hub::scoped(&recorder);
    let root = tracer.open("bench", "workload");
    let started = clock::cpu();
    let out = call.run(seed, tracer)?;
    let traced_s = (clock::cpu() - started).as_secs_f64();
    tracer.close(root, 1);
    let pool = out.pool();
    if format!("{pool:?}") != format!("{:?}", twin.pool()) {
        return Err("tracing perturbed the simulation: traced and untraced reports differ".into());
    }
    overhead(values, untraced_s, traced_s);

    let n = pool.arrivals as f64;
    let eenter: u64 = pool.per_replica.iter().map(|r| r.eenter_delta).sum();
    let aex: u64 = pool.per_replica.iter().map(|r| r.aex_delta).sum();
    values.set(
        "hmee.eenter_per_op",
        eenter as f64 / n,
        "count; per arrival, all replicas",
    );
    values.set(
        "hmee.aex_per_op",
        aex as f64 / n,
        "count; per arrival, all replicas",
    );
    if let Some(cache) = &pool.cache {
        values.set(
            "scale.cache_hit_rate",
            cache.hit_rate(),
            format!("ratio; {} hits, {} misses", cache.hits, cache.misses),
        );
    }
    let served: Vec<f64> = pool.per_replica.iter().map(|r| r.served as f64).collect();
    let mean = served.iter().sum::<f64>() / served.len() as f64;
    values.set(
        "scale.replica_imbalance",
        served.iter().copied().fold(0.0, f64::max) / mean,
        format!("ratio; max / mean served over {} replicas", served.len()),
    );
    values.set(
        "mw.shed_frac",
        pool.shed as f64 / n,
        format!("ratio; {} of {} arrivals", pool.shed, pool.arrivals),
    );
    values.set(
        "mw.queue_wait_ms_p99",
        pool.queued.p99.as_millis_f64(),
        format!("sim; n={} served", pool.queued.count),
    );
    match &out {
        CallOut::Fault(report) => {
            values.set(
                "mw.retry_amplification",
                report.retry.amplification(),
                format!(
                    "ratio; {} retransmissions over {} calls",
                    report.retry.retries, report.retry.calls
                ),
            );
            values.set(
                "faults.injected_per_op",
                report.recovery.faults as f64 / n,
                format!(
                    "count; {} faults incl. the replica kill",
                    report.recovery.faults
                ),
            );
            values.set(
                "faults.sim_mttr_ms",
                report.recovery.mttr.as_millis_f64(),
                "sim; mean time to recovery",
            );
        }
        CallOut::Sweep(_) => values.set(
            "faults.injected_per_op",
            0.0,
            "count; no fault plan is installed",
        ),
    }

    recorder.with(|o| {
        no_drops(&o.spans)?;
        let mut parts = Decomposition::default();
        parts.add(&o.spans, o.spans.finished())?;
        // A pool call reaches the replicas directly: no UE, AMF, AUSF or UDM.
        let applies = ["hmee.enclave_excl_us", "core.paka_excl_us"];
        let lines = parts.finish(pool.arrivals, &applies, run, values)?;
        Ok((lines, pool.arrivals, pool.arrivals - pool.served))
    })
}

/// Runs the traced run of `workload` and writes `trace_<workload>.jsonl`.
/// Returns the metrics with the traced workload's attempted and failed ops.
pub fn run(
    workload: Workload,
    seed: u64,
    repo_root: &Path,
    out_dir: &Path,
) -> Result<(LayerValues, u64, u64), String> {
    let run = format!("{}-seed{seed}", workload.name());
    let mut tracer = Tracer::on(run.clone());
    let mut values = LayerValues::default();
    kernels::run(seed, repo_root, &mut tracer, &mut values);
    let (sim_lines, attempted, failed) = match workload.deployment() {
        Some(deployment) => traced_reg(deployment, seed, &run, &mut tracer, &mut values),
        None => traced_pool(workload, seed, &run, &mut tracer, &mut values),
    }?;
    let path = out_dir.join(format!("trace_{}.jsonl", workload.name()));
    tracer
        .write_jsonl(&path, &sim_lines)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((values, attempted, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ue_group_index_names_the_ue_group() {
        assert_eq!(GROUPS[UE_GROUP], "ran.ue_excl_us");
    }
}
