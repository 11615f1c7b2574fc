//! The five workloads and their untraced end-to-end measurement.
//!
//! Every op count is a fixed function of `--seconds` (calibrated so the
//! timed phase lasts about that long on the reference box), never of
//! elapsed time: the simulated side of a run is then a pure function of
//! `(workload, seed, seconds)` and must repeat bit for bit.

use crate::alloc;
use crate::clock::{Lap, Metronome};
use crate::stats::{self, Digest, Rung};
use crate::trace::Tracer;
use shield5g::core::paka::{PakaKind, SgxConfig};
use shield5g::core::slice::{build_slice, AkaDeployment, Slice, SliceConfig};
use shield5g::core::stats::Summary;
use shield5g::faults::plan::FaultConfig;
use shield5g::faults::sweep::{fault_sweep, FaultReport, FaultSweepConfig};
use shield5g::hmee::counters::SgxCounters;
use shield5g::ran::gnbsim::GnbSim;
use shield5g::scale::avcache::AvCacheConfig;
use shield5g::scale::harness::{pool_sweep, SweepConfig};
use shield5g::scale::metrics::PoolReport;
use shield5g::scale::queue::QueueConfig;
use shield5g::sim::time::SimDuration;
use shield5g::sim::Env;

/// Subscribers provisioned in a `reg_*` slice; ops cycle through them.
pub const SUBSCRIBERS: u32 = 100;
/// `reg_*`: registrations per second of `--seconds` (≈ 0.8 ms host each
/// on SGX at the commit that defined the benchmark), in 20 batches.
const REG_OPS_PER_SECOND: u64 = 900;
const REG_BATCHES: u64 = 20;
/// Registrations of one set-up's warm-up (≥ 0.5 s host on either deployment).
const REG_WARMUP_OPS: u64 = 600;

/// The fixed absolute rate ladder, authentications per virtual second
/// (probed capacity of the 4-replica pool with the cache off ≈ 4100/s).
pub fn ladder() -> Vec<f64> {
    (0..=10).map(|i| 2000.0 + 400.0 * f64::from(i)).collect()
}
/// Rung whose latency, goodput and failure fraction the pool workloads
/// report: the highest rate the cache-off pool sustains within the SLO.
/// Nearer the knee (3200/s) the median moves ~3% per 1% of realised
/// Poisson rate and differs by 10–15% between seeds.
pub const READ_RATE: f64 = 2800.0;
/// Arrivals per ladder rung per second of `--seconds`: ≈ 190 µs host
/// each with the cache off, ≈ 70 µs with it on. The cached ladder can
/// afford, and needs, the larger sample: its tail sits among the 14% of
/// arrivals that miss, and its hit rate depends on arrivals per UE.
const ARRIVALS_PER_RUNG_PER_SECOND: u32 = 400;
const CACHED_ARRIVALS_PER_RUNG_PER_SECOND: u32 = 1000;
pub const SLO_TAIL_MS: f64 = 12.0;
pub const SLO_FAIL_FRAC: f64 = 0.005;
const POOL_REPLICAS: u32 = 4;
const POOL_UES: u32 = 400;
fn pool_queue() -> QueueConfig {
    QueueConfig {
        capacity: 16,
        deadline: SimDuration::from_millis(100),
    }
}
/// Warm-up arrivals of one pool set-up, at the lowest ladder rate.
const POOL_WARMUP_ARRIVALS: u32 = 2000;
const CACHED_WARMUP_ARRIVALS: u32 = 8000;
/// The rate the three replicas left after the kill still sustain: at
/// 3200/s the median latency differed by 0.16 (IQR ÷ median) between
/// seeds, here by 0.06.
const FAULT_RATE: f64 = READ_RATE;
const FAULT_ARRIVALS_PER_SECOND: u32 = 2000;
const FAULT_PASSES: u32 = 2;
const FAULT_SBI_RATE: f64 = 0.10;
/// Set-ups per run; `setup_s` is their median. (With 3, one slow set-up
/// in a noisy phase moved the median: spread 0.40 over ten runs.)
const SETUPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RegSgx,
    RegContainer,
    PoolOpen,
    PoolOpenCached,
    PoolFaulted,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::RegSgx,
        Workload::RegContainer,
        Workload::PoolOpen,
        Workload::PoolOpenCached,
        Workload::PoolFaulted,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RegSgx => "reg_sgx",
            Workload::RegContainer => "reg_container",
            Workload::PoolOpen => "pool_open",
            Workload::PoolOpenCached => "pool_open_cached",
            Workload::PoolFaulted => "pool_faulted",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed or open loop, with client count or rate — printed with every run.
    pub fn loop_kind(self) -> &'static str {
        match self {
            Workload::RegSgx | Workload::RegContainer => {
                "closed loop, 1 client: the next registration starts when the previous session is up"
            }
            Workload::PoolOpen | Workload::PoolOpenCached => {
                "open loop, Poisson arrivals on a fixed 2000..6000/s ladder; arrival times are \
                 precomputed in virtual time, so generator lateness is 0 by construction"
            }
            Workload::PoolFaulted => {
                "open loop, Poisson arrivals at 2800/s; arrival times are precomputed in virtual \
                 time, so generator lateness is 0 by construction"
            }
        }
    }

    /// Heap to touch before anything is timed (see [`alloc::reserve`]):
    /// about 1.5× `peak_heap_mb`, which grows with the op count. Too
    /// little shows as page faults in the timed phase, printed with
    /// every run.
    pub fn reserve_mb(self, seconds: u64) -> usize {
        let seconds = seconds as usize;
        match self {
            Workload::RegSgx => 32 + 24 * seconds,
            Workload::RegContainer => 24 + 10 * seconds,
            Workload::PoolOpen => 48 + 2 * seconds,
            Workload::PoolOpenCached => 40 + seconds,
            Workload::PoolFaulted => 24 + 14 * seconds,
        }
    }

    /// The AKA deployment of a `reg_*` workload.
    pub fn deployment(self) -> Option<AkaDeployment> {
        match self {
            Workload::RegSgx => Some(AkaDeployment::Sgx(SgxConfig::default())),
            Workload::RegContainer => Some(AkaDeployment::Container),
            _ => None,
        }
    }
}

/// Latency, goodput and failures of the ops a workload reports on.
#[derive(Clone, Copy, Debug)]
pub struct SimPoint {
    pub p50_ms: f64,
    /// Latency at `tail_p`, the highest percentile `n` samples support.
    pub tail_ms: f64,
    pub tail_p: f64,
    /// Completed ops behind the two latencies.
    pub n: usize,
    /// Ops completed OK ÷ virtual seconds first arrival → last completion.
    pub goodput_per_s: f64,
    pub attempted: u64,
    pub ok: u64,
}

impl SimPoint {
    pub fn fail_frac(&self) -> f64 {
        (self.attempted - self.ok) as f64 / self.attempted as f64
    }
}

/// One timed interval: what it took and how fast the machine was.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// On-CPU seconds of the measuring thread.
    pub cpu_s: f64,
    /// Mean on-CPU seconds of the reference kernels run meanwhile.
    pub reference_s: f64,
}

impl Timed {
    fn of(lap: &Lap, metronome: &Metronome) -> Result<Timed, String> {
        Ok(Timed {
            cpu_s: lap.cpu_s,
            reference_s: metronome.reference(lap)?,
        })
    }

    /// The interval in reference seconds (see [`crate::clock`]).
    pub fn reference_seconds(&self) -> f64 {
        crate::clock::reference_seconds(self.cpu_s, self.reference_s)
    }
}

/// What one untraced run measured.
pub struct E2e {
    pub setups: Vec<Timed>,
    /// The timed batches (`ops_per_batch` ops each).
    pub batches: Vec<Timed>,
    pub ops_per_batch: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Allocation calls over the timed phase.
    pub allocs: u64,
    pub peak_heap_mb: f64,
    /// Heap touched before the first set-up, and the first touches of a
    /// page the timed phase made all the same (0 when that was enough).
    pub reserve_mb: usize,
    pub timed_page_faults: u64,
    pub sim: SimPoint,
    /// Ladder workloads only: every rung and the rate that meets the SLO.
    pub slo: Option<(Vec<Rung>, Option<f64>)>,
    /// Digest of every simulated output of the timed phase.
    pub digest: u64,
}

/// Minor page faults of this process so far (`minflt` of `/proc/self/stat`).
fn page_faults() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|minflt| minflt.parse().ok())
        .ok_or_else(|| format!("no minflt in /proc/self/stat: {stat:?}"))
}

/// Runs the set-up `SETUPS` times — first on `seed + 1`, then on `seed` —
/// timing each, and keeps the last world. The repeats double as the
/// determinism check: equal seeds must give equal digests, the other
/// seed a different one.
fn set_up<T>(
    seed: u64,
    metronome: &Metronome,
    mut one: impl FnMut(u64) -> Result<(T, u64), String>,
) -> Result<(Vec<Timed>, T), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut digests = Vec::with_capacity(SETUPS);
    let mut last = None;
    for rep in 0..SETUPS {
        let (lap, built) = Lap::time(|| one(if rep == 0 { seed + 1 } else { seed }));
        let (world, digest) = built?;
        times.push(Timed::of(&lap, metronome)?);
        digests.push(digest);
        last = Some(world);
    }
    if digests[1..].windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("same seed, different set-up digests: {digests:x?}"));
    }
    if digests[0] == digests[1] {
        return Err(format!(
            "seeds {} and {seed} gave the same set-up digest",
            seed + 1
        ));
    }
    Ok((times, last.expect("SETUPS > 0")))
}

/// A deployed slice with its gNB, driven one registration at a time.
pub struct RegWorld {
    pub env: Env,
    pub slice: Slice,
    gnb: GnbSim,
    ops: u64,
}

impl RegWorld {
    pub fn build(
        seed: u64,
        deployment: AkaDeployment,
        tracer: &mut Tracer,
    ) -> Result<Self, String> {
        let mut env = Env::new(seed);
        env.log.disable();
        let config = SliceConfig {
            deployment,
            subscriber_count: SUBSCRIBERS,
        };
        let slice = tracer
            .call("core", "build_slice", || build_slice(&mut env, &config))
            .map_err(|e| format!("build_slice: {e}"))?;
        let gnb = tracer.call("ran", "GnbSim::new", || GnbSim::new(&slice));
        Ok(RegWorld {
            env,
            slice,
            gnb,
            ops: 0,
        })
    }

    /// One op: registration plus PDU session for the next subscriber.
    /// Returns its virtual latency in ns, measured from op start.
    pub fn op(&mut self, digest: &mut Digest, tracer: &mut Tracer) -> Result<u64, String> {
        let index = (self.ops % u64::from(SUBSCRIBERS)) as usize;
        let started = self.env.clock.now();
        let (report, ip) = tracer
            .call("ran", "register_with_session", || {
                self.gnb
                    .register_with_session(&mut self.env, &self.slice, index)
            })
            .map_err(|e| format!("registration {} failed: {e}", self.ops))?;
        let virtual_ns = (self.env.clock.now() - started).as_nanos();
        if ip[0] != 10 {
            return Err(format!("registration {}: no UE IP ({ip:?})", self.ops));
        }
        self.ops += 1;
        digest.u64(virtual_ns);
        digest.u64(report.setup_time.as_nanos());
        digest.u64(u64::from(report.guti.tmsi));
        digest.bytes(&ip);
        Ok(virtual_ns)
    }

    /// Every op must have completed at the AMF, and nothing else.
    pub fn check_completed(&self) -> Result<(), String> {
        let completed = self.slice.amf.borrow().registrations_completed();
        if completed == self.ops {
            Ok(())
        } else {
            Err(format!(
                "AMF completed {completed} registrations, {} ops ran",
                self.ops
            ))
        }
    }

    /// Engine trace lines so far (one per scheduler decision).
    pub fn engine_events(&self) -> u64 {
        self.slice.engine.borrow().trace().len() as u64
    }

    /// SGX counters of the three modules; empty off SGX.
    pub fn sgx_counters(&self) -> Vec<(PakaKind, SgxCounters)> {
        PakaKind::all()
            .into_iter()
            .filter_map(|kind| Some((kind, self.slice.module(kind)?.borrow().sgx_stats()?)))
            .collect()
    }

    fn digest_state(&self, digest: &mut Digest) {
        digest.u64(self.engine_events());
        for (_, c) in self.sgx_counters() {
            digest.u64(c.eenter);
            digest.u64(c.eexit);
            digest.u64(c.aex);
        }
    }
}

/// Latency statistics of raw virtual-ns samples over `virtual_s`.
pub fn sim_point(latencies_ns: &mut [f64], virtual_s: f64) -> SimPoint {
    latencies_ns.sort_by(f64::total_cmp);
    let n = latencies_ns.len();
    let tail_p = stats::tail_percentile(n);
    SimPoint {
        p50_ms: stats::percentile(latencies_ns, 0.5) / 1e6,
        tail_ms: stats::percentile(latencies_ns, tail_p) / 1e6,
        tail_p,
        n,
        goodput_per_s: n as f64 / virtual_s,
        attempted: n as u64,
        ok: n as u64,
    }
}

fn run_reg(
    deployment: AkaDeployment,
    seed: u64,
    seconds: u64,
    reserve_mb: usize,
) -> Result<E2e, String> {
    let off = &mut Tracer::off();
    alloc::reserve(reserve_mb);
    let metronome = Metronome::start()?;
    let (setups, mut world) = set_up(seed, &metronome, |s| {
        let mut world = RegWorld::build(s, deployment, off)?;
        let mut digest = Digest::new();
        for _ in 0..REG_WARMUP_OPS {
            world.op(&mut digest, off)?;
        }
        Ok((world, digest.value()))
    })?;

    let ops_per_batch = REG_OPS_PER_SECOND * seconds / REG_BATCHES;
    let mut latencies = Vec::with_capacity((ops_per_batch * REG_BATCHES) as usize);
    let mut batches = Vec::with_capacity(REG_BATCHES as usize);
    let mut digest = Digest::new();
    let first = world.env.clock.now();
    let (allocs_before, faults_before) = (alloc::allocs(), page_faults()?);
    for _ in 0..REG_BATCHES {
        let (lap, done) = Lap::time(|| {
            for _ in 0..ops_per_batch {
                latencies.push(world.op(&mut digest, off)? as f64);
            }
            Ok::<(), String>(())
        });
        done?;
        batches.push(Timed::of(&lap, &metronome)?);
    }
    let allocs = alloc::allocs() - allocs_before;
    let timed_page_faults = page_faults()? - faults_before;
    let peak_heap_mb = alloc::peak_heap_mb();
    let virtual_s = (world.env.clock.now() - first).as_secs_f64();
    world.check_completed()?;
    world.digest_state(&mut digest);
    let sim = sim_point(&mut latencies, virtual_s);
    Ok(E2e {
        setups,
        batches,
        ops_per_batch,
        attempted: sim.attempted,
        failed: 0,
        allocs,
        peak_heap_mb,
        reserve_mb,
        timed_page_faults,
        sim,
        slo: None,
        digest: digest.value(),
    })
}

/// One call into a pool harness: a `pool_sweep` rate or a `fault_sweep`.
#[derive(Clone, Copy)]
pub enum Call {
    Sweep(SweepConfig),
    Fault(FaultSweepConfig),
}

/// What a [`Call`] returned.
pub enum CallOut {
    Sweep(Box<PoolReport>),
    Fault(Box<FaultReport>),
}

impl CallOut {
    pub fn pool(&self) -> &PoolReport {
        match self {
            CallOut::Sweep(report) => report,
            CallOut::Fault(report) => &report.pool,
        }
    }
}

impl Call {
    pub fn sweep(cached: bool, rate_per_s: f64, arrivals: u32) -> Call {
        Call::Sweep(SweepConfig {
            replicas: POOL_REPLICAS,
            offered_per_sec: rate_per_s,
            arrivals,
            ues: POOL_UES,
            queue: pool_queue(),
            cache: cached.then_some(AvCacheConfig {
                batch_size: 8,
                capacity_per_supi: 16,
            }),
        })
    }

    /// 4 replicas + 1 warm standby at [`FAULT_RATE`], SBI faults split evenly
    /// drop/delay/5xx, supervision retries, one replica killed half way.
    pub fn fault(arrivals: u32) -> Call {
        Call::Fault(FaultSweepConfig {
            replicas: POOL_REPLICAS,
            warm_standby: 1,
            offered_per_sec: FAULT_RATE,
            arrivals,
            ues: POOL_UES,
            queue: pool_queue(),
            sbi: FaultConfig {
                drop_rate: FAULT_SBI_RATE / 3.0,
                delay_rate: FAULT_SBI_RATE / 3.0,
                error_rate: FAULT_SBI_RATE / 3.0,
                ..FaultConfig::default()
            },
            kill_at: Some(arrivals / 2),
            ..FaultSweepConfig::default()
        })
    }

    pub fn arrivals(&self) -> u32 {
        match self {
            Call::Sweep(cfg) => cfg.arrivals,
            Call::Fault(cfg) => cfg.arrivals,
        }
    }

    pub fn rate_per_s(&self) -> f64 {
        match self {
            Call::Sweep(cfg) => cfg.offered_per_sec,
            Call::Fault(cfg) => cfg.offered_per_sec,
        }
    }

    /// Runs the call and checks its accounting: every arrival is either
    /// served or shed (retry-exhausted ops count as shed), none lost.
    pub fn run(&self, seed: u64, tracer: &mut Tracer) -> Result<CallOut, String> {
        let out = match self {
            Call::Sweep(cfg) => {
                let name = format!("pool_sweep@{}", cfg.offered_per_sec);
                CallOut::Sweep(Box::new(
                    tracer.call("scale", &name, || pool_sweep(seed, cfg)),
                ))
            }
            Call::Fault(cfg) => {
                CallOut::Fault(Box::new(
                    tracer.call("faults", "fault_sweep", || fault_sweep(seed, cfg)),
                ))
            }
        };
        let pool = out.pool();
        if pool.arrivals != u64::from(self.arrivals()) || pool.served + pool.shed != pool.arrivals {
            return Err(format!(
                "served {} + shed {} != attempted {} (asked {})",
                pool.served,
                pool.shed,
                pool.arrivals,
                self.arrivals()
            ));
        }
        Ok(out)
    }
}

/// `summary`'s value at the highest percentile its sample count supports.
pub fn summary_tail(summary: &Summary) -> (f64, SimDuration) {
    let p = stats::tail_percentile(summary.count);
    let value = [summary.p99, summary.p95, summary.p75, summary.median][stats::TAILS
        .iter()
        .position(|&t| t == p)
        .expect("p is one of TAILS")];
    (p, value)
}

pub fn pool_point(report: &PoolReport) -> SimPoint {
    let (tail_p, tail) = summary_tail(&report.response);
    SimPoint {
        p50_ms: report.response.median.as_nanos() as f64 / 1e6,
        tail_ms: tail.as_nanos() as f64 / 1e6,
        tail_p,
        n: report.response.count,
        goodput_per_s: report.throughput_per_sec,
        attempted: report.arrivals,
        ok: report.served,
    }
}

fn digest_of(out: &CallOut) -> u64 {
    let mut digest = Digest::new();
    match out {
        CallOut::Sweep(report) => digest.bytes(format!("{report:?}").as_bytes()),
        CallOut::Fault(report) => digest.bytes(format!("{report:?}").as_bytes()),
    }
    digest.value()
}

/// The timed phase of a pool workload.
pub struct PoolPlan {
    /// The set-up's warm-up call.
    warmup: Call,
    /// The calls of one pass; each is one timed batch.
    calls: Vec<Call>,
    /// Index of the call the sim metrics are read at.
    read: usize,
    /// Passes over `calls`, all on the same seed: later passes must
    /// reproduce the first one's reports exactly.
    passes: u32,
}

pub fn pool_plan(workload: Workload, seconds: u64) -> PoolPlan {
    let seconds = u32::try_from(seconds).expect("--seconds is at most 60");
    let cached = workload == Workload::PoolOpenCached;
    if workload == Workload::PoolFaulted {
        let call = Call::fault(FAULT_ARRIVALS_PER_SECOND * seconds);
        return PoolPlan {
            warmup: Call::fault(POOL_WARMUP_ARRIVALS),
            calls: vec![call],
            read: 0,
            passes: FAULT_PASSES,
        };
    }
    let rates = ladder();
    let (arrivals, warmup) = if cached {
        (
            CACHED_ARRIVALS_PER_RUNG_PER_SECOND * seconds,
            CACHED_WARMUP_ARRIVALS,
        )
    } else {
        (ARRIVALS_PER_RUNG_PER_SECOND * seconds, POOL_WARMUP_ARRIVALS)
    };
    let read = rates
        .iter()
        .position(|&r| r == READ_RATE)
        .expect("READ_RATE is a rung");
    PoolPlan {
        warmup: Call::sweep(cached, rates[0], warmup),
        calls: rates
            .iter()
            .map(|&r| Call::sweep(cached, r, arrivals))
            .collect(),
        read,
        passes: 1,
    }
}

fn run_pool(workload: Workload, seed: u64, seconds: u64, reserve_mb: usize) -> Result<E2e, String> {
    let off = &mut Tracer::off();
    alloc::reserve(reserve_mb);
    let metronome = Metronome::start()?;
    let PoolPlan {
        warmup,
        calls,
        read,
        passes,
    } = pool_plan(workload, seconds);
    let (setups, ()) = set_up(seed, &metronome, |s| {
        Ok(((), digest_of(&warmup.run(s, off)?)))
    })?;

    let mut batches = Vec::with_capacity(calls.len() * passes as usize);
    let mut first_pass: Vec<CallOut> = Vec::with_capacity(calls.len());
    let mut digest = Digest::new();
    let (mut attempted, mut failed) = (0, 0);
    let (allocs_before, faults_before) = (alloc::allocs(), page_faults()?);
    for pass in 0..passes {
        for (i, call) in calls.iter().enumerate() {
            let (lap, out) = Lap::time(|| call.run(seed, off));
            let out = out?;
            batches.push(Timed::of(&lap, &metronome)?);
            attempted += out.pool().arrivals;
            failed += out.pool().arrivals - out.pool().served;
            if pass == 0 {
                digest.u64(digest_of(&out));
                first_pass.push(out);
            } else if digest_of(&out) != digest_of(&first_pass[i]) {
                return Err(format!("pass {pass} call {i}: same seed, different report"));
            }
        }
    }
    let allocs = alloc::allocs() - allocs_before;
    let timed_page_faults = page_faults()? - faults_before;
    let peak_heap_mb = alloc::peak_heap_mb();

    let slo = (calls.len() > 1).then(|| {
        let rungs: Vec<Rung> = calls
            .iter()
            .zip(&first_pass)
            .map(|(call, out)| {
                let point = pool_point(out.pool());
                Rung {
                    rate_per_s: call.rate_per_s(),
                    tail_ms: point.tail_ms,
                    fail_frac: point.fail_frac(),
                }
            })
            .collect();
        let rate = stats::slo_rate(&rungs, SLO_TAIL_MS, SLO_FAIL_FRAC);
        (rungs, rate)
    });
    Ok(E2e {
        setups,
        batches,
        ops_per_batch: u64::from(calls[0].arrivals()),
        attempted,
        failed,
        allocs,
        peak_heap_mb,
        reserve_mb,
        timed_page_faults,
        sim: pool_point(first_pass[read].pool()),
        slo,
        digest: digest.value(),
    })
}

/// The untraced run of one workload: set-ups, then the timed phase.
pub fn run_e2e(workload: Workload, seed: u64, seconds: u64) -> Result<E2e, String> {
    let reserve_mb = workload.reserve_mb(seconds);
    match workload.deployment() {
        Some(deployment) => run_reg(deployment, seed, seconds, reserve_mb),
        None => run_pool(workload, seed, seconds, reserve_mb),
    }
}
