//! The one open-loop pool driver.
//!
//! Every pool experiment has the same shape: Poisson registrations,
//! routed by SUPI onto an eUDM replica pool whose replicas are endpoints
//! on the simulation engine, so who waits, who is shed and when each
//! request finishes fall out of event ordering over the modules'
//! *measured* service occupancies. [`run_scenario`] is that shape,
//! written once, and a [`Scenario`] is one experiment as data, its SBI
//! fault plan included: every pool row of the experiment table is a list
//! of scenarios, and each row renders the [`Outcome`]s it gets back.
//!
//! What every scenario relies on — behaviours of the loop, not options:
//!
//! * **RNG streams.** `DetRng::fork` consumes one draw from the parent,
//!   so a stream is forked only when it is used: `"{name}-workload"`
//!   always, then `"sbi-fault-plan"` only when a fault rate is non-zero,
//!   then `"{name}-retry"` only when the retry policy is enabled.
//! * **Arrivals and subscribers.** Arrivals are drawn lazily from their
//!   own fork, one ahead of the one being offered, so the driver's memory
//!   follows work in flight, not trace length. A subscriber is an index
//!   into a table of SUPIs formatted once; the entry after the population
//!   is the probe subscriber.
//! * **Horizon.** An arrival is offered at
//!   `arrival.at.max(env.clock.now())`: a cold failover or crash reload
//!   can push the clock past the next arrival instants, and offered load
//!   then piles up at `now`, as it does at a real frontend in an outage.
//!   Otherwise the horizon is `arrival.at`, because `Engine::run_until`
//!   leaves the clock at its target.
//! * **Sheds are 503 completions**: with retries disabled they fall
//!   straight through to "budget spent" and count as lost.
//! * **Probe subscriber.** Half-open probes authenticate a subscriber of
//!   their own, provisioned only when health gating is on (provisioning
//!   advances the clock). Probes go out after every settle pass.
//! * **Refill on success** only for requests sent as batch prefetches
//!   (cache on and not browned out at send time).
//! * **One SQN counter per subscriber** feeds single and batch requests;
//!   a batch reserves its window when sent. No SQN is sent twice, whether
//!   two misses overlap or brownout switches paths.
//! * **Retransmission copy** of a request only when retries are enabled;
//!   a cache hit allocates nothing.
//! * **One completions buffer.** `Engine::run_until` drains into a `Vec`
//!   the run keeps, and each settle pass empties it.

use crate::avcache::{AvCache, AvCacheConfig, Brownout};
use crate::health::HealthEvent;
use crate::metrics::{ClassReport, PoolReport, RecoveryStats, RecoveryTracker, RunRecorder};
use crate::pool::{EnclavePool, FailoverReport, PoolConfig};
use crate::router::ReplicaId;
use shield5g_core::paka::PakaKind;
use shield5g_crypto::ident::{Plmn, Supi};
use shield5g_crypto::keys::ServingNetworkName;
use shield5g_crypto::sqn::sqn_from_bytes;
use shield5g_mw::{ClassSheds, FaultConfig, FaultCounts, RetryPolicy, RetryStats, SbiFaultPlan};
use shield5g_nf::backend::{
    sqn_add, AkaOp, AvBatch, GenerateAv, GenerateAvBatch, UdmAkaBatchRequest, UdmAkaRequest,
};
use shield5g_obs::{hub as obs, labels};
use shield5g_ran::workload::{poisson_arrivals, test_subscriber, WorkloadSpec};
use shield5g_sim::engine::{
    Completion, Engine, PriorityClass, ERROR_HEADER, FAULT_HEADER, PRIORITY_HEADER,
};
use shield5g_sim::http::{marker, Header, HttpRequest, SharedPaths};
use shield5g_sim::rng::DetRng;
use shield5g_sim::table::IdTable;
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::Env;

/// Long-term key of every workload subscriber (the standard test K).
pub(crate) const K: [u8; 16] = [0x46; 16];
const OPC: [u8; 16] = [0xcd; 16];

/// VNF-side cost of serving an authentication from the AV cache: a hash
/// lookup and a vector copy in frontend memory — no enclave, no TLS hop.
const CACHE_HIT_NANOS: u64 = 1_500;

/// The priority marker an emergency request carries.
static EMERGENCY: Header = marker(PRIORITY_HEADER, "emergency");

/// One open-loop pool experiment, as plain data.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Prefix of the RNG fork labels (`"{name}-workload"`,
    /// `"{name}-retry"`).
    pub name: &'static str,
    /// The pool to deploy: replicas, warm standbys, admission queue and
    /// emergency headroom.
    pub pool: PoolConfig,
    /// The trace to offer: subscriber population, arrivals and rate.
    pub workload: WorkloadSpec,
    /// Every n-th arrival (by index) is an emergency registration;
    /// 0 = no emergency traffic.
    pub emergency_period: u32,
    /// AV pre-generation; `None` = one enclave round trip per request.
    pub cache: Option<AvCacheConfig>,
    /// Client supervision retries guarding every pool request.
    pub retry: RetryPolicy,
    /// SBI message faults on every pool request and reply; all rates
    /// zero installs no plan.
    pub sbi: FaultConfig,
    /// Health-gated routing: replicas whose failure EWMA trips are
    /// ejected from the ring until a half-open probe succeeds.
    pub health: bool,
    /// Brownout entry threshold on the response-latency EWMA; `None`
    /// keeps batch prefetching unconditionally.
    pub brownout: Option<SimDuration>,
    /// EPC thrash pages charged to every replica for the whole run.
    pub thrash_pages: u64,
    /// Kill the replica owning the n-th arrival's SUPI just before that
    /// arrival is offered.
    pub kill_at: Option<u32>,
    /// Crash the enclave of the replica owning the n-th arrival's SUPI:
    /// it stays on the ring and its next request pays the full reload.
    pub crash_at: Option<u32>,
    /// AEX burst injected into the crashed enclave alongside the crash.
    pub aex_storm: u64,
}

/// Frontend-side counters of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tallies {
    /// Client supervision-retry counters.
    pub retry: RetryStats,
    /// Normal-class outcome figures.
    pub normal: ClassReport,
    /// Emergency-class outcome figures.
    pub emergency: ClassReport,
    /// Final failures that admission control did *not* cause — zero
    /// whenever nothing injects faults.
    pub failed_admitted: u64,
    /// The failover, when a replica was killed.
    pub failover: Option<FailoverReport>,
    /// Pre-generated AVs purged when their replica died.
    pub purged_avs: usize,
    /// Replicas ejected from the ring by health gating.
    pub ejections: u64,
    /// Replicas reinstated after a successful half-open probe.
    pub reinstatements: u64,
    /// Half-open probes sent.
    pub probes: u64,
}

/// Everything one run measured; each experiment reports a subset.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Throughput, response/queueing summaries, per-replica load.
    pub pool: PoolReport,
    /// MTTR / goodput-under-fault / retry amplification.
    pub recovery: RecoveryStats,
    /// What the frontend counted while driving the run.
    pub tallies: Tallies,
    /// Replica-side per-class admission sheds (queue-full + deadline).
    pub sheds: ClassSheds,
    /// Enclave reloads paid for injected crashes.
    pub crash_recoveries: u64,
    /// What the SBI plan injected.
    pub sbi: FaultCounts,
    /// End-of-run brownout state, when the trigger was armed.
    pub brownout: Option<Brownout>,
    /// Virtual time from first arrival to the last completion of any
    /// kind (failures and probes included).
    pub span: SimDuration,
    /// What the run left behind and how fresh its SQNs were.
    pub audit: Audit,
}

/// End-of-run audit, counted per run and never per op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Audit {
    /// Engine contexts still live after the drain.
    pub live_contexts: usize,
    /// AVs still banked in the cache.
    pub banked_avs: usize,
    /// Batch heads consumed by the requests that missed.
    pub batch_heads: u64,
    /// SQNs sent on first attempts: how many, and their sum.
    pub sqns_issued: (u64, u64),
    /// Σ `h` and Σ `h (h + 1) / 2` over the final SQN counters `h`: equal
    /// to `sqns_issued` when each subscriber was sent `1..=h`, once each.
    pub sqns_reached: (u64, u64),
}

impl Audit {
    /// Tallies `n` SQNs sent, ending at `last`.
    fn issued(&mut self, n: u32, last: &[u8; 6]) {
        let (n, last) = (u64::from(n), sqn_from_bytes(last));
        self.sqns_issued.0 += n;
        self.sqns_issued.1 += n * last - n * (n - 1) / 2;
    }
}

/// One in-flight (possibly retransmitted) pool request.
#[derive(Default)]
struct Pending {
    /// The subscriber, as an index into `Run::supis`.
    ue: u32,
    /// Retransmission copy; kept only while retries are enabled.
    req: Option<HttpRequest>,
    attempt: u32,
    class: PriorityClass,
    /// The replica the request was scheduled on (health accounting).
    replica: ReplicaId,
    /// A half-open health probe aimed at this (ejected) replica: its
    /// outcome feeds `note_probe`, not the tallies.
    probe: bool,
    /// Sent as a batch prefetch, so a success refills the cache.
    batch: bool,
}

/// Mutable run state threaded through the settle loop.
struct Run {
    policy: RetryPolicy,
    /// Jitter stream; `Some` iff the policy retries.
    retry_rng: Option<DetRng>,
    /// `test_subscriber(i)` of every subscriber, then the probe
    /// subscriber's.
    supis: Vec<Supi>,
    cache: Option<AvCache>,
    /// The SQN counter per subscriber, indexed like `supis`: the last SQN
    /// sent, all zero before the first request.
    sqn_counters: Vec<[u8; 6]>,
    /// The request path handles, one per AV row, shared by every request.
    paths: SharedPaths,
    brownout: Option<Brownout>,
    in_flight: IdTable<Pending>,
    recorder: RunRecorder,
    recovery: RecoveryTracker,
    tallies: Tallies,
    audit: Audit,
    last_event: SimTime,
}

impl Run {
    fn class_mut(&mut self, class: PriorityClass) -> &mut ClassReport {
        match class {
            PriorityClass::Normal => &mut self.tallies.normal,
            PriorityClass::Emergency => &mut self.tallies.emergency,
        }
    }

    /// Drains `done`, a batch of engine completions: probe outcomes feed the
    /// health tracker; successes feed the cache, the recorder and the
    /// class tallies; failures are retransmitted (re-routed through the
    /// pool's *current* ring, never earlier than `floor`) until the
    /// retry budget is spent, then abandoned against their class. Then
    /// sends one half-open probe — a real single-AV request, scheduled
    /// directly at the endpoint the ring no longer routes to — to every
    /// ejected replica whose hold-off expired.
    fn settle(
        &mut self,
        engine: &mut Engine,
        pool: &mut EnclavePool,
        env: &mut Env,
        floor: SimTime,
        done: &mut Vec<Completion>,
    ) {
        for completion in done.drain(..) {
            #[expect(clippy::expect_used, reason = "every completion's tag was scheduled")]
            let pending = self
                .in_flight
                .remove(completion.tag)
                .expect("completion for unscheduled tag");
            let finished = completion.finished;
            self.last_event = self.last_event.max(finished);
            let ok = completion.response.is_success();
            if pending.probe {
                if let Some(HealthEvent::Reinstated(_)) =
                    pool.note_probe(pending.replica, ok, finished)
                {
                    self.tallies.reinstatements += 1;
                }
                continue;
            }
            let latency = finished - completion.submitted;
            if let Some(HealthEvent::Ejected(_)) = pool.note_outcome(pending.replica, ok, finished)
            {
                self.tallies.ejections += 1;
            }
            if let Some(b) = self.brownout.as_mut() {
                b.observe(latency);
            }
            if ok {
                self.recovery.success(finished);
                if let (true, Some(c)) = (pending.batch, self.cache.as_mut()) {
                    // Checked whole before any AV reaches the cache.
                    #[expect(clippy::expect_used, reason = "ok batch replies are module-encoded")]
                    let avs = AvBatch::avs(&completion.response.body).expect("batch wire");
                    let supi = self.supis[pending.ue as usize].as_str();
                    c.put_batch(supi, avs);
                    // The missing request consumes the batch head itself.
                    self.audit.batch_heads += u64::from(c.pop_uncounted(supi).is_some());
                }
                if pending.attempt > 0 {
                    self.tallies.retry.recovered += 1;
                }
                self.recorder
                    .served(completion.submitted, completion.queued, finished);
                self.class_mut(pending.class).served += 1;
                continue;
            }
            // A failure marked by the fault layer is a manifested fault;
            // sheds (admission control) are failures but not faults.
            if completion.response.header(FAULT_HEADER).is_some() {
                self.recovery.fault(finished);
            }
            self.recovery.failure(finished);
            let retryable = completion.response.status >= 500
                && completion.response.header(ERROR_HEADER) != Some("loop");
            match (self.retry_rng.as_mut(), &pending.req) {
                (Some(rng), Some(req))
                    if retryable && pending.attempt < self.policy.max_retries =>
                {
                    let attempt = pending.attempt + 1;
                    self.tallies.retry.retries += 1;
                    let backoff = self.policy.backoff(attempt);
                    let jittered =
                        SimDuration::from_nanos(rng.jitter(backoff.as_nanos(), self.policy.jitter));
                    // Not before `floor`: the engine has already run up to it.
                    let at = (finished + jittered).max(floor);
                    let replica = pool.route(self.supis[pending.ue as usize].as_str());
                    let addr = pool.replica(replica).addr();
                    let tag = engine.schedule_request(at, addr, req.clone());
                    self.in_flight.insert(
                        tag,
                        Pending {
                            attempt,
                            replica,
                            ..pending
                        },
                    );
                }
                _ => {
                    self.tallies.retry.exhausted += 1;
                    self.recorder.shed();
                    self.class_mut(pending.class).lost += 1;
                    if !completion.shed() {
                        self.tallies.failed_admitted += 1;
                    }
                }
            }
        }
        let probe = self.supis.len() - 1;
        for replica in pool.due_probes(floor) {
            let addr = pool.replica(replica).addr();
            let req = single_request(
                env,
                &mut self.paths,
                &mut self.sqn_counters[probe],
                self.supis[probe],
            );
            self.audit.issued(1, &self.sqn_counters[probe]);
            let tag = engine.schedule_request(floor, addr, req);
            self.tallies.probes += 1;
            obs::count("pool", addr, labels::BREAKER_PROBES, 1);
            self.in_flight.insert(
                tag,
                Pending {
                    ue: probe as u32,
                    replica,
                    probe: true,
                    ..Pending::default()
                },
            );
        }
    }
}

/// Runs one open-loop experiment against a freshly deployed eUDM pool
/// (see the module docs). The scenario's SBI fault plan is installed on
/// the pool's fault switch once the replicas are registered on the
/// engine, before the first arrival.
///
/// # Panics
///
/// Panics when a cache refill response fails to decode, or when the
/// engine leaves requests unsettled.
#[must_use]
pub fn run_scenario(seed: u64, sc: &Scenario) -> Outcome {
    let mut env = Env::new(seed);
    env.log.disable();
    let mut pool = EnclavePool::deploy(&mut env, PakaKind::EUdm, sc.pool);
    let ues = sc.workload.ues as usize;
    let supis: Vec<Supi> = (0..=sc.workload.ues).map(test_subscriber).collect();
    let provisioned = if sc.health { ues + 1 } else { ues };
    for &supi in &supis[..provisioned] {
        pool.provision_subscriber(&mut env, supi, K);
    }
    if sc.thrash_pages > 0 {
        for replica in pool.replicas() {
            replica
                .module()
                .borrow_mut()
                .set_epc_thrash(sc.thrash_pages);
        }
    }
    pool.rebaseline();
    if sc.health {
        pool.enable_health();
    }

    let mut wl_rng = env.rng.fork(&format!("{}-workload", sc.name));
    let mut arrivals = poisson_arrivals(&mut wl_rng, env.clock.now(), &sc.workload).peekable();
    let first_arrival = arrivals.peek().map_or(env.clock.now(), |a| a.at);

    let mut engine = Engine::new();
    pool.register_on(&mut engine);
    let plan = SbiFaultPlan::install(pool.fault_switch(), &mut env, sc.sbi);

    let mut run = Run {
        policy: sc.retry,
        retry_rng: sc
            .retry
            .enabled()
            .then(|| env.rng.fork(&format!("{}-retry", sc.name))),
        sqn_counters: vec![[0; 6]; supis.len()],
        paths: SharedPaths::default(),
        supis,
        cache: sc.cache.map(AvCache::new),
        brownout: sc.brownout.map(Brownout::new),
        in_flight: IdTable::new(),
        recorder: RunRecorder::new(sc.workload.arrivals),
        recovery: RecoveryTracker::new(),
        tallies: Tallies::default(),
        audit: Audit::default(),
        last_event: env.clock.now(),
    };

    // Completions pass through one buffer for the whole run.
    let mut done = Vec::new();
    for (i, arrival) in arrivals.enumerate() {
        let idx = i as u32;
        let ue = arrival.ue as usize;
        // Drain everything that finished before this arrival so the
        // frontend cache reflects completed batch refills.
        let horizon = arrival.at.max(env.clock.now());
        engine.run_until(&mut env, horizon, &mut done);
        run.settle(&mut engine, &mut pool, &mut env, horizon, &mut done);

        if sc.kill_at == Some(idx) {
            let victim = pool.route(run.supis[ue].as_str());
            // Its pre-generated AVs die with the replica — purged against
            // the ring *before* the kill remaps it.
            if let Some(c) = run.cache.as_mut() {
                run.tallies.purged_avs = c.purge_where(|s| pool.route(s) == victim);
            }
            let report = pool.fail_over_on_engine(&mut env, &mut engine, victim);
            run.recovery.fault(report.at);
            run.tallies.failover = Some(report);
        }
        if sc.crash_at == Some(idx) {
            let module = pool.replica(pool.route(run.supis[ue].as_str())).module();
            let mut m = module.borrow_mut();
            if m.inject_crash(&mut env) {
                run.recovery.fault(env.clock.now());
            }
            if sc.aex_storm > 0 {
                m.inject_aex_storm(&mut env, sc.aex_storm);
            }
        }

        let class = if sc.emergency_period > 0 && idx.is_multiple_of(sc.emergency_period) {
            PriorityClass::Emergency
        } else {
            PriorityClass::Normal
        };
        run.class_mut(class).arrivals += 1;
        run.recorder.arrival(horizon);
        run.last_event = run.last_event.max(horizon);

        // Frontend cache check — hits never reach a replica, so they
        // cannot be queued or shed.
        if run
            .cache
            .as_mut()
            .is_some_and(|c| c.take(run.supis[ue].as_str()).is_some())
        {
            let finish = horizon + SimDuration::from_nanos(CACHE_HIT_NANOS);
            run.recovery.success(finish);
            run.recorder.served(horizon, SimDuration::ZERO, finish);
            run.class_mut(class).served += 1;
            continue;
        }
        // Brownout disables batch prefetching: each miss pays one
        // single-AV round trip and the cache refills only from batches
        // already in flight.
        let browned_out = run.brownout.is_some_and(|b| b.active);
        let prefetch = run.cache.as_ref().filter(|_| !browned_out);
        let (sqn, supi) = (&mut run.sqn_counters[ue], run.supis[ue]);
        let count = prefetch.map_or(1, AvCache::batch_size);
        let mut request = match prefetch {
            Some(_) => batch_request(&mut env, &mut run.paths, sqn, count, supi),
            None => single_request(&mut env, &mut run.paths, sqn, supi),
        };
        run.audit.issued(count, sqn);
        let batch = prefetch.is_some();
        if class == PriorityClass::Emergency {
            request = request.with_marker(&EMERGENCY);
        }
        run.tallies.retry.calls += 1;
        let replica = pool.route(run.supis[ue].as_str());
        let copy = run.retry_rng.is_some().then(|| request.clone());
        let tag = engine.schedule_request(horizon, pool.replica(replica).addr(), request);
        run.in_flight.insert(
            tag,
            Pending {
                ue: arrival.ue,
                req: copy,
                class,
                replica,
                batch,
                ..Pending::default()
            },
        );
    }
    // Drain: each settle pass may retransmit or probe, scheduling fresh
    // work.
    while !run.in_flight.is_empty() {
        let mut done = engine.run_until_idle(&mut env);
        if done.is_empty() {
            break;
        }
        let floor = env.clock.now();
        run.settle(&mut engine, &mut pool, &mut env, floor, &mut done);
    }
    assert!(run.in_flight.is_empty(), "requests left in flight");

    run.audit.live_contexts = engine.stats().live_contexts;
    for h in run.sqn_counters.iter().map(sqn_from_bytes) {
        run.audit.sqns_reached.0 += h;
        run.audit.sqns_reached.1 += h * (h + 1) / 2;
    }
    if let Some(c) = &run.cache {
        run.audit.banked_avs = run.supis.iter().map(|s| c.depth(s.as_str())).sum();
    }
    let span = run.last_event - first_arrival;
    run.tallies.normal.finish(span);
    run.tallies.emergency.finish(span);
    Outcome {
        recovery: run
            .recovery
            .finish((run.tallies.retry.calls, run.tallies.retry.retries)),
        pool: run
            .recorder
            .finish(&pool, &engine, run.cache.map(|c| c.stats())),
        tallies: run.tallies,
        sheds: pool.class_sheds(),
        crash_recoveries: pool
            .replicas()
            .iter()
            .map(|r| r.module().borrow().crash_recoveries())
            .sum(),
        sbi: plan.map_or_else(FaultCounts::default, |p| p.borrow().counts()),
        brownout: run.brownout,
        span,
        audit: run.audit,
    }
}

fn snn() -> ServingNetworkName {
    ServingNetworkName::of(&Plmn::test_network())
}

/// One single-AV request for `supi`, stepping its SQN counter `sqn`
/// (zero before the first request, so that one carries SQN 1).
pub(crate) fn single_request(
    env: &mut Env,
    paths: &mut SharedPaths,
    sqn: &mut [u8; 6],
    supi: Supi,
) -> HttpRequest {
    *sqn = sqn_add(sqn, 1);
    GenerateAv::request(
        paths,
        &UdmAkaRequest {
            supi,
            opc: OPC.into(),
            rand: env.rng.bytes(),
            sqn: *sqn,
            amf_field: [0x80, 0],
            snn: snn(),
        },
    )
}

/// One batch request for `supi`, reserving its `count` SQNs on `sqn`.
fn batch_request(
    env: &mut Env,
    paths: &mut SharedPaths,
    sqn: &mut [u8; 6],
    count: u32,
    supi: Supi,
) -> HttpRequest {
    let sqn_start = sqn_add(sqn, 1);
    *sqn = sqn_add(sqn, u64::from(count));
    GenerateAvBatch::request(
        paths,
        &UdmAkaBatchRequest {
            supi,
            opc: OPC.into(),
            rand_seed: env.rng.bytes(),
            sqn_start,
            amf_field: [0x80, 0],
            snn: snn(),
            count,
        },
    )
}
