//! Sharded enclave replica pools with warm standby.
//!
//! The paper's single biggest operational number is enclave load time:
//! about a minute per module (Fig. 7). A pool that spawns enclaves on
//! demand would therefore stall scale-up behind a 60 s cold load. This
//! pool keeps `warm_standby` fully preheated replicas *outside* the
//! routing ring, and a failover promotes one onto the ring in
//! microseconds.
//!
//! Each replica is a complete, independent deployment: its own host, its
//! own SGX platform, its own enclave with its own transition counters —
//! so per-replica EENTER/AEX deltas in the pool metrics are real counter
//! reads, not divisions of an aggregate.

use crate::health::{HealthEvent, HealthTracker};
use crate::queue::QueueConfig;
use crate::router::{HashRing, ReplicaId};
use shield5g_core::paka::{
    paka_image, ModuleDeployment, PakaKind, PakaModule, ServeMetrics, SgxConfig,
};
use shield5g_crypto::ident::{Plmn, Supi};
use shield5g_crypto::keys::ServingNetworkName;
use shield5g_crypto::secret::SecretBytes;
use shield5g_hmee::counters::SgxCounters;
use shield5g_hmee::platform::SgxPlatform;
use shield5g_infra::host::Host;
use shield5g_infra::image::Registry;
use shield5g_mw::{
    AdmissionLayer, AdmissionPolicy, ClassSheds, ClassShedsHandle, FaultLayer, FaultSwitch,
    ObsCoreHandle, ObsLayer, Stack,
};
use shield5g_nf::backend::{AkaOp, GenerateAv, UdmAkaRequest};
use shield5g_obs::hub as obs;
use shield5g_obs::labels;
use shield5g_sim::engine::{Engine, FAULT_HEADER};
use shield5g_sim::http::{marker, Header, HttpRequest, HttpResponse, SharedPaths};
use shield5g_sim::service::{service_handle, Service};
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::Env;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The engine-facing face of one replica: serves requests on the
/// replica's enclave module and counts them on the shared tally the pool
/// reports from.
struct ReplicaService {
    module: Rc<RefCell<PakaModule>>,
    served: Rc<Cell<u64>>,
    dead: Rc<Cell<bool>>,
}

static REPLICA_DEAD: Header = marker(FAULT_HEADER, "replica-dead");

impl Service for ReplicaService {
    fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
        if self.dead.get() {
            // The replica's host is gone: anything still queued at this
            // endpoint fails fast (connection refused), so callers retry
            // against the survivors instead of waiting out a reload.
            return HttpResponse::error(503, "replica dead").with_marker(&REPLICA_DEAD);
        }
        let (response, _metrics) = self.module.borrow_mut().serve(env, req);
        self.served.set(self.served.get() + 1);
        response
    }
}

/// Lifecycle state of one pool replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaState {
    /// Enclave loaded, first-request lazy init not yet absorbed.
    Preheating,
    /// Preheated warm standby — serving-ready but not on the ring.
    Standby,
    /// On the routing ring, taking traffic.
    Ready,
    /// Killed by fault injection: enclave lost, endpoint failing fast.
    Dead,
}

/// What the pool did about a replica death
/// ([`EnclavePool::kill_replica`]).
#[derive(Clone, Copy, Debug)]
pub struct FailoverReport {
    /// The replica that died.
    pub dead: ReplicaId,
    /// The replica that took over its ring share.
    pub replacement: ReplicaId,
    /// Whether the replacement was a warm standby (microseconds) rather
    /// than a cold spawn (~1 min of virtual time).
    pub standby_promoted: bool,
    /// Virtual instant of the death.
    pub at: SimTime,
    /// Death detected → replacement on the ring.
    pub failover: SimDuration,
}

/// Virtual nodes per replica on the hash ring.
const VNODES: u32 = 64;

/// Pool deployment parameters.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Replicas on the routing ring at deploy time.
    pub replicas: u32,
    /// Preheated spares kept off the ring.
    pub warm_standby: u32,
    /// Per-replica admission queue parameters.
    pub queue: QueueConfig,
    /// Admission-queue slots reserved for emergency-class arrivals on
    /// every replica (0 = classless admission, the historical behavior).
    pub emergency_headroom: usize,
    /// Enclave configuration for every replica.
    pub sgx: SgxConfig,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            replicas: 1,
            warm_standby: 1,
            queue: QueueConfig::default(),
            emergency_headroom: 0,
            sgx: SgxConfig::default(),
        }
    }
}

/// One replica: a distinct enclave deployment.
pub struct Replica {
    /// Stable pool-wide identifier.
    pub id: ReplicaId,
    /// Lifecycle state.
    pub state: ReplicaState,
    /// Virtual time the enclave spawn began.
    pub spawned_at: SimTime,
    /// Virtual time the replica finished preheating.
    pub serving_since: Option<SimTime>,
    addr: Rc<str>,
    module: Rc<RefCell<PakaModule>>,
    /// Counter snapshot at the end of preheat — deltas from here are
    /// pure request-serving cost, excluding boot and warm-up.
    baseline: Option<SgxCounters>,
    served: Rc<Cell<u64>>,
    /// Shared with the engine-facing service: when set, the endpoint
    /// fails fast instead of serving (fault-injected death).
    dead: Rc<Cell<bool>>,
}

impl Replica {
    /// Engine address of the replica, spelled once at spawn: each replica
    /// is its own endpoint with its own worker budget and admission
    /// policy, so the open-loop harness routes by SUPI and then schedules
    /// on the owner's address.
    #[must_use]
    pub(crate) fn addr(&self) -> &str {
        &self.addr
    }

    /// Requests served by this replica (direct serves and engine serves).
    #[must_use]
    pub(crate) fn served(&self) -> u64 {
        self.served.get()
    }

    /// Transition counters accumulated since preheat finished.
    #[must_use]
    pub(crate) fn counters_delta(&self) -> SgxCounters {
        #[expect(clippy::expect_used, reason = "SGX pool replicas keep stats")]
        let now = self
            .module
            .borrow()
            .sgx_stats()
            .expect("pool replicas are SGX deployments");
        match &self.baseline {
            Some(base) => now.delta_since(base),
            None => now,
        }
    }

    /// Shared handle to the replica's enclave module.
    #[must_use]
    pub(crate) fn module(&self) -> Rc<RefCell<PakaModule>> {
        self.module.clone()
    }
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("served", &self.served)
            .finish()
    }
}

/// A sharded pool of identical P-AKA module replicas.
pub struct EnclavePool {
    kind: PakaKind,
    cfg: PoolConfig,
    registry: Registry,
    replicas: Vec<Replica>,
    ring: HashRing,
    next_id: ReplicaId,
    /// Subscriber keys provisioned so far — replayed into newly spawned
    /// replicas so standbys can serve any routed SUPI.
    provisioned: Vec<(Supi, SecretBytes<16>)>,
    /// Span table shared by every replica endpoint's [`ObsLayer`].
    obs_core: ObsCoreHandle,
    /// Arms/disarms fault injection across every replica endpoint at
    /// once (fault plans are installed per experiment, after stacks are
    /// built).
    fault_switch: FaultSwitch,
    /// Per-replica health gating: when enabled, observed completions
    /// drive EWMA ejection/reinstatement of ring members. `None` (the
    /// default) is zero-cost and route-invariant.
    health: Option<HealthTracker>,
    /// Pool-wide per-priority-class shed counters, shared by every
    /// replica endpoint's [`AdmissionLayer`].
    class_sheds: ClassShedsHandle,
}

impl std::fmt::Debug for EnclavePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclavePool")
            .field("kind", &self.kind.name())
            .field("ready", &self.ready_ids().len())
            .field("standby", &self.standby_count())
            .finish()
    }
}

impl EnclavePool {
    /// Deploys `cfg.replicas` ready replicas plus `cfg.warm_standby`
    /// preheated spares. Spawning is the expensive path (~1 min of
    /// virtual time per enclave, Fig. 7) and happens entirely here,
    /// before any traffic.
    #[must_use]
    pub fn deploy(env: &mut Env, kind: PakaKind, cfg: PoolConfig) -> Self {
        // Replicas boot only this pool's module, so its image is the one
        // the registry needs.
        let mut registry = Registry::new();
        registry.push(paka_image(kind));
        let mut pool = EnclavePool {
            kind,
            cfg,
            registry,
            replicas: Vec::new(),
            ring: HashRing::new(VNODES),
            next_id: 0,
            provisioned: Vec::new(),
            obs_core: ObsLayer::core(),
            fault_switch: FaultSwitch::new(),
            health: None,
            class_sheds: ClassShedsHandle::default(),
        };
        for _ in 0..cfg.replicas {
            let id = pool.spawn_replica(env);
            pool.promote(id);
        }
        for _ in 0..cfg.warm_standby {
            pool.spawn_replica(env);
        }
        pool
    }

    /// Spawns and preheats a fresh replica, leaving it in standby.
    /// Returns its id. This is the slow path: full GSC enclave load plus
    /// the cold first request.
    pub(crate) fn spawn_replica(&mut self, env: &mut Env) -> ReplicaId {
        let id = self.next_id;
        self.next_id += 1;
        let spawned_at = env.clock.now();
        let platform = SgxPlatform::new(env);
        let mut host = Host::with_sgx(format!("pool-{}-{id}", self.kind.name()), platform);
        #[expect(clippy::expect_used, reason = "image registered; each host has SGX")]
        let mut module = PakaModule::deploy(
            env,
            &mut host,
            &self.registry,
            self.kind,
            ModuleDeployment::Sgx(self.cfg.sgx),
        )
        .expect("pool replica deploy");
        module.provision_subscriber_keys(env, &self.provisioned);
        let mut replica = Replica {
            id,
            state: ReplicaState::Preheating,
            spawned_at,
            serving_since: None,
            addr: format!("{}-r{id}", self.kind.endpoint()).into(),
            module: Rc::new(RefCell::new(module)),
            baseline: None,
            served: Rc::new(Cell::new(0)),
            dead: Rc::new(Cell::new(false)),
        };
        Self::preheat(env, self.kind, &mut replica);
        self.replicas.push(replica);
        id
    }

    /// Absorbs the cold first request (§V-B4's R_I ≈ 20 × R_S lazy init)
    /// so it never lands on subscriber traffic, then snapshots the
    /// counter baseline.
    fn preheat(env: &mut Env, kind: PakaKind, replica: &mut Replica) {
        let warmup = match kind {
            PakaKind::EUdm => {
                // The preheat probe must not depend on provisioned
                // subscribers; an unknown SUPI still walks the full TLS +
                // dispatch + vault-lookup path (404 is fine — the lazy
                // init it triggers is what we are here for).
                GenerateAv::request(&mut SharedPaths::default(), &warmup_udm_request())
            }
            PakaKind::EAusf | PakaKind::EAmf => shield5g_core::harness::standard_request(kind),
        };
        let _ = replica.module.borrow_mut().serve(env, warmup);
        replica.baseline = replica.module.borrow().sgx_stats();
        replica.state = ReplicaState::Standby;
    }

    /// Registers every *ready* replica as its own engine endpoint
    /// (address [`Replica::addr`], worker count = the module's
    /// serving-thread budget, admission policy = the pool's queue
    /// config). The open-loop harness then schedules routed arrivals and
    /// lets queueing, overlap, and shedding fall out of event ordering.
    pub(crate) fn register_on(&self, engine: &mut Engine) {
        for replica in self
            .replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Ready)
        {
            self.register_replica(engine, replica);
        }
    }

    /// Registers one ready replica as an engine endpoint (used by the
    /// failover path to bring a promoted standby online mid-run). No-op
    /// when the address is already registered.
    pub(crate) fn register_replica_on(&self, engine: &mut Engine, id: ReplicaId) {
        self.register_replica(engine, self.replica(id));
    }

    fn register_replica(&self, engine: &mut Engine, replica: &Replica) {
        let addr = replica.addr();
        if engine.knows(addr) {
            return;
        }
        let workers = replica.module.borrow().app_threads();
        // Outermost first, in the rank order of `mw::stack`'s table: Obs
        // counts the arrivals Admission sheds, and Fault decides fates
        // only for admitted legs.
        let stack = Stack::new(Engine::leaf(service_handle(ReplicaService {
            module: replica.module.clone(),
            served: replica.served.clone(),
            dead: replica.dead.clone(),
        })))
        .with(ObsLayer::new(self.obs_core.clone()))
        .with(
            AdmissionLayer::with_priority(
                AdmissionPolicy {
                    capacity: Some(self.cfg.queue.capacity),
                    deadline: Some(self.cfg.queue.deadline),
                },
                self.cfg.emergency_headroom,
            )
            .share_class_sheds(self.class_sheds.clone()),
        )
        .with(FaultLayer::new(self.fault_switch.clone()));
        engine.register(addr, workers, stack.into_handle());
    }

    /// Pool-wide per-priority-class shed totals, aggregated across every
    /// replica endpoint (including ones since killed).
    #[must_use]
    pub(crate) fn class_sheds(&self) -> ClassSheds {
        *self.class_sheds.borrow()
    }

    /// The shared switch arming fault injection on every replica
    /// endpoint registered by this pool (see
    /// [`shield5g_mw::FaultSwitch`]).
    #[must_use]
    pub(crate) fn fault_switch(&self) -> &FaultSwitch {
        &self.fault_switch
    }

    /// Moves a standby replica onto the routing ring (the fast scale-up
    /// path — no enclave work at all).
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a standby replica.
    pub(crate) fn promote(&mut self, id: ReplicaId) {
        let replica = self.replica_mut(id);
        assert_eq!(
            replica.state,
            ReplicaState::Standby,
            "only standby replicas can be promoted"
        );
        replica.state = ReplicaState::Ready;
        self.ring.add(id);
        self.replica_mut(id).serving_since = None;
    }

    /// Scales the ring up by one replica. Prefers promoting a warm
    /// standby (microseconds); falls back to a cold spawn (~1 min of
    /// virtual time) only when the bench is empty. Returns the promoted
    /// replica id and whether a standby was available.
    pub(crate) fn scale_up(&mut self, env: &mut Env) -> (ReplicaId, bool) {
        let standby = self
            .replicas
            .iter()
            .find(|r| r.state == ReplicaState::Standby)
            .map(|r| r.id);
        match standby {
            Some(id) => {
                self.promote(id);
                let at = env.clock.now();
                self.replica_mut(id).serving_since = Some(at);
                (id, true)
            }
            None => {
                let id = self.spawn_replica(env);
                self.promote(id);
                let at = env.clock.now();
                self.replica_mut(id).serving_since = Some(at);
                (id, false)
            }
        }
    }

    /// **Fault interface**: kills a ready replica — the host dies, taking
    /// the enclave instance with it. The pool detects the death, pulls the
    /// replica off the ring (its endpoint fails fast from here on), and
    /// restores capacity by promoting a warm standby (or cold-spawning
    /// when the bench is empty). Returns what happened and how long the
    /// failover took.
    ///
    /// The caller owns AV-cache invalidation: authentication vectors that
    /// were pre-generated through the dead replica must be purged (see
    /// [`crate::avcache::AvCache::purge_where`]) — compute the affected
    /// SUPIs via [`EnclavePool::route`] *before* calling this.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not a ready replica.
    pub fn kill_replica(&mut self, env: &mut Env, id: ReplicaId) -> FailoverReport {
        let at = env.clock.now();
        {
            let replica = self.replica_mut(id);
            assert_eq!(
                replica.state,
                ReplicaState::Ready,
                "kill needs a ready replica"
            );
            replica.state = ReplicaState::Dead;
            replica.dead.set(true);
            replica.module.borrow_mut().inject_crash();
        }
        self.ring.remove(id);
        // A dead replica's health history is moot; the replacement
        // starts with a clean circuit.
        if let Some(tracker) = self.health.as_mut() {
            tracker.forget(id);
        }
        let (replacement, standby_promoted) = self.scale_up(env);
        FailoverReport {
            dead: id,
            replacement,
            standby_promoted,
            at,
            failover: env.clock.now() - at,
        }
    }

    /// [`EnclavePool::kill_replica`] plus engine bookkeeping: the
    /// replacement replica is registered as a live endpoint so routed
    /// arrivals can reach it mid-run. The dead endpoint stays registered
    /// and fails fast, which is what its still-queued requests deserve.
    pub(crate) fn fail_over_on_engine(
        &mut self,
        env: &mut Env,
        engine: &mut Engine,
        id: ReplicaId,
    ) -> FailoverReport {
        let report = self.kill_replica(env, id);
        self.register_replica_on(engine, report.replacement);
        report
    }

    /// Routes a SUPI to its owning ready replica.
    #[must_use]
    pub fn route(&self, supi: &str) -> ReplicaId {
        self.ring.route(supi)
    }

    /// Turns on health-gated routing: completions reported through
    /// [`EnclavePool::note_outcome`] feed a per-replica failure EWMA,
    /// and replicas that trip it are ejected from the ring until a
    /// half-open probe succeeds.
    pub(crate) fn enable_health(&mut self) {
        self.health = Some(HealthTracker::new());
    }

    /// The health tracker, when enabled.
    #[must_use]
    pub fn health(&self) -> Option<&HealthTracker> {
        self.health.as_ref()
    }

    /// **Health interface**: report one observed completion against the
    /// replica that served (or failed) it. When the outcome trips the
    /// replica's circuit, the replica is ejected from the ring — its
    /// SUPIs remap to the survivors — unless it is the last ring member
    /// (a degraded replica still beats an empty ring; its circuit is
    /// force-closed instead). No-op unless health-gated routing is on
    /// ([`crate::openloop::Scenario::health`]).
    pub(crate) fn note_outcome(
        &mut self,
        id: ReplicaId,
        ok: bool,
        now: SimTime,
    ) -> Option<HealthEvent> {
        let tracker = self.health.as_mut()?;
        // Only ready ring members generate health signal: the dead fail
        // fast by design and the ejected are already routed around.
        let ready = self
            .replicas
            .iter()
            .any(|r| r.id == id && r.state == ReplicaState::Ready);
        if !ready || tracker.is_ejected(id) {
            return None;
        }
        match tracker.note(id, ok, now) {
            Some(HealthEvent::Ejected(id)) => {
                if self.ring.len() > 1 {
                    self.ring.remove(id);
                    obs::count("pool", self.replica(id).addr(), labels::REPLICA_EJECTED, 1);
                    Some(HealthEvent::Ejected(id))
                } else {
                    #[expect(clippy::expect_used, reason = "`health` was checked above")]
                    self.health
                        .as_mut()
                        .expect("tracker present")
                        .force_close(id);
                    None
                }
            }
            other => other,
        }
    }

    /// Ejected replicas whose hold-off has expired: each returned id has
    /// claimed its half-open probe slot, and the caller must send one
    /// probe request to it and report the outcome through
    /// [`EnclavePool::note_probe`]. Empty without health gating.
    pub(crate) fn due_probes(&mut self, now: SimTime) -> Vec<ReplicaId> {
        let Some(tracker) = self.health.as_mut() else {
            return Vec::new();
        };
        tracker
            .ejected()
            .into_iter()
            .filter(|&id| tracker.due_probe(id, now))
            .collect()
    }

    /// **Health interface**: report a half-open probe's outcome. A
    /// success reinstates the replica onto the ring; a failure keeps it
    /// ejected for another hold-off.
    pub(crate) fn note_probe(
        &mut self,
        id: ReplicaId,
        ok: bool,
        now: SimTime,
    ) -> Option<HealthEvent> {
        let ev = self.health.as_mut()?.note_probe(id, ok, now);
        if let Some(HealthEvent::Reinstated(id)) = ev {
            self.ring.add(id);
            obs::count(
                "pool",
                self.replica(id).addr(),
                labels::REPLICA_REINSTATED,
                1,
            );
        }
        ev
    }

    /// Serves a request on `id` synchronously, off the engine (no
    /// admission, no queueing), returning the response, the module-side
    /// metrics, and the service occupancy (wall time the replica spent
    /// on it, connection choreography included).
    pub fn serve_on(
        &mut self,
        env: &mut Env,
        id: ReplicaId,
        request: HttpRequest,
    ) -> (HttpResponse, ServeMetrics, SimDuration) {
        let replica = self.replica_mut(id);
        assert_eq!(
            replica.state,
            ReplicaState::Ready,
            "serving needs a ready replica"
        );
        let t0 = env.clock.now();
        let (response, metrics) = replica.module.borrow_mut().serve(env, request);
        replica.served.set(replica.served.get() + 1);
        (response, metrics, env.clock.now() - t0)
    }

    /// Provisions a subscriber key into every replica (current and, via
    /// the replay list, future ones), as a batch of one.
    pub fn provision_subscriber(
        &mut self,
        env: &mut Env,
        supi: Supi,
        k: impl Into<SecretBytes<16>>,
    ) {
        self.provision_subscribers(env, [(supi, k.into())]);
    }

    /// Provisions subscriber keys into every replica, standbys included,
    /// and onto the replay list for future ones. Each replica takes the
    /// batch whole ([`PakaModule::provision_subscriber_keys`]).
    pub(crate) fn provision_subscribers(
        &mut self,
        env: &mut Env,
        keys: impl IntoIterator<Item = (Supi, SecretBytes<16>)>,
    ) {
        let start = self.provisioned.len();
        self.provisioned.extend(keys);
        let batch = &self.provisioned[start..];
        for replica in &mut self.replicas {
            replica
                .module
                .borrow_mut()
                .provision_subscriber_keys(env, batch);
        }
    }

    /// Re-snapshots every replica's counter baseline. Experiments call
    /// this after bulk subscriber provisioning so counter deltas measure
    /// request serving alone.
    pub(crate) fn rebaseline(&mut self) {
        for replica in &mut self.replicas {
            replica.baseline = replica.module.borrow().sgx_stats();
        }
    }

    /// Ready replica ids, ascending.
    #[must_use]
    pub(crate) fn ready_ids(&self) -> Vec<ReplicaId> {
        self.ring.replica_ids()
    }

    /// Number of warm standbys on the bench.
    #[must_use]
    pub(crate) fn standby_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Standby)
            .count()
    }

    /// All replicas (any state).
    #[must_use]
    pub(crate) fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The replica with the given id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    #[must_use]
    #[expect(clippy::expect_used, reason = "spawned ids are never removed")]
    pub(crate) fn replica(&self, id: ReplicaId) -> &Replica {
        self.replicas
            .iter()
            .find(|r| r.id == id)
            .expect("unknown replica id")
    }

    #[expect(clippy::expect_used, reason = "spawned ids are never removed")]
    fn replica_mut(&mut self, id: ReplicaId) -> &mut Replica {
        self.replicas
            .iter_mut()
            .find(|r| r.id == id)
            .expect("unknown replica id")
    }
}

/// The eUDM preheat probe: a valid AV request for a reserved SUPI no
/// operator provisions, `imsi-00101999999999`.
fn warmup_udm_request() -> UdmAkaRequest {
    let home = Plmn::test_network();
    UdmAkaRequest {
        supi: Supi::numbered(home, 999_999_999, 9),
        opc: [0; 16].into(),
        rand: [0; 16],
        sqn: [0; 6],
        amf_field: [0x80, 0],
        snn: ServingNetworkName::of(&home),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_mw::BreakerPolicy;
    use shield5g_ran::workload::{test_subscriber, test_supi};

    fn pool(env: &mut Env, replicas: u32, standby: u32) -> EnclavePool {
        EnclavePool::deploy(
            env,
            PakaKind::EUdm,
            PoolConfig {
                replicas,
                warm_standby: standby,
                ..PoolConfig::default()
            },
        )
    }

    fn env() -> Env {
        Env::new(7101)
    }

    fn av_request(supi: &str) -> HttpRequest {
        GenerateAv::request(
            &mut SharedPaths::default(),
            &UdmAkaRequest {
                supi: Supi::parse(supi).unwrap(),
                opc: [0xcd; 16].into(),
                rand: [0x23; 16],
                sqn: [0, 0, 0, 0, 0, 1],
                amf_field: [0x80, 0],
                snn: shield5g_crypto::keys::ServingNetworkName::new("001", "01"),
            },
        )
    }

    #[test]
    fn replicas_are_distinct_enclaves_with_own_counters() {
        let mut env = env();
        let mut p = pool(&mut env, 2, 0);
        for i in 0..4 {
            p.provision_subscriber(&mut env, test_subscriber(i), [0x46; 16]);
        }
        // Find SUPIs owned by each replica and serve them there.
        let (mut on0, mut on1) = (0u32, 0u32);
        for i in 0..40 {
            let supi = test_supi(i % 4);
            let id = p.route(&supi);
            let (resp, _, _) = p.serve_on(&mut env, id, av_request(&supi));
            assert!(resp.is_success());
            if id == 0 {
                on0 += 1;
            } else {
                on1 += 1;
            }
        }
        assert!(on0 > 0 && on1 > 0, "4 SUPIs should span 2 replicas");
        let d0 = p.replica(0).counters_delta();
        let d1 = p.replica(1).counters_delta();
        // Each replica's counters reflect only its own share (~95/request).
        assert!(d0.eenter >= u64::from(on0) * 85 && d0.eenter <= u64::from(on0) * 110);
        assert!(d1.eenter >= u64::from(on1) * 85 && d1.eenter <= u64::from(on1) * 110);
        assert_eq!(p.replica(0).served(), u64::from(on0));
    }

    #[test]
    fn a_batch_provisions_as_key_by_key_does() {
        let key = |i: u32| (test_subscriber(i), SecretBytes::new([i as u8; 16]));
        let (mut batch_env, mut key_env) = (env(), env());
        let mut batched = pool(&mut batch_env, 3, 1);
        let mut one_by_one = pool(&mut key_env, 3, 1);
        batched.provision_subscribers(&mut batch_env, (0..40).map(key));
        for i in 0..40 {
            let (supi, k) = key(i);
            one_by_one.provision_subscriber(&mut key_env, supi, k);
        }
        assert_eq!(batch_env.clock.now(), key_env.clock.now());
        let enclave_state = |p: &EnclavePool| -> Vec<_> {
            p.replicas()
                .iter()
                .map(|r| {
                    let c = r.module().borrow().container();
                    let c = c.borrow();
                    let enclave = c.shielded.as_ref().unwrap().enclave();
                    (enclave.epc_snapshot(), enclave.vault_slots())
                })
                .collect()
        };
        let (batch_state, key_state) = (enclave_state(&batched), enclave_state(&one_by_one));
        assert_eq!(batch_state.len(), 4, "three replicas and the standby");
        assert!(batch_state.iter().all(|(_, slots)| slots.len() == 40));
        assert_eq!(batch_state, key_state);
    }

    #[test]
    fn standby_promotion_is_off_the_cold_path() {
        let mut env = env();
        let mut p = pool(&mut env, 1, 1);
        assert_eq!(p.standby_count(), 1);
        // Promotion must not pay the ~60 s enclave load (Fig. 7).
        let t0 = env.clock.now();
        let (id, was_warm) = p.scale_up(&mut env);
        let promote_cost = env.clock.now() - t0;
        assert!(was_warm);
        assert_eq!(p.ready_ids(), vec![0, id]);
        assert!(
            promote_cost < SimDuration::from_millis(1),
            "warm promotion cost {promote_cost}"
        );
        // With the bench empty, scale-up falls back to a cold spawn.
        let t1 = env.clock.now();
        let (_, was_warm) = p.scale_up(&mut env);
        assert!(!was_warm);
        assert!(env.clock.now() - t1 > SimDuration::from_secs(50));
    }

    #[test]
    fn promoted_standby_serves_warm() {
        let mut env = env();
        let mut p = pool(&mut env, 1, 1);
        p.provision_subscriber(&mut env, test_subscriber(0), [0x46; 16]);
        let (id, _) = p.scale_up(&mut env);
        // The standby absorbed its cold first request during preheat, so
        // its first production request is stable-speed.
        let (resp, _, occupancy) = p.serve_on(&mut env, id, av_request(&test_supi(0)));
        assert!(resp.is_success());
        assert!(
            occupancy < SimDuration::from_millis(10),
            "promoted standby served cold: {occupancy}"
        );
    }

    #[test]
    fn killed_replica_fails_over_to_warm_standby() {
        let mut env = env();
        let mut p = pool(&mut env, 2, 1);
        for i in 0..8 {
            p.provision_subscriber(&mut env, test_subscriber(i), [0x46; 16]);
        }
        let owners: Vec<(String, ReplicaId)> = (0..8)
            .map(|i| {
                let s = test_supi(i);
                let id = p.route(&s);
                (s, id)
            })
            .collect();

        let report = p.kill_replica(&mut env, 0);
        assert_eq!(report.dead, 0);
        assert!(report.standby_promoted, "warm standby must take over");
        assert!(
            report.failover < SimDuration::from_millis(1),
            "warm failover cost {}",
            report.failover
        );
        assert_eq!(p.replica(0).state, ReplicaState::Dead);
        assert!(p.replica(0).module().borrow().is_crashed());
        assert!(!p.ready_ids().contains(&0));
        assert!(p.ready_ids().contains(&report.replacement));
        // Nothing routes to the dead replica any more; survivors keep
        // their SUPIs except what the new ring member legitimately takes.
        for (supi, owner) in owners {
            let now_at = p.route(&supi);
            assert_ne!(now_at, 0, "{supi} still routed to the dead replica");
            if owner != 0 && now_at != report.replacement {
                assert_eq!(now_at, owner, "{supi} moved between survivors");
            }
        }
        // The survivors (old and promoted) still serve.
        for i in 0..8 {
            let supi = test_supi(i);
            let id = p.route(&supi);
            let (resp, _, _) = p.serve_on(&mut env, id, av_request(&supi));
            assert!(resp.is_success());
        }
    }

    #[test]
    fn killed_replica_cold_spawns_when_bench_is_empty() {
        let mut env = env();
        let mut p = pool(&mut env, 2, 0);
        let report = p.kill_replica(&mut env, 1);
        assert!(!report.standby_promoted);
        assert!(
            report.failover > SimDuration::from_secs(50),
            "cold failover must pay the enclave load: {}",
            report.failover
        );
        assert_eq!(p.ready_ids().len(), 2);
    }

    #[test]
    fn dead_endpoint_fails_fast_on_engine() {
        let mut env = env();
        let mut p = pool(&mut env, 1, 1);
        p.provision_subscriber(&mut env, test_subscriber(0), [0x46; 16]);
        let mut engine = shield5g_sim::engine::Engine::new();
        p.register_on(&mut engine);
        let dead_addr = p.replica(0).addr().to_owned();

        let report = p.fail_over_on_engine(&mut env, &mut engine, 0);
        let new_addr = p.replica(report.replacement).addr().to_owned();
        assert!(engine.knows(&new_addr), "replacement endpoint registered");

        // A request still aimed at the dead endpoint fails fast with the
        // fault marker, without touching the lost enclave.
        let now = env.clock.now();
        let t_dead = engine.schedule_request(now, &dead_addr, av_request(&test_supi(0)));
        let t_live = engine.schedule_request(now, &new_addr, av_request(&test_supi(0)));
        let done = engine.run_until_idle(&mut env);
        let by_tag: std::collections::BTreeMap<u64, &shield5g_sim::engine::Completion> =
            done.iter().map(|c| (c.tag, c)).collect();
        let dead_resp = &by_tag[&t_dead].response;
        assert_eq!(dead_resp.status, 503);
        assert_eq!(dead_resp.header(FAULT_HEADER), Some("replica-dead"));
        assert!(by_tag[&t_live].response.is_success());
        assert_eq!(p.replica(0).served(), 0, "dead replica served nothing");
    }

    /// Feeds failures to `id` until its circuit trips, panicking if the
    /// default policy somehow refuses.
    fn eject(p: &mut EnclavePool, id: ReplicaId, now: SimTime) -> bool {
        for _ in 0..8 {
            match p.note_outcome(id, false, now) {
                Some(HealthEvent::Ejected(e)) => {
                    assert_eq!(e, id);
                    return true;
                }
                Some(other) => panic!("unexpected health event {other:?}"),
                None => {}
            }
        }
        false
    }

    #[test]
    fn unhealthy_replica_is_ejected_probed_and_reinstated() {
        let mut env = env();
        let mut p = pool(&mut env, 2, 0);
        p.enable_health();
        let t0 = env.clock.now();

        assert!(eject(&mut p, 0, t0), "sustained failures must eject");
        assert_eq!(p.ready_ids(), vec![1], "ejected replica off the ring");
        // Every SUPI now lands on the survivor.
        for i in 0..16 {
            assert_eq!(p.route(&test_supi(i)), 1);
        }
        // Outcomes against an ejected replica are inert.
        assert!(p.note_outcome(0, false, t0).is_none());

        // Inside the hold-off: no probe yet.
        assert!(p.due_probes(t0).is_empty());
        let hold_off = BreakerPolicy::default().open_for;
        let later = t0 + hold_off;
        assert_eq!(p.due_probes(later), vec![0]);
        // The slot is claimed until the probe resolves.
        assert!(p.due_probes(later).is_empty());

        assert_eq!(
            p.note_probe(0, true, later),
            Some(HealthEvent::Reinstated(0))
        );
        assert_eq!(p.ready_ids(), vec![0, 1], "probe success rejoins the ring");
    }

    #[test]
    fn failed_probe_keeps_replica_off_the_ring() {
        let mut env = env();
        let mut p = pool(&mut env, 2, 0);
        p.enable_health();
        let t0 = env.clock.now();
        assert!(eject(&mut p, 1, t0));

        let hold_off = BreakerPolicy::default().open_for;
        let later = t0 + hold_off;
        assert_eq!(p.due_probes(later), vec![1]);
        assert_eq!(
            p.note_probe(1, false, later),
            Some(HealthEvent::Reopened(1))
        );
        assert_eq!(p.ready_ids(), vec![0], "failed probe stays routed around");
        // A fresh hold-off starts from the failed probe.
        assert!(p.due_probes(later).is_empty());
        assert_eq!(p.due_probes(later + hold_off), vec![1]);
    }

    #[test]
    fn last_ring_member_is_never_ejected() {
        let mut env = env();
        let mut p = pool(&mut env, 1, 0);
        p.enable_health();
        let now = env.clock.now();
        // Hammer the only replica: the tracker must force-close instead
        // of leaving the ring empty.
        for _ in 0..32 {
            assert!(p.note_outcome(0, false, now).is_none());
        }
        assert_eq!(p.ready_ids(), vec![0]);
        assert!(!p.health().unwrap().is_ejected(0));
    }

    #[test]
    fn killed_replica_health_history_is_forgotten() {
        let mut env = env();
        let mut p = pool(&mut env, 2, 1);
        p.enable_health();
        let now = env.clock.now();
        assert!(eject(&mut p, 0, now));
        let report = p.kill_replica(&mut env, 0);
        assert!(report.standby_promoted);
        // The dead replica's circuit history died with it: no probes due.
        let hold_off = BreakerPolicy::default().open_for;
        assert!(p.due_probes(now + hold_off).is_empty());
        assert!(!p.health().unwrap().is_ejected(0));
    }
}
