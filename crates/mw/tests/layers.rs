//! Integration gates for the middleware stack: the extracted layers
//! reproduce the engine's old inline admission/fault behaviour exactly,
//! and layer *order* is behaviour — the permutation tests pin the
//! documented differences.

use shield5g_mw::{
    AdmissionLayer, BreakerLayer, BreakerPolicy, DeadlineLayer, FaultInjector, FaultInjectorHandle,
    FaultLayer, FaultSwitch, ObsLayer, RetryLayer, RetryPolicy, Stack,
};
use shield5g_obs::hub::{self, ObsHandle};
use shield5g_sim::engine::{
    AdmissionPolicy, Engine, EngineService, EngineServiceHandle, FaultAction, LegMeta, Parked,
    Step, FAULT_HEADER,
};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::service::{service_handle, Service};
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::Env;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A leaf that charges a fixed service time and echoes the body.
struct SlowEcho {
    nanos: u64,
}

impl Service for SlowEcho {
    fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
        env.clock.advance(SimDuration::from_nanos(self.nanos));
        HttpResponse::ok(req.body)
    }
}

/// A relay that forwards to `next` and returns the response unchanged,
/// parking each leg's request path until its response resumes it.
struct Relay {
    next: Rc<str>,
    sent: Parked<Rc<str>>,
}

impl EngineService for Relay {
    fn start(&mut self, _env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
        let path = req.path.clone();
        self.sent.call_out(leg, self.next.clone(), req, path)
    }

    fn resume(&mut self, _env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Step {
        let sent = self.sent.take(leg.id);
        assert_eq!(sent.as_deref(), Some("/x"), "the path `start` sent");
        Step::Reply(resp)
    }

    fn delivered(&mut self, leg: &LegMeta) {
        self.sent.take(leg.id);
    }
}

/// A [`Relay`] to `echo`.
fn relay() -> Rc<RefCell<Relay>> {
    Rc::new(RefCell::new(Relay {
        next: "echo".into(),
        sent: Parked::new(),
    }))
}

fn echo_leaf(nanos: u64) -> EngineServiceHandle {
    Engine::leaf(service_handle(SlowEcho { nanos }))
}

/// Plays back a fixed per-leg fault script, then delivers normally.
struct ScriptedFaults {
    request: VecDeque<FaultAction>,
    response: VecDeque<FaultAction>,
}

impl ScriptedFaults {
    fn on_responses(script: Vec<FaultAction>) -> FaultInjectorHandle {
        Rc::new(RefCell::new(ScriptedFaults {
            request: VecDeque::new(),
            response: script.into(),
        }))
    }

    fn on_requests(script: Vec<FaultAction>) -> FaultInjectorHandle {
        Rc::new(RefCell::new(ScriptedFaults {
            request: script.into(),
            response: VecDeque::new(),
        }))
    }
}

impl FaultInjector for ScriptedFaults {
    fn on_request(&mut self, _dest: &str, _path: &str) -> FaultAction {
        self.request.pop_front().unwrap_or(FaultAction::Deliver)
    }

    fn on_response(&mut self, _dest: &str, _path: &str, _status: u16) -> FaultAction {
        self.response.pop_front().unwrap_or(FaultAction::Deliver)
    }
}

// --- admission (ported from the old engine's inline policy tests) ---

#[test]
fn capacity_policy_sheds_excess_arrivals() {
    let mut env = Env::new(7);
    let mut engine = Engine::new();
    let stack = Stack::new(echo_leaf(10_000)).with(AdmissionLayer::new(AdmissionPolicy {
        capacity: Some(2),
        deadline: None,
    }));
    engine.register("echo", 1, stack.into_handle());
    let t0 = env.clock.now();
    for i in 0..5 {
        engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i]));
    }
    let done = engine.run_until_idle(&mut env);
    let shed = done.iter().filter(|c| c.shed()).count();
    assert_eq!(shed, 3);
    assert_eq!(engine.shed_counts("echo"), (3, 0));
    assert_eq!(engine.depth_peak("echo"), 2);
    // Shed replies are synthesized at arrival — no service time.
    for c in done.iter().filter(|c| c.shed()) {
        assert_eq!(c.finished, c.submitted);
        assert_eq!(c.response.status, 503);
    }
}

#[test]
fn deadline_policy_sheds_stale_waiters() {
    let mut env = Env::new(8);
    let mut engine = Engine::new();
    let stack = Stack::new(echo_leaf(10_000)).with(AdmissionLayer::new(AdmissionPolicy {
        capacity: None,
        deadline: Some(SimDuration::from_nanos(15_000)),
    }));
    engine.register("echo", 1, stack.into_handle());
    let t0 = env.clock.now();
    for i in 0..4 {
        engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i]));
    }
    let done = engine.run_until_idle(&mut env);
    // Waits are 0 / 10 / 20 / 30 µs-ish: the last two exceed 15 µs.
    assert_eq!(done.iter().filter(|c| c.shed()).count(), 2);
    assert_eq!(engine.shed_counts("echo"), (0, 2));
}

// --- faults (ported from the old engine's set_fault_injector tests) ---

/// One echo endpoint behind a fault layer armed with `injector`.
fn faulted_echo(nanos: u64, injector: FaultInjectorHandle) -> (Engine, FaultSwitch) {
    let mut engine = Engine::new();
    let switch = FaultSwitch::new();
    switch.install(Some(injector));
    let stack = Stack::new(echo_leaf(nanos)).with(FaultLayer::new(switch.clone()));
    engine.register("echo", 1, stack.into_handle());
    (engine, switch)
}

#[test]
fn dropped_response_resolves_to_504_after_timeout() {
    let mut env = Env::new(20);
    let (mut engine, _switch) = faulted_echo(
        5_000,
        ScriptedFaults::on_responses(vec![FaultAction::Drop {
            timeout: SimDuration::from_nanos(100_000),
        }]),
    );
    let t0 = env.clock.now();
    let resp = engine
        .dispatch(&mut env, "echo", HttpRequest::post("/x", b"hi".to_vec()))
        .unwrap();
    assert_eq!(resp.status, 504);
    assert_eq!(resp.header(FAULT_HEADER), Some("drop"));
    // Service time elapses (the worker answered), then the caller
    // waits out its supervision timer.
    assert_eq!(env.clock.now() - t0, SimDuration::from_nanos(105_000));
}

#[test]
fn delayed_response_arrives_late_but_intact() {
    let mut env = Env::new(21);
    let (mut engine, _switch) = faulted_echo(
        5_000,
        ScriptedFaults::on_responses(vec![FaultAction::Delay(SimDuration::from_nanos(30_000))]),
    );
    let t0 = env.clock.now();
    let resp = engine
        .dispatch(&mut env, "echo", HttpRequest::post("/x", b"hi".to_vec()))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, b"hi");
    assert_eq!(resp.header(FAULT_HEADER), Some("delay"));
    assert_eq!(env.clock.now() - t0, SimDuration::from_nanos(35_000));
}

#[test]
fn injected_5xx_replaces_response_immediately() {
    let mut env = Env::new(22);
    let (mut engine, _switch) = faulted_echo(
        5_000,
        ScriptedFaults::on_responses(vec![FaultAction::Error { status: 502 }]),
    );
    let t0 = env.clock.now();
    let resp = engine
        .dispatch(&mut env, "echo", HttpRequest::post("/x", b"hi".to_vec()))
        .unwrap();
    assert_eq!(resp.status, 502);
    assert_eq!(resp.header(FAULT_HEADER), Some("injected-5xx"));
    assert_eq!(env.clock.now() - t0, SimDuration::from_nanos(5_000));
}

#[test]
fn dropped_request_leg_times_out_before_reaching_service() {
    let mut env = Env::new(23);
    let mut engine = Engine::new();
    // Request-leg fates are consulted on the *caller's* stack: the fault
    // layer sits on the relay, not on echo.
    let switch = FaultSwitch::new();
    switch.install(Some(ScriptedFaults::on_requests(vec![FaultAction::Drop {
        timeout: SimDuration::from_nanos(50_000),
    }])));
    engine.register("echo", 1, echo_leaf(5_000));
    let front = Stack::new(relay()).with(FaultLayer::new(switch.clone()));
    engine.register("front", 1, front.into_handle());
    let t0 = env.clock.now();
    let resp = engine
        .dispatch(&mut env, "front", HttpRequest::post("/x", b"hi".to_vec()))
        .unwrap();
    // The relay's downstream call was lost: it resumes with the
    // synthesized 504 and forwards it; echo never served anything.
    assert_eq!(resp.status, 504);
    assert_eq!(resp.header(FAULT_HEADER), Some("drop"));
    assert_eq!(env.clock.now() - t0, SimDuration::from_nanos(50_000));
}

#[test]
fn the_breakers_call_table_is_empty_after_a_faulted_open_loop() {
    let mut env = Env::new(24);
    let mut engine = Engine::new();
    // Echo drops, fails and delays its responses in rotation.
    let script = (0..240)
        .map(|i| match i % 5 {
            0 => FaultAction::Drop {
                timeout: SimDuration::from_nanos(80_000),
            },
            1 | 2 => FaultAction::Error { status: 503 },
            3 => FaultAction::Delay(SimDuration::from_nanos(30_000)),
            _ => FaultAction::Deliver,
        })
        .collect();
    let switch = FaultSwitch::new();
    switch.install(Some(ScriptedFaults::on_responses(script)));
    let echo = Stack::new(echo_leaf(5_000)).with(FaultLayer::new(switch.clone()));
    engine.register("echo", 2, echo.into_handle());
    // The deadline, outside the breaker, abandons legs whose call is
    // still out: their entries go when the leg is delivered.
    let breaker = BreakerLayer::new(BreakerPolicy::default());
    let core = breaker.core();
    let retry = RetryLayer::new(RetryPolicy::supervision());
    let calls = retry.calls();
    let relay = relay();
    let front = Stack::new(relay.clone())
        .with(DeadlineLayer::new(SimDuration::from_nanos(60_000)))
        .with(breaker)
        .with(retry);
    engine.register("front", 4, front.into_handle());
    for i in 0..120 {
        let at = SimTime::from_nanos(i * 7_000);
        engine.schedule_request(at, "front", HttpRequest::post("/x", vec![i as u8]));
    }
    let done = engine.run_until_idle(&mut env);
    assert_eq!(done.len(), 120);
    assert!(done.iter().any(|c| c.response.status == 503));
    let core = core.borrow();
    assert!(core.stats().opened > 0, "the faults tripped the circuit");
    assert!(
        core.stats().rejected > 0,
        "the open circuit failed calls fast"
    );
    assert_eq!(core.calls_in_flight(), 0);
    // The breaker's fail-fast replaced calls the relay and the retry layer
    // had parked, and the deadline broke responses off before either saw
    // them: both tables drop those flows when the leg is delivered.
    assert!(relay.borrow().sent.is_empty());
    assert!(calls.borrow().is_empty());
}

#[test]
fn disarmed_fault_layer_leaves_trace_byte_identical() {
    // Three equivalent worlds: no fault layer at all, a layer with an
    // empty switch, and a layer armed with an injector that never acts.
    // All must produce the same byte-exact event trace.
    let run = |mode: u8| {
        let mut env = Env::new(24);
        let mut engine = Engine::new();
        engine.set_trace(true);
        let switch = FaultSwitch::new();
        if mode == 2 {
            switch.install(Some(ScriptedFaults::on_responses(vec![])));
        }
        let wrap = |svc: EngineServiceHandle| -> EngineServiceHandle {
            if mode == 0 {
                svc
            } else {
                Stack::new(svc)
                    .with(FaultLayer::new(switch.clone()))
                    .into_handle()
            }
        };
        engine.register("echo", 2, wrap(echo_leaf(7_000)));
        engine.register("front", 2, wrap(relay()));
        for i in 0u64..3 {
            engine.schedule_request(
                SimTime::from_nanos(i * 500),
                "front",
                HttpRequest::post("/x", vec![u8::try_from(i).unwrap()]),
            );
        }
        engine.run_until_idle(&mut env);
        engine.trace_lines()
    };
    let bare = run(0);
    assert!(!bare.is_empty());
    assert_eq!(bare, run(1));
    assert_eq!(bare, run(2));
}

// --- layer ordering: order is behaviour, and these pin it ---

#[test]
fn obs_outside_admission_counts_shed_arrivals() {
    // Canonical order (Obs outermost) counts every arrival including the
    // ones admission sheds; swapping the two hides shed traffic from the
    // arrivals series. This is the documented reason ObsLayer goes first.
    let arrivals_with = |obs_outside: bool| {
        let recorder = ObsHandle::new();
        let _scope = hub::scoped(&recorder);
        let mut env = Env::new(30);
        let mut engine = Engine::new();
        let admission = AdmissionLayer::new(AdmissionPolicy {
            capacity: Some(1),
            deadline: None,
        });
        let obs = ObsLayer::new(ObsLayer::core());
        let stack = if obs_outside {
            Stack::new(echo_leaf(10_000)).with(obs).with(admission)
        } else {
            Stack::new(echo_leaf(10_000)).with(admission).with(obs)
        };
        engine.register("echo", 1, stack.into_handle());
        let t0 = env.clock.now();
        for i in 0..3 {
            engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i]));
        }
        let done = engine.run_until_idle(&mut env);
        assert_eq!(done.iter().filter(|c| c.shed()).count(), 2);
        recorder.with(|o| o.registry.counter("echo", "/x", "arrivals"))
    };
    assert_eq!(arrivals_with(true), 3);
    assert_eq!(arrivals_with(false), 1);
}

#[test]
fn deadline_outside_retry_vetoes_dead_retransmissions() {
    // A dropped response resumes the caller long after its deadline.
    // Deadline-outside-Retry (canonical) abandons immediately: zero
    // retransmissions. Retry-outside-Deadline retransmits first — the
    // budget is spent on a request that is already dead, and the caller
    // finishes much later. Both end 503; the cost differs.
    let run = |deadline_outside: bool| {
        let mut env = Env::new(31);
        let mut engine = Engine::new();
        let switch = FaultSwitch::new();
        switch.install(Some(ScriptedFaults::on_responses(vec![
            FaultAction::Drop {
                timeout: SimDuration::from_nanos(100_000),
            },
        ])));
        // Echo's stack decides response fates.
        let echo = Stack::new(echo_leaf(5_000)).with(FaultLayer::new(switch.clone()));
        engine.register("echo", 1, echo.into_handle());
        let deadline = DeadlineLayer::new(SimDuration::from_nanos(50_000));
        let retry = RetryLayer::new(RetryPolicy::supervision());
        let stats = retry.stats_handle();
        let front = if deadline_outside {
            Stack::new(relay()).with(deadline).with(retry)
        } else {
            Stack::new(relay()).with(retry).with(deadline)
        };
        engine.register("front", 1, front.into_handle());
        let t0 = env.clock.now();
        let resp = engine
            .dispatch(&mut env, "front", HttpRequest::post("/x", b"hi".to_vec()))
            .unwrap();
        let retries = stats.borrow().retries;
        (resp.status, retries, env.clock.now() - t0)
    };
    let (status_a, retries_a, elapsed_a) = run(true);
    let (status_b, retries_b, elapsed_b) = run(false);
    assert_eq!(status_a, 503);
    assert_eq!(retries_a, 0, "deadline-first must veto the retransmission");
    assert_eq!(status_b, 503);
    assert_eq!(retries_b, 1, "retry-first retransmits past the deadline");
    assert!(
        elapsed_b > elapsed_a,
        "wasted retransmission must cost time: {elapsed_a:?} vs {elapsed_b:?}"
    );
}

#[test]
fn admission_outside_fault_spares_the_fault_plan() {
    // Shed requests must not consume fault-plan draws: with admission
    // outside, a full queue sheds the arrival before any fate is
    // consulted, so the script is intact for the request that serves.
    let mut env = Env::new(32);
    let mut engine = Engine::new();
    let switch = FaultSwitch::new();
    // One-shot script: a 30 µs delay for the first response leg fate.
    switch.install(Some(ScriptedFaults::on_responses(vec![
        FaultAction::Delay(SimDuration::from_nanos(30_000)),
    ])));
    let stack = Stack::new(echo_leaf(10_000))
        .with(AdmissionLayer::new(AdmissionPolicy {
            capacity: Some(1),
            deadline: None,
        }))
        .with(FaultLayer::new(switch.clone()));
    engine.register("echo", 1, stack.into_handle());
    let t0 = env.clock.now();
    for i in 0..2 {
        engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i]));
    }
    let done = engine.run_until_idle(&mut env);
    let served: Vec<_> = done.iter().filter(|c| !c.shed()).collect();
    assert_eq!(served.len(), 1);
    // The served request's response leg drew the scripted delay; the
    // shed one consumed nothing.
    assert_eq!(served[0].response.header(FAULT_HEADER), Some("delay"));
    assert_eq!(
        served[0].finished - served[0].submitted,
        SimDuration::from_nanos(40_000)
    );
}

#[test]
fn deadline_sheds_mid_chain_on_late_response() {
    // The new layer's defining behaviour: a response that arrives after
    // the virtual deadline abandons the continuation instead of running
    // the service's resume.
    let mut env = Env::new(33);
    let mut engine = Engine::new();
    let switch = FaultSwitch::new();
    switch.install(Some(ScriptedFaults::on_responses(vec![
        FaultAction::Delay(SimDuration::from_nanos(80_000)),
    ])));
    let echo = Stack::new(echo_leaf(5_000)).with(FaultLayer::new(switch.clone()));
    engine.register("echo", 1, echo.into_handle());
    let front = Stack::new(relay()).with(DeadlineLayer::new(SimDuration::from_nanos(50_000)));
    engine.register("front", 1, front.into_handle());
    let resp = engine
        .dispatch(&mut env, "front", HttpRequest::post("/x", b"hi".to_vec()))
        .unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(
        resp.header(shield5g_sim::engine::SHED_HEADER),
        Some("deadline")
    );
}

#[test]
fn deadline_within_budget_is_invisible() {
    let run = |timeout: Option<SimDuration>| {
        let mut env = Env::new(34);
        let mut engine = Engine::new();
        engine.set_trace(true);
        let handle = match timeout {
            Some(t) => Stack::new(echo_leaf(5_000))
                .with(DeadlineLayer::new(t))
                .into_handle(),
            None => echo_leaf(5_000),
        };
        engine.register("echo", 1, handle);
        for i in 0u64..3 {
            engine.schedule_request(
                SimTime::from_nanos(i * 500),
                "echo",
                HttpRequest::post("/x", vec![u8::try_from(i).unwrap()]),
            );
        }
        engine.run_until_idle(&mut env);
        engine.trace_lines()
    };
    // A generous deadline never fires: byte-identical to no layer.
    let bare = run(None);
    assert!(!bare.is_empty());
    assert_eq!(bare, run(Some(SimDuration::from_millis(10))));
}
