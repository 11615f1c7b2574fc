//! The [`Stack`] combinator that composes [`Layer`]s around an
//! [`EngineService`], and the [`Slot`] ranks that fix their order.
//!
//! [`Stack::with`] adds layers outermost-first and takes only a layer
//! ranked inside the stack's innermost, by a `const` assertion `cargo
//! build` and `cargo test` evaluate (`cargo check` does not). This builds:
//!
//! ```
//! # use shield5g_mw::*; use shield5g_sim::{engine::Engine, http::*, service::*};
//! # struct Echo; impl Service for Echo {
//! #     fn handle(&mut self, _: &mut Env, r: HttpRequest) -> HttpResponse { HttpResponse::ok(r.body) } }
//! # let (obs, admission) = (ObsLayer::new(ObsLayer::core()), AdmissionLayer::default());
//! let _ = Stack::new(Engine::leaf(service_handle(Echo))).with(obs).with(admission);
//! ```
//!
//! and its twin, admission outside obs, fails with E0080:
//!
//! ```compile_fail,E0080
//! # use shield5g_mw::*; use shield5g_sim::{engine::Engine, http::*, service::*};
//! # struct Echo; impl Service for Echo {
//! #     fn handle(&mut self, _: &mut Env, r: HttpRequest) -> HttpResponse { HttpResponse::ok(r.body) } }
//! # let (obs, admission) = (ObsLayer::new(ObsLayer::core()), AdmissionLayer::default());
//! let _ = Stack::new(Engine::leaf(service_handle(Echo))).with(admission).with(obs);
//! ```

use crate::{AdmissionLayer, BreakerLayer, DeadlineLayer, FaultLayer, ObsLayer, RetryLayer};
use shield5g_sim::engine::{EngineService, EngineServiceHandle, Layer, LegMeta, Resume, Step};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::Env;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::rc::Rc;

/// A layer's place in a [`Stack`]: lower ranks sit further out.
pub trait Slot: Layer + 'static {
    /// The layer's rank.
    const RANK: u8;
}

/// A stack's innermost "layer" before it has one; never added itself.
pub enum Bare {}

impl Layer for Bare {}

macro_rules! slots {
    ($($(#[$why:meta])* $layer:ty = $rank:literal;)*) => {
        $($(#[$why])* impl Slot for $layer {
            const RANK: u8 = $rank;
        })*
    };
}

slots! {
    /// Nothing yet: any layer may go first.
    Bare = 0;
    /// **Obs outermost**: it counts the arrivals admission sheds and spans all inside it.
    ObsLayer = 1;
    /// **Deadline outside Retry and Breaker**: it breaks off a late response before either acts.
    DeadlineLayer = 2;
    /// **Admission outside Breaker, Fault and Retry**: a shed request costs none of them.
    AdmissionLayer = 3;
    /// **Breaker outside Fault and Retry**: an open circuit cuts injected legs and retry storms.
    BreakerLayer = 4;
    /// **Fault before Retry**: fates and retries share no hook, so this place is convention.
    FaultLayer = 5;
    /// **Retry innermost**: it resends only what every outer layer passed.
    RetryLayer = 6;
}

/// A service and the [`Layer`]s around it, `Inner` the innermost so far.
/// The stack runs the layers' traversal around the service's segments;
/// the engine asks them its scheduler hooks ([`EngineService::layers`]).
pub struct Stack<Inner = Bare>(Layered, PhantomData<Inner>);

/// What a [`Stack`] registers: its order is checked, so no longer typed.
struct Layered {
    service: EngineServiceHandle,
    layers: Vec<Box<dyn Layer>>,
}

impl Stack {
    /// A stack with no layers around `service` — behaviourally identical
    /// to registering `service` directly.
    ///
    /// # Panics
    ///
    /// Panics when `service` has layers of its own: the engine asks only
    /// the outer stack's layers its scheduler hooks.
    #[must_use]
    pub fn new(service: EngineServiceHandle) -> Self {
        assert!(
            service.borrow_mut().layers().is_empty(),
            "a stack cannot wrap a layered service: the engine would skip its gates and fates"
        );
        let layers = Vec::new();
        Stack(Layered { service, layers }, PhantomData)
    }
}

impl<Inner: Slot> Stack<Inner> {
    /// Adds the next layer inward (the first `.with()` is outermost).
    /// `layer` must rank inside every layer already on the stack; see
    /// the [module docs](self).
    #[must_use]
    pub fn with<L: Slot>(mut self, layer: L) -> Stack<L> {
        const {
            assert!(Inner::RANK < L::RANK, "out-of-order `Stack::with` chain");
        }
        self.0.layers.push(Box::new(layer));
        Stack(self.0, PhantomData)
    }

    /// Finishes the stack into a registrable service handle.
    #[must_use]
    pub fn into_handle(self) -> EngineServiceHandle {
        Rc::new(RefCell::new(self.0))
    }
}

impl Layered {
    /// Runs `step` outward through layers `0..from` in reverse.
    fn outbound(&mut self, env: &mut Env, leg: &LegMeta, mut step: Step, from: usize) -> Step {
        for layer in self.layers[..from].iter_mut().rev() {
            step = layer.on_step(env, leg, step);
        }
        step
    }
}

impl EngineService for Layered {
    fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
        for layer in &mut self.layers {
            layer.on_request(env, leg, &req);
        }
        let step = self.service.borrow_mut().start(env, leg, req);
        self.outbound(env, leg, step, self.layers.len())
    }

    fn resume(&mut self, env: &mut Env, leg: &LegMeta, mut resp: HttpResponse) -> Step {
        for from in 0..self.layers.len() {
            match self.layers[from].on_response(env, leg, resp) {
                Resume::Continue(passed) => resp = passed,
                Resume::Break(step) => return self.outbound(env, leg, step, from),
            }
        }
        let step = self.service.borrow_mut().resume(env, leg, resp);
        self.outbound(env, leg, step, self.layers.len())
    }

    fn delivered(&mut self, leg: &LegMeta) {
        self.service.borrow_mut().delivered(leg);
    }

    fn layers(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_sim::engine::{Engine, Gate};
    use shield5g_sim::service::{service_handle, Service};
    use shield5g_sim::time::{SimDuration, SimTime};

    struct Echo;
    impl Service for Echo {
        fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
            env.clock.advance(SimDuration::from_nanos(1_000));
            HttpResponse::ok(req.body)
        }
    }

    /// Records the traversal order of every seam it sees, at rank `R`.
    struct Tracer<const R: u8> {
        name: &'static str,
        log: Rc<RefCell<Vec<String>>>,
    }

    impl<const R: u8> Slot for Tracer<R> {
        const RANK: u8 = R;
    }

    impl<const R: u8> Layer for Tracer<R> {
        fn on_request(&mut self, _env: &mut Env, _leg: &LegMeta, _req: &HttpRequest) {
            self.log.borrow_mut().push(format!("{}:req", self.name));
        }
        fn on_step(&mut self, _env: &mut Env, _leg: &LegMeta, step: Step) -> Step {
            self.log.borrow_mut().push(format!("{}:step", self.name));
            step
        }
        fn on_arrive(&mut self, _env: &mut Env, _leg: &LegMeta, _depth: usize) -> Gate {
            self.log.borrow_mut().push(format!("{}:arrive", self.name));
            Gate::Admit
        }
    }

    #[test]
    fn traversal_is_onion_shaped() {
        // Inbound outermost-first, outbound innermost-first: the step
        // crosses each layer exactly once each way.
        let mut env = Env::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut engine = Engine::new();
        let stack = Stack::new(Engine::leaf(service_handle(Echo)))
            .with(Tracer::<1> {
                name: "outer",
                log: log.clone(),
            })
            .with(Tracer::<2> {
                name: "inner",
                log: log.clone(),
            });
        engine.register("echo", 1, stack.into_handle());
        engine
            .dispatch(&mut env, "echo", HttpRequest::post("/x", vec![1]))
            .unwrap();
        assert_eq!(
            log.borrow().as_slice(),
            [
                "outer:arrive",
                "inner:arrive",
                "outer:req",
                "inner:req",
                "inner:step",
                "outer:step"
            ]
        );
    }

    /// Breaks the response chain with a canned reply.
    struct Abandoner;
    impl Slot for Abandoner {
        const RANK: u8 = 1;
    }
    impl Layer for Abandoner {
        fn on_response(&mut self, _env: &mut Env, _leg: &LegMeta, _resp: HttpResponse) -> Resume {
            Resume::Break(Step::Reply(HttpResponse::error(503, "abandoned")))
        }
    }

    struct Relay {
        next: Rc<str>,
    }
    impl EngineService for Relay {
        fn start(&mut self, _env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
            Step::CallOut {
                dest: self.next.clone(),
                req,
            }
        }
        fn resume(&mut self, _env: &mut Env, _leg: &LegMeta, resp: HttpResponse) -> Step {
            Step::Reply(resp)
        }
    }

    #[test]
    fn break_substitutes_the_step_without_reaching_the_service() {
        let mut env = Env::new(2);
        let mut engine = Engine::new();
        engine.register("echo", 1, Engine::leaf(service_handle(Echo)));
        let stack = Stack::new(Rc::new(RefCell::new(Relay {
            next: "echo".into(),
        })))
        .with(Abandoner);
        engine.register("front", 1, stack.into_handle());
        let resp = engine
            .dispatch(&mut env, "front", HttpRequest::post("/x", vec![9]))
            .unwrap();
        // The relay's own resume would have forwarded the 200; the
        // breaking layer replaced it.
        assert_eq!(resp.status, 503);
        assert_eq!(resp.body, b"abandoned");
    }

    #[test]
    fn empty_stack_is_transparent() {
        let run = |wrap: bool| {
            let mut env = Env::new(3);
            let mut engine = Engine::new();
            engine.set_trace(true);
            let leaf = Engine::leaf(service_handle(Echo));
            let handle = if wrap {
                Stack::new(leaf).into_handle()
            } else {
                leaf
            };
            engine.register("echo", 2, handle);
            for i in 0u8..3 {
                engine.schedule_request(
                    SimTime::from_nanos(u64::from(i) * 100),
                    "echo",
                    HttpRequest::post("/x", vec![i]),
                );
            }
            engine.run_until_idle(&mut env);
            engine.trace_lines()
        };
        let bare = run(false);
        assert!(!bare.is_empty());
        assert_eq!(bare, run(true));
    }

    #[test]
    #[should_panic(expected = "a stack cannot wrap a layered service")]
    fn a_stack_cannot_wrap_a_stack() {
        // The engine would fan the scheduler hooks out over the outer
        // stack's layers only: the inner admission gate would never run.
        let inner = Stack::new(Engine::leaf(service_handle(Echo)))
            .with(crate::AdmissionLayer::new(Default::default()))
            .into_handle();
        let _ = Stack::new(inner);
    }
}
