//! The [`Stack`] combinator that composes [`Layer`]s around an
//! [`EngineService`].

use shield5g_sim::engine::{EngineService, EngineServiceHandle, Layer, LegMeta, Resume, Step};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::Env;
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

/// An [`EngineService`] built from an inner service and an ordered set
/// of [`Layer`]s ([`Stack::with`] adds outermost-first). The stack runs
/// the layers' traversal around the service's segments; the engine asks
/// the same layers its scheduler hooks, through
/// [`EngineService::layers`].
pub struct Stack {
    service: EngineServiceHandle,
    layers: Vec<Box<dyn Layer>>,
}

impl Stack {
    /// A stack with no layers around `service` — behaviourally identical
    /// to registering `service` directly.
    #[must_use]
    pub fn new(service: EngineServiceHandle) -> Self {
        Stack {
            service,
            layers: Vec::new(),
        }
    }

    /// Adds the next layer inward (the first `.with()` is outermost).
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Finishes the stack into a registrable service handle.
    #[must_use]
    pub fn into_handle(self) -> EngineServiceHandle {
        Rc::new(RefCell::new(self))
    }

    /// Runs `step` outward through layers `0..from` in reverse.
    fn outbound(&mut self, env: &mut Env, leg: &LegMeta, mut step: Step, from: usize) -> Step {
        for layer in self.layers[..from].iter_mut().rev() {
            step = layer.on_step(env, leg, step);
        }
        step
    }
}

impl EngineService for Stack {
    fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step {
        for layer in &mut self.layers {
            layer.on_request(env, leg, &req);
        }
        let step = self.service.borrow_mut().start(env, leg, req);
        let n = self.layers.len();
        self.outbound(env, leg, step, n)
    }

    fn resume(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        state: Box<dyn Any>,
        resp: HttpResponse,
    ) -> Step {
        let mut carried = Resume::Continue(state, resp);
        let mut from = self.layers.len();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let Resume::Continue(state, resp) = carried else {
                unreachable!("loop breaks on Resume::Break");
            };
            carried = layer.on_response(env, leg, state, resp);
            if matches!(carried, Resume::Break(_)) {
                from = i;
                break;
            }
        }
        let step = match carried {
            Resume::Break(step) => step,
            Resume::Continue(state, resp) => {
                self.service.borrow_mut().resume(env, leg, state, resp)
            }
        };
        self.outbound(env, leg, step, from)
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

    /// Records the traversal order of every seam it sees.
    struct Tracer {
        name: &'static str,
        log: Rc<RefCell<Vec<String>>>,
    }

    impl Layer for Tracer {
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
            .with(Tracer {
                name: "outer",
                log: log.clone(),
            })
            .with(Tracer {
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
    impl Layer for Abandoner {
        fn on_response(
            &mut self,
            _env: &mut Env,
            _leg: &LegMeta,
            _state: Box<dyn Any>,
            _resp: HttpResponse,
        ) -> Resume {
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
                state: Box::new(()),
            }
        }
        fn resume(
            &mut self,
            _env: &mut Env,
            _leg: &LegMeta,
            _state: Box<dyn Any>,
            resp: HttpResponse,
        ) -> Step {
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
}
