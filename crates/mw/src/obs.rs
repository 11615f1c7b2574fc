//! [`ObsLayer`]: request/queue/service span tracing and per-endpoint
//! counters, extracted from the engine's old inline `hub::` call sites.

use shield5g_obs::hub as obs;
use shield5g_obs::labels;
use shield5g_obs::span::{SpanId, SpanKind};
use shield5g_sim::engine::{Gate, Layer, LegMeta, Resume, Step, SHED_HEADER};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

#[derive(Clone, Copy, Debug, Default)]
struct LegSpans {
    request: Option<SpanId>,
    queue: Option<SpanId>,
    service: Option<SpanId>,
}

/// The per-world span table shared by every [`ObsLayer`].
///
/// Spans must nest across endpoints: a child leg's request span parents
/// under the *calling* service's span, so the layer on AMF's stack and
/// the layer on AUSF's stack need to see the same table. One core per
/// engine (slice, pool), `Rc`-shared into each endpoint's layer.
#[derive(Debug, Default)]
pub struct ObsCore {
    legs: BTreeMap<u64, LegSpans>,
}

/// Shared handle to an [`ObsCore`].
pub type ObsCoreHandle = Rc<RefCell<ObsCore>>;

/// Records the scheduler-level observability the old engine emitted
/// inline: a `Request` span per leg (rooted under the ambient span for
/// root legs, under the caller's `Service` span for callouts), a `Queue`
/// span while waiting for a worker, a `Service` span around each
/// handler segment (entered so nested enclave spans parent correctly),
/// plus the per-endpoint counters (`arrivals`, `callouts`,
/// `completions`, depth/wait/latency series — see
/// [`shield5g_obs::labels`]).
///
/// Everything is a no-op without an installed hub: the layer reads the
/// virtual clock but never advances it, draws no randomness, and
/// enqueues no events — the zero-perturbation contract gated in
/// `tests/determinism.rs`.
#[derive(Debug)]
pub struct ObsLayer {
    core: ObsCoreHandle,
}

impl ObsLayer {
    /// A fresh span table for one world.
    #[must_use]
    pub fn core() -> ObsCoreHandle {
        Rc::new(RefCell::new(ObsCore::default()))
    }

    /// A layer recording into (a clone of) `core`.
    #[must_use]
    pub fn new(core: ObsCoreHandle) -> Self {
        ObsLayer { core }
    }
}

impl Layer for ObsLayer {
    fn on_submit(&mut self, leg: &LegMeta) {
        let request = obs::open_span(
            SpanKind::Request,
            &leg.dest,
            &leg.path,
            leg.submitted.as_nanos(),
        );
        self.core.borrow_mut().legs.insert(
            leg.id,
            LegSpans {
                request,
                ..LegSpans::default()
            },
        );
    }

    fn on_arrive(&mut self, _env: &mut Env, leg: &LegMeta, _depth: usize) -> Gate {
        obs::count(&leg.dest, &leg.path, labels::ARRIVALS, 1);
        Gate::Admit
    }

    fn on_admitted(&mut self, _env: &mut Env, leg: &LegMeta, depth: usize) {
        // gauge_max keeps the running maximum, so feeding it the current
        // depth reproduces the old engine's depth-peak series exactly.
        #[expect(clippy::cast_precision_loss, reason = "depths stay far below 2^52")]
        obs::gauge_max(&leg.dest, &leg.path, labels::DEPTH_PEAK, depth as f64);
    }

    fn on_queued(&mut self, env: &mut Env, leg: &LegMeta) {
        let mut core = self.core.borrow_mut();
        let entry = core.legs.entry(leg.id).or_default();
        entry.queue = obs::open_child(
            SpanKind::Queue,
            entry.request,
            &leg.dest,
            &leg.path,
            env.clock.now().as_nanos(),
        );
    }

    fn on_begin(&mut self, env: &mut Env, leg: &LegMeta, waited: SimDuration) -> Gate {
        let queue = self
            .core
            .borrow_mut()
            .legs
            .get_mut(&leg.id)
            .and_then(|e| e.queue.take());
        obs::close_span(queue, env.clock.now().as_nanos());
        obs::observe(
            &leg.dest,
            &leg.path,
            labels::QUEUE_WAIT_NS,
            waited.as_nanos(),
        );
        Gate::Admit
    }

    fn on_callout(&mut self, env: &mut Env, parent: &LegMeta, child: &LegMeta) {
        obs::count(&child.dest, &child.path, labels::CALLOUTS, 1);
        let mut core = self.core.borrow_mut();
        let parent_service = core.legs.get(&parent.id).and_then(|e| e.service);
        let request = obs::open_child(
            SpanKind::Request,
            parent_service,
            &child.dest,
            &child.path,
            env.clock.now().as_nanos(),
        );
        core.legs.insert(
            child.id,
            LegSpans {
                request,
                ..LegSpans::default()
            },
        );
    }

    fn on_deliver(&mut self, env: &mut Env, leg: &LegMeta, resp: &HttpResponse) {
        let spans = self
            .core
            .borrow_mut()
            .legs
            .remove(&leg.id)
            .unwrap_or_default();
        if resp.header(SHED_HEADER).is_some() {
            obs::span_attr(spans.request, "shed", 1);
        }
        obs::span_attr(spans.request, "status", u64::from(resp.status));
        obs::close_span(spans.request, env.clock.now().as_nanos());
        if leg.root {
            obs::count(&leg.dest, &leg.path, labels::COMPLETIONS, 1);
            obs::observe(
                &leg.dest,
                &leg.path,
                labels::LATENCY_NS,
                (env.clock.now() - leg.submitted).as_nanos(),
            );
        }
    }

    fn on_request(&mut self, env: &mut Env, leg: &LegMeta, _req: &HttpRequest) {
        let mut core = self.core.borrow_mut();
        let entry = core.legs.entry(leg.id).or_default();
        entry.service = obs::open_child(
            SpanKind::Service,
            entry.request,
            &leg.dest,
            &leg.path,
            env.clock.now().as_nanos(),
        );
        obs::enter_span(entry.service);
    }

    fn on_response(&mut self, _env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Resume {
        let service = self.core.borrow().legs.get(&leg.id).and_then(|e| e.service);
        obs::enter_span(service);
        Resume::Continue(resp)
    }

    fn on_step(&mut self, env: &mut Env, leg: &LegMeta, step: Step) -> Step {
        match &step {
            Step::Reply(_) => {
                let service = self
                    .core
                    .borrow_mut()
                    .legs
                    .get_mut(&leg.id)
                    .and_then(|e| e.service.take());
                obs::exit_span(service);
                obs::close_span(service, env.clock.now().as_nanos());
            }
            Step::CallOut { .. } => {
                let service = self.core.borrow().legs.get(&leg.id).and_then(|e| e.service);
                obs::exit_span(service);
            }
        }
        step
    }
}
