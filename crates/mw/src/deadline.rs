//! [`DeadlineLayer`]: per-endpoint virtual deadlines. New in the
//! middleware extraction — the admission deadline only sheds while
//! *queued*; this layer sheds a request whose deadline passed at any
//! point, including mid-chain while a downstream call was in flight.

use shield5g_obs::hub as obs;
use shield5g_obs::labels;
use shield5g_sim::engine::{Gate, Layer, LegMeta, Resume, Step, SHED_HEADER};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::Env;
use std::collections::BTreeMap;

fn expired_resp() -> HttpResponse {
    HttpResponse::error(503, "deadline exceeded").with_header(SHED_HEADER, "deadline")
}

/// Stamps every arriving leg with `now + timeout` and sheds it the
/// moment the scheduler next consults the stack past that instant:
///
/// * **at begin** — the request waited out its whole budget in the FIFO
///   (same observable as the admission deadline, but measured against an
///   absolute instant rather than queueing time alone);
/// * **mid-chain** — a downstream response resumes the continuation
///   after the deadline; the layer breaks the chain and replies 503
///   (`x-sim-shed: deadline`) without running the service's resume. The
///   caller's supervision timer has fired — any further work is wasted.
///
/// It ranks *outside* [`crate::RetryLayer`] ([`crate::stack`]): the
/// deadline must veto retransmissions for requests that are already
/// dead (`tests/layers.rs` pins it).
#[derive(Debug)]
pub struct DeadlineLayer {
    timeout: SimDuration,
    deadlines: BTreeMap<u64, SimTime>,
}

impl DeadlineLayer {
    /// A layer granting each request `timeout` of virtual time.
    #[must_use]
    pub fn new(timeout: SimDuration) -> Self {
        DeadlineLayer {
            timeout,
            deadlines: BTreeMap::new(),
        }
    }

    fn past_deadline(&self, leg: &LegMeta, now: SimTime) -> bool {
        self.deadlines.get(&leg.id).is_some_and(|d| now > *d)
    }
}

impl Layer for DeadlineLayer {
    fn on_arrive(&mut self, env: &mut Env, leg: &LegMeta, _depth: usize) -> Gate {
        self.deadlines
            .insert(leg.id, env.clock.now() + self.timeout);
        Gate::Admit
    }

    fn on_begin(&mut self, env: &mut Env, leg: &LegMeta, _waited: SimDuration) -> Gate {
        if self.past_deadline(leg, env.clock.now()) {
            obs::count(&leg.dest, &leg.path, labels::SHED_DEADLINE, 1);
            return Gate::Shed {
                resp: expired_resp(),
                note: "shed-deadline",
            };
        }
        Gate::Admit
    }

    fn on_response(&mut self, env: &mut Env, leg: &LegMeta, resp: HttpResponse) -> Resume {
        if self.past_deadline(leg, env.clock.now()) {
            // The chain is dead: the response is dropped here, and what
            // inner layers and the service parked for the leg goes when
            // the engine delivers the 503.
            obs::count(&leg.dest, &leg.path, labels::SHED_DEADLINE, 1);
            return Resume::Break(Step::Reply(expired_resp()));
        }
        Resume::Continue(resp)
    }

    fn on_request(&mut self, env: &mut Env, leg: &LegMeta, _req: &HttpRequest) {
        // Ensure direct run_begin paths (never queued, no on_arrive gate
        // consulted twice) still carry a stamp for mid-chain checks.
        self.deadlines
            .entry(leg.id)
            .or_insert(env.clock.now() + self.timeout);
    }

    fn on_deliver(&mut self, _env: &mut Env, leg: &LegMeta, _resp: &HttpResponse) {
        self.deadlines.remove(&leg.id);
    }
}
