//! The service abstraction: a per-world [`Env`] (clock and RNG) and the
//! synchronous [`Service`] trait implemented by *leaf* network functions —
//! services that answer a request without making downstream calls (UDR,
//! UPF, NRF, and the sealed P-AKA module endpoints).
//!
//! Routing lives in the discrete-event [`crate::engine::Engine`]: services
//! that call out (UDM, AUSF, AMF, SMF) implement the continuation-style
//! [`crate::engine::EngineService`] and yield a
//! [`crate::engine::Step::CallOut`] back to the scheduler at each outbound
//! SBI hop, so concurrent requests genuinely overlap — each one computes
//! on its own timeline while busy workers and bounded queues produce
//! queueing delay mechanistically. Leaf services keep this simple
//! [`Service::handle`] form and are adapted with
//! [`crate::engine::Engine::leaf`].

use crate::clock::Clock;
use crate::http::{HttpRequest, HttpResponse};
use crate::rng::DetRng;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-world context threaded through every simulated operation.
///
/// Not `Clone`: a copy would share the clock but draw the same random
/// stream as the original.
#[derive(Debug)]
pub struct Env {
    /// The world's virtual clock.
    pub clock: Clock,
    /// The world's deterministic randomness.
    pub rng: DetRng,
    /// See [`LogShim`].
    pub log: LogShim,
}

/// Public for benchmark/ (ROADMAP item 2), whose worlds call
/// [`Env::log`]'s `disable()`; records nothing.
#[derive(Debug)]
pub struct LogShim;

impl LogShim {
    /// Does nothing.
    pub fn disable(&mut self) {}
}

impl Env {
    /// Creates a world context from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Env {
            clock: Clock::new(),
            rng: DetRng::new(seed),
            log: LogShim,
        }
    }
}

/// A simulated leaf network service: handles each request to completion
/// without downstream calls. Register it on an engine with
/// [`crate::engine::Engine::leaf`].
pub trait Service {
    /// Handles one request, charging `env.clock` for the work performed.
    fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse;
}

/// A shared handle to a service instance.
pub type ServiceHandle = Rc<RefCell<dyn Service>>;

/// Wraps a service value into a [`ServiceHandle`].
pub fn service_handle(svc: impl Service + 'static) -> ServiceHandle {
    Rc::new(RefCell::new(svc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    struct Echo;

    impl Service for Echo {
        fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
            env.clock.advance(SimDuration::from_micros(1));
            HttpResponse::ok(req.body)
        }
    }

    #[test]
    fn service_handle_shares_one_instance() {
        let mut env = Env::new(0);
        let h = service_handle(Echo);
        let h2 = h.clone();
        let resp = h2
            .borrow_mut()
            .handle(&mut env, HttpRequest::post("/x", b"hi".to_vec()));
        assert_eq!(resp.body, b"hi");
        assert_eq!(env.clock.now().as_nanos(), 1_000);
    }
}
