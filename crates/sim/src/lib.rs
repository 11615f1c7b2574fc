//! Deterministic simulation substrate for the shield5g workspace.
//!
//! The paper measures wall-clock latencies on an SGX testbed; this
//! reproduction replaces the testbed with a *virtual-time* simulation.
//! Every syscall, enclave transition, network hop and cryptographic
//! operation advances a shared [`clock::Clock`] by an amount drawn from a
//! calibrated cost model, so experiment results are deterministic,
//! repeatable, and mechanistically derived from operation counts.
//!
//! The crate provides:
//!
//! * [`time`] — `SimTime` / `SimDuration` newtypes (nanosecond precision).
//! * [`clock`] — the shared virtual clock.
//! * [`rng`] — a fork-able deterministic RNG.
//! * [`log`] — a structured event log for traceability.
//! * [`latency`] — link profiles (docker bridge, loopback, 5G radio).
//! * [`http`] — byte-accurate REST/HTTP framing for the service-based
//!   interfaces (message sizes drive the paper's L_T results).
//! * [`tls`] — a TLS-like secure channel with a real X25519 handshake and
//!   AES-CTR + HMAC record protection.
//! * [`service`] — the leaf `Service` trait and the per-world [`Env`]
//!   (clock + RNG + log).
//! * [`engine`] — the deterministic discrete-event scheduler: every
//!   network call is an event on a `(virtual_time, seq)`-ordered queue,
//!   services yield at outbound-call points, and per-endpoint worker
//!   pools make queueing and admission shedding emerge mechanistically.
//!
//! # Example
//!
//! ```rust
//! use shield5g_sim::{Env, time::SimDuration};
//!
//! let mut env = Env::new(42);
//! let start = env.clock.now();
//! env.clock.advance(SimDuration::from_micros(5));
//! assert_eq!(env.clock.now() - start, SimDuration::from_micros(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod clock;
pub mod codec;
pub mod engine;
pub mod http;
pub mod latency;
pub mod log;
pub mod rng;
pub mod service;
pub mod time;
pub mod tls;

pub use clock::Clock;
pub use log::EventLog;
pub use rng::DetRng;
pub use service::Env;

use std::error::Error;
use std::fmt;

/// Errors surfaced by the simulation substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A message was routed to an endpoint nobody registered.
    UnknownEndpoint(String),
    /// An HTTP message could not be parsed.
    MalformedHttp(String),
    /// A TLS record failed authentication or came out of sequence.
    TlsRecordRejected(String),
    /// A service refused the request (carries the HTTP status it returned).
    ServiceFailure {
        /// Responding endpoint.
        endpoint: String,
        /// HTTP status code returned.
        status: u16,
    },
    /// A request chain tried to call an endpoint already on its own call
    /// path — the engine cuts such loops instead of recursing forever.
    ReentrantCall(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownEndpoint(e) => write!(f, "unknown endpoint {e:?}"),
            SimError::MalformedHttp(m) => write!(f, "malformed http message: {m}"),
            SimError::TlsRecordRejected(m) => write!(f, "tls record rejected: {m}"),
            SimError::ServiceFailure { endpoint, status } => {
                write!(f, "service {endpoint:?} returned status {status}")
            }
            SimError::ReentrantCall(e) => write!(f, "re-entrant call to endpoint {e:?}"),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_error_display() {
        let e = SimError::UnknownEndpoint("udm".into());
        assert!(e.to_string().contains("udm"));
        assert!(SimError::ServiceFailure {
            endpoint: "x".into(),
            status: 503
        }
        .to_string()
        .contains("503"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
