//! # shield5g-mw — the composable NF middleware stack
//!
//! The discrete-event engine (`shield5g-sim`) is a pure scheduler: a
//! binary heap, per-endpoint worker budgets, and the byte-exact event
//! trace. Everything cross-cutting that used to be welded into it or
//! copy-pasted across seven NFs — admission control, fault injection,
//! supervision retries, deadline shedding, span/metric recording — lives
//! here as [`Layer`]s composed around an
//! [`shield5g_sim::engine::EngineService`] by a [`Stack`]:
//!
//! ```ignore
//! let stack = Stack::new(service)
//!     .with(ObsLayer::new(core.clone()))        // outermost
//!     .with(DeadlineLayer::new(timeout))
//!     .with(AdmissionLayer::new(policy))
//!     .with(BreakerLayer::new(BreakerPolicy::default()))
//!     .with(FaultLayer::new(switch.clone()))
//!     .with(RetryLayer::new(RetryPolicy::supervision()));  // innermost
//! engine.register(addr, workers, stack.into_handle());
//! ```
//!
//! ## The layer contract
//!
//! [`Layer`] is the engine's own trait (`shield5g_sim::engine::Layer`,
//! re-exported here), and one contract. Its nine scheduler hooks
//! (`on_submit`, `on_arrive`, `on_admitted`, `on_queued`, `on_begin`,
//! `on_callout`, `request_fate`, `response_fate`, `on_deliver`) are
//! called by the engine itself, over the layers a [`Stack`] hands it:
//! gates stop at the first [`Gate::Shed`], fates at the first
//! non-`Deliver`, notifications reach every layer. The engine also
//! counts what any layer sheds and the depth it admits to
//! (`Engine::shed_counts`, `Engine::depth_peak`).
//!
//! The stack runs the rest: a layer sees traffic twice per service
//! segment, preserving the engine's resumability:
//!
//! * **Inbound** — `on_request` (fresh request, outermost layer first)
//!   or `on_response` (a downstream response resuming a continuation).
//!   `on_response` may *break* the chain ([`Resume::Break`]) and
//!   substitute its own [`Step`](shield5g_sim::engine::Step) — a retry layer retransmits, a deadline
//!   layer abandons — in which case inner layers and the service never
//!   see the response.
//! * **Outbound** — `on_step`: the [`Step`](shield5g_sim::engine::Step) the service (or a breaking
//!   layer) produced traverses the layers it passed through inbound, in
//!   reverse (innermost first), on its way back to the scheduler.
//!
//! ## Ordering
//!
//! `.with()` adds layers outermost-first, in the snippet's order. Each
//! layer's rank ([`Slot`]) and its reason are in [`stack`]'s table; a
//! chain that breaks the order does not build. `tests/layers.rs` pins
//! what the order does.
//!
//! What a [`FaultLayer`] injects comes from the [`FaultInjector`] armed on
//! its [`FaultSwitch`]; [`SbiFaultPlan`] is the seeded one every world
//! arms, from a [`FaultConfig`] of three message rates.
//!
//! All layers uphold the determinism contract: virtual clock only,
//! randomness only from the seeded env RNG, `BTreeMap` state. The root
//! `clippy.toml` holds this crate to it like the engine itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(unused_crate_dependencies))]

pub mod admission;
pub mod breaker;
pub mod deadline;
pub mod fault;
pub mod obs;
pub mod retry;
pub mod stack;

pub use admission::{AdmissionLayer, AdmissionPolicy, ClassSheds, ClassShedsHandle};
pub use breaker::{
    BreakerCore, BreakerDecision, BreakerHandle, BreakerLayer, BreakerPolicy, BreakerState,
    BreakerStats, BreakerTransition,
};
pub use deadline::DeadlineLayer;
pub use fault::{
    FaultConfig, FaultCounts, FaultInjector, FaultInjectorHandle, FaultLayer, FaultSwitch,
    SbiFaultPlan,
};
pub use obs::{ObsCore, ObsCoreHandle, ObsLayer};
pub use retry::{RetryLayer, RetryPolicy, RetryStats, RetryStatsHandle};
pub use stack::{Slot, Stack};

// Re-exported so layers and stack construction sites need only this
// crate plus the engine handle types.
pub use shield5g_sim::engine::{Gate, Layer, Resume};
