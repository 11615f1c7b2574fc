//! The shared virtual clock.
//!
//! Every component of a simulated world holds a clone of one [`Clock`];
//! advancing it models the passage of time caused by computation, syscalls,
//! enclave transitions and network propagation. Experiments read latencies
//! as differences between instants on this clock.

use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable handle to a world's virtual clock.
///
/// Clones share state: advancing any handle advances the world.
#[derive(Clone, Debug, Default)]
pub struct Clock {
    nanos: Arc<AtomicU64>,
}

impl Clock {
    /// Creates a clock at `t = 0`.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The current virtual instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.nanos.load(Ordering::Relaxed))
    }

    /// Advances virtual time by `d` and returns the new instant. Saturates
    /// at the end of time: virtual time never wraps backwards.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let add = |t: u64| t.saturating_add(d.as_nanos());
        let (Ok(before) | Err(before)) =
            self.nanos
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| Some(add(t)));
        SimTime::from_nanos(add(before))
    }

    /// Sets the clock to an absolute instant.
    ///
    /// The discrete-event [`crate::engine::Engine`] rewinds the shared
    /// clock to each event's timestamp before running its handler, so
    /// concurrent request contexts each compute on their own local
    /// timeline. Outside the engine's event loop, prefer
    /// [`Clock::advance`] — rewinding time mid-measurement invalidates
    /// interval arithmetic.
    pub(crate) fn set(&self, t: SimTime) {
        self.nanos.store(t.as_nanos(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(Clock::new().now(), SimTime::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let c = Clock::new();
        c.advance(SimDuration::from_micros(3));
        let t = c.advance(SimDuration::from_micros(4));
        assert_eq!(t, SimTime::from_nanos(7_000));
        assert_eq!(c.now(), t);
    }

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance(SimDuration::from_millis(1));
        assert_eq!(b.now(), SimTime::from_nanos(1_000_000));
    }

    #[test]
    fn set_moves_time_in_both_directions() {
        let c = Clock::new();
        c.advance(SimDuration::from_millis(5));
        c.set(SimTime::from_nanos(1_000));
        assert_eq!(c.now(), SimTime::from_nanos(1_000));
        c.set(SimTime::from_nanos(9_000));
        assert_eq!(c.now(), SimTime::from_nanos(9_000));
    }

    #[test]
    fn advance_saturates_at_the_end_of_time() {
        let c = Clock::new();
        c.set(SimTime::from_nanos(u64::MAX - 5));
        let t = c.advance(SimDuration::from_nanos(u64::MAX));
        assert_eq!(t, SimTime::from_nanos(u64::MAX));
        assert_eq!(c.advance(SimDuration::from_nanos(1)), t);
        assert_eq!(c.now(), t);
    }
}
