//! Per-replica admission parameters.
//!
//! Each replica endpoint sits behind a [`shield5g_mw::AdmissionLayer`]
//! configured from a [`QueueConfig`]: arrivals beyond its service rate
//! wait in a bounded FIFO; a request is shed at arrival when the queue
//! is full, or when a worker frees up only after it has waited past the
//! deadline — serving it anyway would return an authentication response
//! the AMF-side timer has long abandoned, while still burning enclave
//! transitions.

use shield5g_sim::time::SimDuration;

/// Admission-control parameters for one replica queue.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Maximum requests in flight (serving + waiting).
    pub capacity: usize,
    /// Maximum queueing wait before a request is shed. Mirrors the NAS
    /// authentication supervision timer: a response slower than this is
    /// useless to the caller.
    pub deadline: SimDuration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            capacity: 64,
            deadline: SimDuration::from_millis(250),
        }
    }
}
