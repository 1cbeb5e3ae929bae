//! Connection-level telemetry for the network front end.
//!
//! The handles are registered in the dispatcher's [`Registry`] at
//! server spawn — so one `/metrics` scrape (or `{"op":"server_stats"}`)
//! covers the engine and the transport alike.
//! When the dispatcher's telemetry is disabled every update below is a
//! single predictable branch (see `pclabel-telemetry`).
//!
//! With the multi-reactor plane, the unlabeled gauges/counters stay
//! process-wide totals (updated by inc/dec from whichever loop touched
//! the connection, so they always sum to the truth), while each event
//! loop additionally registers a `loop="N"`-labeled slice via
//! [`LoopMetrics::register`]: per-loop open connections and the
//! per-loop busy-time histogram.

use std::sync::Arc;

use pclabel_telemetry::{Counter, Gauge, Histogram, Registry};

/// Handles shared by every reactor loop.
pub(crate) struct NetMetrics {
    /// Currently open client connections across all loops.
    pub(crate) open_connections: Arc<Gauge>,
    /// Requests waiting in the dispatch queue: its length, set under
    /// the queue's lock.
    pub(crate) parked_jobs: Arc<Gauge>,
    /// Connections accepted since startup.
    pub(crate) accepts: Arc<Counter>,
    /// Idle connections evicted by the reactor's connection cap.
    pub(crate) evictions: Arc<Counter>,
    /// Requests refused with `overloaded` (HTTP 429 / framed error).
    pub(crate) overloaded: Arc<Counter>,
    /// Event loops serving this listener.
    pub(crate) reactors: Arc<Gauge>,
}

impl NetMetrics {
    pub(crate) fn register(registry: &Registry) -> NetMetrics {
        NetMetrics {
            open_connections: registry.gauge(
                "pclabel_net_open_connections",
                "Currently open client connections.",
                &[],
            ),
            parked_jobs: registry.gauge(
                "pclabel_net_parked_jobs",
                "Requests waiting in the dispatch queue for a free worker.",
                &[],
            ),
            accepts: registry.counter(
                "pclabel_net_accepts_total",
                "Connections accepted since startup.",
                &[],
            ),
            evictions: registry.counter(
                "pclabel_net_evictions_total",
                "Idle connections evicted by the reactor connection cap.",
                &[],
            ),
            overloaded: registry.counter(
                "pclabel_net_overloaded_total",
                "Requests refused for overload (HTTP 429 or framed error).",
                &[],
            ),
            reactors: registry.gauge(
                "pclabel_net_reactors",
                "Reactor event loops serving this listener.",
                &[],
            ),
        }
    }
}

/// Per-event-loop telemetry slice, labeled `loop="N"`. Registered by
/// each reactor loop at spawn; the unlabeled totals in [`NetMetrics`]
/// remain the authoritative sums.
pub(crate) struct LoopMetrics {
    /// Connections currently owned by this loop.
    pub(crate) open_connections: Arc<Gauge>,
    /// This loop's busy time between two poll waits: how long a wakeup
    /// keeps the loop thread before it can sleep again.
    pub(crate) busy: Arc<Histogram>,
}

impl LoopMetrics {
    pub(crate) fn register(registry: &Registry, loop_id: usize) -> LoopMetrics {
        let label = loop_id.to_string();
        let labels = [("loop", label.as_str())];
        LoopMetrics {
            open_connections: registry.gauge(
                "pclabel_net_loop_open_connections",
                "Connections currently owned by one reactor event loop.",
                &labels,
            ),
            busy: registry.histogram(
                "pclabel_net_loop_busy_seconds",
                "Reactor poll-loop busy time between two waits.",
                &labels,
            ),
        }
    }
}
