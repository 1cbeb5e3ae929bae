//! std-only telemetry plane for the pclabel serving stack.
//!
//! Three pieces, layered so the hot path touches only atomics:
//!
//! * [`metrics`] — a lock-free registry of counters, gauges and
//!   log2-bucket latency histograms, with Prometheus text rendering and
//!   a snapshot API for JSON exposure.
//! * [`trace`] — per-request traces: a request id plus fixed phase
//!   accumulators (store lock wait, counting build phases, search walk
//!   and eval) threaded through the dispatcher by reference.
//! * [`logging`] — leveled structured logging (JSON lines to stderr)
//!   with a configurable slow-query threshold.
//!
//! The [`Telemetry`] facade ties them together: `begin(op)` hands out a
//! [`Trace`], `finish(trace, ok)` folds it into the per-op request
//! counters and phase histograms and emits slow-query/debug log lines.
//! A disabled facade (see [`Telemetry::disabled`]) reduces every
//! recording call to a branch on an immutable bool, which is the
//! baseline the telemetry-overhead benchmark compares against.

#![warn(missing_docs)]

pub mod logging;
pub mod metrics;
pub mod retain;
pub mod trace;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use logging::{LogLevel, Logger};
pub use metrics::{
    render_prometheus, series_key, Counter, Gauge, Histogram, MetricSnapshot, Registry,
    SnapshotValue,
};
pub use retain::{RetainedTrace, TraceRetention};
pub use trace::{Phase, Trace, N_PHASES};

/// Wire ops tracked with their own `op` label. Unknown ops (and
/// unparseable requests) fold into the trailing `"other"` slot.
pub const TRACKED_OPS: [&str; 13] = [
    "register",
    "query",
    "estimate_multi",
    "append_rows",
    "refresh",
    "stats",
    "list",
    "health",
    "drop",
    "shutdown",
    "server_stats",
    "server_debug",
    "other",
];

const OTHER_OP: usize = TRACKED_OPS.len() - 1;

/// Traces each ring keeps per op unless configured otherwise.
pub const DEFAULT_RETAINED_TRACES: usize = 64;

/// Resolves a tracked op name to its index in [`TRACKED_OPS`].
pub fn tracked_op_index(op: &str) -> Option<usize> {
    TRACKED_OPS.iter().position(|o| *o == op)
}

struct OpMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// The telemetry facade carried by the dispatcher: registry, per-op
/// request metrics, phase histograms, request-id allocator and logger.
pub struct Telemetry {
    enabled: bool,
    registry: Arc<Registry>,
    logger: Logger,
    next_id: AtomicU64,
    ops: Vec<OpMetrics>,
    phases: Vec<Arc<Histogram>>,
    counting_peak_bytes: Arc<Gauge>,
    retention: TraceRetention,
    started: Instant,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// An enabled facade with default logging (`info`, no slow-query
    /// threshold).
    pub fn new() -> Arc<Self> {
        Self::with_logger(Logger::default())
    }

    /// An enabled facade with the given logger configuration and the
    /// default trace retention ([`DEFAULT_RETAINED_TRACES`] per ring).
    pub fn with_logger(logger: Logger) -> Arc<Self> {
        Self::with_options(logger, DEFAULT_RETAINED_TRACES)
    }

    /// An enabled facade with the given logger and per-ring retained
    /// trace capacity (0 disables retention).
    pub fn with_options(logger: Logger, retained_traces: usize) -> Arc<Self> {
        Self::build(Arc::new(Registry::new()), logger, true, retained_traces)
    }

    /// A facade whose every recording call is a no-op; scrapes render
    /// zeros. Used as the benchmark baseline and available to embedders
    /// that want the serving stack without the bookkeeping.
    pub fn disabled() -> Arc<Self> {
        Self::build(Arc::new(Registry::disabled()), Logger::default(), false, 0)
    }

    fn build(
        registry: Arc<Registry>,
        logger: Logger,
        enabled: bool,
        retained_traces: usize,
    ) -> Arc<Self> {
        let ops = TRACKED_OPS
            .iter()
            .map(|op| OpMetrics {
                requests: registry.counter(
                    "pclabel_requests_total",
                    "Requests dispatched, by op.",
                    &[("op", op)],
                ),
                errors: registry.counter(
                    "pclabel_request_errors_total",
                    "Requests answered with ok=false, by op.",
                    &[("op", op)],
                ),
                latency: registry.histogram(
                    "pclabel_request_seconds",
                    "End-to-end dispatch latency, by op.",
                    &[("op", op)],
                ),
            })
            .collect();
        let phases = Phase::ALL
            .iter()
            .map(|p| registry.histogram(p.metric_name(), p.metric_help(), &[]))
            .collect();
        let counting_peak_bytes = registry.gauge(
            "pclabel_counting_peak_bytes",
            "Peak transient bytes of the most recent counting build.",
            &[],
        );
        Arc::new(Telemetry {
            enabled,
            registry,
            logger,
            next_id: AtomicU64::new(1),
            ops,
            phases,
            counting_peak_bytes,
            retention: TraceRetention::new(TRACKED_OPS.len(), retained_traces),
            started: Instant::now(),
        })
    }

    /// Whether this facade records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The underlying registry (for registering additional families,
    /// e.g. the network server's connection gauges).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The logger configuration.
    pub fn logger(&self) -> &Logger {
        &self.logger
    }

    /// The retained-trace rings (empty rings when retention is off).
    pub fn retention(&self) -> &TraceRetention {
        &self.retention
    }

    /// Seconds since this facade was built — process uptime, for all
    /// practical purposes, since the serving stack builds it at boot.
    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Starts a trace for one request. `op` selects the per-op series;
    /// unknown ops are folded into `"other"`.
    pub fn begin(&self, op: &str) -> Trace {
        let index = TRACKED_OPS
            .iter()
            .position(|o| *o == op)
            .unwrap_or(OTHER_OP);
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Trace::new(self.enabled, id, index)
    }

    /// Finishes a trace: bumps the per-op request/error counters,
    /// observes end-to-end and per-phase latencies, records counting
    /// peak bytes, and emits the slow-query / per-request log line.
    pub fn finish(&self, trace: &Trace, ok: bool) {
        if !self.enabled || !trace.enabled() {
            return;
        }
        let elapsed = trace.start().elapsed();
        let op_index = trace.op_index();
        let op = &self.ops[op_index];
        op.requests.inc();
        if !ok {
            op.errors.inc();
        }
        op.latency.observe(elapsed.as_secs_f64());
        // Fixed-size span buffer: the log line is rare, a per-request
        // heap allocation would not be.
        let mut spans = [("", 0.0f64); N_PHASES];
        let mut n_spans = 0;
        for phase in Phase::ALL {
            let secs = trace.phase_secs(phase);
            if secs > 0.0 {
                self.phases[phase as usize].observe(secs);
                spans[n_spans] = (phase.span_name(), secs);
                n_spans += 1;
            }
        }
        if trace.peak_bytes() > 0 {
            self.counting_peak_bytes.set(trace.peak_bytes());
        }
        // Retention happens here, after the response is already
        // determined — off the request's critical path, one short
        // per-op mutex section.
        let retained = self.retention.is_enabled();
        if retained {
            let mut phase_secs = [0.0f64; N_PHASES];
            for phase in Phase::ALL {
                phase_secs[phase as usize] = trace.phase_secs(phase);
            }
            self.retention.record(
                op_index,
                RetainedTrace {
                    id: trace.id(),
                    op: TRACKED_OPS[op_index],
                    ok,
                    elapsed_secs: elapsed.as_secs_f64(),
                    phase_secs,
                    peak_bytes: trace.peak_bytes(),
                    dataset: trace.dataset(),
                    rows: trace.rows(),
                    items: trace.items(),
                },
            );
        }
        self.logger.on_request(
            trace.id(),
            TRACKED_OPS[op_index],
            ok,
            elapsed,
            &spans[..n_spans],
            retained,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_value(snapshot: &[MetricSnapshot], name: &str, op: &str) -> u64 {
        snapshot
            .iter()
            .find(|s| s.name == name && s.labels == [("op".to_string(), op.to_string())])
            .map(|s| match s.value {
                SnapshotValue::Counter(v) => v,
                _ => panic!("{name} is not a counter"),
            })
            .expect("series registered")
    }

    #[test]
    fn begin_finish_advances_per_op_series() {
        let telemetry = Telemetry::new();
        let trace = telemetry.begin("query");
        trace.add_phase_secs(Phase::StoreWait, 0.001);
        trace.record_peak_bytes(4096);
        telemetry.finish(&trace, true);
        let failed = telemetry.begin("nonsense");
        telemetry.finish(&failed, false);

        let snapshot = telemetry.registry().snapshot();
        assert_eq!(
            counter_value(&snapshot, "pclabel_requests_total", "query"),
            1
        );
        assert_eq!(
            counter_value(&snapshot, "pclabel_request_errors_total", "query"),
            0
        );
        assert_eq!(
            counter_value(&snapshot, "pclabel_requests_total", "other"),
            1
        );
        assert_eq!(
            counter_value(&snapshot, "pclabel_request_errors_total", "other"),
            1
        );
        let store_wait = snapshot
            .iter()
            .find(|s| s.name == "pclabel_store_wait_seconds")
            .expect("phase histogram registered");
        match &store_wait.value {
            SnapshotValue::Histogram { count, .. } => assert_eq!(*count, 1),
            other => panic!("unexpected value {other:?}"),
        }
        let peak = snapshot
            .iter()
            .find(|s| s.name == "pclabel_counting_peak_bytes")
            .expect("gauge registered");
        assert_eq!(peak.value, SnapshotValue::Gauge(4096));
    }

    #[test]
    fn finish_retains_annotated_traces() {
        let telemetry = Telemetry::new();
        let trace = telemetry.begin("query");
        trace.annotate_dataset("census");
        trace.record_items(3);
        trace.add_phase_secs(Phase::StoreWait, 0.002);
        let id = trace.id();
        telemetry.finish(&trace, true);

        let idx = tracked_op_index("query").unwrap();
        let recent = telemetry.retention().recent(idx);
        assert_eq!(recent.len(), 1);
        assert_eq!(recent[0].id, id);
        assert_eq!(recent[0].op, "query");
        assert_eq!(recent[0].dataset.as_deref(), Some("census"));
        assert_eq!(recent[0].items, 3);
        assert!(recent[0].phase_secs[Phase::StoreWait as usize] > 0.0);
        assert!(telemetry.retention().find(id).is_some());
        assert!(telemetry.uptime_secs() >= 0.0);
    }

    #[test]
    fn disabled_facade_retains_nothing() {
        let disabled = Telemetry::disabled();
        let trace = disabled.begin("query");
        disabled.finish(&trace, true);
        assert!(!disabled.retention().is_enabled());
        let idx = tracked_op_index("query").unwrap();
        assert!(disabled.retention().recent(idx).is_empty());
    }

    #[test]
    fn server_debug_is_a_tracked_op() {
        assert!(tracked_op_index("server_debug").is_some());
        assert_eq!(tracked_op_index("other"), Some(TRACKED_OPS.len() - 1));
        assert_eq!(tracked_op_index("nonsense"), None);
    }

    #[test]
    fn request_ids_are_unique_and_increasing() {
        let telemetry = Telemetry::new();
        let a = telemetry.begin("health");
        let b = telemetry.begin("health");
        assert!(b.id() > a.id());
    }

    #[test]
    fn disabled_facade_records_nothing() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        let trace = telemetry.begin("query");
        assert!(!trace.enabled());
        telemetry.finish(&trace, true);
        let snapshot = telemetry.registry().snapshot();
        assert_eq!(
            counter_value(&snapshot, "pclabel_requests_total", "query"),
            0
        );
    }

    #[test]
    fn rendered_scrape_has_no_duplicate_series() {
        let telemetry = Telemetry::new();
        telemetry.finish(&telemetry.begin("query"), true);
        let text = telemetry.registry().render_prometheus();
        let mut seen = std::collections::HashSet::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let series = line.split(' ').next().unwrap();
            assert!(seen.insert(series.to_string()), "duplicate series {series}");
        }
    }
}
