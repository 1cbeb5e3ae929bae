//! Per-request tracing: a request id plus a fixed set of phase
//! accumulators, cheap enough to thread through the serving hot path.
//!
//! A [`Trace`] is handed out by `Telemetry::begin` and carried by
//! reference through the dispatcher into the store / query / counting
//! layers. Phases are a *fixed enum* rather than free-form span names:
//! recording one is a single relaxed atomic add (no allocation, no
//! lock), which is what makes tracing affordable on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The phases a request can spend time in, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Parsing a `register` request's CSV upload into a dataset.
    CsvParse,
    /// Waiting for the store entry's snapshot lock.
    StoreWait,
    /// Counting build: the group-by scan (or an incremental label
    /// update).
    CountCount,
    /// Counting build: label assembly after the scan.
    CountAssemble,
    /// Optimal-label search: walking and sizing the label lattice.
    SearchWalk,
    /// Optimal-label search: evaluating the candidates' errors.
    SearchEval,
}

/// Number of [`Phase`] variants.
pub const N_PHASES: usize = 6;

impl Phase {
    /// Every phase, in declaration order (indexable by `as usize`).
    pub const ALL: [Phase; N_PHASES] = [
        Phase::CsvParse,
        Phase::StoreWait,
        Phase::CountCount,
        Phase::CountAssemble,
        Phase::SearchWalk,
        Phase::SearchEval,
    ];

    /// Short span name used in slow-query log lines.
    pub fn span_name(self) -> &'static str {
        match self {
            Phase::CsvParse => "csv_parse",
            Phase::StoreWait => "store_wait",
            Phase::CountCount => "counting_count",
            Phase::CountAssemble => "counting_assemble",
            Phase::SearchWalk => "search_walk",
            Phase::SearchEval => "search_eval",
        }
    }

    /// Registry histogram name for this phase.
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::CsvParse => "pclabel_csv_parse_seconds",
            Phase::StoreWait => "pclabel_store_wait_seconds",
            Phase::CountCount => "pclabel_counting_count_seconds",
            Phase::CountAssemble => "pclabel_counting_assemble_seconds",
            Phase::SearchWalk => "pclabel_search_walk_seconds",
            Phase::SearchEval => "pclabel_search_eval_seconds",
        }
    }

    /// Registry help text for this phase's histogram.
    pub fn metric_help(self) -> &'static str {
        match self {
            Phase::CsvParse => "Seconds spent parsing a register's CSV upload.",
            Phase::StoreWait => "Seconds spent waiting for a store entry snapshot.",
            Phase::CountCount => "Counting build: group-by scan seconds.",
            Phase::CountAssemble => "Counting build: label assembly seconds.",
            Phase::SearchWalk => "Optimal-label search: lattice walk and sizing seconds.",
            Phase::SearchEval => "Optimal-label search: candidate evaluation seconds.",
        }
    }
}

/// One in-flight request's trace: id, op, start time, and per-phase
/// nanosecond accumulators. Shareable across worker threads (`&Trace`
/// is all atomics).
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    id: u64,
    op_index: usize,
    start: Instant,
    phase_nanos: [AtomicU64; N_PHASES],
    peak_bytes: AtomicU64,
    rows: AtomicU64,
    items: AtomicU64,
    // Set at most once per request by the dispatch layer, never on the
    // per-probe hot path, so a mutex (not an atomic) is fine here.
    dataset: Mutex<Option<Box<str>>>,
}

impl Trace {
    pub(crate) fn new(enabled: bool, id: u64, op_index: usize) -> Self {
        Trace {
            enabled,
            id,
            op_index,
            start: Instant::now(),
            phase_nanos: [const { AtomicU64::new(0) }; N_PHASES],
            peak_bytes: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            items: AtomicU64::new(0),
            dataset: Mutex::new(None),
        }
    }

    /// Whether this trace records anything (false when telemetry is
    /// disabled — callers may skip timing work entirely).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The request id (unique per `Telemetry` instance).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn op_index(&self) -> usize {
        self.op_index
    }

    pub(crate) fn start(&self) -> Instant {
        self.start
    }

    /// Adds `elapsed` to a phase accumulator.
    pub fn add_phase(&self, phase: Phase, elapsed: Duration) {
        self.add_phase_secs(phase, elapsed.as_secs_f64());
    }

    /// Adds `secs` seconds to a phase accumulator.
    pub fn add_phase_secs(&self, phase: Phase, secs: f64) {
        if !self.enabled || secs <= 0.0 {
            return;
        }
        // NaN falls through both guards; `as u64` maps it to 0 nanos.
        self.phase_nanos[phase as usize].fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
    }

    /// Records the counting build's peak transient bytes (max across
    /// builds within one request).
    pub fn record_peak_bytes(&self, bytes: u64) {
        if self.enabled {
            self.peak_bytes.fetch_max(bytes, Ordering::Relaxed);
        }
    }

    /// Names the dataset this request touched; retained traces carry
    /// it so a slow query can be tied back to its data.
    pub fn annotate_dataset(&self, name: &str) {
        if self.enabled {
            *self.dataset.lock().expect("trace dataset") = Some(name.into());
        }
    }

    /// Records how many rows were in play (dataset rows after the op,
    /// or rows appended — whichever the handler finds most telling).
    pub fn record_rows(&self, rows: u64) {
        if self.enabled {
            self.rows.fetch_max(rows, Ordering::Relaxed);
        }
    }

    /// Records the request's batch size (patterns queried, rows
    /// posted, entries listed, …).
    pub fn record_items(&self, items: u64) {
        if self.enabled {
            self.items.fetch_max(items, Ordering::Relaxed);
        }
    }

    /// The annotated dataset name, if any.
    pub fn dataset(&self) -> Option<Box<str>> {
        self.dataset.lock().expect("trace dataset").clone()
    }

    /// Rows recorded on this trace (0 when unannotated).
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Batch items recorded on this trace (0 when unannotated).
    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Accumulated seconds for one phase.
    pub fn phase_secs(&self, phase: Phase) -> f64 {
        self.phase_nanos[phase as usize].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Peak counting bytes recorded on this trace (0 when no build ran).
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_peak_takes_max() {
        let trace = Trace::new(true, 7, 0);
        trace.add_phase(Phase::StoreWait, Duration::from_micros(500));
        trace.add_phase_secs(Phase::StoreWait, 0.0005);
        trace.add_phase_secs(Phase::SearchEval, 0.25);
        trace.record_peak_bytes(100);
        trace.record_peak_bytes(40);
        assert!((trace.phase_secs(Phase::StoreWait) - 0.001).abs() < 1e-9);
        assert!((trace.phase_secs(Phase::SearchEval) - 0.25).abs() < 1e-9);
        assert_eq!(trace.phase_secs(Phase::CsvParse), 0.0);
        assert_eq!(trace.peak_bytes(), 100);
        assert_eq!(trace.id(), 7);
    }

    #[test]
    fn annotations_stick_to_the_trace() {
        let trace = Trace::new(true, 3, 0);
        trace.annotate_dataset("census");
        trace.record_rows(18);
        trace.record_rows(12); // fetch_max: smaller later value loses
        trace.record_items(4);
        assert_eq!(trace.dataset().as_deref(), Some("census"));
        assert_eq!(trace.rows(), 18);
        assert_eq!(trace.items(), 4);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let trace = Trace::new(false, 1, 0);
        trace.add_phase_secs(Phase::StoreWait, 1.0);
        trace.record_peak_bytes(9);
        trace.annotate_dataset("census");
        trace.record_rows(5);
        trace.record_items(5);
        assert!(!trace.enabled());
        assert_eq!(trace.phase_secs(Phase::StoreWait), 0.0);
        assert_eq!(trace.peak_bytes(), 0);
        assert_eq!(trace.dataset(), None);
        assert_eq!(trace.rows(), 0);
        assert_eq!(trace.items(), 0);
    }
}
