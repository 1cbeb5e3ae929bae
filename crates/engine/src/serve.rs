//! The JSON request/response protocol: a transport-agnostic
//! [`Dispatcher`] plus the thin stdin/stdout driver ([`serve`]).
//!
//! Every transport shares one dispatch path: a request [`Json`] object
//! goes into [`Dispatcher::dispatch`], a response object comes out
//! (always, `"ok"` tells success from failure). The stdin/stdout loop
//! below, the length-prefixed TCP framing and the HTTP/1.1 adapter in
//! `pclabel-net` are all ~equal-thickness shells over that one function,
//! which is why `pclabel-serve` and `pclabel-netd` produce byte-identical
//! response JSON for the same request stream.
//!
//! `query` lines, the hot path, also have a typed path beside the DOM:
//! [`Dispatcher::answer_query_line`] decodes a line straight into
//! borrowed pattern terms (`QueryFrame::decode`), runs the batch
//! through the core [`Engine::execute_traced`] also uses, and writes the
//! response text directly. A line off the typed shape is declined with
//! `None` before anything is recorded, and the caller answers it with
//! [`Dispatcher::dispatch_line`]: error texts and every other op come
//! from the DOM path by construction. The network transports take the
//! typed path first; the stdin/stdout loop stays on `dispatch_line`,
//! the reference the typed path is tested against byte for byte.
//!
//! ## Requests
//!
//! ```text
//! {"op":"register","dataset":"d","csv":"a,b\n1,2\n","bound":50}
//! {"op":"register","dataset":"d2","generator":"figure2","label_attrs":["age group","marital status"]}
//! {"op":"query","dataset":"d","id":"q1","patterns":[{"a":"1"},{"a":"1","b":"2"}]}
//! {"op":"estimate_multi","patterns":[{"a":"1"}],"strategy":"min_estimate"}
//! {"op":"append_rows","dataset":"d","rows":[["1","2"],["3",null]]}
//! {"op":"refresh","dataset":"d","bound":100}
//! {"op":"stats","dataset":"d"}
//! {"op":"list"}
//! {"op":"health"}
//! {"op":"drop","dataset":"d"}
//! ```
//!
//! A register/refresh takes either `"label_attrs"` (explicit attribute
//! names for `S`) or `"bound"` (run the top-down search with size bound
//! `B_s`; default 50 when neither is given). Pattern objects map
//! attribute names to value labels; JSON numbers are coerced to their
//! canonical label text (`{"age":1}` ≡ `{"age":"1"}`).
//!
//! `append_rows` ingests a batch of new rows into a registered dataset
//! **without re-counting the existing rows**: `"rows"` is an array of
//! arrays, one cell per attribute in schema order (`null` = missing,
//! numbers coerced like pattern values). Unless a row carries a value
//! that is new *on one of the label's subset-`S` attributes* (which
//! changes the packed-key layout), the label updates incrementally
//! (`"incremental": true`): the new rows are folded into a copy of the
//! `PC` counts, and new values on attributes outside `S` just extend the
//! `VC` table. Otherwise the label is rebuilt over its current subset
//! (`"incremental": false`). Either way the generation bumps.
//!
//! No answer is cached. Two constant members stay on the wire for the
//! benchmark until ROADMAP item 1 ports it: every answered `query` result
//! carries `"cached":false`, and the `stats` op a `cache` object whose
//! `entries`, `hits`, `misses` and `invalidations` read 0.
//!
//! `estimate_multi` answers each pattern by combining the estimates of
//! *several* registered datasets' labels (the paper's multi-label
//! future-work direction, `pclabel_core::multi`): `"datasets"` names the
//! participants (default: all registered, sorted by name) and
//! `"strategy"` is one of `"most_specific"` (default), `"min_estimate"`
//! or `"geometric_mean"`.
//!
//! For the stdin/stdout driver, each input line is one request and each
//! output line is one response; blank lines are skipped. It is std-only —
//! no network dependencies — so it composes with anything that can pipe:
//! interactive profiling (`pclabel-serve` under a REPL), bulk audit
//! replay (`pclabel-serve < audit.jsonl`), or a parent process speaking
//! over pipes.

use std::io::{self, BufRead, Write};
use std::sync::Arc;

use pclabel_core::attrset::AttrSet;
use pclabel_core::multi::{combine, CombineStrategy, LabeledEstimate};
use pclabel_core::pattern::Pattern;
use pclabel_data::csv::{read_dataset_from_str, CsvOptions};
use pclabel_data::dataset::Dataset;
use pclabel_data::generate::figure2_sample;
use pclabel_telemetry::{
    series_key, tracked_op_index, MetricSnapshot, Phase, RetainedTrace, SnapshotValue, Telemetry,
    Trace,
};

use crate::json::{write_number, write_string, Json, QueryFrame};
use crate::query::{label_answer, Engine, PatternSpec, QueryRequest, QueryResponse};
use crate::store::{EngineError, EntryMemory, LabelPolicy, StoreEntry};

/// The workspace version baked into `pclabel_build_info`, `health` and
/// `server_stats` responses.
pub const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Counters returned by [`serve`] when the input is exhausted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests processed (including failed ones).
    pub requests: u64,
    /// Requests answered with `"ok": false`.
    pub errors: u64,
}

/// The transport-agnostic dispatch core: owns the [`Engine`] (and with
/// it the `LabelStore`) plus the [`Telemetry`] plane, and maps one
/// request [`Json`] to one response [`Json`]. `&Dispatcher` is
/// `Send + Sync`, so network transports share a single dispatcher across
/// worker threads behind an `Arc`.
#[derive(Debug)]
pub struct Dispatcher {
    engine: Engine,
    telemetry: Arc<Telemetry>,
}

impl Default for Dispatcher {
    fn default() -> Self {
        Dispatcher::new(Engine::default())
    }
}

impl Dispatcher {
    /// Wraps an engine (and its store) as the shared dispatch core, with
    /// telemetry enabled at its defaults.
    pub fn new(engine: Engine) -> Self {
        Dispatcher {
            engine,
            telemetry: Telemetry::new(),
        }
    }

    /// A dispatcher over a caller-built engine (e.g. one whose store was
    /// recovered and wired by [`crate::durability::Durability::open`])
    /// with an explicit telemetry facade (a configured logger, or
    /// [`Telemetry::disabled`]).
    pub fn with_engine(engine: Engine, telemetry: Arc<Telemetry>) -> Self {
        Dispatcher { engine, telemetry }
    }

    /// The underlying engine (store access for setup/inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The telemetry plane (transports register their own families in
    /// its registry so one scrape covers the whole process).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Handles one raw request line (parse + dispatch), always returning
    /// a response object. Unparseable lines count as `"other"` errors.
    pub fn dispatch_line(&self, line: &str) -> Json {
        match Json::parse(line) {
            Ok(request) => self.dispatch(&request),
            Err(e) => {
                let trace = self.telemetry.begin("other");
                let response = error_response(None, &format!("invalid JSON: {e}"));
                self.telemetry.finish(&trace, false);
                response
            }
        }
    }

    /// Answers a `query` line on the typed path, without the [`Json`]
    /// DOM: `QueryFrame::decode` reads the line into borrowed terms, the
    /// batch runs through the same core as [`Engine::execute_traced`],
    /// and the response text is written directly, in `handle_query`'s
    /// member order and number text. Telemetry records what
    /// [`Dispatcher::dispatch`] records for the line.
    ///
    /// `Some(Ok(text))` is the response of an answered batch and
    /// `Some(Err(object))` the error object a failed one (an unknown
    /// dataset) is answered with. `None` means the line is off the typed
    /// shape and nothing was recorded: answer it with
    /// [`Dispatcher::dispatch_line`], which stays the reference this path
    /// is tested against byte for byte.
    pub fn answer_query_line(&self, line: &str) -> Option<Result<String, Json>> {
        let frame = QueryFrame::decode(line)?;
        let trace = self.telemetry.begin("query");
        if trace.enabled() {
            trace.annotate_dataset(&frame.dataset);
            trace.record_items(frame.lens.len() as u64);
        }
        let terms: Vec<(&str, &str)> = frame.terms.iter().map(|(a, v)| (&**a, &**v)).collect();
        let answer = self.engine.execute_terms(
            &frame.dataset,
            &terms,
            frame.lens.iter().copied(),
            trace.enabled().then_some(&trace),
        );
        let reply = match answer {
            Ok(response) => {
                if trace.enabled() {
                    trace.record_rows(response.n_rows);
                }
                Ok(query_response_text(frame.id.as_deref(), &response))
            }
            Err(e) => Err(engine_error("query", &e)),
        };
        self.telemetry.finish(&trace, reply.is_ok());
        Some(reply)
    }

    /// Routes one parsed request to its op handler, always returning a
    /// response object. Every dispatch is traced: request/error counters
    /// and latency histograms advance per op, and phase spans recorded
    /// by the store/query layers fold into the phase histograms.
    pub fn dispatch(&self, request: &Json) -> Json {
        let op = request.get("op").and_then(Json::as_str).map(str::to_string);
        let trace = self.telemetry.begin(op.as_deref().unwrap_or("other"));
        if trace.enabled() {
            // Annotations ride the trace into the retained ring so a
            // slow-query id can be tied back to its dataset and batch
            // size from `/debug/traces` alone.
            if let Some(name) = request.get("dataset").and_then(Json::as_str) {
                trace.annotate_dataset(name);
            }
            if let Some(items) = request
                .get("patterns")
                .or_else(|| request.get("rows"))
                .and_then(Json::as_array)
            {
                trace.record_items(items.len() as u64);
            }
        }
        let response = self.dispatch_traced(request, op.as_deref(), &trace);
        let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
        if trace.enabled() {
            if let Some(rows) = response.get("rows").and_then(Json::as_u64) {
                trace.record_rows(rows);
            }
        }
        self.telemetry.finish(&trace, ok);
        response
    }

    fn dispatch_traced(&self, request: &Json, op: Option<&str>, trace: &Trace) -> Json {
        let engine = &self.engine;
        // Hand handlers `None` when telemetry is off so they skip their
        // own clock reads, not just the recording.
        let trace = trace.enabled().then_some(trace);
        match op {
            Some("register") => handle_register(engine, request, trace),
            Some("query") => handle_query(engine, request, trace),
            Some("estimate_multi") => handle_estimate_multi(engine, request),
            Some("append_rows") => handle_append_rows(engine, request, trace),
            Some("refresh") => handle_refresh(engine, request, trace),
            Some("stats") => handle_stats(engine, request),
            Some("list") => handle_list(engine),
            Some("health") => handle_health(engine, &self.telemetry),
            Some("server_stats") => self.handle_server_stats(),
            Some("server_debug") => self.server_debug_json(request),
            Some("drop") => handle_drop(engine, request),
            Some(other) => error_response(Some(other), &format!("unknown op {other:?}")),
            None => error_response(None, "missing \"op\" field"),
        }
    }

    /// Per-dataset deep-memory rows (shared by `/debug/memory`, the
    /// `stats` op and the `pclabel_dataset_bytes` gauges).
    fn memory_rows(&self) -> Vec<(String, EntryMemory)> {
        self.engine
            .store()
            .list()
            .iter()
            .map(|entry| (entry.name().to_string(), entry.memory()))
            .collect()
    }

    /// `/debug/traces`: retained request traces as JSON. `op` narrows to
    /// one tracked op, `slowest` reads the slowest-N ring instead of the
    /// most-recent ring, and `id` retrieves a single trace by the
    /// request id printed in slow-query warn lines.
    pub fn debug_traces_json(&self, op: Option<&str>, slowest: bool, id: Option<u64>) -> Json {
        let retention = self.telemetry.retention();
        let traces: Vec<Arc<RetainedTrace>> = if let Some(id) = id {
            retention.find(id).into_iter().collect()
        } else if let Some(op) = op {
            let Some(index) = tracked_op_index(op) else {
                return error_response(Some("server_debug"), &format!("unknown op {op:?}"));
            };
            if slowest {
                retention.slowest(index)
            } else {
                retention.recent(index)
            }
        } else {
            retention.all(slowest)
        };
        let ring = if id.is_some() {
            "find"
        } else if slowest {
            "slowest"
        } else {
            "recent"
        };
        Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::str("server_debug")),
            ("section", Json::str("traces")),
            ("retained_per_op", Json::num(retention.capacity() as f64)),
            ("ring", Json::str(ring)),
            (
                "traces",
                Json::Arr(traces.iter().map(|t| retained_trace_json(t)).collect()),
            ),
        ])
    }

    /// `/debug/memory`: deep heap accounting — per-dataset component
    /// breakdowns plus the process-wide total. The same bytes back the
    /// `pclabel_dataset_bytes` gauges and the `stats` op's `memory`
    /// object, so the three exposures can be cross-checked.
    pub fn debug_memory_json(&self) -> Json {
        let rows = self.memory_rows();
        let total: u64 = rows.iter().map(|(_, m)| m.total()).sum();
        let datasets: Vec<Json> = rows
            .iter()
            .map(|(name, memory)| {
                let components: Vec<(String, Json)> = memory
                    .components()
                    .iter()
                    .map(|(component, bytes)| (component.to_string(), Json::num(*bytes as f64)))
                    .collect();
                Json::obj([
                    ("dataset", Json::str(name)),
                    ("total_bytes", Json::num(memory.total() as f64)),
                    ("components", Json::Obj(components)),
                ])
            })
            .collect();
        Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::str("server_debug")),
            ("section", Json::str("memory")),
            ("total_bytes", Json::num(total as f64)),
            ("datasets", Json::Arr(datasets)),
        ])
    }

    /// `{"op":"server_debug"}`: every dispatcher-side introspection
    /// section in one response. `"trace_op"`, `"slowest"` and `"id"`
    /// filter the traces section like the `/debug/traces` query
    /// parameters. Connection state lives in the transport, not here —
    /// the network servers splice their `"conns"` section into this
    /// object at the route layer.
    pub fn server_debug_json(&self, request: &Json) -> Json {
        let trace_op = request.get("trace_op").and_then(Json::as_str);
        let slowest = request
            .get("slowest")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let id = request.get("id").and_then(Json::as_u64);
        let traces = self.debug_traces_json(trace_op, slowest, id);
        if traces.get("ok") != Some(&Json::Bool(true)) {
            return traces;
        }
        Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::str("server_debug")),
            ("uptime_seconds", Json::num(self.telemetry.uptime_secs())),
            ("version", Json::str(BUILD_VERSION)),
            ("traces", traces),
            ("memory", self.debug_memory_json()),
        ])
    }

    /// `server_stats`: the whole metric registry as JSON — the framed
    /// protocol's equivalent of `GET /metrics`. Counters and gauges are
    /// flat `series → value` objects keyed like Prometheus series;
    /// histograms report count/sum and p50/p95/p99.
    fn handle_server_stats(&self) -> Json {
        let snapshot = self.telemetry.registry().snapshot();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for series in &snapshot {
            let key = series_key(&series.name, &series.labels);
            match &series.value {
                SnapshotValue::Counter(v) => counters.push((key, Json::num(*v as f64))),
                SnapshotValue::Gauge(v) => gauges.push((key, Json::num(*v as f64))),
                SnapshotValue::Histogram {
                    count,
                    sum_secs,
                    p50,
                    p95,
                    p99,
                    ..
                } => histograms.push((
                    key,
                    Json::obj([
                        ("count", Json::num(*count as f64)),
                        ("sum_secs", Json::num(*sum_secs)),
                        ("p50_secs", Json::num(*p50)),
                        ("p95_secs", Json::num(*p95)),
                        ("p99_secs", Json::num(*p99)),
                    ]),
                )),
            }
        }
        let mut members = vec![
            ("ok".to_string(), Json::Bool(true)),
            ("op".to_string(), Json::str("server_stats")),
            (
                "telemetry_enabled".to_string(),
                Json::Bool(self.telemetry.is_enabled()),
            ),
            (
                "uptime_seconds".to_string(),
                Json::num(self.telemetry.uptime_secs()),
            ),
            ("version".to_string(), Json::str(BUILD_VERSION)),
            ("counters".to_string(), Json::Obj(counters)),
            ("gauges".to_string(), Json::Obj(gauges)),
            ("histograms".to_string(), Json::Obj(histograms)),
        ];
        if let Some(durability) = self.engine.durability() {
            let stats = durability.stats();
            members.push((
                "durability".to_string(),
                Json::obj([
                    ("data_dir", Json::str(stats.data_dir.display().to_string())),
                    ("fsync", Json::str(stats.fsync.to_string())),
                    ("last_lsn", Json::num(stats.last_lsn as f64)),
                    ("snapshot_lsn", Json::num(stats.snapshot_lsn as f64)),
                    ("snapshot_age_seconds", Json::num(stats.snapshot_age_secs)),
                    ("wal_bytes", Json::num(stats.wal_bytes as f64)),
                    ("wal_segments", Json::num(stats.segments as f64)),
                    ("snapshots", Json::num(stats.snapshots as f64)),
                ]),
            ));
            members.push(("health".to_string(), health_json(durability.health())));
        }
        Json::Obj(members)
    }

    /// Renders the registry plus the build-info and per-dataset memory
    /// gauges in the Prometheus text exposition format — the
    /// `GET /metrics` body.
    pub fn metrics_text(&self) -> String {
        let mut snapshot = self.telemetry.registry().snapshot();
        snapshot.push(MetricSnapshot {
            name: "pclabel_build_info".to_string(),
            help: "Constant 1, labeled with the server build version.".to_string(),
            labels: vec![("version".to_string(), BUILD_VERSION.to_string())],
            value: SnapshotValue::Gauge(1),
        });
        for (dataset, memory) in self.memory_rows() {
            for (component, bytes) in memory.components() {
                snapshot.push(MetricSnapshot {
                    name: "pclabel_dataset_bytes".to_string(),
                    help: "Deep heap bytes held per dataset, by component.".to_string(),
                    labels: vec![
                        ("dataset".to_string(), dataset.clone()),
                        ("component".to_string(), component.to_string()),
                    ],
                    value: SnapshotValue::Gauge(bytes),
                });
            }
        }
        pclabel_telemetry::render_prometheus(&snapshot)
    }
}

/// Runs the request/response loop until `input` is exhausted. Every
/// request line produces exactly one response line on `output`. This is
/// the stdin/stdout transport; it contains no protocol logic of its own —
/// everything goes through [`Dispatcher::dispatch_line`].
pub fn serve<R: BufRead, W: Write>(
    dispatcher: &Dispatcher,
    input: R,
    mut output: W,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    for line in input.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        summary.requests += 1;
        let response = dispatcher.dispatch_line(line);
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            summary.errors += 1;
        }
        writeln!(output, "{response}")?;
        output.flush()?;
    }
    Ok(summary)
}

/// One retained trace as a JSON object: identity, outcome, wall time,
/// annotations and the per-phase span breakdown (zero-duration phases
/// are omitted, matching the slow-query log line).
fn retained_trace_json(t: &RetainedTrace) -> Json {
    let spans: Vec<Json> = Phase::ALL
        .iter()
        .filter(|p| t.phase_secs[**p as usize] > 0.0)
        .map(|p| {
            Json::obj([
                ("phase", Json::str(p.span_name())),
                ("ms", Json::num(t.phase_secs[*p as usize] * 1e3)),
            ])
        })
        .collect();
    let mut members = vec![
        ("request_id".to_string(), Json::num(t.id as f64)),
        ("op".to_string(), Json::str(t.op)),
        ("ok".to_string(), Json::Bool(t.ok)),
        ("elapsed_ms".to_string(), Json::num(t.elapsed_secs * 1e3)),
        ("spans".to_string(), Json::Arr(spans)),
    ];
    if let Some(dataset) = &t.dataset {
        members.push(("dataset".to_string(), Json::str(&**dataset)));
    }
    if t.items > 0 {
        members.push(("items".to_string(), Json::num(t.items as f64)));
    }
    if t.rows > 0 {
        members.push(("rows".to_string(), Json::num(t.rows as f64)));
    }
    if t.peak_bytes > 0 {
        members.push(("peak_bytes".to_string(), Json::num(t.peak_bytes as f64)));
    }
    Json::Obj(members)
}

fn error_response(op: Option<&str>, message: &str) -> Json {
    let mut members = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::str(message)),
    ];
    if let Some(op) = op {
        members.push(("op".to_string(), Json::str(op)));
    }
    Json::Obj(members)
}

fn engine_error(op: &str, e: &EngineError) -> Json {
    // Degraded mode gets a typed shape — `error` is the stable string
    // `"degraded"` so clients and the HTTP adapter can branch on it
    // (503, retry-after-heal) without parsing prose; the root cause
    // rides in `reason`.
    if let EngineError::Degraded(reason) = e {
        return Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::str("degraded")),
            ("reason", Json::str(reason)),
            ("op", Json::str(op)),
        ]);
    }
    error_response(Some(op), &e.to_string())
}

/// The `health` section shared by the `health` and `server_stats` ops.
fn health_json(health: &crate::health::Health) -> Json {
    let snap = health.snapshot();
    Json::obj([
        (
            "state",
            Json::str(if snap.degraded { "degraded" } else { "ok" }),
        ),
        (
            "reason",
            snap.reason.as_deref().map(Json::str).unwrap_or(Json::Null),
        ),
        ("degraded_for_seconds", Json::num(snap.degraded_for_secs)),
        (
            "degraded_seconds_total",
            Json::num(snap.degraded_total_secs),
        ),
        (
            "recovery_attempts",
            Json::num(snap.recovery_attempts as f64),
        ),
    ])
}

fn require_dataset_name(request: &Json) -> Result<String, String> {
    request
        .get("dataset")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "missing \"dataset\" field".to_string())
}

/// Resolves `"label_attrs"` / `"bound"` into a [`LabelPolicy`] against a
/// dataset's schema (default: search with bound 50). An optional
/// `"refine": false` on search policies forces the cold per-candidate
/// evaluator (bit-identical label; ablation/debugging only).
fn resolve_policy(request: &Json, dataset: &Dataset) -> Result<LabelPolicy, String> {
    // Validate `refine` up front so a malformed value is rejected
    // uniformly, whichever policy shape the request uses (it only
    // *applies* to search policies).
    let refine = match request.get("refine") {
        None => true,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("\"refine\" must be a boolean".to_string()),
    };
    if let Some(names) = request.get("label_attrs") {
        let names = names
            .as_array()
            .ok_or_else(|| "\"label_attrs\" must be an array of attribute names".to_string())?;
        let mut attrs = AttrSet::EMPTY;
        for name in names {
            let name = name
                .as_str()
                .ok_or_else(|| "\"label_attrs\" entries must be strings".to_string())?;
            let index = dataset
                .schema()
                .index_of(name)
                .ok_or_else(|| format!("unknown attribute {name:?}"))?;
            attrs = attrs.insert(index);
        }
        return Ok(LabelPolicy::Attrs(attrs));
    }
    if let Some(bound) = request.get("bound") {
        let bound = bound
            .as_u64()
            .ok_or_else(|| "\"bound\" must be a non-negative integer".to_string())?;
        return Ok(LabelPolicy::Search { bound, refine });
    }
    Ok(LabelPolicy::Search { bound: 50, refine })
}

/// The request's dataset: its CSV upload, parsed (the parse is traced as
/// [`Phase::CsvParse`]), or a named generator's.
fn load_dataset(request: &Json, name: &str, trace: Option<&Trace>) -> Result<Dataset, String> {
    if let Some(csv) = request.get("csv") {
        let csv = csv
            .as_str()
            .ok_or_else(|| "\"csv\" must be a string".to_string())?;
        let t0 = std::time::Instant::now();
        let parsed = read_dataset_from_str(csv, &CsvOptions::default());
        if let Some(trace) = trace {
            trace.add_phase(Phase::CsvParse, t0.elapsed());
        }
        return parsed.map(|d| d.with_name(name)).map_err(|e| e.to_string());
    }
    match request.get("generator").and_then(Json::as_str) {
        Some("figure2") => Ok(figure2_sample().with_name(name)),
        Some(other) => Err(format!(
            "unknown generator {other:?} (supported: \"figure2\")"
        )),
        None => Err("register needs \"csv\" or \"generator\"".to_string()),
    }
}

fn entry_summary(entry: &StoreEntry) -> Vec<(String, Json)> {
    // One snapshot so label fields and generation can never mix versions
    // when a refresh or append lands mid-summary.
    let (_dataset, label, generation) = entry.snapshot();
    vec![
        ("dataset".to_string(), Json::str(entry.name())),
        ("rows".to_string(), Json::num(label.n_rows() as f64)),
        (
            "label_attrs".to_string(),
            Json::Arr(
                StoreEntry::attr_names(&label)
                    .into_iter()
                    .map(Json::Str)
                    .collect(),
            ),
        ),
        (
            "label_size".to_string(),
            Json::num(label.pattern_count_size() as f64),
        ),
        (
            "vc_size".to_string(),
            Json::num(label.value_count_size() as f64),
        ),
        ("generation".to_string(), Json::num(generation as f64)),
    ]
}

fn handle_register(engine: &Engine, request: &Json, trace: Option<&Trace>) -> Json {
    let name = match require_dataset_name(request) {
        Ok(n) => n,
        Err(e) => return error_response(Some("register"), &e),
    };
    let dataset = match load_dataset(request, &name, trace) {
        Ok(d) => d,
        Err(e) => return error_response(Some("register"), &e),
    };
    let policy = match resolve_policy(request, &dataset) {
        Ok(p) => p,
        Err(e) => return error_response(Some("register"), &e),
    };
    match engine.store().register_traced(name, dataset, policy, trace) {
        Ok(entry) => {
            let mut members = vec![
                ("ok".to_string(), Json::Bool(true)),
                ("op".to_string(), Json::str("register")),
            ];
            members.extend(entry_summary(&entry));
            Json::Obj(members)
        }
        Err(e) => engine_error("register", &e),
    }
}

/// Coerces one pattern-term value to its label text.
fn term_value(value: &Json) -> Option<String> {
    match value {
        Json::Str(s) => Some(s.clone()),
        Json::Num(_) => Some(value.to_string()),
        _ => None,
    }
}

/// Parses the request's `"patterns"` array into specs (shared by the
/// `query` and `estimate_multi` ops).
fn parse_pattern_specs(request: &Json) -> Result<Vec<PatternSpec>, String> {
    let patterns = request
        .get("patterns")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing \"patterns\" array".to_string())?;
    let mut specs = Vec::with_capacity(patterns.len());
    for (i, pattern) in patterns.iter().enumerate() {
        let Some(members) = pattern.as_object() else {
            return Err(format!("pattern {i} must be an object of attr → value"));
        };
        let mut terms = Vec::with_capacity(members.len());
        for (attr, value) in members {
            let Some(value) = term_value(value) else {
                return Err(format!(
                    "pattern {i}: value of {attr:?} must be a string or number"
                ));
            };
            terms.push((attr.clone(), value));
        }
        specs.push(PatternSpec { terms });
    }
    Ok(specs)
}

fn handle_query(engine: &Engine, request: &Json, trace: Option<&Trace>) -> Json {
    let dataset = match require_dataset_name(request) {
        Ok(n) => n,
        Err(e) => return error_response(Some("query"), &e),
    };
    let specs = match parse_pattern_specs(request) {
        Ok(s) => s,
        Err(e) => return error_response(Some("query"), &e),
    };
    let query = QueryRequest {
        id: request.get("id").and_then(Json::as_str).map(str::to_string),
        dataset,
        patterns: specs,
    };
    match engine.execute_traced(&query, trace) {
        Ok(response) => {
            let results: Vec<Json> = response
                .results
                .iter()
                .map(|r| match &r.error {
                    Some(e) => Json::obj([("error", Json::str(e))]),
                    // `"cached"` is always false: kept until ROADMAP item 1
                    // ports the benchmark, which still requires it.
                    None => Json::obj([
                        ("estimate", Json::num(r.estimate)),
                        ("exact", Json::Bool(r.exact)),
                        ("cached", Json::Bool(false)),
                    ]),
                })
                .collect();
            let stats = Json::obj([
                ("exact", Json::num(response.stats.exact as f64)),
                ("estimated", Json::num(response.stats.estimated as f64)),
                ("failed", Json::num(response.stats.failed as f64)),
            ]);
            let mut members = vec![
                ("ok".to_string(), Json::Bool(true)),
                ("op".to_string(), Json::str("query")),
            ];
            if let Some(id) = &response.id {
                members.push(("id".to_string(), Json::str(id)));
            }
            members.push(("dataset".to_string(), Json::str(&response.dataset)));
            members.push(("rows".to_string(), Json::num(response.n_rows as f64)));
            members.push((
                "label_attrs".to_string(),
                Json::Arr(response.label_attrs.into_iter().map(Json::Str).collect()),
            ));
            members.push((
                "generation".to_string(),
                Json::num(response.generation as f64),
            ));
            members.push(("results".to_string(), Json::Arr(results)));
            members.push(("stats".to_string(), stats));
            Json::Obj(members)
        }
        Err(e) => engine_error("query", &e),
    }
}

/// A successful `query` response as text, byte for byte what
/// `handle_query`'s object serializes to.
fn query_response_text(id: Option<&str>, response: &QueryResponse) -> String {
    let mut out = String::with_capacity(192 + 48 * response.results.len());
    out.push_str("{\"ok\":true,\"op\":\"query\"");
    if let Some(id) = id {
        out.push_str(",\"id\":");
        write_string(id, &mut out);
    }
    out.push_str(",\"dataset\":");
    write_string(&response.dataset, &mut out);
    out.push_str(",\"rows\":");
    write_number(response.n_rows as f64, &mut out);
    out.push_str(",\"label_attrs\":[");
    for (i, attr) in response.label_attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(attr, &mut out);
    }
    out.push_str("],\"generation\":");
    write_number(response.generation as f64, &mut out);
    out.push_str(",\"results\":[");
    for (i, r) in response.results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match &r.error {
            Some(e) => {
                out.push_str("{\"error\":");
                write_string(e, &mut out);
            }
            None => {
                out.push_str("{\"estimate\":");
                write_number(r.estimate, &mut out);
                out.push_str(if r.exact {
                    ",\"exact\":true,\"cached\":false"
                } else {
                    ",\"exact\":false,\"cached\":false"
                });
            }
        }
        out.push('}');
    }
    let stats = &response.stats;
    for (member, n) in [
        ("],\"stats\":{\"exact\":", stats.exact),
        (",\"estimated\":", stats.estimated),
        (",\"failed\":", stats.failed),
    ] {
        out.push_str(member);
        write_number(n as f64, &mut out);
    }
    out.push_str("}}");
    out
}

/// `estimate_multi`: answer each pattern by combining the estimates of
/// several registered datasets' labels under a
/// [`CombineStrategy`](pclabel_core::multi::CombineStrategy).
///
/// Per pattern, every participating dataset whose schema resolves the
/// pattern contributes a [`LabeledEstimate`] (exact `PC` projection when
/// `Attr(p) ⊆ S`, `Label::estimate` otherwise); datasets that cannot
/// resolve it are skipped and a pattern no dataset resolves fails
/// individually. Label snapshots are taken once per request, so every
/// result in a response is answered against one consistent set of
/// `(label, generation)` pairs.
fn handle_estimate_multi(engine: &Engine, request: &Json) -> Json {
    let strategy = match request.get("strategy") {
        None => CombineStrategy::default(),
        Some(v) => {
            let Some(name) = v.as_str().and_then(CombineStrategy::from_name) else {
                return error_response(
                    Some("estimate_multi"),
                    "\"strategy\" must be one of \"most_specific\", \"min_estimate\", \
                     \"geometric_mean\"",
                );
            };
            name
        }
    };
    let entries = match request.get("datasets") {
        None => engine.store().list(),
        Some(names) => {
            let Some(names) = names.as_array() else {
                return error_response(
                    Some("estimate_multi"),
                    "\"datasets\" must be an array of dataset names",
                );
            };
            let mut entries = Vec::with_capacity(names.len());
            for name in names {
                let Some(name) = name.as_str() else {
                    return error_response(
                        Some("estimate_multi"),
                        "\"datasets\" entries must be strings",
                    );
                };
                // A duplicate would double-count one label and silently
                // skew min/geometric-mean combinations.
                if entries.iter().any(|e: &Arc<StoreEntry>| e.name() == name) {
                    return error_response(
                        Some("estimate_multi"),
                        &format!("duplicate dataset {name:?} in \"datasets\""),
                    );
                }
                match engine.store().get(name) {
                    Ok(entry) => entries.push(entry),
                    Err(e) => return engine_error("estimate_multi", &e),
                }
            }
            entries
        }
    };
    if entries.is_empty() {
        return error_response(Some("estimate_multi"), "no datasets registered");
    }
    let specs = match parse_pattern_specs(request) {
        Ok(s) => s,
        Err(e) => return error_response(Some("estimate_multi"), &e),
    };

    // One consistent (dataset, label, generation) snapshot per dataset
    // for the whole batch.
    let snapshots: Vec<_> = entries
        .iter()
        .map(|entry| {
            let (dataset, label, generation) = entry.snapshot();
            (entry, dataset, label, generation)
        })
        .collect();

    let mut results = Vec::with_capacity(specs.len());
    for spec in &specs {
        let terms: Vec<(&str, &str)> = spec
            .terms
            .iter()
            .map(|(a, v)| (a.as_str(), v.as_str()))
            .collect();
        let mut parts = Vec::new();
        let mut sources = Vec::new();
        for (entry, dataset, label, generation) in &snapshots {
            let Ok(pattern) = Pattern::parse(dataset, &terms) else {
                continue;
            };
            let (estimate, exact) = label_answer(label, &pattern);
            parts.push(LabeledEstimate {
                overlap: label.attrs().intersect(pattern.attrs()).len(),
                size: label.pattern_count_size(),
                estimate,
            });
            sources.push(Json::obj([
                ("dataset", Json::str(entry.name())),
                ("estimate", Json::num(estimate)),
                ("exact", Json::Bool(exact)),
                ("generation", Json::num(*generation as f64)),
            ]));
        }
        if parts.is_empty() {
            results.push(Json::obj([(
                "error",
                Json::str("pattern resolved against no participating dataset"),
            )]));
        } else {
            results.push(Json::obj([
                ("estimate", Json::num(combine(&parts, strategy))),
                ("sources", Json::Arr(sources)),
            ]));
        }
    }

    let mut members = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::str("estimate_multi")),
    ];
    if let Some(id) = request.get("id").and_then(Json::as_str) {
        members.push(("id".to_string(), Json::str(id)));
    }
    members.push(("strategy".to_string(), Json::str(strategy.name())));
    members.push((
        "datasets".to_string(),
        Json::Arr(
            snapshots
                .iter()
                .map(|(entry, _, _, _)| Json::str(entry.name()))
                .collect(),
        ),
    ));
    members.push(("results".to_string(), Json::Arr(results)));
    Json::Obj(members)
}

/// `health`: a cheap liveness probe (also the `GET /healthz` body in the
/// HTTP transport), carrying uptime and build version so a probe can
/// tell a restart from a hang. When the durability plane has flipped the
/// store into read-only degraded mode, `status` becomes `"degraded"`
/// (the HTTP adapter turns that into a 503) and a `health` section
/// carries the root cause and recovery progress.
fn handle_health(engine: &Engine, telemetry: &Telemetry) -> Json {
    let health = engine.durability().map(|d| Arc::clone(d.health()));
    let degraded = health.as_ref().map(|h| h.is_degraded()).unwrap_or(false);
    let mut members = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("op".to_string(), Json::str("health")),
        (
            "status".to_string(),
            Json::str(if degraded { "degraded" } else { "ok" }),
        ),
        (
            "datasets".to_string(),
            Json::num(engine.store().len() as f64),
        ),
        (
            "uptime_seconds".to_string(),
            Json::num(telemetry.uptime_secs()),
        ),
        ("version".to_string(), Json::str(BUILD_VERSION)),
    ];
    if let Some(health) = &health {
        members.push(("health".to_string(), health_json(health)));
    }
    Json::Obj(members)
}

/// Parses the `"rows"` array of an `append_rows` request: arrays of
/// cells in schema order, `null` marking missing and numbers coerced to
/// their canonical label text (like pattern values).
fn parse_append_rows(request: &Json) -> Result<Vec<Vec<Option<String>>>, String> {
    let rows = request
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing \"rows\" array".to_string())?;
    let mut out = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let Some(cells) = row.as_array() else {
            return Err(format!("row {i} must be an array of cell values"));
        };
        let mut parsed = Vec::with_capacity(cells.len());
        for (j, cell) in cells.iter().enumerate() {
            match cell {
                Json::Null => parsed.push(None),
                Json::Str(s) => parsed.push(Some(s.clone())),
                Json::Num(_) => parsed.push(Some(cell.to_string())),
                _ => return Err(format!("row {i} cell {j} must be a string, number or null")),
            }
        }
        out.push(parsed);
    }
    Ok(out)
}

/// `append_rows`: fold a batch of new rows into a registered dataset and
/// its label (incrementally when the schema is stable — see
/// [`crate::store::LabelStore::append_rows`]).
fn handle_append_rows(engine: &Engine, request: &Json, trace: Option<&Trace>) -> Json {
    let name = match require_dataset_name(request) {
        Ok(n) => n,
        Err(e) => return error_response(Some("append_rows"), &e),
    };
    let rows = match parse_append_rows(request) {
        Ok(r) => r,
        Err(e) => return error_response(Some("append_rows"), &e),
    };
    match engine.store().append_rows_traced(&name, &rows, trace) {
        Ok(report) => Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::str("append_rows")),
            ("dataset", Json::str(&name)),
            ("appended", Json::num(report.appended as f64)),
            ("rows", Json::num(report.total_rows as f64)),
            ("generation", Json::num(report.generation as f64)),
            ("incremental", Json::Bool(report.incremental)),
        ]),
        Err(e) => engine_error("append_rows", &e),
    }
}

fn handle_refresh(engine: &Engine, request: &Json, trace: Option<&Trace>) -> Json {
    let name = match require_dataset_name(request) {
        Ok(n) => n,
        Err(e) => return error_response(Some("refresh"), &e),
    };
    let entry = match engine.store().get(&name) {
        Ok(e) => e,
        Err(e) => return engine_error("refresh", &e),
    };
    let policy = match resolve_policy(request, &entry.dataset()) {
        Ok(p) => p,
        Err(e) => return error_response(Some("refresh"), &e),
    };
    match engine.store().refresh(&name, policy, trace) {
        Ok(_generation) => {
            let mut members = vec![
                ("ok".to_string(), Json::Bool(true)),
                ("op".to_string(), Json::str("refresh")),
            ];
            members.extend(entry_summary(&entry));
            Json::Obj(members)
        }
        Err(e) => engine_error("refresh", &e),
    }
}

fn handle_stats(engine: &Engine, request: &Json) -> Json {
    let name = match require_dataset_name(request) {
        Ok(n) => n,
        Err(e) => return error_response(Some("stats"), &e),
    };
    match engine.store().get(&name) {
        Ok(entry) => {
            // All zeros: kept until ROADMAP item 1 ports the benchmark,
            // which still requires the object.
            let cache = Json::obj(
                ["entries", "hits", "misses", "invalidations"].map(|k| (k, Json::num(0.0))),
            );
            let memory = entry.memory();
            let mut memory_members: Vec<(String, Json)> = memory
                .components()
                .iter()
                .map(|(component, bytes)| (component.to_string(), Json::num(*bytes as f64)))
                .collect();
            memory_members.push(("total_bytes".to_string(), Json::num(memory.total() as f64)));
            let mut members = vec![
                ("ok".to_string(), Json::Bool(true)),
                ("op".to_string(), Json::str("stats")),
            ];
            members.extend(entry_summary(&entry));
            // LSN of the WAL record that produced the entry's current
            // state (0 when the server runs without --data-dir).
            members.push((
                "applied_lsn".to_string(),
                Json::num(entry.applied_lsn() as f64),
            ));
            members.push(("cache".to_string(), cache));
            members.push(("memory".to_string(), Json::Obj(memory_members)));
            Json::Obj(members)
        }
        Err(e) => engine_error("stats", &e),
    }
}

fn handle_list(engine: &Engine) -> Json {
    let datasets: Vec<Json> = engine
        .store()
        .list()
        .iter()
        .map(|e| Json::Obj(entry_summary(e)))
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::str("list")),
        ("datasets", Json::Arr(datasets)),
    ])
}

fn handle_drop(engine: &Engine, request: &Json) -> Json {
    let name = match require_dataset_name(request) {
        Ok(n) => n,
        Err(e) => return error_response(Some("drop"), &e),
    };
    match engine.store().remove(&name) {
        Ok(dropped) => Json::obj([
            ("ok", Json::Bool(true)),
            ("op", Json::str("drop")),
            ("dropped", Json::Bool(dropped)),
        ]),
        Err(e) => error_response(Some("drop"), &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_session(lines: &str) -> Vec<Json> {
        let dispatcher = Dispatcher::default();
        let mut out = Vec::new();
        let summary = serve(&dispatcher, lines.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let responses: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("valid response JSON"))
            .collect();
        assert_eq!(summary.requests as usize, responses.len());
        responses
    }

    #[test]
    fn register_query_session() {
        let responses = run_session(concat!(
            "{\"op\":\"register\",\"dataset\":\"census\",\"generator\":\"figure2\",\"bound\":5}\n",
            "\n",
            "{\"op\":\"query\",\"dataset\":\"census\",\"id\":\"q1\",\"patterns\":[",
            "{\"gender\":\"Female\",\"age group\":\"20-39\",\"marital status\":\"married\"},",
            "{\"age group\":\"20-39\"}]}\n",
            "{\"op\":\"stats\",\"dataset\":\"census\"}\n",
            "{\"op\":\"drop\",\"dataset\":\"census\"}\n",
        ));
        assert_eq!(responses.len(), 4);
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            responses[0].get("label_size").and_then(Json::as_u64),
            Some(3)
        );

        let query = &responses[1];
        assert_eq!(query.get("id").and_then(Json::as_str), Some("q1"));
        let results = query.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results[0].get("estimate").and_then(Json::as_f64), Some(3.0));
        assert_eq!(results[0].get("exact"), Some(&Json::Bool(false)));
        assert_eq!(
            results[1].get("estimate").and_then(Json::as_f64),
            Some(12.0)
        );
        assert_eq!(results[1].get("exact"), Some(&Json::Bool(true)));

        // No pattern cache: its object in `stats` reads zeros.
        let cache = responses[2].get("cache").unwrap();
        for field in ["entries", "hits", "misses", "invalidations"] {
            assert_eq!(cache.get(field).and_then(Json::as_u64), Some(0), "{field}");
        }
        assert_eq!(responses[3].get("dropped"), Some(&Json::Bool(true)));
    }

    #[test]
    fn register_refine_knob_is_parsed_and_identical() {
        // `"refine": false` (the cold-evaluator ablation) must be
        // accepted and produce the same label as the default path.
        let responses = run_session(concat!(
            "{\"op\":\"register\",\"dataset\":\"a\",\"generator\":\"figure2\",\"bound\":5}\n",
            "{\"op\":\"register\",\"dataset\":\"b\",\"generator\":\"figure2\",\"bound\":5,",
            "\"refine\":false}\n",
            "{\"op\":\"register\",\"dataset\":\"c\",\"generator\":\"figure2\",\"bound\":5,",
            "\"refine\":\"yes\"}\n",
            "{\"op\":\"register\",\"dataset\":\"d\",\"generator\":\"figure2\",",
            "\"label_attrs\":[\"gender\"],\"refine\":\"yes\"}\n",
        ));
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(responses[1].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            responses[0].get("label_size"),
            responses[1].get("label_size")
        );
        assert_eq!(
            responses[0].get("label_attrs"),
            responses[1].get("label_attrs")
        );
        // Non-boolean refine is a bad request, not a crash — on both
        // policy shapes (search bound and explicit label_attrs).
        assert_eq!(responses[2].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(responses[3].get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn csv_register_and_numeric_coercion() {
        let responses = run_session(concat!(
            "{\"op\":\"register\",\"dataset\":\"t\",\"csv\":\"a,b\\n1,x\\n1,y\\n2,x\\n\",",
            "\"label_attrs\":[\"a\",\"b\"]}\n",
            "{\"op\":\"query\",\"dataset\":\"t\",\"patterns\":[{\"a\":1,\"b\":\"x\"},{\"a\":\"2\"}]}\n",
        ));
        assert_eq!(responses[0].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(responses[0].get("rows").and_then(Json::as_u64), Some(3));
        let results = responses[1]
            .get("results")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(results[0].get("estimate").and_then(Json::as_f64), Some(1.0));
        assert_eq!(results[1].get("estimate").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn csv_register_rejects_duplicate_column_names() {
        // Attributes are addressed by name, so a repeated header name
        // would make one of the columns unreachable.
        let dispatcher = Dispatcher::default();
        let response = dispatcher.dispatch_line(concat!(
            "{\"op\":\"register\",\"dataset\":\"t\",\"csv\":\"a,a\\nx,1\\ny,2\\n\",",
            "\"label_attrs\":[\"a\",\"a\"]}"
        ));
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some("csv error at line 1: duplicate column name \"a\"")
        );
    }

    #[test]
    fn register_rejects_a_bound_past_u64_max() {
        // 2^64 parses to a float that `as u64` would saturate to u64::MAX.
        let dispatcher = Dispatcher::default();
        let response = dispatcher.dispatch_line(concat!(
            "{\"op\":\"register\",\"dataset\":\"t\",\"generator\":\"figure2\",",
            "\"bound\":18446744073709551616}"
        ));
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some("\"bound\" must be a non-negative integer")
        );
    }

    #[test]
    fn append_rows_session_updates_counts_incrementally() {
        let responses = run_session(concat!(
            "{\"op\":\"register\",\"dataset\":\"t\",\"csv\":\"a,b\\n1,x\\n1,y\\n2,x\\n\",",
            "\"label_attrs\":[\"a\",\"b\"]}\n",
            "{\"op\":\"query\",\"dataset\":\"t\",\"patterns\":[{\"a\":\"1\",\"b\":\"x\"}]}\n",
            // Known values only: incremental append.
            "{\"op\":\"append_rows\",\"dataset\":\"t\",\"rows\":[[1,\"x\"],[\"2\",\"y\"]]}\n",
            "{\"op\":\"query\",\"dataset\":\"t\",\"patterns\":[{\"a\":\"1\",\"b\":\"x\"}]}\n",
            // A null cell is a missing value, a new value rebuilds.
            "{\"op\":\"append_rows\",\"dataset\":\"t\",\"rows\":[[null,\"x\"]]}\n",
            "{\"op\":\"append_rows\",\"dataset\":\"t\",\"rows\":[[\"3\",\"x\"]]}\n",
            "{\"op\":\"query\",\"dataset\":\"t\",\"patterns\":[{\"a\":\"3\"}]}\n",
            // Failure shapes: bad rows, unknown dataset.
            "{\"op\":\"append_rows\",\"dataset\":\"t\",\"rows\":[[\"1\"]]}\n",
            "{\"op\":\"append_rows\",\"dataset\":\"t\",\"rows\":[]}\n",
            "{\"op\":\"append_rows\",\"dataset\":\"ghost\",\"rows\":[[\"1\",\"x\"]]}\n",
        ));
        assert_eq!(
            responses[1].get("results").unwrap().as_array().unwrap()[0]
                .get("estimate")
                .and_then(Json::as_f64),
            Some(1.0)
        );

        let append = &responses[2];
        assert_eq!(append.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(append.get("appended").and_then(Json::as_u64), Some(2));
        assert_eq!(append.get("rows").and_then(Json::as_u64), Some(5));
        assert_eq!(append.get("generation").and_then(Json::as_u64), Some(1));
        assert_eq!(append.get("incremental"), Some(&Json::Bool(true)));

        // (a=1, b=x) count grew from 1 to 2 and is served post-append.
        assert_eq!(
            responses[3].get("results").unwrap().as_array().unwrap()[0]
                .get("estimate")
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(
            responses[3].get("generation").and_then(Json::as_u64),
            Some(1)
        );

        // Missing cell stays incremental; new value "3" rebuilds.
        assert_eq!(responses[4].get("incremental"), Some(&Json::Bool(true)));
        assert_eq!(responses[5].get("incremental"), Some(&Json::Bool(false)));
        assert_eq!(
            responses[6].get("results").unwrap().as_array().unwrap()[0]
                .get("estimate")
                .and_then(Json::as_f64),
            Some(1.0)
        );

        for i in [7usize, 8, 9] {
            assert_eq!(responses[i].get("ok"), Some(&Json::Bool(false)), "line {i}");
        }
    }

    #[test]
    fn refresh_bumps_generation_and_list_reports() {
        let responses = run_session(concat!(
            "{\"op\":\"register\",\"dataset\":\"census\",\"generator\":\"figure2\",\"bound\":5}\n",
            "{\"op\":\"refresh\",\"dataset\":\"census\",\"label_attrs\":[\"gender\"]}\n",
            "{\"op\":\"list\"}\n",
        ));
        assert_eq!(
            responses[1].get("generation").and_then(Json::as_u64),
            Some(1)
        );
        let listed = responses[2]
            .get("datasets")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(listed.len(), 1);
        assert_eq!(
            listed[0].get("dataset").and_then(Json::as_str),
            Some("census")
        );
    }

    #[test]
    fn errors_are_reported_per_line() {
        let responses = run_session(concat!(
            "not json\n",
            "{\"nop\":1}\n",
            "{\"op\":\"teleport\"}\n",
            "{\"op\":\"query\",\"dataset\":\"ghost\",\"patterns\":[]}\n",
            "{\"op\":\"register\",\"dataset\":\"x\"}\n",
            "{\"op\":\"register\",\"dataset\":\"x\",\"generator\":\"warp\"}\n",
        ));
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(
                r.get("ok"),
                Some(&Json::Bool(false)),
                "line {i} should fail"
            );
            assert!(r.get("error").is_some(), "line {i} carries an error");
        }
    }

    #[test]
    fn summary_counts_requests_and_errors() {
        let dispatcher = Dispatcher::default();
        let input = "{\"op\":\"list\"}\nbroken\n\n{\"op\":\"list\"}\n";
        let mut out = Vec::new();
        let summary = serve(&dispatcher, input.as_bytes(), &mut out).unwrap();
        assert_eq!(
            summary,
            ServeSummary {
                requests: 3,
                errors: 1
            }
        );
    }

    #[test]
    fn health_reports_dataset_count() {
        let responses = run_session(concat!(
            "{\"op\":\"health\"}\n",
            "{\"op\":\"register\",\"dataset\":\"census\",\"generator\":\"figure2\",\"bound\":5}\n",
            "{\"op\":\"health\"}\n",
        ));
        assert_eq!(
            responses[0].get("status").and_then(Json::as_str),
            Some("ok")
        );
        assert_eq!(responses[0].get("datasets").and_then(Json::as_u64), Some(0));
        assert_eq!(responses[2].get("datasets").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn estimate_multi_combines_registered_labels() {
        // Two labels over the same figure-2 data: {gender, age group} and
        // {age group, marital status} — the setting of the core
        // `multi` unit tests, here reached through the wire protocol.
        let responses = run_session(concat!(
            "{\"op\":\"register\",\"dataset\":\"a\",\"generator\":\"figure2\",",
            "\"label_attrs\":[\"gender\",\"age group\"]}\n",
            "{\"op\":\"register\",\"dataset\":\"b\",\"generator\":\"figure2\",",
            "\"label_attrs\":[\"age group\",\"marital status\"]}\n",
            "{\"op\":\"estimate_multi\",\"id\":\"m1\",\"patterns\":[",
            "{\"gender\":\"Female\",\"age group\":\"20-39\",\"marital status\":\"married\"}]}\n",
            "{\"op\":\"estimate_multi\",\"strategy\":\"min_estimate\",\"patterns\":[",
            "{\"gender\":\"Female\",\"age group\":\"20-39\",\"marital status\":\"married\"}]}\n",
            "{\"op\":\"estimate_multi\",\"strategy\":\"geometric_mean\",\"datasets\":[\"a\",\"b\"],",
            "\"patterns\":[{\"gender\":\"Female\",\"age group\":\"20-39\",\"marital status\":\"married\"}]}\n",
        ));
        assert_eq!(responses[2].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(responses[2].get("id").and_then(Json::as_str), Some("m1"));
        assert_eq!(
            responses[2].get("strategy").and_then(Json::as_str),
            Some("most_specific")
        );
        let results = responses[2]
            .get("results")
            .and_then(Json::as_array)
            .unwrap();
        // Both labels overlap 2 attrs; tie-break on |PC| picks the exact
        // one (3.0) — mirrors the MultiLabel unit test.
        assert_eq!(results[0].get("estimate").and_then(Json::as_f64), Some(3.0));
        let sources = results[0].get("sources").and_then(Json::as_array).unwrap();
        assert_eq!(sources.len(), 2);
        assert_eq!(sources[0].get("dataset").and_then(Json::as_str), Some("a"));
        assert_eq!(sources[1].get("exact"), Some(&Json::Bool(false)));

        let min = responses[3]
            .get("results")
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(min[0].get("estimate").and_then(Json::as_f64), Some(2.0));
        let geo = responses[4]
            .get("results")
            .and_then(Json::as_array)
            .unwrap();
        let g = geo[0].get("estimate").and_then(Json::as_f64).unwrap();
        assert!((g - (2.0f64 * 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn estimate_multi_failure_modes() {
        let responses = run_session(concat!(
            "{\"op\":\"estimate_multi\",\"patterns\":[{\"x\":\"1\"}]}\n",
            "{\"op\":\"register\",\"dataset\":\"a\",\"generator\":\"figure2\",\"bound\":5}\n",
            "{\"op\":\"estimate_multi\",\"strategy\":\"median\",\"patterns\":[{\"x\":\"1\"}]}\n",
            "{\"op\":\"estimate_multi\",\"datasets\":[\"ghost\"],\"patterns\":[{\"x\":\"1\"}]}\n",
            "{\"op\":\"estimate_multi\",\"datasets\":[\"a\",\"a\"],\"patterns\":[{\"x\":\"1\"}]}\n",
            "{\"op\":\"estimate_multi\",\"patterns\":[{\"no such attr\":\"1\"}]}\n",
        ));
        // No datasets registered / bad strategy / unknown dataset /
        // duplicate dataset: whole request fails.
        for i in [0usize, 2, 3, 4] {
            assert_eq!(responses[i].get("ok"), Some(&Json::Bool(false)), "line {i}");
        }
        // An unresolvable pattern fails individually.
        assert_eq!(responses[5].get("ok"), Some(&Json::Bool(true)));
        let results = responses[5]
            .get("results")
            .and_then(Json::as_array)
            .unwrap();
        assert!(results[0].get("error").is_some());
    }

    #[test]
    fn server_stats_reports_request_counters() {
        let dispatcher = Dispatcher::default();
        let lines = concat!(
            "{\"op\":\"register\",\"dataset\":\"census\",\"generator\":\"figure2\",\"bound\":5}\n",
            "{\"op\":\"query\",\"dataset\":\"census\",\"patterns\":[{\"gender\":\"Female\"}]}\n",
            "{\"op\":\"query\",\"dataset\":\"census\",\"patterns\":[{\"gender\":\"Female\"}]}\n",
            "{\"op\":\"server_stats\"}\n",
        );
        let mut out = Vec::new();
        serve(&dispatcher, lines.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let stats = Json::parse(text.lines().last().unwrap()).unwrap();
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("telemetry_enabled"), Some(&Json::Bool(true)));
        let counters = stats.get("counters").unwrap();
        assert_eq!(
            counters
                .get("pclabel_requests_total{op=\"query\"}")
                .and_then(Json::as_u64),
            Some(2)
        );
        assert_eq!(
            counters
                .get("pclabel_requests_total{op=\"register\"}")
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(stats.get("cache"), None);

        let histograms = stats.get("histograms").unwrap();
        let latency = histograms
            .get("pclabel_request_seconds{op=\"register\"}")
            .expect("register latency histogram");
        assert_eq!(latency.get("count").and_then(Json::as_u64), Some(1));

        // The Prometheus rendering covers the same series, well formed.
        let metrics = dispatcher.metrics_text();
        assert!(metrics.contains("# TYPE pclabel_requests_total counter"));
        assert!(metrics.contains("pclabel_requests_total{op=\"query\"} 2"));
        assert!(!metrics.contains("pclabel_cache"), "{metrics}");
        assert!(metrics.contains("# TYPE pclabel_request_seconds histogram"));
    }

    #[test]
    fn server_debug_retains_annotated_traces_and_memory() {
        let dispatcher = Dispatcher::default();
        let lines = concat!(
            "{\"op\":\"register\",\"dataset\":\"census\",\"generator\":\"figure2\",\"bound\":5}\n",
            "{\"op\":\"query\",\"dataset\":\"census\",\"patterns\":[{\"gender\":\"Female\"},",
            "{\"age group\":\"20-39\"}]}\n",
        );
        let mut out = Vec::new();
        serve(&dispatcher, lines.as_bytes(), &mut out).unwrap();

        let debug = dispatcher.dispatch_line("{\"op\":\"server_debug\"}");
        assert_eq!(debug.get("ok"), Some(&Json::Bool(true)));
        assert!(debug.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
        assert_eq!(
            debug.get("version").and_then(Json::as_str),
            Some(BUILD_VERSION)
        );

        // The traces section holds the register and query, oldest first,
        // with the request's dataset/batch-size annotations attached.
        let traces = debug
            .get("traces")
            .and_then(|t| t.get("traces"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].get("op").and_then(Json::as_str), Some("register"));
        let query = &traces[1];
        assert_eq!(query.get("op").and_then(Json::as_str), Some("query"));
        assert_eq!(query.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(query.get("dataset").and_then(Json::as_str), Some("census"));
        assert_eq!(query.get("items").and_then(Json::as_u64), Some(2));
        assert_eq!(query.get("rows").and_then(Json::as_u64), Some(18));
        let id = query.get("request_id").and_then(Json::as_u64).unwrap();

        // A single trace is retrievable by request id (the id slow-query
        // warn lines print), and op/slowest selectors narrow the rings.
        let by_id = dispatcher.debug_traces_json(None, false, Some(id));
        let found = by_id.get("traces").and_then(Json::as_array).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get("request_id").and_then(Json::as_u64), Some(id));

        let by_op = dispatcher.debug_traces_json(Some("query"), true, None);
        assert_eq!(by_op.get("ring").and_then(Json::as_str), Some("slowest"));
        let slow = by_op.get("traces").and_then(Json::as_array).unwrap();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].get("op").and_then(Json::as_str), Some("query"));
        assert_eq!(
            dispatcher
                .debug_traces_json(Some("teleport"), false, None)
                .get("ok"),
            Some(&Json::Bool(false))
        );

        // The memory section agrees with the stats op's breakdown.
        let memory = debug.get("memory").unwrap();
        assert!(memory.get("total_bytes").and_then(Json::as_u64).unwrap() > 0);
        let per_dataset = memory.get("datasets").and_then(Json::as_array).unwrap();
        assert_eq!(per_dataset.len(), 1);
        let components = per_dataset[0].get("components").unwrap();
        assert!(components.get("dataset").and_then(Json::as_u64).unwrap() > 0);
        assert!(components.get("label_pc").and_then(Json::as_u64).unwrap() > 0);

        let stats = dispatcher.dispatch_line("{\"op\":\"stats\",\"dataset\":\"census\"}");
        let stats_memory = stats.get("memory").unwrap();
        assert_eq!(
            stats_memory.get("total_bytes"),
            per_dataset[0].get("total_bytes")
        );
        assert_eq!(stats_memory.get("label_pc"), components.get("label_pc"));
    }

    #[test]
    fn register_traces_split_parse_walk_and_eval() {
        let dispatcher = Dispatcher::default();
        for line in [
            "{\"op\":\"register\",\"dataset\":\"searched\",\"generator\":\"figure2\",\"bound\":5}",
            "{\"op\":\"register\",\"dataset\":\"fixed\",\"generator\":\"figure2\",\
             \"label_attrs\":[\"age group\",\"marital status\"]}",
            "{\"op\":\"register\",\"dataset\":\"uploaded\",\"csv\":\"a,b\\n1,x\\n2,y\\n\",\
             \"label_attrs\":[\"a\",\"b\"]}",
        ] {
            assert_eq!(
                dispatcher.dispatch_line(line).get("ok"),
                Some(&Json::Bool(true))
            );
        }
        let traces = dispatcher.debug_traces_json(Some("register"), false, None);
        let traces = traces.get("traces").and_then(Json::as_array).unwrap();
        let spans_of = |dataset: &str| -> Vec<String> {
            let trace = traces
                .iter()
                .find(|t| t.get("dataset").and_then(Json::as_str) == Some(dataset))
                .expect("register trace retained");
            trace
                .get("spans")
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .filter_map(|s| s.get("phase").and_then(Json::as_str).map(str::to_string))
                .collect()
        };
        let searched = spans_of("searched");
        assert!(searched.iter().any(|p| p == "search_walk"), "{searched:?}");
        assert!(searched.iter().any(|p| p == "search_eval"), "{searched:?}");
        let fixed = spans_of("fixed");
        assert!(!fixed.iter().any(|p| p.starts_with("search_")), "{fixed:?}");
        // Only the CSV upload is parsed.
        let uploaded = spans_of("uploaded");
        assert!(uploaded.iter().any(|p| p == "csv_parse"), "{uploaded:?}");
        for generated in [&searched, &fixed] {
            assert!(!generated.iter().any(|p| p == "csv_parse"), "{generated:?}");
        }
        let metrics = dispatcher.metrics_text();
        assert!(
            metrics.contains("pclabel_csv_parse_seconds_count 1\n"),
            "{metrics}"
        );
    }

    #[test]
    fn health_and_metrics_carry_build_info_and_memory_gauges() {
        let dispatcher = Dispatcher::default();
        let health = dispatcher.dispatch_line("{\"op\":\"health\"}");
        assert!(health.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
        assert_eq!(
            health.get("version").and_then(Json::as_str),
            Some(BUILD_VERSION)
        );

        let stats = dispatcher.dispatch_line("{\"op\":\"server_stats\"}");
        assert_eq!(
            stats.get("version").and_then(Json::as_str),
            Some(BUILD_VERSION)
        );
        assert!(stats.get("uptime_seconds").and_then(Json::as_f64).is_some());

        dispatcher.dispatch_line(
            "{\"op\":\"register\",\"dataset\":\"census\",\"generator\":\"figure2\",\"bound\":5}",
        );
        let metrics = dispatcher.metrics_text();
        assert!(metrics.contains(&format!(
            "pclabel_build_info{{version=\"{BUILD_VERSION}\"}} 1"
        )));
        assert!(metrics.contains("# TYPE pclabel_dataset_bytes gauge"));
        assert!(metrics.contains("pclabel_dataset_bytes{dataset=\"census\",component=\"dataset\"}"));
        assert!(
            metrics.contains("pclabel_dataset_bytes{dataset=\"census\",component=\"label_pc\"}")
        );
    }

    #[test]
    fn disabled_telemetry_dispatches_identically() {
        use pclabel_telemetry::Telemetry;
        let dispatcher = Dispatcher::with_engine(Engine::default(), Telemetry::disabled());
        let req = "{\"op\":\"register\",\"dataset\":\"a\",\"generator\":\"figure2\",\"bound\":5}";
        let resp = dispatcher.dispatch_line(req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let stats = dispatcher.dispatch_line("{\"op\":\"server_stats\"}");
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("telemetry_enabled"), Some(&Json::Bool(false)));
        let counters = stats.get("counters").unwrap();
        assert_eq!(
            counters
                .get("pclabel_requests_total{op=\"register\"}")
                .and_then(Json::as_u64),
            Some(0)
        );
    }
}
