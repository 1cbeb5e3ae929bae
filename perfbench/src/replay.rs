//! The traced per-layer replay: the run's recorded inputs, fed in
//! process through each layer's public entry points, outermost first,
//! with a span around every call. Per-layer figures are read off those
//! spans.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::label_size_bounded;
use pclabel_core::label::Label;
use pclabel_core::pattern::Pattern;
use pclabel_core::search::{top_down_search, SearchOptions, SearchStats};
use pclabel_data::csv::{read_dataset_from_str, CsvOptions};
use pclabel_data::dataset::Dataset;
use pclabel_engine::durability::{Durability, DurabilityOptions};
use pclabel_engine::json::Json;
use pclabel_engine::parallel::auto_threads;
use pclabel_engine::query::{Engine, EngineConfig, PatternSpec, QueryRequest, QueryStats};
use pclabel_engine::serve::Dispatcher;
use pclabel_engine::store::{LabelPolicy, LabelStore};
use pclabel_telemetry::{Registry, Telemetry};
use pclabel_wal::record::WalOp;
use pclabel_wal::wal::{FsyncPolicy, WalWriter};

use crate::e2e::{Ctx, Res, Run};
use crate::inputs::{append_line, Family, Rng, Upload};
use crate::stats::{Metric, Samples};
use crate::trace::SpanLog;

/// The server's engine tuning (`PCLABEL_QUERY_THREADS=1`).
fn engine_config() -> EngineConfig {
    EngineConfig {
        query_threads: 1,
        ..EngineConfig::default()
    }
}

/// The serving side's search tuning (as `LabelStore` runs it).
fn search_options(dataset: &Dataset, bound: u64) -> SearchOptions {
    let workers = auto_threads(dataset.n_rows());
    SearchOptions::with_bound(bound)
        .refine(true)
        .threads(workers)
        .count_threads(workers)
}

fn samples(values: Vec<f64>) -> Samples {
    let mut s = Samples::new();
    for v in values {
        s.push(v);
    }
    s
}

/// The patterns of a parsed `query` request as engine specs.
fn specs_of(request: &Json) -> Vec<PatternSpec> {
    request
        .get("patterns")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|p| PatternSpec {
            terms: p
                .as_object()
                .unwrap_or(&[])
                .iter()
                .map(|(a, v)| (a.clone(), v.as_str().unwrap_or_default().to_string()))
                .collect(),
        })
        .collect()
}

fn cells(batch: &[Vec<String>]) -> Vec<Vec<Option<&str>>> {
    batch
        .iter()
        .map(|r| r.iter().map(|c| Some(c.as_str())).collect())
        .collect()
}

fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

struct Replay<'a> {
    spans: &'a mut SpanLog,
    request: u64,
    out: Vec<Metric>,
}

impl Replay<'_> {
    fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Percentile of a span family's durations, in the report unit.
    fn span_metric(&mut self, metric: &str, span: &str, p: f64, scale: f64, unit: &'static str) {
        let mut s = samples(self.spans.durations(span));
        self.out.push(s.metric(metric, p, scale, unit));
    }
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Res<Vec<Metric>> {
    let rec = &run.recorded;
    let mut r = Replay {
        spans: &mut run.spans,
        request: 1 << 50,
        out: run.live.clone(),
    };
    let scratch = ctx.work_dir.join("replay");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let (primary_name, primary, _, primary_policy) = &rec.registers[rec.primary];
    let primary_attrs = |policy: &LabelPolicy, k: usize| -> AttrSet {
        match policy {
            LabelPolicy::Attrs(s) => *s,
            _ => rec
                .searched
                .iter()
                .find(|(i, _)| *i == k)
                .map(|(_, s)| *s)
                .unwrap_or(AttrSet::EMPTY),
        }
    };
    let s_primary = primary_attrs(primary_policy, rec.primary);

    // ---- Requests, outermost first: net → engine.serve → engine.json →
    // engine.query → core.label, plus the telemetry on/off comparison.
    let line_dispatcher = Dispatcher::with_engine(Engine::new(engine_config()), Telemetry::new());
    let parsed_dispatcher = Dispatcher::with_engine(Engine::new(engine_config()), Telemetry::new());
    let quiet_dispatcher =
        Dispatcher::with_engine(Engine::new(engine_config()), Telemetry::disabled());
    let engine = Engine::new(engine_config());
    let (mut estimate_call, mut projection_call) = (Samples::new(), Samples::new());
    let mut stats = QueryStats::default();
    let (mut telemetry_on, mut telemetry_off) = (0.0f64, 0.0f64);
    let mut registered: Option<usize> = None;
    for (i, (k, line, rtt)) in rec.queries.iter().enumerate() {
        if registered != Some(*k) {
            let (name, upload, _, policy) = &rec.registers[*k];
            let s = primary_attrs(policy, *k);
            for store in [
                line_dispatcher.engine().store(),
                parsed_dispatcher.engine().store(),
                quiet_dispatcher.engine().store(),
                engine.store(),
            ] {
                let _ = store.remove(name);
                store
                    .register(name.clone(), upload.rows.clone(), LabelPolicy::Attrs(s))
                    .map_err(|e| e.to_string())?;
            }
            registered = Some(*k);
        }
        // The client's RTT is the outermost span; the in-process
        // response to the same line (dispatch + serialize) nests in it.
        let req = r.next_request();
        let now = Instant::now();
        let outer = r.spans.record(
            "net.rtt",
            None,
            req,
            now,
            now + Duration::from_secs_f64(*rtt),
        );
        let respond_start = Instant::now();
        let (response, line_span) = r.spans.time("engine.serve.dispatch_line", None, req, || {
            line_dispatcher.dispatch_line(line)
        });
        let mut text = String::new();
        let (_, write_span) = r
            .spans
            .time("engine.json.write", None, req, || response.write(&mut text));
        let respond = r.spans.record(
            "engine.serve.respond",
            Some(outer),
            req,
            respond_start,
            Instant::now(),
        );
        r.spans.reparent(line_span, respond);
        r.spans.reparent(write_span, respond);
        let (parsed, _) = r.spans.time("engine.json.parse", Some(line_span), req, || {
            Json::parse(line)
        });
        let parsed = parsed.map_err(|e| format!("recorded query line: {e}"))?;
        // Interleave telemetry on/off, alternating which goes first.
        let run_on = |r: &mut Replay| {
            let t = Instant::now();
            r.spans
                .time("engine.serve.dispatch", Some(line_span), req, || {
                    parsed_dispatcher.dispatch(&parsed)
                });
            t.elapsed().as_secs_f64()
        };
        let run_off = |r: &mut Replay| {
            let t = Instant::now();
            r.spans
                .time("telemetry.disabled.dispatch", Some(line_span), req, || {
                    quiet_dispatcher.dispatch(&parsed)
                });
            t.elapsed().as_secs_f64()
        };
        if i % 2 == 0 {
            telemetry_on += run_on(&mut r);
            telemetry_off += run_off(&mut r);
        } else {
            telemetry_off += run_off(&mut r);
            telemetry_on += run_on(&mut r);
        }
        let request = QueryRequest {
            id: None,
            dataset: parsed
                .get("dataset")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            patterns: specs_of(&parsed),
        };
        let (response, exec_span) =
            r.spans
                .time("engine.query.execute", Some(line_span), req, || {
                    engine.execute(&request)
                });
        let response = response.map_err(|e| e.to_string())?;
        stats.exact += response.stats.exact;
        stats.estimated += response.stats.estimated;
        // core.label on the same patterns against the same label.
        let entry = engine
            .store()
            .get(&request.dataset)
            .map_err(|e| e.to_string())?;
        let (dataset, label, _) = entry.snapshot();
        let patterns: Vec<Pattern> = request
            .patterns
            .iter()
            .filter_map(|spec| {
                let terms: Vec<(&str, &str)> = spec
                    .terms
                    .iter()
                    .map(|(a, v)| (a.as_str(), v.as_str()))
                    .collect();
                Pattern::parse(&dataset, &terms).ok()
            })
            .collect();
        let outside: Vec<&Pattern> = patterns
            .iter()
            .filter(|p| !p.attrs().is_subset_of(label.attrs()))
            .collect();
        if !outside.is_empty() {
            let t = Instant::now();
            for p in &outside {
                std::hint::black_box(label.estimate(p));
            }
            let end = Instant::now();
            r.spans
                .record("core.label.estimate", Some(exec_span), req, t, end);
            estimate_call.push((end - t).as_secs_f64() / outside.len() as f64);
        }
        let projected: Vec<Pattern> = patterns
            .iter()
            .map(|p| p.restrict(label.attrs()))
            .filter(|p| !p.is_empty())
            .collect();
        if !projected.is_empty() {
            let t = Instant::now();
            for p in &projected {
                std::hint::black_box(label.count_of_projection(p));
            }
            let end = Instant::now();
            r.spans
                .record("core.label.projection", Some(exec_span), req, t, end);
            projection_call.push((end - t).as_secs_f64() / projected.len() as f64);
        }
    }
    // The net layer's self time: RTT minus the nested in-process response.
    let mut net_overhead = samples(r.spans.self_times("net.rtt", "engine.serve.respond"));
    r.out
        .push(net_overhead.metric("net.overhead_p50_ms", 50.0, 1e3, "ms"));
    r.span_metric(
        "engine.json.parse_us.query",
        "engine.json.parse",
        50.0,
        1e6,
        "us",
    );
    r.span_metric(
        "engine.json.write_us.query",
        "engine.json.write",
        50.0,
        1e6,
        "us",
    );
    r.span_metric(
        "engine.serve.dispatch_us.query",
        "engine.serve.dispatch",
        50.0,
        1e6,
        "us",
    );
    r.span_metric(
        "engine.query.execute_us",
        "engine.query.execute",
        50.0,
        1e6,
        "us",
    );
    let computed = (stats.exact + stats.estimated).max(1) as f64;
    r.out.push(Metric::count(
        "engine.query.exact_share",
        stats.exact as f64 / computed,
        "ratio",
    ));
    r.out.push(Metric::count(
        "telemetry.overhead_pct",
        (telemetry_on - telemetry_off) / telemetry_off.max(1e-12) * 100.0,
        "%",
    ));
    r.out
        .push(estimate_call.metric("core.label.estimate_ns", 50.0, 1e9, "ns"));
    r.out
        .push(projection_call.metric("core.label.projection_ns", 50.0, 1e9, "ns"));

    // Register lines: JSON parse of the upload requests.
    let mut parse_register = Samples::new();
    for (_, _, line, _) in &rec.registers {
        let req = r.next_request();
        let (parsed, span) = r.spans.time("engine.json.parse.register", None, req, || {
            Json::parse(line)
        });
        parsed.map_err(|e| format!("recorded register line: {e}"))?;
        parse_register.push(r.spans.secs_of(span));
    }
    r.out
        .push(parse_register.metric("engine.json.parse_ms.register", 50.0, 1e3, "ms"));

    // ---- Appends against the primary dataset, outermost first:
    // engine.serve → engine.store → data → core.label, then the WAL.
    let batches = &rec.appends;
    let invalidations_before = parsed_dispatcher
        .engine()
        .store()
        .try_get(primary_name)
        .map(|e| e.cache().stats().invalidations());
    if invalidations_before.is_none() {
        parsed_dispatcher
            .engine()
            .store()
            .register(
                primary_name.clone(),
                primary.rows.clone(),
                LabelPolicy::Attrs(s_primary),
            )
            .map_err(|e| e.to_string())?;
    }
    let entry = parsed_dispatcher
        .engine()
        .store()
        .get(primary_name)
        .map_err(|e| e.to_string())?;
    let before = entry.cache().stats().invalidations();
    for batch in batches {
        let req = r.next_request();
        let parsed = Json::parse(&append_line(primary_name, batch)).map_err(|e| e.to_string())?;
        let (response, _) = r
            .spans
            .time("engine.serve.dispatch.append_rows", None, req, || {
                parsed_dispatcher.dispatch(&parsed)
            });
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("replayed append failed: {response}"));
        }
    }
    let entry = parsed_dispatcher
        .engine()
        .store()
        .get(primary_name)
        .map_err(|e| e.to_string())?;
    if !r
        .out
        .iter()
        .any(|m| m.name == "engine.cache.invalidated_per_append")
    {
        let dropped = entry.cache().stats().invalidations() - before;
        r.out.push(Metric::count(
            "engine.cache.invalidated_per_append",
            dropped as f64 / batches.len().max(1) as f64,
            "count",
        ));
    }
    r.span_metric(
        "engine.serve.dispatch_us.append_rows",
        "engine.serve.dispatch.append_rows",
        50.0,
        1e6,
        "us",
    );

    let store = LabelStore::new();
    store
        .register(
            primary_name.clone(),
            primary.rows.clone(),
            LabelPolicy::Attrs(s_primary),
        )
        .map_err(|e| e.to_string())?;
    for batch in batches {
        let req = r.next_request();
        let cells = cells(batch);
        let (report, _) = r.spans.time("engine.store.append_rows", None, req, || {
            store.append_rows(primary_name, &cells)
        });
        report.map_err(|e| e.to_string())?;
    }
    r.span_metric(
        "engine.store.append_p50_us",
        "engine.store.append_rows",
        50.0,
        1e6,
        "us",
    );
    r.span_metric(
        "engine.store.append_p99_us",
        "engine.store.append_rows",
        99.0,
        1e6,
        "us",
    );

    for batch in batches.iter().take(300) {
        let req = r.next_request();
        let cells = cells(batch);
        let (grown, _) = r.spans.time("data.clone_append", None, req, || {
            let mut d = primary.rows.clone();
            d.append_labeled_rows(&cells).map(|_| d.n_rows())
        });
        grown.map_err(|e| e.to_string())?;
    }
    r.span_metric("data.clone_append_us", "data.clone_append", 50.0, 1e6, "us");

    let mut own = primary.rows.clone();
    let mut twin = Label::build_parallel(&own, s_primary, auto_threads(own.n_rows()));
    for batch in batches {
        let from = own.n_rows();
        own.append_labeled_rows(&cells(batch))
            .map_err(|e| e.to_string())?;
        let req = r.next_request();
        let ((next, _), _) = r.spans.time("core.label.with_appended", None, req, || {
            twin.with_appended(&own, from..own.n_rows())
        });
        twin = next;
    }
    r.span_metric(
        "core.label.with_appended_us",
        "core.label.with_appended",
        50.0,
        1e6,
        "us",
    );

    let wal_dir = scratch.join("wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    let mut writer = WalWriter::create(&wal_dir, 0).map_err(|e| e.to_string())?;
    let (mut bytes, mut rows) = (0u64, 0u64);
    for (g, batch) in batches.iter().enumerate() {
        let op = WalOp::AppendRows {
            name: primary_name.clone(),
            generation: g as u64 + 1,
            rows: batch
                .iter()
                .map(|row| row.iter().map(|c| Some(c.clone())).collect())
                .collect(),
        };
        let req = r.next_request();
        let start = writer.bytes_written();
        let (lsn, _) = r.spans.time("wal.append", None, req, || writer.append(&op));
        lsn.map_err(|e| e.to_string())?;
        let (synced, _) = r.spans.time("wal.fsync", None, req, || writer.sync());
        synced.map_err(|e| e.to_string())?;
        bytes += writer.bytes_written() - start;
        rows += batch.len() as u64;
    }
    drop(writer);
    r.span_metric("wal.append_us", "wal.append", 50.0, 1e6, "us");
    r.span_metric("wal.fsync_p50_ms", "wal.fsync", 50.0, 1e3, "ms");
    r.span_metric("wal.fsync_p99_ms", "wal.fsync", 99.0, 1e3, "ms");
    r.out.push(Metric::count(
        "wal.bytes_per_row",
        bytes as f64 / rows.max(1) as f64,
        "B/row",
    ));

    // ---- Registration, parsing, counting and search.
    let mut register = Samples::new();
    let reps = if matches!(primary_policy, LabelPolicy::Attrs(_)) {
        3
    } else {
        2
    };
    for i in 0..reps {
        let store = LabelStore::new();
        let req = r.next_request();
        let (entry, span) = r.spans.time("engine.store.register", None, req, || {
            store.register(
                format!("{primary_name}{i}"),
                primary.rows.clone(),
                *primary_policy,
            )
        });
        let entry = entry.map_err(|e| e.to_string())?;
        if !matches!(primary_policy, LabelPolicy::Attrs(_)) && entry.label().attrs() != s_primary {
            return Err(format!(
                "replayed register picked {:?}, the server {s_primary:?}",
                entry.label().attrs()
            ));
        }
        register.push(r.spans.secs_of(span));
    }
    r.out
        .push(register.median_metric("engine.store.register_s", 1.0, "s"));

    let mut uploads: Vec<&Arc<Upload>> = Vec::new();
    for (_, upload, _, _) in &rec.registers {
        if !uploads.iter().any(|u| Arc::ptr_eq(u, upload)) {
            uploads.push(upload);
        }
    }
    let mut parse = Samples::new();
    for _ in 0..3 {
        let mut total = 0.0;
        for upload in &uploads {
            let req = r.next_request();
            let t = Instant::now();
            let (parsed, _) = r.spans.time("data.read_dataset_from_str", None, req, || {
                read_dataset_from_str(&upload.csv, &CsvOptions::default())
            });
            parsed.map_err(|e| e.to_string())?;
            total += t.elapsed().as_secs_f64();
        }
        parse.push(total);
    }
    r.out
        .push(parse.median_metric("data.csv_parse_s", 1.0, "s"));

    // core.search over each searched (dataset, bound) of the run — or,
    // for the fixed-S workloads, the search that would pick their S.
    let mut searches: Vec<(usize, u64)> = Vec::new();
    for (k, (_, _, _, policy)) in rec.registers.iter().enumerate() {
        if let LabelPolicy::Search { bound, .. } = policy {
            searches.push((k, *bound));
        }
    }
    if searches.is_empty() {
        searches.push((rec.primary, rec.s_from_bound.unwrap_or(100)));
    }
    let mut total = SearchStats::default();
    let mut primary_stats: Option<SearchStats> = None;
    for &(k, bound) in &searches {
        let (_, upload, _, _) = &rec.registers[k];
        let req = r.next_request();
        let (outcome, _) = r.spans.time("core.search.top_down", None, req, || {
            top_down_search(&upload.rows, &search_options(&upload.rows, bound))
        });
        let outcome = outcome.map_err(|e| e.to_string())?;
        let picked = outcome.best_attrs.unwrap_or(AttrSet::EMPTY);
        if let Some((_, live)) = rec.searched.iter().find(|(i, _)| *i == k) {
            if picked != *live {
                return Err(format!(
                    "replayed search picked {picked:?}, the server {live:?}"
                ));
            }
        }
        if k == rec.primary {
            primary_stats = Some(outcome.stats.clone());
            if rec.s_from_bound == Some(bound) && picked != s_primary {
                return Err(format!(
                    "bound {bound} now picks {picked:?}, not the fixed S {s_primary:?}"
                ));
            }
        }
        total.nodes_examined += outcome.stats.nodes_examined;
        total.candidates_evaluated += outcome.stats.candidates_evaluated;
        total.search_time += outcome.stats.search_time;
        total.eval_time += outcome.stats.eval_time;
    }
    // The counts are deterministic: a repeat of the primary search must
    // reproduce them exactly.
    if let Some(first) = primary_stats {
        let bound = searches
            .iter()
            .find(|(k, _)| *k == rec.primary)
            .map_or(100, |s| s.1);
        let again = top_down_search(&primary.rows, &search_options(&primary.rows, bound))
            .map_err(|e| e.to_string())?;
        if (again.stats.nodes_examined, again.stats.candidates_evaluated)
            != (first.nodes_examined, first.candidates_evaluated)
        {
            return Err("search counts differ between two runs of the same search".into());
        }
    }
    r.out.push(Metric::new(
        "core.search.walk_s",
        total.search_time.as_secs_f64(),
        "s",
        searches.len(),
        "sum",
    ));
    r.out.push(Metric::new(
        "core.search.eval_s",
        total.eval_time.as_secs_f64(),
        "s",
        searches.len(),
        "sum",
    ));
    r.out.push(Metric::count(
        "core.search.nodes_examined",
        total.nodes_examined as f64,
        "count",
    ));
    r.out.push(Metric::count(
        "core.search.candidates_evaluated",
        total.candidates_evaluated as f64,
        "count",
    ));

    let mut rng = Rng::stream(ctx.seed, "replay.label_size");
    let family = Family::new(&mut rng, primary.rows.n_attrs(), AttrSet::EMPTY, 200, 0);
    for set in &family.sets {
        let attrs = AttrSet::from_indices(set.iter().copied());
        let req = r.next_request();
        r.spans
            .time("core.counting.label_size_bounded", None, req, || {
                std::hint::black_box(label_size_bounded(&primary.rows, attrs, 100))
            });
    }
    r.span_metric(
        "core.counting.label_size_us",
        "core.counting.label_size_bounded",
        50.0,
        1e6,
        "us",
    );
    let mut build = Samples::new();
    let (mut partition, mut count, mut assemble) = (Samples::new(), Samples::new(), Samples::new());
    for _ in 0..3 {
        let req = r.next_request();
        let t = Instant::now();
        let ((_, profile), _) = r.spans.time("core.counting.build", None, req, || {
            Label::build_parallel_profiled(
                &primary.rows,
                s_primary,
                auto_threads(primary.rows.n_rows()),
            )
        });
        build.push(t.elapsed().as_secs_f64());
        partition.push(profile.partition_secs);
        count.push(profile.count_secs);
        assemble.push(profile.assemble_secs);
    }
    r.out
        .push(build.median_metric("core.counting.build_s", 1.0, "s"));
    // Report only: a serial build has no partition phase and reports 0 s.
    let median = |s: &mut Samples| s.median().unwrap_or(f64::NAN);
    println!(
        "core.counting.build phases (s, median of 3): partition {:.6} count {:.6} assemble {:.6}",
        median(&mut partition),
        median(&mut count),
        median(&mut assemble)
    );

    // ---- Durability: snapshots of the primary dataset, then recovery
    // of the killed data dir (ingest_durable) or of a scratch dir with a
    // fixed tail of appends.
    let fsync = if rec.killed_dir.is_some() {
        FsyncPolicy::Always
    } else {
        FsyncPolicy::Batch
    };
    let options = DurabilityOptions {
        fsync,
        snapshot_wal_bytes: u64::MAX,
    };
    let snap_dir = scratch.join("snapshots");
    let tail = 8usize;
    {
        let store = Arc::new(LabelStore::new());
        let registry = Registry::default();
        let durability = Durability::open(&snap_dir, options, Arc::clone(&store), &registry)
            .map_err(|e| e.to_string())?;
        store
            .register(
                primary_name.clone(),
                primary.rows.clone(),
                LabelPolicy::Attrs(s_primary),
            )
            .map_err(|e| e.to_string())?;
        let mut snapshot = Samples::new();
        for _ in 0..3 {
            let req = r.next_request();
            let t = Instant::now();
            let (done, _) = r
                .spans
                .time("engine.durability.snapshot_now", None, req, || {
                    durability.snapshot_now()
                });
            done.map_err(|e| e.to_string())?;
            snapshot.push(t.elapsed().as_secs_f64());
        }
        r.out
            .push(snapshot.median_metric("engine.durability.snapshot_s", 1.0, "s"));
        for batch in batches.iter().take(tail) {
            store
                .append_rows(primary_name, &cells(batch))
                .map_err(|e| e.to_string())?;
        }
    }
    let (source, expected) = match (&rec.killed_dir, rec.expected_replayed) {
        (Some(dir), Some(n)) => (dir.clone(), n),
        _ => (snap_dir.clone(), tail as u64),
    };
    let mut recovery = Samples::new();
    let mut replayed = 0;
    for i in 0..3 {
        let copy: PathBuf = scratch.join(format!("recover-{i}"));
        copy_dir(&source, &copy)?;
        let store = Arc::new(LabelStore::new());
        let registry = Registry::default();
        let req = r.next_request();
        let t = Instant::now();
        let (opened, _) = r.spans.time("engine.durability.open", None, req, || {
            Durability::open(&copy, options, Arc::clone(&store), &registry)
        });
        let opened = opened.map_err(|e| e.to_string())?;
        recovery.push(t.elapsed().as_secs_f64());
        replayed = opened.recovery().replayed_records;
        if replayed != expected {
            return Err(format!(
                "recovery replayed {replayed} WAL records, expected {expected}"
            ));
        }
    }
    r.out
        .push(recovery.median_metric("engine.durability.recovery_s", 1.0, "s"));
    r.out.push(Metric::count(
        "engine.durability.replayed_records",
        replayed as f64,
        "count",
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(r.out)
}
