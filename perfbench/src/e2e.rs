//! The end-to-end phase of the three workloads, against a real
//! `pclabel-netd` child process.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pclabel_core::attrset::AttrSet;
use pclabel_core::label::Label;
use pclabel_engine::json::Json;
use pclabel_engine::store::LabelPolicy;
use pclabel_wal::record::WalOp;

use crate::check::{
    parse_ok, same_answer, scan_append, scan_query, transport_failure, Answer, Failure, Tally,
};
use crate::inputs::{
    append_line, draw_pool, expected_answer, known_rows, label_attrs_policy, query_line,
    register_line, Family, PaperDataset, Probe, Rng, Truth, Upload, Zipf,
};
use crate::server::{http_get, prometheus_mean, Conn, Server, ServerFlags};
use crate::stats::{Metric, Samples};
use crate::trace::SpanLog;

pub type Res<T> = Result<T, String>;

/// Patterns per `query` request: well above the loopback floor, and
/// under `EngineConfig::parallel_batch_threshold` (256), so no batch
/// spawns threads.
pub const PATTERNS_PER_QUERY: usize = 64;

/// The `S` that `bound` 100 picks on the COMPAS-like dataset; serve_read
/// registers with it so its setup skips the search (the traced replay
/// re-derives it and fails the run if the search now picks another).
pub const SERVE_READ_S: [&str; 6] = [
    "Scale_ID",
    "DisplayText",
    "DecileScore",
    "ScoreText",
    "RecSupervisionLevel",
    "RecSupervisionLevelText",
];
/// Fixed label attributes of the ingest_durable dataset.
pub const INGEST_S: [&str; 3] = ["shape", "color", "clarity"];
/// Attribute subsets that patterns project onto are drawn from this
/// fixed stream, the same for every seed, so the error figures compare
/// one label against one family of subsets; `--seed` picks the rows
/// projected onto them and the request order.
const FAMILY_SEED: u64 = 0x5eed_fa11;
/// Rows of the ingest_durable dataset.
pub const INGEST_ROWS: usize = 200_000;
/// Rows per `append_rows` batch.
pub const APPEND_BATCH: usize = 16;
/// Batches appended after the forced snapshot, before the SIGKILL.
pub const TAIL_BATCHES: usize = 8;
/// ingest_durable's `--snapshot-wal-bytes` (the daemon's default). The
/// register record crosses it, a measured slice's capped appends (4 s,
/// ~0.7 MB of WAL at 20 s a run) do not, so snapshots run in set-up and
/// in the recovery tail but not in the measured phase. Each stalls readers for tens of milliseconds;
/// at a rate that put ~1% of queries into such stalls, `query_p99_ms`
/// flipped between the stall and the normal append wait from run to run.
pub const SNAPSHOT_WAL_BYTES: u64 = 4 << 20;
/// ingest_durable's open-loop query rate (requests per second).
pub const QUERY_RATE: f64 = 200.0;
/// Cap on ingest_durable's closed append loop (batches per second), so
/// the dataset grows by the same rows in every run the server keeps up
/// with.
pub const APPEND_RATE: f64 = 150.0;
/// Recovery cycles (SIGKILL, respawn, first correct query) per run.
pub const RECOVERY_CYCLES: usize = 3;

/// What the traced replay needs from the end-to-end phase.
#[derive(Default)]
pub struct Recorded {
    /// `(name, upload, register line, policy)` per registered dataset.
    pub registers: Vec<(String, Arc<Upload>, String, LabelPolicy)>,
    /// Which register the single-dataset layer replays use.
    pub primary: usize,
    /// `(register index, query line, client RTT seconds)`.
    pub queries: Vec<(usize, String, f64)>,
    /// Append batches against the primary dataset, as sent (ingest) or
    /// drawn from its own rows (the read-only workloads).
    pub appends: Vec<Vec<Vec<String>>>,
    /// `(register index, S the live server picked)` for searched labels.
    pub searched: Vec<(usize, AttrSet)>,
    /// The bound whose search picks the primary dataset's fixed `S`
    /// (serve_read); the replay fails the run if it no longer does.
    pub s_from_bound: Option<u64>,
    /// ingest_durable: the data dir as the last SIGKILL left it, and
    /// the WAL records its recovery must replay.
    pub killed_dir: Option<PathBuf>,
    pub expected_replayed: Option<u64>,
}

/// The metrics `BENCHMARK.json` lists under `end_to_end`, in its order:
/// every workload reports each of them.
pub const E2E_METRICS: [&str; 6] = [
    "setup_s",
    "label_build_s",
    "query_p50_ms",
    "est_abs_err_mean",
    "est_abs_err_max",
    "peak_rss_mb",
];

/// One workload's end-to-end results.
pub struct Run {
    /// The [`E2E_METRICS`], in order.
    pub e2e: Vec<Metric>,
    /// Report-only metrics: tail percentiles, whose run-to-run spread is
    /// wider than any bound the result line may carry, and the figures
    /// only some workloads measure.
    pub extra: Vec<Metric>,
    /// Per-layer figures read from the live server (traced runs).
    pub live: Vec<Metric>,
    pub tally: Tally,
    pub spans: SpanLog,
    pub recorded: Recorded,
}

/// Orders a workload's end-to-end metrics as [`E2E_METRICS`]; panics
/// when one is missing or extra, so no workload can drop one.
fn gated(mut metrics: Vec<Metric>) -> Vec<Metric> {
    metrics.sort_by_key(|m| E2E_METRICS.iter().position(|&n| n == m.name));
    let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, E2E_METRICS, "end-to-end metrics");
    metrics
}

/// The run's shared settings.
pub struct Ctx {
    pub netd: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub epoch: Instant,
}

fn io<T>(r: std::io::Result<T>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn need(r: Result<Json, Failure>, what: &str) -> Res<Json> {
    r.map_err(|f| format!("{what}: {}", f.describe()))
}

fn connect(server: &Server) -> Res<Conn> {
    io(
        Conn::connect_retry(&server.addr, Duration::from_secs(10)),
        "connect to pclabel-netd",
    )
}

fn label_attrs_of(upload: &Upload, response: &Json) -> Res<AttrSet> {
    let names = response
        .get("label_attrs")
        .and_then(Json::as_array)
        .ok_or("register response without label_attrs")?;
    let names: Vec<&str> = names.iter().filter_map(Json::as_str).collect();
    Ok(upload.attrs_of(&names))
}

/// Counts of the `stats` op's cache section: (hits, misses, invalidations).
fn cache_stats(conn: &mut Conn, dataset: &str) -> Res<(f64, f64, f64)> {
    let line = format!("{{\"op\":\"stats\",\"dataset\":\"{dataset}\"}}");
    let stats = need(parse_ok(io(conn.call(&line), "stats")?), "stats")?;
    let cache = stats.get("cache").ok_or("stats without cache section")?;
    let n = |k: &str| cache.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Ok((n("hits"), n("misses"), n("invalidations")))
}

/// Live per-layer figures: health RTT and the server's mean store wait.
fn live_layers(server: &Server, conn: &mut Conn, out: &mut Vec<Metric>) -> Res<()> {
    let mut rtt = Samples::new();
    for _ in 0..2000 {
        let t = Instant::now();
        need(
            parse_ok(io(conn.call("{\"op\":\"health\"}"), "health")?),
            "health",
        )?;
        rtt.push(t.elapsed().as_secs_f64());
    }
    out.push(rtt.metric("net.health_rtt_p50_ms", 50.0, 1e3, "ms"));
    let metrics = io(http_get(&server.addr, "/metrics"), "GET /metrics")?;
    let wait =
        prometheus_mean(&metrics, "pclabel_store_wait_seconds").map_or(f64::NAN, |s| s * 1e6);
    out.push(Metric::new(
        "engine.store.wait_mean_us",
        wait,
        "us",
        1,
        "mean",
    ));
    Ok(())
}

fn cache_metrics(hits: f64, misses: f64, out: &mut Vec<Metric>) {
    let ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    out.push(Metric::count("engine.cache.hit_ratio", ratio, "ratio"));
    out.push(Metric::count("engine.cache.hits", hits, "count"));
    out.push(Metric::count("engine.cache.misses", misses, "count"));
}

/// One report line listing a timing's samples in run order.
fn print_samples(what: &str, samples: &Samples, scale: f64, digits: usize) {
    let values: Vec<String> = samples
        .values()
        .iter()
        .map(|v| format!("{:.digits$}", v * scale))
        .collect();
    println!("{what}: {}", values.join(" "));
}

/// Mean and max of `|estimate - true count|`.
fn error_metrics(errors: &[f64], out: &mut Vec<Metric>) {
    let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    let max = errors.iter().copied().fold(0.0, f64::max);
    out.push(Metric::new(
        "est_abs_err_mean",
        mean,
        "count",
        errors.len(),
        "mean",
    ));
    out.push(Metric::new(
        "est_abs_err_max",
        max,
        "count",
        errors.len(),
        "max",
    ));
}

/// Draws one query's pattern indices and builds its line.
fn draw_query(
    rng: &mut Rng,
    zipf: &Zipf,
    pool: &[Probe],
    dataset: &str,
    idx: &mut Vec<usize>,
) -> String {
    idx.clear();
    idx.extend((0..PATTERNS_PER_QUERY).map(|_| zipf.sample(rng)));
    query_line(dataset, idx.iter().map(|&i| pool[i].json.as_str()))
}

/// `n` batches of `APPEND_BATCH` rows resampled from the dataset's own
/// rows (rows with a missing cell are skipped).
fn resampled_batches(rng: &mut Rng, upload: &Upload, n: usize) -> Vec<Vec<Vec<String>>> {
    let rows = &upload.rows;
    let mut batches = Vec::with_capacity(n);
    let mut batch = Vec::with_capacity(APPEND_BATCH);
    while batches.len() < n {
        let r = rng.below(rows.n_rows());
        let row: Option<Vec<String>> = (0..rows.n_attrs())
            .map(|a| rows.value(r, a).map(|id| rows.label_of(a, id).to_string()))
            .collect();
        if let Some(row) = row {
            batch.push(row);
        }
        if batch.len() == APPEND_BATCH {
            batches.push(std::mem::take(&mut batch));
        }
    }
    batches
}

// ---------------------------------------------------------------- label_build

const LB_BOUNDS: [u64; 2] = [50, 100];
/// Probe requests per (dataset, bound) pair and pass: 6 pairs × 176 ≥ 1000
/// samples per pass, so `query_p99_ms` rests on ≥ 10 samples beyond it.
const LB_PROBE_REQUESTS: usize = 176;

struct ProbeSet {
    family: Family,
    pool: Vec<Probe>,
    truth: Truth,
    lines: Vec<String>,
}

pub fn label_build(ctx: &Ctx) -> Res<Run> {
    let uploads: Vec<Arc<Upload>> = PaperDataset::ALL
        .iter()
        .map(|d| Arc::new(Upload::new(&d.generate(None))))
        .collect();
    let mut rng = Rng::stream(ctx.seed, "label_build.probes");
    let probes: Vec<ProbeSet> = PaperDataset::ALL
        .iter()
        .zip(&uploads)
        .map(|(d, upload)| {
            let family = Family::new(
                &mut Rng::stream(FAMILY_SEED, d.short()),
                upload.rows.n_attrs(),
                AttrSet::EMPTY,
                96,
                0,
            );
            let pool = draw_pool(
                &mut rng,
                upload,
                &family,
                LB_PROBE_REQUESTS * PATTERNS_PER_QUERY,
            );
            let truth = Truth::recount(&upload.rows, &family, |_, _| true);
            let lines = pool
                .chunks(PATTERNS_PER_QUERY)
                .map(|c| query_line(d.short(), c.iter().map(|p| p.json.as_str())))
                .collect();
            ProbeSet {
                family,
                pool,
                truth,
                lines,
            }
        })
        .collect();
    let pairs: Vec<(usize, u64)> = (0..uploads.len())
        .flat_map(|d| LB_BOUNDS.map(|b| (d, b)))
        .collect();
    let register_lines: Vec<String> = pairs
        .iter()
        .map(|&(d, b)| {
            register_line(
                PaperDataset::ALL[d].short(),
                &uploads[d].csv,
                &format!("\"bound\":{b}"),
            )
        })
        .collect();

    let mut tally = Tally::default();
    let mut spans = SpanLog::new(ctx.epoch, 1);
    let flags = ServerFlags::pinned();
    println!("server: {}", flags.describe());

    // Set-up: boot plus a small warm-up through register, query and drop
    // (no upload: uploading and searching is what the pass times).
    let spawn_warm = || -> Res<(Server, Conn)> {
        let server = io(Server::spawn(&ctx.netd, &flags), "spawn pclabel-netd")?;
        let mut conn = connect(&server)?;
        for line in [
            "{\"op\":\"register\",\"dataset\":\"warm\",\"generator\":\"figure2\",\"bound\":5}",
            "{\"op\":\"query\",\"dataset\":\"warm\",\"patterns\":[{\"gender\":\"Female\"}]}",
            "{\"op\":\"drop\",\"dataset\":\"warm\"}",
        ] {
            need(parse_ok(io(conn.call(line), "warm-up")?), "warm-up")?;
        }
        Ok((server, conn))
    };

    // Measured phase: whole passes over the six (dataset, bound) pairs,
    // each pair in a fresh server. In one long-lived server later
    // uploads land on a heap the earlier ones fragmented, so their time
    // and the peak RSS depend on what ran before (the peak moves by
    // ~40 MiB with the probe order alone). Each spawn is a set-up sample.
    let mut setup = Samples::new();
    let mut build = Samples::new();
    let mut query = Samples::new();
    let mut peak_rss = Samples::new();
    let mut first_answers: Vec<Vec<Vec<Answer>>> = vec![Vec::new(); pairs.len()];
    let mut picked: Vec<Option<AttrSet>> = vec![None; pairs.len()];
    let mut recorded = Recorded::default();
    let (mut hits, mut misses) = (0.0, 0.0);
    let mut live_metrics = Vec::new();
    let mut answers = Vec::new();
    let mut request = 0u64;
    let start = Instant::now();
    let mut pass = 0usize;
    let mut last_pass = 0.0;
    while pass == 0 || start.elapsed().as_secs_f64() + last_pass * 0.5 < ctx.seconds {
        let pass_start = Instant::now();
        let mut pass_build = 0.0;
        let mut pass_peak = 0.0f64;
        let mut pass_regs = Vec::new();
        let mut pass_p50 = Vec::new();
        for (k, &(d, _)) in pairs.iter().enumerate() {
            let name = PaperDataset::ALL[d].short();
            let spawned = Instant::now();
            let (server, mut conn) = spawn_warm()?;
            setup.push(spawned.elapsed().as_secs_f64());
            request += 1;
            let t = Instant::now();
            let response = conn.call(&register_lines[k]).map(str::to_string);
            let rtt = t.elapsed().as_secs_f64();
            if ctx.trace {
                spans.record(
                    "client.register",
                    None,
                    request,
                    t,
                    t + Duration::from_secs_f64(rtt),
                );
            }
            pass_build += rtt;
            pass_regs.push(format!("{rtt:.3}"));
            let response = io(response, "register")?;
            let json = need(parse_ok(&response), "register")?;
            let s = label_attrs_of(&uploads[d], &json)?;
            let rows = json.get("rows").and_then(Json::as_u64);
            tally.check(rows == Some(uploads[d].rows.n_rows() as u64), || {
                format!("{name}: register reported {rows:?} rows")
            });
            match picked[k] {
                None => picked[k] = Some(s),
                Some(first) => tally.check(first == s, || {
                    format!("{name}: search picked {s:?} after {first:?}")
                }),
            }
            let mut probe_rtt = Samples::new();
            for (i, line) in probes[d].lines.iter().enumerate() {
                request += 1;
                let t = Instant::now();
                let response = conn.call(line);
                let rtt = t.elapsed().as_secs_f64();
                query.push(rtt);
                probe_rtt.push(rtt);
                if ctx.trace {
                    spans.record(
                        "client.query",
                        None,
                        request,
                        t,
                        t + Duration::from_secs_f64(rtt),
                    );
                }
                let result = match response {
                    Ok(text) => scan_query(text, &mut answers),
                    Err(e) => Err(transport_failure(&e)),
                };
                match result {
                    Err(f) => tally.fail(f),
                    Ok(_) if pass == 0 => {
                        tally.ok();
                        first_answers[k].push(answers.clone());
                        if ctx.trace && k % 2 == 1 {
                            recorded.queries.push((k, line.clone(), rtt));
                        }
                    }
                    Ok(_) => {
                        let same = first_answers[k].get(i).is_some_and(|a| {
                            a.len() == answers.len()
                                && a.iter()
                                    .zip(&answers)
                                    .all(|(x, y)| same_answer(*y, (x.0, x.1)))
                        });
                        tally.check(same, || format!("{name}: probe {i} changed between passes"));
                    }
                }
            }
            pass_p50.push(format!("{:.3}", probe_rtt.median().unwrap_or(0.0) * 1e3));
            if ctx.trace && pass == 0 {
                let (h, m, _) = cache_stats(&mut conn, name)?;
                hits += h;
                misses += m;
            }
            let drop_line = format!("{{\"op\":\"drop\",\"dataset\":\"{name}\"}}");
            need(parse_ok(io(conn.call(&drop_line), "drop")?), "drop")?;
            pass_peak = pass_peak.max(server.peak_rss_mb().unwrap_or(f64::NAN));
            if ctx.trace && pass == 0 && k + 1 == pairs.len() {
                live_layers(&server, &mut conn, &mut live_metrics)?;
                cache_metrics(hits, misses, &mut live_metrics);
            }
            drop(conn);
            server.kill();
        }
        build.push(pass_build);
        peak_rss.push(pass_peak);
        println!(
            "label_build pass {pass}: registers (s) {} probe p50 (ms) {}",
            pass_regs.join(" "),
            pass_p50.join(" ")
        );
        last_pass = pass_start.elapsed().as_secs_f64();
        pass += 1;
    }

    // Answer checks against twin labels over the same S, and the
    // estimates' error against recounted truth.
    let mut errors = Vec::new();
    for (k, &(d, _)) in pairs.iter().enumerate() {
        let Some(s) = picked[k] else { continue };
        let twin = Label::build_parallel(&uploads[d].rows, s, 2);
        let set = &probes[d];
        for (chunk, served) in set.pool.chunks(PATTERNS_PER_QUERY).zip(&first_answers[k]) {
            for (probe, &answer) in chunk.iter().zip(served) {
                let expected = expected_answer(&twin, &set.family, probe, &set.truth);
                tally.check(same_answer(answer, expected), || {
                    format!(
                        "{} b{}: {} answered {:?}, expected {:?}",
                        PaperDataset::ALL[d].short(),
                        pairs[k].1,
                        probe.json,
                        answer,
                        expected
                    )
                });
                if let Some(count) = set.truth.count(probe) {
                    errors.push((answer.0 - count as f64).abs());
                }
            }
        }
        if ctx.trace {
            recorded.searched.push((k, s));
        }
    }

    print_samples("label_build passes (s)", &build, 1.0, 3);
    print_samples("label_build pass peak RSS (MiB)", &peak_rss, 1.0, 1);
    // The mean of the passes, not their median: a run holds three, each
    // search varies by about a quarter from pass to pass, and over ten
    // seeds the mean of three spread half as wide as their median.
    let mut e2e = vec![
        setup.median_metric("setup_s", 1.0, "s"),
        build.mean_metric("label_build_s", 1.0, "s"),
        query.metric("query_p50_ms", 50.0, 1e3, "ms"),
        peak_rss.median_metric("peak_rss_mb", 1.0, "MiB"),
    ];
    error_metrics(&errors, &mut e2e);

    if ctx.trace {
        for (k, &(d, b)) in pairs.iter().enumerate() {
            recorded.registers.push((
                PaperDataset::ALL[d].short().to_string(),
                Arc::clone(&uploads[d]),
                register_lines[k].clone(),
                LabelPolicy::Search {
                    bound: b,
                    refine: true,
                },
            ));
        }
        // COMPAS at bound 100: the pair the issue's hot-spot figures
        // were measured on.
        recorded.primary = 3;
        let mut rng = Rng::stream(ctx.seed, "label_build.appends");
        recorded.appends = resampled_batches(&mut rng, &uploads[1], 1200);
    }
    Ok(Run {
        e2e: gated(e2e),
        extra: vec![
            query.metric("query_p99_ms", 99.0, 1e3, "ms"),
            Metric::new("passes", pass as f64, "count", 1, "count"),
        ],
        live: live_metrics,
        tally,
        spans,
        recorded,
    })
}

// ----------------------------------------------------------------- serve_read

/// Rounds of set-up plus measured slice; the slices share the run's
/// seconds.
const SR_ROUNDS: usize = 7;
/// Attribute subsets of the serve_read pool, and its size: a universe
/// larger than the cache's 16 × 8,192 entries.
const SR_SUBSETS: usize = 3_000;
const SR_POOL: usize = 250_000;
const SR_WARMUP: usize = 500;
const SR_CLIENTS: usize = 2;
const SR_RECORD: usize = 2_000;

/// Pool, truth and the bench's expected answer per pattern.
struct Served {
    family: Family,
    pool: Vec<Probe>,
    expected: Vec<(f64, bool)>,
    zipf: Zipf,
}

/// A Zipf-skewed pattern pool over `subsets` attribute subsets, with
/// true counts recounted for the first `tracked` of them (the error
/// metrics' sample; the rest only widen the universe past the cache).
fn served_pool(
    rng: &mut Rng,
    upload: &Upload,
    label: &Label,
    subsets: usize,
    within: usize,
    tracked: usize,
    size: usize,
) -> (Served, Truth) {
    let s = label.attrs();
    let inside = (1usize << s.len()) - 1 - s.len();
    let family = Family::new(
        &mut Rng::stream(FAMILY_SEED, upload.rows.name()),
        upload.rows.n_attrs(),
        s,
        subsets,
        within.min(inside),
    );
    let pool = draw_pool(rng, upload, &family, size);
    let truth = Truth::recount(&upload.rows, &family, |f, set| {
        f < tracked || set.iter().all(|&a| s.contains(a))
    });
    let expected = pool
        .iter()
        .map(|p| expected_answer(label, &family, p, &truth))
        .collect();
    let zipf = Zipf::new(pool.len(), 1.0);
    (
        Served {
            family,
            pool,
            expected,
            zipf,
        },
        truth,
    )
}

/// What one client of a measured slice hands back.
struct ClientRun {
    lat: Samples,
    tally: Tally,
    spans: SpanLog,
    recorded: Vec<(usize, String, f64)>,
    finished: Instant,
}

/// One measured slice of serve_read: a closed loop on each of
/// `SR_CLIENTS` connections for `seconds`. Returns the slice's start and
/// what each client measured.
fn closed_loop(
    ctx: &Ctx,
    server: &Server,
    served: &Arc<Served>,
    round: usize,
    seconds: f64,
) -> Res<(Instant, Vec<ClientRun>)> {
    let start = Instant::now() + Duration::from_millis(20);
    let handles: Vec<_> = (0..SR_CLIENTS)
        .map(|c| {
            let mut conn = connect(server)?;
            let served = Arc::clone(served);
            let (trace, epoch, seed) = (ctx.trace, ctx.epoch, ctx.seed);
            let record = if trace && round == 0 && c == 0 {
                SR_RECORD
            } else {
                0
            };
            let id = (round * SR_CLIENTS + c) as u64;
            Ok(std::thread::spawn(move || {
                let mut rng = Rng::stream(seed, &format!("serve_read.round{round}.client{c}"));
                let mut lat = Samples::new();
                let mut tally = Tally::default();
                let mut spans = SpanLog::new(epoch, 2 + id);
                let mut recorded = Vec::new();
                let mut idx = Vec::new();
                let mut answers = Vec::new();
                while Instant::now() < start {
                    std::hint::spin_loop();
                }
                let deadline = start + Duration::from_secs_f64(seconds);
                let mut request = id << 40;
                while Instant::now() < deadline {
                    let line = draw_query(&mut rng, &served.zipf, &served.pool, "compas", &mut idx);
                    request += 1;
                    let t = Instant::now();
                    let response = conn.call(&line);
                    let rtt = t.elapsed().as_secs_f64();
                    lat.push(rtt);
                    if trace {
                        spans.record(
                            "client.query",
                            None,
                            request,
                            t,
                            t + Duration::from_secs_f64(rtt),
                        );
                        if recorded.len() < record {
                            recorded.push((0usize, line.clone(), rtt));
                        }
                    }
                    match response {
                        Ok(text) => {
                            let scanned = scan_query(text, &mut answers);
                            check_answers(scanned, &idx, &answers, &served, &mut tally);
                        }
                        Err(e) => {
                            tally.fail(transport_failure(&e));
                            break;
                        }
                    }
                }
                ClientRun {
                    lat,
                    tally,
                    spans,
                    recorded,
                    finished: Instant::now(),
                }
            }))
        })
        .collect::<Res<Vec<_>>>()?;
    let clients = handles
        .into_iter()
        .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
        .collect::<Res<Vec<_>>>()?;
    Ok((start, clients))
}

pub fn serve_read(ctx: &Ctx) -> Res<Run> {
    let upload = Arc::new(Upload::new(&PaperDataset::Compas.generate(None)));
    let s = upload.attrs_of(&SERVE_READ_S);
    let twin = Label::build_parallel(&upload.rows, s, 2);
    let mut rng = Rng::stream(ctx.seed, "serve_read.pool");
    let (served, truth) = served_pool(&mut rng, &upload, &twin, SR_SUBSETS, 24, 96, SR_POOL);
    let errors: Vec<f64> = served
        .pool
        .iter()
        .zip(&served.expected)
        .filter_map(|(p, e)| Some((e.0 - truth.count(p)? as f64).abs()))
        .collect();
    let served = Arc::new(served);
    let name = "compas";
    let register = register_line(name, &upload.csv, &label_attrs_policy(&SERVE_READ_S));

    let mut tally = Tally::default();
    let flags = ServerFlags::pinned();
    println!("server: {}", flags.describe());
    let mut setup = Samples::new();
    let mut build = Samples::new();
    let mut lat = Samples::new();
    let mut round_p50 = Samples::new();
    let mut peak_rss = Samples::new();
    let mut spans = SpanLog::new(ctx.epoch, 1);
    let mut recorded = Recorded::default();
    let mut live_metrics = Vec::new();
    let mut elapsed = 0.0;
    let mut warm_rng = Rng::stream(ctx.seed, "serve_read.warmup");
    let mut idx = Vec::new();
    let mut answers = Vec::new();
    // Rounds of set-up plus a measured slice, each on a fresh server, so
    // the set-up samples spread across the run as the latency samples do.
    for round in 0..SR_ROUNDS {
        let t0 = Instant::now();
        let server = io(Server::spawn(&ctx.netd, &flags), "spawn pclabel-netd")?;
        let mut conn = connect(&server)?;
        let t = Instant::now();
        let response = io(conn.call(&register), "register")?.to_string();
        build.push(t.elapsed().as_secs_f64());
        let json = need(parse_ok(&response), "register")?;
        tally.check(label_attrs_of(&upload, &json)? == s, || {
            "register picked another S".into()
        });
        for _ in 0..SR_WARMUP {
            let line = draw_query(&mut warm_rng, &served.zipf, &served.pool, name, &mut idx);
            let response = io(conn.call(&line), "warm-up query")?;
            check_answers(
                scan_query(response, &mut answers),
                &idx,
                &answers,
                &served,
                &mut tally,
            );
        }
        setup.push(t0.elapsed().as_secs_f64());
        // The set-up connection closes: the slice has exactly two.
        drop(conn);
        let slice = ctx.seconds / SR_ROUNDS as f64;
        let (start, clients) = closed_loop(ctx, &server, &served, round, slice)?;
        let mut end = start;
        let mut this_round = Samples::new();
        for c in clients {
            this_round.extend(&c.lat);
            tally.merge(&c.tally);
            spans.absorb(c.spans);
            recorded.queries.extend(c.recorded);
            end = end.max(c.finished);
        }
        elapsed += (end - start).as_secs_f64();
        lat.extend(&this_round);
        round_p50.push(this_round.median().unwrap_or(f64::NAN));
        peak_rss.push(server.peak_rss_mb().unwrap_or(f64::NAN));
        if ctx.trace && round + 1 == SR_ROUNDS {
            let mut conn = connect(&server)?;
            let (hits, misses, _) = cache_stats(&mut conn, name)?;
            cache_metrics(hits, misses, &mut live_metrics);
            live_layers(&server, &mut conn, &mut live_metrics)?;
        }
        server.kill();
    }
    print_samples("serve_read set-ups (s)", &setup, 1.0, 3);
    print_samples("serve_read registers (s)", &build, 1.0, 3);
    print_samples("serve_read slice query p50 (ms)", &round_p50, 1e3, 3);

    let mut e2e = vec![
        setup.median_metric("setup_s", 1.0, "s"),
        build.median_metric("label_build_s", 1.0, "s"),
        lat.metric("query_p50_ms", 50.0, 1e3, "ms"),
        peak_rss.median_metric("peak_rss_mb", 1.0, "MiB"),
    ];
    error_metrics(&errors, &mut e2e);
    let extra = vec![
        lat.metric("query_p99_ms", 99.0, 1e3, "ms"),
        Metric::new(
            "query_rps",
            lat.len() as f64 / elapsed,
            "req/s",
            lat.len(),
            "mean",
        ),
    ];
    if ctx.trace {
        recorded.registers.push((
            name.to_string(),
            Arc::clone(&upload),
            register,
            LabelPolicy::Attrs(s),
        ));
        recorded.s_from_bound = Some(100);
        let mut rng = Rng::stream(ctx.seed, "serve_read.appends");
        recorded.appends = resampled_batches(&mut rng, &upload, 1200);
    }
    Ok(Run {
        e2e: gated(e2e),
        extra,
        live: live_metrics,
        tally,
        spans,
        recorded,
    })
}

fn check_answers(
    scanned: Result<crate::check::Scanned, Failure>,
    idx: &[usize],
    answers: &[Answer],
    served: &Served,
    tally: &mut Tally,
) {
    match scanned {
        Err(f) => tally.fail(f),
        Ok(_) => {
            let bad = idx
                .iter()
                .zip(answers)
                .position(|(&i, &a)| !same_answer(a, served.expected[i]));
            if answers.len() != idx.len() {
                tally.fail(Failure::Wrong(format!(
                    "{} answers for {} patterns",
                    answers.len(),
                    idx.len()
                )));
            } else if let Some(p) = bad {
                let i = idx[p];
                tally.fail(Failure::Wrong(format!(
                    "{} answered {:?}, expected {:?}",
                    served.pool[i].json, answers[p], served.expected[i]
                )));
            } else {
                tally.ok();
            }
        }
    }
}

// ------------------------------------------------------------- ingest_durable

/// Rounds of set-up plus measured slice; the slices share the run's
/// seconds, and the last round's server takes the recovery tail.
const ID_ROUNDS: usize = 5;
const ID_POOL: usize = 4_000;
const ID_RECORD: usize = 2_000;
const ID_APPEND_SOURCE_ROWS: usize = 160_000;

/// One query of the open loop, kept for the post-run check.
struct Asked {
    generation: u64,
    idx: Vec<usize>,
    answers: Vec<Answer>,
}

/// `(snapshot_lsn, last_lsn, unsnapshotted WAL bytes)` from `server_stats`.
fn durability(conn: &mut Conn) -> Res<(u64, u64, u64)> {
    let stats = need(
        parse_ok(io(conn.call("{\"op\":\"server_stats\"}"), "server_stats")?),
        "server_stats",
    )?;
    let d = stats
        .get("durability")
        .ok_or("server_stats without durability section")?;
    let n = |k: &str| d.get(k).and_then(Json::as_u64).unwrap_or(0);
    let pending = stats
        .get("gauges")
        .and_then(|g| g.get("pclabel_wal_unsnapshotted_bytes"))
        .and_then(Json::as_u64)
        .ok_or("server_stats without pclabel_wal_unsnapshotted_bytes")?;
    Ok((n("snapshot_lsn"), n("last_lsn"), pending))
}

/// Polls `server_stats` until `done(snapshot_lsn, last_lsn, pending)`.
fn await_durability(conn: &mut Conn, what: &str, done: impl Fn(u64, u64, u64) -> bool) -> Res<()> {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (snapshot, last, pending) = durability(conn)?;
        if done(snapshot, last, pending) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "timed out waiting for {what} (snapshot lsn {snapshot}, last lsn {last}, {pending} bytes pending)"
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Waits until a snapshot covers every WAL record.
fn await_snapshot(conn: &mut Conn) -> Res<()> {
    await_durability(conn, "a snapshot", |snapshot, last, _| {
        snapshot == last && last > 0
    })
}

/// WAL records the boot summary says recovery replayed.
fn replayed_records(stderr: &str) -> Option<u64> {
    let line = stderr
        .lines()
        .find(|l| l.contains("pclabel-netd: recovered"))?;
    let before = line.split(" WAL record(s) replayed").next()?;
    before.rsplit(' ').next()?.parse().ok()
}

/// What one measured slice of ingest_durable hands back.
struct Slice {
    append_lat: Samples,
    query_lat: Samples,
    late: Samples,
    tally: Tally,
    spans: SpanLog,
    /// First row (in the append source) of each acknowledged batch.
    order: Vec<usize>,
    asked: Vec<Asked>,
    recorded: Vec<(usize, String, f64)>,
}

/// One measured slice: closed-loop appends beside open-loop queries, one
/// connection each, for `seconds`.
fn ingest_slice(
    ctx: &Ctx,
    server: &Server,
    served: &Arc<Served>,
    rows: &Arc<Vec<Vec<String>>>,
    base_rows: u64,
    round: usize,
    seconds: f64,
) -> Res<Slice> {
    let name = "bluenile";
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(seconds);
    let tag = 2 * round as u64;
    let appender = {
        let mut conn = connect(server)?;
        let rows = Arc::clone(rows);
        let trace = ctx.trace;
        let epoch = ctx.epoch;
        std::thread::spawn(move || {
            let mut lat = Samples::new();
            let mut tally = Tally::default();
            let mut spans = SpanLog::new(epoch, 2 + tag);
            let mut order: Vec<usize> = Vec::new();
            let mut generation = 0u64;
            let mut total = base_rows;
            let span_rows = rows.len() - APPEND_BATCH;
            while Instant::now() < start {
                std::hint::spin_loop();
            }
            let mut i = 0usize;
            let interval = Duration::from_secs_f64(1.0 / APPEND_RATE);
            loop {
                // Closed loop, capped at APPEND_RATE: never more than one
                // append outstanding, and none before its slot.
                let due = start + interval * i as u32;
                if due >= deadline {
                    break;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let first = (i * APPEND_BATCH) % span_rows;
                let line = append_line(name, &rows[first..first + APPEND_BATCH]);
                let t = Instant::now();
                let response = conn.call(&line);
                let rtt = t.elapsed().as_secs_f64();
                lat.push(rtt);
                if trace {
                    spans.record(
                        "client.append_rows",
                        None,
                        (1 << 40) + (tag << 32) + i as u64,
                        t,
                        t + Duration::from_secs_f64(rtt),
                    );
                }
                match response
                    .map_err(|e| transport_failure(&e))
                    .and_then(scan_append)
                {
                    Ok((scanned, incremental)) => {
                        generation += 1;
                        total += APPEND_BATCH as u64;
                        order.push(first);
                        tally.check(
                            incremental && scanned.generation == generation && scanned.rows == total,
                            || format!(
                                "append {i}: generation {} rows {} incremental {incremental}, expected {generation}/{total}/true",
                                scanned.generation, scanned.rows
                            ),
                        );
                    }
                    Err(f) => {
                        tally.fail(f);
                        break;
                    }
                }
                i += 1;
            }
            (lat, tally, spans, order)
        })
    };
    let querier = {
        let mut conn = connect(server)?;
        let served = Arc::clone(served);
        let trace = ctx.trace;
        let epoch = ctx.epoch;
        let seed = ctx.seed;
        std::thread::spawn(move || {
            let mut rng = Rng::stream(seed, &format!("ingest_durable.round{round}.queries"));
            let mut lat = Samples::new();
            let mut late = Samples::new();
            let mut tally = Tally::default();
            let mut spans = SpanLog::new(epoch, 3 + tag);
            let mut asked: Vec<Asked> = Vec::new();
            let mut recorded = Vec::new();
            let mut idx = Vec::new();
            let mut answers = Vec::new();
            let interval = Duration::from_secs_f64(1.0 / QUERY_RATE);
            let mut k = 0u32;
            loop {
                let due = start + interval * k;
                if due >= deadline {
                    break;
                }
                let line = draw_query(&mut rng, &served.zipf, &served.pool, name, &mut idx);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                late.push((sent - due).as_secs_f64());
                let response = conn.call(&line);
                let done = Instant::now();
                lat.push((done - due).as_secs_f64());
                if trace {
                    let request = (2 << 40) + (tag << 32) + k as u64;
                    spans.record("client.query", None, request, sent, done);
                    if recorded.len() < ID_RECORD {
                        recorded.push((0usize, line.clone(), (done - sent).as_secs_f64()));
                    }
                }
                match response.map_err(|e| transport_failure(&e)) {
                    Ok(text) => match scan_query(text, &mut answers) {
                        Ok(scanned) => asked.push(Asked {
                            generation: scanned.generation,
                            idx: idx.clone(),
                            answers: answers.clone(),
                        }),
                        Err(f) => tally.fail(f),
                    },
                    Err(f) => {
                        tally.fail(f);
                        break;
                    }
                }
                k += 1;
            }
            (lat, late, tally, spans, asked, recorded)
        })
    };
    let (append_lat, append_tally, append_spans, order) =
        appender.join().map_err(|_| "append thread panicked")?;
    let (query_lat, late, mut tally, mut spans, asked, recorded) =
        querier.join().map_err(|_| "query thread panicked")?;
    tally.merge(&append_tally);
    spans.absorb(append_spans);
    Ok(Slice {
        append_lat,
        query_lat,
        late,
        tally,
        spans,
        order,
        asked,
        recorded,
    })
}

/// The append batches that start at `order`'s rows, in order.
fn batches_of<'a>(rows: &'a [Vec<String>], order: &[usize]) -> Vec<&'a [Vec<String>]> {
    order
        .iter()
        .map(|&first| &rows[first..first + APPEND_BATCH])
        .collect()
}

/// Checks one server's open-loop answers against a twin label at the
/// generation each answer reports, replaying the acknowledged `batches`
/// into the bench's own copy of the rows in order. Returns the twin and
/// the truth after the last batch.
fn verify_generations(
    upload: &Upload,
    s: AttrSet,
    truth0: &Truth,
    served: &Served,
    batches: &[&[Vec<String>]],
    mut asked: Vec<Asked>,
    tally: &mut Tally,
) -> Res<(Label, Truth)> {
    let mut own = upload.rows.clone();
    let mut twin = Label::build_parallel(&own, s, 2);
    let mut truth = truth0.clone();
    asked.sort_by_key(|a| a.generation);
    let mut next = 0usize;
    let verify = |g: u64, twin: &Label, truth: &Truth, tally: &mut Tally, next: &mut usize| {
        while *next < asked.len() && asked[*next].generation == g {
            let a = &asked[*next];
            let bad = a.idx.iter().zip(&a.answers).position(|(&i, &ans)| {
                !same_answer(
                    ans,
                    expected_answer(twin, &served.family, &served.pool[i], truth),
                )
            });
            tally.check(bad.is_none() && a.answers.len() == a.idx.len(), || {
                format!("query at generation {g} disagrees with the twin label")
            });
            *next += 1;
        }
    };
    verify(0, &twin, &truth, tally, &mut next);
    for (g, batch) in batches.iter().enumerate() {
        let before = own.n_rows();
        let cells: Vec<Vec<Option<&str>>> = batch
            .iter()
            .map(|r| r.iter().map(|c| Some(c.as_str())).collect())
            .collect();
        own.append_labeled_rows(&cells).map_err(|e| e.to_string())?;
        twin = twin.with_appended(&own, before..own.n_rows()).0;
        truth.add_rows(&own, &served.family, before..own.n_rows());
        verify(g as u64 + 1, &twin, &truth, tally, &mut next);
    }
    tally.check(next == asked.len(), || {
        format!("{} answers at unknown generations", asked.len() - next)
    });
    Ok((twin, truth))
}

pub fn ingest_durable(ctx: &Ctx) -> Res<Run> {
    let upload = Arc::new(Upload::new(
        &PaperDataset::BlueNile.generate(Some(INGEST_ROWS)),
    ));
    let s = upload.attrs_of(&INGEST_S);
    let twin0 = Label::build_parallel(&upload.rows, s, 2);
    let mut rng = Rng::stream(ctx.seed, "ingest_durable.pool");
    let (served, truth0) = served_pool(&mut rng, &upload, &twin0, 24, 8, 24, ID_POOL);
    drop(twin0);
    let errors: Vec<f64> = served
        .pool
        .iter()
        .zip(&served.expected)
        .filter_map(|(p, e)| Some((e.0 - truth0.count(p)? as f64).abs()))
        .collect();
    let served = Arc::new(served);
    let source = PaperDataset::BlueNile.generate_seeded(
        ID_APPEND_SOURCE_ROWS,
        Rng::stream(ctx.seed, "ingest_durable.rows").next_u64(),
    );
    let rows = Arc::new(known_rows(&upload.rows, &source));
    let name = "bluenile";
    let register = register_line(name, &upload.csv, &label_attrs_policy(&INGEST_S));
    // A batch whose WAL record alone crosses the snapshot threshold.
    let mut crossing: Vec<Vec<String>> = Vec::new();
    while crossing.len() < rows.len() {
        crossing.extend(
            rows[crossing.len()..(crossing.len() + 512).min(rows.len())]
                .iter()
                .cloned(),
        );
        let op = WalOp::AppendRows {
            name: name.to_string(),
            generation: 0,
            rows: crossing
                .iter()
                .map(|r| r.iter().map(|c| Some(c.clone())).collect())
                .collect(),
        };
        if op.encode().len() as u64 >= SNAPSHOT_WAL_BYTES {
            break;
        }
    }
    let crossing_line = append_line(name, &crossing);

    let mut tally = Tally::default();
    let mut flags = ServerFlags::pinned();
    flags.fsync = "always";
    flags.snapshot_wal_bytes = SNAPSHOT_WAL_BYTES;
    flags.data_dir = Some(ctx.work_dir.join("ingest-N"));
    println!("server: {}", flags.describe());
    let base_rows = upload.rows.n_rows() as u64;
    let mut setup = Samples::new();
    let mut build = Samples::new();
    let mut peak_rss = Samples::new();
    let mut append_lat = Samples::new();
    let mut query_lat = Samples::new();
    let mut late = Samples::new();
    let mut spans = SpanLog::new(ctx.epoch, 1);
    let mut recorded_queries = Vec::new();
    let mut warm_rng = Rng::stream(ctx.seed, "ingest_durable.warmup");
    let mut idx = Vec::new();
    let mut answers = Vec::new();
    // Rounds of set-up plus a measured slice, each on a fresh server and
    // data dir, so the set-up samples spread across the run as the
    // latency samples do. The last round's server goes on to the
    // recovery tail.
    let mut last = None;
    for round in 0..ID_ROUNDS {
        let data_dir = ctx.work_dir.join(format!("ingest-{round}"));
        let _ = std::fs::remove_dir_all(&data_dir);
        flags.data_dir = Some(data_dir.clone());
        let t0 = Instant::now();
        let server = io(Server::spawn(&ctx.netd, &flags), "spawn pclabel-netd")?;
        let mut conn = connect(&server)?;
        let t = Instant::now();
        let response = io(conn.call(&register), "register")?.to_string();
        build.push(t.elapsed().as_secs_f64());
        need(parse_ok(&response), "register")?;
        for _ in 0..200 {
            let line = draw_query(&mut warm_rng, &served.zipf, &served.pool, name, &mut idx);
            let response = io(conn.call(&line), "warm-up query")?;
            check_answers(
                scan_query(response, &mut answers),
                &idx,
                &answers,
                &served,
                &mut tally,
            );
        }
        setup.push(t0.elapsed().as_secs_f64());
        // The register record crosses the snapshot threshold; let that
        // snapshot land before measuring. Untimed: the snapshotter polls
        // every 200 ms, and that idle wait is not server work.
        await_snapshot(&mut conn)?;
        // The set-up connection closes: the slice has exactly two.
        drop(conn);
        let slice_seconds = ctx.seconds / ID_ROUNDS as f64;
        let slice = ingest_slice(
            ctx,
            &server,
            &served,
            &rows,
            base_rows,
            round,
            slice_seconds,
        )?;
        let per_second: Vec<String> = slice
            .query_lat
            .values()
            .chunks(QUERY_RATE as usize)
            .map(|c| {
                let mut v = c.to_vec();
                v.sort_by(f64::total_cmp);
                format!("{:.2}", v[v.len() / 2] * 1e3)
            })
            .collect();
        println!(
            "ingest_durable slice {round} query p50 per second (ms): {}",
            per_second.join(" ")
        );
        append_lat.extend(&slice.append_lat);
        query_lat.extend(&slice.query_lat);
        late.extend(&slice.late);
        tally.merge(&slice.tally);
        spans.absorb(slice.spans);
        recorded_queries.extend(slice.recorded);
        // The slice's peak, before the tail's large batches.
        peak_rss.push(server.peak_rss_mb().unwrap_or(f64::NAN));
        if round + 1 < ID_ROUNDS {
            server.kill();
            // Deleting the killed server's files drops their dirty pages,
            // so their writeback does not compete with the next round.
            let _ = std::fs::remove_dir_all(&data_dir);
            let batches = batches_of(&rows, &slice.order);
            verify_generations(
                &upload,
                s,
                &truth0,
                &served,
                &batches,
                slice.asked,
                &mut tally,
            )?;
        } else {
            last = Some((server, data_dir, slice.order, slice.asked));
        }
    }
    print_samples("ingest_durable set-ups (s)", &setup, 1.0, 3);
    print_samples("ingest_durable registers (s)", &build, 1.0, 3);
    let (server, data_dir, order, asked) = last.expect("at least one round");
    let mut control = connect(&server)?;

    // Fixed recovery tail: the writer is quiet; force a snapshot twice
    // (the older of the two retained snapshots still needs the WAL from
    // its own LSN on, so after the second one exactly the second
    // crossing batch plus the tail stays in the WAL), then append a
    // fixed tail and SIGKILL.
    let mut generation = order.len() as u64;
    let mut batches = batches_of(&rows, &order);
    // A snapshot still running from the measured slice zeroes the byte
    // counter when it ends, which would swallow a crossing batch sent
    // meanwhile. The counter stays at or above the threshold until then.
    await_durability(
        &mut control,
        "the last snapshot to finish",
        |_, _, pending| pending < SNAPSHOT_WAL_BYTES,
    )?;
    for _ in 0..2 {
        let response = io(control.call(&crossing_line), "crossing append")?.to_string();
        generation += 1;
        let ok = scan_append(&response).map(|(s, inc)| inc && s.generation == generation);
        tally.check(ok == Ok(true), || {
            format!("crossing append: {response:.200}")
        });
        batches.push(&crossing);
        await_snapshot(&mut control)?;
    }
    for t in 0..TAIL_BATCHES {
        let first = t * APPEND_BATCH;
        let response = io(
            control.call(&append_line(name, &rows[first..first + APPEND_BATCH])),
            "tail append",
        )?
        .to_string();
        generation += 1;
        let ok = scan_append(&response).map(|(s, inc)| inc && s.generation == generation);
        tally.check(ok == Ok(true), || format!("tail append: {response:.200}"));
        batches.push(&rows[first..first + APPEND_BATCH]);
    }
    // The answer the recovered server must repeat.
    let check_idx: Vec<usize> = (0..PATTERNS_PER_QUERY).collect();
    let check_line = query_line(
        name,
        check_idx.iter().map(|&i| served.pool[i].json.as_str()),
    );
    let mut before_kill = Vec::new();
    let scanned = scan_query(
        io(control.call(&check_line), "check query")?,
        &mut before_kill,
    );
    let final_rows = base_rows + batches.iter().map(|b| b.len() as u64).sum::<u64>();
    tally.check(
        scanned
            .as_ref()
            .is_ok_and(|s| s.generation == generation && s.rows == final_rows),
        || {
            format!(
                "pre-kill state {scanned:?}, expected generation {generation} rows {final_rows}"
            )
        },
    );
    let mut live_metrics = Vec::new();
    if ctx.trace {
        let (hits, misses, invalidations) = cache_stats(&mut control, name)?;
        cache_metrics(hits, misses, &mut live_metrics);
        live_metrics.push(Metric::count(
            "engine.cache.invalidated_per_append",
            invalidations / generation.max(1) as f64,
            "count",
        ));
        live_layers(&server, &mut control, &mut live_metrics)?;
    }
    drop(control);
    let mut killed = Instant::now();
    server.kill();

    // Recovery: respawn on the same data dir until the first correct
    // query, a few times over.
    let expected_replayed = TAIL_BATCHES as u64 + 1;
    let mut recovery = Samples::new();
    for _ in 0..RECOVERY_CYCLES {
        let server = io(Server::spawn(&ctx.netd, &flags), "respawn pclabel-netd")?;
        let mut conn = connect(&server)?;
        let mut got = Vec::new();
        let recovered = loop {
            match conn.call(&check_line) {
                Ok(text) => {
                    if let Ok(s) = scan_query(text, &mut got) {
                        break Some(s);
                    }
                }
                Err(_) => break None,
            }
            if killed.elapsed() > Duration::from_secs(60) {
                break None;
            }
        };
        recovery.push(killed.elapsed().as_secs_f64());
        let same = got.len() == before_kill.len()
            && got
                .iter()
                .zip(&before_kill)
                .all(|(a, b)| same_answer(*a, (b.0, b.1)));
        tally.check(
            same && recovered.is_some_and(|s| s.rows == final_rows && s.generation == generation),
            || {
                format!(
                    "recovered {recovered:?}, expected rows {final_rows} generation {generation}"
                )
            },
        );
        drop(conn);
        killed = Instant::now();
        let stderr = server.kill();
        let replayed = replayed_records(&stderr);
        tally.check(replayed == Some(expected_replayed), || {
            format!("recovery replayed {replayed:?} WAL records, expected {expected_replayed}")
        });
    }

    // Check every open-loop answer of the last round, and the pre-kill
    // answers, against the twin at their generation.
    let (twin, truth) =
        verify_generations(&upload, s, &truth0, &served, &batches, asked, &mut tally)?;
    let final_ok = before_kill.iter().zip(&check_idx).all(|(&a, &i)| {
        same_answer(
            a,
            expected_answer(&twin, &served.family, &served.pool[i], &truth),
        )
    });
    tally.check(final_ok && before_kill.len() == check_idx.len(), || {
        "pre-kill answers disagree with the twin label".into()
    });

    let mut e2e = vec![
        setup.median_metric("setup_s", 1.0, "s"),
        build.median_metric("label_build_s", 1.0, "s"),
        query_lat.metric("query_p50_ms", 50.0, 1e3, "ms"),
        peak_rss.median_metric("peak_rss_mb", 1.0, "MiB"),
    ];
    error_metrics(&errors, &mut e2e);
    let extra = vec![
        query_lat.metric("query_p99_ms", 99.0, 1e3, "ms"),
        append_lat.metric("append_p50_ms", 50.0, 1e3, "ms"),
        append_lat.metric("append_p99_ms", 99.0, 1e3, "ms"),
        recovery.median_metric("recovery_s", 1.0, "s"),
        late.metric("loadgen_late_p99_ms", 99.0, 1e3, "ms"),
        Metric::count("replayed_records", expected_replayed as f64, "count"),
    ];
    let mut recorded = Recorded::default();
    if ctx.trace {
        recorded.registers.push((
            name.to_string(),
            Arc::clone(&upload),
            register,
            LabelPolicy::Attrs(s),
        ));
        recorded_queries.truncate(ID_RECORD);
        recorded.queries = recorded_queries;
        recorded.appends = batches
            .iter()
            .filter(|b| b.len() == APPEND_BATCH)
            .take(1200)
            .map(|b| b.to_vec())
            .collect();
        recorded.killed_dir = Some(data_dir.clone());
        recorded.expected_replayed = Some(expected_replayed);
    } else {
        let _ = std::fs::remove_dir_all(&data_dir);
    }
    Ok(Run {
        e2e: gated(e2e),
        extra,
        live: live_metrics,
        tally,
        spans,
        recorded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_summary_parses() {
        let stderr = "pclabel-netd: recovered 1 dataset(s) to lsn 42 from d \
                      (snapshot lsn 33, 9 WAL record(s) replayed)\n";
        assert_eq!(replayed_records(stderr), Some(9));
        assert_eq!(replayed_records("nothing"), None);
    }

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let json = Json::parse(&text).unwrap();
        let names: Vec<&str> = json
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, E2E_METRICS);
    }

    #[test]
    fn gated_orders_and_requires_every_metric() {
        let all: Vec<Metric> = E2E_METRICS
            .iter()
            .rev()
            .map(|n| Metric::count(n, 1.0, "count"))
            .collect();
        let names: Vec<String> = gated(all.clone()).into_iter().map(|m| m.name).collect();
        assert_eq!(names, E2E_METRICS);
        let missing = std::panic::catch_unwind(|| gated(all[1..].to_vec()));
        assert!(missing.is_err());
    }
}
