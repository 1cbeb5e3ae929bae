//! `engine_bench` — throughput benchmark for the serving subsystem,
//! emitting one JSON report to stdout.
//!
//! Measures, on a synthetic ≥1M-row dataset:
//!
//! * `GroupCounts::build`, the one serial scan (rows per second; its row
//!   keeps the `threads: 1, shards: 1` keys the multi-threaded build's
//!   rows used, so the CI trend keeps comparing it);
//! * `LabelStore` batched query throughput via `Engine::execute` for a
//!   10k-pattern batch (best of the repetitions).
//!
//! With `--net`, additionally spawns an in-process `pclabel-net` server
//! on a loopback port and measures framed-TCP request throughput at
//! 1/2/4 client threads (a `"net"` array in the JSON report). Each
//! measurement runs with a fleet of idle keep-alive connections parked
//! on the server (the `idle_conns` column) — the workload the reactor
//! exists for. Every net row carries a `reactors` field (event loops
//! serving the listener) and the constant `"model":"reactor"` that
//! `bench_trend` keys rows by; a scaling grid re-runs the 4-client storm
//! against 2 and 4 event loops — bench_trend gates only the 1-reactor
//! rows, so the grid is informational on single-CPU runners. A final
//! `debug_scrape` row re-measures single-client framed throughput while
//! a poller hammers the `/debug` introspection routes over HTTP on the
//! same port, proving inspection does not perturb serving. A
//! `durability_overhead` row times the same append_rows stream against
//! an in-memory store and against one logging every mutation to a
//! write-ahead log under the default `--fsync batch` policy, reporting
//! appends/sec on each side.
//!
//! `--json` is accepted for explicitness; the report is always a single
//! JSON object on stdout (progress goes to stderr).
//!
//! ```text
//! cargo run --release -p pclabel-bench --bin engine_bench -- \
//!     [--net] [--json]
//! ```
//!
//! Environment:
//!   PCLABEL_BENCH_ROWS       dataset rows (default 1_000_000)
//!   PCLABEL_BENCH_REPS       timing repetitions, best-of (default 3)
//!   PCLABEL_BENCH_NET_REQS   --net requests per client thread (default 200)
//!   PCLABEL_BENCH_NET_IDLE   --net parked idle connections (default
//!                            workers + 4)

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::GroupCounts;
use pclabel_data::dataset::Dataset;
use pclabel_data::generate::{independent, AttrSpec};
use pclabel_engine::json::Json;
use pclabel_engine::prelude::*;
use pclabel_net::client::{HttpClient, NetClient};
use pclabel_net::server::{NetServer, ServerConfig};
use pclabel_telemetry::Telemetry;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn usage(message: &str) -> ! {
    eprintln!("engine_bench: {message}");
    eprintln!("usage: engine_bench [--net] [--json]");
    std::process::exit(2);
}

/// Best-of-`reps` wall-clock seconds for `f`.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
        }
        result = Some(out);
    }
    (best, result.expect("at least one rep"))
}

/// Parks `n` proven-live idle keep-alive connections on `addr`.
fn park_idle(addr: std::net::SocketAddr, n: usize) -> Vec<NetClient> {
    (0..n)
        .map(|_| {
            let mut client = NetClient::connect(addr).expect("idle connection connects");
            let response = client
                .request_line(r#"{"op":"health"}"#)
                .expect("idle connection health");
            assert_eq!(
                Json::parse(&response).expect("health JSON").get("ok"),
                Some(&Json::Bool(true))
            );
            client
        })
        .collect()
}

/// Every parked connection must still answer after a measurement (the
/// fleet must survive the storm, not be dropped).
fn assert_fleet_alive(parked: &mut [NetClient]) {
    for client in parked.iter_mut() {
        let response = client
            .request_line(r#"{"op":"health"}"#)
            .expect("idle connection survived the measurement");
        assert_eq!(
            Json::parse(&response).expect("health JSON").get("ok"),
            Some(&Json::Bool(true))
        );
    }
}

/// Framed query storm against the `bench` dataset: `clients` threads ×
/// `requests_per_client` round-trips each. Returns wall-clock seconds.
fn measure_framed(addr: std::net::SocketAddr, clients: usize, requests_per_client: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("bench client connects");
                for i in 0..requests_per_client {
                    let line = format!(
                        r#"{{"op":"query","dataset":"bench","patterns":[{{"a0":"v{}","a1":"v{}"}}]}}"#,
                        (c + i) % 8,
                        i % 6
                    );
                    let response = client.request_line(&line).expect("bench round-trip");
                    assert_eq!(
                        Json::parse(&response).expect("response JSON").get("ok"),
                        Some(&Json::Bool(true)),
                        "bench query failed: {response}"
                    );
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

fn synthetic(rows: usize) -> Dataset {
    // 6 independent attributes with mixed domain sizes: the counting
    // subset {0,1,2} yields 8×6×4 = 192 possible groups.
    let specs: Vec<AttrSpec> = [8usize, 6, 4, 5, 3, 7]
        .iter()
        .enumerate()
        .map(|(i, &domain)| {
            AttrSpec::uniform(
                format!("a{i}"),
                (0..domain).map(|v| format!("v{v}")).collect::<Vec<_>>(),
            )
        })
        .collect();
    independent(&specs, rows, 0xC0FFEE).expect("valid generator config")
}

fn main() {
    let mut net_enabled = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--net" => net_enabled = true,
            // The report is always JSON; the flag exists so callers
            // (CI) can say what they rely on.
            "--json" => {}
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    let rows = env_usize("PCLABEL_BENCH_ROWS", 1_000_000);
    let reps = env_usize("PCLABEL_BENCH_REPS", 3);
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());

    eprintln!("engine_bench: generating {rows} rows…");
    let dataset = synthetic(rows);
    let attrs = AttrSet::from_indices([0, 1, 2]);

    // --- counting: the serial scan -----------------------------------------
    let (serial_secs, (serial_gc, _)) =
        time_best(reps, || GroupCounts::build(&dataset, None, attrs));
    let serial_size = serial_gc.pattern_count_size();
    let counting = format!(
        "{{\"threads\":1,\"shards\":1,\"seconds\":{serial_secs:.6},\"rows_per_sec\":{:.0},\"speedup_vs_serial\":1.000}}",
        rows as f64 / serial_secs
    );

    // --- serving: batched queries through the LabelStore ------------------
    // The engine lives behind a Dispatcher so the --net section can
    // serve the very same store over loopback.
    let dispatcher = Arc::new(Dispatcher::default());
    let engine = dispatcher.engine();
    // The telemetry-overhead microbench (--net) needs a second engine
    // over the same data; keep a copy before `register` takes ownership.
    let overhead_dataset = net_enabled.then(|| dataset.clone());
    engine
        .store()
        .register("bench", dataset, LabelPolicy::Attrs(attrs))
        .expect("register bench dataset");

    let batch = 10_000usize;
    let patterns: Vec<PatternSpec> = (0..batch)
        .map(|i| match i % 3 {
            // Exact path: within S = {a0, a1, a2}.
            0 => PatternSpec {
                terms: vec![
                    ("a0".into(), format!("v{}", i % 8)),
                    ("a1".into(), format!("v{}", i % 6)),
                ],
            },
            // Straddling: estimation with one outside factor.
            1 => PatternSpec {
                terms: vec![
                    ("a0".into(), format!("v{}", i % 8)),
                    ("a3".into(), format!("v{}", i % 5)),
                ],
            },
            // Outside S entirely.
            _ => PatternSpec {
                terms: vec![
                    ("a4".into(), format!("v{}", i % 3)),
                    ("a5".into(), format!("v{}", i % 7)),
                ],
            },
        })
        .collect();
    let request = QueryRequest {
        id: None,
        dataset: "bench".into(),
        patterns,
    };

    let (batch_secs, answered) = time_best(reps, || engine.execute(&request).expect("query batch"));
    assert_eq!(answered.stats.failed, 0);

    // --- network serving (--net): framed TCP req/s over loopback ----------
    let mut net_rows = Vec::new();
    let mut debug_row = String::new();
    let mut telemetry_row = String::new();
    let mut durability_row = String::new();
    let mut faults_row = String::new();
    if net_enabled {
        let requests_per_client = env_usize("PCLABEL_BENCH_NET_REQS", 200);
        let workers = 8usize;
        let idle_conns = env_usize("PCLABEL_BENCH_NET_IDLE", workers + 4);
        let server = NetServer::spawn(
            Arc::clone(&dispatcher),
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        )
        .expect("spawn bench server");
        let addr = server.local_addr();
        let mut single_client_secs_per_req = f64::NAN;
        for &clients in &[1usize, 2, 4] {
            eprintln!(
                "engine_bench: --net {clients} client thread(s), \
                 {idle_conns} idle connection(s)…"
            );
            // Park the idle keep-alive fleet (each proven live with one
            // request) for the duration of the measurement.
            let mut parked = park_idle(addr, idle_conns);
            let secs = measure_framed(addr, clients, requests_per_client);
            assert_fleet_alive(&mut parked);
            drop(parked);
            let requests = clients * requests_per_client;
            if clients == 1 {
                single_client_secs_per_req = secs / requests as f64;
            }
            net_rows.push(format!(
                "{{\"model\":\"reactor\",\"client_threads\":{clients},\"idle_conns\":{idle_conns},\"reactors\":1,\"requests\":{requests},\"seconds\":{secs:.6},\"req_per_sec\":{:.0}}}",
                requests as f64 / secs
            ));
        }
        // --- debug scrape: serving under a concurrent introspection poller
        // The /debug routes are served at the route layer without taking
        // a pool worker; this row shows what a dashboard polling the
        // whole introspection plane costs the serving path (compare its
        // req_per_sec against the 1-client row above).
        {
            let stop = AtomicBool::new(false);
            let requests = requests_per_client;
            let mut secs = f64::NAN;
            let mut scrapes = 0u64;
            eprintln!("engine_bench: --net 1 client thread under a /debug poller…");
            std::thread::scope(|scope| {
                let poller = scope.spawn(|| {
                    let mut http = HttpClient::connect(addr).expect("debug poller connects");
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for path in ["/debug/conns", "/debug/memory", "/debug/traces?op=query"] {
                            let response = http.request("GET", path, None).expect("debug scrape");
                            assert_eq!(response.status, 200, "debug scrape failed on {path}");
                            n += 1;
                        }
                    }
                    n
                });
                let mut client = NetClient::connect(addr).expect("bench client connects");
                let start = Instant::now();
                for i in 0..requests {
                    let line = format!(
                        r#"{{"op":"query","dataset":"bench","patterns":[{{"a0":"v{}","a1":"v{}"}}]}}"#,
                        i % 8,
                        i % 6
                    );
                    let response = client.request_line(&line).expect("bench round-trip");
                    assert_eq!(
                        Json::parse(&response).expect("response JSON").get("ok"),
                        Some(&Json::Bool(true)),
                        "bench query failed: {response}"
                    );
                }
                secs = start.elapsed().as_secs_f64();
                stop.store(true, Ordering::Relaxed);
                scrapes = poller.join().expect("debug poller");
            });
            eprintln!(
                "engine_bench: --net debug_scrape: {:.0} req/s alongside {scrapes} scrapes",
                requests as f64 / secs
            );
            debug_row = format!(
                "{{\"model\":\"reactor\",\"client_threads\":1,\"requests\":{requests},\"seconds\":{secs:.6},\"req_per_sec\":{:.0},\"scrapes\":{scrapes},\"scrapes_per_sec\":{:.0}}}",
                requests as f64 / secs,
                scrapes as f64 / secs
            );
        }
        server.shutdown();

        // --- reactor scaling grid: the same storm on 2 and 4 event loops
        // (the sweep above produced the 1-loop rows). On a many-core
        // runner these rows show readiness scaling across loops that
        // loop 0's one listener feeds round-robin; on a 1-CPU box they
        // are informational only — bench_trend gates the 1-reactor rows
        // and never compares multi-reactor ones.
        for &reactors in &[2usize, 4] {
            eprintln!(
                "engine_bench: --net {reactors} reactors, 4 client thread(s), \
                 {idle_conns} idle connection(s)…"
            );
            let server = NetServer::spawn(
                Arc::clone(&dispatcher),
                ServerConfig {
                    workers,
                    reactors,
                    ..ServerConfig::default()
                },
            )
            .expect("spawn reactor-grid server");
            let addr = server.local_addr();
            let mut parked = park_idle(addr, idle_conns);
            let secs = measure_framed(addr, 4, requests_per_client);
            assert_fleet_alive(&mut parked);
            drop(parked);
            server.shutdown();
            let requests = 4 * requests_per_client;
            net_rows.push(format!(
                "{{\"model\":\"reactor\",\"client_threads\":4,\"idle_conns\":{idle_conns},\"reactors\":{reactors},\"requests\":{requests},\"seconds\":{secs:.6},\"req_per_sec\":{:.0}}}",
                requests as f64 / secs
            ));
        }

        // --- telemetry overhead: live metrics vs no-op handle -------------
        // Loopback round-trip times on a shared 1-CPU runner jitter by
        // far more than telemetry costs, so the per-request cost is
        // measured where it is stable — the same query stream (every
        // answer computed from the label) pushed straight through
        // `Dispatcher::dispatch_line`, once on
        // the live-telemetry dispatcher and once on one whose handle is
        // disabled (single-branch no-ops) — and then expressed against
        // the single-client serving rate measured above: overhead_pct
        // is the share of a served request's latency spent on
        // telemetry. bench_trend hard-fails the artifact above 3%.
        let overhead_requests = requests_per_client * 25;
        let overhead_reps = reps.max(9);
        let lines: Vec<String> = (0..overhead_requests)
            .map(|i| {
                format!(
                    r#"{{"op":"query","dataset":"bench","patterns":[{{"a0":"v{}","a1":"v{}"}}]}}"#,
                    i % 8,
                    i % 6
                )
            })
            .collect();
        let quiet = Dispatcher::with_engine(Engine::default(), Telemetry::disabled());
        quiet
            .engine()
            .store()
            .register(
                "bench",
                overhead_dataset.expect("overhead dataset kept for --net"),
                LabelPolicy::Attrs(attrs),
            )
            .expect("register overhead dataset");
        let pump = |d: &Dispatcher| {
            for line in &lines {
                let response = d.dispatch_line(line);
                assert_eq!(
                    response.get("ok"),
                    Some(&Json::Bool(true)),
                    "overhead query failed: {response}"
                );
            }
        };
        // One untimed pass on each side materializes the labels'
        // marginal tables so the timed loops compare steady states, then
        // the reps interleave (alternating which side goes first) so
        // machine-level drift lands on both sides alike; the min over
        // reps discards the disturbed passes.
        pump(&dispatcher);
        pump(&quiet);
        let mut on_secs = f64::INFINITY;
        let mut off_secs = f64::INFINITY;
        for rep in 0..overhead_reps {
            let order: [(&mut f64, &Dispatcher); 2] = if rep % 2 == 0 {
                [(&mut on_secs, &dispatcher), (&mut off_secs, &quiet)]
            } else {
                [(&mut off_secs, &quiet), (&mut on_secs, &dispatcher)]
            };
            for (best, d) in order {
                let (secs, ()) = time_best(1, || pump(d));
                *best = best.min(secs);
            }
        }
        let delta_per_req = ((on_secs - off_secs) / overhead_requests as f64).max(0.0);
        // The 1-client net row above ran on the live-telemetry
        // dispatcher, so its per-request time is the "on" serving cost;
        // subtracting the measured delta yields the no-op cost.
        let serve_on = single_client_secs_per_req;
        let serve_off = serve_on - delta_per_req;
        let overhead_pct = delta_per_req / serve_on * 100.0;
        eprintln!(
            "engine_bench: telemetry overhead {overhead_pct:.2}% of serving \
             ({:.0} ns/request over {:.1} µs/request; dispatch loops on \
             {on_secs:.4}s / off {off_secs:.4}s for {overhead_requests} requests)",
            delta_per_req * 1e9,
            serve_on * 1e6,
        );
        telemetry_row = format!(
            concat!(
                "{{\"requests\":{requests},\"on_seconds\":{on:.6},\"off_seconds\":{off:.6},",
                "\"on_req_per_sec\":{on_rate:.0},\"off_req_per_sec\":{off_rate:.0},",
                "\"overhead_pct\":{pct:.3}}}"
            ),
            requests = overhead_requests,
            on = on_secs,
            off = off_secs,
            on_rate = 1.0 / serve_on,
            off_rate = 1.0 / serve_off,
            pct = overhead_pct,
        );

        // --- durability overhead: WAL-logged appends vs in-memory ---------
        // The write path is where the durability plane costs anything:
        // every mutation is encoded, CRC'd and (batch-)fsynced before it
        // is acknowledged. Pump the same append_rows stream through two
        // otherwise identical dispatchers — one with a WAL sink under
        // the default `--fsync batch` policy, one purely in-memory —
        // and report the appends/sec on each side. bench_trend trends
        // the durable rate like any throughput row.
        {
            let dur_requests = requests_per_client * 5;
            let dur_rows = 10_000;
            eprintln!(
                "engine_bench: durability overhead, {dur_requests} appends \
                 on a {dur_rows}-row dataset (fsync batch)…"
            );
            let lines: Vec<String> = (0..dur_requests)
                .map(|i| {
                    format!(
                        r#"{{"op":"append_rows","dataset":"bench","rows":[["v{}","v{}","v{}","v{}","v{}","v{}"]]}}"#,
                        i % 8,
                        i % 6,
                        i % 4,
                        i % 5,
                        i % 3,
                        i % 7
                    )
                })
                .collect();
            let pump = |d: &Dispatcher| {
                let start = Instant::now();
                for line in &lines {
                    let response = d.dispatch_line(line);
                    assert_eq!(
                        response.get("ok"),
                        Some(&Json::Bool(true)),
                        "bench append failed: {response}"
                    );
                }
                start.elapsed().as_secs_f64()
            };

            let plain = Dispatcher::with_engine(Engine::default(), Telemetry::disabled());
            plain
                .engine()
                .store()
                .register("bench", synthetic(dur_rows), LabelPolicy::Attrs(attrs))
                .expect("register plain append dataset");
            let plain_secs = pump(&plain);

            let dur_dir = std::env::temp_dir().join(format!(
                "pclabel-engine-bench-durability-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dur_dir);
            let durable = Dispatcher::with_engine(Engine::default(), Telemetry::disabled());
            let durability = Durability::open(
                &dur_dir,
                DurabilityOptions::default(),
                durable.engine().store_arc(),
                &pclabel_telemetry::Registry::new(),
            )
            .expect("open bench durability dir");
            durable
                .engine()
                .store()
                .register("bench", synthetic(dur_rows), LabelPolicy::Attrs(attrs))
                .expect("register durable append dataset");
            let durable_secs = pump(&durable);
            drop(durability);
            let _ = std::fs::remove_dir_all(&dur_dir);

            let overhead_pct = (durable_secs - plain_secs) / plain_secs * 100.0;
            eprintln!(
                "engine_bench: durability overhead {overhead_pct:.1}% \
                 ({:.0} durable vs {:.0} plain appends/sec)",
                dur_requests as f64 / durable_secs,
                dur_requests as f64 / plain_secs,
            );
            durability_row = format!(
                concat!(
                    "{{\"requests\":{requests},\"fsync\":\"batch\",",
                    "\"plain_seconds\":{plain:.6},\"durable_seconds\":{durable:.6},",
                    "\"plain_req_per_sec\":{plain_rate:.0},",
                    "\"durable_req_per_sec\":{durable_rate:.0},",
                    "\"overhead_pct\":{pct:.3}}}"
                ),
                requests = dur_requests,
                plain = plain_secs,
                durable = durable_secs,
                plain_rate = dur_requests as f64 / plain_secs,
                durable_rate = dur_requests as f64 / durable_secs,
                pct = overhead_pct,
            );
        }

        // --- fault-plan seam cost: inert vs armed-but-never-firing --------
        // The injection seam sits on every WAL write/fsync, so its
        // disabled cost must stay ~0%: two checks measure it — fully
        // inert (no plan, two atomic loads per I/O) and armed with a
        // plan whose window never opens (adds the occurrence counter and
        // rule scan). Same durable append pump as the row above.
        {
            let fault_requests = requests_per_client * 5;
            let fault_rows = 10_000;
            eprintln!(
                "engine_bench: fault-seam overhead, {fault_requests} durable \
                 appends inert vs armed-never-firing…"
            );
            let lines: Vec<String> = (0..fault_requests)
                .map(|i| {
                    format!(
                        r#"{{"op":"append_rows","dataset":"bench","rows":[["v{}","v{}","v{}","v{}","v{}","v{}"]]}}"#,
                        i % 8,
                        i % 6,
                        i % 4,
                        i % 5,
                        i % 3,
                        i % 7
                    )
                })
                .collect();
            let pump_durable = |tag: &str| {
                let dur_dir = std::env::temp_dir().join(format!(
                    "pclabel-engine-bench-faults-{tag}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dur_dir);
                let dispatcher = Dispatcher::with_engine(Engine::default(), Telemetry::disabled());
                let durability = Durability::open(
                    &dur_dir,
                    DurabilityOptions::default(),
                    dispatcher.engine().store_arc(),
                    &pclabel_telemetry::Registry::new(),
                )
                .expect("open bench faults dir");
                dispatcher
                    .engine()
                    .store()
                    .register("bench", synthetic(fault_rows), LabelPolicy::Attrs(attrs))
                    .expect("register faults bench dataset");
                let start = Instant::now();
                for line in &lines {
                    let response = dispatcher.dispatch_line(line);
                    assert_eq!(
                        response.get("ok"),
                        Some(&Json::Bool(true)),
                        "bench append failed: {response}"
                    );
                }
                let secs = start.elapsed().as_secs_f64();
                drop(durability);
                let _ = std::fs::remove_dir_all(&dur_dir);
                secs
            };

            pclabel_wal::faults::install(None);
            let inert_secs = pump_durable("inert");
            // A plan whose only window opens at occurrence u64::MAX-ish:
            // armed (counters tick, rules scan) but never fires.
            let never =
                pclabel_wal::faults::FaultPlan::parse("seed=1;wal.write=eio@900000000000000000..")
                    .expect("never-firing plan parses");
            pclabel_wal::faults::install(Some(std::sync::Arc::new(never)));
            let armed_secs = pump_durable("armed");
            pclabel_wal::faults::install(None);

            let overhead_pct = (armed_secs - inert_secs) / inert_secs * 100.0;
            eprintln!(
                "engine_bench: fault-seam disabled overhead {overhead_pct:.1}% \
                 ({:.0} armed vs {:.0} inert appends/sec)",
                fault_requests as f64 / armed_secs,
                fault_requests as f64 / inert_secs,
            );
            faults_row = format!(
                concat!(
                    "{{\"requests\":{requests},\"fsync\":\"batch\",",
                    "\"inert_seconds\":{inert:.6},\"armed_seconds\":{armed:.6},",
                    "\"inert_req_per_sec\":{inert_rate:.0},",
                    "\"armed_req_per_sec\":{armed_rate:.0},",
                    "\"overhead_pct\":{pct:.3}}}"
                ),
                requests = fault_requests,
                inert = inert_secs,
                armed = armed_secs,
                inert_rate = fault_requests as f64 / inert_secs,
                armed_rate = fault_requests as f64 / armed_secs,
                pct = overhead_pct,
            );
        }
    }

    // --- report -----------------------------------------------------------
    let report = format!(
        concat!(
            "{{\"benchmark\":\"engine_throughput\",\"rows\":{rows},\"reps\":{reps},",
            "\"hardware_threads\":{hw},\"group_count\":{groups},",
            "\"counting\":{{\"serial_seconds\":{serial:.6},\"parallel\":[{counting}]}},",
            "\"serving\":{{\"batch_patterns\":{batch},",
            "\"seconds\":{batch_secs:.6},\"patterns_per_sec\":{batch_rate:.0},",
            "\"exact\":{exact},\"estimated\":{estimated}}}{net}}}"
        ),
        rows = rows,
        reps = reps,
        hw = hw,
        groups = serial_size,
        serial = serial_secs,
        counting = counting,
        batch = batch,
        batch_secs = batch_secs,
        batch_rate = batch as f64 / batch_secs,
        exact = answered.stats.exact,
        estimated = answered.stats.estimated,
        net = if net_enabled {
            format!(
                ",\"net\":[{}],\"debug_scrape\":{debug_row},\"telemetry_overhead\":{telemetry_row},\"durability_overhead\":{durability_row},\"faults_disabled_overhead\":{faults_row}",
                net_rows.join(",")
            )
        } else {
            String::new()
        },
    );
    println!("{report}");
}
