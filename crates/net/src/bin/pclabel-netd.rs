//! `pclabel-netd` — serve pattern count-based labels over TCP and HTTP.
//!
//! One listening socket speaks both protocols (sniffed per connection):
//! the length-prefixed frame protocol (`u32` big-endian length + JSON)
//! and HTTP/1.1 (`POST /query`, `POST /register`, `GET /stats`,
//! `GET /healthz`, …). Both dispatch through the same core as
//! `pclabel-serve`, so responses are byte-identical across transports.
//! Connections run on reactor event loops (`epoll` on Linux, `poll(2)`
//! on other Unixes); the daemon needs a Unix.

use std::sync::Arc;
use std::time::Duration;

use pclabel_engine::durability::{Durability, DurabilityOptions};
use pclabel_engine::query::{Engine, EngineConfig};
use pclabel_engine::serve::Dispatcher;
use pclabel_net::server::{NetServer, ServerConfig};
use pclabel_telemetry::{LogLevel, Logger, Telemetry};

const USAGE: &str = "\
pclabel-netd — serve pattern count-based labels over TCP/HTTP

usage: pclabel-netd [options]

options:
  --listen ADDR            listen address (default 127.0.0.1:7341; port 0
                           picks an ephemeral port, printed on startup)
  --model reactor          the connection model; reactor is the only one:
                           event loops over epoll on Linux, poll(2)
                           elsewhere, with workers held per request
  --workers N              worker threads dispatching requests (default 4)
  --queue N                base size of the one dispatch queue: requests
                           that may wait for a free worker (default 64;
                           0 = 1)
  --max-parked N           per-loop addition to the dispatch queue, which
                           holds --queue + --reactors x --max-parked
                           requests in arrival order; a request that
                           finds it full is refused with HTTP 429 / a
                           framed {\"error\":\"overloaded\"} (default 256)
  --reactors N             event loops serving the listener (default:
                           CPU count; 0 = 1). Loop 0 owns the one
                           listener and deals accepted sockets
                           round-robin across all loops, on either
                           readiness backend. All loops feed the one
                           dispatch queue of the --workers threads
  --write-watermark BYTES  per-connection cap on queued unsent response
                           bytes; at the cap the loop stops reading from
                           that connection until the peer drains its
                           responses (default 262144)
  --max-conns N            simultaneous connection cap, split evenly
                           across the event loops; at the cap the
                           least-recently-active idle connection is
                           evicted (default 1024)
  --idle-ms MS             close connections idle between requests for
                           MS (default 0 = never)
  --max-frame BYTES        request frame/body size limit (default 1048576)
  --timeout-ms MS          deadline for a peer stalled mid-request or
                           mid-response (default 10000; 0 = none)
  --force-poll             use the portable poll(2) backend even where
                           epoll is available (diagnostics); it picks
                           only the readiness backend, not how
                           connections are accepted
  --allow-remote-shutdown  honour {\"op\":\"shutdown\"} from clients
  --log-level LEVEL        structured JSON log verbosity on stderr:
                           error, warn, info or debug (default info;
                           debug logs every request with per-phase spans)
  --slow-query-ms MS       log requests slower than MS as slow_query
                           warnings with per-phase timing spans and the
                           request id, retrievable afterwards from
                           GET /debug/traces?id=N (default 0 = disabled)
  --log-sample N           at debug level, log only every Nth request
                           line (default 1 = all; warnings and errors
                           are never sampled away)
  --retained-traces N      finished traces kept per op for
                           GET /debug/traces — N most recent plus the N
                           slowest (default 64; 0 = disabled)
  --data-dir DIR           durable mode: recover the store from DIR's
                           newest valid snapshot + WAL replay on boot,
                           then log every mutation (register, refresh,
                           append_rows, drop) before acknowledging it.
                           Without this flag the store is in-memory only.
                           On-disk format: docs/ONDISK_FORMAT.md;
                           operations: docs/OPERATIONS.md
  --fsync always|batch|off WAL fsync policy (default batch): always =
                           fsync per record; batch = fsync at 64 KiB or
                           25 ms of unsynced records, whichever first;
                           off = leave flushing to the OS
  --snapshot-wal-bytes N   write a snapshot (and truncate covered WAL
                           segments) once N unsnapshotted WAL bytes have
                           accumulated (default 4194304)
  -h, --help               this text

Wire protocols on one port, sniffed from the first bytes:
  framed TCP   u32 big-endian payload length + JSON request, same framing
               back; persistent connections
  HTTP/1.1     POST /query | /register | /append_rows | /refresh | /drop
               | /estimate_multi | /server_stats | /server_debug with the
               request JSON as body; GET /stats?dataset=NAME;
               GET /healthz; GET /metrics (Prometheus text);
               GET /debug/traces?op=NAME&slowest=1&id=N (retained
               traces), GET /debug/memory (per-dataset component bytes),
               GET /debug/conns (live connection table) — all served
               without dispatching, so inspection never perturbs what it
               reports; HEAD works on every GET route;
               POST / with an {\"op\":...} body; keep-alive

environment:
  PCLABEL_QUERY_THREADS    worker threads for large query batches
                           (default: auto)
";

fn fail(message: &str) -> ! {
    eprintln!("pclabel-netd: {message}");
    eprintln!("try: pclabel-netd --help");
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7341".to_string(),
        // The daemon (unlike the library's single-loop default) scales
        // the reactor plane to the machine out of the box.
        reactors: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..ServerConfig::default()
    };
    let mut log_level = LogLevel::Info;
    let mut slow_query: Option<Duration> = None;
    let mut log_sample: u64 = 1;
    let mut retained_traces = pclabel_telemetry::DEFAULT_RETAINED_TRACES;
    let mut data_dir: Option<String> = None;
    let mut durability_options = DurabilityOptions::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return;
            }
            "--listen" => config.addr = value("--listen"),
            "--model" => {
                let model = value("--model");
                if model != "reactor" {
                    fail(&format!(
                        "unknown connection model {model:?}; the only model is \"reactor\""
                    ));
                }
            }
            "--reactors" => {
                config.reactors = value("--reactors")
                    .parse()
                    .unwrap_or_else(|_| fail("--reactors needs an integer"))
            }
            "--write-watermark" => {
                config.write_watermark = value("--write-watermark")
                    .parse()
                    .unwrap_or_else(|_| fail("--write-watermark needs an integer"))
            }
            "--max-conns" => {
                config.max_connections = value("--max-conns")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-conns needs an integer"))
            }
            "--idle-ms" => {
                let ms: u64 = value("--idle-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--idle-ms needs an integer"));
                config.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--force-poll" => config.force_poll_backend = true,
            "--workers" => {
                config.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers needs an integer"))
            }
            "--queue" => {
                config.queue_capacity = value("--queue")
                    .parse()
                    .unwrap_or_else(|_| fail("--queue needs an integer"))
            }
            "--max-parked" => {
                config.max_parked = value("--max-parked")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-parked needs an integer"))
            }
            "--max-frame" => {
                config.max_frame = value("--max-frame")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-frame needs an integer"))
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--timeout-ms needs an integer"));
                let timeout = (ms > 0).then(|| Duration::from_millis(ms));
                config.read_timeout = timeout;
                config.write_timeout = timeout;
            }
            "--allow-remote-shutdown" => config.allow_remote_shutdown = true,
            "--log-level" => {
                log_level = value("--log-level")
                    .parse()
                    .unwrap_or_else(|e: String| fail(&e))
            }
            "--slow-query-ms" => {
                let ms: u64 = value("--slow-query-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--slow-query-ms needs an integer"));
                slow_query = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--log-sample" => {
                log_sample = value("--log-sample")
                    .parse()
                    .unwrap_or_else(|_| fail("--log-sample needs an integer"))
            }
            "--retained-traces" => {
                retained_traces = value("--retained-traces")
                    .parse()
                    .unwrap_or_else(|_| fail("--retained-traces needs an integer"))
            }
            "--data-dir" => data_dir = Some(value("--data-dir")),
            "--fsync" => {
                durability_options.fsync = value("--fsync")
                    .parse()
                    .unwrap_or_else(|e: String| fail(&e))
            }
            "--snapshot-wal-bytes" => {
                durability_options.snapshot_wal_bytes = value("--snapshot-wal-bytes")
                    .parse()
                    .unwrap_or_else(|_| fail("--snapshot-wal-bytes needs an integer"))
            }
            other => fail(&format!("unknown flag {other:?}")),
        }
    }

    let query_threads = std::env::var("PCLABEL_QUERY_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(0);
    let telemetry = Telemetry::with_options(
        Logger::new(log_level, slow_query).with_sample(log_sample),
        retained_traces,
    );
    let engine = Engine::new(EngineConfig { query_threads });
    // `_durability` owns the background flusher/snapshotter threads;
    // keeping it alive until after server.wait() is what flushes the
    // final batch on clean shutdown.
    let _durability = data_dir.map(|dir| {
        let durability = Durability::open(
            &dir,
            durability_options,
            engine.store_arc(),
            telemetry.registry(),
        )
        .unwrap_or_else(|e| fail(&format!("recovery from {dir}: {e}")));
        let report = durability.recovery();
        // Boot summary on stderr alongside the structured logs: what
        // recovery trusted and where it stopped.
        eprintln!(
            "pclabel-netd: recovered {} dataset(s) to lsn {} from {dir} \
             (snapshot lsn {}, {} WAL record(s) replayed)",
            report.datasets,
            report.recovered_lsn,
            report
                .snapshot_lsn
                .map_or("none".to_string(), |l| l.to_string()),
            report.replayed_records,
        );
        for (path, reason) in &report.rejected_snapshots {
            eprintln!(
                "pclabel-netd: rejected snapshot {}: {reason}",
                path.display()
            );
        }
        if let Some(reason) = &report.stopped {
            eprintln!("pclabel-netd: WAL replay stopped early: {reason}");
        }
        if !report.quarantined.is_empty() {
            let names: Vec<String> = report
                .quarantined
                .iter()
                .map(|p| p.display().to_string())
                .collect();
            eprintln!(
                "pclabel-netd: quarantined {} WAL file(s): {}",
                names.len(),
                names.join(", ")
            );
        }
        engine.attach_durability(Arc::clone(&durability));
        durability
    });
    let dispatcher = Arc::new(Dispatcher::with_engine(engine, telemetry));

    let workers = config.workers;
    let reactors = config.reactors.max(1);
    let server = match NetServer::spawn(dispatcher, config) {
        Ok(server) => server,
        Err(e) => fail(&format!("failed to start: {e}")),
    };
    // Startup line on stdout so supervisors (and the CI smoke script)
    // can discover the resolved ephemeral port. The address stays the
    // fourth whitespace-separated field — scripts parse it.
    println!(
        "pclabel-netd: listening on {} ({workers} workers, {reactors} reactors)",
        server.local_addr()
    );
    server.wait();
    println!("pclabel-netd: shut down");
}
