//! The TCP listener: binds the one socket, sniffs the wire protocol and
//! hands every connection to the reactor's event loops, whose requests
//! reach the worker threads through one bounded FIFO of jobs.
//!
//! One socket serves both protocols. The first four bytes of a
//! connection are either an ASCII HTTP method prefix (`"GET "`,
//! `"POST"`, …) — in which case the connection speaks the
//! [`crate::http`] adapter — or the big-endian length of the first
//! frame. The two cannot collide because frame lengths are capped at
//! [`MAX_FRAME_CEILING`], far below the
//! smallest method-prefix value.
//!
//! The server needs the readiness syscalls (`epoll` on Linux, `poll(2)`
//! on other Unixes); on other targets [`NetServer::spawn`] returns
//! [`io::ErrorKind::Unsupported`].
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or a remote `{"op":"shutdown"}` when
//! [`ServerConfig::allow_remote_shutdown`] is set) flips a shared flag
//! and wakes every event loop out of its poll, so shutdown never waits
//! on a timeout or a self-connection that a firewall could swallow. Loop
//! 0 then closes the listener, and each loop closes its idle and
//! mid-read connections and exits once its in-flight dispatches have
//! written their responses. The handle joins the loops, then closes the
//! job queue, so the workers run what still waits in it and exit, and
//! joins them too.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pclabel_engine::json::Json;
use pclabel_engine::serve::Dispatcher;
use pclabel_telemetry::Gauge;

use crate::conntrack::{ConnState, ConnTable};
use crate::frame::{DEFAULT_MAX_FRAME, MAX_FRAME_CEILING};
use crate::metrics::NetMetrics;

/// Tuning for [`NetServer::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads dispatching requests; each *request* occupies one
    /// worker while it dispatches, idle connections occupy none.
    pub workers: usize,
    /// Base share of the one dispatch queue: requests that may wait for
    /// a free worker, `0` counting as 1. The queue holds
    /// `queue_capacity + reactors × max_parked` requests in all (see
    /// [`ServerConfig::max_parked`]).
    pub queue_capacity: usize,
    /// Per-loop share of the dispatch queue beyond
    /// [`ServerConfig::queue_capacity`]: the queue holds
    /// `queue_capacity + reactors × max_parked` requests, in arrival
    /// order. A request that finds it full is answered at once with HTTP
    /// `429 Too Many Requests` / a framed
    /// `{"ok":false,"error":"overloaded"}` and its connection stays open,
    /// so a worker stall bounds queued-request memory instead of growing
    /// it without limit.
    pub max_parked: usize,
    /// Maximum request-frame payload size in bytes (clamped to
    /// [`MAX_FRAME_CEILING`]); also caps HTTP request bodies.
    pub max_frame: u32,
    /// Deadline for a connection stalled *mid-request* (a wedged peer);
    /// `None` disables the deadline.
    pub read_timeout: Option<Duration>,
    /// Deadline for a response write that stops making progress; `None`
    /// disables the deadline.
    pub write_timeout: Option<Duration>,
    /// Connections idle *between* requests longer than this are closed.
    /// `None` (the default) lets idle connections live until the client
    /// closes them or the connection cap evicts them.
    pub idle_timeout: Option<Duration>,
    /// Maximum simultaneous connections. At the cap, the
    /// least-recently-active idle connection is evicted to admit a
    /// newcomer; if every connection is mid-request the newcomer is
    /// refused.
    pub max_connections: usize,
    /// Force the portable `poll(2)` backend even where epoll is
    /// available (diagnostics; lets tests exercise the fallback on
    /// Linux). It picks only the readiness backend: accepting works the
    /// same on both.
    pub force_poll_backend: bool,
    /// Number of event loops. Each loop owns a private connection table,
    /// deadline bookkeeping and completion queue. Loop 0 owns the one
    /// listener and deals accepted sockets round-robin across all loops,
    /// itself included. `0` is treated as 1. All loops feed the one
    /// dispatch queue and its `workers`, which stay process-wide.
    pub reactors: usize,
    /// Per-connection cap on queued unsent response bytes. At or above
    /// the cap the owning loop stops *reading* from that connection (its
    /// peer is not draining responses) until the queue sinks below the
    /// cap again — so per-connection memory is bounded by the watermark
    /// plus one read chunk instead of growing with response volume. `0`
    /// is treated as 1.
    pub write_watermark: usize,
    /// Honour `{"op":"shutdown"}` from clients (off by default; meant
    /// for tests and supervised smoke runs).
    pub allow_remote_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            max_parked: 256,
            max_frame: DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            idle_timeout: None,
            max_connections: 1024,
            force_poll_backend: false,
            reactors: 1,
            write_watermark: 256 * 1024,
            allow_remote_shutdown: false,
        }
    }
}

/// State shared between the event loops, the workers and the handle.
pub(crate) struct Shared {
    pub(crate) dispatcher: Arc<Dispatcher>,
    pub(crate) config: ServerConfig,
    /// Transport-level gauges/counters, registered in the dispatcher's
    /// telemetry registry.
    pub(crate) metrics: NetMetrics,
    /// Live connection table feeding `/debug/conns` and the
    /// `server_debug` op.
    pub(crate) conns: ConnTable,
    /// Requests on their way from the event loops to the workers.
    pub(crate) jobs: JobQueue,
    local_addr: SocketAddr,
    shutdown: AtomicBool,
    /// One waker per event loop, so `trigger_shutdown` can interrupt
    /// every blocked poll immediately.
    #[cfg(unix)]
    wakers: std::sync::Mutex<Vec<Arc<crate::sys::Waker>>>,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flips the shutdown flag and wakes every event loop out of its
    /// poll.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        #[cfg(unix)]
        for waker in self.wakers.lock().expect("wakers").iter() {
            waker.wake();
        }
    }

    /// Registers one event loop's waker (at spawn, before the loops
    /// start).
    #[cfg(unix)]
    pub(crate) fn add_waker(&self, waker: Arc<crate::sys::Waker>) {
        self.wakers.lock().expect("wakers").push(waker);
    }
}

/// A request's dispatch, run once by a worker thread.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// The one queue between the event loops and the workers: a bounded
/// FIFO of [`Job`]s. A loop never blocks on it — a full queue hands the
/// job back and the loop answers the request `overloaded` itself — while
/// workers block in [`JobQueue::pop`]. Its length is mirrored into the
/// `pclabel_net_parked_jobs` gauge under the queue's lock.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
    depth: Arc<Gauge>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    /// An open queue holding at most `capacity` jobs.
    pub(crate) fn new(capacity: usize, depth: Arc<Gauge>) -> JobQueue {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
            depth,
        }
    }

    /// Queues `job` behind every job already waiting, or hands it back
    /// when `capacity` jobs wait or the queue is closed.
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().expect("job queue lock");
        if state.closed || state.jobs.len() >= self.capacity {
            return Err(job);
        }
        state.jobs.push_back(job);
        self.depth.set(state.jobs.len() as u64);
        self.ready.notify_one();
        Ok(())
    }

    /// The oldest waiting job, blocking while there is none; `None` once
    /// the queue is closed and empty.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("job queue lock");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.depth.set(state.jobs.len() as u64);
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("job queue lock");
        }
    }

    /// Refuses every later push; the jobs already waiting still run.
    pub(crate) fn close(&self) {
        self.state.lock().expect("job queue lock").closed = true;
        self.ready.notify_all();
    }

    /// Jobs waiting for a worker.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("job queue lock").jobs.len()
    }
}

/// The network front end (namespace for [`NetServer::spawn`]).
pub struct NetServer;

impl NetServer {
    /// Binds `config.addr`, spawns the worker threads and the event
    /// loops, and returns a handle. All connections dispatch through the
    /// shared `dispatcher`. Fails with [`io::ErrorKind::Unsupported`] on
    /// targets without the readiness syscalls (anything but Unix).
    #[cfg(unix)]
    pub fn spawn(dispatcher: Arc<Dispatcher>, config: ServerConfig) -> io::Result<ServerHandle> {
        let mut config = config;
        config.max_frame = config.max_frame.min(MAX_FRAME_CEILING);
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let metrics = NetMetrics::register(dispatcher.telemetry().registry());
        metrics.reactors.set(config.reactors.max(1) as u64);
        let capacity = config
            .queue_capacity
            .max(1)
            .saturating_add(config.reactors.max(1).saturating_mul(config.max_parked));
        let jobs = JobQueue::new(capacity, Arc::clone(&metrics.parked_jobs));
        let mut handle = ServerHandle {
            shared: Arc::new(Shared {
                dispatcher,
                config,
                metrics,
                conns: ConnTable::default(),
                jobs,
                local_addr,
                shutdown: AtomicBool::new(false),
                wakers: std::sync::Mutex::new(Vec::new()),
            }),
            loops: Vec::new(),
            workers: Vec::new(),
        };
        // On an early return the handle's drop closes the queue and
        // joins whatever was spawned.
        for i in 0..handle.shared.config.workers.max(1) {
            let shared = Arc::clone(&handle.shared);
            handle.workers.push(
                std::thread::Builder::new()
                    .name(format!("pclabel-net-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.jobs.pop() {
                            job();
                        }
                    })?,
            );
        }
        handle.loops = crate::reactor::spawn(Arc::clone(&handle.shared), listener)?;
        Ok(handle)
    }

    /// Always [`io::ErrorKind::Unsupported`]: without Unix there are no
    /// readiness syscalls to run the event loops on.
    #[cfg(not(unix))]
    pub fn spawn(dispatcher: Arc<Dispatcher>, config: ServerConfig) -> io::Result<ServerHandle> {
        let _ = (dispatcher, config);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "pclabel-net needs epoll or poll(2), which only Unix targets provide",
        ))
    }
}

/// Owner handle for a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    /// Every event-loop thread.
    loops: Vec<JoinHandle<()>>,
    /// Every worker thread.
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Initiates graceful shutdown and blocks until the event loops and
    /// all workers have exited.
    pub fn shutdown(mut self) {
        self.shared.trigger_shutdown();
        self.join();
    }

    /// Blocks until the server stops on its own (remote shutdown op or
    /// a fatal poller failure). Used by `pclabel-netd`'s main thread.
    pub fn wait(mut self) {
        self.join();
    }

    fn join(&mut self) {
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
        // No loop is left to queue a job: the workers run what still
        // waits, then find the queue closed and exit.
        self.shared.jobs.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.trigger_shutdown();
        self.join();
    }
}

/// `true` if the connection's first four bytes look like an HTTP/1.x
/// request line (the protocol sniff).
pub(crate) fn is_http_prefix(bytes: &[u8; 4]) -> bool {
    matches!(
        bytes,
        b"GET " | b"POST" | b"PUT " | b"HEAD" | b"DELE" | b"OPTI" | b"PATC" | b"TRAC" | b"CONN"
    )
}

/// A response on its way to the wire.
pub(crate) enum Reply {
    /// The text of a `query` batch answered on the typed path.
    Text(String),
    /// A response object.
    Json(Json),
}

impl Reply {
    /// The response's JSON text.
    pub(crate) fn into_text(self) -> String {
        match self {
            Reply::Text(text) => text,
            Reply::Json(response) => response.to_string(),
        }
    }
}

/// One raw request line: the typed `query` path
/// ([`Dispatcher::answer_query_line`]) when the line has its shape,
/// otherwise parse, then [`process_request`]. Returns the response and
/// whether a (permitted) shutdown was requested.
pub(crate) fn process_line(line: &str, shared: &Shared) -> (Reply, bool) {
    match shared.dispatcher.answer_query_line(line) {
        Some(Ok(text)) => return (Reply::Text(text), false),
        Some(Err(response)) => return (Reply::Json(response), false),
        None => {}
    }
    let request = match Json::parse(line) {
        // Re-dispatching the unparsable line yields the dispatcher's own
        // error shape, keeping transports byte-identical with the
        // stdin/stdout loop.
        Err(_) => return (Reply::Json(shared.dispatcher.dispatch_line(line)), false),
        Ok(v) => v,
    };
    let (response, shutdown) = process_request(&request, shared);
    (Reply::Json(response), shutdown)
}

/// One parsed request: the shared post-parse dispatch path for both
/// transports (the HTTP adapter calls it directly with the body it
/// already parsed). Returns the response and whether a (permitted)
/// shutdown was requested.
pub(crate) fn process_request(request: &Json, shared: &Shared) -> (Json, bool) {
    if request.get("op").and_then(Json::as_str) == Some("shutdown") {
        if shared.config.allow_remote_shutdown {
            shared.trigger_shutdown();
            return (
                Json::obj([("ok", Json::Bool(true)), ("op", Json::str("shutdown"))]),
                true,
            );
        }
        return (
            Json::obj([
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::str("shutdown is not enabled (--allow-remote-shutdown)"),
                ),
                ("op", Json::str("shutdown")),
            ]),
            false,
        );
    }
    if request.get("op").and_then(Json::as_str) == Some("server_debug") {
        // Served at the transport layer, like `/metrics` over HTTP:
        // inspection must not perturb the request counters and traces
        // it reports, and only this layer can see the connection table.
        return (server_debug_response(request, shared), false);
    }
    (shared.dispatcher.dispatch(request), false)
}

/// The `server_debug` op response: the dispatcher's traces + memory +
/// uptime sections with the transport's live connection table appended.
pub(crate) fn server_debug_response(request: &Json, shared: &Shared) -> Json {
    let mut response = shared.dispatcher.server_debug_json(request);
    if response.get("ok") == Some(&Json::Bool(true)) {
        if let Json::Obj(members) = &mut response {
            members.push(("conns".to_string(), conns_json(shared)));
        }
    }
    response
}

/// The live connection-table snapshot served by `GET /debug/conns` and
/// embedded in `server_debug` responses. Reads only per-connection
/// atomics plus the table's admit/close mutex — never the event loop —
/// so a scrape cannot stall serving.
pub(crate) fn conns_json(shared: &Shared) -> Json {
    let rows = shared.conns.snapshot();
    let open = rows.len();
    let rows: Vec<Json> = rows
        .into_iter()
        .map(|row| {
            // The deadline that applies depends on what the connection
            // is doing; dispatching requests have no transport deadline.
            let deadline = match row.state {
                ConnState::Dispatching => None,
                ConnState::Writing => shared.config.write_timeout,
                ConnState::Reading => shared.config.read_timeout,
                ConnState::Idle | ConnState::Sniffing => shared.config.idle_timeout,
            };
            let slack = deadline.map(|d| d.as_secs_f64() - row.since_activity.as_secs_f64());
            Json::obj([
                ("id", Json::num(row.id as f64)),
                ("peer", Json::str(row.peer)),
                ("protocol", Json::str(row.protocol)),
                ("state", Json::str(row.state.name())),
                ("age_seconds", Json::num(row.age.as_secs_f64())),
                ("idle_seconds", Json::num(row.since_activity.as_secs_f64())),
                (
                    "deadline_slack_seconds",
                    slack.map(Json::num).unwrap_or(Json::Null),
                ),
                ("bytes_in", Json::num(row.bytes_in as f64)),
                ("bytes_out", Json::num(row.bytes_out as f64)),
                ("requests", Json::num(row.requests as f64)),
                ("buffered_bytes", Json::num(row.buffered as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("ok", Json::Bool(true)),
        ("op", Json::str("server_debug")),
        ("section", Json::str("conns")),
        ("reactors", Json::num(shared.config.reactors.max(1) as f64)),
        ("open", Json::num(open as f64)),
        ("queue_depth", Json::num(shared.jobs.len() as f64)),
        ("conns", Json::Arr(rows)),
    ])
}

/// The framed-protocol error body for an oversized request frame.
pub(crate) fn oversize_error_json(len: u32, max: u32) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::str(format!(
                "frame of {len} bytes exceeds maximum of {max} bytes"
            )),
        ),
    ])
}

/// The error body for a framed request payload that is not valid UTF-8.
pub(crate) fn utf8_error_json() -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::str("request is not valid UTF-8")),
    ])
}

/// The error body for a request refused because the dispatch queue is
/// full (`ServerConfig::max_parked`). Served as a framed error or an
/// HTTP 429; the connection stays usable — overload is transient and the
/// stream is still in sync.
pub(crate) fn overloaded_error_json() -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::str("overloaded")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclabel_telemetry::Registry;

    /// A queue of `capacity` and the gauge its depth is mirrored into.
    fn queue(capacity: usize) -> (Arc<JobQueue>, Arc<Gauge>) {
        let depth = Registry::new().gauge("depth", "Jobs waiting.", &[]);
        (Arc::new(JobQueue::new(capacity, Arc::clone(&depth))), depth)
    }

    /// A job that records `id` in `log` when it runs.
    fn logged(log: &Arc<Mutex<Vec<usize>>>, id: usize) -> Job {
        let log = Arc::clone(log);
        Box::new(move || log.lock().unwrap().push(id))
    }

    #[test]
    fn every_job_runs_once() {
        // Four workers behind a two-slot queue: the producer is handed
        // jobs back while the queue is full, yet each job runs once.
        let (queue, _) = queue(2);
        let workers: Vec<JoinHandle<()>> = (0..4)
            .map(|_| {
                let queue = Arc::clone(&queue);
                std::thread::spawn(move || {
                    while let Some(job) = queue.pop() {
                        job();
                    }
                })
            })
            .collect();
        let log = Arc::new(Mutex::new(Vec::new()));
        for id in 0..200 {
            let mut job = logged(&log, id);
            while let Err(back) = queue.try_push(job) {
                std::thread::yield_now();
                job = back;
            }
        }
        queue.close();
        for worker in workers {
            worker.join().unwrap();
        }
        let mut ran = log.lock().unwrap().clone();
        ran.sort_unstable();
        assert_eq!(ran, (0..200).collect::<Vec<_>>());
    }

    /// The event loop answers the introspection plane itself: with the one
    /// worker held by a gate job and the one queue slot taken by a filler,
    /// scrapes still answer 200 and nothing is counted as refused.
    #[cfg(unix)]
    #[test]
    fn a_full_queue_still_answers_metrics_and_debug_scrapes() {
        use crate::client::HttpClient;
        use std::sync::mpsc;

        let dispatcher = Arc::new(Dispatcher::default());
        let config = ServerConfig {
            workers: 1,
            queue_capacity: 1,
            max_parked: 0,
            ..ServerConfig::default()
        };
        let server = NetServer::spawn(Arc::clone(&dispatcher), config).unwrap();
        let refused =
            (dispatcher.telemetry().registry()).counter("pclabel_net_overloaded_total", "", &[]);
        // Dropped on every exit, so the worker is never left on the gate.
        let (open, gate) = mpsc::channel::<()>();
        let (started_tx, started) = mpsc::channel();
        let jobs = &server.shared.jobs;
        let held = jobs.try_push(Box::new(move || {
            started_tx.send(()).unwrap();
            let _ = gate.recv();
        }));
        assert!(held.is_ok());
        started.recv().unwrap();
        assert!(jobs.try_push(Box::new(|| {})).is_ok(), "the filler waits");
        assert!(jobs.try_push(Box::new(|| {})).is_err(), "the queue is full");

        let mut http = HttpClient::connect(server.local_addr()).unwrap();
        for (method, path) in [
            ("GET", "/metrics"),
            ("GET", "/debug/conns"),
            ("HEAD", "/metrics"),
        ] {
            let response = http.request(method, path, None).unwrap();
            assert_eq!(response.status, 200, "{method} {path}: {}", response.body);
        }
        assert_eq!(refused.get(), 0);
        drop(open);
        server.shutdown();
    }

    #[test]
    fn a_full_queue_hands_the_job_back_and_the_rest_run_in_order() {
        let (queue, depth) = queue(2);
        let log = Arc::new(Mutex::new(Vec::new()));
        assert!(queue.try_push(logged(&log, 0)).is_ok());
        assert!(queue.try_push(logged(&log, 1)).is_ok());
        assert_eq!((queue.len(), depth.get()), (2, 2));
        // No worker took anything: the third job comes back whole.
        queue
            .try_push(logged(&log, 2))
            .expect_err("a full queue took a job")();
        queue.pop().expect("a waiting job")();
        assert_eq!((queue.len(), depth.get()), (1, 1));
        queue.close();
        assert!(queue.try_push(logged(&log, 3)).is_err(), "closed");
        // What waited before the close still runs; then the queue ends.
        queue.pop().expect("a waiting job")();
        assert!(queue.pop().is_none());
        assert_eq!((queue.len(), depth.get()), (0, 0));
        assert_eq!(*log.lock().unwrap(), [2, 0, 1]);
    }
}
