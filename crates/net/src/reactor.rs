//! The connection model: N reactor threads each own a slice of the
//! connections as non-blocking state machines multiplexed over
//! [`crate::sys::Poller`] (epoll on Linux, `poll(2)` elsewhere).
//!
//! ## Why
//!
//! Workers are held per *request*, not per connection: connections cost
//! a file descriptor and a small buffer while idle, and only occupy a
//! worker for the duration of one dispatch, so any number of idle
//! keep-alive clients cannot starve a new one. One loop can still
//! bottleneck on parse/flush CPU, so
//! [`ServerConfig::reactors`](crate::server::ServerConfig) scales the
//! plane to N loops with private connection tables. There is one
//! accept path on both readiness backends: loop 0 owns the only
//! listener, accepts with std's `accept`, and deals the sockets
//! round-robin — itself included — through per-loop [`Mailbox`]es. All
//! loops feed the one bounded job queue in front of the workers, so
//! dispatch backpressure stays a process-wide property.
//!
//! ## Anatomy
//!
//! * [`Machine`] — the incremental protocol state machine:
//!   [`Machine::fill`] reads the socket straight into the connection's
//!   buffer, without zero-filling it, in whatever pieces the socket
//!   delivers, and the machine emits complete framed or HTTP requests —
//!   including incrementally decoded `Transfer-Encoding: chunked`
//!   bodies — with the [`crate::http`] adapter's head parser and chunked
//!   decoder. A body of known length (a frame's payload or a
//!   `Content-Length` body) is read up to its end and no further, and
//!   each read grows the buffer to at most twice its bytes plus 64 KiB,
//!   so a declared length alone reserves nothing near it. When the
//!   buffer holds exactly the body, the buffer itself travels to the
//!   worker; only bytes pipelined past a request cost a copy. Other
//!   input is read into at least 8 KiB of room.
//! * [`WriteQueue`] — responses are queued as byte *segments* and
//!   flushed with one vectored write (`writev`) per readiness, up to
//!   [`MAX_IOVECS`] segments a call, so a framed response ships its
//!   length prefix and payload without a concatenation copy.
//!   At [`ServerConfig::write_watermark`](crate::server::ServerConfig)
//!   queued bytes the loop stops *reading* from that connection until
//!   the peer drains its responses: per-connection memory is bounded by
//!   the watermark plus one read chunk, not by body size.
//! * Each loop — accepts, reads, and writes without ever blocking;
//!   fully-read requests are pushed onto the shared job queue
//!   (dispatch can be arbitrarily slow — it must not stall the loop),
//!   and finished responses come back through the loop's completion
//!   [`Mailbox`], whose pushes wake the loop's [`Waker`] pipe.
//! * Deadlines — each connection derives one deadline from its state
//!   (write-stalled → `write_timeout`, mid-request → `read_timeout`,
//!   idle → `idle_timeout`); the nearest deadline bounds the poll
//!   timeout and expired connections are aborted (or, for idle ones,
//!   quietly evicted).
//! * Connection cap —
//!   [`ServerConfig::max_connections`](crate::server::ServerConfig) is
//!   split evenly across the loops (remainder to loop 0); past a loop's
//!   budget, its least-recently-active *idle* connection is evicted to
//!   admit the newcomer; if every connection is mid-request, the
//!   newcomer is refused instead (bounded memory beats unbounded
//!   acceptance).
//! * Dispatch backpressure — the job queue is one FIFO of
//!   `queue_capacity + reactors × max_parked` requests
//!   ([`ServerConfig`](crate::server::ServerConfig)). A request that
//!   finds it full is answered immediately with HTTP `429` or a framed
//!   `{"ok":false,"error":"overloaded"}` and the connection stays open,
//!   so a worker stall bounds queued-request memory instead of growing
//!   it without limit.
//! * Graceful shutdown — every loop is woken, loop 0 closes the listener,
//!   idle and mid-read connections close immediately, and in-flight
//!   dispatches drain: their responses are still written before the
//!   loops exit. The server handle then closes the job queue and joins
//!   the workers.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::conntrack::{ConnState, ConnTrack};
use crate::frame::encode_frame;
use crate::http::{self, find_subsequence};
use crate::metrics::LoopMetrics;
use crate::server::{
    is_http_prefix, overloaded_error_json, oversize_error_json, process_line, utf8_error_json, Job,
    Reply, Shared,
};
use crate::sys::{Backend, Event, Interest, Poller, Waker};

// --- the protocol state machine --------------------------------------------

/// Which wire protocol a connection settled on (sniffed from its first
/// four bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protocol {
    Framed,
    Http,
}

/// What a request was too large for; decides the error response shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Oversize {
    /// A framed payload above `max_frame`: framed error + close.
    Frame {
        /// Declared payload length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// An HTTP body above `max_frame`: `413` + close.
    HttpBody,
}

enum MState {
    /// Waiting for the 4-byte prologue: a protocol sniff on the first
    /// one, a frame length on every later one.
    Prologue,
    /// Reading a framed payload of known length.
    FrameBody { len: usize },
    /// Accumulating an HTTP request head (until `\r\n\r\n`); `scanned`
    /// marks how far the terminator search has already looked.
    HttpHead { scanned: usize },
    /// Head parsed with `Expect: 100-continue` and the body still to
    /// come: emit the interim response once, then read the body.
    HttpContinue {
        head: http::Request,
        framing: http::BodyFraming,
    },
    /// Reading an HTTP body of known length.
    HttpBody {
        head: http::Request,
        content_length: usize,
    },
    /// Decoding a chunked HTTP body incrementally: the raw buffer only
    /// ever holds undecoded wire bytes, so an 8 MiB upload never sits
    /// in `buf` — decoded chunks move to the decoder as they complete.
    HttpChunked {
        head: http::Request,
        decoder: http::ChunkedDecoder,
    },
    /// Consuming an oversized payload before the error response goes
    /// out: closing a socket with unread data resets the connection and
    /// destroys the response in flight.
    Drain { remaining: u64, then: Oversize },
    /// A complete request was emitted and is dispatching/writing;
    /// requests are strictly sequential per connection, so no further
    /// bytes are interpreted until [`Machine::resume`].
    Paused,
    /// Terminal: an error response is being written, then close.
    Closed,
}

/// What [`Machine::next`] produced.
pub(crate) enum Step {
    /// Buffered bytes are exhausted; read more from the socket.
    NeedMore,
    /// One complete framed request payload.
    FramedRequest(Vec<u8>),
    /// One complete HTTP request (head + body).
    HttpRequest(Box<http::Request>),
    /// Write `HTTP/1.1 100 Continue` now, keep reading the body.
    SendContinue,
    /// An oversized payload finished draining: write the matching error
    /// response and close.
    Oversized(Oversize),
    /// Malformed HTTP: write this error response and close.
    HttpError { status: u16, message: &'static str },
}

/// The least room a read has when no body length is known: a prologue,
/// an HTTP head, a chunked body or a drain.
const READ_CHUNK: usize = 8 * 1024;

/// How far past twice its buffered bytes a body read may grow the
/// buffer: a peer that declares a large body gets room for it only as
/// fast as it sends it.
const BODY_SLACK: usize = 64 * 1024;

/// The incremental protocol state machine. [`Machine::fill`] reads the
/// socket's bytes, in whatever pieces it delivers them, into the
/// machine's buffer; [`Step`]s are pulled out with [`Machine::next`]. The
/// reader is any [`Read`], so partial-read behaviour is unit-testable
/// without sockets.
pub(crate) struct Machine {
    max_frame: u32,
    buf: Vec<u8>,
    protocol: Option<Protocol>,
    state: MState,
}

impl Machine {
    pub(crate) fn new(max_frame: u32) -> Machine {
        Machine {
            max_frame,
            buf: Vec::new(),
            protocol: None,
            state: MState::Prologue,
        }
    }

    /// Reads what `src` has ready straight into the buffer, without
    /// zero-filling it first. A body of known length (a frame payload or
    /// a `Content-Length` body) is read up to its end and no further, so a
    /// body that arrives alone fills the buffer exactly and
    /// [`Machine::next`] hands the buffer itself on. Its room grows with
    /// what arrived, to at most twice the buffered bytes plus
    /// [`BODY_SLACK`]: a length prefix alone reserves nothing near its
    /// declared length. Anything else is read into at least
    /// [`READ_CHUNK`] bytes of room.
    ///
    /// Returns the bytes appended and how the read ended: `Ok` with none
    /// appended is end of stream, and an error may follow appended bytes
    /// (most often `WouldBlock`, once the socket is drained).
    pub(crate) fn fill(&mut self, src: impl Read) -> (usize, io::Result<()>) {
        let have = self.buf.len();
        let rest = match self.state {
            MState::FrameBody { len } => len.saturating_sub(have),
            MState::HttpBody { content_length, .. } => content_length.saturating_sub(have),
            _ => 0,
        };
        let limit = if rest > 0 {
            let want = rest.min(have + BODY_SLACK);
            if self.buf.capacity() - have < want.min(READ_CHUNK) {
                self.buf.reserve_exact(want);
            }
            rest.min(self.buf.capacity() - have)
        } else {
            self.buf.reserve(READ_CHUNK);
            self.buf.capacity() - have
        };
        let result = src.take(limit as u64).read_to_end(&mut self.buf);
        (self.buf.len() - have, result.map(drop))
    }

    /// The first `len` buffered bytes as a vector of their own: the
    /// buffer itself when it holds exactly them, so a body read straight
    /// into it reaches the worker without a copy. Only bytes pipelined
    /// past the request make it a copy.
    fn take_front(&mut self, len: usize) -> Vec<u8> {
        if self.buf.len() == len {
            std::mem::take(&mut self.buf)
        } else {
            self.buf.drain(..len).collect()
        }
    }

    /// Raw bytes read off the socket but not yet consumed into a
    /// request; feeds the per-connection buffered-bytes accounting in
    /// `/debug/conns`.
    pub(crate) fn raw_buffered(&self) -> usize {
        self.buf.len()
    }

    /// `true` while a request is partially read: a stalled peer should
    /// be aborted on `read_timeout`, not treated as idle.
    pub(crate) fn has_partial(&self) -> bool {
        match self.state {
            MState::FrameBody { .. }
            | MState::HttpContinue { .. }
            | MState::HttpBody { .. }
            | MState::HttpChunked { .. }
            | MState::Drain { .. } => true,
            MState::Prologue | MState::HttpHead { .. } => !self.buf.is_empty(),
            MState::Paused | MState::Closed => false,
        }
    }

    pub(crate) fn is_paused(&self) -> bool {
        matches!(self.state, MState::Paused)
    }

    /// Gives up on an in-progress drain (the peer stalled): returns the
    /// pending oversize error so the caller can still send it.
    pub(crate) fn abandon_drain(&mut self) -> Option<Oversize> {
        if let MState::Drain { then, .. } = self.state {
            self.state = MState::Closed;
            return Some(then);
        }
        None
    }

    /// Re-arms the machine for the next request after a response was
    /// fully written (keep-alive).
    pub(crate) fn resume(&mut self) {
        debug_assert!(self.is_paused());
        // A large Content-Length body grows `buf` to the body size;
        // give the capacity back between requests so an idle keep-alive
        // connection does not pin its largest-ever request forever.
        if self.buf.capacity() > 64 * 1024 {
            self.buf.shrink_to(16 * 1024);
        }
        self.state = match self.protocol {
            Some(Protocol::Http) => MState::HttpHead { scanned: 0 },
            _ => MState::Prologue,
        };
    }

    /// Advances as far as the buffered bytes allow and reports the next
    /// action.
    pub(crate) fn next(&mut self) -> Step {
        loop {
            match std::mem::replace(&mut self.state, MState::Closed) {
                MState::Prologue => {
                    if self.buf.len() < 4 {
                        self.state = MState::Prologue;
                        return Step::NeedMore;
                    }
                    let first: [u8; 4] = self.buf[..4].try_into().expect("4 bytes");
                    if self.protocol.is_none() {
                        if is_http_prefix(&first) {
                            self.protocol = Some(Protocol::Http);
                            self.state = MState::HttpHead { scanned: 0 };
                            continue;
                        }
                        self.protocol = Some(Protocol::Framed);
                    }
                    self.buf.drain(..4);
                    let len = u32::from_be_bytes(first);
                    if len > self.max_frame {
                        self.state = MState::Drain {
                            remaining: u64::from(len),
                            then: Oversize::Frame {
                                len,
                                max: self.max_frame,
                            },
                        };
                        continue;
                    }
                    self.state = MState::FrameBody { len: len as usize };
                }
                MState::FrameBody { len } => {
                    if self.buf.len() < len {
                        self.state = MState::FrameBody { len };
                        return Step::NeedMore;
                    }
                    let payload = self.take_front(len);
                    self.state = MState::Paused;
                    return Step::FramedRequest(payload);
                }
                MState::HttpHead { scanned } => {
                    // Resume the terminator search where the last pass
                    // stopped (rewound 3 bytes in case `\r\n\r\n`
                    // straddles the old buffer end); rescanning from 0
                    // would make byte-at-a-time heads O(n²) on the one
                    // thread every connection shares.
                    let start = scanned.saturating_sub(3);
                    let Some(pos) =
                        find_subsequence(&self.buf[start..], b"\r\n\r\n").map(|p| p + start)
                    else {
                        if self.buf.len() > http::MAX_HEAD_BYTES {
                            return Step::HttpError {
                                status: 431,
                                message: "request head too large",
                            };
                        }
                        self.state = MState::HttpHead {
                            scanned: self.buf.len(),
                        };
                        return Step::NeedMore;
                    };
                    let Ok(head) = std::str::from_utf8(&self.buf[..pos]) else {
                        return Step::HttpError {
                            status: 400,
                            message: "request head is not valid UTF-8",
                        };
                    };
                    // Parse from the borrowed bytes first — `parse_head`
                    // returns an owned Request, so the head never needs
                    // its own copy — then drop it from the buffer.
                    let head = match http::parse_head(head) {
                        Ok(head) => head,
                        Err((status, message)) => return Step::HttpError { status, message },
                    };
                    self.buf.drain(..pos + 4);
                    let framing = match http::body_framing(&head) {
                        Ok(framing) => framing,
                        Err((status, message)) => return Step::HttpError { status, message },
                    };
                    match framing {
                        http::BodyFraming::Chunked => {
                            if head.expects_continue() {
                                // A chunked body's length is unknown, so
                                // unlike Content-Length it can never be
                                // "already buffered": the interim
                                // response always precedes it.
                                self.state = MState::HttpContinue { head, framing };
                                return Step::SendContinue;
                            }
                            self.state = MState::HttpChunked {
                                head,
                                decoder: http::ChunkedDecoder::new(self.max_frame as usize),
                            };
                        }
                        http::BodyFraming::Length(content_length) => {
                            if content_length > self.max_frame as usize {
                                let remaining =
                                    content_length.saturating_sub(self.buf.len()) as u64;
                                self.buf.clear();
                                self.state = MState::Drain {
                                    remaining,
                                    then: Oversize::HttpBody,
                                };
                                continue;
                            }
                            if head.expects_continue() && self.buf.len() < content_length {
                                self.state = MState::HttpContinue { head, framing };
                                return Step::SendContinue;
                            }
                            self.state = MState::HttpBody {
                                head,
                                content_length,
                            };
                        }
                    }
                }
                MState::HttpContinue { head, framing } => {
                    // The interim response was queued by the caller.
                    self.state = match framing {
                        http::BodyFraming::Length(content_length) => MState::HttpBody {
                            head,
                            content_length,
                        },
                        http::BodyFraming::Chunked => MState::HttpChunked {
                            head,
                            decoder: http::ChunkedDecoder::new(self.max_frame as usize),
                        },
                    };
                }
                MState::HttpBody {
                    mut head,
                    content_length,
                } => {
                    if self.buf.len() < content_length {
                        self.state = MState::HttpBody {
                            head,
                            content_length,
                        };
                        return Step::NeedMore;
                    }
                    head.body = self.take_front(content_length);
                    self.state = MState::Paused;
                    return Step::HttpRequest(Box::new(head));
                }
                MState::HttpChunked {
                    mut head,
                    mut decoder,
                } => {
                    match decoder.decode(&mut self.buf) {
                        Ok(true) => {
                            head.body = decoder.into_body();
                            self.state = MState::Paused;
                            return Step::HttpRequest(Box::new(head));
                        }
                        Ok(false) => {
                            self.state = MState::HttpChunked { head, decoder };
                            return Step::NeedMore;
                        }
                        // Terminal (bad framing, oversize body, huge
                        // trailers): the stream cannot be
                        // re-synchronised; error response, then close.
                        Err((status, message)) => return Step::HttpError { status, message },
                    }
                }
                MState::Drain { remaining, then } => {
                    let take = (self.buf.len() as u64).min(remaining) as usize;
                    self.buf.drain(..take);
                    let remaining = remaining - take as u64;
                    if remaining == 0 {
                        return Step::Oversized(then);
                    }
                    self.state = MState::Drain { remaining, then };
                    return Step::NeedMore;
                }
                MState::Paused => {
                    self.state = MState::Paused;
                    return Step::NeedMore;
                }
                MState::Closed => {
                    return Step::NeedMore;
                }
            }
        }
    }
}

// --- the vectored write queue ----------------------------------------------

/// Most segments handed to one vectored write. Every Unix guarantees an
/// `IOV_MAX` of at least 16; common systems allow 1024. 64 batches
/// enough segments per syscall without risking `EINVAL` anywhere.
pub(crate) const MAX_IOVECS: usize = 64;

/// Pending output as a queue of byte segments, flushed with gathered
/// writes. Responses are queued as the segments their producers already
/// own (a framed response is its 4-byte prefix plus the payload) and
/// stitched back together by `writev` — no concatenation copy, and a
/// partial write never loses its position.
pub(crate) struct WriteQueue {
    segs: VecDeque<Vec<u8>>,
    /// How far into `segs[0]` earlier flushes already got.
    front_pos: usize,
    /// Total unsent bytes across all segments.
    queued: usize,
}

impl WriteQueue {
    pub(crate) fn new() -> WriteQueue {
        WriteQueue {
            segs: VecDeque::new(),
            front_pos: 0,
            queued: 0,
        }
    }

    /// Queues one owned segment; empty segments are dropped.
    pub(crate) fn push(&mut self, seg: Vec<u8>) {
        if seg.is_empty() {
            return;
        }
        self.queued += seg.len();
        self.segs.push_back(seg);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.queued == 0
    }

    /// Unsent bytes currently queued (the backpressure watermark input).
    pub(crate) fn queued(&self) -> usize {
        self.queued
    }

    /// Writes as much as the sink accepts right now, gathering up to
    /// [`MAX_IOVECS`] segments per `write_vectored` call. Returns
    /// `(bytes_written, fully_drained)`; `fully_drained == false` means
    /// the sink would block (wait for writability).
    pub(crate) fn flush<W: Write>(&mut self, sink: &mut W) -> io::Result<(usize, bool)> {
        let mut total = 0usize;
        loop {
            if self.queued == 0 {
                return Ok((total, true));
            }
            let mut bufs = [IoSlice::new(&[]); MAX_IOVECS];
            let mut n = 0;
            for seg in self.segs.iter().take(MAX_IOVECS) {
                let from = if n == 0 { self.front_pos } else { 0 };
                bufs[n] = IoSlice::new(&seg[from..]);
                n += 1;
            }
            match sink.write_vectored(&bufs[..n]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    total += n;
                    self.advance(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok((total, false)),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Consumes `n` written bytes off the front of the queue, freeing
    /// fully-sent segments.
    fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.queued);
        self.queued -= n;
        while n > 0 {
            let front_len = self.segs[0].len() - self.front_pos;
            if n >= front_len {
                n -= front_len;
                self.segs.pop_front();
                self.front_pos = 0;
            } else {
                self.front_pos += n;
                n = 0;
            }
        }
    }
}

// --- the reactor ------------------------------------------------------------

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Upper bound on one poll sleep even with no deadlines: a lost wakeup
/// (which should never happen) degrades to 1 s of latency, not a hang.
const MAX_POLL: Duration = Duration::from_secs(1);

/// A finished dispatch travelling from a worker back to its loop.
/// The response rides as the segments the worker produced (prefix +
/// payload for framed; one segment for HTTP) and is reassembled by the
/// loop's `writev`.
struct Completion {
    token: u64,
    segs: Vec<Vec<u8>>,
    close: bool,
}

/// An accepted socket in transit from loop 0 to a peer loop.
type Accepted = (TcpStream, SocketAddr);

/// What other threads hand one event loop: sockets loop 0 accepted for
/// it, or the workers' finished dispatches. A push wakes the loop out of
/// its poll.
struct Mailbox<T> {
    items: Mutex<Vec<T>>,
    waker: Arc<Waker>,
}

impl<T> Mailbox<T> {
    fn new(waker: &Arc<Waker>) -> Arc<Mailbox<T>> {
        Arc::new(Mailbox {
            items: Mutex::new(Vec::new()),
            waker: Arc::clone(waker),
        })
    }

    fn push(&self, item: T) {
        self.items.lock().expect("mailbox lock").push(item);
        self.waker.wake();
    }

    fn take(&self) -> Vec<T> {
        std::mem::take(&mut *self.items.lock().expect("mailbox lock"))
    }

    fn is_empty(&self) -> bool {
        self.items.lock().expect("mailbox lock").is_empty()
    }
}

/// One owned connection.
struct Conn {
    stream: TcpStream,
    machine: Machine,
    out: WriteQueue,
    close_after_write: bool,
    /// A request is queued or at a worker; reads pause until its
    /// response.
    dispatching: bool,
    last_activity: Instant,
    interest: Interest,
    /// The `/debug/conns` entry; updates are relaxed atomics, so
    /// mirroring costs the loop nothing observable.
    track: Arc<ConnTrack>,
}

impl Conn {
    fn has_pending_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// Mirrors this connection's coarse state (sniffed protocol and
    /// buffered-byte count) into its conntrack entry for `/debug/conns`.
    fn mirror(&self) {
        if let Some(protocol) = self.machine.protocol {
            self.track.set_protocol(protocol == Protocol::Framed);
        }
        self.track
            .set_buffered((self.machine.raw_buffered() + self.out.queued()) as u64);
        let state = if self.dispatching {
            ConnState::Dispatching
        } else if self.has_pending_write() {
            ConnState::Writing
        } else if self.machine.has_partial() {
            ConnState::Reading
        } else if self.machine.protocol.is_none() {
            ConnState::Sniffing
        } else {
            ConnState::Idle
        };
        self.track.set_state(state);
    }

    /// Marks a request as handed to a worker. The table entry is
    /// mirrored before the job can run, so a `/debug/conns` scrape
    /// served by that very job sees its own connection dispatching.
    fn begin_dispatch(&mut self) {
        self.dispatching = true;
        self.track.inc_requests();
        self.mirror();
    }

    /// Idle = safe to evict: between requests with nothing in flight.
    fn is_idle(&self) -> bool {
        !self.dispatching && !self.has_pending_write() && !self.machine.has_partial()
    }

    /// The readiness this connection currently needs. Read interest
    /// drops while a dispatch is in flight, while closing, and — the
    /// backpressure half — while queued output sits at or above the
    /// write watermark (a peer that is not draining responses must not
    /// grow our memory); level-triggered polling re-reports buffered
    /// input the moment interest returns.
    fn wanted_interest(&self, watermark: usize) -> Interest {
        Interest {
            read: !self.dispatching && !self.close_after_write && self.out.queued() < watermark,
            write: self.has_pending_write(),
        }
    }

    /// When this connection should be given up on, given its state.
    fn deadline(
        &self,
        read_timeout: Option<Duration>,
        write_timeout: Option<Duration>,
        idle_timeout: Option<Duration>,
    ) -> Option<Instant> {
        if self.has_pending_write() {
            write_timeout.map(|t| self.last_activity + t)
        } else if self.dispatching {
            None // bounded by the dispatch itself
        } else if self.machine.has_partial() {
            read_timeout.map(|t| self.last_activity + t)
        } else {
            idle_timeout.map(|t| self.last_activity + t)
        }
    }

    fn queue_write(&mut self, bytes: Vec<u8>) {
        self.out.push(bytes);
    }
}

struct Reactor {
    shared: Arc<Shared>,
    loop_id: usize,
    poller: Poller,
    /// The one listener, on loop 0 until shutdown; its peers receive
    /// their sockets through their inbox instead.
    listener: Option<TcpListener>,
    waker: Arc<Waker>,
    /// Finished dispatches from the workers.
    completions: Arc<Mailbox<Completion>>,
    /// Loops ≥ 1: sockets loop 0 accepted for us.
    inbox: Option<Arc<Mailbox<Accepted>>>,
    /// Loop 0: the peers' inboxes, fed round-robin.
    peers: Vec<Arc<Mailbox<Accepted>>>,
    /// Round-robin cursor over `[self, peers...]`.
    rr: usize,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// This loop's slice of `max_connections`.
    budget: usize,
    loop_metrics: LoopMetrics,
}

/// Spawns the reactor loops, which share the job queue in `shared`.
/// Loop 0 accepts on `listener`, which must already be non-blocking, and
/// deals the sockets across every loop.
pub(crate) fn spawn(shared: Arc<Shared>, listener: TcpListener) -> io::Result<Vec<JoinHandle<()>>> {
    let n = shared.config.reactors.max(1);
    let max_conns = shared.config.max_connections.max(1);

    // Every loop gets a waker up front so `trigger_shutdown` can
    // interrupt all of them, and so loop 0 can poke a peer's inbox.
    let mut wakers = Vec::with_capacity(n);
    for _ in 0..n {
        let waker = Arc::new(Waker::new()?);
        shared.add_waker(Arc::clone(&waker));
        wakers.push(waker);
    }
    let inboxes: Vec<Arc<Mailbox<Accepted>>> = wakers[1..].iter().map(Mailbox::new).collect();

    let backend = if shared.config.force_poll_backend {
        Backend::Poll
    } else {
        Backend::Auto
    };
    // Loop 0 takes the listener; its peers get none.
    let mut listener = Some(listener);
    let mut reactors = Vec::with_capacity(n);
    for (loop_id, waker) in wakers.into_iter().enumerate() {
        let mut poller = Poller::with_backend(backend)?;
        let listener = listener.take();
        if let Some(listener) = &listener {
            poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        }
        poller.register(waker.read_fd(), WAKER_TOKEN, Interest::READ)?;
        // Split the connection cap evenly; loop 0 takes the remainder.
        let budget = (max_conns / n + if loop_id == 0 { max_conns % n } else { 0 }).max(1);
        let loop_metrics = LoopMetrics::register(shared.dispatcher.telemetry().registry(), loop_id);
        reactors.push(Reactor {
            shared: Arc::clone(&shared),
            loop_id,
            poller,
            listener,
            completions: Mailbox::new(&waker),
            waker,
            inbox: loop_id.checked_sub(1).map(|i| Arc::clone(&inboxes[i])),
            peers: if loop_id == 0 {
                inboxes.clone()
            } else {
                Vec::new()
            },
            rr: 0,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            budget,
            loop_metrics,
        });
    }
    let mut handles = Vec::with_capacity(n);
    for reactor in reactors {
        handles.push(
            std::thread::Builder::new()
                .name(format!("pclabel-net-reactor-{}", reactor.loop_id))
                .spawn(move || reactor.run())?,
        );
    }
    Ok(handles)
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut busy_since = Instant::now();
        loop {
            self.process_inbox();
            self.process_completions();
            self.expire_deadlines();
            if self.shared.shutting_down() {
                self.shed_for_drain();
                if self.drained() {
                    break;
                }
            }
            let timeout = self.next_timeout();
            // How long this wakeup kept the loop thread busy — the
            // latency every other ready connection on it waited through.
            self.loop_metrics
                .busy
                .observe(busy_since.elapsed().as_secs_f64());
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break; // fatal poller failure: drop everything
            }
            busy_since = Instant::now();
            // `events` is a local, so iterating it does not conflict
            // with the handlers' `&mut self`; the buffer (and its
            // capacity) is reused by the next wait.
            for &event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.waker.drain(),
                    token => self.conn_ready(token, event),
                }
            }
        }
    }

    /// No work can ever arrive again once shutdown has shed idle
    /// connections and this loop's in-flight pipeline is empty.
    fn drained(&self) -> bool {
        self.conns.is_empty()
            && self.completions.is_empty()
            && self.inbox.as_ref().is_none_or(|inbox| inbox.is_empty())
    }

    /// The nearest connection deadline, clamped to [0, MAX_POLL].
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let config = &self.shared.config;
        self.conns
            .values()
            .filter_map(|c| {
                c.deadline(
                    config.read_timeout,
                    config.write_timeout,
                    config.idle_timeout,
                )
            })
            .map(|deadline| deadline.saturating_duration_since(now))
            .min()
            .map_or(MAX_POLL, |d| d.min(MAX_POLL))
    }

    // --- accepting ---------------------------------------------------------

    /// Adopts sockets loop 0 accepted on this loop's behalf.
    fn process_inbox(&mut self) {
        let handed = match &self.inbox {
            Some(inbox) => inbox.take(),
            None => return,
        };
        for (stream, peer) in handed {
            self.admit(stream, peer);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // drop it: a blocking socket would stall the loop
                    }
                    self.shared.metrics.accepts.inc();
                    // Deal round-robin across [self, peers...] so the
                    // fleet stays balanced.
                    let target = self.rr % (self.peers.len() + 1);
                    self.rr = self.rr.wrapping_add(1);
                    if target == 0 {
                        self.admit(stream, peer);
                    } else {
                        self.peers[target - 1].push((stream, peer));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Persistent accept failure (EMFILE, aborted handshake):
                // the listener stays level-triggered-readable, so a bare
                // break would re-poll instantly and livelock the loop at
                // 100% CPU. Back off briefly — a bounded stall beats a
                // spin; connection I/O resumes right after.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(10));
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, peer: SocketAddr) {
        if self.shared.shutting_down() {
            return; // drop: no new work during drain
        }
        if self.conns.len() >= self.budget {
            // Evict the least-recently-active idle connection; if every
            // connection is mid-request, refuse the newcomer instead.
            let lru = self
                .conns
                .iter()
                .filter(|(_, c)| c.is_idle())
                .min_by_key(|(_, c)| c.last_activity)
                .map(|(&token, _)| token);
            match lru {
                Some(token) => {
                    self.shared.metrics.evictions.inc();
                    self.close(token);
                }
                None => return,
            }
        }
        // The accept made it non-blocking; only Nagle needs switching
        // off.
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        let conn = Conn {
            stream,
            machine: Machine::new(self.shared.config.max_frame),
            out: WriteQueue::new(),
            close_after_write: false,
            dispatching: false,
            last_activity: Instant::now(),
            interest: Interest::READ,
            track: self.shared.conns.register(peer.to_string()),
        };
        if self
            .poller
            .register(conn.stream.as_raw_fd(), token, Interest::READ)
            .is_ok()
        {
            self.conns.insert(token, conn);
            // Deltas, not `set`: the gauge sums every loop's slice.
            self.shared.metrics.open_connections.inc();
            self.loop_metrics
                .open_connections
                .set(self.conns.len() as u64);
        } else {
            self.shared.conns.deregister(conn.track.id());
        }
    }

    // --- per-connection readiness -------------------------------------------

    fn conn_ready(&mut self, token: u64, event: Event) {
        let Some(conn) = self.conns.get(&token) else {
            return; // already closed this batch
        };
        // A true hangup (ERR/HUP — both directions dead, unmaskable
        // under both backends) on a connection that is not reading
        // would otherwise be re-reported every iteration: close now.
        // Half-closes arrive as `readable` and take the EOF path below.
        if event.hangup && (conn.dispatching || conn.close_after_write) {
            // An in-flight dispatch's response is undeliverable; the
            // completion handler tolerates the missing connection.
            self.close(token);
            return;
        }
        if event.writable && conn.has_pending_write() {
            self.flush(token);
            // Reading pauses while responses are stuck (see read_ready);
            // now that the peer drained them, pipelined requests still
            // sitting in the machine's buffer can continue without
            // waiting for new bytes to arrive.
            if let Some(conn) = self.conns.get_mut(&token) {
                if !conn.dispatching
                    && !conn.close_after_write
                    && !conn.has_pending_write()
                    && !conn.machine.is_paused()
                    && conn.machine.has_partial()
                {
                    self.pump(token);
                }
            }
        }
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if event.readable || event.hangup {
            if conn.dispatching || conn.close_after_write {
                return; // not reading right now (interest excludes it)
            }
            self.read_ready(token);
        }
    }

    fn read_ready(&mut self, token: u64) {
        let watermark = self.shared.config.write_watermark.max(1);
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.out.queued() >= watermark {
                // The peer is not draining responses (a flood of
                // pipelined requests, or overload rejections that answer
                // without occupying a worker): stop consuming input so
                // buffered output stays bounded by the watermark plus
                // one read chunk. The interest update below drops read
                // interest until the queue drains.
                break;
            }
            let (read, result) = conn.machine.fill(&conn.stream);
            if read > 0 {
                conn.track.add_in(read as u64);
                conn.last_activity = Instant::now();
                self.pump(token);
                let Some(conn) = self.conns.get(&token) else {
                    return;
                };
                if conn.dispatching || conn.close_after_write {
                    break; // request in flight: stop consuming input
                }
            }
            match result {
                // EOF: between requests it is a clean close; inside one
                // it aborts.
                Ok(()) if read == 0 => {
                    self.close(token);
                    return;
                }
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.update_interest(token);
    }

    /// Runs the machine over buffered bytes until it needs more input,
    /// dispatches a request, or errors out. Overload rejections are
    /// handled *inside* this loop (queue the error, re-arm the machine,
    /// keep pumping): recursing through `flush` instead would nest one
    /// stack frame per pipelined request in the buffer, and a client can
    /// pipeline thousands of tiny requests into one read chunk.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.machine.next() {
                Step::NeedMore => break,
                Step::SendContinue => {
                    conn.queue_write(http::CONTINUE.to_vec());
                    continue;
                }
                Step::FramedRequest(payload) => {
                    if self.dispatch_framed(token, payload) {
                        break;
                    }
                    // Rejected (overload): the error response is queued
                    // and the connection is not dispatching; re-arm for
                    // the next buffered request.
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return;
                    };
                    conn.machine.resume();
                }
                Step::HttpRequest(request) => {
                    if self.dispatch_http(token, request) {
                        break;
                    }
                    let Some(conn) = self.conns.get_mut(&token) else {
                        return;
                    };
                    if conn.close_after_write {
                        break; // answered here without keep-alive: stop reading
                    }
                    conn.machine.resume();
                }
                Step::Oversized(oversize) => {
                    let bytes = oversize_response(oversize);
                    conn.queue_write(bytes);
                    conn.close_after_write = true;
                    break;
                }
                Step::HttpError { status, message } => {
                    let bytes = http::response_bytes(status, &http::error_body(message), false);
                    conn.queue_write(bytes);
                    conn.close_after_write = true;
                    break;
                }
            }
        }
        self.flush(token);
    }

    // --- dispatching --------------------------------------------------------

    /// `true` = the request reached the job queue; `false` = it was
    /// refused for overload and the framed error response is queued
    /// (the request was consumed, so the stream stays in sync and the
    /// connection stays usable — the caller re-arms and keeps pumping).
    fn dispatch_framed(&mut self, token: u64, payload: Vec<u8>) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        conn.begin_dispatch();
        let shared = Arc::clone(&self.shared);
        let completions = Arc::clone(&self.completions);
        let job: Job = Box::new(move || {
            let (reply, shutdown) = match std::str::from_utf8(&payload) {
                Ok(line) => process_line(line, &shared),
                Err(_) => (Reply::Json(utf8_error_json()), false),
            };
            // Responses are always sent whole, even above the request
            // cap: the server never truncates its own output. The length
            // prefix and payload travel as two segments stitched back
            // together by one `writev` on the loop, without a
            // concatenation copy. Past MAX_FRAME_CEILING (where
            // `encode_frame` would refuse), closing is all that is left.
            let body = reply.into_text().into_bytes();
            let (segs, broken) = match u32::try_from(body.len()) {
                Ok(len) if len <= crate::frame::MAX_FRAME_CEILING => {
                    (vec![len.to_be_bytes().to_vec(), body], false)
                }
                _ => (Vec::new(), true),
            };
            let close = shutdown || broken || shared.shutting_down();
            completions.push(Completion { token, segs, close });
        });
        if self.shared.jobs.try_push(job).is_ok() {
            return true;
        }
        // The job queue is full: answer the backpressure error ourselves.
        let bytes = encode_frame(
            overloaded_error_json().to_string().as_bytes(),
            crate::frame::MAX_FRAME_CEILING,
        )
        .expect("overload frame is tiny");
        self.shared.metrics.overloaded.inc();
        self.answer_here(token, bytes, false);
        false
    }

    /// Same contract as [`Reactor::dispatch_framed`], and `false` also
    /// when the loop answered itself: `GET`/`HEAD` of `/metrics` and
    /// `/debug/*` read no state a worker holds, so a full queue never
    /// refuses a scrape. A non-keep-alive answer sets `close_after_write`.
    fn dispatch_http(&mut self, token: u64, request: Box<http::Request>) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            return true;
        };
        conn.begin_dispatch();
        if http::is_introspection(&request) {
            let routed = http::route(&request, &self.shared);
            let keep_alive = request.keep_alive() && !self.shared.shutting_down();
            self.answer_here(token, http::routed_bytes(&routed, keep_alive), !keep_alive);
            return false;
        }
        // Captured before the job takes the request: the 429 path needs
        // to know whether this exchange would have kept the connection.
        let keep_alive_on_reject = request.keep_alive();
        let shared = Arc::clone(&self.shared);
        let completions = Arc::clone(&self.completions);
        let job: Job = Box::new(move || {
            let routed = http::route(&request, &shared);
            let keep_alive = request.keep_alive() && !routed.shutdown && !shared.shutting_down();
            let bytes = http::routed_bytes(&routed, keep_alive);
            completions.push(Completion {
                token,
                segs: vec![bytes],
                close: !keep_alive,
            });
        });
        if self.shared.jobs.try_push(job).is_ok() {
            return true;
        }
        let body = overloaded_error_json().to_string();
        let bytes = http::response_bytes(429, &body, keep_alive_on_reject);
        self.shared.metrics.overloaded.inc();
        self.answer_here(token, bytes, !keep_alive_on_reject);
        false
    }

    /// Queues the loop's own response to a request that never reached
    /// the job queue (a backpressure error or an introspection route).
    /// Deliberately does NOT flush or resume: the pump loop the request
    /// arrived under continues iteratively and flushes once at its end
    /// (no recursion per pipelined request).
    fn answer_here(&mut self, token: u64, bytes: Vec<u8>, close: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.dispatching = false;
        conn.close_after_write |= close;
        conn.queue_write(bytes);
        conn.last_activity = Instant::now();
    }

    fn process_completions(&mut self) {
        for completion in self.completions.take() {
            // The connection may be gone (write-timeout abort while its
            // dispatch ran): drop the orphaned response.
            let Some(conn) = self.conns.get_mut(&completion.token) else {
                continue;
            };
            conn.dispatching = false;
            conn.close_after_write |= completion.close;
            for seg in completion.segs {
                conn.out.push(seg);
            }
            conn.last_activity = Instant::now();
            self.flush(completion.token);
        }
    }

    // --- writing ------------------------------------------------------------

    /// Pushes pending output via `writev`; on completion either closes
    /// or re-arms the machine for the next (possibly already-buffered)
    /// request.
    fn flush(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.has_pending_write() {
            match conn.out.flush(&mut &conn.stream) {
                Ok((written, done)) => {
                    if written > 0 {
                        conn.track.add_out(written as u64);
                        conn.last_activity = Instant::now();
                    }
                    if !done {
                        self.update_interest(token);
                        return; // short write: wait for writability
                    }
                }
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_write && !conn.has_pending_write() {
            self.close(token);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.dispatching && conn.machine.is_paused() {
            // Response fully written: next request. Pipelined bytes may
            // already be buffered, so pump before waiting on the socket.
            conn.machine.resume();
            self.pump(token);
        }
        self.update_interest(token);
    }

    // --- deadlines & shutdown ----------------------------------------------

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let config = &self.shared.config;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter_map(|(&token, c)| {
                c.deadline(
                    config.read_timeout,
                    config.write_timeout,
                    config.idle_timeout,
                )
                .filter(|&deadline| now >= deadline)
                .map(|_| token)
            })
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            // A stalled oversize drain still gets its error response
            // (bounded by write_timeout); everything else is aborted.
            if let Some(oversize) = conn.machine.abandon_drain() {
                let bytes = oversize_response(oversize);
                conn.queue_write(bytes);
                conn.close_after_write = true;
                conn.last_activity = now;
                self.flush(token);
            } else {
                self.close(token);
            }
        }
    }

    /// On shutdown: close the listener and every connection that is not
    /// owed a response; dispatching/writing connections drain.
    fn shed_for_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        let doomed: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.dispatching && !c.has_pending_write())
            .map(|(&token, _)| token)
            .collect();
        for token in doomed {
            self.close(token);
        }
    }

    // --- bookkeeping --------------------------------------------------------

    fn update_interest(&mut self, token: u64) {
        let watermark = self.shared.config.write_watermark.max(1);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.mirror();
        let wanted = conn.wanted_interest(watermark);
        if wanted != conn.interest {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token, wanted).is_ok() {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.interest = wanted;
                }
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.shared.conns.deregister(conn.track.id());
            // Deltas, not `set`: the gauge sums every loop's slice.
            self.shared.metrics.open_connections.dec();
            self.loop_metrics
                .open_connections
                .set(self.conns.len() as u64);
            // `conn.stream` drops here, closing the socket.
        }
    }
}

/// The error response for an oversized request, per protocol.
fn oversize_response(oversize: Oversize) -> Vec<u8> {
    match oversize {
        Oversize::Frame { len, max } => encode_frame(
            oversize_error_json(len, max).to_string().as_bytes(),
            crate::frame::MAX_FRAME_CEILING,
        )
        .expect("error frame is tiny"),
        Oversize::HttpBody => http::response_bytes(
            413,
            &http::error_body("request body exceeds the frame size limit"),
            false,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl Machine {
        /// Reads all of `bytes`, as back-to-back socket reads would.
        fn push(&mut self, mut bytes: &[u8]) {
            while !bytes.is_empty() {
                self.fill(&mut bytes).1.expect("a slice reads");
            }
        }
    }

    /// A socket stand-in: deals `wire` out in seeded random pieces of
    /// 1 B to 256 KiB (log-uniform sizes), with `WouldBlock` between
    /// them and once it is used up.
    struct Pieces {
        wire: Vec<u8>,
        pos: usize,
        piece_end: usize,
        rng: StdRng,
    }

    impl Pieces {
        fn new(wire: Vec<u8>, seed: u64) -> Pieces {
            Pieces {
                wire,
                pos: 0,
                piece_end: 0,
                rng: StdRng::seed_from_u64(seed),
            }
        }

        fn done(&self) -> bool {
            self.pos == self.wire.len()
        }
    }

    impl Read for Pieces {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.pos == self.piece_end {
                let bits = self.rng.gen_range(0u32..=18);
                let size = self.rng.gen_range(1usize..=1 << bits);
                self.piece_end = (self.pos + size).min(self.wire.len());
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = out.len().min(self.piece_end - self.pos);
            out[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A step as text. A payload longer than 64 bytes shows as its length
    /// and an FNV-1a digest, so multi-megabyte requests compare without
    /// printing them.
    fn describe(step: Step) -> String {
        let shown = |bytes: &[u8]| {
            if bytes.len() <= 64 {
                return String::from_utf8_lossy(bytes).into_owned();
            }
            let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
            format!("{} bytes {hash:016x}", bytes.len())
        };
        match step {
            Step::NeedMore => unreachable!("not a step to describe"),
            Step::FramedRequest(payload) => format!("frame:{}", shown(&payload)),
            Step::HttpRequest(request) => format!(
                "http:{} {} body:{}",
                request.method,
                request.target,
                shown(&request.body)
            ),
            Step::SendContinue => "continue".to_string(),
            Step::Oversized(Oversize::Frame { len, max }) => format!("oversized-frame:{len}>{max}"),
            Step::Oversized(Oversize::HttpBody) => "oversized-http".to_string(),
            Step::HttpError { status, .. } => format!("http-error:{status}"),
        }
    }

    /// Every step `machine` yields until it needs more, resuming after
    /// each request.
    fn drain_steps(machine: &mut Machine, steps: &mut Vec<String>) {
        loop {
            let step = machine.next();
            let request = match step {
                Step::NeedMore => return,
                Step::FramedRequest(_) | Step::HttpRequest(_) => true,
                _ => false,
            };
            steps.push(describe(step));
            if request {
                machine.resume();
            }
        }
    }

    /// The steps of `wire` pushed into a fresh machine `chunk` bytes at
    /// a time.
    fn run_chunked(wire: &[u8], chunk: usize, max_frame: u32) -> Vec<String> {
        let mut machine = Machine::new(max_frame);
        let mut steps = Vec::new();
        for piece in wire.chunks(chunk.max(1)) {
            machine.push(piece);
            drain_steps(&mut machine, &mut steps);
        }
        steps
    }

    /// The steps of `wire` read through [`Machine::fill`] in seeded
    /// random pieces.
    fn piecewise_steps(wire: &[u8], max_frame: u32, seed: u64) -> Vec<String> {
        let mut machine = Machine::new(max_frame);
        let mut src = Pieces::new(wire.to_vec(), seed);
        let mut steps = Vec::new();
        loop {
            let (read, result) = machine.fill(&mut src);
            drain_steps(&mut machine, &mut steps);
            match result {
                // The body's end: read on.
                Ok(()) => assert!(read > 0, "a piece reader never ends its stream"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if read == 0 && src.done() {
                        return steps;
                    }
                }
                Err(e) => panic!("unexpected read error {e}"),
            }
        }
    }

    #[test]
    fn random_read_splits_yield_the_whole_wire_requests() {
        let mut framed = Vec::new();
        for len in [0usize, 5, 70 << 10, 3 << 20] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            framed.extend_from_slice(&encode_frame(&payload, u32::MAX >> 4).unwrap());
        }
        let body: Vec<u8> = (0..(200 << 10)).map(|i| b'a' + (i % 26) as u8).collect();
        let mut http = format!(
            "POST /register HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        http.extend_from_slice(&body);
        http.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        for (wire, requests) in [(framed, 4), (http, 2)] {
            let expected = run_chunked(&wire, wire.len(), 4 << 20);
            assert_eq!(expected.len(), requests, "{expected:?}");
            for seed in 0..12 {
                assert_eq!(
                    piecewise_steps(&wire, 4 << 20, seed),
                    expected,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn a_body_that_arrives_alone_is_handed_over_without_a_copy() {
        let payload = vec![7u8; 70 << 10];
        let framed = encode_frame(&payload, u32::MAX >> 4).unwrap();
        let head = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            payload.len()
        );
        let http = [head.as_bytes(), &payload].concat();
        for seed in 0..8 {
            for wire in [&framed, &http] {
                let mut machine = Machine::new(1 << 20);
                let mut src = Pieces::new(wire.clone(), seed);
                let (body, buffer) = loop {
                    let _ = machine.fill(&mut src);
                    let buffer = machine.buf.as_ptr();
                    match machine.next() {
                        Step::NeedMore => continue,
                        Step::FramedRequest(body) => break (body, buffer),
                        Step::HttpRequest(request) => break (request.body, buffer),
                        _ => panic!("unexpected step"),
                    }
                };
                assert_eq!(body, payload);
                assert_eq!(body.as_ptr(), buffer, "the body was copied (seed {seed})");
            }
        }
    }

    #[test]
    fn a_large_length_prefix_reserves_only_what_arrived() {
        let mut wire = (64u32 << 20).to_be_bytes().to_vec();
        wire.extend_from_slice(&[b'x'; 1024]);
        for seed in 0..16 {
            let mut machine = Machine::new(u32::MAX >> 4);
            let mut src = Pieces::new(wire.clone(), seed);
            while !src.done() {
                let _ = machine.fill(&mut src);
                assert!(matches!(machine.next(), Step::NeedMore));
            }
            assert_eq!(machine.raw_buffered(), 1024);
            let cap = machine.buf.capacity();
            assert!(
                cap <= (2 << 10) + (64 << 10),
                "capacity {cap} (seed {seed})"
            );
        }
    }

    // -- Machine: framed protocol, partial reads ----------------------------

    fn framed_wire(payloads: &[&str]) -> Vec<u8> {
        let mut wire = Vec::new();
        for p in payloads {
            wire.extend_from_slice(&encode_frame(p.as_bytes(), u32::MAX >> 4).unwrap());
        }
        wire
    }

    #[test]
    fn frame_split_across_wakeups_byte_at_a_time() {
        let wire = framed_wire(&[r#"{"op":"list"}"#, r#"{"op":"health"}"#]);
        // Every chunking of the same wire bytes yields the same requests.
        for chunk in [1, 2, 3, 5, wire.len()] {
            assert_eq!(
                run_chunked(&wire, chunk, 1 << 20),
                vec![
                    r#"frame:{"op":"list"}"#.to_string(),
                    r#"frame:{"op":"health"}"#.to_string()
                ],
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn frame_header_split_mid_length_prefix() {
        let wire = framed_wire(&["abc"]);
        let mut machine = Machine::new(1 << 20);
        machine.push(&wire[..2]); // half the length prefix
        assert!(matches!(machine.next(), Step::NeedMore));
        assert!(machine.has_partial(), "half a prefix counts as partial");
        machine.push(&wire[2..5]); // rest of prefix + 1 payload byte
        assert!(matches!(machine.next(), Step::NeedMore));
        assert!(machine.has_partial(), "mid-frame must count as partial");
        machine.push(&wire[5..]);
        match machine.next() {
            Step::FramedRequest(p) => assert_eq!(p, b"abc"),
            _ => panic!("expected a complete frame"),
        }
        assert!(machine.is_paused());
    }

    #[test]
    fn oversized_frame_drains_then_errors() {
        let mut wire = 100u32.to_be_bytes().to_vec();
        wire.extend_from_slice(&[0x55; 100]);
        let steps = run_chunked(&wire, 7, 10);
        assert_eq!(steps, vec!["oversized-frame:100>10".to_string()]);

        // Abandoning a stalled drain still yields the error.
        let mut machine = Machine::new(10);
        machine.push(&wire[..50]);
        assert!(matches!(machine.next(), Step::NeedMore));
        assert_eq!(
            machine.abandon_drain(),
            Some(Oversize::Frame { len: 100, max: 10 })
        );
    }

    // -- Machine: HTTP, partial reads ---------------------------------------

    #[test]
    fn http_request_delivered_one_byte_at_a_time() {
        let wire =
            b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        for chunk in [1usize, 3, wire.len()] {
            assert_eq!(
                run_chunked(wire, chunk, 1 << 20),
                vec![
                    "http:POST /query body:{\"a\":1}".to_string(),
                    "http:GET /healthz body:".to_string(),
                ],
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn http_expect_continue_interim_then_body() {
        let head =
            b"POST / HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n";
        let mut machine = Machine::new(1 << 20);
        machine.push(head);
        assert!(matches!(machine.next(), Step::SendContinue));
        assert!(matches!(machine.next(), Step::NeedMore));
        assert!(machine.has_partial());
        machine.push(b"ok");
        match machine.next() {
            Step::HttpRequest(r) => assert_eq!(r.body, b"ok"),
            _ => panic!("expected the buffered request"),
        }
        // Body already buffered with the head: no interim response.
        let mut machine = Machine::new(1 << 20);
        machine.push(head);
        machine.push(b"ok");
        assert!(matches!(machine.next(), Step::HttpRequest(_)));
    }

    // -- Machine: chunked transfer encoding ---------------------------------

    #[test]
    fn http_chunked_body_assembled_at_any_chunking() {
        let wire = b"POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n\
                     4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n\
                     GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
        for chunk in [1usize, 3, 7, wire.len()] {
            assert_eq!(
                run_chunked(wire, chunk, 1 << 20),
                vec![
                    "http:POST /query body:Wikipedia".to_string(),
                    "http:GET /healthz body:".to_string(),
                ],
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn http_chunked_expect_continue_always_interim_first() {
        // A chunked body has no length to pre-buffer, so the interim
        // response precedes it even when the whole body arrived with
        // the head.
        let wire = b"POST / HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n\
                     Transfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n";
        let mut machine = Machine::new(1 << 20);
        machine.push(wire);
        assert!(matches!(machine.next(), Step::SendContinue));
        match machine.next() {
            Step::HttpRequest(r) => assert_eq!(r.body, b"ok"),
            _ => panic!("expected the chunked request after the interim"),
        }
    }

    #[test]
    fn http_chunked_oversize_is_413_and_terminal() {
        // Declared chunk sizes exceeding max_frame fail at the size
        // line, before the data is buffered.
        let mut machine = Machine::new(8);
        machine.push(b"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n40\r\n");
        assert!(matches!(
            machine.next(),
            Step::HttpError { status: 413, .. }
        ));
        assert!(!machine.has_partial(), "terminal error: connection closes");
    }

    #[test]
    fn http_chunked_incremental_decode_keeps_raw_buffer_small() {
        // The raw buffer holds only undecoded wire bytes: decoded
        // chunks move out as they complete, so a big streamed body
        // never accumulates in `buf` the way a Content-Length body
        // must.
        let mut machine = Machine::new(1 << 20);
        machine.push(b"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(matches!(machine.next(), Step::NeedMore));
        let mut total = 0usize;
        for _ in 0..64 {
            machine.push(b"400\r\n");
            machine.push(&[b'z'; 0x400]);
            machine.push(b"\r\n");
            total += 0x400;
            assert!(matches!(machine.next(), Step::NeedMore));
            assert!(
                machine.raw_buffered() < 64,
                "decoded chunks must leave the raw buffer (len {})",
                machine.raw_buffered()
            );
        }
        machine.push(b"0\r\n\r\n");
        match machine.next() {
            Step::HttpRequest(r) => assert_eq!(r.body.len(), total),
            _ => panic!("expected the assembled chunked request"),
        }
    }

    #[test]
    fn http_malformed_and_oversized_requests() {
        // Missing parts of the request line.
        let mut machine = Machine::new(1 << 20);
        machine.push(b"GET \r\n\r\n");
        assert!(matches!(
            machine.next(),
            Step::HttpError { status: 400, .. }
        ));

        // Head too large.
        let mut machine = Machine::new(1 << 20);
        machine.push(b"GET / HTTP/1.1\r\n");
        machine.push(&vec![b'a'; http::MAX_HEAD_BYTES + 1]);
        assert!(matches!(
            machine.next(),
            Step::HttpError { status: 431, .. }
        ));

        // Framing numbers take digits only, and repeated lengths must
        // agree: a signed Content-Length or chunk size, or two lengths
        // that differ, is a 400.
        for wire in [
            &b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello"[..],
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n+5\r\nhello\r\n0\r\n\r\n",
        ] {
            let mut machine = Machine::new(1 << 20);
            machine.push(wire);
            assert!(
                matches!(machine.next(), Step::HttpError { status: 400, .. }),
                "{}",
                String::from_utf8_lossy(wire)
            );
        }

        // Transfer-encodings other than chunked are unimplemented.
        let mut machine = Machine::new(1 << 20);
        machine.push(b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n");
        assert!(matches!(
            machine.next(),
            Step::HttpError { status: 501, .. }
        ));

        // Body above the frame cap: drain the declared body, then 413.
        let mut machine = Machine::new(16);
        machine.push(b"POST / HTTP/1.1\r\nContent-Length: 40\r\n\r\n");
        machine.push(&[b'x'; 25]);
        assert!(matches!(machine.next(), Step::NeedMore));
        machine.push(&[b'x'; 15]);
        assert!(matches!(
            machine.next(),
            Step::Oversized(Oversize::HttpBody)
        ));
    }

    #[test]
    fn sniff_locks_the_protocol_once() {
        // Framed first: later prologues are lengths even if they look
        // like ASCII.
        let mut machine = Machine::new(1 << 20);
        let mut wire = framed_wire(&["x"]);
        wire.extend_from_slice(&5u32.to_be_bytes());
        wire.extend_from_slice(b"hello");
        machine.push(&wire);
        assert!(matches!(machine.next(), Step::FramedRequest(_)));
        machine.resume();
        match machine.next() {
            Step::FramedRequest(p) => assert_eq!(p, b"hello"),
            _ => panic!("second frame"),
        }
    }

    // -- write path: the vectored queue under short writes ------------------

    /// A sink that accepts at most `per_call` bytes per vectored write,
    /// then signals WouldBlock every other call — a worst-case slow peer.
    struct Throttled {
        accepted: Vec<u8>,
        per_call: usize,
        block_next: bool,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            assert!(
                bufs.len() <= MAX_IOVECS,
                "{} slices in one call",
                bufs.len()
            );
            if self.block_next {
                self.block_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "slow peer"));
            }
            self.block_next = true;
            let mut room = self.per_call;
            let mut written = 0usize;
            for buf in bufs {
                if room == 0 {
                    break;
                }
                let take = buf.len().min(room);
                self.accepted.extend_from_slice(&buf[..take]);
                written += take;
                room -= take;
            }
            Ok(written)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Drains `queue` through `sink`, simulating the reactor's
    /// wait-for-writability loop; panics if no progress is made.
    fn drain_queue(queue: &mut WriteQueue, sink: &mut Throttled) {
        let mut rounds = 0usize;
        loop {
            match queue.flush(sink).unwrap() {
                (_, true) => break,
                (_, false) => {
                    rounds += 1; // reactor would wait for writability here
                    assert!(rounds < 100_000, "no progress");
                }
            }
        }
    }

    #[test]
    fn short_writes_of_a_segmented_response_complete_incrementally() {
        let segments: Vec<Vec<u8>> = vec![
            (0..u8::MAX).cycle().take(4).collect(),
            (0..u8::MAX).cycle().take(5_000).collect(),
            vec![0xAB; 1],
            (0..u8::MAX).cycle().take(4_995).collect(),
        ];
        let expected: Vec<u8> = segments.iter().flatten().copied().collect();
        // Split at every size from 1 byte per call upward: covers
        // 1-byte writes, every iovec boundary, straddles, and whole-
        // queue writes.
        for per_call in [1usize, 3, 4, 5, 9, 333, 5_004, 10_000, 20_000] {
            let mut queue = WriteQueue::new();
            for seg in &segments {
                queue.push(seg.clone());
            }
            assert_eq!(queue.queued(), expected.len());
            let mut sink = Throttled {
                accepted: Vec::new(),
                per_call,
                block_next: false,
            };
            drain_queue(&mut queue, &mut sink);
            assert_eq!(sink.accepted, expected, "per_call {per_call}");
            assert!(queue.is_empty());
            assert_eq!(queue.queued(), 0);
        }
    }

    #[test]
    fn writes_split_exactly_at_each_iovec_boundary() {
        let segments: Vec<Vec<u8>> = vec![vec![1; 4], vec![2; 7], vec![3; 2], vec![4; 11]];
        let expected: Vec<u8> = segments.iter().flatten().copied().collect();
        // per_call landing exactly on each segment boundary: the next
        // flush must start cleanly at the following segment.
        let mut boundary = 0usize;
        for seg in &segments[..segments.len() - 1] {
            boundary += seg.len();
            let mut queue = WriteQueue::new();
            for s in &segments {
                queue.push(s.clone());
            }
            let mut sink = Throttled {
                accepted: Vec::new(),
                per_call: boundary,
                block_next: false,
            };
            drain_queue(&mut queue, &mut sink);
            assert_eq!(sink.accepted, expected, "boundary {boundary}");
        }
    }

    #[test]
    fn framed_prefix_and_payload_segments_stitch_back_together() {
        // The two-segment framed completion must produce exactly the
        // bytes `encode_frame` would have — the replay diff depends on
        // it — even through 1-byte writes.
        let payload = br#"{"ok":true,"op":"list"}"#;
        let expected = encode_frame(payload, crate::frame::MAX_FRAME_CEILING).unwrap();
        let mut queue = WriteQueue::new();
        queue.push((payload.len() as u32).to_be_bytes().to_vec());
        queue.push(payload.to_vec());
        let mut sink = Throttled {
            accepted: Vec::new(),
            per_call: 1,
            block_next: false,
        };
        drain_queue(&mut queue, &mut sink);
        assert_eq!(sink.accepted, expected);
    }

    #[test]
    fn write_queue_batches_past_max_iovecs() {
        // More segments than one writev can gather: flush keeps going
        // in MAX_IOVECS batches within a single call.
        let mut queue = WriteQueue::new();
        for i in 0..(MAX_IOVECS * 2 + 10) {
            queue.push(vec![i as u8]);
        }
        let total = queue.queued();
        let mut sink = Throttled {
            accepted: Vec::new(),
            per_call: usize::MAX,
            block_next: false,
        };
        drain_queue(&mut queue, &mut sink);
        assert_eq!(sink.accepted.len(), total);
        assert!(queue.is_empty());
    }

    #[test]
    fn empty_segments_are_dropped_not_queued() {
        let mut queue = WriteQueue::new();
        queue.push(Vec::new());
        assert!(queue.is_empty());
        queue.push(b"ab".to_vec());
        queue.push(Vec::new());
        queue.push(b"cd".to_vec());
        assert_eq!(queue.queued(), 4);
        let mut sink = Throttled {
            accepted: Vec::new(),
            per_call: usize::MAX,
            block_next: false,
        };
        drain_queue(&mut queue, &mut sink);
        assert_eq!(sink.accepted, b"abcd");
    }

    #[test]
    fn write_zero_is_an_error_not_a_spin() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }

            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut queue = WriteQueue::new();
        queue.push(b"abc".to_vec());
        assert!(queue.flush(&mut Dead).is_err());
    }
}
