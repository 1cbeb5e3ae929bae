//! A minimal HTTP/1.1 adapter over the shared dispatcher.
//!
//! Routes:
//!
//! * `GET /healthz` — liveness probe (the dispatcher's `health` op);
//! * `GET /stats?dataset=NAME` — per-dataset stats; without a `dataset`
//!   parameter this degrades to the `list` op;
//! * `GET /metrics` — the telemetry registry in Prometheus text format
//!   (`text/plain; version=0.0.4`). Served at the route level without
//!   dispatching, so a scrape never perturbs the request counters it
//!   reports;
//! * `GET /debug/traces?op=NAME&slowest=1&id=N`, `GET /debug/memory`,
//!   `GET /debug/conns` — the introspection plane: retained request
//!   traces, per-component memory accounting and the live connection
//!   table. Served at the route level without dispatching, like
//!   `/metrics`, so inspection never perturbs what it reports. The event
//!   loop answers `/metrics` and `/debug/*` itself instead of queueing
//!   them for a worker, so a full dispatch queue never refuses a scrape;
//! * `HEAD` on any of the GET routes — identical status line and
//!   headers (including the `Content-Length` the GET would carry), no
//!   body;
//! * `POST /query`, `POST /register`, `POST /append_rows`,
//!   `POST /refresh`, `POST /drop`, `POST /estimate_multi`, … — the JSON
//!   body is the protocol request;
//!   the op implied by the path is injected when the body omits `"op"`
//!   (and a mismatch is rejected);
//! * `POST /` — generic dispatch; the body must carry `"op"` itself.
//!
//! Bodies are exactly the serve-protocol JSON objects, so an HTTP client
//! and a framed-TCP client receive byte-identical payloads. Successful
//! dispatches return `200 OK`; dispatches answering `"ok": false` return
//! `400 Bad Request` with the same JSON body; transport-level failures
//! (unknown path, bad framing, oversized body) use conventional 4xx
//! codes with a JSON error body of the same shape.
//!
//! Bodied requests are framed by `Content-Length` or by
//! `Transfer-Encoding: chunked` (decoded incrementally by
//! `ChunkedDecoder`; chunk extensions are ignored and trailers
//! tolerated); other transfer-codings are rejected with 501, and a
//! request carrying both framings with 400 and a closed connection.
//! Connections are keep-alive per HTTP/1.1 defaults. Every `Connection`
//! field is read as one comma-separated token list, compared token by
//! token and case-insensitively: a `close` token in any of them — or any
//! transport error — ends the connection, and a `keep-alive` token keeps
//! an HTTP/1.0 one. `Expect` is read the same way for `100-continue`.

use pclabel_engine::json::Json;

use crate::server::{process_line, process_request, Reply, Shared};

/// Total byte cap on the request line + headers of one request.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The interim response for `Expect: 100-continue` requests.
pub(crate) const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// One parsed request.
pub(crate) struct Request {
    pub(crate) method: String,
    pub(crate) target: String,
    pub(crate) version: String,
    /// Header names lowercased.
    pub(crate) headers: Vec<(String, String)>,
    pub(crate) body: Vec<u8>,
}

impl Request {
    /// The tokens of every `name` field joined as one comma-separated
    /// list (RFC 9110 §5.3), trimmed.
    fn tokens<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.headers
            .iter()
            .filter(move |(k, _)| k == name)
            .flat_map(|(_, v)| v.split(','))
            .map(str::trim)
    }

    /// Whether the `name` list holds `token`, compared case-insensitively.
    fn has_token(&self, name: &str, token: &str) -> bool {
        self.tokens(name).any(|t| t.eq_ignore_ascii_case(token))
    }

    /// Whether the connection survives this exchange: a `close` token in
    /// any `Connection` field ends it (RFC 9110 §7.6.1), and otherwise
    /// HTTP/1.1 keeps it, as does a `keep-alive` token on HTTP/1.0.
    pub(crate) fn keep_alive(&self) -> bool {
        if self.has_token("connection", "close") {
            return false;
        }
        self.version == "HTTP/1.1" || self.has_token("connection", "keep-alive")
    }

    /// Whether an `Expect` field holds the `100-continue` token.
    pub(crate) fn expects_continue(&self) -> bool {
        self.has_token("expect", "100-continue")
    }
}

/// Parses a request head (everything before the `\r\n\r\n`, already
/// UTF-8-checked) into a body-less [`Request`]. Errors are
/// `(status, message)` pairs for the error response.
pub(crate) fn parse_head(head: &str) -> Result<Request, (u16, &'static str)> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err((400, "malformed request line"));
    };
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err((400, "malformed header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        version: version.to_string(),
        headers,
        body: Vec::new(),
    })
}

/// How a request's body is delimited on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BodyFraming {
    /// A fixed `Content-Length` (0 when the header is absent).
    Length(usize),
    /// `Transfer-Encoding: chunked`, decoded incrementally by
    /// [`ChunkedDecoder`].
    Chunked,
}

/// The declared body framing of `request`. Every `Transfer-Encoding`
/// field joins one comma-separated list of codings (RFC 9110 §5.3), and
/// only a sole `chunked` frames a body: any other list is a 501. A
/// request that also carries `Content-Length` is a 400 (RFC 9112 §6.1),
/// whose response closes the connection. Every `Content-Length` header
/// must be `1*DIGIT`, and repeated ones must agree.
pub(crate) fn body_framing(request: &Request) -> Result<BodyFraming, (u16, &'static str)> {
    let mut codings = request.tokens("transfer-encoding");
    if let Some(first) = codings.next() {
        if !first.eq_ignore_ascii_case("chunked") || codings.next().is_some() {
            return Err((501, "transfer-encoding is not supported"));
        }
        if request.tokens("content-length").next().is_some() {
            return Err((400, "both Transfer-Encoding and Content-Length"));
        }
        return Ok(BodyFraming::Chunked);
    }
    let mut length = None;
    let lengths = request
        .headers
        .iter()
        .filter(|(k, _)| k == "content-length");
    for (_, value) in lengths {
        let n = parse_digits(value, 10).ok_or((400, "invalid Content-Length"))?;
        if length.is_some_and(|seen| seen != n) {
            return Err((400, "conflicting Content-Length headers"));
        }
        length = Some(n);
    }
    Ok(BodyFraming::Length(length.unwrap_or(0)))
}

/// `digits` as a number in `radix`, accepting that radix's digits only:
/// Rust's integer parsers also take a leading `+`, which RFC 9112's
/// `1*DIGIT` and `1*HEXDIG` do not.
fn parse_digits(digits: &str, radix: u32) -> Option<usize> {
    if digits.is_empty() || !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    usize::from_str_radix(digits, radix).ok()
}

/// Longest tolerated chunk-size line (hex size + optional extensions).
const MAX_CHUNK_LINE: usize = 1024;

enum ChunkState {
    /// Expecting a `SIZE[;ext]\r\n` line.
    SizeLine,
    /// Inside a chunk's data, `remaining` bytes still owed.
    Data {
        remaining: usize,
    },
    /// Expecting the `\r\n` that terminates a chunk's data.
    DataCrlf,
    /// After the `0\r\n` chunk: tolerate trailer lines until a blank
    /// line; `seen` caps their total size.
    Trailers {
        seen: usize,
    },
    Done,
}

/// Incremental `Transfer-Encoding: chunked` decoder. Feed it raw bytes
/// as they arrive; it consumes what it can from the front of the buffer
/// and accumulates the decoded body, so the raw buffer never holds more
/// than one partial chunk's worth of unconsumed bytes.
pub(crate) struct ChunkedDecoder {
    state: ChunkState,
    body: Vec<u8>,
    /// Decoded-body cap (the frame/body size limit); exceeding it is a
    /// 413, reported before the offending chunk's data is buffered.
    max: usize,
}

impl ChunkedDecoder {
    pub(crate) fn new(max: usize) -> ChunkedDecoder {
        ChunkedDecoder {
            state: ChunkState::SizeLine,
            body: Vec::new(),
            max,
        }
    }

    /// The decoded body, once [`ChunkedDecoder::decode`] returned
    /// `Ok(true)`.
    pub(crate) fn into_body(self) -> Vec<u8> {
        self.body
    }

    /// Bytes decoded so far.
    #[cfg(test)]
    pub(crate) fn decoded_len(&self) -> usize {
        self.body.len()
    }

    /// Consumes as much of `buf` as possible. `Ok(true)` = the body is
    /// complete (trailers included); `Ok(false)` = more bytes needed;
    /// `Err` = protocol error or body-too-large, `(status, message)`
    /// shaped like every other transport error. Errors are terminal —
    /// with an indeterminate stream position the connection must close.
    pub(crate) fn decode(&mut self, buf: &mut Vec<u8>) -> Result<bool, (u16, &'static str)> {
        let mut pos = 0usize;
        let result = loop {
            match self.state {
                ChunkState::Done => break Ok(true),
                ChunkState::SizeLine => {
                    let Some(rel) = find_subsequence(&buf[pos..], b"\r\n") else {
                        if buf.len() - pos > MAX_CHUNK_LINE {
                            break Err((400, "chunk size line too long"));
                        }
                        break Ok(false);
                    };
                    if rel > MAX_CHUNK_LINE {
                        break Err((400, "chunk size line too long"));
                    }
                    let line = &buf[pos..pos + rel];
                    // Chunk extensions (`;name=value`) are ignored.
                    let size_part = line.split(|&b| b == b';').next().unwrap_or(&[]);
                    let size = std::str::from_utf8(size_part)
                        .ok()
                        .and_then(|s| parse_digits(s.trim(), 16));
                    let Some(size) = size else {
                        break Err((400, "invalid chunk size"));
                    };
                    pos += rel + 2;
                    if size == 0 {
                        self.state = ChunkState::Trailers { seen: 0 };
                    } else if self.body.len().saturating_add(size) > self.max {
                        break Err((413, "request body exceeds the frame size limit"));
                    } else {
                        self.state = ChunkState::Data { remaining: size };
                    }
                }
                ChunkState::Data { remaining } => {
                    let take = (buf.len() - pos).min(remaining);
                    self.body.extend_from_slice(&buf[pos..pos + take]);
                    pos += take;
                    if take == remaining {
                        self.state = ChunkState::DataCrlf;
                    } else {
                        self.state = ChunkState::Data {
                            remaining: remaining - take,
                        };
                        break Ok(false);
                    }
                }
                ChunkState::DataCrlf => {
                    if buf.len() - pos < 2 {
                        break Ok(false);
                    }
                    if &buf[pos..pos + 2] != b"\r\n" {
                        break Err((400, "chunk data is not CRLF-terminated"));
                    }
                    pos += 2;
                    self.state = ChunkState::SizeLine;
                }
                ChunkState::Trailers { seen } => {
                    let Some(rel) = find_subsequence(&buf[pos..], b"\r\n") else {
                        if seen + (buf.len() - pos) > MAX_HEAD_BYTES {
                            break Err((431, "trailers too large"));
                        }
                        break Ok(false);
                    };
                    pos += rel + 2;
                    if rel == 0 {
                        self.state = ChunkState::Done;
                        break Ok(true);
                    }
                    let seen = seen + rel + 2;
                    if seen > MAX_HEAD_BYTES {
                        break Err((431, "trailers too large"));
                    }
                    // Trailer fields are tolerated and discarded.
                    self.state = ChunkState::Trailers { seen };
                }
            }
        };
        buf.drain(..pos);
        result
    }
}

pub(crate) fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Serialises one complete JSON response (head + body) for the paths
/// that answer without routing: transport errors and overload refusals.
pub(crate) fn response_bytes(status: u16, body: &str, keep_alive: bool) -> Vec<u8> {
    routed_bytes(&Routed::json(status, body.to_string(), false), keep_alive)
}

/// One routed response before serialisation. `head_only` (a `HEAD`
/// request) keeps the body for its `Content-Length` header but does not
/// put it on the wire.
pub(crate) struct Routed {
    pub(crate) status: u16,
    pub(crate) body: String,
    pub(crate) content_type: &'static str,
    pub(crate) head_only: bool,
    pub(crate) shutdown: bool,
}

impl Routed {
    fn json(status: u16, body: String, shutdown: bool) -> Routed {
        Routed {
            status,
            body,
            content_type: "application/json",
            head_only: false,
            shutdown,
        }
    }
}

/// Serialises a routed response.
pub(crate) fn routed_bytes(routed: &Routed, keep_alive: bool) -> Vec<u8> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        routed.status,
        reason(routed.status),
        routed.content_type,
        routed.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut bytes = head.into_bytes();
    if !routed.head_only {
        bytes.extend_from_slice(routed.body.as_bytes());
    }
    bytes
}

pub(crate) fn error_body(message: &str) -> String {
    Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message))]).to_string()
}

/// Splits a request target into path and decoded `(key, value)` query
/// parameters.
fn split_target(target: &str) -> (&str, Vec<(String, String)>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let params = query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect();
    (path, params)
}

/// Minimal percent-decoding (`%XX` and `+` → space); invalid escapes are
/// kept verbatim.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b {
        Some(b @ b'0'..=b'9') => Some(b - b'0'),
        Some(b @ b'a'..=b'f') => Some(b - b'a' + 10),
        Some(b @ b'A'..=b'F') => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Whether `request` reads the introspection plane: `GET` or `HEAD` of
/// `/metrics` or a `/debug/*` path, which the event loop answers itself.
pub(crate) fn is_introspection(request: &Request) -> bool {
    let path = request.target.split('?').next().unwrap_or("");
    matches!(request.method.as_str(), "GET" | "HEAD")
        && (path == "/metrics" || path.starts_with("/debug/"))
}

/// Routes one request.
pub(crate) fn route(request: &Request, shared: &Shared) -> Routed {
    let (path, params) = split_target(&request.target);
    let mut routed = match (request.method.as_str(), path) {
        ("GET" | "HEAD", "/healthz") => {
            let response = shared.dispatcher.dispatch_line("{\"op\":\"health\"}");
            // Read-only degraded mode answers 503 so load balancers and
            // probes fail writes over, while the JSON body still carries
            // the root cause and recovery progress.
            let degraded = response.get("status") == Some(&Json::str("degraded"));
            Routed::json(
                if degraded { 503 } else { 200 },
                response.to_string(),
                false,
            )
        }
        ("GET" | "HEAD", "/stats") => {
            let op = match params.iter().find(|(k, _)| k == "dataset") {
                Some((_, name)) => Json::obj([
                    ("op", Json::str("stats")),
                    ("dataset", Json::str(name.clone())),
                ]),
                None => Json::obj([("op", Json::str("list"))]),
            };
            let response = shared.dispatcher.dispatch(&op);
            let ok = response.get("ok") == Some(&Json::Bool(true));
            Routed::json(if ok { 200 } else { 400 }, response.to_string(), false)
        }
        // Served without dispatching: a scrape must not perturb the
        // request counters it reports.
        ("GET" | "HEAD", "/metrics") => Routed {
            status: 200,
            body: shared.dispatcher.metrics_text(),
            content_type: "text/plain; version=0.0.4",
            head_only: false,
            shutdown: false,
        },
        // The rest of the introspection plane, also served without
        // dispatching: retained traces, deep memory accounting and the
        // live connection table.
        ("GET" | "HEAD", "/debug/traces") => {
            let op = params
                .iter()
                .find(|(k, _)| k == "op")
                .map(|(_, v)| v.as_str())
                .filter(|v| !v.is_empty());
            let slowest = params
                .iter()
                .find(|(k, _)| k == "slowest")
                .is_some_and(|(_, v)| v != "0" && v != "false");
            let id = params
                .iter()
                .find(|(k, _)| k == "id")
                .and_then(|(_, v)| v.parse::<u64>().ok());
            let response = shared.dispatcher.debug_traces_json(op, slowest, id);
            let ok = response.get("ok") == Some(&Json::Bool(true));
            Routed::json(if ok { 200 } else { 400 }, response.to_string(), false)
        }
        ("GET" | "HEAD", "/debug/memory") => Routed::json(
            200,
            shared.dispatcher.debug_memory_json().to_string(),
            false,
        ),
        ("GET" | "HEAD", "/debug/conns") => {
            Routed::json(200, crate::server::conns_json(shared).to_string(), false)
        }
        ("POST", path) => 'post: {
            let Ok(body) = std::str::from_utf8(&request.body) else {
                break 'post Routed::json(
                    400,
                    error_body("request body is not valid UTF-8"),
                    false,
                );
            };
            let (reply, shutdown) = match implied_op(path) {
                None if path == "/" => process_line(body, shared),
                None => {
                    break 'post Routed::json(
                        404,
                        error_body(&format!("unknown path {path:?}")),
                        false,
                    )
                }
                Some(op) => match inject_op(body, op) {
                    Ok(request) => {
                        let (response, shutdown) = process_request(&request, shared);
                        (Reply::Json(response), shutdown)
                    }
                    Err(message) => break 'post Routed::json(400, error_body(&message), false),
                },
            };
            let status = match &reply {
                // The typed path writes only answered batches.
                Reply::Text(_) => 200,
                Reply::Json(response) => {
                    let ok = response.get("ok") == Some(&Json::Bool(true));
                    // Mutations rejected by read-only degraded mode are a
                    // server-side condition, not a bad request: 503, so
                    // clients and proxies know to retry after recovery.
                    let degraded = !ok && response.get("error") == Some(&Json::str("degraded"));
                    if ok {
                        200
                    } else if degraded {
                        503
                    } else {
                        400
                    }
                }
            };
            Routed::json(status, reply.into_text(), shutdown)
        }
        ("GET" | "HEAD", path) => {
            Routed::json(404, error_body(&format!("unknown path {path:?}")), false)
        }
        (method, _) => Routed::json(
            405,
            error_body(&format!("method {method:?} is not supported")),
            false,
        ),
    };
    routed.head_only = request.method == "HEAD";
    routed
}

/// The protocol op implied by a `POST /<op>` path, if any.
fn implied_op(path: &str) -> Option<&str> {
    match path.strip_prefix('/') {
        Some(
            op @ ("register" | "query" | "estimate_multi" | "append_rows" | "refresh" | "stats"
            | "list" | "health" | "drop" | "shutdown" | "server_stats" | "server_debug"),
        ) => Some(op),
        _ => None,
    }
}

/// Ensures the body's `"op"` matches the path-implied one, injecting it
/// when absent. Returns the parsed request object to dispatch.
fn inject_op(body: &str, op: &str) -> Result<Json, String> {
    // An empty body is allowed for body-less ops (`GET`-like POSTs).
    let parsed = if body.trim().is_empty() {
        Json::Obj(Vec::new())
    } else {
        match Json::parse(body) {
            Ok(v) => v,
            Err(e) => return Err(format!("invalid JSON: {e}")),
        }
    };
    let Json::Obj(mut members) = parsed else {
        return Err("request body must be a JSON object".to_string());
    };
    match members
        .iter()
        .find(|(k, _)| k == "op")
        .map(|(_, v)| v.clone())
    {
        Some(existing) => {
            if existing.as_str() != Some(op) {
                return Err(format!(
                    "body op {existing} does not match the path-implied op {op:?}"
                ));
            }
        }
        None => members.insert(0, ("op".to_string(), Json::str(op))),
    }
    Ok(Json::Obj(members))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_splitting_and_percent_decoding() {
        let (path, params) = split_target("/stats?dataset=my%20set&x=a+b&flag");
        assert_eq!(path, "/stats");
        assert_eq!(
            params,
            vec![
                ("dataset".to_string(), "my set".to_string()),
                ("x".to_string(), "a b".to_string()),
                ("flag".to_string(), String::new()),
            ]
        );
        assert_eq!(percent_decode("100%25"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz"); // invalid escape kept
        assert_eq!(percent_decode("trailing%2"), "trailing%2");
    }

    #[test]
    fn op_injection_rules() {
        assert_eq!(
            inject_op("{\"dataset\":\"d\"}", "stats")
                .unwrap()
                .to_string(),
            "{\"op\":\"stats\",\"dataset\":\"d\"}"
        );
        assert_eq!(
            inject_op("{\"op\":\"stats\",\"dataset\":\"d\"}", "stats")
                .unwrap()
                .to_string(),
            "{\"op\":\"stats\",\"dataset\":\"d\"}"
        );
        assert_eq!(
            inject_op("", "list").unwrap().to_string(),
            "{\"op\":\"list\"}"
        );
        assert!(inject_op("{\"op\":\"drop\"}", "stats").is_err());
        assert!(inject_op("[1,2]", "stats").is_err());
        assert!(inject_op("{broken", "stats").is_err());
    }

    /// Feeds `wire` to a decoder in `step`-byte slices, asserting the
    /// decoded body.
    fn decode_in_steps(
        wire: &[u8],
        step: usize,
        max: usize,
    ) -> Result<Vec<u8>, (u16, &'static str)> {
        let mut decoder = ChunkedDecoder::new(max);
        let mut buf = Vec::new();
        for piece in wire.chunks(step) {
            buf.extend_from_slice(piece);
            if decoder.decode(&mut buf)? {
                assert!(buf.is_empty(), "decoder left bytes after completion");
                return Ok(decoder.into_body());
            }
        }
        panic!("decoder never completed on {wire:?}");
    }

    #[test]
    fn chunked_decoder_handles_incremental_feeds() {
        let wire = b"4\r\nWiki\r\n5\r\npedia\r\nE\r\n in\r\n\r\nchunks.\r\n0\r\n\r\n";
        // Whole-buffer and every pathological split down to 1 byte.
        for step in [wire.len(), 7, 3, 2, 1] {
            assert_eq!(
                decode_in_steps(wire, step, 1 << 20).unwrap(),
                b"Wikipedia in\r\n\r\nchunks.",
                "step {step}"
            );
        }
    }

    #[test]
    fn chunked_decoder_ignores_extensions_and_tolerates_trailers() {
        let wire = b"5;ext=\"a;b\"\r\nhello\r\n0;last\r\nTrailer-One: x\r\nTrailer-Two: y\r\n\r\n";
        for step in [wire.len(), 1] {
            assert_eq!(decode_in_steps(wire, step, 1 << 20).unwrap(), b"hello");
        }
        // Uppercase hex and a sole-chunked TE header survive trimming.
        assert_eq!(
            decode_in_steps(b"A\r\n0123456789\r\n0\r\n\r\n", 1, 64)
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn chunked_decoder_leaves_pipelined_bytes_alone() {
        let mut decoder = ChunkedDecoder::new(64);
        let mut buf = b"3\r\nabc\r\n0\r\n\r\nGET /next".to_vec();
        assert!(decoder.decode(&mut buf).unwrap());
        assert_eq!(decoder.into_body(), b"abc");
        assert_eq!(buf, b"GET /next");
    }

    #[test]
    fn chunked_decoder_rejects_oversize_and_garbage() {
        // A chunk whose declared size alone busts the cap fails fast,
        // before any of its data arrives.
        let mut decoder = ChunkedDecoder::new(8);
        let mut buf = b"FF\r\n".to_vec();
        assert_eq!(
            decoder.decode(&mut buf).unwrap_err(),
            (413, "request body exceeds the frame size limit")
        );
        // Accumulation across chunks is capped too.
        let mut decoder = ChunkedDecoder::new(8);
        let mut buf = b"6\r\nsixsix\r\n6\r\nsixsix\r\n0\r\n\r\n".to_vec();
        assert_eq!(decoder.decode(&mut buf).unwrap_err().0, 413);
        // Non-hex sizes, missing CRLF after data, and runaway size
        // lines are 400s.
        for size in ["zz", "+a", "-0", " ", "0x5"] {
            let mut decoder = ChunkedDecoder::new(64);
            assert_eq!(
                decoder
                    .decode(&mut format!("{size}\r\n").into_bytes())
                    .unwrap_err(),
                (400, "invalid chunk size"),
                "size {size:?}"
            );
        }
        let mut decoder = ChunkedDecoder::new(64);
        assert_eq!(
            decoder.decode(&mut b"3\r\nabcXY".to_vec()).unwrap_err(),
            (400, "chunk data is not CRLF-terminated")
        );
        let mut decoder = ChunkedDecoder::new(64);
        let mut runaway = vec![b'1'; MAX_CHUNK_LINE + 2];
        assert_eq!(
            decoder.decode(&mut runaway).unwrap_err(),
            (400, "chunk size line too long")
        );
    }

    #[test]
    fn chunked_decoder_caps_trailers() {
        let mut decoder = ChunkedDecoder::new(64);
        let mut buf = b"0\r\n".to_vec();
        for _ in 0..MAX_HEAD_BYTES / 8 + 8 {
            buf.extend_from_slice(b"T: vvv\r\n");
        }
        assert_eq!(
            decoder.decode(&mut buf).unwrap_err(),
            (431, "trailers too large")
        );
    }

    /// A body-less `POST /` carrying `headers` (names already lowercased).
    fn request(version: &str, headers: &[(&str, &str)]) -> Request {
        Request {
            method: "POST".into(),
            target: "/".into(),
            version: version.into(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            body: Vec::new(),
        }
    }

    #[test]
    fn connection_and_expect_fields_are_token_lists() {
        let keep = |version: &str, headers: &[(&str, &str)]| request(version, headers).keep_alive();
        assert!(keep("HTTP/1.1", &[]));
        assert!(!keep("HTTP/1.0", &[]));
        // A `close` token in any field ends the connection, whatever the
        // field order, case or neighbours.
        for headers in [
            &[("connection", "close")][..],
            &[("connection", "Keep-Alive, CLOSE")],
            &[("connection", "keep-alive"), ("connection", "close")],
            &[("connection", "Close"), ("connection", "keep-alive")],
            &[("connection", "upgrade"), ("connection", " cLoSe ")],
        ] {
            for version in ["HTTP/1.1", "HTTP/1.0"] {
                assert!(!keep(version, headers), "{version} {headers:?}");
            }
        }
        // `keep-alive` keeps an HTTP/1.0 connection from any field.
        for headers in [
            &[("connection", "keep-alive")][..],
            &[("connection", "Upgrade, KEEP-ALIVE")],
            &[("connection", "upgrade"), ("connection", "Keep-Alive")],
        ] {
            for version in ["HTTP/1.1", "HTTP/1.0"] {
                assert!(keep(version, headers), "{version} {headers:?}");
            }
        }
        // Whole tokens only: a longer token is neither.
        assert!(keep("HTTP/1.1", &[("connection", "closed")]));
        assert!(!keep("HTTP/1.0", &[("connection", "keep-alive-ish")]));

        let expects = |headers: &[(&str, &str)]| request("HTTP/1.1", headers).expects_continue();
        assert!(!expects(&[]));
        assert!(expects(&[("expect", "100-continue")]));
        assert!(expects(&[("expect", "100-Continue")]));
        assert!(expects(&[
            ("expect", "x-trace"),
            ("expect", "100-continue")
        ]));
        assert!(expects(&[
            ("expect", "100-continue"),
            ("expect", "x-trace")
        ]));
        assert!(expects(&[("expect", "x-trace, 100-CONTINUE")]));
        assert!(!expects(&[("expect", "x-100-continue")]));
    }

    #[test]
    fn body_framing_recognises_chunked_and_rejects_others() {
        let framed = |headers: &[(&str, &str)]| body_framing(&request("HTTP/1.1", headers));
        assert_eq!(framed(&[]), Ok(BodyFraming::Length(0)));
        assert_eq!(
            framed(&[("content-length", "12")]),
            Ok(BodyFraming::Length(12))
        );
        assert_eq!(
            framed(&[("transfer-encoding", "chunked")]),
            Ok(BodyFraming::Chunked)
        );
        assert_eq!(
            framed(&[("transfer-encoding", " Chunked ")]),
            Ok(BodyFraming::Chunked)
        );
        // Repeated fields are one list, and only a sole `chunked` frames
        // a body, however the codings are split across fields.
        for codings in [
            &[("transfer-encoding", "gzip, chunked")][..],
            &[("transfer-encoding", "chunked, gzip")],
            &[
                ("transfer-encoding", "chunked"),
                ("transfer-encoding", "gzip"),
            ],
            &[
                ("transfer-encoding", "gzip"),
                ("transfer-encoding", "chunked"),
            ],
            &[
                ("transfer-encoding", "chunked"),
                ("transfer-encoding", "chunked"),
            ],
            &[("transfer-encoding", "chunked,")],
        ] {
            assert_eq!(
                framed(codings),
                Err((501, "transfer-encoding is not supported")),
                "{codings:?}"
            );
        }
        // A chunked body with a Content-Length beside it is refused, in
        // either header order.
        for headers in [
            &[("transfer-encoding", "chunked"), ("content-length", "5")][..],
            &[("content-length", "5"), ("transfer-encoding", "chunked")],
        ] {
            assert_eq!(
                framed(headers),
                Err((400, "both Transfer-Encoding and Content-Length")),
                "{headers:?}"
            );
        }
        for value in ["nope", "+5", "-0", "", "5 5", "0x5"] {
            assert_eq!(
                framed(&[("content-length", value)]),
                Err((400, "invalid Content-Length")),
                "Content-Length {value:?}"
            );
        }
        // Repeated lengths must agree.
        assert_eq!(
            framed(&[("content-length", "007"), ("content-length", "7")]),
            Ok(BodyFraming::Length(7))
        );
        assert_eq!(
            framed(&[("content-length", "5"), ("content-length", "6")]),
            Err((400, "conflicting Content-Length headers"))
        );
        assert_eq!(
            framed(&[("content-length", "5"), ("content-length", "+5")]),
            Err((400, "invalid Content-Length"))
        );
    }

    #[test]
    fn implied_ops_cover_the_protocol() {
        for op in [
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
        ] {
            assert_eq!(implied_op(&format!("/{op}")), Some(op));
        }
        assert_eq!(implied_op("/"), None);
        assert_eq!(implied_op("/nope"), None);
    }
}
