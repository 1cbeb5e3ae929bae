//! Blocking clients for both wire protocols.
//!
//! [`NetClient`] speaks the length-prefixed frame protocol over one
//! persistent connection — the integration tests, the concurrency
//! hammer and `engine_bench --net` all drive the server through it.
//! [`HttpClient`] is a persistent HTTP/1.1 client (keep-alive,
//! `Content-Length` framing) for exercising the HTTP adapter.
//! [`RetryingClient`] wraps `NetClient` with a [`RetryPolicy`]:
//! deadline-budgeted, seeded-jitter exponential backoff, reconnecting
//! transparently — with auto-retry restricted to what is provably safe
//! (idempotent ops after transport failures, any op after an explicit
//! `overloaded`/`degraded` rejection, which the server returns *without*
//! executing the request).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use pclabel_engine::json::{Json, JsonError};

use crate::frame::{read_frame, write_frame, FrameError, MAX_FRAME_CEILING};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Framing/transport failure.
    Frame(FrameError),
    /// The server closed the connection instead of responding.
    ServerClosed,
    /// The response payload was not UTF-8.
    Utf8,
    /// The response payload was not valid JSON.
    Json(JsonError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::ServerClosed => write!(f, "server closed the connection"),
            ClientError::Utf8 => write!(f, "response is not valid UTF-8"),
            ClientError::Json(e) => write!(f, "response is not valid JSON: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Frame(FrameError::Io(e))
    }
}

/// A blocking framed-TCP client: one request frame out, one response
/// frame back, over a persistent connection.
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects with 10-second read/write timeouts and Nagle disabled.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(NetClient { stream })
    }

    /// Overrides both socket timeouts (`None` blocks indefinitely).
    pub fn set_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Sends one raw request line and returns the raw response text.
    pub fn request_line(&mut self, line: &str) -> Result<String, ClientError> {
        write_frame(&mut self.stream, line.as_bytes(), MAX_FRAME_CEILING)?;
        let payload =
            read_frame(&mut self.stream, MAX_FRAME_CEILING)?.ok_or(ClientError::ServerClosed)?;
        String::from_utf8(payload).map_err(|_| ClientError::Utf8)
    }

    /// Sends one request object and parses the response.
    pub fn request(&mut self, request: &Json) -> Result<Json, ClientError> {
        let text = self.request_line(&request.to_string())?;
        Json::parse(&text).map_err(ClientError::Json)
    }
}

/// One parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// The body (decoded per `Content-Length`).
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A blocking, persistent HTTP/1.1 client (keep-alive by default).
pub struct HttpClient {
    stream: TcpStream,
    carry: Vec<u8>,
}

impl HttpClient {
    /// Connects with 10-second read/write timeouts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(HttpClient {
            stream,
            carry: Vec::new(),
        })
    }

    /// Issues one request and reads the response. `body = None` sends no
    /// `Content-Length`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: pclabel\r\n");
        if let Some(body) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        if let Some(body) = body {
            self.stream.write_all(body.as_bytes())?;
        }
        self.stream.flush()?;
        // A HEAD response declares the Content-Length its GET twin would
        // carry but sends no body bytes — reading them would hang.
        self.read_response(method.eq_ignore_ascii_case("HEAD"))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.carry.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self, head_only: bool) -> io::Result<HttpResponse> {
        let head_end = loop {
            if let Some(pos) = self
                .carry
                .windows(4)
                .position(|window| window == b"\r\n\r\n")
            {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8(self.carry[..head_end].to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
        self.carry.drain(..head_end + 4);

        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|line| {
                line.split_once(':')
                    .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            })
            .collect();
        let content_length = if head_only {
            0
        } else {
            headers
                .iter()
                .find(|(k, _)| k == "content-length")
                .and_then(|(_, v)| v.parse::<usize>().ok())
                .unwrap_or(0)
        };
        while self.carry.len() < content_length {
            self.fill()?;
        }
        let body_bytes: Vec<u8> = self.carry.drain(..content_length).collect();
        let body = String::from_utf8(body_bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
}

/// Client-side retry tuning. The schedule is a *pure function* of the
/// policy (seeded jitter, no wall clock sampled inside the planner), so
/// a given policy always produces the same backoff sequence — tests
/// assert the schedule exactly, and two clients with different seeds
/// decorrelate their retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum total attempts (first try included). 1 disables retry.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Total budget across all attempts and sleeps. A planned sleep is
    /// clamped so sleep-end never exceeds the deadline, and once the
    /// budget is spent no further retry is planned.
    pub deadline: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            deadline: Duration::from_secs(10),
            seed: 0x5eed_5eed_5eed_5eed,
        }
    }
}

impl RetryPolicy {
    /// Whether `op` is safe to auto-retry after a *transport* failure,
    /// where the client cannot know if the server executed the request.
    /// Read-only ops are; mutators (`register`, `append_rows`,
    /// `refresh`, `drop`) and `shutdown` are not — replaying a possibly
    /// applied `append_rows` would double rows. (An explicit
    /// `overloaded`/`degraded` *response* is different: the server
    /// answered without executing, so anything may retry.)
    pub fn is_idempotent(op: &str) -> bool {
        matches!(
            op,
            "query"
                | "estimate_multi"
                | "stats"
                | "list"
                | "health"
                | "server_stats"
                | "server_debug"
        )
    }

    /// Whether a parsed response is an explicit retry-me rejection:
    /// `{"ok":false,"error":"overloaded"|"degraded",...}`. Safe to retry
    /// for any op — the server refused before executing.
    pub fn response_retryable(response: &Json) -> bool {
        if response.get("ok") != Some(&Json::Bool(false)) {
            return false;
        }
        matches!(
            response.get("error").and_then(Json::as_str),
            Some("overloaded") | Some("degraded")
        )
    }

    /// The jittered backoff before retry number `attempt` (0-based):
    /// `base·2^attempt` capped at `max_backoff`, scaled to 50–100% by a
    /// splitmix64 draw over `(seed, attempt)` — deterministic per
    /// policy, decorrelated across seeds.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        let mut z = self
            .seed
            .wrapping_add((attempt as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let frac = (z % 1000) as f64 / 1000.0;
        exp.mul_f64(0.5 + frac / 2.0)
    }

    /// Plans the sleep before retry number `attempt` (0-based) given the
    /// time already `elapsed` since the first attempt started. `None`
    /// means give up: the attempt cap is reached or the deadline budget
    /// is already spent. A planned sleep is clamped to the remaining
    /// budget, so `elapsed + sleep` never exceeds `deadline`.
    pub fn next_delay(&self, attempt: u32, elapsed: Duration) -> Option<Duration> {
        if attempt + 1 >= self.max_attempts.max(1) || elapsed >= self.deadline {
            return None;
        }
        Some(self.backoff(attempt).min(self.deadline - elapsed))
    }
}

/// A framed-TCP client with transparent reconnect and policy-driven
/// retry — the degraded-mode-aware client the chaos harness drives.
pub struct RetryingClient {
    addr: String,
    policy: RetryPolicy,
    client: Option<NetClient>,
    retries: u64,
}

impl RetryingClient {
    /// Creates the client; the first connection is made lazily so a
    /// server mid-restart does not fail construction.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RetryingClient {
        RetryingClient {
            addr: addr.into(),
            policy,
            client: None,
            retries: 0,
        }
    }

    /// Retries performed across all requests so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn connected(&mut self) -> Result<&mut NetClient, ClientError> {
        if self.client.is_none() {
            self.client = Some(NetClient::connect(&self.addr)?);
        }
        Ok(self.client.as_mut().expect("client just set"))
    }

    /// Issues `request`, retrying per the policy. Explicit
    /// `overloaded`/`degraded` rejections are retried for any op; when
    /// the budget runs out the *last rejection* is returned as the
    /// response (callers see the typed error, not a transport failure).
    /// Transport errors drop the connection and are retried only for
    /// idempotent ops; otherwise they surface immediately.
    pub fn request(&mut self, request: &Json) -> Result<Json, ClientError> {
        let op = request
            .get("op")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let started = Instant::now();
        let mut attempt = 0u32;
        loop {
            let outcome = self.connected().and_then(|c| c.request(request));
            let delay = match &outcome {
                Ok(response) if RetryPolicy::response_retryable(response) => {
                    self.policy.next_delay(attempt, started.elapsed())
                }
                Ok(_) => return outcome,
                Err(_) => {
                    // The connection is suspect after any transport
                    // error; the next attempt reconnects.
                    self.client = None;
                    if RetryPolicy::is_idempotent(&op) {
                        self.policy.next_delay(attempt, started.elapsed())
                    } else {
                        None
                    }
                }
            };
            match delay {
                Some(delay) => {
                    std::thread::sleep(delay);
                    self.retries += 1;
                    attempt += 1;
                }
                None => return outcome,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_backoff_schedule_is_reproducible_and_jittered() {
        let policy = RetryPolicy::default();
        let again = RetryPolicy::default();
        let schedule: Vec<Duration> = (0..6).map(|i| policy.backoff(i)).collect();
        let replay: Vec<Duration> = (0..6).map(|i| again.backoff(i)).collect();
        assert_eq!(schedule, replay, "same policy must replay identically");

        // Each step stays inside [50%, 100%] of the capped exponential.
        for (i, &d) in schedule.iter().enumerate() {
            let exp = policy
                .base_backoff
                .saturating_mul(1 << i)
                .min(policy.max_backoff);
            assert!(
                d >= exp.mul_f64(0.5) && d <= exp,
                "step {i}: {d:?} vs {exp:?}"
            );
        }
        // A different seed decorrelates the schedule.
        let other = RetryPolicy {
            seed: 7,
            ..RetryPolicy::default()
        };
        let decorrelated: Vec<Duration> = (0..6).map(|i| other.backoff(i)).collect();
        assert_ne!(schedule, decorrelated);
        // The cap holds far out.
        assert!(policy.backoff(40) <= policy.max_backoff);
    }

    #[test]
    fn next_delay_respects_deadline_budget_exactly() {
        let policy = RetryPolicy {
            max_attempts: 100,
            base_backoff: Duration::from_millis(400),
            max_backoff: Duration::from_secs(2),
            deadline: Duration::from_millis(1000),
            seed: 42,
        };
        // Inside the budget: the sleep is clamped so sleep-end == the
        // deadline at most.
        let elapsed = Duration::from_millis(900);
        let delay = policy.next_delay(0, elapsed).expect("budget remains");
        assert!(elapsed + delay <= policy.deadline);
        assert_eq!(
            policy.next_delay(3, Duration::from_millis(999)),
            Some(policy.backoff(3).min(Duration::from_millis(1))),
        );
        // At (or past) the deadline: no retry, exactly.
        assert_eq!(policy.next_delay(0, Duration::from_millis(1000)), None);
        assert_eq!(policy.next_delay(0, Duration::from_millis(1001)), None);
        // Attempt cap: attempt numbers are 0-based, max_attempts counts
        // the first try.
        let two = RetryPolicy {
            max_attempts: 2,
            ..policy
        };
        assert!(two.next_delay(0, Duration::ZERO).is_some());
        assert_eq!(two.next_delay(1, Duration::ZERO), None);
        let one = RetryPolicy {
            max_attempts: 1,
            ..policy
        };
        assert_eq!(one.next_delay(0, Duration::ZERO), None);
    }

    #[test]
    fn transport_retry_is_denied_for_non_idempotent_ops() {
        for op in ["append_rows", "register", "refresh", "drop", "shutdown", ""] {
            assert!(
                !RetryPolicy::is_idempotent(op),
                "{op:?} must not auto-retry"
            );
        }
        for op in [
            "query",
            "estimate_multi",
            "stats",
            "list",
            "health",
            "server_stats",
        ] {
            assert!(RetryPolicy::is_idempotent(op), "{op:?} should auto-retry");
        }
        // A refused-without-executing rejection is retryable for any op.
        let degraded = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::str("degraded")),
            ("reason", Json::str("WAL fsync: No space left on device")),
        ]);
        assert!(RetryPolicy::response_retryable(&degraded));
        let overloaded = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::str("overloaded")),
        ]);
        assert!(RetryPolicy::response_retryable(&overloaded));
        // Ordinary errors and successes are not.
        let bad = Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::str("missing \"dataset\" field")),
        ]);
        assert!(!RetryPolicy::response_retryable(&bad));
        let ok = Json::obj([("ok", Json::Bool(true))]);
        assert!(!RetryPolicy::response_retryable(&ok));
    }
}
