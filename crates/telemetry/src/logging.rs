//! Leveled structured logging: one JSON object per line on stderr.
//!
//! The only hot-path cost is a level comparison; formatting happens
//! only for lines that will actually be emitted. Lines are built by
//! hand (names and ops are static identifiers, values are numbers) so
//! the crate stays dependency-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Log verbosity, ordered: `Error < Warn < Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Only failures.
    Error,
    /// Failures and slow-query warnings.
    Warn,
    /// Operational messages (default).
    Info,
    /// One line per request.
    Debug,
}

impl LogLevel {
    /// Lowercase name used on the wire and in log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }
}

impl std::str::FromStr for LogLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "error" => Ok(LogLevel::Error),
            "warn" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            other => Err(format!(
                "unknown log level {other:?} (expected error|warn|info|debug)"
            )),
        }
    }
}

/// Structured logger: a level filter plus an optional slow-query
/// threshold. Requests slower than the threshold are logged at `warn`
/// with their span breakdown; at `debug` every request gets a line —
/// or every `sample`-th one, so `--log-level debug` under hammer load
/// doesn't turn stderr into the bottleneck.
#[derive(Debug, Clone)]
pub struct Logger {
    level: LogLevel,
    slow_query: Option<Duration>,
    sample: u64,
    // Shared across clones so sampling stays uniform no matter how
    // many handles the serving stack holds.
    seen: Arc<AtomicU64>,
}

impl Default for Logger {
    /// `info` level, slow-query log disabled, no sampling.
    fn default() -> Self {
        Logger::new(LogLevel::Info, None)
    }
}

impl Logger {
    /// A logger with the given level and optional slow-query threshold.
    pub fn new(level: LogLevel, slow_query: Option<Duration>) -> Self {
        Logger {
            level,
            slow_query,
            sample: 1,
            seen: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Emits only every `n`-th per-request *debug* line (slow-query
    /// warnings are never sampled away). `0` and `1` both mean "every
    /// request".
    pub fn with_sample(mut self, n: u64) -> Self {
        self.sample = n.max(1);
        self
    }

    /// The debug-line sampling interval (1 = every request).
    pub fn sample(&self) -> u64 {
        self.sample
    }

    /// The configured level.
    pub fn level(&self) -> LogLevel {
        self.level
    }

    /// The configured slow-query threshold, if any.
    pub fn slow_query(&self) -> Option<Duration> {
        self.slow_query
    }

    /// Whether a message at `level` passes the filter.
    pub fn enabled(&self, level: LogLevel) -> bool {
        level <= self.level
    }

    /// Logs one finished request: a `slow_query` warning when it blew
    /// the threshold, otherwise a `request` line at debug (subject to
    /// the sampling interval). `spans` carries `(name, seconds)` pairs
    /// for phases that ran; `retained` says whether the full trace is
    /// retrievable afterwards (`/debug/traces?id=<request_id>`), which
    /// the slow-query warn line advertises.
    pub fn on_request(
        &self,
        request_id: u64,
        op: &str,
        ok: bool,
        elapsed: Duration,
        spans: &[(&'static str, f64)],
        retained: bool,
    ) {
        let slow = self.slow_query.is_some_and(|t| elapsed >= t);
        let level = if slow {
            LogLevel::Warn
        } else {
            LogLevel::Debug
        };
        if !self.enabled(level) {
            return;
        }
        if !slow && !self.sample_pass() {
            return;
        }
        let mut line = request_line(
            level,
            if slow { "slow_query" } else { "request" },
            request_id,
            op,
            ok,
            elapsed,
            spans,
        );
        if slow {
            // Splice the retrievability marker in before the closing
            // brace, keeping request_line's shape untouched for tests.
            line.truncate(line.len() - 1);
            line.push_str(&format!(",\"retained\":{retained}}}"));
        }
        eprintln!("{line}");
    }

    /// Whether the next per-request debug line passes the sampling
    /// filter (always true at the default interval of 1).
    fn sample_pass(&self) -> bool {
        if self.sample <= 1 {
            return true;
        }
        // Relaxed is fine: sampling needs uniformity, not ordering.
        self.seen
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample)
    }

    /// Logs a freeform operational message (`{"event": ...,"msg": ...}`).
    pub fn message(&self, level: LogLevel, event: &str, msg: &str) {
        if !self.enabled(level) {
            return;
        }
        eprintln!(
            "{{\"ts_ms\":{},\"level\":\"{}\",\"event\":\"{}\",\"msg\":\"{}\"}}",
            now_ms(),
            level.as_str(),
            escape(event),
            escape(msg)
        );
    }
}

fn now_ms() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            other => out.push(other),
        }
    }
    out
}

fn request_line(
    level: LogLevel,
    event: &str,
    request_id: u64,
    op: &str,
    ok: bool,
    elapsed: Duration,
    spans: &[(&'static str, f64)],
) -> String {
    let mut line = format!(
        "{{\"ts_ms\":{},\"level\":\"{}\",\"event\":\"{event}\",\"request_id\":{request_id},\
         \"op\":\"{}\",\"ok\":{ok},\"elapsed_ms\":{:.3}",
        now_ms(),
        level.as_str(),
        escape(op),
        elapsed.as_secs_f64() * 1e3,
    );
    if !spans.is_empty() {
        line.push_str(",\"spans\":[");
        for (i, (name, secs)) in spans.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&format!("{{\"name\":\"{name}\",\"ms\":{:.3}}}", secs * 1e3));
        }
        line.push(']');
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(LogLevel::Error < LogLevel::Debug);
        assert_eq!("warn".parse::<LogLevel>().unwrap(), LogLevel::Warn);
        assert!("loud".parse::<LogLevel>().is_err());
        let logger = Logger::new(LogLevel::Warn, None);
        assert!(logger.enabled(LogLevel::Error));
        assert!(logger.enabled(LogLevel::Warn));
        assert!(!logger.enabled(LogLevel::Info));
    }

    #[test]
    fn request_lines_are_valid_shape() {
        let line = request_line(
            LogLevel::Warn,
            "slow_query",
            42,
            "query",
            true,
            Duration::from_millis(250),
            &[("store_wait", 0.010), ("counting_count", 0.002)],
        );
        assert!(line.starts_with("{\"ts_ms\":"));
        assert!(line.contains("\"event\":\"slow_query\""));
        assert!(line.contains("\"request_id\":42"));
        assert!(line.contains("\"op\":\"query\""));
        assert!(line.contains("\"elapsed_ms\":250.000"));
        assert!(line.contains("{\"name\":\"store_wait\",\"ms\":10.000}"));
        assert!(line.ends_with("]}"));
    }

    #[test]
    fn sampling_passes_every_nth_debug_line() {
        let logger = Logger::new(LogLevel::Debug, None).with_sample(3);
        assert_eq!(logger.sample(), 3);
        let passes: Vec<bool> = (0..7).map(|_| logger.sample_pass()).collect();
        assert_eq!(
            passes,
            vec![true, false, false, true, false, false, true],
            "every 3rd request line passes"
        );
        // Clones share the counter: the fleet samples uniformly.
        let clone = logger.clone();
        assert!(!clone.sample_pass(), "clone continues the shared stride");
        // Interval 0/1 means no sampling at all.
        let all = Logger::new(LogLevel::Debug, None).with_sample(0);
        assert!((0..5).all(|_| all.sample_pass()));
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
