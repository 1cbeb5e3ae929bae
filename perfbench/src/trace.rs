//! In-memory spans recorded by the bench around every call it makes,
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One span: a call into a layer, its caller span and the request it
/// belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans of one thread; merged into the run's log when the thread ends.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Span ids are `thread tag << 48 | sequence`, unique across logs.
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, tag: u64) -> SpanLog {
        SpanLog {
            epoch,
            tag,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = (self.tag << 48) | self.next;
        self.next += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, request, start, Instant::now());
        (out, id)
    }

    /// Sets the parent of a recorded span (a caller span recorded after
    /// its callee finished).
    pub fn reparent(&mut self, id: u64, parent: u64) {
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.parent = Some(parent);
        }
    }

    /// Duration of a recent span, by id.
    pub fn secs_of(&self, id: u64) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.id == id)
            .map_or(0.0, Span::secs)
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Durations (seconds) of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time of each `outer` span: its duration minus the `inner`
    /// span on the same request (the layer nested inside it).
    pub fn self_times(&self, outer: &str, inner: &str) -> Vec<f64> {
        let mut inner_by_request = std::collections::HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == inner) {
            inner_by_request.insert(s.request, s.secs());
        }
        self.spans
            .iter()
            .filter(|s| s.name == outer)
            .filter_map(|s| inner_by_request.get(&s.request).map(|i| s.secs() - i))
            .collect()
    }

    /// The log as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_nested_layer() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch, 1);
        let t = |ns: u64| epoch + std::time::Duration::from_nanos(ns);
        let outer = log.record("client.query", None, 7, t(0), t(1_000));
        log.record("engine.serve.dispatch_line", Some(outer), 7, t(0), t(600));
        log.record("client.query", None, 8, t(0), t(500));
        let own = log.self_times("client.query", "engine.serve.dispatch_line");
        assert_eq!(own.len(), 1);
        assert!((own[0] - 400e-9).abs() < 1e-15);
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.contains("\"parent\":null"));
        assert!(jsonl.contains(&format!("\"parent\":{outer}")));
    }
}
