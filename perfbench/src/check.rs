//! Answer checks: a fast scanner for the hot-path responses (query and
//! append), and the failure tally behind `op_fail_ratio`.

/// One scanned `query` answer: `(value, exact, cached)`.
pub type Answer = (f64, bool, bool);

/// Header fields of a scanned response.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Scanned {
    pub rows: u64,
    pub generation: u64,
}

/// Why a response failed its check.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// `{"ok":false,...}` (other than a refusal), or a malformed body.
    Error(String),
    /// `{"error":"overloaded"}` (HTTP 429 on the other transport).
    Refused,
    /// Transport timeout or connection loss.
    Timeout(String),
    /// A well-formed answer that does not match the bench's own.
    Wrong(String),
}

impl Failure {
    pub fn describe(&self) -> String {
        match self {
            Failure::Error(s) => format!("error: {s}"),
            Failure::Refused => "refused: overloaded".to_string(),
            Failure::Timeout(s) => format!("timeout: {s}"),
            Failure::Wrong(s) => format!("wrong answer: {s}"),
        }
    }
}

/// Errors, refusals, timeouts and wrong answers against attempts.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub errors: u64,
    pub refusals: u64,
    pub timeouts: u64,
    pub wrong: u64,
    pub first: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, failure: Failure) {
        self.attempted += 1;
        match &failure {
            Failure::Error(_) => self.errors += 1,
            Failure::Refused => self.refusals += 1,
            Failure::Timeout(_) => self.timeouts += 1,
            Failure::Wrong(_) => self.wrong += 1,
        }
        if self.first.len() < 5 {
            self.first.push(failure.describe());
        }
    }

    /// A check outside any request (e.g. recovered row count).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(Failure::Wrong(what()));
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.refusals + self.timeouts + self.wrong
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.refusals += other.refusals;
        self.timeouts += other.timeouts;
        self.wrong += other.wrong;
        for f in &other.first {
            if self.first.len() < 5 {
                self.first.push(f.clone());
            }
        }
    }
}

/// Classifies a transport error.
pub fn transport_failure(e: &std::io::Error) -> Failure {
    Failure::Timeout(e.to_string())
}

fn refusal_or_error(text: &str) -> Failure {
    if text.contains("\"overloaded\"") {
        Failure::Refused
    } else {
        Failure::Error(text.chars().take(200).collect())
    }
}

struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn seek(&mut self, key: &str) -> Option<()> {
        let at = self.s[self.pos..].find(key)?;
        self.pos += at + key.len();
        Some(())
    }

    fn expect(&mut self, lit: &str) -> Option<()> {
        if self.s[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Some(())
        } else {
            None
        }
    }

    fn number(&mut self) -> Option<f64> {
        let rest = &self.s[self.pos..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
            .unwrap_or(rest.len());
        self.pos += end;
        rest[..end].parse().ok()
    }

    fn boolean(&mut self) -> Option<bool> {
        if self.expect("true").is_some() {
            Some(true)
        } else if self.expect("false").is_some() {
            Some(false)
        } else {
            None
        }
    }
}

/// Scans a `query` response into `out` (cleared first).
pub fn scan_query(text: &str, out: &mut Vec<Answer>) -> Result<Scanned, Failure> {
    out.clear();
    if !text.starts_with("{\"ok\":true,\"op\":\"query\"") {
        return Err(refusal_or_error(text));
    }
    let bad = || {
        Failure::Error(format!(
            "malformed query response: {}",
            &text[..text.len().min(200)]
        ))
    };
    let mut c = Cursor { s: text, pos: 0 };
    c.seek("\"rows\":").ok_or_else(bad)?;
    let rows = c.number().ok_or_else(bad)? as u64;
    c.seek("\"generation\":").ok_or_else(bad)?;
    let generation = c.number().ok_or_else(bad)? as u64;
    c.seek("\"results\":[").ok_or_else(bad)?;
    if c.expect("]").is_none() {
        loop {
            if c.expect("{\"error\":").is_some() {
                return Err(Failure::Error(format!(
                    "pattern failed: {}",
                    &text[c.pos..text.len().min(c.pos + 120)]
                )));
            }
            c.expect("{\"estimate\":").ok_or_else(bad)?;
            let value = c.number().ok_or_else(bad)?;
            c.expect(",\"exact\":").ok_or_else(bad)?;
            let exact = c.boolean().ok_or_else(bad)?;
            c.expect(",\"cached\":").ok_or_else(bad)?;
            let cached = c.boolean().ok_or_else(bad)?;
            c.expect("}").ok_or_else(bad)?;
            out.push((value, exact, cached));
            if c.expect(",").is_none() {
                c.expect("]").ok_or_else(bad)?;
                break;
            }
        }
    }
    Ok(Scanned { rows, generation })
}

/// Scans an `append_rows` response; returns the header and whether the
/// append was incremental.
pub fn scan_append(text: &str) -> Result<(Scanned, bool), Failure> {
    if !text.starts_with("{\"ok\":true,\"op\":\"append_rows\"") {
        return Err(refusal_or_error(text));
    }
    let bad = || {
        Failure::Error(format!(
            "malformed append response: {}",
            &text[..text.len().min(200)]
        ))
    };
    let mut c = Cursor { s: text, pos: 0 };
    c.seek("\"rows\":").ok_or_else(bad)?;
    let rows = c.number().ok_or_else(bad)? as u64;
    c.seek("\"generation\":").ok_or_else(bad)?;
    let generation = c.number().ok_or_else(bad)? as u64;
    c.seek("\"incremental\":").ok_or_else(bad)?;
    let incremental = c.boolean().ok_or_else(bad)?;
    Ok((Scanned { rows, generation }, incremental))
}

/// Checks a generic `{"ok":true,...}` response with the repo's JSON
/// parser (setup and control requests, not the hot path).
pub fn parse_ok(text: &str) -> Result<pclabel_engine::json::Json, Failure> {
    use pclabel_engine::json::Json;
    let json = Json::parse(text).map_err(|e| Failure::Error(format!("invalid JSON: {e}")))?;
    if json.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(json)
    } else {
        Err(refusal_or_error(text))
    }
}

/// Compares one served answer with the bench's own.
pub fn same_answer(served: Answer, expected: (f64, bool)) -> bool {
    served.1 == expected.1 && served.0.to_bits() == expected.0.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_query_answers() {
        let text = "{\"ok\":true,\"op\":\"query\",\"dataset\":\"d\",\"rows\":18,\
                    \"label_attrs\":[\"a\"],\"generation\":3,\"results\":[\
                    {\"estimate\":3,\"exact\":false,\"cached\":false},\
                    {\"estimate\":0.1234567890123,\"exact\":true,\"cached\":true}],\
                    \"stats\":{\"exact\":1}}";
        let mut out = Vec::new();
        let s = scan_query(text, &mut out).unwrap();
        assert_eq!(
            s,
            Scanned {
                rows: 18,
                generation: 3
            }
        );
        assert_eq!(
            out,
            vec![(3.0, false, false), (0.1234567890123, true, true)]
        );
        assert!(same_answer(out[1], (0.1234567890123, true)));
        assert!(!same_answer(out[1], (0.1234567890123, false)));
    }

    #[test]
    fn classifies_failures() {
        let mut out = Vec::new();
        let refused = "{\"ok\":false,\"error\":\"overloaded\"}";
        assert_eq!(scan_query(refused, &mut out), Err(Failure::Refused));
        let err = "{\"ok\":false,\"error\":\"unknown dataset\",\"op\":\"query\"}";
        assert!(matches!(scan_query(err, &mut out), Err(Failure::Error(_))));
        let pattern_err = "{\"ok\":true,\"op\":\"query\",\"rows\":1,\"generation\":0,\
                           \"results\":[{\"error\":\"unknown value\"}]}";
        assert!(matches!(
            scan_query(pattern_err, &mut out),
            Err(Failure::Error(_))
        ));
        let mut tally = Tally::default();
        tally.fail(Failure::Refused);
        tally.fail(Failure::Wrong("x".into()));
        tally.ok();
        assert_eq!((tally.attempted, tally.failed()), (3, 2));
    }

    #[test]
    fn scans_append_reports() {
        let text = "{\"ok\":true,\"op\":\"append_rows\",\"dataset\":\"d\",\"appended\":16,\
                    \"rows\":200016,\"generation\":1,\"incremental\":true,\"touched_shards\":[1,2]}";
        let (s, incremental) = scan_append(text).unwrap();
        assert_eq!((s.rows, s.generation, incremental), (200_016, 1, true));
    }
}
