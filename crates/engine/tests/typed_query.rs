//! The typed `query` path against the DOM reference, byte for byte.
//!
//! Twin dispatchers replay one request stream. The reference answers
//! every line with `Dispatcher::dispatch_line`, the stdin/stdout serve
//! loop's path. The other answers with `Dispatcher::answer_query_line`
//! and falls back to `dispatch_line` when the line is off the typed
//! shape, as the network transports do. Responses must be identical
//! bytes, and so must the per-op request and error counters and the
//! retained query traces' annotations. A seeded mutation fuzz then
//! damages canonical query lines token by token and holds the two to
//! the same bytes.

use pclabel_engine::json::Json;
use pclabel_engine::query::EngineConfig;
use pclabel_engine::serve::Dispatcher;
use pclabel_telemetry::SnapshotValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Twin dispatchers: `reference` answers on the DOM path only, `typed`
/// tries the typed path first.
struct Twins {
    reference: Dispatcher,
    typed: Dispatcher,
    typed_lines: usize,
}

impl Twins {
    fn new() -> Twins {
        // Three query threads, so a batch of at least 256 patterns runs
        // on the chunked path even on a one-core host.
        let config = EngineConfig { query_threads: 3 };
        let mut twins = Twins {
            reference: Dispatcher::with_config(config),
            typed: Dispatcher::with_config(config),
            typed_lines: 0,
        };
        let tricky_csv = Json::obj([
            ("op", Json::str("register")),
            ("dataset", Json::str("t")),
            (
                "csv",
                Json::str("a,b\n1,x\n0,\"q\"\"t\"\n1500,b\\s\n1e20,é\n😀,y\n1,é\n"),
            ),
            ("label_attrs", Json::Arr(vec![Json::str("a")])),
        ])
        .to_string();
        for line in [
            r#"{"op":"register","dataset":"census","generator":"figure2","bound":5}"#,
            tricky_csv.as_str(),
        ] {
            let (response, typed) = twins.replay(line);
            assert!(!typed, "register took the typed path");
            assert!(response.starts_with("{\"ok\":true"), "{response}");
        }
        twins
    }

    /// Answers `line` on both twins, asserts identical bytes and returns
    /// the response and whether the typed path answered it.
    fn replay(&mut self, line: &str) -> (String, bool) {
        let expected = self.reference.dispatch_line(line).to_string();
        let (got, typed) = match self.typed.answer_query_line(line) {
            Some(Ok(text)) => (text, true),
            Some(Err(response)) => (response.to_string(), true),
            None => (self.typed.dispatch_line(line).to_string(), false),
        };
        assert_eq!(expected, got, "line {line:?}");
        self.typed_lines += usize::from(typed);
        (got, typed)
    }

    /// Asserts that both twins counted the same requests and errors per
    /// op, and retained the same query traces.
    fn assert_same_telemetry(&self) {
        let counters = |d: &Dispatcher| -> Vec<String> {
            d.telemetry()
                .registry()
                .snapshot()
                .into_iter()
                .filter(|s| {
                    s.name == "pclabel_requests_total" || s.name == "pclabel_request_errors_total"
                })
                .map(|s| format!("{} {:?} {:?}", s.name, s.labels, s.value))
                .collect()
        };
        let reference = counters(&self.reference);
        let queries = self
            .reference
            .telemetry()
            .registry()
            .snapshot()
            .into_iter()
            .find(|s| {
                s.name == "pclabel_requests_total" && s.labels.iter().any(|(_, v)| v == "query")
            })
            .map(|s| s.value);
        assert!(
            matches!(queries, Some(SnapshotValue::Counter(n)) if n > 0),
            "{queries:?}"
        );
        assert_eq!(reference, counters(&self.typed));

        let annotations = |d: &Dispatcher| -> Vec<String> {
            let traces = d.debug_traces_json(Some("query"), false, None);
            traces
                .get("traces")
                .and_then(Json::as_array)
                .expect("retained traces")
                .iter()
                .map(|t| {
                    let field = |k: &str| t.get(k).map(Json::to_string).unwrap_or_default();
                    ["op", "ok", "dataset", "items", "rows"]
                        .map(field)
                        .join(" ")
                })
                .collect()
        };
        assert_eq!(annotations(&self.reference), annotations(&self.typed));
    }
}

/// Query lines in the canonical shape: the typed path must answer each.
fn canonical_lines() -> Vec<String> {
    let mut lines: Vec<String> = [
        r#"{"op":"query","dataset":"census","id":"q1","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"},{"age group":"20-39"}]}"#,
        // The same batch again: every answer now comes from the cache.
        r#"{"op":"query","dataset":"census","id":"q1","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"},{"age group":"20-39"}]}"#,
        // `op` not first, and whitespace everywhere JSON allows it.
        " \t{ \"dataset\" : \"census\" ,\r\n \"patterns\" : [ { \"gender\" : \"Female\" } , { } ] , \"op\" : \"query\" } \n",
        // Ids: string, number, null and a structure (only strings echo).
        r#"{"op":"query","id":"q\"2\\","dataset":"census","patterns":[{"gender":"Male"}]}"#,
        r#"{"op":"query","id":7,"dataset":"census","patterns":[{"gender":"Male"}]}"#,
        r#"{"op":"query","id":null,"dataset":"census","patterns":[{"gender":"Male"}]}"#,
        r#"{"op":"query","id":{"a":[1,"x"]},"dataset":"census","patterns":[{"gender":"Male"}]}"#,
        // Escaped keys and values: `\"`, `\\`, `\u` escapes and a
        // surrogate pair; the op itself escaped.
        "{\"op\":\"qu\\u0065ry\",\"dataset\":\"t\",\"patterns\":[{\"a\":\"0\",\"b\":\"q\\\"t\"},{\"b\":\"b\\\\s\"},{\"\\u0061\":\"1e20\",\"b\":\"\\u00e9\"},{\"a\":\"\\ud83d\\ude00\"},{\"b\":\"é\"}]}",
        // Numeric values take their label text: 1, 0, 1500 and 1e20.
        r#"{"op":"query","dataset":"t","patterns":[{"a":1},{"a":-0},{"a":1.5e3},{"a":1e20},{"a":1.0,"b":"x"},{"a":2}]}"#,
        // Empty batch, empty pattern, a repeated attribute in a pattern.
        r#"{"op":"query","dataset":"census","patterns":[]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"gender":"Female","gender":"Male"},{"gender":"Female","gender":"Female"}]}"#,
        // `\u` escapes of exactly four hex digits, in both cases.
        r#"{"op":"query","dataset":"census","patterns":[{"gender":"Fem\u0061le"},{"gender":"M\u0041LE"},{"gender":"\u004dale"}]}"#,
        // Unknown dataset (whole batch fails), attribute and value (one
        // pattern fails).
        r#"{"op":"query","dataset":"ghost","patterns":[{"gender":"Female"}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"nope":"x"},{"gender":"Other"},{"gender":"Female"}]}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // An id nested as deep as the parsers' depth cap allows (the request
    // object is the first of its 128 levels).
    let deep = format!("{}{}", "[".repeat(127), "]".repeat(127));
    lines.push(format!(
        r#"{{"op":"query","dataset":"census","id":{deep},"patterns":[{{"gender":"Male"}}]}}"#
    ));
    // A batch above the engine's chunking threshold (256 patterns): every
    // distinct figure-2 pattern, then repeats of them and unknown values.
    // Repeats land in later chunks than their first occurrence, whose
    // cached answers they must report as a one-thread batch would.
    let columns: [(&str, &[&str]); 4] = [
        ("gender", &["Female", "Male"]),
        ("age group", &["under 20", "20-39"]),
        ("race", &["African-American", "Hispanic", "Caucasian"]),
        ("marital status", &["single", "divorced", "married"]),
    ];
    let mut big = vec![String::new()];
    for (attr, values) in columns {
        big = big
            .iter()
            .flat_map(|prefix| {
                let sep = if prefix.is_empty() { "" } else { "," };
                std::iter::once(prefix.clone()).chain(
                    values
                        .iter()
                        .map(move |v| format!(r#"{prefix}{sep}"{attr}":"{v}""#)),
                )
            })
            .collect();
    }
    big.retain(|terms| !terms.is_empty());
    let distinct = big.len();
    for i in distinct..300 {
        big.push(if i % 4 == 0 {
            format!(r#""race":"unknown {i}""#)
        } else {
            big[i % distinct].clone()
        });
    }
    let big: Vec<String> = big.iter().map(|terms| format!("{{{terms}}}")).collect();
    lines.push(format!(
        r#"{{"op":"query","dataset":"census","patterns":[{}]}}"#,
        big.join(",")
    ));
    lines
}

/// Lines off the typed shape: the typed path must decline each, so the
/// DOM answers them (with its own error texts).
fn off_shape_lines() -> Vec<String> {
    let canonical = r#"{"op":"query","dataset":"census","patterns":[{"gender":"Female"}]}"#;
    let mut lines: Vec<String> = [
        r#"{"op":"list"}"#,
        r#"{"op":"stats","dataset":"census"}"#,
        r#"{"op":"estimate_multi","patterns":[{"gender":"Female"}]}"#,
        // Repeated top-level members.
        r#"{"op":"query","dataset":"census","dataset":"t","patterns":[]}"#,
        r#"{"op":"query","op":"query","dataset":"census","patterns":[]}"#,
        r#"{"op":"query","dataset":"census","patterns":[],"patterns":[{}]}"#,
        r#"{"op":"query","id":"a","id":"b","dataset":"census","patterns":[]}"#,
        // An extra member, and missing ones.
        r#"{"op":"query","dataset":"census","patterns":[],"trace":true}"#,
        r#"{"op":"query","patterns":[{"gender":"Female"}]}"#,
        r#"{"op":"query","dataset":"census"}"#,
        r#"{"dataset":"census","patterns":[]}"#,
        r#"{}"#,
        // Wrong member types.
        r#"{"op":"query","dataset":5,"patterns":[]}"#,
        r#"{"op":"query","dataset":null,"patterns":[]}"#,
        r#"{"op":1,"dataset":"census","patterns":[]}"#,
        r#"{"op":"query","dataset":"census","patterns":{}}"#,
        r#"{"op":"query","dataset":"census","patterns":[["gender","Female"]]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"gender":"Female"},7]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"gender":true}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"gender":null}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"gender":["Female"]}]}"#,
        r#"{"op":"query","dataset":"ghost","patterns":[{"gender":{}}]}"#,
        // Not an object, not JSON.
        r#"["op","query"]"#,
        "not json",
        "",
        "   ",
        r#"{"op":"query","dataset":"census","patterns":[{"gender":"Fe\male"}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"gender":"\ud83d"}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"gender":01}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"gender":"Female",}]}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // `\u` escapes take four hex digits and nothing else: no sign, no
    // space.
    for digits in ["+041", "-041", " 041", "004g"] {
        lines.push(format!(
            r#"{{"op":"query","dataset":"\u{digits}","patterns":[]}}"#
        ));
        lines.push(format!(
            r#"{{"op":"query","dataset":"census","patterns":[{{"gender":"\u{digits}"}}]}}"#
        ));
    }
    // An id nested past the parsers' depth cap (the request object is
    // the first level).
    for levels in [128, 10_000] {
        let deep = format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        lines.push(format!(
            r#"{{"op":"query","dataset":"census","id":{deep},"patterns":[]}}"#
        ));
    }
    // Every truncation, and trailing garbage.
    for cut in 1..canonical.len() {
        lines.push(canonical[..cut].to_string());
    }
    for tail in ["x", "}", "]", ",", "{}", "\"", " 1"] {
        lines.push(format!("{canonical}{tail}"));
    }
    lines
}

#[test]
fn typed_path_matches_the_dom_byte_for_byte() {
    let mut twins = Twins::new();
    let canonical = canonical_lines();
    // Twice, so the second round is answered from the pattern cache.
    for _ in 0..2 {
        for line in &canonical {
            let (_, typed) = twins.replay(line);
            assert!(typed, "canonical line took the DOM path: {line:?}");
        }
    }
    for line in off_shape_lines() {
        let (_, typed) = twins.replay(&line);
        assert!(!typed, "off-shape line took the typed path: {line:?}");
    }
    twins.assert_same_telemetry();
}

#[test]
fn typed_path_writes_the_expected_response() {
    // Pinned independently of the DOM: paper Example 2.12 (estimate 3)
    // and an exact marginal (12), with the request id echoed.
    let twins = Twins::new();
    let line = r#"{"op":"query","dataset":"census","id":"q1","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"},{"age group":"20-39"},{"gender":"x"}]}"#;
    let text = twins
        .typed
        .answer_query_line(line)
        .expect("canonical shape")
        .expect("answered");
    assert_eq!(
        text,
        "{\"ok\":true,\"op\":\"query\",\"id\":\"q1\",\"dataset\":\"census\",\"rows\":18,\
         \"label_attrs\":[\"age group\",\"marital status\"],\"generation\":0,\"results\":[\
         {\"estimate\":3,\"exact\":false,\"cached\":false},\
         {\"estimate\":12,\"exact\":true,\"cached\":false},\
         {\"error\":\"unknown value \\\"x\\\" for attribute \\\"gender\\\"\"}],\
         \"stats\":{\"exact\":1,\"estimated\":1,\"cache_hits\":0,\"cache_misses\":2,\"failed\":1}}"
    );
}

/// JSON-significant tokens the fuzz inserts or substitutes.
const TOKENS: [&str; 32] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\\"",
    "\\u00e9",
    "\\ud83d",
    " ",
    "\n",
    "0",
    "1",
    "-",
    ".",
    "e",
    "null",
    "true",
    "é",
    "a",
    "x",
    "\"op\"",
    "\"query\"",
    "\"dataset\"",
    "\"patterns\"",
    "\"id\"",
    "\"census\"",
    "\"gender\"",
    "\"Female\"",
    "{\"gender\":\"Male\"}",
];

/// Applies one (most often) to three random token edits to `line`,
/// each at a char boundary: insert a token, delete one to three chars,
/// or replace one char with a token.
fn mutate(rng: &mut StdRng, line: &str) -> String {
    let mut out = line.to_string();
    let edits = if rng.gen_bool(0.6) {
        1
    } else {
        rng.gen_range(2usize..=3)
    };
    for _ in 0..edits {
        let boundaries: Vec<usize> = out
            .char_indices()
            .map(|(i, _)| i)
            .chain([out.len()])
            .collect();
        let at = boundaries[rng.gen_range(0..boundaries.len())];
        let token = TOKENS[rng.gen_range(0..TOKENS.len())];
        // The byte offset `n` chars past `at`, or the end.
        let past = |n: usize| {
            out[at..]
                .char_indices()
                .nth(n)
                .map_or(out.len(), |(i, _)| at + i)
        };
        match rng.gen_range(0u32..3) {
            0 => out.insert_str(at, token),
            1 => {
                let end = past(rng.gen_range(1usize..=3));
                out.replace_range(at..end, "");
            }
            _ => {
                let end = past(1);
                out.replace_range(at..end, token);
            }
        }
    }
    out
}

/// Replays `lines` mutated canonical query lines through the twins;
/// returns the share the typed path answered.
fn mutation_fuzz(seed: u64, lines: usize) -> f64 {
    let mut twins = Twins::new();
    let seeds: Vec<String> = canonical_lines()
        .into_iter()
        .filter(|l| l.len() < 400)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..lines {
        let seed_line = &seeds[rng.gen_range(0..seeds.len())];
        let line = mutate(&mut rng, seed_line);
        twins.replay(&line);
    }
    twins.assert_same_telemetry();
    eprintln!("typed share {}", twins.typed_lines as f64 / lines as f64);
    twins.typed_lines as f64 / lines as f64
}

#[test]
fn mutated_query_lines_answer_like_the_dom() {
    let typed = mutation_fuzz(1, 20_000);
    // Both paths must be exercised for the comparison to mean anything.
    assert!((0.05..0.95).contains(&typed), "typed share {typed}");
}

#[test]
#[ignore = "soak: a million mutated lines, run in release mode"]
fn mutated_query_lines_soak() {
    let typed = mutation_fuzz(2, 1_000_000);
    assert!((0.05..0.95).contains(&typed), "typed share {typed}");
}
