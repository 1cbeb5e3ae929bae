//! Replay client for a running `pclabel-netd`: sends a fixed request
//! script over framed TCP, then the same script again over HTTP
//! (`POST /`), printing every response body to stdout, one per line.
//!
//! `ci/net_smoke.sh` runs this against a one-reactor daemon, a
//! four-reactor daemon on epoll and a two-reactor `--force-poll` daemon
//! — one accept path on two readiness backends — and diffs the outputs:
//! every variant must be byte-identical for the same request stream. The script mixes ops,
//! failure paths, and non-JSON garbage so the diff covers dispatch
//! errors as well as happy paths; it runs each op sequence against one
//! long-lived daemon, so per-dataset state (generations, cache
//! counters) evolves — identically — under every variant.
//!
//! Ends with `{"op":"shutdown"}` (requires `--allow-remote-shutdown`),
//! whose response is printed too.
//!
//! ```text
//! net_replay 127.0.0.1:7341
//! ```

use pclabel_engine::json::Json;
use pclabel_net::client::{HttpClient, NetClient};

/// Zeroes the one legitimately non-deterministic response field
/// (`health`'s `uptime_seconds`) so the cross-variant diff stays
/// byte-exact; everything else is printed verbatim.
fn canon(line: &str) -> String {
    match Json::parse(line) {
        Ok(Json::Obj(mut members)) => {
            for (key, value) in members.iter_mut() {
                if key == "uptime_seconds" {
                    *value = Json::num(0.0);
                }
            }
            Json::Obj(members).to_string()
        }
        _ => line.to_string(),
    }
}

fn script() -> Vec<&'static str> {
    vec![
        r#"{"op":"register","dataset":"census","generator":"figure2","bound":5}"#,
        r#"{"op":"register","dataset":"b","generator":"figure2","label_attrs":["gender","age group"]}"#,
        r#"{"op":"query","dataset":"census","id":"q1","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"},{"age group":"20-39"}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"age group":"20-39"}]}"#,
        r#"{"op":"estimate_multi","strategy":"min_estimate","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"}]}"#,
        r#"{"op":"estimate_multi","patterns":[{"no such attr":"x"}]}"#,
        "not json",
        r#"{"op":"teleport"}"#,
        r#"{"op":"refresh","dataset":"b","label_attrs":["marital status"]}"#,
        r#"{"op":"stats","dataset":"census"}"#,
        r#"{"op":"list"}"#,
        r#"{"op":"health"}"#,
        r#"{"op":"drop","dataset":"b"}"#,
    ]
}

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| panic!("usage: net_replay ADDR"));

    let mut framed = NetClient::connect(&addr).expect("framed connect");
    for line in script() {
        let response = framed.request_line(line).expect("framed round-trip");
        println!("framed {}", canon(&response));
    }

    let mut http = HttpClient::connect(&addr).expect("HTTP connect");
    for line in script() {
        let response = http
            .request("POST", "/", Some(line))
            .expect("HTTP round-trip");
        println!("http {} {}", response.status, canon(&response.body));
    }
    let health = http.request("GET", "/healthz", None).expect("GET /healthz");
    println!("http {} {}", health.status, canon(&health.body));

    // Optional telemetry dump for ci/net_smoke.sh: scrape /metrics into
    // a file, keeping stdout byte-identical across daemon variants.
    if let Ok(path) = std::env::var("PCLABEL_REPLAY_METRICS_OUT") {
        if !path.is_empty() {
            let scrape = http.request("GET", "/metrics", None).expect("GET /metrics");
            assert_eq!(scrape.status, 200, "metrics scrape failed");
            std::fs::write(&path, scrape.body).expect("write metrics dump");
        }
    }

    // Optional introspection dump for ci/net_smoke.sh: fetch the three
    // /debug routes (conns, memory, retained traces) into a file, one
    // `PATH BODY` line each, while both replay connections are still
    // open — so the conn table must see exactly this client pair.
    if let Ok(path) = std::env::var("PCLABEL_REPLAY_DEBUG_OUT") {
        if !path.is_empty() {
            let mut dump = String::new();
            for route in ["/debug/conns", "/debug/memory", "/debug/traces?op=query"] {
                let scrape = http.request("GET", route, None).expect("GET debug route");
                assert_eq!(scrape.status, 200, "debug scrape failed on {route}");
                dump.push_str(&format!("{route} {}\n", scrape.body));
            }
            std::fs::write(&path, dump).expect("write debug dump");
        }
    }

    let bye = framed
        .request_line(r#"{"op":"shutdown"}"#)
        .expect("shutdown round-trip");
    println!("framed {}", canon(&bye));
}
