//! Soak client for a running `pclabel-netd`: parks N idle keep-alive
//! connections, then asserts a fresh client still completes a
//! register + query round-trip within a deadline.
//!
//! This is the regression gate for the event-driven reactor: it holds
//! workers per request, not per connection, so this must pass with any
//! N, including N ≥ workers. `ci/net_soak.sh` runs it with
//! `workers + 4` idle connections and a 2 s deadline.
//!
//! Ends with `{"op":"shutdown"}` (requires `--allow-remote-shutdown`).
//!
//! ```text
//! net_soak ADDR IDLE_CONNS [DEADLINE_MS]
//! ```

use std::time::{Duration, Instant};

use pclabel_engine::json::Json;
use pclabel_net::client::NetClient;

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: net_soak ADDR IDLE_CONNS [DEADLINE_MS]";
    let addr = args.next().unwrap_or_else(|| panic!("{usage}"));
    let idle_conns: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("{usage}"));
    let deadline = Duration::from_millis(
        args.next()
            .map(|s| s.parse().expect("DEADLINE_MS must be an integer"))
            .unwrap_or(2000),
    );

    // Park the idle fleet. Each connection completes one request first,
    // so the server has fully adopted it (sniffed, served, keep-alive)
    // before it goes quiet.
    let mut parked = Vec::with_capacity(idle_conns);
    for i in 0..idle_conns {
        let mut client = NetClient::connect(&addr)
            .unwrap_or_else(|e| panic!("idle connection {i} failed to connect: {e}"));
        let health = client
            .request_line(r#"{"op":"health"}"#)
            .unwrap_or_else(|e| panic!("idle connection {i} health: {e}"));
        assert_eq!(
            Json::parse(&health).expect("health JSON").get("ok"),
            Some(&Json::Bool(true)),
            "idle connection {i}: {health}"
        );
        parked.push(client);
    }

    // The fresh client must complete a full register + query round-trip
    // within the deadline, idle fleet notwithstanding.
    let start = Instant::now();
    let mut fresh = NetClient::connect(&addr).expect("fresh client connects");
    fresh
        .set_timeout(Some(deadline))
        .expect("set fresh client timeout");
    let register = fresh
        .request_line(r#"{"op":"register","dataset":"census","generator":"figure2","bound":5}"#)
        .unwrap_or_else(|e| panic!("register starved behind {idle_conns} idle connections: {e}"));
    assert_eq!(
        Json::parse(&register).expect("register JSON").get("ok"),
        Some(&Json::Bool(true)),
        "register failed: {register}"
    );
    // Paper Example 2.12: the estimate must be exactly 3.
    let query = fresh
        .request_line(
            r#"{"op":"query","dataset":"census","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"}]}"#,
        )
        .unwrap_or_else(|e| panic!("query starved behind {idle_conns} idle connections: {e}"));
    let estimate = Json::parse(&query)
        .expect("query JSON")
        .get("results")
        .and_then(Json::as_array)
        .and_then(|r| r[0].get("estimate"))
        .and_then(Json::as_f64);
    assert_eq!(estimate, Some(3.0), "unexpected query response: {query}");
    let elapsed = start.elapsed();
    assert!(
        elapsed <= deadline,
        "round-trip took {elapsed:?}, over the {deadline:?} deadline"
    );

    // The parked fleet must still be alive (idle ≠ dropped).
    for (i, client) in parked.iter_mut().enumerate() {
        let health = client
            .request_line(r#"{"op":"health"}"#)
            .unwrap_or_else(|e| panic!("idle connection {i} died during the soak: {e}"));
        assert_eq!(
            Json::parse(&health).expect("health JSON").get("ok"),
            Some(&Json::Bool(true))
        );
    }

    // Transport gauges through the wire op: every parked connection is
    // idle between requests, so nothing may be waiting for a worker and
    // nothing may have been evicted. ci/net_soak.sh greps this line.
    let stats = fresh
        .request_line(r#"{"op":"server_stats"}"#)
        .expect("server_stats round-trip");
    let stats = Json::parse(&stats).expect("server_stats JSON");
    assert_eq!(
        stats.get("ok"),
        Some(&Json::Bool(true)),
        "server_stats failed: {stats}"
    );
    let series = |group: &str, name: &str| {
        stats
            .get(group)
            .and_then(|g| g.get(name))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing {group} series {name}: {stats}"))
    };
    println!(
        "net_soak: gauges open_connections={} parked_jobs={} evictions={} overloaded={}",
        series("gauges", "pclabel_net_open_connections"),
        series("gauges", "pclabel_net_parked_jobs"),
        series("counters", "pclabel_net_evictions_total"),
        series("counters", "pclabel_net_overloaded_total"),
    );

    // Trace retention stays bounded: the soak pushed 2 × IDLE_CONNS
    // health requests through the daemon, far more than the ring
    // capacity ci/net_soak.sh starts it with, so both rings must sit at
    // or under `retained_per_op`. The script greps this line.
    let mut ring_len = |request: &str| -> (u64, usize) {
        let debug = fresh
            .request_line(request)
            .expect("server_debug round-trip");
        let debug = Json::parse(&debug).expect("server_debug JSON");
        assert_eq!(
            debug.get("ok"),
            Some(&Json::Bool(true)),
            "server_debug failed: {debug}"
        );
        let traces = debug.get("traces").expect("traces section");
        let capacity = traces
            .get("retained_per_op")
            .and_then(Json::as_u64)
            .expect("retained_per_op");
        let len = traces
            .get("traces")
            .and_then(Json::as_array)
            .expect("trace array")
            .len();
        (capacity, len)
    };
    let (capacity, recent) = ring_len(r#"{"op":"server_debug","trace_op":"health"}"#);
    let (_, slowest) = ring_len(r#"{"op":"server_debug","trace_op":"health","slowest":true}"#);
    let health_requests = 2 * idle_conns;
    assert!(
        recent as u64 <= capacity && slowest as u64 <= capacity,
        "trace rings exceeded their bound: {recent} recent / {slowest} slowest > {capacity}"
    );
    assert!(recent > 0, "no health traces retained");
    println!(
        "net_soak: traces retained_per_op={capacity} health_requests={health_requests} \
         recent={recent} slowest={slowest}"
    );

    let shutdown = fresh
        .request_line(r#"{"op":"shutdown"}"#)
        .expect("shutdown round-trip");
    assert_eq!(
        Json::parse(&shutdown).expect("shutdown JSON").get("ok"),
        Some(&Json::Bool(true)),
        "shutdown refused: {shutdown}"
    );

    println!("net_soak: ok ({idle_conns} idle connections, fresh round-trip in {elapsed:?})");
}
