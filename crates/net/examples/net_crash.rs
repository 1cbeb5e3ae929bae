//! Crash-recovery client for a durable `pclabel-netd` (used by
//! `ci/crash_recovery.sh`).
//!
//! The harness SIGKILLs the daemon mid-append-burst and restarts it on
//! the same `--data-dir`; this client drives each phase:
//!
//! ```text
//! net_crash prepare ADDR           register census (figure2, bound 5)
//! net_crash burst ADDR             append one row per request until the
//!                                  connection dies under it; prints
//!                                  "acked N" after every acknowledged
//!                                  append so the harness knows the
//!                                  durable floor at kill time
//! net_crash verify ADDR ACKED      assert the recovered row count is
//!                                  18+ACKED or 18+ACKED+1 (every acked
//!                                  append survived; at most the one
//!                                  in-flight append may also have), the
//!                                  recovered label answers queries, and
//!                                  server_stats carries the durability
//!                                  section
//! net_crash dump ADDR              print a deterministic state dump
//!                                  (query batch + per-dataset stats)
//!                                  then ask the daemon to shut down —
//!                                  two dumps from two fresh recoveries
//!                                  of the same directory must be
//!                                  byte-identical (the check is that
//!                                  two recoveries agree, so each dump
//!                                  needs its own boot)
//! net_crash shutdown ADDR          ask the daemon to shut down cleanly
//! ```

use pclabel_engine::json::Json;
use pclabel_net::client::{HttpClient, NetClient};

fn usage() -> ! {
    eprintln!("usage: net_crash prepare|burst|dump|shutdown ADDR | verify ADDR ACKED");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, addr) = match (args.first(), args.get(1)) {
        (Some(cmd), Some(addr)) => (cmd.as_str(), addr.as_str()),
        _ => usage(),
    };
    match cmd {
        "prepare" => prepare(addr),
        "burst" => burst(addr),
        "verify" => {
            let acked = args
                .get(2)
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or_else(|| usage());
            verify(addr, acked);
        }
        "dump" => dump(addr),
        "shutdown" => {
            let mut client = NetClient::connect(addr).expect("connect to pclabel-netd");
            shutdown(&mut client);
        }
        _ => usage(),
    }
}

fn shutdown(client: &mut NetClient) {
    let response = client
        .request_line(r#"{"op":"shutdown"}"#)
        .expect("shutdown round-trip");
    let parsed = Json::parse(&response).expect("shutdown response JSON");
    assert_eq!(
        parsed.get("ok"),
        Some(&Json::Bool(true)),
        "shutdown refused: {response}"
    );
}

fn prepare(addr: &str) {
    let mut client = NetClient::connect(addr).expect("connect to pclabel-netd");
    let response = client
        .request_line(r#"{"op":"register","dataset":"census","generator":"figure2","bound":5}"#)
        .expect("register round-trip");
    let parsed = Json::parse(&response).expect("register response JSON");
    assert_eq!(
        parsed.get("ok"),
        Some(&Json::Bool(true)),
        "register failed: {response}"
    );
    println!("net_crash: prepared (census registered)");
}

/// One appended row per request. Every "acked N" line on stdout means
/// the daemon acknowledged append N — under `--fsync always` that row
/// is durable and MUST survive the SIGKILL the harness delivers while
/// this loop is running. The loop ends when the connection dies —
/// the daemon was killed under us, which is exactly the point.
fn burst(addr: &str) {
    let mut client = NetClient::connect(addr).expect("connect to pclabel-netd");
    let request = r#"{"op":"append_rows","dataset":"census","rows":[["Female","20-39","Caucasian","married"]]}"#;
    let mut acked: u64 = 0;
    while let Ok(response) = client.request_line(request) {
        match Json::parse(&response) {
            Ok(parsed) if parsed.get("ok") == Some(&Json::Bool(true)) => {
                acked += 1;
                println!("acked {acked}");
            }
            _ => panic!("append refused before the kill: {response}"),
        }
    }
    println!("net_crash: burst ended after {acked} acked appends");
}

fn verify(addr: &str, acked: u64) {
    // figure2_sample has 18 rows; each acked burst append added one.
    let min_rows = 18 + acked;
    let mut http = HttpClient::connect(addr).expect("HTTP connect");

    // Recovered row count: every acked append survived; at most the one
    // append in flight at kill time may have landed as well.
    let stats = http
        .request("GET", "/stats?dataset=census", None)
        .expect("GET /stats");
    assert_eq!(stats.status, 200, "stats: {}", stats.body);
    let parsed = Json::parse(&stats.body).expect("stats JSON");
    let rows = parsed
        .get("rows")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats carries no row count: {}", stats.body));
    assert!(
        rows == min_rows || rows == min_rows + 1,
        "recovered {rows} rows; acked appends guarantee {min_rows} (+1 in-flight at most)"
    );

    // The recovered label still answers queries. The probed pattern
    // avoids the values the burst appends, so its estimate is finite
    // and stable no matter where the kill landed.
    let mut client = NetClient::connect(addr).expect("framed connect");
    let response = client
        .request_line(
            r#"{"op":"query","dataset":"census","patterns":[{"gender":"Male","age group":"under 20"}]}"#,
        )
        .expect("query round-trip");
    let parsed = Json::parse(&response).expect("query response JSON");
    let estimate = parsed
        .get("results")
        .and_then(Json::as_array)
        .and_then(|r| r[0].get("estimate"))
        .and_then(Json::as_f64);
    assert!(
        estimate.is_some_and(|e| e.is_finite()),
        "recovered label cannot answer queries: {response}"
    );

    // The durability plane must be live and reporting.
    let server_stats = http
        .request("POST", "/server_stats", Some("{}"))
        .expect("POST /server_stats");
    assert_eq!(
        server_stats.status, 200,
        "server_stats: {}",
        server_stats.body
    );
    let parsed = Json::parse(&server_stats.body).expect("server_stats JSON");
    let durability = parsed
        .get("durability")
        .unwrap_or_else(|| panic!("no durability section: {}", server_stats.body));
    // One register record plus one record per acked append must have
    // been trusted by replay.
    let last_lsn = durability
        .get("last_lsn")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no last_lsn: {}", server_stats.body));
    let lsn_floor = 1 + acked;
    assert!(
        last_lsn >= lsn_floor,
        "last_lsn {last_lsn} below the acked floor {lsn_floor}"
    );

    println!("net_crash: verified ({rows} rows recovered, last_lsn {last_lsn})");
}

/// Deterministic state dump: the same requests in the same order from a
/// fresh recovery must print the same bytes every time. Ends with a
/// shutdown op so the harness can restart the daemon cleanly.
fn dump(addr: &str) {
    let mut client = NetClient::connect(addr).expect("connect to pclabel-netd");
    for request in [
        r#"{"op":"query","dataset":"census","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"},{"gender":"Male"},{"race":"Hispanic","marital status":"single"}]}"#,
        r#"{"op":"stats","dataset":"census"}"#,
    ] {
        let response = client.request_line(request).expect("dump round-trip");
        println!("{response}");
    }
    shutdown(&mut client);
}
