//! End-to-end tests for the network front end, including the acceptance
//! criterion: the stdin/stdout serve loop (`pclabel-serve`'s code path),
//! the framed TCP transport and the HTTP adapter produce byte-identical
//! JSON responses for one replayed request script — in-process and
//! through the real `pclabel-netd` binary. The server runs on Unix only.
#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use pclabel_engine::json::Json;
use pclabel_engine::query::EngineConfig;
use pclabel_engine::serve::{serve, Dispatcher};
use pclabel_net::client::{HttpClient, NetClient};
use pclabel_net::server::{NetServer, ServerConfig, ServerHandle};

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        // Short stall deadlines, so a test that wedges a connection
        // fails fast instead of hanging.
        read_timeout: Some(Duration::from_millis(150)),
        write_timeout: Some(Duration::from_secs(2)),
        ..ServerConfig::default()
    }
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    NetServer::spawn(
        Arc::new(Dispatcher::with_config(EngineConfig::default())),
        config,
    )
    .expect("spawn test server")
}

/// One request script exercising every op, success and failure paths.
/// Each transport replays it against a fresh engine, so per-dataset
/// state (generations, cache counters) evolves identically.
fn script() -> Vec<&'static str> {
    vec![
        r#"{"op":"register","dataset":"census","generator":"figure2","bound":5}"#,
        r#"{"op":"register","dataset":"b","generator":"figure2","label_attrs":["gender","age group"]}"#,
        r#"{"op":"query","dataset":"census","id":"q1","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"},{"age group":"20-39"}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"age group":"20-39"}]}"#,
        // Query lines the network transports answer on the typed path:
        // a numeric id, numeric and escaped values, an unknown dataset
        // and an unknown value.
        r#"{"op":"register","dataset":"t","csv":"a,b\n1,x\n2,\"q\"\"t\"\n2.5,\\u\n","label_attrs":["a"]}"#,
        r#"{"op":"query","dataset":"t","id":7,"patterns":[{"a":1},{"a":2.0,"b":"q\"t"},{"a":25e-1},{"b":"\\u"},{"b":"\u0078"}]}"#,
        r#"{"op":"query","dataset":"ghost","id":"q3","patterns":[{"a":"1"}]}"#,
        r#"{"op":"query","dataset":"census","patterns":[{"gender":"Other"},{"gender":"Female"}]}"#,
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

/// Zeroes the non-deterministic `uptime_seconds` member (the `health`
/// op reports wall-clock uptime, which can never agree across two
/// replays) so byte-identity assertions compare everything else. Only
/// lines that carry it are re-serialized: every other line is compared
/// as the exact bytes the transport sent, number text and spacing
/// included.
fn canon(line: &str) -> String {
    if !line.contains("\"uptime_seconds\"") {
        return line.to_string();
    }
    match Json::parse(line) {
        Ok(Json::Obj(mut members)) => {
            for (k, v) in members.iter_mut() {
                if k == "uptime_seconds" {
                    *v = Json::num(0.0);
                }
            }
            Json::Obj(members).to_string()
        }
        _ => line.to_string(),
    }
}

/// The script replayed through the in-process serve loop (exactly the
/// `pclabel-serve` code path).
fn stdio_responses() -> Vec<String> {
    let dispatcher = Dispatcher::with_config(EngineConfig::default());
    let input = script().join("\n");
    let mut out = Vec::new();
    serve(&dispatcher, input.as_bytes(), &mut out).expect("serve loop");
    String::from_utf8(out)
        .expect("UTF-8 output")
        .lines()
        .map(canon)
        .collect()
}

/// Runs once per readiness backend: epoll and the portable `poll(2)`.
#[test]
fn framed_tcp_is_byte_identical_to_serve_loop() {
    let expected = stdio_responses();
    for force_poll in [false, true] {
        let server = spawn_server(ServerConfig {
            force_poll_backend: force_poll,
            ..test_config()
        });
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let got: Vec<String> = script()
            .iter()
            .map(|line| canon(&client.request_line(line).expect("framed round-trip")))
            .collect();
        server.shutdown();
        assert_eq!(expected, got, "force_poll={force_poll}");
    }
}

/// Runs once per readiness backend: epoll and the portable `poll(2)`.
#[test]
fn http_generic_post_is_byte_identical_to_serve_loop() {
    let expected = stdio_responses();
    for force_poll in [false, true] {
        let server = spawn_server(ServerConfig {
            force_poll_backend: force_poll,
            ..test_config()
        });
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let got: Vec<String> = script()
            .iter()
            .map(|line| {
                canon(
                    &client
                        .request("POST", "/", Some(line))
                        .expect("HTTP round-trip")
                        .body,
                )
            })
            .collect();
        server.shutdown();
        assert_eq!(expected, got, "force_poll={force_poll}");
    }
}

#[test]
fn netd_binary_is_byte_identical_to_serve_loop() {
    let expected = stdio_responses();
    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-netd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--timeout-ms",
            "300",
            "--allow-remote-shutdown",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pclabel-netd");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup banner");
    // "pclabel-netd: listening on 127.0.0.1:PORT (2 workers)"
    let addr = banner
        .split_whitespace()
        .nth(3)
        .expect("address in banner")
        .to_string();

    let mut client = NetClient::connect(&addr).expect("connect to binary");
    let got: Vec<String> = script()
        .iter()
        .map(|line| canon(&client.request_line(line).expect("binary round-trip")))
        .collect();
    let bye = client.request_line(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(
        Json::parse(&bye).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );
    let status = child.wait().expect("netd exits");
    assert!(status.success());
    assert_eq!(expected, got);
}

/// A framed line of 10,000 `[` and 10,000 `]` is far under the frame cap,
/// and parsing it used to recurse once per level until a worker's stack
/// overflowed and the daemon aborted. It must come back as a JSON error,
/// as must a query whose id nests as deep, and the same connection must
/// go on serving.
#[test]
fn netd_answers_a_deeply_nested_line_and_keeps_serving() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-netd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--allow-remote-shutdown",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pclabel-netd");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .expect("address in banner")
        .to_string();

    let mut client = NetClient::connect(&addr).expect("connect to binary");
    let deep = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000));
    let deep_id = format!(r#"{{"op":"query","dataset":"x","id":{deep},"patterns":[]}}"#);
    for line in [&deep, &deep_id] {
        let response = client.request_line(line).expect("an answer, not a hangup");
        let parsed = Json::parse(&response).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)), "{response}");
        assert!(response.contains("nesting deeper than"), "{response}");
        let health = client.request_line(r#"{"op":"health"}"#).unwrap();
        assert_eq!(
            Json::parse(&health).unwrap().get("ok"),
            Some(&Json::Bool(true)),
            "{health}"
        );
    }
    client.request_line(r#"{"op":"shutdown"}"#).unwrap();
    assert!(child.wait().expect("netd exits").success());
}

/// A request framed both by `Transfer-Encoding: chunked` and by
/// `Content-Length` is refused with 400, and its connection closes
/// (RFC 9112 §6.1): a `GET /healthz` pipelined behind it gets no answer.
#[test]
fn netd_closes_the_connection_after_a_request_with_both_framings() {
    use std::io::{Read, Write};

    let (mut child, addr) = spawn_netd();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to binary");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"POST /query HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\
              Content-Length: 5\r\n\r\n0\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
    // The server closes the connection, so reading to the end returns.
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("the connection closes");
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(
        response.to_ascii_lowercase().contains("connection: close"),
        "{response}"
    );
    assert_eq!(
        response.matches("HTTP/1.1 ").count(),
        1,
        "the pipelined request was answered: {response}"
    );

    let mut client = NetClient::connect(&addr).expect("connect to binary");
    client.request_line(r#"{"op":"shutdown"}"#).unwrap();
    assert!(child.wait().expect("netd exits").success());
}

/// Starts the built `pclabel-netd` on an ephemeral port with remote
/// shutdown allowed, and returns it with the address from its banner.
fn spawn_netd() -> (std::process::Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-netd"))
        .args(["--listen", "127.0.0.1:0", "--allow-remote-shutdown"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pclabel-netd");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup banner");
    let addr = banner.split_whitespace().nth(3).expect("address in banner");
    // Kept open: the daemon writes to it until it exits.
    child.stdout = Some(stdout.into_inner());
    (child, addr.to_string())
}

/// Every `Connection` field is one token list: a `close` in the second of
/// two fields ends the connection after its response, so the request
/// pipelined behind it is never answered.
#[test]
fn netd_closes_the_connection_on_a_close_token_in_a_later_connection_field() {
    use std::io::{Read, Write};

    let (mut child, addr) = spawn_netd();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to binary");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive\r\n\
              Connection: close\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
    // The server closes the connection, so reading to the end returns.
    let mut response = String::new();
    let read = stream.read_to_string(&mut response);
    let mut client = NetClient::connect(&addr).expect("connect to binary");
    client.request_line(r#"{"op":"shutdown"}"#).unwrap();
    assert!(child.wait().expect("netd exits").success());
    read.unwrap_or_else(|e| panic!("the connection stayed open ({e}) after {response}"));
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    assert!(
        response.to_ascii_lowercase().contains("connection: close"),
        "{response}"
    );
    assert_eq!(
        response.matches("HTTP/1.1 ").count(),
        1,
        "the pipelined request was answered: {response}"
    );
}

/// The daemon's command-line contract with the repo benchmark: the flags
/// `perfbench` starts `pclabel-netd` with (its `ServerFlags::args()`,
/// with the durable workload's data directory) boot a serving daemon,
/// and `--model` accepts nothing but `reactor`.
#[test]
fn netd_accepts_the_benchmark_command_line_and_only_the_reactor_model() {
    use std::io::Read;
    use std::time::Instant;

    let data_dir = std::env::temp_dir().join(format!("pclabel-netd-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-netd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--model",
            "reactor",
            "--allow-remote-shutdown",
            "--log-level",
            "warn",
            "--slow-query-ms",
            "0",
            "--idle-ms",
            "0",
            "--reactors",
            "1",
            "--workers",
            "2",
            "--queue",
            "64",
            "--max-parked",
            "256",
            "--max-frame",
            "67108864",
            "--timeout-ms",
            "60000",
            "--fsync",
            "batch",
            "--snapshot-wal-bytes",
            "4194304",
            "--data-dir",
        ])
        .arg(&data_dir)
        .env("PCLABEL_QUERY_THREADS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pclabel-netd");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .expect("address in banner")
        .to_string();
    let mut client = NetClient::connect(&addr).expect("connect to binary");
    let register = client
        .request_line(r#"{"op":"register","dataset":"census","generator":"figure2","bound":5}"#)
        .expect("register round-trip");
    assert_eq!(
        Json::parse(&register).unwrap().get("ok"),
        Some(&Json::Bool(true)),
        "{register}"
    );
    let bye = client.request_line(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(
        Json::parse(&bye).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );
    assert!(child.wait().expect("netd exits").success());
    let _ = std::fs::remove_dir_all(&data_dir);

    // Any other model is a usage error. The wait is bounded: a daemon
    // that accepted the flag would serve until killed.
    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-netd"))
        .args(["--listen", "127.0.0.1:0", "--model", "pool"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn pclabel-netd");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll netd") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("pclabel-netd --model pool started a server");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(2));
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("child stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    assert!(stderr.contains("reactor"), "{stderr}");
}

/// The regression the reactor exists to fix: with W workers, W + 4 idle
/// keep-alive connections must not stop a fresh client from completing
/// a register + query round-trip.
#[test]
fn reactor_idle_connections_do_not_starve_new_clients() {
    let workers = 2usize;
    let server = spawn_server(ServerConfig {
        workers,
        ..test_config()
    });

    // Park workers + 4 keep-alive connections, each proven live with one
    // request so the server has fully adopted them.
    let mut idle = Vec::new();
    for i in 0..workers + 4 {
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let health = client.request_line(r#"{"op":"health"}"#).unwrap();
        assert_eq!(
            Json::parse(&health).unwrap().get("ok"),
            Some(&Json::Bool(true)),
            "idle conn {i}"
        );
        idle.push(client);
    }

    // A fresh client must get through within 2 s.
    let mut fresh = NetClient::connect(server.local_addr()).unwrap();
    fresh.set_timeout(Some(Duration::from_secs(2))).unwrap();
    let register = fresh
        .request_line(r#"{"op":"register","dataset":"census","generator":"figure2","bound":5}"#)
        .expect("register while workers+4 connections idle");
    assert_eq!(
        Json::parse(&register).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );
    let query = fresh
        .request_line(
            r#"{"op":"query","dataset":"census","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"}]}"#,
        )
        .expect("query while workers+4 connections idle");
    let estimate = Json::parse(&query)
        .unwrap()
        .get("results")
        .and_then(Json::as_array)
        .and_then(|r| r[0].get("estimate"))
        .and_then(Json::as_f64);
    assert_eq!(estimate, Some(3.0));

    // The parked connections are still alive afterwards.
    for client in idle.iter_mut() {
        let health = client.request_line(r#"{"op":"health"}"#).unwrap();
        assert_eq!(
            Json::parse(&health).unwrap().get("ok"),
            Some(&Json::Bool(true))
        );
    }
    server.shutdown();
}

/// Idle deadlines: connections quiet for longer than `idle_timeout` are
/// closed; active ones are not.
#[test]
fn reactor_idle_timeout_evicts_quiet_connections() {
    // Generous margin between the chatty cadence (100 ms) and the idle
    // deadline (600 ms) so a loaded CI runner's scheduling stalls
    // cannot push an active connection over the deadline.
    let server = spawn_server(ServerConfig {
        idle_timeout: Some(Duration::from_millis(600)),
        ..test_config()
    });
    let mut quiet = NetClient::connect(server.local_addr()).unwrap();
    let ok = quiet.request_line(r#"{"op":"health"}"#).unwrap();
    assert_eq!(Json::parse(&ok).unwrap().get("ok"), Some(&Json::Bool(true)));

    // A connection that keeps talking stays alive across the window…
    let mut chatty = NetClient::connect(server.local_addr()).unwrap();
    for _ in 0..8 {
        std::thread::sleep(Duration::from_millis(100));
        let ok = chatty.request_line(r#"{"op":"health"}"#).unwrap();
        assert_eq!(Json::parse(&ok).unwrap().get("ok"), Some(&Json::Bool(true)));
    }
    // …while the quiet one was evicted (its next request fails).
    assert!(
        quiet.request_line(r#"{"op":"health"}"#).is_err(),
        "idle connection should have been closed by the idle deadline"
    );
    server.shutdown();
}

/// The connection cap admits newcomers by evicting the
/// least-recently-active idle connection.
#[test]
fn reactor_connection_cap_evicts_lru_idle() {
    let server = spawn_server(ServerConfig {
        max_connections: 2,
        ..test_config()
    });
    let mut oldest = NetClient::connect(server.local_addr()).unwrap();
    oldest.request_line(r#"{"op":"health"}"#).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let mut newer = NetClient::connect(server.local_addr()).unwrap();
    newer.request_line(r#"{"op":"health"}"#).unwrap();

    // Third connection: over the cap, evicts `oldest` (the LRU idle).
    let mut third = NetClient::connect(server.local_addr()).unwrap();
    let ok = third.request_line(r#"{"op":"health"}"#).unwrap();
    assert_eq!(Json::parse(&ok).unwrap().get("ok"), Some(&Json::Bool(true)));
    assert_eq!(
        Json::parse(&newer.request_line(r#"{"op":"health"}"#).unwrap())
            .unwrap()
            .get("ok"),
        Some(&Json::Bool(true)),
        "newer idle connection must survive"
    );
    assert!(
        oldest.request_line(r#"{"op":"health"}"#).is_err(),
        "LRU idle connection should have been evicted for the newcomer"
    );
    server.shutdown();
}

#[test]
fn http_named_endpoints_round_trip() {
    let server = spawn_server(test_config());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // GET /healthz before any registration.
    let health = client.request("GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    let health_json = Json::parse(&health.body).unwrap();
    assert_eq!(health_json.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health_json.get("datasets").and_then(Json::as_u64), Some(0));

    // POST /register with the op implied by the path.
    let register = client
        .request(
            "POST",
            "/register",
            Some(r#"{"dataset":"census","generator":"figure2","bound":5}"#),
        )
        .unwrap();
    assert_eq!(register.status, 200, "{}", register.body);

    // POST /query — paper Example 2.12 through HTTP.
    let query = client
        .request(
            "POST",
            "/query",
            Some(
                r#"{"dataset":"census","patterns":[{"gender":"Female","age group":"20-39","marital status":"married"}]}"#,
            ),
        )
        .unwrap();
    assert_eq!(query.status, 200);
    let results = Json::parse(&query.body)
        .unwrap()
        .get("results")
        .and_then(Json::as_array)
        .unwrap()
        .to_vec();
    assert_eq!(results[0].get("estimate").and_then(Json::as_f64), Some(3.0));

    // GET /stats?dataset=census and the parameterless list degradation.
    let stats = client
        .request("GET", "/stats?dataset=census", None)
        .unwrap();
    assert_eq!(stats.status, 200);
    assert_eq!(
        Json::parse(&stats.body)
            .unwrap()
            .get("op")
            .and_then(Json::as_str),
        Some("stats")
    );
    let list = client.request("GET", "/stats", None).unwrap();
    assert_eq!(
        Json::parse(&list.body)
            .unwrap()
            .get("op")
            .and_then(Json::as_str),
        Some("list")
    );

    // All of the above reused one keep-alive connection; a failed
    // dispatch maps to 400 with the same JSON error body shape.
    let missing = client
        .request(
            "POST",
            "/query",
            Some(r#"{"dataset":"ghost","patterns":[]}"#),
        )
        .unwrap();
    assert_eq!(missing.status, 400);
    assert_eq!(
        Json::parse(&missing.body).unwrap().get("ok"),
        Some(&Json::Bool(false))
    );

    // Unknown path and unsupported method.
    let lost = client.request("GET", "/nope", None).unwrap();
    assert_eq!(lost.status, 404);
    let put = client.request("PUT", "/query", Some("{}")).unwrap();
    assert_eq!(put.status, 405);

    // Op/path mismatch is rejected before dispatch.
    let mismatch = client
        .request(
            "POST",
            "/query",
            Some(r#"{"op":"drop","dataset":"census"}"#),
        )
        .unwrap();
    assert_eq!(mismatch.status, 400);

    server.shutdown();
}

#[test]
fn expect_100_continue_is_acknowledged() {
    use std::io::{Read, Write};

    let server = spawn_server(test_config());
    let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Send the head only, like curl does for larger bodies, and wait
    // for the interim response before the body.
    let body = r#"{"op":"health"}"#;
    let head = format!(
        "POST / HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    let mut interim = [0u8; 25];
    stream.read_exact(&mut interim).unwrap();
    assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");

    stream.write_all(body.as_bytes()).unwrap();
    let mut response = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let n = stream.read(&mut chunk).unwrap();
        response.extend_from_slice(&chunk[..n]);
        if response.windows(4).any(|w| w == b"\r\n\r\n") && response.ends_with(b"}") {
            break;
        }
    }
    let text = String::from_utf8(response).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains(r#""status":"ok""#), "{text}");
    server.shutdown();
}

/// Drain, framed error response, close.
#[test]
fn oversized_frames_are_rejected_with_an_error_frame() {
    let server = spawn_server(ServerConfig {
        max_frame: 128,
        ..test_config()
    });
    let mut client = NetClient::connect(server.local_addr()).unwrap();

    // Within the limit: fine.
    let ok = client.request_line(r#"{"op":"list"}"#).unwrap();
    assert_eq!(Json::parse(&ok).unwrap().get("ok"), Some(&Json::Bool(true)));

    // Over the limit: the server reports and closes the connection
    // (the stream cannot be re-synchronised past an unread payload).
    let huge = format!(
        r#"{{"op":"query","dataset":"x","patterns":[{{"a":"{}"}}]}}"#,
        "v".repeat(4096)
    );
    let response = client.request_line(&huge).unwrap();
    let parsed = Json::parse(&response).unwrap();
    assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)));
    assert!(parsed
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("exceeds maximum"));
    assert!(client.request_line(r#"{"op":"list"}"#).is_err());

    server.shutdown();
}

#[test]
fn remote_shutdown_is_gated_by_config() {
    // Disabled (default): the op is refused and the server keeps
    // serving.
    let server = spawn_server(test_config());
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let refused = client.request_line(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(
        Json::parse(&refused).unwrap().get("ok"),
        Some(&Json::Bool(false))
    );
    let alive = client.request_line(r#"{"op":"health"}"#).unwrap();
    assert_eq!(
        Json::parse(&alive).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );
    server.shutdown();

    // Enabled: the op's own response is still delivered, then the
    // whole server winds down.
    let server = spawn_server(ServerConfig {
        allow_remote_shutdown: true,
        ..test_config()
    });
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).unwrap();
    let accepted = client.request_line(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(
        Json::parse(&accepted).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );
    server.wait(); // returns because the client's op stopped the server
}

/// The acceptance path for incremental ingest: `append_rows` through the
/// real `pclabel-netd` binary must answer every query exactly like a
/// dataset registered with the full data up front — on both the
/// incremental (schema-stable) and rebuild (dictionary-growth) paths.
#[test]
fn netd_append_rows_equals_full_rebuild() {
    fn csv(rows: std::ops::Range<usize>, extra: Option<&str>) -> String {
        let mut out = String::from("c0,c1,c2,c3\n");
        for r in rows {
            out.push_str(&format!(
                "v{},v{},v{},v{}\n",
                r % 5,
                (r / 5) % 4,
                (r * 7) % 3,
                r % 2
            ));
        }
        if let Some(row) = extra {
            out.push_str(row);
        }
        out
    }
    fn patterns() -> String {
        let mut out = Vec::new();
        for i in 0..40usize {
            out.push(match i % 4 {
                // Inside S = {c0, c1}: exact path.
                0 => format!(r#"{{"c0":"v{}","c1":"v{}"}}"#, i % 5, (i / 5) % 4),
                // Straddling.
                1 => format!(r#"{{"c0":"v{}","c2":"v{}"}}"#, i % 5, i % 3),
                // Outside S.
                2 => format!(r#"{{"c2":"v{}","c3":"v{}"}}"#, i % 3, i % 2),
                // Unseen value: estimate 0 on both sides.
                _ => r#"{"c0":"v0","c1":"ghost"}"#.to_string(),
            });
        }
        out.join(",")
    }
    /// The `"results"` array of a query response (everything that must
    /// agree between the appended and the full dataset).
    fn results_of(response: &str) -> Json {
        Json::parse(response)
            .expect("query response JSON")
            .get("results")
            .expect("results array")
            .clone()
    }

    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-netd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--timeout-ms",
            "2000",
            "--allow-remote-shutdown",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pclabel-netd");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .expect("address in banner")
        .to_string();
    let mut client = NetClient::connect(&addr).expect("connect to binary");
    let mut send = |line: &str| -> Json {
        let response = client.request_line(line).expect("round-trip");
        Json::parse(&response).unwrap_or_else(|e| panic!("bad JSON {e}: {response}"))
    };

    // "base" gets the first 120 rows; "full" all 160 up front.
    let register = |name: &str, body: &str| {
        format!(
            r#"{{"op":"register","dataset":"{name}","csv":"{}","label_attrs":["c0","c1"]}}"#,
            body.replace('\n', "\\n")
        )
    };
    assert_eq!(
        send(&register("base", &csv(0..120, None))).get("ok"),
        Some(&Json::Bool(true))
    );
    assert_eq!(
        send(&register("full", &csv(0..160, None))).get("ok"),
        Some(&Json::Bool(true))
    );

    // Append rows 120..160 (values all seen before: incremental).
    let rows: Vec<String> = (120..160)
        .map(|r| {
            format!(
                r#"["v{}","v{}","v{}","v{}"]"#,
                r % 5,
                (r / 5) % 4,
                (r * 7) % 3,
                r % 2
            )
        })
        .collect();
    let append = send(&format!(
        r#"{{"op":"append_rows","dataset":"base","rows":[{}]}}"#,
        rows.join(",")
    ));
    assert_eq!(append.get("ok"), Some(&Json::Bool(true)), "{append}");
    assert_eq!(append.get("incremental"), Some(&Json::Bool(true)));
    assert_eq!(append.get("rows").and_then(Json::as_u64), Some(160));
    assert!(!append
        .get("touched_shards")
        .and_then(Json::as_array)
        .unwrap()
        .is_empty());

    // Every pattern answers identically on the appended dataset and the
    // from-scratch one.
    let query = |name: &str| {
        format!(
            r#"{{"op":"query","dataset":"{name}","patterns":[{}]}}"#,
            patterns()
        )
    };
    let base_results = results_of(&client.request_line(&query("base")).expect("base query"));
    let full_results = results_of(&client.request_line(&query("full")).expect("full query"));
    assert_eq!(base_results, full_results);

    // Stats agree on |PC| (and expose the shard count).
    let mut send2 = |line: &str| -> Json {
        let response = client.request_line(line).expect("round-trip");
        Json::parse(&response).unwrap()
    };
    let base_stats = send2(r#"{"op":"stats","dataset":"base"}"#);
    let full_stats = send2(r#"{"op":"stats","dataset":"full"}"#);
    assert_eq!(
        base_stats.get("label_size").and_then(Json::as_u64),
        full_stats.get("label_size").and_then(Json::as_u64)
    );
    assert!(
        base_stats
            .get("count_shards")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );

    // Now grow a dictionary: the rebuild path must also match a full
    // registration that includes the new row.
    let extra = "brand-new,v0,v0,v0\n";
    let append =
        send2(r#"{"op":"append_rows","dataset":"base","rows":[["brand-new","v0","v0","v0"]]}"#);
    assert_eq!(append.get("ok"), Some(&Json::Bool(true)), "{append}");
    assert_eq!(append.get("incremental"), Some(&Json::Bool(false)));
    assert_eq!(
        send2(&register("full2", &csv(0..160, Some(extra)))).get("ok"),
        Some(&Json::Bool(true))
    );
    let probe = |name: &str| {
        format!(
            r#"{{"op":"query","dataset":"{name}","patterns":[{},{{"c0":"brand-new"}}]}}"#,
            patterns()
        )
    };
    let base_results = results_of(&client.request_line(&probe("base")).expect("base query"));
    let full_results = results_of(&client.request_line(&probe("full2")).expect("full2 query"));
    assert_eq!(base_results, full_results);

    let bye = client.request_line(r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(
        Json::parse(&bye).unwrap().get("ok"),
        Some(&Json::Bool(true))
    );
    assert!(child.wait().expect("netd exits").success());
}

/// Backpressure past the parked-job cap: with one worker, a one-slot
/// queue and `max_parked: 0`, a third concurrent request is answered
/// `{"ok":false,"error":"overloaded"}` immediately (instead of growing
/// the reactor's parking lot), and the connection remains usable.
#[test]
fn reactor_overload_past_parked_cap_answers_overloaded() {
    use std::sync::mpsc;

    let dispatcher = Arc::new(Dispatcher::with_config(EngineConfig::default()));
    let server = NetServer::spawn(
        Arc::clone(&dispatcher),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            max_parked: 0,
            ..ServerConfig::default()
        },
    )
    .expect("spawn overload server");
    let addr = server.local_addr();

    let mut setup = NetClient::connect(addr).unwrap();
    let ok = setup
        .request_line(r#"{"op":"register","dataset":"census","generator":"figure2","label_attrs":["gender"]}"#)
        .unwrap();
    assert_eq!(Json::parse(&ok).unwrap().get("ok"), Some(&Json::Bool(true)));
    let entry = dispatcher.engine().store().get("census").unwrap();

    std::thread::scope(|scope| {
        // The gate: a reader holds the entry's read lock until the test
        // opens it, so an append blocks on the write lock and holds the
        // one worker for exactly as long as the test needs. The sender
        // lives in this closure, so a failed assertion opens the gate
        // while unwinding.
        let (held_tx, held_rx) = mpsc::channel();
        let (open_tx, open_rx) = mpsc::channel::<()>();
        let entry = &entry;
        scope.spawn(move || {
            entry.with_snapshot(|_, _, _| {
                held_tx.send(()).unwrap();
                let _ = open_rx.recv();
            })
        });
        held_rx.recv().unwrap();

        let append = r#"{"op":"append_rows","dataset":"census","rows":[["Female","20-39","Hispanic","married"]]}"#;
        for _ in 0..2 {
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("append client connects");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let response = client.request_line(append).expect("append round-trip");
                assert_eq!(
                    Json::parse(&response).expect("append JSON").get("ok"),
                    Some(&Json::Bool(true)),
                    "{response}"
                );
            });
            // First append occupies the worker, second the queue slot.
            std::thread::sleep(Duration::from_millis(200));
        }

        // Worker busy + queue full + nothing may park: refused, fast.
        let mut probe = NetClient::connect(addr).expect("probe connects");
        probe.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let refused = probe.request_line(r#"{"op":"health"}"#).expect("refusal");
        let parsed = Json::parse(&refused).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)), "{refused}");
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("overloaded")
        );

        // The refused connection was not closed: once the gate opens and
        // the appends drain, the same connection serves again.
        drop(open_tx);
        probe.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let mut recovered = false;
        for _ in 0..600 {
            std::thread::sleep(Duration::from_millis(100));
            match probe.request_line(r#"{"op":"health"}"#) {
                Ok(response)
                    if Json::parse(&response).unwrap().get("ok") == Some(&Json::Bool(true)) =>
                {
                    recovered = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(recovered, "overloaded connection must recover");
    });
    assert_eq!(entry.generation(), 2, "both gated appends landed");
    server.shutdown();
}

/// The one dispatch queue holds `queue_capacity + reactors × max_parked`
/// requests in arrival order. With one worker held on a gate,
/// `queue_capacity: 1` and `max_parked: 1` on one loop, the next two
/// requests wait in it, a fourth is refused with `overloaded`, and both
/// waiting requests are answered once the gate opens.
#[test]
fn dispatch_queue_holds_queue_capacity_plus_the_loops_parked_share() {
    use std::sync::mpsc;

    let dispatcher = Arc::new(Dispatcher::with_config(EngineConfig::default()));
    let server = NetServer::spawn(
        Arc::clone(&dispatcher),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            max_parked: 1,
            ..ServerConfig::default()
        },
    )
    .expect("spawn queue server");
    let addr = server.local_addr();
    let registry = dispatcher.telemetry().registry();
    let waiting = registry.gauge("pclabel_net_parked_jobs", "", &[]);
    let refused = registry.counter("pclabel_net_overloaded_total", "", &[]);
    let wait_until = |what: &str, done: &dyn Fn() -> bool| {
        let start = std::time::Instant::now();
        while !done() {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };

    let mut setup = NetClient::connect(addr).unwrap();
    let ok = setup
        .request_line(r#"{"op":"register","dataset":"census","generator":"figure2","label_attrs":["gender"]}"#)
        .unwrap();
    assert_eq!(Json::parse(&ok).unwrap().get("ok"), Some(&Json::Bool(true)));
    let entry = dispatcher.engine().store().get("census").unwrap();
    // The entry and this handle share the dataset; an append holds a
    // third reference from its snapshot until it is installed.
    let dataset = entry.dataset();
    assert_eq!(Arc::strong_count(&dataset), 2);

    std::thread::scope(|scope| {
        // The gate: a reader holds the entry's read lock until the test
        // opens it, so the first append blocks on the write lock and
        // holds the one worker. The sender lives in this closure, so a
        // failed assertion opens the gate while unwinding.
        let (held_tx, held_rx) = mpsc::channel();
        let (open_tx, open_rx) = mpsc::channel::<()>();
        let entry = &entry;
        scope.spawn(move || {
            entry.with_snapshot(|_, _, _| {
                held_tx.send(()).unwrap();
                let _ = open_rx.recv();
            })
        });
        held_rx.recv().unwrap();

        let append = || {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("append client connects");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let response = client
                    .request_line(r#"{"op":"append_rows","dataset":"census","rows":[["Female","20-39","Hispanic","married"]]}"#)
                    .expect("append round-trip");
                assert_eq!(
                    Json::parse(&response).expect("append JSON").get("ok"),
                    Some(&Json::Bool(true)),
                    "{response}"
                );
            })
        };
        let mut appends = vec![append()];
        wait_until("the worker to take the first append", &|| {
            Arc::strong_count(&dataset) == 3
        });
        // The next two requests wait: one in the base slot, one in the
        // loop's parked share.
        appends.push(append());
        wait_until("one waiting request", &|| waiting.get() == 1);
        appends.push(append());
        wait_until("two waiting requests", &|| waiting.get() == 2);
        assert_eq!(refused.get(), 0);

        // A fourth finds the queue full and is refused at once; the two
        // waiting requests stay queued.
        let mut probe = NetClient::connect(addr).expect("probe connects");
        probe.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let refusal = probe.request_line(r#"{"op":"health"}"#).expect("refusal");
        let parsed = Json::parse(&refusal).unwrap();
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(false)), "{refusal}");
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("overloaded")
        );
        assert_eq!((refused.get(), waiting.get()), (1, 2));

        // Open the gate: every append is answered `ok`.
        drop(open_tx);
        for handle in appends {
            handle.join().expect("append answered ok");
        }
    });
    assert_eq!(entry.generation(), 3, "all three appends landed");
    assert_eq!(waiting.get(), 0);
    server.shutdown();
}

/// Observability end to end: a register→query→append session through
/// the real binary advances the expected counters; `/metrics` parses as
/// Prometheus text with no duplicate series; `server_stats` reports the
/// same numbers over the framed protocol; and `HEAD` mirrors `GET`
/// status and headers with an empty body.
#[test]
fn netd_metrics_and_server_stats_observe_a_session() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-netd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--timeout-ms",
            "2000",
            "--allow-remote-shutdown",
            "--log-level",
            "warn",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pclabel-netd");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .expect("address in banner")
        .to_string();

    let mut client = NetClient::connect(&addr).expect("connect to binary");
    let mut send = |line: &str| -> Json {
        let response = client.request_line(line).expect("round-trip");
        Json::parse(&response).unwrap_or_else(|e| panic!("bad JSON {e}: {response}"))
    };
    let register =
        r#"{"op":"register","dataset":"t","csv":"a,b\n1,x\n1,y\n2,x\n","label_attrs":["a","b"]}"#;
    assert_eq!(send(register).get("ok"), Some(&Json::Bool(true)));
    let query = r#"{"op":"query","dataset":"t","patterns":[{"a":"1","b":"x"}]}"#;
    for _ in 0..2 {
        assert_eq!(send(query).get("ok"), Some(&Json::Bool(true)));
    }
    let append = r#"{"op":"append_rows","dataset":"t","rows":[["1","x"]]}"#;
    assert_eq!(send(append).get("ok"), Some(&Json::Bool(true)));

    // The Prometheus scrape covers engine counters, per-dataset cache
    // series and the transport gauges — and does not count itself.
    let mut http = HttpClient::connect(&addr).expect("HTTP connect");
    let metrics = http.request("GET", "/metrics", None).unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = metrics.body.clone();
    for needle in [
        "pclabel_requests_total{op=\"register\"} 1",
        "pclabel_requests_total{op=\"query\"} 2",
        "pclabel_requests_total{op=\"append_rows\"} 1",
        "pclabel_cache_hits_total{dataset=\"t\"} 1",
        "pclabel_cache_misses_total{dataset=\"t\"} 1",
        "pclabel_cache_invalidations_total{dataset=\"t\"}",
        "pclabel_net_accepts_total 2",
        "pclabel_net_open_connections 2",
        "# TYPE pclabel_request_seconds histogram",
        "pclabel_request_seconds_bucket{op=\"query\",le=\"+Inf\"} 2",
        "# TYPE pclabel_counting_count_seconds histogram",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // Exposition-format sanity: every sample line is `series value`,
    // each series appears once, each family gets one TYPE line.
    let mut series_seen = std::collections::HashSet::new();
    let mut types_seen = std::collections::HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let family = rest.split_whitespace().next().unwrap().to_string();
            assert!(types_seen.insert(family), "duplicate TYPE line: {line}");
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line without a value: {line:?}");
        });
        assert!(value.parse::<f64>().is_ok(), "bad sample value: {line:?}");
        assert!(
            series_seen.insert(series.to_string()),
            "duplicate series: {series}"
        );
    }

    // HEAD mirrors GET: same status, same Content-Length, no body. The
    // exact length is compared on `/stats`, whose body is stable between
    // two requests (`/healthz` carries a full-precision uptime).
    let get_stats = http.request("GET", "/stats", None).unwrap();
    assert_eq!(get_stats.status, 200);
    let head_stats = http.request("HEAD", "/stats", None).unwrap();
    assert_eq!(head_stats.status, 200);
    assert!(head_stats.body.is_empty());
    assert_eq!(
        head_stats.header("content-length"),
        Some(get_stats.body.len().to_string().as_str())
    );
    for path in ["/healthz", "/metrics"] {
        let head = http.request("HEAD", path, None).unwrap();
        assert_eq!(head.status, 200, "HEAD {path}");
        assert!(head.body.is_empty(), "HEAD {path} must carry no body");
        assert!(
            head.header("content-length")
                .and_then(|v| v.parse::<usize>().ok())
                .is_some_and(|n| n > 0),
            "HEAD {path} must declare the GET body length"
        );
        // The keep-alive connection stays in sync after a body-less
        // exchange: the next request round-trips normally.
        assert_eq!(http.request("GET", "/healthz", None).unwrap().status, 200);
    }

    // The framed wire op reports the same counters as the scrape.
    let stats = send(r#"{"op":"server_stats"}"#);
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(stats.get("telemetry_enabled"), Some(&Json::Bool(true)));
    let counters = stats.get("counters").expect("counters object");
    assert_eq!(
        counters
            .get("pclabel_requests_total{op=\"query\"}")
            .and_then(Json::as_u64),
        Some(2)
    );
    let gauges = stats.get("gauges").expect("gauges object");
    assert_eq!(
        gauges
            .get("pclabel_net_open_connections")
            .and_then(Json::as_u64),
        Some(2)
    );
    let caches = stats.get("cache").and_then(Json::as_array).expect("cache");
    assert_eq!(caches[0].get("dataset").and_then(Json::as_str), Some("t"));
    assert_eq!(caches[0].get("hits").and_then(Json::as_u64), Some(1));

    let bye = send(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    assert!(child.wait().expect("netd exits").success());
}

/// Reads the transport's open-connections gauge straight off the shared
/// dispatcher (no connection of its own, so the reading cannot perturb
/// the count it reports).
fn open_conns(dispatcher: &Dispatcher) -> u64 {
    dispatcher
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("pclabel_net_open_connections "))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or(u64::MAX)
}

fn wait_for_open_conns(dispatcher: &Dispatcher, want: u64) -> bool {
    for _ in 0..250 {
        if open_conns(dispatcher) == want {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// The open-connections gauge tracks the true fleet size through LRU
/// eviction and returns to zero after a graceful drain.
#[test]
fn open_connections_gauge_survives_eviction_and_drains_to_zero() {
    let dispatcher = Arc::new(Dispatcher::with_config(EngineConfig::default()));
    let server = NetServer::spawn(
        Arc::clone(&dispatcher),
        ServerConfig {
            max_connections: 2,
            ..test_config()
        },
    )
    .expect("spawn capped server");

    let mut a = NetClient::connect(server.local_addr()).unwrap();
    a.request_line(r#"{"op":"health"}"#).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let mut b = NetClient::connect(server.local_addr()).unwrap();
    b.request_line(r#"{"op":"health"}"#).unwrap();
    assert!(wait_for_open_conns(&dispatcher, 2), "two live connections");

    // A third connection breaches the cap: `a` (LRU idle) is evicted, so
    // the gauge stays at the cap rather than growing.
    let mut c = NetClient::connect(server.local_addr()).unwrap();
    c.request_line(r#"{"op":"health"}"#).unwrap();
    assert!(
        wait_for_open_conns(&dispatcher, 2),
        "gauge must stay at the cap through the eviction, got {}",
        open_conns(&dispatcher)
    );

    // Clients hang up; the reactor notices each EOF and the gauge
    // drains to zero while the server is still running.
    drop(a);
    drop(b);
    drop(c);
    assert!(
        wait_for_open_conns(&dispatcher, 0),
        "gauge must return to zero after the fleet drains, got {}",
        open_conns(&dispatcher)
    );

    server.shutdown();
    assert_eq!(open_conns(&dispatcher), 0, "still zero after shutdown");
}

/// The introspection plane end to end through the real binary: a
/// replayed session's traces are retrievable from
/// `/debug/traces` by op and by request id, `/debug/memory` grows
/// monotonically across appends and agrees with the `stats` op's
/// accounting, `/debug/conns` sees the keep-alive fleet, and the framed
/// `server_debug` op returns all three sections at once.
#[test]
fn netd_debug_endpoints_expose_traces_memory_and_conns() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-netd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--timeout-ms",
            "2000",
            "--retained-traces",
            "8",
            "--allow-remote-shutdown",
            "--log-level",
            "warn",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pclabel-netd");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .expect("address in banner")
        .to_string();

    let mut client = NetClient::connect(&addr).expect("connect to binary");
    let mut send = |line: &str| -> Json {
        let response = client.request_line(line).expect("round-trip");
        Json::parse(&response).unwrap_or_else(|e| panic!("bad JSON {e}: {response}"))
    };
    let register =
        r#"{"op":"register","dataset":"t","csv":"a,b\n1,x\n1,y\n2,x\n","label_attrs":["a","b"]}"#;
    assert_eq!(send(register).get("ok"), Some(&Json::Bool(true)));
    let query = r#"{"op":"query","dataset":"t","patterns":[{"a":"1","b":"x"}]}"#;
    for _ in 0..2 {
        assert_eq!(send(query).get("ok"), Some(&Json::Bool(true)));
    }

    let mut http = HttpClient::connect(&addr).expect("HTTP connect");
    let get = |http: &mut HttpClient, path: &str| -> (u16, Json) {
        let response = http.request("GET", path, None).expect("GET round-trip");
        let body = Json::parse(&response.body)
            .unwrap_or_else(|e| panic!("bad JSON {e}: {}", response.body));
        (response.status, body)
    };

    // Memory accounting is monotonic across an append (no queries in
    // between, so the cache cannot shrink the total underneath us).
    let (status, mem1) = get(&mut http, "/debug/memory");
    assert_eq!(status, 200);
    let dataset_bytes = |mem: &Json| -> u64 {
        let datasets = mem
            .get("datasets")
            .and_then(Json::as_array)
            .expect("datasets");
        assert_eq!(datasets.len(), 1);
        assert_eq!(datasets[0].get("dataset").and_then(Json::as_str), Some("t"));
        datasets[0]
            .get("components")
            .and_then(|c| c.get("dataset"))
            .and_then(Json::as_u64)
            .expect("dataset component bytes")
    };
    assert!(
        mem1.get("total_bytes").and_then(Json::as_u64).unwrap() > 0,
        "nonzero total"
    );
    let before = dataset_bytes(&mem1);
    let append = format!(
        r#"{{"op":"append_rows","dataset":"t","rows":[{}]}}"#,
        vec![r#"["1","x"]"#; 64].join(",")
    );
    assert_eq!(send(&append).get("ok"), Some(&Json::Bool(true)));
    let (_, mem2) = get(&mut http, "/debug/memory");
    let after = dataset_bytes(&mem2);
    assert!(
        after > before,
        "dataset bytes must grow across an append: {before} -> {after}"
    );

    // The stats op and /debug/memory agree on the same accounting.
    let stats = send(r#"{"op":"stats","dataset":"t"}"#);
    let stats_total = stats
        .get("memory")
        .and_then(|m| m.get("total_bytes"))
        .and_then(Json::as_u64)
        .expect("stats memory.total_bytes");
    let (_, mem3) = get(&mut http, "/debug/memory");
    let debug_total = mem3
        .get("datasets")
        .and_then(Json::as_array)
        .and_then(|d| d[0].get("total_bytes"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(stats_total, debug_total);

    // Retained traces: the replayed queries are there, newest last,
    // and each carries a request id that retrieves its span tree.
    let (status, traces) = get(&mut http, "/debug/traces?op=query");
    assert_eq!(status, 200);
    let rows = traces
        .get("traces")
        .and_then(Json::as_array)
        .expect("traces");
    assert_eq!(rows.len(), 2, "both queries retained");
    let first = &rows[0];
    assert_eq!(first.get("op").and_then(Json::as_str), Some("query"));
    assert_eq!(first.get("dataset").and_then(Json::as_str), Some("t"));
    let id = first.get("request_id").and_then(Json::as_u64).expect("id");
    assert!(
        !first
            .get("spans")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty(),
        "span breakdown present"
    );
    let (status, by_id) = get(&mut http, &format!("/debug/traces?id={id}"));
    assert_eq!(status, 200);
    let found = by_id.get("traces").and_then(Json::as_array).unwrap();
    assert_eq!(found.len(), 1, "trace findable by request id");
    assert_eq!(found[0].get("request_id").and_then(Json::as_u64), Some(id));
    let (status, slowest) = get(&mut http, "/debug/traces?op=query&slowest=1");
    assert_eq!(status, 200);
    assert_eq!(slowest.get("ring").and_then(Json::as_str), Some("slowest"));
    let (status, _) = get(&mut http, "/debug/traces?op=bogus");
    assert_eq!(status, 400, "unknown op is a client error");

    // The live connection table sees the keep-alive framed client
    // (idle) and this very scrape (dispatching, http).
    let (status, conns) = get(&mut http, "/debug/conns");
    assert_eq!(status, 200);
    assert_eq!(conns.get("model"), None, "{conns}");
    assert!(conns.get("reactors").and_then(Json::as_u64).unwrap() >= 1);
    assert!(conns.get("open").and_then(Json::as_u64).unwrap() >= 2);
    let rows = conns.get("conns").and_then(Json::as_array).unwrap();
    assert!(
        rows.iter().any(|r| {
            r.get("protocol").and_then(Json::as_str) == Some("framed")
                && r.get("state").and_then(Json::as_str) == Some("idle")
                && r.get("requests").and_then(Json::as_u64).unwrap_or(0) >= 4
        }),
        "idle framed keep-alive client visible in {conns}"
    );
    assert!(
        rows.iter().any(|r| {
            r.get("protocol").and_then(Json::as_str) == Some("http")
                && r.get("state").and_then(Json::as_str) == Some("dispatching")
        }),
        "the scraping connection sees itself dispatching in {conns}"
    );

    // The framed server_debug op returns every section at once.
    let debug = send(r#"{"op":"server_debug"}"#);
    assert_eq!(debug.get("ok"), Some(&Json::Bool(true)));
    assert!(debug.get("uptime_seconds").is_some());
    assert!(debug.get("version").is_some());
    for section in ["traces", "memory", "conns"] {
        assert!(
            debug.get(section).is_some(),
            "server_debug carries {section}"
        );
    }

    let bye = send(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    assert!(child.wait().expect("netd exits").success());
}

/// A raw HTTP/1.1 POST with `Transfer-Encoding: chunked`: the body is
/// written as `chunk_size`-byte chunks (a chunk extension on the first
/// size line and a trailer after the last chunk, both of which the
/// server must tolerate), then the response is read to EOF
/// (`Connection: close`). Returns the full response text.
fn chunked_post(
    addr: std::net::SocketAddr,
    path: &str,
    body: &[u8],
    chunk_size: usize,
    pace: Option<Duration>,
) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("chunked connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nTransfer-Encoding: chunked\r\n\r\n"
    );
    stream.write_all(head.as_bytes()).unwrap();
    for (i, chunk) in body.chunks(chunk_size.max(1)).enumerate() {
        let ext = if i == 0 { ";traced=yes" } else { "" };
        stream
            .write_all(format!("{:x}{ext}\r\n", chunk.len()).as_bytes())
            .unwrap();
        stream.write_all(chunk).unwrap();
        stream.write_all(b"\r\n").unwrap();
        if let Some(pause) = pace {
            std::thread::sleep(pause);
        }
    }
    stream.write_all(b"0\r\nX-Body-Done: yes\r\n\r\n").unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("chunked response");
    String::from_utf8(response).expect("UTF-8 response")
}

/// The body of a raw HTTP response (everything after the blank line).
fn http_body(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body)
        .unwrap_or("")
}

/// The multi-reactor acceptance matrix: with four event loops, on the
/// epoll and the poll backend alike (loop 0 accepts and deals sockets
/// round-robin on both), the replay script must stay byte-identical to
/// the stdin/stdout serve loop on both transports, with live
/// connections parked across the loops while it runs.
#[test]
fn multi_reactor_replay_is_byte_identical_on_both_backends() {
    let expected = stdio_responses();
    for force_poll in [false, true] {
        for transport in ["framed", "http"] {
            let server = spawn_server(ServerConfig {
                reactors: 4,
                force_poll_backend: force_poll,
                ..test_config()
            });
            // Park one proven-live connection per loop so the replay
            // runs while every loop owns state.
            let mut parked = Vec::new();
            for i in 0..4 {
                let mut client = NetClient::connect(server.local_addr()).unwrap();
                let ok = client.request_line(r#"{"op":"health"}"#).unwrap();
                assert_eq!(
                    Json::parse(&ok).unwrap().get("ok"),
                    Some(&Json::Bool(true)),
                    "parked conn {i}, force_poll={force_poll}"
                );
                parked.push(client);
            }

            let got: Vec<String> = if transport == "framed" {
                let mut client = NetClient::connect(server.local_addr()).unwrap();
                script()
                    .iter()
                    .map(|line| canon(&client.request_line(line).expect("framed round-trip")))
                    .collect()
            } else {
                let mut client = HttpClient::connect(server.local_addr()).unwrap();
                script()
                    .iter()
                    .map(|line| {
                        canon(
                            &client
                                .request("POST", "/", Some(line))
                                .expect("HTTP round-trip")
                                .body,
                        )
                    })
                    .collect()
            };
            assert_eq!(expected, got, "{transport}, force_poll={force_poll}");

            // The parked fleet survived the replay.
            for client in parked.iter_mut() {
                let ok = client.request_line(r#"{"op":"health"}"#).unwrap();
                assert_eq!(Json::parse(&ok).unwrap().get("ok"), Some(&Json::Bool(true)));
            }
            server.shutdown();
        }
    }
}

/// The connection cap is split into per-loop budgets, and eviction is a
/// per-loop decision. Loop 0 accepts and deals connections round-robin
/// on either backend: A→loop 0, B→loop 1, C→loop 0. With
/// `max_connections: 2` split 1/1, C breaches loop 0's budget and must
/// evict A (loop 0's LRU idle) — never B, which a different loop owns.
#[test]
fn per_loop_budgets_evict_within_the_owning_loop() {
    for force_poll in [false, true] {
        let server = spawn_server(ServerConfig {
            reactors: 2,
            max_connections: 2,
            force_poll_backend: force_poll,
            ..test_config()
        });
        let mut a = NetClient::connect(server.local_addr()).unwrap();
        a.request_line(r#"{"op":"health"}"#).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        let mut b = NetClient::connect(server.local_addr()).unwrap();
        b.request_line(r#"{"op":"health"}"#).unwrap();

        let mut c = NetClient::connect(server.local_addr()).unwrap();
        let ok = c.request_line(r#"{"op":"health"}"#).unwrap();
        assert_eq!(Json::parse(&ok).unwrap().get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            Json::parse(&b.request_line(r#"{"op":"health"}"#).unwrap())
                .unwrap()
                .get("ok"),
            Some(&Json::Bool(true)),
            "force_poll={force_poll}: the other loop's connection must not be \
             evicted for loop 0's budget"
        );
        assert!(
            a.request_line(r#"{"op":"health"}"#).is_err(),
            "force_poll={force_poll}: loop 0's LRU idle connection should have been evicted"
        );
        server.shutdown();
    }
}

/// With two event loops the `loop="N"` gauge slices must sum to the
/// unlabeled total at all times, `pclabel_net_reactors` reports the loop
/// count, `/debug/conns` carries the reactors count and per-connection
/// buffer accounting — and everything drains back to zero when the
/// fleet hangs up.
#[test]
fn per_loop_gauges_sum_to_the_total_and_drain_to_zero() {
    let dispatcher = Arc::new(Dispatcher::with_config(EngineConfig::default()));
    let server = NetServer::spawn(
        Arc::clone(&dispatcher),
        ServerConfig {
            reactors: 2,
            ..test_config()
        },
    )
    .expect("spawn two-loop server");

    let loop_slices = |dispatcher: &Dispatcher| -> (u64, usize) {
        let text = dispatcher.metrics_text();
        let mut sum = 0u64;
        let mut loops = 0usize;
        for line in text.lines() {
            if line.starts_with("pclabel_net_loop_open_connections{") {
                let value = line.rsplit(' ').next().unwrap();
                sum += value.parse::<f64>().unwrap() as u64;
                loops += 1;
            }
        }
        (sum, loops)
    };
    let settle = |dispatcher: &Dispatcher, want: u64| -> bool {
        for _ in 0..250 {
            let (sum, loops) = loop_slices(dispatcher);
            if loops == 2 && sum == want && open_conns(dispatcher) == want {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    };

    let mut fleet = Vec::new();
    for _ in 0..4 {
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        client.request_line(r#"{"op":"health"}"#).unwrap();
        fleet.push(client);
    }
    assert!(
        settle(&dispatcher, 4),
        "per-loop slices must sum to the global gauge, got {:?} vs total {}",
        loop_slices(&dispatcher),
        open_conns(&dispatcher)
    );
    assert!(
        dispatcher
            .metrics_text()
            .lines()
            .any(|l| l == "pclabel_net_reactors 2"),
        "reactors gauge must report the loop count"
    );

    let mut http = HttpClient::connect(server.local_addr()).unwrap();
    let conns = http.request("GET", "/debug/conns", None).unwrap();
    assert_eq!(conns.status, 200);
    let parsed = Json::parse(&conns.body).unwrap();
    assert_eq!(parsed.get("reactors").and_then(Json::as_u64), Some(2));
    let rows = parsed.get("conns").and_then(Json::as_array).unwrap();
    assert!(rows.len() >= 5, "fleet + scraper visible: {}", conns.body);
    assert!(
        rows.iter()
            .all(|r| r.get("buffered_bytes").and_then(Json::as_u64).is_some()),
        "every row carries buffer accounting: {}",
        conns.body
    );
    drop(http);

    drop(fleet);
    assert!(
        settle(&dispatcher, 0),
        "gauges must drain to zero, got {:?} vs total {}",
        loop_slices(&dispatcher),
        open_conns(&dispatcher)
    );
    server.shutdown();
    assert_eq!(
        loop_slices(&dispatcher),
        (0, 2),
        "still zero after shutdown"
    );
}

/// The streaming acceptance path: an 8 MiB `append_rows` body arrives
/// `Transfer-Encoding: chunked` and is decoded incrementally — the
/// connection's raw staging buffer (`buffered_bytes` in the live
/// connection table) stays bounded by the write watermark the whole
/// time, even as megabytes of wire bytes are consumed before the
/// request dispatches.
#[test]
fn chunked_append_rows_streams_an_8mib_body_within_the_watermark() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let watermark = ServerConfig::default().write_watermark as u64;
    let server = spawn_server(ServerConfig {
        max_frame: 32 << 20,
        ..test_config()
    });
    let addr = server.local_addr();

    let mut setup = NetClient::connect(addr).unwrap();
    let register = r#"{"op":"register","dataset":"big","csv":"c0,c1,c2,c3\nv0,v1,v2,v3\n","label_attrs":["c0","c1"]}"#;
    let ok = setup.request_line(register).unwrap();
    assert_eq!(Json::parse(&ok).unwrap().get("ok"), Some(&Json::Bool(true)));

    // ~8.4 MiB body: 2048 rows of one 4 KiB value (a single dictionary
    // entry, so the engine-side append stays cheap).
    let pad = "p".repeat(4096);
    let row = format!(r#"["{pad}","v1","v2","v3"]"#);
    let body = format!(
        r#"{{"op":"append_rows","dataset":"big","rows":[{}]}}"#,
        vec![row; 2048].join(",")
    );
    assert!(body.len() >= 8 << 20, "body is at least 8 MiB");

    let peak_buffered = AtomicU64::new(0);
    let deepest_read = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let body = body.as_bytes();
        let sender = scope
            .spawn(move || chunked_post(addr, "/", body, 64 << 10, Some(Duration::from_millis(2))));

        // Watch the upload from a second connection: the table must show
        // the receiving connection consuming wire bytes while its raw
        // buffer stays small.
        let mut http = HttpClient::connect(addr).expect("observer connects");
        while !sender.is_finished() {
            let snap = http
                .request("GET", "/debug/conns", None)
                .expect("observer scrape");
            let Ok(parsed) = Json::parse(&snap.body) else {
                continue;
            };
            let Some(rows) = parsed.get("conns").and_then(Json::as_array) else {
                continue;
            };
            for row in rows {
                let buffered = row
                    .get("buffered_bytes")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
                peak_buffered.fetch_max(buffered, Ordering::Relaxed);
                if row.get("protocol").and_then(Json::as_str) == Some("http")
                    && row.get("state").and_then(Json::as_str) == Some("reading")
                {
                    let bytes_in = row.get("bytes_in").and_then(Json::as_u64).unwrap_or(0);
                    deepest_read.fetch_max(bytes_in, Ordering::Relaxed);
                }
            }
        }

        let response = sender.join().expect("sender thread");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let parsed = Json::parse(http_body(&response)).expect("append response JSON");
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)), "{response}");
        assert_eq!(parsed.get("rows").and_then(Json::as_u64), Some(2049));
    });

    let peak = peak_buffered.load(Ordering::Relaxed);
    let deepest = deepest_read.load(Ordering::Relaxed);
    assert!(
        deepest >= 1 << 20,
        "observer must catch the connection mid-body with ≥1 MiB consumed, saw {deepest}"
    );
    assert!(
        peak <= watermark,
        "raw buffered bytes must stay within the watermark: {peak} > {watermark}"
    );

    // The streamed append is queryable like any other.
    let probe = setup
        .request_line(&format!(
            r#"{{"op":"query","dataset":"big","patterns":[{{"c0":"{pad}"}}]}}"#
        ))
        .unwrap();
    let estimate = Json::parse(&probe)
        .unwrap()
        .get("results")
        .and_then(Json::as_array)
        .and_then(|r| r[0].get("estimate"))
        .and_then(Json::as_f64);
    assert_eq!(estimate, Some(2048.0));
    server.shutdown();
}

/// Framing equivalence through the real binary, running two reactors: an
/// `append_rows` delivered `Transfer-Encoding: chunked` (odd-sized
/// chunks, extension, trailer) must leave the dataset in exactly the
/// state a `Content-Length` delivery of the same payload does.
#[test]
fn netd_chunked_append_rows_equals_content_length() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-netd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--reactors",
            "2",
            "--timeout-ms",
            "2000",
            "--allow-remote-shutdown",
            "--log-level",
            "warn",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pclabel-netd");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("startup banner");
    assert!(
        banner.contains("2 reactors"),
        "banner reports the loop count: {banner}"
    );
    let addr = banner
        .split_whitespace()
        .nth(3)
        .expect("address in banner")
        .to_string();
    let sock_addr: std::net::SocketAddr = addr.parse().expect("banner address parses");

    let mut client = NetClient::connect(&addr).expect("connect to binary");
    let mut send = |line: &str| -> Json {
        let response = client.request_line(line).expect("round-trip");
        Json::parse(&response).unwrap_or_else(|e| panic!("bad JSON {e}: {response}"))
    };
    let csv = "c0,c1,c2\\nv0,v1,v2\\nv3,v4,v5\\n";
    for name in ["cl", "ch"] {
        let register = format!(
            r#"{{"op":"register","dataset":"{name}","csv":"{csv}","label_attrs":["c0","c1"]}}"#
        );
        assert_eq!(send(&register).get("ok"), Some(&Json::Bool(true)));
    }

    let rows: Vec<String> = (0..200)
        .map(|r| format!(r#"["v{}","v{}","v{}"]"#, r % 7, r % 5, r % 3))
        .collect();
    let payload = |name: &str| {
        format!(
            r#"{{"op":"append_rows","dataset":"{name}","rows":[{}]}}"#,
            rows.join(",")
        )
    };

    // Content-Length delivery to "cl"…
    let mut http = HttpClient::connect(&addr).expect("HTTP connect");
    let with_length = http
        .request("POST", "/", Some(&payload("cl")))
        .expect("Content-Length append");
    assert_eq!(with_length.status, 200, "{}", with_length.body);
    // …chunked delivery of the same rows to "ch", in awkward 7-byte
    // chunks with an extension and a trailer.
    let chunked = chunked_post(sock_addr, "/", payload("ch").as_bytes(), 7, None);
    assert!(chunked.starts_with("HTTP/1.1 200"), "{chunked}");
    let chunked_json = Json::parse(http_body(&chunked)).expect("chunked response JSON");
    let length_json = Json::parse(&with_length.body).expect("CL response JSON");
    assert_eq!(
        chunked_json.get("rows").and_then(Json::as_u64),
        length_json.get("rows").and_then(Json::as_u64),
        "both deliveries append the same row count"
    );

    // Every query answers identically on both datasets.
    let patterns =
        r#"{"c0":"v0"},{"c0":"v1","c1":"v1"},{"c1":"v4","c2":"v2"},{"c2":"v0"},{"c0":"ghost"}"#;
    let results = |name: &str, send: &mut dyn FnMut(&str) -> Json| {
        send(&format!(
            r#"{{"op":"query","dataset":"{name}","patterns":[{patterns}]}}"#
        ))
        .get("results")
        .expect("results array")
        .clone()
    };
    let cl_results = results("cl", &mut send);
    let ch_results = results("ch", &mut send);
    assert_eq!(cl_results, ch_results);
    let cl_stats = send(r#"{"op":"stats","dataset":"cl"}"#);
    let ch_stats = send(r#"{"op":"stats","dataset":"ch"}"#);
    assert_eq!(
        cl_stats.get("label_size").and_then(Json::as_u64),
        ch_stats.get("label_size").and_then(Json::as_u64)
    );

    let bye = send(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    assert!(child.wait().expect("netd exits").success());
}

#[test]
fn many_sequential_connections_are_served() {
    // Connections beyond the worker count are fine as long as they
    // don't all stay open: each register/query pair uses a fresh
    // connection.
    let server = spawn_server(ServerConfig {
        workers: 2,
        ..test_config()
    });
    for i in 0..8 {
        let mut client = NetClient::connect(server.local_addr()).unwrap();
        let register = client
            .request_line(&format!(
                r#"{{"op":"register","dataset":"d{i}","generator":"figure2","label_attrs":["gender"]}}"#
            ))
            .unwrap();
        assert_eq!(
            Json::parse(&register).unwrap().get("ok"),
            Some(&Json::Bool(true)),
            "register d{i}: {register}"
        );
    }
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let health = client.request_line(r#"{"op":"health"}"#).unwrap();
    assert_eq!(
        Json::parse(&health)
            .unwrap()
            .get("datasets")
            .and_then(Json::as_u64),
        Some(8)
    );
    server.shutdown();
}
