//! The concurrency hammer: N client threads issue interleaved
//! register/query/refresh/drop traffic against one `pclabel-netd`-style
//! server and assert that
//!
//! * every query answer matches `Label::estimate` / exact-projection
//!   ground truth computed locally, and
//! * a dataset's label generation never goes backwards within any one
//!   client's serialized request stream.
//!
//! Refreshes reuse the same label policy, so the label contents (and
//! with them the ground truth) are invariant while generations climb.
//! The server runs on Unix only.
#![cfg(unix)]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use pclabel_core::attrset::AttrSet;
use pclabel_core::label::Label;
use pclabel_core::pattern::Pattern;
use pclabel_data::dataset::Dataset;
use pclabel_data::generate::figure2_sample;
use pclabel_engine::json::Json;
use pclabel_engine::query::EngineConfig;
use pclabel_engine::serve::Dispatcher;
use pclabel_net::client::NetClient;
use pclabel_net::server::{NetServer, ServerConfig};

const CLIENTS: usize = 6;
const ITERS: usize = 48;

/// The two shared datasets: name, label attributes (by name and index).
const SHARED: [(&str, [&str; 2], [usize; 2]); 2] = [
    ("shared0", ["gender", "age group"], [0, 1]),
    ("shared1", ["age group", "marital status"], [1, 3]),
];

/// Query patterns sent at the shared datasets (mixed inside/outside the
/// label subsets).
fn query_patterns() -> Vec<Vec<(&'static str, &'static str)>> {
    vec![
        vec![("gender", "Female")],
        vec![("age group", "20-39")],
        vec![("gender", "Female"), ("age group", "20-39")],
        vec![("marital status", "married")],
        vec![
            ("gender", "Female"),
            ("age group", "20-39"),
            ("marital status", "married"),
        ],
    ]
}

/// What the engine must answer: exact projection inside `S`, the
/// paper's estimate outside.
fn expected_estimate(label: &Label, dataset: &Dataset, terms: &[(&str, &str)]) -> f64 {
    let p = Pattern::parse(dataset, terms).expect("ground-truth pattern parses");
    if p.attrs().is_subset_of(label.attrs()) {
        label.count_of_projection(&p) as f64
    } else {
        label.estimate(&p)
    }
}

fn register_line(dataset: &str, attrs: [&str; 2]) -> String {
    format!(
        r#"{{"op":"register","dataset":"{dataset}","generator":"figure2","label_attrs":["{}","{}"]}}"#,
        attrs[0], attrs[1]
    )
}

fn query_line(dataset: &str, terms: &[(&str, &str)]) -> String {
    let pattern: Vec<String> = terms
        .iter()
        .map(|(a, v)| format!(r#""{a}":"{v}""#))
        .collect();
    format!(
        r#"{{"op":"query","dataset":"{dataset}","patterns":[{{{}}}]}}"#,
        pattern.join(",")
    )
}

/// Deliberately *under*-provisioned (2 workers for 6 persistent
/// clients): the reactor holds workers per request, not per connection.
#[test]
fn hammer_reactor_with_fewer_workers_than_clients() {
    // Local ground truth: the same labels the server will build.
    let d = figure2_sample();
    let truth: Vec<Label> = SHARED
        .iter()
        .map(|(_, _, indices)| Label::build(&d, AttrSet::from_indices(*indices)))
        .collect();
    let patterns = query_patterns();
    let expected: Vec<Vec<f64>> = truth
        .iter()
        .map(|label| {
            patterns
                .iter()
                .map(|terms| expected_estimate(label, &d, terms))
                .collect()
        })
        .collect();

    let server = NetServer::spawn(
        Arc::new(Dispatcher::with_config(EngineConfig::default())),
        ServerConfig {
            workers: 2,
            queue_capacity: 16,
            read_timeout: Some(Duration::from_millis(150)),
            write_timeout: Some(Duration::from_secs(5)),
            ..ServerConfig::default()
        },
    )
    .expect("spawn hammer server");
    let addr = server.local_addr();

    {
        let mut setup = NetClient::connect(addr).unwrap();
        for (name, attrs, _) in SHARED {
            let response = setup.request_line(&register_line(name, attrs)).unwrap();
            assert_eq!(
                Json::parse(&response).unwrap().get("ok"),
                Some(&Json::Bool(true)),
                "register {name}: {response}"
            );
        }
    }

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let expected = &expected;
            let patterns = &patterns;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("hammer client connects");
                // Per-thread watermark: within one serialized request
                // stream, a dataset's generation must never decrease.
                let mut last_gen: HashMap<String, u64> = HashMap::new();
                for i in 0..ITERS {
                    let shared_ix = (t + i) % SHARED.len();
                    let (name, attrs, _) = SHARED[shared_ix];
                    match i % 4 {
                        // Mostly queries, verified against ground truth.
                        0 | 2 => {
                            let pattern_ix = (t + i) % patterns.len();
                            let response = client
                                .request_line(&query_line(name, &patterns[pattern_ix]))
                                .expect("query round-trip");
                            let parsed = Json::parse(&response).unwrap();
                            assert_eq!(
                                parsed.get("ok"),
                                Some(&Json::Bool(true)),
                                "client {t} iter {i}: {response}"
                            );
                            let results =
                                parsed.get("results").and_then(Json::as_array).unwrap();
                            let estimate =
                                results[0].get("estimate").and_then(Json::as_f64).unwrap();
                            assert_eq!(
                                estimate, expected[shared_ix][pattern_ix],
                                "client {t} iter {i} dataset {name} pattern {pattern_ix}"
                            );
                            let generation =
                                parsed.get("generation").and_then(Json::as_u64).unwrap();
                            let watermark = last_gen.entry(name.to_string()).or_insert(0);
                            assert!(
                                generation >= *watermark,
                                "client {t} iter {i}: generation went backwards \
                                 ({generation} < {watermark}) on {name}"
                            );
                            *watermark = generation;
                        }
                        // Refresh with the identical policy: estimates
                        // stay put, generation climbs.
                        1 => {
                            let line = format!(
                                r#"{{"op":"refresh","dataset":"{name}","label_attrs":["{}","{}"]}}"#,
                                attrs[0], attrs[1]
                            );
                            let response = client.request_line(&line).expect("refresh");
                            let parsed = Json::parse(&response).unwrap();
                            assert_eq!(
                                parsed.get("ok"),
                                Some(&Json::Bool(true)),
                                "client {t} iter {i}: {response}"
                            );
                        }
                        // Register → query → drop a per-thread scratch
                        // dataset (never contended, but interleaved with
                        // everyone else's traffic in the store).
                        _ => {
                            let scratch = format!("scratch{t}");
                            let line = format!(
                                r#"{{"op":"register","dataset":"{scratch}","csv":"a,b\nx,1\ny,2\nx,1\n","label_attrs":["a","b"]}}"#
                            );
                            let response = client.request_line(&line).expect("scratch register");
                            assert_eq!(
                                Json::parse(&response).unwrap().get("ok"),
                                Some(&Json::Bool(true)),
                                "client {t} iter {i}: {response}"
                            );
                            let response = client
                                .request_line(&query_line(&scratch, &[("a", "x"), ("b", "1")]))
                                .expect("scratch query");
                            let parsed = Json::parse(&response).unwrap();
                            let results =
                                parsed.get("results").and_then(Json::as_array).unwrap();
                            assert_eq!(
                                results[0].get("estimate").and_then(Json::as_f64),
                                Some(2.0),
                                "client {t} iter {i}: {response}"
                            );
                            let response = client
                                .request_line(&format!(
                                    r#"{{"op":"drop","dataset":"{scratch}"}}"#
                                ))
                                .expect("scratch drop");
                            assert_eq!(
                                Json::parse(&response).unwrap().get("dropped"),
                                Some(&Json::Bool(true)),
                                "client {t} iter {i}: {response}"
                            );
                        }
                    }
                }
            });
        }
    });

    // After the storm: both shared datasets still answer, and only they
    // remain registered.
    let mut client = NetClient::connect(addr).unwrap();
    let list = client.request_line(r#"{"op":"list"}"#).unwrap();
    let parsed = Json::parse(&list).unwrap();
    let datasets = parsed.get("datasets").and_then(Json::as_array).unwrap();
    assert_eq!(datasets.len(), SHARED.len(), "{list}");
    for ((name, _, _), entry) in SHARED.iter().zip(datasets) {
        assert_eq!(entry.get("dataset").and_then(Json::as_str), Some(*name));
        // CLIENTS threads × ITERS/4 refreshes happened across both
        // datasets; each dataset saw at least one.
        assert!(entry.get("generation").and_then(Json::as_u64).unwrap() >= 1);
    }
    server.shutdown();
}
