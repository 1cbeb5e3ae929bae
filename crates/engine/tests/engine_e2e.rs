//! End-to-end tests for the serving subsystem, including the acceptance
//! round-trip: a 10,000-pattern batch served through the `pclabel-serve`
//! binary's stdin/stdout whose answers match `Label::estimate` ground
//! truth (and true counts on the exact path).

use std::io::Write;
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};

use pclabel_core::attrset::AttrSet;
use pclabel_core::label::Label;
use pclabel_core::pattern::Pattern;
use pclabel_data::csv::{write_csv, CsvWriteOptions};
use pclabel_data::dataset::{Dataset, DatasetBuilder};
use pclabel_data::generate::{bluenile, BlueNileConfig};
use pclabel_engine::json::Json;
use pclabel_engine::prelude::*;
use pclabel_engine::serve::{serve, Dispatcher};

/// Deterministic 600-row, 4-attribute dataset (no RNG, so the CSV sent to
/// the server and the in-process ground truth agree cell for cell).
fn synthetic_dataset() -> Dataset {
    let mut b = DatasetBuilder::new(["c0", "c1", "c2", "c3"]);
    for r in 0..600usize {
        let row = [
            format!("v{}", r % 5),
            format!("v{}", (r / 5) % 4),
            format!("v{}", (r * 7) % 3),
            format!("v{}", r % 2),
        ];
        b.push_row(&row).unwrap();
    }
    b.finish().with_name("synthetic")
}

fn synthetic_csv() -> String {
    let mut csv = String::from("c0,c1,c2,c3\n");
    for r in 0..600usize {
        csv.push_str(&format!(
            "v{},v{},v{},v{}\n",
            r % 5,
            (r / 5) % 4,
            (r * 7) % 3,
            r % 2
        ));
    }
    csv
}

/// 10,000 deterministic patterns cycling through four shapes: inside `S`
/// = {c0, c1} (exact path), straddling, outside, and full-tuple.
fn acceptance_patterns() -> Vec<Vec<(String, String)>> {
    let mut out = Vec::with_capacity(10_000);
    for i in 0..10_000usize {
        let terms: Vec<(String, String)> = match i % 4 {
            0 => vec![
                ("c0".into(), format!("v{}", i % 5)),
                ("c1".into(), format!("v{}", (i / 5) % 4)),
            ],
            1 => vec![
                ("c0".into(), format!("v{}", i % 5)),
                ("c2".into(), format!("v{}", i % 3)),
            ],
            2 => vec![("c2".into(), format!("v{}", i % 3))],
            _ => vec![
                ("c0".into(), format!("v{}", i % 5)),
                ("c1".into(), format!("v{}", (i / 7) % 4)),
                ("c2".into(), format!("v{}", i % 3)),
                ("c3".into(), format!("v{}", i % 2)),
            ],
        };
        out.push(terms);
    }
    out
}

/// Ground truth for one spec, straight from the paper's machinery.
fn ground_truth(dataset: &Dataset, label: &Label, terms: &[(String, String)]) -> f64 {
    let terms: Vec<(&str, &str)> = terms
        .iter()
        .map(|(a, v)| (a.as_str(), v.as_str()))
        .collect();
    let p = Pattern::parse(dataset, &terms).unwrap();
    label.estimate(&p)
}

fn acceptance_query_line() -> String {
    let patterns: Vec<Json> = acceptance_patterns()
        .into_iter()
        .map(|terms| Json::Obj(terms.into_iter().map(|(a, v)| (a, Json::Str(v))).collect()))
        .collect();
    Json::Obj(vec![
        ("op".to_string(), Json::str("query")),
        ("dataset".to_string(), Json::str("synthetic")),
        ("id".to_string(), Json::str("acceptance")),
        ("patterns".to_string(), Json::Arr(patterns)),
    ])
    .to_string()
}

fn register_line() -> String {
    Json::Obj(vec![
        ("op".to_string(), Json::str("register")),
        ("dataset".to_string(), Json::str("synthetic")),
        ("csv".to_string(), Json::Str(synthetic_csv())),
        (
            "label_attrs".to_string(),
            Json::Arr(vec![Json::str("c0"), Json::str("c1")]),
        ),
    ])
    .to_string()
}

/// Checks the acceptance batch response against ground truth.
fn assert_batch_matches(response: &Json) {
    let dataset = synthetic_dataset();
    let label = Label::build(&dataset, AttrSet::from_indices([0, 1]));
    let specs = acceptance_patterns();

    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    let results = response.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 10_000);

    for (i, (result, terms)) in results.iter().zip(&specs).enumerate() {
        let served = result
            .get("estimate")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("pattern {i} failed: {result}"));
        let expected = ground_truth(&dataset, &label, terms);
        assert_eq!(served, expected, "pattern {i} ({terms:?})");
        // Exact path: Attr(p) ⊆ S ⇒ flagged exact and equal to the true
        // count (paper §III-A).
        if i % 4 == 0 {
            assert_eq!(result.get("exact"), Some(&Json::Bool(true)), "pattern {i}");
            let terms_ref: Vec<(&str, &str)> = terms
                .iter()
                .map(|(a, v)| (a.as_str(), v.as_str()))
                .collect();
            let p = Pattern::parse(&dataset, &terms_ref).unwrap();
            assert_eq!(served, p.count_in(&dataset) as f64, "pattern {i} exactness");
        }
    }

    let stats = response.get("stats").unwrap();
    assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
    // 2,500 exact-shape patterns but deduplicated by the cache: every
    // answer is either computed (exact/estimated) or a cache hit.
    let computed = stats.get("exact").and_then(Json::as_u64).unwrap()
        + stats.get("estimated").and_then(Json::as_u64).unwrap()
        + stats.get("cache_hits").and_then(Json::as_u64).unwrap();
    assert_eq!(computed, 10_000);
}

#[test]
fn acceptance_10k_batch_through_serve_loop() {
    let dispatcher = Dispatcher::with_config(EngineConfig::default());
    let input = format!("{}\n{}\n", register_line(), acceptance_query_line());
    let mut out = Vec::new();
    let summary = serve(&dispatcher, input.as_bytes(), &mut out).unwrap();
    assert_eq!(summary.errors, 0);
    let text = String::from_utf8(out).unwrap();
    let responses: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(responses.len(), 2);
    assert_batch_matches(&responses[1]);
}

#[test]
fn acceptance_10k_batch_through_binary_stdin_stdout() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pclabel-serve"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pclabel-serve");
    {
        let stdin = child.stdin.as_mut().expect("child stdin");
        write!(stdin, "{}\n{}\n", register_line(), acceptance_query_line()).unwrap();
    }
    let output = child.wait_with_output().expect("pclabel-serve exits");
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    let responses: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(responses.len(), 2);
    assert_eq!(
        responses[0].get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        responses[0]
    );
    assert_batch_matches(&responses[1]);
}

#[test]
fn concurrent_clients_share_one_store() {
    // One engine, many threads: registrations, queries and refreshes
    // interleave without panics, poisoning or stale-cache answers.
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine
        .store()
        .register(
            "synthetic",
            synthetic_dataset(),
            LabelPolicy::Attrs(AttrSet::from_indices([0, 1])),
        )
        .unwrap();

    std::thread::scope(|s| {
        for t in 0..8usize {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                for i in 0..50usize {
                    let request = QueryRequest {
                        id: None,
                        dataset: "synthetic".into(),
                        patterns: vec![PatternSpec {
                            terms: vec![
                                ("c0".into(), format!("v{}", (t + i) % 5)),
                                ("c1".into(), format!("v{}", i % 4)),
                            ],
                        }],
                    };
                    let response = engine.execute(&request).unwrap();
                    let r = &response.results[0];
                    assert!(r.error.is_none());
                    assert!(r.exact);
                    // Exact-path answers stay correct under concurrency.
                    let d = synthetic_dataset();
                    let p = Pattern::parse(
                        &d,
                        &[
                            ("c0", format!("v{}", (t + i) % 5).as_str()),
                            ("c1", format!("v{}", i % 4).as_str()),
                        ],
                    )
                    .unwrap();
                    assert_eq!(r.estimate, p.count_in(&d) as f64);
                }
            });
        }
        // One thread refreshes concurrently; queries must never error.
        let engine_refresh = Arc::clone(&engine);
        s.spawn(move || {
            for _ in 0..10 {
                engine_refresh
                    .store()
                    .refresh(
                        "synthetic",
                        LabelPolicy::Attrs(AttrSet::from_indices([0, 1])),
                        None,
                    )
                    .unwrap();
            }
        });
    });
    let entry = engine.store().get("synthetic").unwrap();
    assert_eq!(entry.generation(), 10);
}

/// Everything a registered entry serves from: the dataset's names,
/// dictionaries in id order, columns and missing flags, and the label's
/// subset and sorted `PC` entries.
type EntryShape = (
    Vec<String>,
    Vec<Vec<String>>,
    Vec<Vec<u32>>,
    Vec<bool>,
    AttrSet,
    Vec<(Pattern, u64)>,
);

fn entry_shape(dispatcher: &Dispatcher, name: &str) -> EntryShape {
    let entry = dispatcher.engine().store().get(name).unwrap();
    let (dataset, label) = (entry.dataset(), entry.label());
    let attrs = 0..dataset.n_attrs();
    let mut pc = label.pc_entries();
    pc.sort();
    (
        dataset
            .schema()
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect(),
        dataset
            .schema()
            .iter()
            .map(|a| a.dictionary().iter().map(|(_, l)| l.to_string()).collect())
            .collect(),
        attrs.clone().map(|a| dataset.column(a).to_vec()).collect(),
        attrs.map(|a| dataset.attr_has_missing(a)).collect(),
        label.attrs(),
        pc,
    )
}

#[test]
fn concurrent_csv_registers_match_a_lone_register() {
    // More than 1 MiB per hardware thread (and two at least), so each
    // parse splits into a chunk per hardware thread, and each searched
    // register takes every hardware thread for its walk as well.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let min_bytes = (threads.max(2) << 20) + 1;
    let mut n_rows = 1_000;
    let csv = loop {
        let config = BlueNileConfig {
            n_rows,
            ..BlueNileConfig::default()
        };
        let csv = write_csv(&bluenile(&config).unwrap(), &CsvWriteOptions::default());
        if csv.len() >= min_bytes {
            break csv;
        }
        n_rows = n_rows * min_bytes / csv.len() + 1;
    };
    let register = |name: &str| {
        Json::obj([
            ("op", Json::str("register")),
            ("dataset", Json::str(name)),
            ("csv", Json::str(&csv)),
            ("bound", Json::num(50.0)),
        ])
        .to_string()
    };
    let without_name = |response: &Json| match response {
        Json::Obj(members) => members
            .iter()
            .filter(|(k, _)| k != "dataset")
            .cloned()
            .collect::<Vec<_>>(),
        other => panic!("not an object: {other}"),
    };

    let lone = Dispatcher::with_config(EngineConfig::default());
    let want = lone.dispatch_line(&register("lone"));
    assert_eq!(want.get("ok"), Some(&Json::Bool(true)), "{want}");
    let want_entry = entry_shape(&lone, "lone");

    let shared = Dispatcher::with_config(EngineConfig::default());
    let start = Barrier::new(4);
    let responses: Vec<Json> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..4)
            .map(|i| {
                let (shared, start, register) = (&shared, &start, &register);
                s.spawn(move || {
                    start.wait();
                    shared.dispatch_line(&register(&format!("d{i}")))
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for (i, response) in responses.iter().enumerate() {
        let name = format!("d{i}");
        assert_eq!(response.get("dataset"), Some(&Json::str(&name)));
        assert_eq!(without_name(response), without_name(&want), "{name}");
        assert!(entry_shape(&shared, &name) == want_entry, "{name}");
    }
}
