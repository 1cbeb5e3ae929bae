//! `microbench_counting` — the counting microbenchmark, emitting one
//! JSON report (`BENCH_count.json` in CI) to stdout.
//!
//! Times [`GroupCounts::build`], the one serial scan, on a small-group,
//! a large-group and a skewed synthetic dataset, reporting each build's
//! `count_secs` and the estimated `peak_bytes` of its map. The rows keep
//! the keys the multi-threaded build's one-thread rows had (`mode:
//! "sharded"`, `threads: 1`, `shards: 1`, with `partition_secs` and
//! `merge_secs` at 0), so the CI trend keeps comparing them with earlier
//! runs.
//!
//! ```text
//! cargo run --release -p pclabel-bench --bin microbench_counting -- [--json]
//! ```
//!
//! Environment:
//!   PCLABEL_BENCH_COUNT_ROWS  dataset rows (default 400_000)
//!   PCLABEL_BENCH_REPS        timing repetitions, best-of (default 3)

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::{CountingProfile, GroupCounts};
use pclabel_data::dataset::Dataset;
use pclabel_data::generate::{independent, AttrSpec};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn usage(message: &str) -> ! {
    eprintln!("microbench_counting: {message}");
    eprintln!("usage: microbench_counting [--json]");
    std::process::exit(2);
}

/// Uniform independent dataset over the given attribute domain sizes.
fn synthetic(name: &str, domains: &[usize], rows: usize, seed: u64) -> Dataset {
    let specs: Vec<AttrSpec> = domains
        .iter()
        .enumerate()
        .map(|(i, &domain)| {
            AttrSpec::uniform(
                format!("a{i}"),
                (0..domain).map(|v| format!("v{v}")).collect::<Vec<_>>(),
            )
        })
        .collect();
    independent(&specs, rows, seed)
        .expect("valid generator config")
        .with_name(name)
}

/// Best-of-`reps` total build time; the phase profile of the best rep.
fn best_profile(
    reps: usize,
    mut f: impl FnMut() -> (GroupCounts, CountingProfile),
) -> (f64, GroupCounts, CountingProfile) {
    let mut best = f64::INFINITY;
    let mut kept = None;
    for _ in 0..reps.max(1) {
        let start = std::time::Instant::now();
        let (gc, profile) = f();
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            kept = Some((gc, profile));
        }
    }
    let (gc, profile) = kept.expect("at least one rep");
    (best, gc, profile)
}

/// One scenario's result row, in the shape `bench_trend` keys on.
fn row_json(build_secs: f64, profile: &CountingProfile) -> String {
    format!(
        concat!(
            "{{\"mode\":\"sharded\",\"threads\":1,\"shards\":1,",
            "\"build_secs\":{build:.6},\"partition_secs\":0.000000,",
            "\"count_secs\":{count:.6},\"merge_secs\":0.000000,",
            "\"peak_bytes\":{peak}}}"
        ),
        build = build_secs,
        count = profile.count_secs,
        peak = profile.peak_bytes,
    )
}

fn main() {
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            // The report is always JSON; the flag exists so callers (CI)
            // can say what they rely on.
            "--json" => {}
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    let rows = env_usize("PCLABEL_BENCH_COUNT_ROWS", 400_000);
    let reps = env_usize("PCLABEL_BENCH_REPS", 3);

    // small_groups: the engine_bench workload (192 possible groups).
    // large_groups: up to 128k groups, far past any searched label.
    // skewed_top: the last attribute (the packed key's top bits) has
    // cardinality 2.
    let scenarios: [(&str, Vec<usize>); 3] = [
        ("small_groups", vec![8, 6, 4]),
        ("large_groups", vec![64, 50, 40]),
        ("skewed_top", vec![64, 50, 2]),
    ];

    let mut scenario_reports = Vec::new();
    for (name, domains) in &scenarios {
        eprintln!("microbench_counting: generating {name} ({rows} rows)…");
        let dataset = synthetic(name, domains, rows, 0xC0FFEE ^ domains.len() as u64);
        let attrs = AttrSet::from_indices(0..domains.len());
        let (secs, gc, profile) = best_profile(reps, || GroupCounts::build(&dataset, None, attrs));
        scenario_reports.push(format!(
            "{{\"name\":\"{name}\",\"groups\":{groups},\"results\":[{row}]}}",
            groups = gc.pattern_count_size(),
            row = row_json(secs, &profile),
        ));
    }

    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        concat!(
            "{{\"benchmark\":\"counting\",\"rows\":{rows},\"reps\":{reps},",
            "\"hardware_threads\":{hw},\"scenarios\":[{scenarios}]}}"
        ),
        rows = rows,
        reps = reps,
        hw = hw,
        scenarios = scenario_reports.join(","),
    );
}
