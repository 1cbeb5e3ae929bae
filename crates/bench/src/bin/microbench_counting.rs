//! `microbench_counting` — the counting-pipeline microbenchmark,
//! emitting one JSON report (`BENCH_count.json` in CI) to stdout.
//!
//! Measures, per scenario (a small-group-count and a large-group-count
//! synthetic dataset), a grid of thread counts of the sharded build
//! ([`GroupCounts::build`], `mode: "sharded"`, each thread count stored
//! in `auto_shards(threads)` shards) against the pre-sharding
//! chunk-and-merge strategy ([`reference::build_merged`], `mode:
//! "merged"`). Each row carries the phase split — `partition_secs`,
//! `count_secs` and `merge_secs` (the cross-thread merge for the legacy
//! strategy, the shard-list concatenation for the sharded one) — plus
//! the estimated `peak_bytes` of the build's transient allocations, so
//! the merge-time and peak-memory win of mergeless sharding is visible
//! directly in the artifact:
//!
//! * merged at T threads duplicates hot groups once per thread and pays
//!   a single-threaded merge over all of them;
//! * sharded at ≥8 shards holds every key exactly once (plus the flat
//!   radix side buffer) and its `merge_secs` is a concatenation.
//!
//! Every configuration's group count is asserted identical to the
//! serial build before it is reported.
//!
//! ```text
//! cargo run --release -p pclabel-bench --bin microbench_counting -- \
//!     [--json] [--threads 1,2,4]
//! ```
//!
//! Environment:
//!   PCLABEL_BENCH_COUNT_ROWS  dataset rows (default 400_000)
//!   PCLABEL_BENCH_REPS        timing repetitions, best-of (default 3)

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::{auto_shards, reference, CountingProfile, GroupCounts};
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
    eprintln!("usage: microbench_counting [--json] [--threads LIST]");
    std::process::exit(2);
}

fn parse_list(flag: &str, value: &str) -> Vec<usize> {
    let out: Vec<usize> = value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a comma-separated integer list")))
        })
        .collect();
    if out.is_empty() {
        usage(&format!("{flag} needs at least one value"));
    }
    out
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

struct Row {
    mode: &'static str,
    threads: usize,
    shards: usize,
    build_secs: f64,
    profile: CountingProfile,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"mode\":\"{mode}\",\"threads\":{threads},\"shards\":{shards},",
                "\"build_secs\":{build:.6},\"partition_secs\":{part:.6},",
                "\"count_secs\":{count:.6},\"merge_secs\":{merge:.6},",
                "\"peak_bytes\":{peak}}}"
            ),
            mode = self.mode,
            threads = self.threads,
            shards = self.shards,
            build = self.build_secs,
            part = self.profile.partition_secs,
            count = self.profile.count_secs,
            merge = self.profile.assemble_secs,
            peak = self.profile.peak_bytes,
        )
    }
}

fn main() {
    let mut threads = vec![1usize, 2, 4];
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // The report is always JSON; the flag exists so callers (CI)
            // can say what they rely on.
            "--json" => {}
            "--threads" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                threads = parse_list("--threads", &value);
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }

    let rows = env_usize("PCLABEL_BENCH_COUNT_ROWS", 400_000);
    let reps = env_usize("PCLABEL_BENCH_REPS", 3);

    // small_groups: the engine_bench workload (192 possible groups) —
    // merge is cheap, sharding must not cost anything here.
    // large_groups: ~domain-product/‐sized group count (up to 128k),
    // the ROADMAP's "very large group counts" case where the per-thread
    // map duplication and the cross-thread merge dominate.
    // skewed_top: the last attribute (which occupies the packed key's
    // *top* bits) has cardinality 2, so keys crowd into the low quarter
    // of the shard space — the regime where equal-width shard→worker
    // ranges idled most phase-2 workers and the histogram-balanced
    // assignment (`balanced_shard_ranges`) keeps them busy.
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

        let (serial, _) = GroupCounts::build(&dataset, None, attrs, 1);
        let groups = serial.pattern_count_size();
        let mut results: Vec<Row> = Vec::new();

        for &t in &threads {
            // The legacy chunk-and-merge baseline (single-shard output).
            if t > 1 {
                let (secs, gc, profile) =
                    best_profile(reps, || reference::build_merged(&dataset, None, attrs, t));
                assert_eq!(
                    gc.pattern_count_size(),
                    groups,
                    "merged diverged from serial"
                );
                results.push(Row {
                    mode: "merged",
                    threads: t,
                    shards: 1,
                    build_secs: secs,
                    profile,
                });
            }
            // The mergeless sharded pipeline.
            let (secs, gc, profile) =
                best_profile(reps, || GroupCounts::build(&dataset, None, attrs, t));
            assert_eq!(
                gc.pattern_count_size(),
                groups,
                "sharded ({t} threads) diverged from serial"
            );
            results.push(Row {
                mode: "sharded",
                threads: t,
                shards: auto_shards(t),
                build_secs: secs,
                profile,
            });
        }

        let rows_json: Vec<String> = results.iter().map(Row::to_json).collect();
        scenario_reports.push(format!(
            "{{\"name\":\"{name}\",\"groups\":{groups},\"results\":[{}]}}",
            rows_json.join(",")
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
