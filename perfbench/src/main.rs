//! `perfbench` — the repo benchmark: three seeded workloads against the
//! real `pclabel-netd`, and a traced per-layer replay.
//!
//! ```text
//! perfbench --workload label_build|serve_read|ingest_durable \
//!           --seed N --seconds S --trace 0|1 --netd PATH
//! ```
//!
//! Prints a human-readable report, then one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits non-zero when any answer check failed.

mod check;
mod e2e;
mod inputs;
mod replay;
mod server;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

use e2e::{Ctx, Run};
use stats::Metric;

const USAGE: &str = "usage: perfbench --workload label_build|serve_read|ingest_durable \
                     --seed N --seconds S --trace 0|1 --netd PATH";

/// Where runs write their spans and scratch data dirs (relative to the
/// checkout the bench runs in).
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    netd: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut netd = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|_| "--seconds needs a number")?)
            }
            "--trace" => trace = Some(value()? == "1"),
            "--netd" => netd = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["label_build", "serve_read", "ingest_durable"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        netd: netd.ok_or("--netd is required")?,
    })
}

/// A fixed CPU and memory loop with no repo code, timed before and
/// after the run. Printed as a diagnostic only; no metric is scaled by
/// it.
fn machine_probe_ms() -> f64 {
    let t = Instant::now();
    let mut v: Vec<u64> = vec![0; 4 << 20];
    let mut x: u64 = 0x1234_5678;
    for slot in v.iter_mut() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *slot = x;
    }
    let mut acc = 0u64;
    let mut i = 0usize;
    for _ in 0..(8 << 20) {
        i = (i + (acc as usize & 1023) * 8 + 4099) % v.len();
        acc = acc.wrapping_add(v[i] ^ (acc >> 7));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Counts that must repeat exactly for a given program, workload, seed
/// and run length.
const DETERMINISTIC: [&str; 6] = [
    "est_abs_err_mean",
    "est_abs_err_max",
    "core.search.nodes_examined",
    "core.search.candidates_evaluated",
    "wal.bytes_per_row",
    "engine.durability.replayed_records",
];

/// A hash of the bench's and the daemon's binaries. Runs compare what
/// they record only with runs of identical programs, so a change that
/// moves a count on purpose is never held to its parent's value. `None`
/// when either binary cannot be read.
fn programs_key(netd: &Path) -> Option<String> {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for path in [std::env::current_exe().ok()?, netd.to_path_buf()] {
        std::fs::read(path).ok()?.hash(&mut h);
    }
    Some(format!("{:016x}", h.finish()))
}

/// `name value` lines that earlier runs of the same programs, workload,
/// seed and length left in a record file.
fn read_record(path: &Path) -> BTreeMap<String, String> {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Compares this run's deterministic counts with those recorded in
/// `known`, and adds the ones not recorded yet. Returns `(checked,
/// differences)`.
fn repeat_check(known: &mut BTreeMap<String, String>, metrics: &[&Metric]) -> (usize, Vec<String>) {
    let (mut checked, mut differ) = (0, Vec::new());
    for m in metrics
        .iter()
        .filter(|m| DETERMINISTIC.contains(&m.name.as_str()))
    {
        // Debug prints the shortest string that round-trips the f64.
        let value = format!("{:?}", m.value);
        match known.get(&m.name) {
            Some(before) => {
                checked += 1;
                if *before != value {
                    differ.push(format!("{} was {before}, now {value}", m.name));
                }
            }
            None => {
                known.insert(m.name.clone(), value);
            }
        }
    }
    (checked, differ)
}

/// The traced run's end-to-end figures against the untraced run's of the
/// same programs and seed (recorded as `untraced.<name>`): the tracing
/// overhead.
fn overhead_lines(known: &BTreeMap<String, String>, traced: &[Metric]) -> Vec<String> {
    traced
        .iter()
        .filter_map(|m| {
            let off: f64 = known.get(&format!("untraced.{}", m.name))?.parse().ok()?;
            let pct = (m.value - off) / off * 100.0;
            Some(format!(
                "{} traced {:.6} untraced {off:.6} {}: {pct:+.1}%",
                m.name, m.value, m.unit
            ))
        })
        .collect()
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<40} {:>14.6} {:<6} {:<7} n={}",
            m.name, m.value, m.unit, m.stat, m.samples
        );
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !args.netd.is_file() {
        eprintln!("perfbench: no pclabel-netd at {}", args.netd.display());
        std::process::exit(2);
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let work_dir = out_dir.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: create {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    let probe_before = machine_probe_ms();
    let ctx = Ctx {
        netd: args.netd.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: work_dir.clone(),
        epoch: Instant::now(),
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "env: hardware_threads {} commit {} netd {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        commit(),
        args.netd.display()
    );
    let result = match args.workload.as_str() {
        "label_build" => e2e::label_build(&ctx),
        "serve_read" => e2e::serve_read(&ctx),
        _ => e2e::ingest_durable(&ctx),
    };
    let mut run: Run = match result {
        Ok(run) => run,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&work_dir);
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mut per_layer = Vec::new();
    if args.trace {
        match replay::run(&ctx, &mut run) {
            Ok(metrics) => per_layer = metrics,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&work_dir);
                eprintln!("perfbench: traced replay failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work_dir);
    let probe_after = machine_probe_ms();

    print_table("end-to-end (in BENCHMARK.json):", &run.e2e);
    print_table("end-to-end (report only):", &run.extra);
    let tally = &run.tally;
    let ratio = tally.failed() as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<40} {:>14.6} {:<6} {:<7} n={} (errors {} refusals {} timeouts {} wrong {})",
        "op_fail_ratio",
        ratio,
        "ratio",
        "count",
        tally.attempted,
        tally.errors,
        tally.refusals,
        tally.timeouts,
        tally.wrong
    );
    for f in &tally.first {
        println!("  failure: {f}");
    }
    if args.trace {
        print_table("per-layer (traced replay):", &per_layer);
        let spans_path = out_dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match std::fs::write(&spans_path, run.spans.to_jsonl()) {
            Ok(()) => println!(
                "spans: {} written to {}",
                run.spans.spans.len(),
                spans_path.display()
            ),
            Err(e) => println!("spans: not written: {e}"),
        }
    }
    println!("diagnostic: machine_probe_ms before {probe_before:.1} after {probe_after:.1} (not applied to any metric)");

    let reported = if args.trace { &per_layer } else { &run.e2e };
    let mut tally = run.tally.clone();
    match programs_key(&args.netd) {
        Some(key) => {
            let record = out_dir.join(format!(
                "{}-seed{}-{}s-{key}.record",
                args.workload, args.seed, args.seconds
            ));
            let mut known = read_record(&record);
            let all: Vec<&Metric> = run.e2e.iter().chain(&per_layer).collect();
            let (checked, differ) = repeat_check(&mut known, &all);
            println!(
                "deterministic counts: {checked} checked against earlier runs of these programs, seed and length ({})",
                record.display()
            );
            for d in differ {
                println!("  failure: deterministic count changed: {d}");
                tally.check(false, || format!("deterministic count changed: {d}"));
            }
            if args.trace {
                for line in overhead_lines(&known, &run.e2e) {
                    println!("tracing overhead: {line}");
                }
            } else {
                for m in &run.e2e {
                    known.insert(format!("untraced.{}", m.name), format!("{:?}", m.value));
                }
            }
            let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
            let _ = std::fs::write(&record, text);
        }
        None => println!("deterministic counts: not checked (a binary could not be read)"),
    }
    for m in reported.iter() {
        tally.check(m.value.is_finite(), || {
            format!("{} is not a finite number", m.name)
        });
    }
    let correct = tally.failed() == 0;
    let shown: Vec<Metric> = reported
        .iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { -1.0 },
            ..m.clone()
        })
        .collect();
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed(), &shown)
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_expected_keys() {
        let m = vec![Metric::new("setup_s", 0.5, "s", 3, "median")];
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        let json = pclabel_engine::json::Json::parse(&line).unwrap();
        assert!(json.get("metrics").is_some());
    }

    #[test]
    fn deterministic_counts_must_repeat() {
        let mut known = BTreeMap::new();
        let err = Metric::new("est_abs_err_max", 5538.75, "count", 10, "max");
        let timing = Metric::new("setup_s", 0.5, "s", 3, "median");
        assert_eq!(repeat_check(&mut known, &[&err, &timing]), (0, vec![]));
        let slower = Metric::new("setup_s", 0.7, "s", 3, "median");
        let nodes = Metric::count("core.search.nodes_examined", 6178.0, "count");
        assert_eq!(
            repeat_check(&mut known, &[&err, &slower, &nodes]),
            (1, vec![])
        );
        let moved = Metric::new("est_abs_err_max", 5538.5, "count", 10, "max");
        let (checked, differ) = repeat_check(&mut known, &[&moved, &nodes]);
        assert_eq!(checked, 2);
        assert_eq!(differ, vec!["est_abs_err_max was 5538.75, now 5538.5"]);
    }

    #[test]
    fn programs_key_follows_the_binaries() {
        let dir = std::env::temp_dir().join(format!("perfbench-key-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let netd = dir.join("pclabel-netd");
        std::fs::write(&netd, b"one build").unwrap();
        let first = programs_key(&netd).unwrap();
        assert_eq!(programs_key(&netd).unwrap(), first);
        std::fs::write(&netd, b"another build").unwrap();
        assert_ne!(programs_key(&netd).unwrap(), first);
        assert_eq!(programs_key(&dir.join("missing")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overhead_compares_with_the_untraced_run() {
        let mut known = BTreeMap::new();
        known.insert("untraced.query_p50_ms".to_string(), "0.5".to_string());
        let traced = vec![
            Metric::new("query_p50_ms", 0.51, "ms", 100, "p50"),
            Metric::new("setup_s", 0.7, "s", 3, "median"),
        ];
        assert_eq!(
            overhead_lines(&known, &traced),
            vec!["query_p50_ms traced 0.510000 untraced 0.500000 ms: +2.0%"]
        );
    }

    #[test]
    fn probe_is_positive() {
        assert!(machine_probe_ms() > 0.0);
    }
}
