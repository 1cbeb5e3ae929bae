//! `bench_trend` — compares a benchmark artifact against the previous
//! commit's, failing on large regressions so CI trends `BENCH_net.json`,
//! `BENCH_count.json` and `BENCH_search.json` instead of just archiving
//! them.
//!
//! ```text
//! bench_trend BASELINE.json CURRENT.json [--max-regress 0.30]
//! ```
//!
//! The file kind is sniffed from the `"benchmark"` field:
//!
//! * `engine_throughput` (`BENCH_net.json`) — `net` rows are matched on
//!   `(model, client_threads, idle_conns, reactors)` and fail when
//!   `req_per_sec` drops by more than the threshold. A row without the
//!   `reactors` field (an older artifact) counts as 1 reactor under the
//!   reactor model and 0 under the pool model, so baselines from before
//!   the multi-reactor plane keep gating the single-loop rows. Rows
//!   with more than one reactor are never gated: the scaling grid only
//!   carries signal on many-core runners, and shared single-CPU CI
//!   boxes would trend pure scheduler jitter; `counting.parallel` rows are
//!   matched on `(threads, shards)` and fail when `seconds` grows by
//!   more than the threshold. The current artifact's
//!   `telemetry_overhead` row is also held to an absolute 3% budget:
//!   the metrics-enabled dispatch path must keep within that fraction
//!   of the no-op telemetry handle's req/s, regardless of baseline.
//!   The `debug_scrape` row (serving throughput under a concurrent
//!   `/debug` poller) is trended on `req_per_sec` like any net row, so
//!   an introspection route that starts stealing serving capacity
//!   fails the same gate. The `durability_overhead` row is trended on
//!   `durable_req_per_sec` — appends/sec with the write-ahead log
//!   attached — and skipped when either timed loop sits under the
//!   noise floor.
//! * `counting` (`BENCH_count.json`) — scenario rows are matched on
//!   `(scenario, mode, threads, shards)` and fail when `build_secs` or
//!   `merge_secs` grows by more than the threshold.
//! * `search` (`BENCH_search.json`) — scenario rows are matched on
//!   `(scenario, strategy, mode)` and fail when `cands_per_sec` drops or
//!   `search_secs` (the lattice walk: node generation and sizing) grows
//!   by more than the threshold. `cands_per_sec` is skipped when the
//!   row's `eval_secs` sits under the 5 ms noise floor (a fast refinement
//!   walk over a small distinct table finishes in microseconds — pure
//!   jitter on a shared runner); `search_secs` is skipped when it sits
//!   under the same floor on either side.
//!
//! Rows present on only one side are reported and skipped (grids grow
//! over time), and timings under 5 ms are never compared — at that scale
//! a shared CI runner's jitter swamps any real signal. Exit codes: 0 =
//! no regression (including "nothing comparable"), 1 = regression, 2 =
//! usage or parse error.

use pclabel_engine::json::Json;

/// Comparisons on timings below this many seconds are skipped as noise.
const MIN_SECONDS: f64 = 0.005;

/// Hard ceiling on the current artifact's `telemetry_overhead` row:
/// dispatching with live metrics must stay within this percentage of
/// the no-op telemetry handle's req/s. Absolute, not baseline-relative.
const MAX_TELEMETRY_OVERHEAD_PCT: f64 = 3.0;

fn usage(message: &str) -> ! {
    eprintln!("bench_trend: {message}");
    eprintln!("usage: bench_trend BASELINE.json CURRENT.json [--max-regress 0.30]");
    std::process::exit(2);
}

/// One comparable metric: its row key, name, baseline and current value,
/// and whether bigger is better.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    key: String,
    name: &'static str,
    higher_is_better: bool,
    value: f64,
}

fn row_f64(row: &Json, field: &str) -> Option<f64> {
    row.get(field).and_then(Json::as_f64)
}

fn fmt_key(parts: &[(&str, String)]) -> String {
    parts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn field_text(row: &Json, field: &str) -> String {
    match row.get(field) {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.to_string(),
        None => "?".to_string(),
    }
}

/// Flattens one artifact into comparable metrics.
fn metrics_of(report: &Json) -> Result<Vec<Metric>, String> {
    let kind = report
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"benchmark\" field".to_string())?;
    let mut out = Vec::new();
    match kind {
        "engine_throughput" => {
            if let Some(rows) = report.get("net").and_then(Json::as_array) {
                for row in rows {
                    // Older artifacts predate the `reactors` field: they
                    // were measured on one event loop (reactor model) or
                    // none (pool model), so default accordingly to keep
                    // the single-loop rows comparable across the
                    // transition.
                    let reactors = match row_f64(row, "reactors") {
                        Some(n) => n,
                        None if field_text(row, "model") == "reactor" => 1.0,
                        None => 0.0,
                    };
                    if reactors > 1.0 {
                        // Multi-reactor grid rows are informational:
                        // their throughput only moves with core count,
                        // which a shared runner cannot hold steady.
                        continue;
                    }
                    let key = fmt_key(&[
                        ("net/model", field_text(row, "model")),
                        ("clients", field_text(row, "client_threads")),
                        ("idle", field_text(row, "idle_conns")),
                        ("reactors", format!("{}", reactors as u64)),
                    ]);
                    if let Some(v) = row_f64(row, "req_per_sec") {
                        out.push(Metric {
                            key,
                            name: "req_per_sec",
                            higher_is_better: true,
                            value: v,
                        });
                    }
                }
            }
            if let Some(row) = report.get("debug_scrape") {
                let key = fmt_key(&[
                    ("debug_scrape/model", field_text(row, "model")),
                    ("clients", field_text(row, "client_threads")),
                ]);
                if let Some(v) = row_f64(row, "req_per_sec") {
                    out.push(Metric {
                        key,
                        name: "req_per_sec",
                        higher_is_better: true,
                        value: v,
                    });
                }
            }
            if let Some(row) = report.get("durability_overhead") {
                // Appends/sec with the WAL sink attached, trended like
                // any throughput row. Rates derived from sub-noise-floor
                // loops carry no signal on shared runners; skip those.
                let above_floor = |field| row_f64(row, field).is_some_and(|s| s >= MIN_SECONDS);
                if above_floor("plain_seconds") && above_floor("durable_seconds") {
                    let key = fmt_key(&[("durability_overhead/fsync", field_text(row, "fsync"))]);
                    if let Some(v) = row_f64(row, "durable_req_per_sec") {
                        out.push(Metric {
                            key,
                            name: "durable_req_per_sec",
                            higher_is_better: true,
                            value: v,
                        });
                    }
                }
            }
            if let Some(row) = report.get("faults_disabled_overhead") {
                // The fault-injection seam must stay ~free when unset:
                // trend the inert durable-append rate so a regression in
                // the two-atomic-load fast path shows up like any other
                // throughput drop. Same noise-floor rule as above.
                let above_floor = |field| row_f64(row, field).is_some_and(|s| s >= MIN_SECONDS);
                if above_floor("inert_seconds") && above_floor("armed_seconds") {
                    let key = fmt_key(&[("faults_disabled/fsync", field_text(row, "fsync"))]);
                    if let Some(v) = row_f64(row, "inert_req_per_sec") {
                        out.push(Metric {
                            key,
                            name: "inert_req_per_sec",
                            higher_is_better: true,
                            value: v,
                        });
                    }
                }
            }
            if let Some(rows) = report
                .get("counting")
                .and_then(|c| c.get("parallel"))
                .and_then(Json::as_array)
            {
                for row in rows {
                    let key = fmt_key(&[
                        ("counting/threads", field_text(row, "threads")),
                        ("shards", field_text(row, "shards")),
                    ]);
                    if let Some(v) = row_f64(row, "seconds") {
                        out.push(Metric {
                            key,
                            name: "seconds",
                            higher_is_better: false,
                            value: v,
                        });
                    }
                }
            }
        }
        "counting" => {
            let scenarios = report
                .get("scenarios")
                .and_then(Json::as_array)
                .ok_or_else(|| "counting report without \"scenarios\"".to_string())?;
            for scenario in scenarios {
                let name = field_text(scenario, "name");
                let Some(rows) = scenario.get("results").and_then(Json::as_array) else {
                    continue;
                };
                for row in rows {
                    let key = fmt_key(&[
                        ("scenario", name.clone()),
                        ("mode", field_text(row, "mode")),
                        ("threads", field_text(row, "threads")),
                        ("shards", field_text(row, "shards")),
                    ]);
                    for metric in ["build_secs", "merge_secs"] {
                        if let Some(v) = row_f64(row, metric) {
                            out.push(Metric {
                                key: key.clone(),
                                name: metric,
                                higher_is_better: false,
                                value: v,
                            });
                        }
                    }
                }
            }
        }
        "search" => {
            let scenarios = report
                .get("scenarios")
                .and_then(Json::as_array)
                .ok_or_else(|| "search report without \"scenarios\"".to_string())?;
            for scenario in scenarios {
                let name = field_text(scenario, "name");
                let Some(rows) = scenario.get("results").and_then(Json::as_array) else {
                    continue;
                };
                for row in rows {
                    let key = fmt_key(&[
                        ("scenario", name.clone()),
                        ("strategy", field_text(row, "strategy")),
                        ("mode", field_text(row, "mode")),
                    ]);
                    if let Some(v) = row_f64(row, "search_secs") {
                        out.push(Metric {
                            key: key.clone(),
                            name: "search_secs",
                            higher_is_better: false,
                            value: v,
                        });
                    }
                    // Throughput derived from a sub-noise-floor timing
                    // carries no signal.
                    if row_f64(row, "eval_secs").is_none_or(|s| s < MIN_SECONDS) {
                        continue;
                    }
                    if let Some(v) = row_f64(row, "cands_per_sec") {
                        out.push(Metric {
                            key,
                            name: "cands_per_sec",
                            higher_is_better: true,
                            value: v,
                        });
                    }
                }
            }
        }
        other => return Err(format!("unknown benchmark kind {other:?}")),
    }
    Ok(out)
}

/// A regression found between two matched metrics.
#[derive(Debug, PartialEq)]
struct Regression {
    key: String,
    name: &'static str,
    baseline: f64,
    current: f64,
    change: f64,
}

/// Compares matched metrics; `max_regress` is the tolerated relative
/// loss (0.30 = 30%).
fn compare(baseline: &[Metric], current: &[Metric], max_regress: f64) -> (Vec<Regression>, usize) {
    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.key == b.key && c.name == b.name) else {
            println!("bench_trend: [skip] {} {} only in baseline", b.key, b.name);
            continue;
        };
        // Sub-noise-floor timings carry no signal on shared runners.
        if !b.higher_is_better && (b.value < MIN_SECONDS || c.value < MIN_SECONDS) {
            continue;
        }
        if b.value <= 0.0 {
            continue;
        }
        compared += 1;
        let change = if b.higher_is_better {
            (b.value - c.value) / b.value // fraction of throughput lost
        } else {
            (c.value - b.value) / b.value // fraction of time gained
        };
        if change > max_regress {
            regressions.push(Regression {
                key: b.key.clone(),
                name: b.name,
                baseline: b.value,
                current: c.value,
                change,
            });
        }
    }
    (regressions, compared)
}

/// Gates the current artifact's `telemetry_overhead` row. No baseline
/// is consulted: the bound is an absolute budget, so a slow creep that
/// a relative trend check would wave through still fails here. Rows
/// whose loops sit under the noise floor on either side are skipped.
fn telemetry_gate(current: &Json) -> Option<Regression> {
    let row = current.get("telemetry_overhead")?;
    let on = row.get("on_seconds").and_then(Json::as_f64)?;
    let off = row.get("off_seconds").and_then(Json::as_f64)?;
    if on < MIN_SECONDS || off < MIN_SECONDS {
        return None;
    }
    let pct = row.get("overhead_pct").and_then(Json::as_f64)?;
    (pct > MAX_TELEMETRY_OVERHEAD_PCT).then(|| Regression {
        key: "telemetry_overhead".into(),
        name: "overhead_pct",
        baseline: MAX_TELEMETRY_OVERHEAD_PCT,
        current: pct,
        change: (pct - MAX_TELEMETRY_OVERHEAD_PCT) / 100.0,
    })
}

fn run(
    baseline_text: &str,
    current_text: &str,
    max_regress: f64,
) -> Result<Vec<Regression>, String> {
    let baseline = Json::parse(baseline_text).map_err(|e| format!("baseline: {e}"))?;
    let current = Json::parse(current_text).map_err(|e| format!("current: {e}"))?;
    let b = metrics_of(&baseline)?;
    let c = metrics_of(&current)?;
    let (mut regressions, compared) = compare(&b, &c, max_regress);
    regressions.extend(telemetry_gate(&current));
    println!(
        "bench_trend: compared {compared} metric(s), {} regression(s) beyond {:.0}%",
        regressions.len(),
        max_regress * 100.0
    );
    Ok(regressions)
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut max_regress = 0.30f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-regress" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| usage("--max-regress needs a value"));
                max_regress = value
                    .parse()
                    .unwrap_or_else(|_| usage("--max-regress needs a number"));
            }
            other if other.starts_with('-') => usage(&format!("unknown flag {other:?}")),
            path => paths.push(path.to_string()),
        }
    }
    let [baseline_path, current_path] = paths.as_slice() else {
        usage("expected exactly two artifact paths");
    };
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| usage(&format!("{p}: {e}")));
    match run(&read(baseline_path), &read(current_path), max_regress) {
        Err(e) => usage(&e),
        Ok(regressions) if regressions.is_empty() => {}
        Ok(regressions) => {
            for r in &regressions {
                eprintln!(
                    "bench_trend: REGRESSION {} {}: {:.4} -> {:.4} ({:+.1}%)",
                    r.key,
                    r.name,
                    r.baseline,
                    r.current,
                    r.change * 100.0
                );
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NET_BASE: &str = r#"{"benchmark":"engine_throughput","counting":{"serial_seconds":1.0,"parallel":[
        {"threads":2,"shards":8,"seconds":0.5,"rows_per_sec":400000}]},
        "net":[{"model":"reactor","client_threads":2,"idle_conns":12,"reactors":1,"requests":400,"seconds":1.0,"req_per_sec":1000},
               {"model":"reactor","client_threads":4,"idle_conns":12,"reactors":4,"requests":800,"seconds":1.0,"req_per_sec":4000}],
        "debug_scrape":{"model":"reactor","client_threads":1,"requests":200,"seconds":0.25,"req_per_sec":800,"scrapes":900,"scrapes_per_sec":3600},
        "durability_overhead":{"requests":1000,"fsync":"batch","plain_seconds":0.2,"durable_seconds":0.25,"plain_req_per_sec":5000,"durable_req_per_sec":4000,"overhead_pct":25.0}}"#;

    #[test]
    fn net_req_per_sec_regression_detected() {
        let slower = NET_BASE.replace("\"req_per_sec\":1000", "\"req_per_sec\":600");
        let regressions = run(NET_BASE, &slower, 0.30).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "req_per_sec");
        // 40% drop, reported relative to baseline.
        assert!((regressions[0].change - 0.4).abs() < 1e-9);
        // Within tolerance: no failure.
        let ok = NET_BASE.replace("\"req_per_sec\":1000", "\"req_per_sec\":800");
        assert!(run(NET_BASE, &ok, 0.30).unwrap().is_empty());
        // Improvements never fail.
        let faster = NET_BASE.replace("\"req_per_sec\":1000", "\"req_per_sec\":2000");
        assert!(run(NET_BASE, &faster, 0.30).unwrap().is_empty());
    }

    #[test]
    fn multi_reactor_rows_are_informational_not_gated() {
        // The 4-reactor grid row collapsing must not fail: a shared
        // runner cannot hold multi-loop scaling steady.
        let collapsed = NET_BASE.replace("\"req_per_sec\":4000", "\"req_per_sec\":100");
        assert!(run(NET_BASE, &collapsed, 0.30).unwrap().is_empty());
    }

    #[test]
    fn baselines_without_the_reactors_field_still_gate_single_loop_rows() {
        // An artifact from before the multi-reactor plane carries no
        // `reactors` field but was measured on one event loop, so it
        // must keep matching current `"reactors":1` rows.
        let old = NET_BASE.replace(",\"reactors\":1", "");
        let slower = NET_BASE.replace("\"req_per_sec\":1000", "\"req_per_sec\":600");
        let regressions = run(&old, &slower, 0.30).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "req_per_sec");
        assert!(
            regressions[0].key.contains("reactors=1"),
            "{}",
            regressions[0].key
        );
    }

    #[test]
    fn debug_scrape_regression_detected() {
        // The introspection poller starts stealing serving capacity:
        // the debug_scrape row fails like any net row.
        let slower = NET_BASE.replace("\"req_per_sec\":800", "\"req_per_sec\":400");
        let regressions = run(NET_BASE, &slower, 0.30).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "req_per_sec");
        assert_eq!(regressions[0].key, "debug_scrape/model=reactor clients=1");
        // Within tolerance: passes.
        let ok = NET_BASE.replace("\"req_per_sec\":800", "\"req_per_sec\":700");
        assert!(run(NET_BASE, &ok, 0.30).unwrap().is_empty());
        // A baseline without the row (older artifact): nothing compared.
        let (head, _) = NET_BASE.split_once(",\n        \"debug_scrape\"").unwrap();
        let without = format!("{head}}}");
        assert!(run(&without, NET_BASE, 0.30).unwrap().is_empty());
    }

    #[test]
    fn durability_overhead_regression_detected() {
        // The WAL-attached append rate collapsing fails like any
        // throughput row.
        let slower = NET_BASE.replace(
            "\"durable_req_per_sec\":4000",
            "\"durable_req_per_sec\":2000",
        );
        let regressions = run(NET_BASE, &slower, 0.30).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "durable_req_per_sec");
        assert_eq!(regressions[0].key, "durability_overhead/fsync=batch");
        // Within tolerance: passes.
        let ok = NET_BASE.replace(
            "\"durable_req_per_sec\":4000",
            "\"durable_req_per_sec\":3500",
        );
        assert!(run(NET_BASE, &ok, 0.30).unwrap().is_empty());
        // Sub-noise-floor loops: the row is skipped on both sides even
        // when the rate looks catastrophic.
        let noisy_base = NET_BASE.replace("\"durable_seconds\":0.25", "\"durable_seconds\":0.001");
        let noisy_slow =
            noisy_base.replace("\"durable_req_per_sec\":4000", "\"durable_req_per_sec\":10");
        assert!(run(&noisy_base, &noisy_slow, 0.30).unwrap().is_empty());
        // A baseline without the row (older artifact): nothing compared.
        let (head, _) = NET_BASE
            .split_once(",\n        \"durability_overhead\"")
            .unwrap();
        let without = format!("{head}}}");
        assert!(run(&without, NET_BASE, 0.30).unwrap().is_empty());
    }

    fn with_overhead(pct: f64, secs: f64) -> String {
        format!(
            concat!(
                "{{\"benchmark\":\"engine_throughput\",",
                "\"counting\":{{\"serial_seconds\":1.0,\"parallel\":[]}},",
                "\"telemetry_overhead\":{{\"requests\":5000,\"on_seconds\":{secs},",
                "\"off_seconds\":{secs},\"overhead_pct\":{pct}}}}}"
            ),
            secs = secs,
            pct = pct,
        )
    }

    #[test]
    fn telemetry_overhead_gate_is_absolute() {
        // Over the 3% ceiling: fails with no baseline movement at all.
        let regressions = run(NET_BASE, &with_overhead(4.5, 0.05), 0.30).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "overhead_pct");
        assert_eq!(regressions[0].key, "telemetry_overhead");
        // Within the ceiling: passes.
        assert!(run(NET_BASE, &with_overhead(1.2, 0.05), 0.30)
            .unwrap()
            .is_empty());
        // Under the noise floor: skipped even when the pct looks wild.
        assert!(run(NET_BASE, &with_overhead(50.0, 0.001), 0.30)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn counting_seconds_regression_detected() {
        let slower = NET_BASE.replace("\"seconds\":0.5,", "\"seconds\":0.9,");
        let regressions = run(NET_BASE, &slower, 0.30).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "seconds");
        assert_eq!(regressions[0].key, "counting/threads=2 shards=8");
    }

    const COUNT_BASE: &str = r#"{"benchmark":"counting","rows":400000,"scenarios":[
        {"name":"large_groups","groups":120000,"results":[
          {"mode":"merged","threads":2,"shards":1,"build_secs":0.8,"partition_secs":0,"count_secs":0.5,"merge_secs":0.3,"peak_bytes":9000000},
          {"mode":"sharded","threads":2,"shards":8,"build_secs":0.5,"partition_secs":0.1,"count_secs":0.39,"merge_secs":0.001,"peak_bytes":6000000}]}]}"#;

    #[test]
    fn merge_time_regression_detected_and_noise_floor_respected() {
        let slower = COUNT_BASE.replace("\"merge_secs\":0.3", "\"merge_secs\":0.5");
        let regressions = run(COUNT_BASE, &slower, 0.30).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "merge_secs");
        assert!(regressions[0].key.contains("mode=merged"));

        // The sharded merge_secs sits under the 5 ms noise floor: even a
        // 10x relative change must not fail.
        let noisy = COUNT_BASE.replace("\"merge_secs\":0.001", "\"merge_secs\":0.004");
        assert!(run(COUNT_BASE, &noisy, 0.30).unwrap().is_empty());
    }

    #[test]
    fn missing_rows_are_skipped_not_failed() {
        // The current artifact dropped a row (grid changed): skip it.
        let current = r#"{"benchmark":"counting","scenarios":[
            {"name":"large_groups","results":[
              {"mode":"sharded","threads":2,"shards":8,"build_secs":0.5,"merge_secs":0.001}]}]}"#;
        assert!(run(COUNT_BASE, current, 0.30).unwrap().is_empty());
    }

    const SEARCH_BASE: &str = r#"{"benchmark":"search","rows":60000,"scenarios":[
        {"name":"correlated_pairs","rows":60000,"distinct":14000,"results":[
          {"strategy":"greedy","mode":"refine","threads":1,"candidates":18,"eval_secs":0.012,"cands_per_sec":1500.0,"per_cand_ms":0.66,"search_secs":0.02,"nodes_examined":20},
          {"strategy":"greedy","mode":"cold","threads":1,"candidates":18,"eval_secs":0.040,"cands_per_sec":450.0,"per_cand_ms":2.2,"search_secs":0.02,"nodes_examined":20},
          {"strategy":"topdown","mode":"refine","threads":1,"candidates":15,"eval_secs":0.001,"cands_per_sec":15000.0,"per_cand_ms":0.06,"search_secs":0.05,"nodes_examined":56}]}]}"#;

    #[test]
    fn search_cands_per_sec_regression_detected() {
        let slower = SEARCH_BASE.replace("\"cands_per_sec\":1500.0", "\"cands_per_sec\":900.0");
        let regressions = run(SEARCH_BASE, &slower, 0.30).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "cands_per_sec");
        assert!(regressions[0].key.contains("strategy=greedy"));
        assert!(regressions[0].key.contains("mode=refine"));
        // Within tolerance and improvements never fail.
        let ok = SEARCH_BASE.replace("\"cands_per_sec\":1500.0", "\"cands_per_sec\":1200.0");
        assert!(run(SEARCH_BASE, &ok, 0.30).unwrap().is_empty());
        let faster = SEARCH_BASE.replace("\"cands_per_sec\":1500.0", "\"cands_per_sec\":9000.0");
        assert!(run(SEARCH_BASE, &faster, 0.30).unwrap().is_empty());
    }

    #[test]
    fn search_secs_regression_detected() {
        // The topdown row's walk (50 ms) is gated even though its eval
        // time sits under the noise floor.
        let slower = SEARCH_BASE.replace("\"search_secs\":0.05", "\"search_secs\":0.08");
        let regressions = run(SEARCH_BASE, &slower, 0.30).unwrap();
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "search_secs");
        assert!(regressions[0].key.contains("strategy=topdown"));
        // Within tolerance and improvements never fail.
        let ok = SEARCH_BASE.replace("\"search_secs\":0.05", "\"search_secs\":0.06");
        assert!(run(SEARCH_BASE, &ok, 0.30).unwrap().is_empty());
        let faster = SEARCH_BASE.replace("\"search_secs\":0.05", "\"search_secs\":0.01");
        assert!(run(SEARCH_BASE, &faster, 0.30).unwrap().is_empty());
        // A walk under the 5 ms floor on either side is noise.
        let tiny = SEARCH_BASE.replace("\"search_secs\":0.05", "\"search_secs\":0.001");
        assert!(run(&tiny, SEARCH_BASE, 0.30).unwrap().is_empty());
    }

    #[test]
    fn search_sub_noise_floor_rows_are_skipped() {
        // The topdown row's eval_secs (1 ms) sits under the 5 ms floor:
        // even a 10x rate collapse must not fail.
        let collapsed =
            SEARCH_BASE.replace("\"cands_per_sec\":15000.0", "\"cands_per_sec\":1500.0");
        assert!(run(SEARCH_BASE, &collapsed, 0.30).unwrap().is_empty());
    }

    #[test]
    fn mismatched_kinds_and_bad_json_error() {
        assert!(run(NET_BASE, "{", 0.30).is_err());
        assert!(run(r#"{"benchmark":"mystery"}"#, NET_BASE, 0.30).is_err());
    }

    #[test]
    fn custom_threshold_applies() {
        let slower = NET_BASE.replace("\"req_per_sec\":1000", "\"req_per_sec\":900");
        assert!(run(NET_BASE, &slower, 0.30).unwrap().is_empty());
        assert_eq!(run(NET_BASE, &slower, 0.05).unwrap().len(), 1);
    }
}
