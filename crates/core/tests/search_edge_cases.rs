//! Edge-case tests for the search stack: alternative metrics, option
//! combinations, degenerate datasets, and statistics reporting.

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::label_size;
use pclabel_core::error::ErrorMetric;
use pclabel_core::lattice::{all_subsets, children};
use pclabel_core::pattern::Pattern;
use pclabel_core::patterns::PatternSet;
use pclabel_core::search::{naive_search, top_down_search, Evaluator, SearchOptions, SearchStats};
use pclabel_data::dataset::DatasetBuilder;
use pclabel_data::generate::{
    bluenile, correlated_pair, figure2_sample, independent, AttrSpec, BlueNileConfig,
};

#[test]
fn all_metrics_produce_valid_searches() {
    let d = correlated_pair(5, 3000, 0.3, 77).unwrap();
    for metric in [
        ErrorMetric::MaxAbsolute,
        ErrorMetric::MeanAbsolute,
        ErrorMetric::MaxQ,
        ErrorMetric::MeanQ,
    ] {
        let opts = SearchOptions::with_bound(30).metric(metric);
        let out = top_down_search(&d, &opts).unwrap();
        let stats = out.best_stats.unwrap();
        assert!(stats.max_abs >= stats.mean_abs || stats.n <= 1, "{metric}");
        assert!(stats.max_q >= 1.0);
        assert!(stats.mean_q >= 1.0);
    }
}

#[test]
fn mean_metric_can_prefer_a_different_label() {
    // Max-error and mean-error optima may differ; both must be within
    // bound and self-consistent.
    let d = independent(
        &[
            AttrSpec::new("a", vec![("x", 5.0), ("y", 1.0)]),
            AttrSpec::new("b", vec![("p", 1.0), ("q", 1.0), ("r", 1.0)]),
            AttrSpec::new("c", vec![("s", 2.0), ("t", 1.0)]),
        ],
        5000,
        3,
    )
    .unwrap();
    let max_out = top_down_search(
        &d,
        &SearchOptions::with_bound(8).metric(ErrorMetric::MaxAbsolute),
    )
    .unwrap();
    let mean_out = top_down_search(
        &d,
        &SearchOptions::with_bound(8).metric(ErrorMetric::MeanAbsolute),
    )
    .unwrap();
    assert!(max_out.best_label().unwrap().pattern_count_size() <= 8);
    assert!(mean_out.best_label().unwrap().pattern_count_size() <= 8);
}

#[test]
fn stats_report_times_and_counts() {
    let d = figure2_sample();
    let out = top_down_search(&d, &SearchOptions::with_bound(5)).unwrap();
    let s: &SearchStats = &out.stats;
    assert!(s.nodes_examined > 0);
    assert!(s.candidates_evaluated >= out.candidates.len() as u64);
    assert_eq!(s.total_time(), s.search_time + s.eval_time);
    assert!(!s.truncated);
}

#[test]
fn deterministic_tie_break() {
    // A dataset where several labels achieve identical (zero) error: two
    // identical columns and a constant one. The tie-break must be stable
    // across runs.
    let mut b = DatasetBuilder::new(["x", "y", "z"]);
    for i in 0..50 {
        let v = format!("v{}", i % 3);
        b.push_row(&[v.clone(), v, "const".into()]).unwrap();
    }
    let d = b.finish();
    let a1 = top_down_search(&d, &SearchOptions::with_bound(50)).unwrap();
    let a2 = top_down_search(&d, &SearchOptions::with_bound(50)).unwrap();
    assert_eq!(a1.best_attrs, a2.best_attrs);
    assert_eq!(a1.best_stats.unwrap().max_abs, 0.0);
}

#[test]
fn single_row_dataset() {
    let mut b = DatasetBuilder::new(["a", "b"]);
    b.push_row(&["only", "row"]).unwrap();
    let d = b.finish();
    let out = top_down_search(&d, &SearchOptions::with_bound(5)).unwrap();
    // The full pair has one pattern → exact.
    assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    let naive = naive_search(&d, &SearchOptions::with_bound(5)).unwrap();
    assert_eq!(naive.best_stats.unwrap().max_abs, 0.0);
}

#[test]
fn constant_columns_yield_tiny_exact_labels() {
    let mut b = DatasetBuilder::new(["c1", "c2", "c3"]);
    for _ in 0..100 {
        b.push_row(&["k", "k", "k"]).unwrap();
    }
    let d = b.finish();
    let out = top_down_search(&d, &SearchOptions::with_bound(2)).unwrap();
    assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    let label = out.best_label().unwrap();
    assert_eq!(label.pattern_count_size(), 1);
}

#[test]
fn explicit_zero_count_patterns_evaluate() {
    // Patterns with c_D(p) = 0 exercise the q-error's actual-side clamp.
    let d = figure2_sample();
    let missing = Pattern::parse(
        &d,
        &[("age group", "under 20"), ("marital status", "married")],
    )
    .unwrap();
    let present = Pattern::parse(&d, &[("gender", "Male")]).unwrap();
    let ps = PatternSet::Explicit(vec![missing, present]);
    let ev = Evaluator::new(&d, &ps);
    let stats = ev.error_of(AttrSet::from_indices([0]), false);
    assert_eq!(stats.n, 2);
    assert!(stats.max_abs.is_finite());
    // The zero-count pattern is estimated near zero → small error there;
    // the {gender=Male} pattern is exact (gender ∈ S).
    assert!(stats.max_q >= 1.0);
}

#[test]
fn early_exit_disabled_for_unsupported_metrics() {
    let d = correlated_pair(6, 2000, 0.5, 5).unwrap();
    let ev = Evaluator::new(&d, &PatternSet::AllTuples);
    let cands = vec![AttrSet::from_indices([0]), AttrSet::from_indices([0, 1])];
    // evaluate_many must internally ignore early_exit for MeanQ (the scan
    // must be complete for means); verify it equals explicit full scans.
    let opts = SearchOptions::with_bound(100)
        .metric(ErrorMetric::MeanQ)
        .early_exit(true);
    let means = ev.evaluate_many(&cands, &opts);
    for (i, &s) in cands.iter().enumerate() {
        let full = ev.error_of(s, false);
        assert!((means[i] - full.mean_q).abs() < 1e-12);
    }
}

#[test]
fn candidates_are_the_maximal_in_bound_subsets() {
    // The candidates are every subset of two or more attributes whose
    // label fits and none of whose direct supersets' labels fit, found
    // here by sizing all 2^n subsets.
    let d = bluenile(&BlueNileConfig {
        n_rows: 2000,
        seed: 13,
    })
    .unwrap();
    let n = d.n_attrs();
    for bound in [10u64, 50, 100] {
        let fits = |s: AttrSet| label_size(&d, s) <= bound;
        let mut maximal: Vec<AttrSet> = all_subsets(n)
            .filter(|&s| s.len() >= 2 && fits(s) && !children(s, n).any(fits))
            .collect();
        maximal.sort_by_key(|s| (s.len(), s.bits()));
        let out = top_down_search(&d, &SearchOptions::with_bound(bound)).unwrap();
        assert_eq!(out.candidates, maximal, "bound {bound}");
    }
}

#[test]
fn over_attrs_pattern_set_end_to_end() {
    // Optimize only for sensitive-attribute patterns: any candidate
    // containing those attributes is exact.
    let d = figure2_sample();
    let sensitive = AttrSet::from_indices([0, 2]); // gender, race
    let opts = SearchOptions::with_bound(50).patterns(PatternSet::OverAttrs(sensitive));
    let out = top_down_search(&d, &opts).unwrap();
    assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    let chosen = out.best_attrs.unwrap();
    assert!(sensitive.is_subset_of(chosen));
}
