//! The naive optimal-label algorithm (paper §III, opening).
//!
//! Enumerates attribute subsets level by level starting at size 2,
//! computing every label's size and — when it fits the bound — its error,
//! tracking the best label seen. Because label size is monotone in the
//! attribute set, the first level on which *every* label exceeds the bound
//! proves no larger level can fit, and the algorithm stops (after having
//! examined that level, which is how the paper counts examined subsets in
//! Figure 9).
//!
//! A subset is sized by one bounded pass over the memoized partition of
//! its prefix without its last attribute
//! ([`EvalContext::child_size_bounded`](crate::search::EvalContext::child_size_bounded)):
//! the lexicographic enumeration visits siblings sharing that prefix
//! back to back.

use std::time::Instant;

use pclabel_data::dataset::Dataset;
use pclabel_data::error::Result;

use crate::attrset::AttrSet;
use crate::label::Label;
use crate::lattice::Combinations;
use crate::search::{
    argmin_candidate, check_dataset, Evaluator, SearchOptions, SearchOutcome, SearchStats,
};

/// Optional safety valve for the naive search, which is exponential: stop
/// after examining this many subsets (`None` = run to completion, as the
/// paper's 30-minute-budget runs effectively did).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveLimits {
    /// Maximum number of subsets to size before aborting the scan.
    pub max_nodes: Option<u64>,
}

/// Runs the naive level-wise search.
pub fn naive_search(dataset: &Dataset, opts: &SearchOptions) -> Result<SearchOutcome> {
    naive_search_limited(dataset, opts, NaiveLimits::default())
}

/// [`naive_search`] with an explicit node budget (used by benchmarks to
/// emulate the paper's "did not terminate within 30 minutes" cutoffs).
pub fn naive_search_limited(
    dataset: &Dataset,
    opts: &SearchOptions,
    limits: NaiveLimits,
) -> Result<SearchOutcome> {
    check_dataset(dataset)?;
    let n = dataset.n_attrs();
    let start = Instant::now();
    let evaluator = Evaluator::new(dataset, &opts.patterns)
        .with_count_threads(opts.count_threads)
        .with_count_shards(opts.count_shards);
    let (distinct, dweights) = evaluator.compressed();
    // Level-wise enumeration shares prefixes heavily; one refinement
    // context amortizes the partitions across a level's subsets, for
    // sizing (each subset is its prefix without the last attribute, plus
    // that attribute) and for evaluation alike.
    let mut ctx = evaluator.context_for(opts);

    let mut stats = SearchStats::default();
    let mut in_bound: Vec<AttrSet> = Vec::new();
    let mut errors: Vec<f64> = Vec::new();
    let mut truncated = false;

    'levels: for k in 2..=n {
        let mut any_fit = false;
        for s in Combinations::new(n, k) {
            if let Some(max) = limits.max_nodes {
                if stats.nodes_examined >= max {
                    truncated = true;
                    break 'levels;
                }
            }
            stats.nodes_examined += 1;
            let last = s.max_index().expect("levels start at size 2");
            if ctx
                .child_size_bounded(s.remove(last), last, opts.bound)
                .is_some()
            {
                any_fit = true;
                let eval_start = Instant::now();
                let err = opts
                    .metric
                    .of(&ctx.error_of(s, opts.early_exit && opts.metric.supports_early_exit()));
                stats.eval_time += eval_start.elapsed();
                stats.candidates_evaluated += 1;
                in_bound.push(s);
                errors.push(err);
            }
        }
        if !any_fit {
            break;
        }
    }
    // Attribute all remaining time to the search phase.
    stats.search_time = start.elapsed().saturating_sub(stats.eval_time);
    stats.truncated = truncated;

    let tail_start = Instant::now();
    let best = argmin_candidate(&in_bound, &errors);
    let best_attrs = best.map(|(s, _)| s).unwrap_or(AttrSet::EMPTY);
    let best_stats = Some(ctx.error_of(best_attrs, false));
    let label = Some(Label::from_parts(
        distinct,
        Some(dweights),
        best_attrs,
        evaluator.value_counts(),
        evaluator.n_rows(),
    ));
    stats.eval_time += tail_start.elapsed();
    Ok(SearchOutcome {
        best_attrs: Some(best_attrs),
        best_stats,
        candidates: in_bound,
        stats,
        label,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::top_down_search;
    use pclabel_data::generate::{correlated_pair, figure2_sample, functional_chain};

    #[test]
    fn figure2_bound5_matches_paper_example() {
        let d = figure2_sample();
        let out = naive_search(&d, &SearchOptions::with_bound(5)).unwrap();
        assert_eq!(out.best_attrs, Some(AttrSet::from_indices([1, 3])));
        // Naive examines every pair (6 of them); levels: pairs all sized,
        // some fit, triples sized, none fit (sizes > 5) → stop. Figure 2
        // has C(4,2)=6 pairs + C(4,3)=4 triples = 10 examined.
        assert_eq!(out.stats.nodes_examined, 10);
    }

    #[test]
    fn naive_error_never_worse_than_topdown() {
        // The naive search is exhaustive over in-bound subsets, so its
        // optimum lower-bounds the heuristic's.
        for seed in [1u64, 5, 9] {
            let d = correlated_pair(5, 1500, 0.4, seed).unwrap();
            let opts = SearchOptions::with_bound(15);
            let naive = naive_search(&d, &opts).unwrap();
            let td = top_down_search(&d, &opts).unwrap();
            let ne = naive.best_stats.unwrap().max_abs;
            let te = td.best_stats.unwrap().max_abs;
            assert!(ne <= te + 1e-9, "seed {seed}: naive {ne} vs topdown {te}");
        }
    }

    #[test]
    fn naive_examines_more_nodes_than_topdown() {
        // The heuristic's advantage appears when the bound prunes the
        // lattice: give three small attributes (fit in pairs/triples) and
        // five large ones whose singletons already bust the bound, so the
        // top-down search never extends them, while the naive algorithm
        // enumerates complete levels.
        use pclabel_data::generate::{independent, AttrSpec};
        let mut specs: Vec<AttrSpec> = (0..3)
            .map(|i| AttrSpec::uniform(format!("small{i}"), vec!["a".into(), "b".into()]))
            .collect();
        for i in 0..5 {
            let values: Vec<(String, f64)> = (0..20).map(|v| (format!("v{v}"), 1.0)).collect();
            specs.push(AttrSpec {
                name: format!("big{i}"),
                values,
            });
        }
        let d = independent(&specs, 4000, 8).unwrap();
        let opts = SearchOptions::with_bound(10);
        let naive = naive_search(&d, &opts).unwrap();
        let td = top_down_search(&d, &opts).unwrap();
        assert!(
            naive.stats.nodes_examined > td.stats.nodes_examined,
            "naive {} <= topdown {}",
            naive.stats.nodes_examined,
            td.stats.nodes_examined
        );
        // The exhaustive naive search is at least as good as the heuristic
        // (it may beat it: top-down only evaluates maximal in-bound sets).
        assert!(naive.best_stats.unwrap().max_abs <= td.best_stats.unwrap().max_abs + 1e-9);
    }

    #[test]
    fn node_limit_truncates() {
        let d = functional_chain(8, 3, 500, 3).unwrap();
        let limited = naive_search_limited(
            &d,
            &SearchOptions::with_bound(9),
            NaiveLimits { max_nodes: Some(5) },
        )
        .unwrap();
        assert_eq!(limited.stats.nodes_examined, 5);
        assert!(limited.stats.truncated);
        let full = naive_search(&d, &SearchOptions::with_bound(9)).unwrap();
        assert!(!full.stats.truncated);
    }

    #[test]
    fn impossible_bound_falls_back() {
        let d = figure2_sample();
        let out = naive_search(&d, &SearchOptions::with_bound(1)).unwrap();
        assert_eq!(out.best_attrs, Some(AttrSet::EMPTY));
        assert!(out.candidates.is_empty());
        // Level 2 was examined in full before giving up.
        assert_eq!(out.stats.nodes_examined, 6);
    }

    #[test]
    fn two_attribute_dataset() {
        let d = correlated_pair(3, 100, 0.0, 1).unwrap();
        let out = naive_search(&d, &SearchOptions::with_bound(100)).unwrap();
        // Only one subset of size 2 exists and it is exact.
        assert_eq!(out.best_attrs, Some(AttrSet::full(2)));
        assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    }
}
