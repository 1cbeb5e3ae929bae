//! Algorithm 1: top-down lattice search for the optimal label.
//!
//! The queue-driven BFS visits each lattice node at most once
//! (Proposition 3.8, by the `gen` operator's index ordering). A node is
//! enqueued only when its label fits the bound, so the traversal explores
//! exactly the within-budget antichain frontier plus, in the worst case,
//! its immediate children — a tiny fraction of the `2^n` lattice
//! (54–99 % fewer nodes than the naive algorithm in the paper's Figure 9).
//!
//! A child `curr ∪ {a}` is sized by one pass over `curr`'s memoized
//! partition ([`EvalContext::child_size_bounded`](crate::search::EvalContext::child_size_bounded)):
//! two array reads per distinct row, abandoned as soon as the running
//! pair count crosses the bound — with the paper's small bounds most
//! over-budget children cost a few hundred rows. Only enqueued nodes are
//! ever parents, so only they get a partition.

use std::collections::VecDeque;
use std::time::Instant;

use pclabel_data::dataset::Dataset;
use pclabel_data::error::Result;

use crate::attrset::AttrSet;
use crate::hash::FxHashSet;
use crate::label::Label;
use crate::lattice::gen;
use crate::search::{
    argmin_candidate, check_dataset, Evaluator, SearchOptions, SearchOutcome, SearchStats,
};

/// Runs Algorithm 1 and returns the best label within `opts.bound`.
///
/// Deviation from the paper (which leaves the case unspecified): when *no*
/// pair of attributes fits the bound, the candidate set is empty and the
/// empty-subset label (pure independence estimation, `|PC| = 0`) is
/// returned as a fallback rather than failing.
pub fn top_down_search(dataset: &Dataset, opts: &SearchOptions) -> Result<SearchOutcome> {
    check_dataset(dataset)?;
    let n = dataset.n_attrs();
    let search_start = Instant::now();

    // Partitions live over the evaluator's compressed distinct table:
    // group counts over distinct tuples equal those over raw rows, but
    // each pass touches fewer rows.
    let evaluator = Evaluator::new(dataset, &opts.patterns)
        .with_count_threads(opts.count_threads)
        .with_count_shards(opts.count_shards);
    let (distinct, dweights) = evaluator.compressed();

    let mut stats = SearchStats::default();
    let mut queue: VecDeque<AttrSet> = VecDeque::from([AttrSet::EMPTY]);
    let mut cands: FxHashSet<AttrSet> = FxHashSet::default();
    let mut ctx = evaluator.context_for(opts);

    while let Some(curr) = queue.pop_front() {
        for child in gen(curr, n) {
            stats.nodes_examined += 1;
            let attr = child.max_index().expect("gen adds an attribute");
            if ctx.child_size_bounded(curr, attr, opts.bound).is_some() {
                queue.push_back(child);
                // Singletons are enqueued (they seed the pair level and
                // their sizes count as examined, matching the paper's
                // Figure 9 node counts) but are not candidates: a
                // one-attribute PC duplicates information already in VC,
                // and Example 3.7's candidate set contains only pairs.
                if child.len() >= 2 {
                    remove_parents(&mut cands, child, opts.deep_prune);
                    cands.insert(child);
                }
            }
        }
    }
    stats.search_time = search_start.elapsed();

    // Final arg-min over the candidate set (the paper's line 10).
    let eval_start = Instant::now();
    let mut cand_list: Vec<AttrSet> = cands.into_iter().collect();
    cand_list.sort_by_key(|s| (s.len(), s.bits()));
    stats.candidates_evaluated = cand_list.len() as u64;
    // Candidates are sorted by (size, bits), so consecutive subsets share
    // prefixes and the refinement contexts inside evaluate_many derive
    // most partitions by a single-column pass or a coarsening.
    let errors = evaluator.evaluate_many(&cand_list, opts);
    let best = argmin_candidate(&cand_list, &errors);
    stats.eval_time = eval_start.elapsed();

    let best_attrs = best.map(|(s, _)| s).unwrap_or(AttrSet::EMPTY);
    let best_stats = Some(ctx.error_of(best_attrs, false));
    let label = Some(Label::from_parts(
        distinct,
        Some(dweights),
        best_attrs,
        evaluator.value_counts(),
        evaluator.n_rows(),
    ));
    Ok(SearchOutcome {
        best_attrs: Some(best_attrs),
        best_stats,
        candidates: cand_list,
        stats,
        label,
    })
}

/// The paper's `removeParents(cands, c)`: drop the direct parents of `c`
/// (they are dominated per Proposition 3.2's intuition). The deep-prune
/// ablation removes *every* stored subset of `c`.
fn remove_parents(cands: &mut FxHashSet<AttrSet>, c: AttrSet, deep: bool) {
    if deep {
        cands.retain(|s| !s.is_strict_subset_of(c));
    } else {
        for parent in c.parents() {
            cands.remove(&parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorMetric;
    use crate::patterns::PatternSet;
    use pclabel_data::generate::{correlated_pair, figure2_sample, functional_chain};

    #[test]
    fn example_3_7_returns_age_marital() {
        // Figure 2 data, bound 5: candidates are {g,a} (size 4) and {a,m}
        // (size 3); {a,m} wins. (Note the paper's prose swaps {a,r}/{a,m};
        // the conclusion — return L_{a,m} — matches the data.)
        let d = figure2_sample();
        let out = top_down_search(&d, &SearchOptions::with_bound(5)).unwrap();
        let mut cands = out.candidates.clone();
        cands.sort_by_key(|s| s.bits());
        assert_eq!(
            cands,
            vec![AttrSet::from_indices([0, 1]), AttrSet::from_indices([1, 3])]
        );
        assert_eq!(out.best_attrs, Some(AttrSet::from_indices([1, 3])));
        let label = out.best_label().unwrap();
        assert_eq!(label.pattern_count_size(), 3);
        assert!(label.pattern_count_size() <= 5);
    }

    #[test]
    fn large_bound_selects_full_set() {
        // With an unbounded budget, the full attribute set fits and has
        // zero error, so it must win.
        let d = figure2_sample();
        let out = top_down_search(&d, &SearchOptions::with_bound(1000)).unwrap();
        assert_eq!(out.best_attrs, Some(AttrSet::full(4)));
        assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    }

    #[test]
    fn impossible_bound_falls_back_to_independence() {
        let d = figure2_sample();
        let out = top_down_search(&d, &SearchOptions::with_bound(1)).unwrap();
        assert_eq!(out.best_attrs, Some(AttrSet::EMPTY));
        assert_eq!(out.candidates.len(), 0);
        let label = out.best_label().unwrap();
        assert_eq!(label.pattern_count_size(), 0);
        // The fallback label still estimates (independence assumption).
        let p = crate::pattern::Pattern::parse(&d, &[("gender", "Female")]).unwrap();
        assert_eq!(label.estimate(&p), 9.0);
    }

    #[test]
    fn candidates_are_maximal_within_bound() {
        // No candidate may be a strict subset of another candidate whose
        // label also fits — removeParents guarantees the direct-parent
        // case; with deep_prune the full antichain property holds.
        let d = correlated_pair(4, 800, 0.5, 9).unwrap();
        let opts = SearchOptions::with_bound(10).deep_prune(true);
        let out = top_down_search(&d, &opts).unwrap();
        for (i, &a) in out.candidates.iter().enumerate() {
            for (j, &b) in out.candidates.iter().enumerate() {
                if i != j {
                    assert!(!a.is_strict_subset_of(b), "{a} ⊂ {b}");
                }
            }
        }
    }

    #[test]
    fn finds_perfect_label_on_functional_data() {
        // In a functional chain every attribute determines the rest, so a
        // 2-attribute label over adjacent attributes is exact. The search
        // must find a zero-error label with a tiny budget.
        let d = functional_chain(5, 4, 2000, 1).unwrap();
        let out = top_down_search(&d, &SearchOptions::with_bound(4)).unwrap();
        assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    }

    #[test]
    fn nodes_examined_is_reported() {
        let d = figure2_sample();
        let out = top_down_search(&d, &SearchOptions::with_bound(5)).unwrap();
        // gen({}) = 4 singletons; each singleton fits trivially? No —
        // singleton sizes are the domain sizes (2, 2, 3, 3), all ≤ 5, so
        // they are enqueued and their gen() children are examined:
        // 4 (singletons) + 3 + 2 + 1 + 0 (pairs via gen) + children of the
        // two surviving pairs.
        assert!(out.stats.nodes_examined >= 10);
        assert!(out.stats.candidates_evaluated >= 2);
    }

    #[test]
    fn metric_q_error_search() {
        let d = correlated_pair(5, 2000, 0.3, 4).unwrap();
        let opts = SearchOptions::with_bound(30).metric(ErrorMetric::MeanQ);
        let out = top_down_search(&d, &opts).unwrap();
        assert!(out.best_attrs.is_some());
        let s = out.best_stats.unwrap();
        assert!(s.mean_q >= 1.0);
    }

    #[test]
    fn threads_do_not_change_result() {
        let d = correlated_pair(6, 3000, 0.5, 10).unwrap();
        let seq = top_down_search(&d, &SearchOptions::with_bound(20)).unwrap();
        let par = top_down_search(&d, &SearchOptions::with_bound(20).threads(4)).unwrap();
        assert_eq!(seq.best_attrs, par.best_attrs);
    }

    #[test]
    fn empty_dataset_rejected() {
        use pclabel_data::dataset::DatasetBuilder;
        let d = DatasetBuilder::new(["a"]).finish();
        assert!(top_down_search(&d, &SearchOptions::with_bound(5)).is_err());
    }

    #[test]
    fn explicit_pattern_set_drives_selection() {
        // When P contains only patterns over {X}, a label over {X, Y} and
        // one over {X} are both exact; the tie-break prefers smaller sets,
        // and every candidate containing X yields zero error.
        let d = correlated_pair(4, 500, 0.7, 2).unwrap();
        let patterns = PatternSet::OverAttrs(AttrSet::singleton(0));
        let opts = SearchOptions::with_bound(100).patterns(patterns);
        let out = top_down_search(&d, &opts).unwrap();
        assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
    }
}
