//! Greedy forward selection — an alternative heuristic (extension).
//!
//! The paper's §II-C leaves "more complex approaches" to future work; the
//! natural first baseline is greedy forward selection: start from the
//! empty subset, repeatedly add the attribute whose enlarged label (still
//! within the bound) has the smallest error, and finally return the best
//! prefix of the walk.
//!
//! Plateau steps are deliberately allowed: a *single*-attribute anchor
//! never changes any estimate (`c_D(A = v)` equals `|D| · frac(A = v)` by
//! definition of `VC`), so the first step is always an error plateau and a
//! strict-improvement rule would never move at all. Since every step adds
//! an attribute, the walk takes at most `|A|` steps and cannot cycle; the
//! returned label is the arg-min over all visited prefixes.
//!
//! Compared to Algorithm 1, greedy evaluates **errors** during the walk
//! (|A| · depth evaluations) instead of sizing thousands of lattice nodes
//! and evaluating only the final candidates. Each step's candidates
//! `S ∪ {a}` are sized by one bounded pass over the memoized partition of
//! `S` ([`EvalContext::child_size_bounded`](crate::search::EvalContext::child_size_bounded)),
//! the prefix the walk already priced. On datasets with one strong
//! correlated core it finds a comparable label much faster; it can get
//! stuck when the optimal subset only pays off jointly — the
//! `ablation_greedy` benchmark quantifies the trade-off.

use std::time::Instant;

use pclabel_data::dataset::Dataset;
use pclabel_data::error::Result;

use crate::attrset::AttrSet;
use crate::label::Label;
use crate::search::{check_dataset, Evaluator, SearchOptions, SearchOutcome, SearchStats};

/// Runs greedy forward selection under `opts.bound`.
///
/// The returned [`SearchOutcome::candidates`] records the greedy path
/// (each accepted prefix), mirroring the top-down search's candidate
/// list semantics loosely.
pub fn greedy_search(dataset: &Dataset, opts: &SearchOptions) -> Result<SearchOutcome> {
    check_dataset(dataset)?;
    let n = dataset.n_attrs();
    let start = Instant::now();

    let evaluator = Evaluator::new(dataset, &opts.patterns).with_count_threads(opts.count_threads);
    let (distinct, dweights) = evaluator.compressed();
    let early = opts.early_exit && opts.metric.supports_early_exit();

    // One lattice-aware context for the whole walk: each candidate
    // S ∪ {a} is sized, and then priced, by one pass over the memoized
    // partition of the current prefix S (see the evaluator module docs).
    let mut ctx = evaluator.context_for(opts);
    let mut stats = SearchStats::default();
    let mut current = AttrSet::EMPTY;
    let eval_start = Instant::now();
    let mut visited: Vec<(AttrSet, f64)> =
        vec![(current, opts.metric.of(&ctx.error_of(current, early)))];
    stats.eval_time = eval_start.elapsed();

    loop {
        let mut best_step: Option<(AttrSet, f64)> = None;
        for a in 0..n {
            if current.contains(a) {
                continue;
            }
            let candidate = current.insert(a);
            stats.nodes_examined += 1;
            if ctx.child_size_bounded(current, a, opts.bound).is_none() {
                continue;
            }
            let eval_start = Instant::now();
            let err = opts.metric.of(&ctx.error_of(candidate, early));
            stats.eval_time += eval_start.elapsed();
            stats.candidates_evaluated += 1;
            let better = match best_step {
                None => true,
                Some((bs, be)) => err < be || (err == be && candidate.bits() < bs.bits()),
            };
            if better {
                best_step = Some((candidate, err));
            }
        }
        match best_step {
            Some((next, err)) => {
                current = next;
                visited.push((next, err));
            }
            None => break,
        }
    }
    stats.search_time = start.elapsed().saturating_sub(stats.eval_time);

    let tail_start = Instant::now();
    // Arg-min over the walk (ties: fewest attributes, then bitmask).
    let (best_attrs, _) = visited
        .iter()
        .copied()
        .min_by(|(sa, ea), (sb, eb)| {
            ea.total_cmp(eb)
                .then_with(|| (sa.len(), sa.bits()).cmp(&(sb.len(), sb.bits())))
        })
        .expect("visited contains the empty prefix");
    let path: Vec<AttrSet> = visited.iter().skip(1).map(|&(s, _)| s).collect();

    let best_stats = Some(ctx.error_of(best_attrs, false));
    let label = Some(Label::from_parts(
        distinct,
        Some(dweights),
        best_attrs,
        evaluator.value_counts(),
    ));
    stats.eval_time += tail_start.elapsed();
    Ok(SearchOutcome {
        best_attrs: Some(best_attrs),
        best_stats,
        candidates: path,
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
    fn greedy_respects_bound() {
        let d = figure2_sample();
        for bound in [1u64, 3, 5, 10, 100] {
            let out = greedy_search(&d, &SearchOptions::with_bound(bound)).unwrap();
            let label = out.best_label().unwrap();
            assert!(label.pattern_count_size() <= bound, "bound {bound}");
        }
    }

    #[test]
    fn greedy_never_worse_than_independence() {
        let d = correlated_pair(5, 2500, 0.2, 3).unwrap();
        let ev = Evaluator::new(&d, &crate::patterns::PatternSet::AllTuples);
        let independence = ev.error_of(AttrSet::EMPTY, false).max_abs;
        let out = greedy_search(&d, &SearchOptions::with_bound(30)).unwrap();
        assert!(out.best_stats.unwrap().max_abs <= independence);
    }

    #[test]
    fn greedy_finds_exact_label_on_functional_data() {
        // The first step is a plateau (single attributes never change
        // estimates); the plateau-tolerant walk then descends to an exact
        // label.
        let d = functional_chain(5, 4, 1500, 8).unwrap();
        let out = greedy_search(&d, &SearchOptions::with_bound(4)).unwrap();
        assert_eq!(out.best_stats.unwrap().max_abs, 0.0);
        // The chain walks one attribute per step up to the full set.
        assert!(out.candidates.len() <= 5, "{:?}", out.candidates);
    }

    #[test]
    fn greedy_path_is_a_chain() {
        let d = correlated_pair(4, 1200, 0.5, 6).unwrap();
        let out = greedy_search(&d, &SearchOptions::with_bound(20)).unwrap();
        for w in out.candidates.windows(2) {
            assert!(w[0].is_strict_subset_of(w[1]));
            assert_eq!(w[0].len() + 1, w[1].len());
        }
    }

    #[test]
    fn greedy_examines_far_fewer_nodes_than_topdown() {
        let d = correlated_pair(6, 2000, 0.4, 9).unwrap();
        let opts = SearchOptions::with_bound(20);
        let greedy = greedy_search(&d, &opts).unwrap();
        let td = top_down_search(&d, &opts).unwrap();
        assert!(greedy.stats.nodes_examined <= td.stats.nodes_examined);
        // Quality may trail the top-down heuristic, but not by more than
        // the independence gap on this easy input.
        assert!(greedy.best_stats.unwrap().max_abs.is_finite());
    }

    #[test]
    fn impossible_bound_returns_independence() {
        let d = figure2_sample();
        let out = greedy_search(&d, &SearchOptions::with_bound(1)).unwrap();
        assert_eq!(out.best_attrs, Some(AttrSet::EMPTY));
        assert!(out.candidates.is_empty());
    }
}
