//! Algorithm 1: top-down lattice search for the optimal label.
//!
//! The walk visits each lattice node at most once (Proposition 3.8, by
//! the `gen` operator's index ordering) and descends only below nodes
//! whose label fits the bound, so it explores exactly the within-budget
//! region plus, in the worst case, its immediate children — a small
//! fraction of the `2^n` lattice. In this reproduction's Figure 9 at full
//! scale (`repro fig9`, where the naive search is never truncated), it
//! examines 19.6–48.2 % fewer nodes than the naive algorithm on BlueNile
//! (7 attributes, a 128-node lattice), 86.5–92.3 % fewer on COMPAS and
//! 80.0–94.4 % fewer on Credit-Card.
//!
//! ## Depth first over the `gen` tree
//!
//! Label size is monotone in `S`, so an in-bound node's `gen` parent (the
//! node without its largest attribute) is in bound too: every traversal
//! of the `gen` tree that descends below in-bound nodes sizes the same
//! (parent, child) pairs. The paper's queue-driven BFS and this
//! depth-first walk therefore examine the same nodes, and the candidates —
//! the in-bound sets of two or more attributes with no in-bound direct
//! superset — are exactly what the paper's `removeParents` leaves, since
//! its BFS inserts every superset after its subsets.
//!
//! Depth first, the walk holds the group ids of each node on the current
//! path over the distinct rows, one reused vector per depth (at most
//! `|A| + 1` per worker). A child `S ∪ {a}` is sized by one refinement
//! pass over `S`'s ids that also writes the child's ids
//! ([`refine_bounded`]): two array reads and a write per
//! distinct row, abandoned as soon as the pair count crosses the bound.
//! An over-budget child costs only the rows it takes to overflow, and a
//! fitting one is never read twice. The walk needs no memo.
//!
//! ## Pieces
//!
//! The subtrees below the pairs `{i, j}` of in-bound singletons `{i}` are
//! independent pieces. The calling thread sizes the singletons, then it
//! and `threads − 1` scoped workers claim pieces in order from a shared
//! counter, each deriving its pieces' singleton ids itself. Which worker
//! finds which in-bound set does not matter: the candidates are picked by
//! membership and sorted by (size, bits), and `nodes_examined` is a sum,
//! so the outcome does not depend on the thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use pclabel_data::dataset::Dataset;
use pclabel_data::error::Result;
use pclabel_data::partition::RefineScratch;

use crate::attrset::AttrSet;
use crate::hash::FxHashSet;
use crate::label::Label;
use crate::lattice::children;
use crate::search::refine::{refine_bounded, GroupIds};
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
    let start = Instant::now();

    // The walk runs over the evaluator's compressed distinct table: group
    // counts over distinct tuples equal those over raw rows, but each
    // pass touches fewer rows.
    let evaluator = Evaluator::new(dataset, &opts.patterns).with_count_threads(opts.count_threads);
    let mut stats = SearchStats::default();
    let (in_bound, nodes_examined) = walk(&evaluator, opts.bound, opts.threads);
    stats.nodes_examined = nodes_examined;
    let cand_list = maximal(&in_bound, evaluator.n_attrs());
    stats.search_time = start.elapsed();

    // Final arg-min over the candidate set (the paper's line 10).
    let eval_start = Instant::now();
    stats.candidates_evaluated = cand_list.len() as u64;
    let errors = evaluator.evaluate_many(&cand_list, opts);
    let best_attrs = argmin_candidate(&cand_list, &errors).map_or(AttrSet::EMPTY, |(s, _)| s);
    let best_stats = Some(evaluator.context_for(opts).error_of(best_attrs, false));
    let (distinct, dweights) = evaluator.compressed();
    let label = Some(Label::from_parts(
        distinct,
        Some(dweights),
        best_attrs,
        evaluator.value_counts(),
    ));
    stats.eval_time = eval_start.elapsed();
    Ok(SearchOutcome {
        best_attrs: Some(best_attrs),
        best_stats,
        candidates: cand_list,
        stats,
        label,
    })
}

/// The candidates among the walk's in-bound sets: those with no in-bound
/// direct superset (what the paper's `removeParents` leaves), sorted by
/// (size, bits). The sort fixes the order whatever thread found each set,
/// and consecutive candidates share prefixes, so the refinement contexts
/// in `evaluate_many` derive most partitions by a single-column pass or a
/// coarsening.
fn maximal(in_bound: &[AttrSet], n_attrs: usize) -> Vec<AttrSet> {
    let fits: FxHashSet<AttrSet> = in_bound.iter().copied().collect();
    let mut cands: Vec<AttrSet> = in_bound
        .iter()
        .copied()
        .filter(|&s| !children(s, n_attrs).any(|c| fits.contains(&c)))
        .collect();
    cands.sort_by_key(|s| (s.len(), s.bits()));
    cands
}

/// Walks the in-bound region of the lattice on `threads` threads,
/// returning its sets of two or more attributes (in no fixed order) and
/// the number of nodes sized.
fn walk(ev: &Evaluator, bound: u64, threads: usize) -> (Vec<AttrSet>, u64) {
    let n = ev.n_attrs();
    let mut root = Walker::new(ev, bound);
    // gen(∅): every singleton is sized and counted as examined (matching
    // the paper's Figure 9 node counts), but none is a candidate: a
    // one-attribute PC duplicates information already in VC, and
    // Example 3.7's candidate set contains only pairs.
    let mut pieces = Vec::new();
    for a in 0..n {
        root.nodes_examined += 1;
        if root.fits(0, a) {
            pieces.extend((a + 1..n).map(|j| (a, j)));
        }
    }
    let threads = threads.clamp(1, pieces.len().max(1));
    let next = AtomicUsize::new(0);
    let in_bound = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut w = Walker::new(ev, bound);
                    let found = w.claim(&pieces, &next);
                    (found, w.nodes_examined)
                })
            })
            .collect();
        let mut in_bound = root.claim(&pieces, &next);
        for worker in workers {
            let (found, nodes) = worker.join().expect("walk worker panicked");
            in_bound.extend(found);
            root.nodes_examined += nodes;
        }
        in_bound
    });
    (in_bound, root.nodes_examined)
}

/// One thread's depth-first walk.
struct Walker<'a> {
    ev: &'a Evaluator,
    bound: u64,
    /// `stack[d]`: the group ids of the depth-`d` node on the current
    /// path (`stack[0]` is ∅'s).
    stack: Vec<GroupIds>,
    scratch: RefineScratch,
    /// The singleton whose ids `stack[1]` holds.
    single: Option<usize>,
    nodes_examined: u64,
}

impl<'a> Walker<'a> {
    fn new(ev: &'a Evaluator, bound: u64) -> Self {
        let mut stack: Vec<GroupIds> = (0..=ev.n_attrs()).map(|_| GroupIds::default()).collect();
        stack[0] = GroupIds::unit(ev.compressed().0.n_rows());
        Walker {
            ev,
            bound,
            stack,
            scratch: RefineScratch::default(),
            single: None,
            nodes_examined: 0,
        }
    }

    /// Whether the depth-`depth` node on the path plus `attr` fits the
    /// bound; its ids land in `stack[depth + 1]`.
    fn fits(&mut self, depth: usize, attr: usize) -> bool {
        let (path, rest) = self.stack.split_at_mut(depth + 1);
        let parent = &path[depth];
        refine_bounded(
            &parent.ids,
            parent.groups,
            parent.all_missing,
            self.ev.compressed().0.column(attr),
            self.ev.card(attr),
            self.bound,
            &mut rest[0],
            &mut self.scratch,
        )
        .is_some()
    }

    /// Walks pieces claimed from `next` until none is left, returning
    /// their in-bound sets.
    fn claim(&mut self, pieces: &[(usize, usize)], next: &AtomicUsize) -> Vec<AttrSet> {
        let mut found = Vec::new();
        // The counter only hands out indices into the shared, immutable
        // piece list; it publishes no other data.
        loop {
            let piece = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(i, j)) = pieces.get(piece) else {
                return found;
            };
            if self.single != Some(i) {
                // {i} fit when the calling thread sized it; this pass only
                // re-derives its ids and is not counted again.
                let fits = self.fits(0, i);
                debug_assert!(fits, "singleton {i} fit when pieces were cut");
                self.single = Some(i);
            }
            self.visit(AttrSet::singleton(i), 1, j, &mut found);
        }
    }

    /// Sizes `node ∪ {attr}`, `node` being the depth-`depth` node on the
    /// path; when it fits, records it and walks its `gen` subtree.
    fn visit(&mut self, node: AttrSet, depth: usize, attr: usize, out: &mut Vec<AttrSet>) {
        self.nodes_examined += 1;
        if self.fits(depth, attr) {
            let child = node.insert(attr);
            out.push(child);
            for next in attr + 1..self.ev.n_attrs() {
                self.visit(child, depth + 1, next, out);
            }
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
        // label also fits: by label-size monotonicity, an in-bound strict
        // superset implies an in-bound direct superset.
        let d = correlated_pair(4, 800, 0.5, 9).unwrap();
        let opts = SearchOptions::with_bound(10);
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
        for threads in [2, 4] {
            let par = top_down_search(&d, &SearchOptions::with_bound(20).threads(threads)).unwrap();
            assert_eq!(seq.best_attrs, par.best_attrs, "threads {threads}");
            assert_eq!(seq.best_stats, par.best_stats, "threads {threads}");
            assert_eq!(seq.candidates, par.candidates, "threads {threads}");
            assert_eq!(seq.stats.nodes_examined, par.stats.nodes_examined);
            assert_eq!(
                seq.stats.candidates_evaluated,
                par.stats.candidates_evaluated
            );
        }
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
