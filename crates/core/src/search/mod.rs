//! Optimal-label search (paper §III).
//!
//! Two algorithms solve (heuristically) the NP-hard optimal-label problem
//! of Definition 2.15:
//!
//! * [`naive_search`] — the paper's baseline: enumerate attribute subsets
//!   level by level (size 2 upward), keep the best label within the size
//!   bound, stop at the first level where every label exceeds the bound
//!   (label size is monotone in `S`, so no larger level can fit);
//! * [`top_down_search`] — Algorithm 1: a walk of the label lattice along
//!   the duplicate-free `gen` operator (depth first, on every worker),
//!   collecting a candidate set of maximal within-budget subsets, then
//!   returning the candidate with minimal error.

mod evaluator;
mod naive;
pub mod refine;
mod topdown;

pub use evaluator::{EvalContext, Evaluator};
pub use naive::{naive_search, naive_search_limited, NaiveLimits};
pub use topdown::top_down_search;

use std::time::Duration;

use pclabel_data::error::{DataError, Result};

use crate::attrset::{AttrSet, MAX_ATTRS};
use crate::error::{ErrorMetric, ErrorStats};
use crate::label::Label;
use crate::patterns::PatternSet;

/// Configuration shared by both search algorithms.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// The size bound `B_s` on `|PC|`.
    pub bound: u64,
    /// The pattern set `P` the error is measured over (`P_A` by default,
    /// as in all of the paper's experiments).
    pub patterns: PatternSet,
    /// The scalar to minimize (max absolute error by default).
    pub metric: ErrorMetric,
    /// Use the §IV-C sorted early-exit scan when the metric allows it.
    pub early_exit: bool,
    /// Worker threads for the top-down search's lattice walk and for
    /// candidate evaluation (1 = everything on the calling thread, the
    /// paper-faithful configuration). Outcomes do not depend on it.
    pub threads: usize,
    /// Evaluate candidates with the lattice-aware refinement context
    /// ([`EvalContext`]): neighboring candidates are priced by partition
    /// refinement / marginal coarsening instead of a cold hash group-by
    /// each (default `true`; errors are bit-identical either way —
    /// `false` is the ablation/oracle configuration). Lattice nodes are
    /// sized over the context's memoized partitions either way.
    pub refine: bool,
}

impl SearchOptions {
    /// Paper-faithful defaults with the given size bound.
    pub fn with_bound(bound: u64) -> Self {
        Self {
            bound,
            patterns: PatternSet::AllTuples,
            metric: ErrorMetric::MaxAbsolute,
            early_exit: true,
            threads: 1,
            refine: true,
        }
    }

    /// Sets the pattern set.
    pub fn patterns(mut self, patterns: PatternSet) -> Self {
        self.patterns = patterns;
        self
    }

    /// Sets the optimization metric.
    pub fn metric(mut self, metric: ErrorMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Enables/disables the early-exit error scan.
    pub fn early_exit(mut self, on: bool) -> Self {
        self.early_exit = on;
        self
    }

    /// Sets the walk and evaluation thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Does nothing: every group-by is one serial scan. Kept until
    /// ROADMAP item 1 ports the benchmark, which still calls it.
    pub fn count_threads(self, _threads: usize) -> Self {
        self
    }

    /// Enables/disables the lattice-aware refinement evaluator (errors
    /// are bit-identical either way; `false` forces the cold-rebuild
    /// oracle per candidate).
    pub fn refine(mut self, on: bool) -> Self {
        self.refine = on;
        self
    }
}

/// Counters and timings reported by a search run.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Subsets whose label size was computed (the paper's "number of
    /// candidates examined", Figure 9).
    pub nodes_examined: u64,
    /// Candidate subsets whose error was evaluated in the final arg-min.
    pub candidates_evaluated: u64,
    /// Time spent building the evaluator (compressing the dataset and
    /// materializing the pattern set) and generating and sizing lattice
    /// nodes: the part of the call that `eval_time` does not cover. The
    /// clock starts before the evaluator is built.
    pub search_time: Duration,
    /// Time spent evaluating candidate errors, including the winner's
    /// final full error scan and building its label.
    pub eval_time: Duration,
    /// True when the run hit an explicit node budget and stopped early
    /// (only the naive search supports budgets; mirrors the paper's
    /// "did not terminate within 30 minutes" cutoffs).
    pub truncated: bool,
}

impl SearchStats {
    /// Total wall-clock time of the search call.
    pub fn total_time(&self) -> Duration {
        self.search_time + self.eval_time
    }
}

/// Result of a label search.
pub struct SearchOutcome {
    /// The winning subset, if any candidate fit the bound.
    pub best_attrs: Option<AttrSet>,
    /// Error statistics of the winning label.
    pub best_stats: Option<ErrorStats>,
    /// The final candidate set (after dominance pruning, for the top-down
    /// algorithm; all in-bound subsets of the last completed level for the
    /// naive one).
    pub candidates: Vec<AttrSet>,
    /// Counters and timings.
    pub stats: SearchStats,
    pub(crate) label: Option<Label>,
}

impl SearchOutcome {
    /// The winning label, built over the original dataset.
    pub fn best_label(&self) -> Option<&Label> {
        self.label.as_ref()
    }

    /// Consumes the outcome, returning the winning label.
    pub fn into_best_label(self) -> Option<Label> {
        self.label
    }
}

impl std::fmt::Debug for SearchOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchOutcome")
            .field("best_attrs", &self.best_attrs.map(|s| s.to_vec()))
            .field("best_max_abs", &self.best_stats.map(|s| s.max_abs))
            .field("candidates", &self.candidates.len())
            .field("nodes_examined", &self.stats.nodes_examined)
            .finish()
    }
}

pub(crate) fn check_dataset(dataset: &pclabel_data::dataset::Dataset) -> Result<()> {
    if dataset.n_rows() == 0 {
        return Err(DataError::Empty);
    }
    if dataset.n_attrs() > MAX_ATTRS {
        return Err(DataError::Invalid(format!(
            "search supports at most {MAX_ATTRS} attributes, dataset has {}",
            dataset.n_attrs()
        )));
    }
    Ok(())
}

/// Picks the best candidate: minimal metric value, ties broken by smaller
/// cardinality then lexicographic bitmask (deterministic).
pub(crate) fn argmin_candidate(cands: &[AttrSet], errors: &[f64]) -> Option<(AttrSet, f64)> {
    let mut best: Option<(AttrSet, f64)> = None;
    for (&s, &e) in cands.iter().zip(errors) {
        let better = match best {
            None => true,
            Some((bs, be)) => e < be || (e == be && (s.len(), s.bits()) < (bs.len(), bs.bits())),
        };
        if better {
            best = Some((s, e));
        }
    }
    best
}
