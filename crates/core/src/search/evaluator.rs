//! Candidate-label error evaluation.
//!
//! Both search algorithms end with (or interleave) the expensive step of
//! computing `Err(L_S(D), P)` for many subsets `S`. The [`Evaluator`]
//! amortizes everything that does not depend on `S`:
//!
//! * the dataset is compressed to distinct tuples with multiplicities
//!   ([`Dataset::compress`]);
//! * the pattern set is materialized once, with true counts (the default
//!   `P_A` *is* the distinct tuples with their multiplicities, so it
//!   reuses them);
//! * per-pattern independence factors (`VC` fractions) are precomputed;
//! * patterns are sorted by count descending, enabling the paper's §IV-C
//!   early-exit scan for the max-absolute-error objective: once the next
//!   pattern's count falls below the running maximum error, no
//!   underestimate can beat it — and overestimates of rare patterns are
//!   bounded by their (already seen) projections in practice. The exact
//!   full scan is available for verification and for mean/q metrics.
//!
//! ## Two evaluation paths
//!
//! The `S`-dependent part — the group counts the estimates are read from
//! — has two implementations that produce **bit-identical** [`ErrorStats`]
//! (pinned by the property tests):
//!
//! * **Cold build** ([`Evaluator::error_of`]): a full hash group-by
//!   ([`GroupCounts::build`]) per candidate, with marginals for
//!   partially-defined patterns ([`GroupCounts::marginal`]) rebuilt per
//!   call. Every candidate is independent — this is the correctness
//!   oracle, and the right path for one-off evaluations of a single
//!   subset.
//! * **Lattice-aware refinement** ([`EvalContext::error_of`]): the search
//!   strategies walk a lattice where neighboring candidates differ by one
//!   attribute, so the context keeps a bounded memo of
//!   [`Partition`](super::refine::Partition)s (row→group-id vectors over
//!   the distinct table plus pattern rows) keyed by [`AttrSet`]. A
//!   candidate is priced by the cheapest lattice move available:
//!
//!   1. an exact memo hit costs nothing;
//!   2. a memoized **finer** partition (`S ⊂ F`) is *coarsened* in one
//!      O(rows) id-mapping pass (plus O(groups · |S|) representative
//!      grouping) — this also serves the marginal lookups of partially
//!      defined patterns, generalizing the cold path's per-call
//!      [`GroupCounts::marginal`];
//!   3. otherwise the largest memoized **coarser** partition (`T ⊂ S`)
//!      is *refined* one attribute at a time, each pass O(rows) with a
//!      dense (hash-free) remap whenever the composite group×value space
//!      is small — the naive search's lexicographic levels and the
//!      top-down search's sorted candidates share prefixes this way;
//!   4. with an empty memo the chain starts from the unit partition.
//!
//!   Coarsening and refinement group rows with the one pass
//!   [`Dataset::compress`] folds, [`pclabel_data::partition::refine`].
//!
//!   Full-`S` pattern lookups become two array reads (`weights[ids[r]]`)
//!   instead of a key pack + hash probe. The memo holds at most
//!   [`REFINE_MEMO`] partitions (least-recently-used eviction), so
//!   resident memory is at most `REFINE_MEMO × (4·U + 12·G)` bytes for a
//!   `U`-row universe with `G`-group partitions.
//!
//!   The early-exit scan of a search's candidates usually stops after one
//!   or two patterns, long before a partition pays for itself. So every
//!   refinement-path scan prices its first [`BITMAP_PREFIX`] patterns by
//!   AND-ing per-attribute match bitmaps over the distinct rows (built
//!   once per evaluator, on first use, and shared read-only by
//!   [`Evaluator::evaluate_many`]'s workers) and summing the surviving
//!   rows' weights; it derives the candidate's partition only when it
//!   reads past them. The sums are the same exact `u64` counts.
//!
//! ## Sizing lattice nodes
//!
//! Every search sizes a child `S ∪ {a}` with the same refinement pass
//! ([`refine_bounded`]) over `S`'s group ids on the distinct rows: its
//! recorder counts the distinct `(group id, code of a)` pairs, leaves out
//! the all-missing pair (the empty pattern) and stops the pass at
//! `bound + 1`, so an over-budget child costs only the rows it takes to
//! overflow. The pass also writes the child's ids, and its scratch table
//! follows one dense-or-hash rule that a large label bound cannot grow.
//! The top-down search keeps the ids of its depth-first path itself (see
//! [`top_down_search`](crate::search::top_down_search)); the naive
//! search reads them from `S`'s memoized partition through
//! [`EvalContext::child_size_bounded`], ignoring passive pattern rows.
//! Sizes equal the cold
//! [`label_size_bounded`](crate::counting::label_size_bounded) scan's,
//! the oracle the property tests pin both paths to.
//!
//! [`Evaluator::evaluate_many`] keeps its thread-scoped parallelism: each
//! worker owns a private `EvalContext` (partitions branch copy-on-derive
//! from the shared immutable evaluator, never across threads), so results
//! are identical to sequential evaluation.

use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use pclabel_data::dataset::{Dataset, MISSING};
use pclabel_data::partition::RefineScratch;

use crate::attrset::AttrSet;
use crate::counting::GroupCounts;
use crate::error::{ErrorAccumulator, ErrorStats};
use crate::hash::FxHashMap;
use crate::label::ValueCounts;
use crate::patterns::{MaterializedPatterns, PatternSet};
use crate::search::refine::{refine_bounded, GroupIds, Partition};
use crate::search::SearchOptions;

/// Reusable evaluation context for one `(dataset, pattern set)` pair.
pub struct Evaluator {
    n_attrs: usize,
    n_rows: u64,
    vc: Arc<ValueCounts>,
    distinct: Dataset,
    dweights: Vec<u64>,
    /// The materialized pattern set, or `None` for `P_A` (the default),
    /// whose patterns *are* the distinct rows with their multiplicities
    /// as counts: the refinement universe then needs no passive pattern
    /// suffix.
    patterns: Option<MaterializedPatterns>,
    /// The refinement universe's columns when the patterns are not the
    /// distinct rows: each distinct column followed by the pattern rows'.
    /// Empty for `P_A`, whose universe is the distinct table.
    universe: Vec<Vec<u32>>,
    /// Pattern indices sorted by true count, descending.
    order: Vec<u32>,
    /// Row-major `[pattern * n_attrs + attr]` VC fractions; 1.0 for cells a
    /// pattern does not define.
    fracs: Vec<f64>,
    /// Bitmask of defined attributes per pattern.
    defined: Vec<u64>,
    /// Threads for each candidate's group-by scan (1 = serial build).
    count_threads: usize,
    /// Match bitmaps of the first [`BITMAP_PREFIX`] scanned patterns,
    /// built on first use.
    prefix: OnceLock<PrefixMatches>,
}

impl Evaluator {
    /// Builds an evaluator for `dataset` against `patterns`.
    pub fn new(dataset: &Dataset, patterns: &PatternSet) -> Self {
        let vc = Arc::new(ValueCounts::compute(dataset, None));
        let (distinct, dweights) = dataset.compress();
        // `PatternSet::AllTuples` would materialize as a second
        // `dataset.compress()`: the distinct table already is that set.
        let patterns = match patterns {
            PatternSet::AllTuples => None,
            other => Some(other.materialize(dataset)),
        };
        let (table, counts) = match &patterns {
            Some(m) => (&m.table, &m.counts[..]),
            None => (&distinct, &dweights[..]),
        };
        let n_attrs = dataset.n_attrs();
        let n = counts.len();
        let universe = match &patterns {
            Some(m) => (0..n_attrs)
                .map(|a| [distinct.column(a), m.table.column(a)].concat())
                .collect(),
            None => Vec::new(),
        };

        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| counts[b as usize].cmp(&counts[a as usize]));

        let mut fracs = vec![1.0f64; n * n_attrs];
        let mut defined = vec![0u64; n];
        for r in 0..n {
            for a in 0..n_attrs {
                let v = table.value_raw(r, a);
                if v != MISSING {
                    defined[r] |= 1u64 << a;
                    fracs[r * n_attrs + a] = vc.fraction(a, v);
                }
            }
        }
        Self {
            n_attrs,
            n_rows: dataset.n_rows() as u64,
            vc,
            distinct,
            dweights,
            patterns,
            universe,
            order,
            fracs,
            defined,
            count_threads: 1,
            prefix: OnceLock::new(),
        }
    }

    /// Opts candidate error scans into parallel group counting
    /// ([`GroupCounts::build`]) with the given worker count.
    /// Counts are identical to the serial build; only wall-clock changes.
    /// (Only the cold path counts with threads; the refinement path's
    /// passes are serial and per-context.)
    #[must_use]
    pub fn with_count_threads(mut self, threads: usize) -> Self {
        self.count_threads = threads.max(1);
        self
    }

    /// Number of patterns under evaluation.
    pub fn n_patterns(&self) -> usize {
        self.pattern_counts().len()
    }

    /// `|D|`.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// Number of attributes in the schema.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// The shared `VC` component (one per dataset).
    pub fn value_counts(&self) -> Arc<ValueCounts> {
        Arc::clone(&self.vc)
    }

    /// The compressed distinct-tuple table and its multiplicities.
    pub fn compressed(&self) -> (&Dataset, &[u64]) {
        (&self.distinct, &self.dweights)
    }

    /// The pattern rows, aligned with the schema.
    fn pattern_table(&self) -> &Dataset {
        self.patterns.as_ref().map_or(&self.distinct, |m| &m.table)
    }

    /// The true count of each pattern row.
    fn pattern_counts(&self) -> &[u64] {
        self.patterns.as_ref().map_or(&self.dweights, |m| &m.counts)
    }

    /// A lattice-aware evaluation context with refinement on. See
    /// [`EvalContext`].
    pub fn context(&self) -> EvalContext<'_> {
        EvalContext::new(self, true, self.count_threads)
    }

    /// An evaluation context tuned by `opts` ([`SearchOptions::refine`]);
    /// with refinement disabled every call falls through to the cold
    /// [`Evaluator::error_of`] oracle.
    pub fn context_for(&self, opts: &SearchOptions) -> EvalContext<'_> {
        EvalContext::new(self, opts.refine, self.count_threads)
    }

    /// Computes `Err(L_S(D), P)` statistics for the subset `attrs` with a
    /// **cold** hash group-by — the correctness oracle the refinement
    /// path ([`EvalContext::error_of`]) is pinned bit-identical to.
    ///
    /// With `early_exit` (the paper's §IV-C optimization, sound for the
    /// max-absolute objective) the scan stops as soon as the next pattern's
    /// count is below the running maximum error; [`ErrorStats::early_exited`]
    /// records whether that happened.
    pub fn error_of(&self, attrs: AttrSet, early_exit: bool) -> ErrorStats {
        self.error_of_with(attrs, early_exit, self.count_threads)
    }

    /// [`Evaluator::error_of`] with an explicit counting thread count
    /// (used by [`Evaluator::evaluate_many`] to avoid oversubscription
    /// when candidate-level workers are already running).
    fn error_of_with(&self, attrs: AttrSet, early_exit: bool, count_threads: usize) -> ErrorStats {
        // Small distinct tables gain nothing from chunking — cap workers
        // so each scans at least MIN_PARALLEL_ROWS_PER_THREAD rows, which
        // degrades to the serial build for the common compressed sizes.
        let count_threads = count_threads
            .min((self.distinct.n_rows() / crate::counting::MIN_PARALLEL_ROWS_PER_THREAD).max(1));
        let (gc, _) =
            GroupCounts::build(&self.distinct, Some(&self.dweights), attrs, count_threads);
        let mut marginals: FxHashMap<AttrSet, FxHashMap<Box<[u32]>, u64>> = FxHashMap::default();
        let mut acc = ErrorAccumulator::new();
        let mut exited = false;
        let sbits = attrs.bits();
        let counts = self.pattern_counts();

        for &r32 in &self.order {
            let r = r32 as usize;
            let actual = counts[r];
            if early_exit && (actual as f64) < acc.max_abs() {
                exited = true;
                break;
            }
            let est = self.estimate_row(&gc, &mut marginals, r, sbits);
            acc.push(actual, est);
        }
        acc.finish(exited)
    }

    /// Estimates pattern `r` of the materialized set under the label whose
    /// `PC` is `gc` (grouping over `attrs`).
    fn estimate_row(
        &self,
        gc: &GroupCounts,
        marginals: &mut FxHashMap<AttrSet, FxHashMap<Box<[u32]>, u64>>,
        r: usize,
        sbits: u64,
    ) -> f64 {
        let defined = self.defined[r];
        let k_bits = sbits & defined;

        let base = if k_bits == 0 {
            // p|S is the empty pattern (including the S = ∅ label).
            self.n_rows
        } else if k_bits == sbits {
            // p defines all of S: exact group lookup.
            gc.weight_of_row(self.pattern_table(), r)
        } else {
            // p defines only part of S: marginal over the stored partition.
            let k = AttrSet::from_bits(k_bits);
            let marginal = marginals.entry(k).or_insert_with(|| gc.marginal(k));
            let table = self.pattern_table();
            let key: Box<[u32]> = k.iter().map(|a| table.value_raw(r, a)).collect();
            marginal.get(&key).copied().unwrap_or(0)
        };
        self.apply_fracs(r, sbits, defined, base)
    }

    /// The estimate's independence tail: `base · Π VC-fractions` over the
    /// defined attributes outside `S`. Shared by the cold and refinement
    /// paths so identical `base` counts yield identical `f64` estimates
    /// (same multiplications, same order).
    #[inline]
    fn apply_fracs(&self, r: usize, sbits: u64, defined: u64, base: u64) -> f64 {
        if base == 0 {
            return 0.0;
        }
        let mut est = base as f64;
        let outside = AttrSet::from_bits(defined & !sbits);
        let row_base = r * self.n_attrs;
        for a in outside.iter() {
            est *= self.fracs[row_base + a];
        }
        est
    }

    // --- refinement-universe plumbing (see `search::refine`) -----------

    /// Universe row of pattern `r`.
    #[inline]
    fn pattern_row(&self, r: usize) -> usize {
        if self.patterns.is_some() {
            self.distinct.n_rows() + r
        } else {
            r
        }
    }

    /// Column `attr` of the refinement universe.
    fn universe_column(&self, attr: usize) -> &[u32] {
        self.universe
            .get(attr)
            .map_or(self.distinct.column(attr), Vec::as_slice)
    }

    /// The unit partition of the universe (empty attribute subset): the
    /// distinct rows, plus the pattern rows as a passive suffix when they
    /// are not the distinct rows themselves.
    fn unit_partition(&self) -> Partition {
        let n_patterns = self.patterns.as_ref().map_or(0, MaterializedPatterns::len);
        Partition::unit(self.distinct.n_rows() + n_patterns, self.n_rows)
    }

    /// Dictionary cardinality of `attr`.
    pub(crate) fn card(&self, attr: usize) -> u32 {
        self.distinct
            .schema()
            .attr(attr)
            .map_or(0, |at| at.cardinality()) as u32
    }

    /// Evaluates many candidate subsets, returning `opts.metric` for
    /// each. With `opts.threads > 1` candidates are processed in parallel
    /// via `std::thread::scope`; every worker owns a private
    /// [`EvalContext`], so results are identical to sequential.
    pub fn evaluate_many(&self, cands: &[AttrSet], opts: &SearchOptions) -> Vec<f64> {
        let metric = opts.metric;
        let early = opts.early_exit && metric.supports_early_exit();
        let threads = opts.threads.max(1);
        if threads <= 1 || cands.len() < 2 {
            let mut ctx = self.context_for(opts);
            return cands
                .iter()
                .map(|&s| metric.of(&ctx.error_of(s, early)))
                .collect();
        }
        let threads = threads.min(cands.len());
        // Candidate workers and per-candidate counting threads multiply;
        // divide the cold path's counting budget across the active
        // workers so the total stays at roughly `count_threads`.
        let count_threads = (self.count_threads / threads).max(1);
        let mut out = vec![0.0f64; cands.len()];
        let chunk = cands.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for (slot, work) in out.chunks_mut(chunk).zip(cands.chunks(chunk)) {
                scope.spawn(move || {
                    let mut ctx = EvalContext::new(self, opts.refine, count_threads);
                    for (o, &s) in slot.iter_mut().zip(work) {
                        *o = metric.of(&ctx.error_of(s, early));
                    }
                });
            }
        });
        out
    }
}

/// Bound on memoized partitions per [`EvalContext`]. Resident memory is
/// at most `REFINE_MEMO × (4·U + 12·G)` bytes for a `U`-row distinct and
/// pattern universe with `G`-group partitions.
const REFINE_MEMO: usize = 16;

/// Patterns every refinement-path scan prices from match bitmaps before
/// it derives the candidate's partition.
const BITMAP_PREFIX: usize = 4;

/// For each of the first [`BITMAP_PREFIX`] patterns in scan order, one
/// bitmap per attribute of the distinct rows that agree with the pattern
/// there (all zero for attributes it leaves undefined): `|A| · U / 2`
/// bytes for `U` distinct rows, an eighth of one memoized partition's
/// ids per attribute.
struct PrefixMatches {
    /// `u64` words per bitmap.
    words: usize,
    /// `maps[i][a * words..(a + 1) * words]`: the bitmap of the `i`-th
    /// scanned pattern at attribute `a`.
    maps: Vec<Vec<u64>>,
}

impl PrefixMatches {
    fn build(ev: &Evaluator) -> Self {
        let words = ev.distinct.n_rows().div_ceil(64);
        let table = ev.pattern_table();
        let maps = ev
            .order
            .iter()
            .take(BITMAP_PREFIX)
            .map(|&r| {
                let r = r as usize;
                let mut maps = vec![0u64; ev.n_attrs * words];
                for a in AttrSet::from_bits(ev.defined[r]).iter() {
                    let value = table.value_raw(r, a);
                    let map = &mut maps[a * words..(a + 1) * words];
                    for (word, rows) in map.iter_mut().zip(ev.distinct.column(a).chunks(64)) {
                        *word = rows
                            .iter()
                            .enumerate()
                            .fold(0, |w, (bit, &v)| w | u64::from(v == value) << bit);
                    }
                }
                maps
            })
            .collect();
        PrefixMatches { words, maps }
    }

    /// Total weight of the distinct rows that agree with the `i`-th
    /// scanned pattern on every attribute of `k` (non-empty, and defined
    /// by the pattern) — its group's weight in the `k`-partition.
    fn weight(&self, i: usize, k: AttrSet, dweights: &[u64]) -> u64 {
        let words = self.words;
        let maps: Vec<&[u64]> = k
            .iter()
            .map(|a| &self.maps[i][a * words..(a + 1) * words])
            .collect();
        let (first, rest) = maps.split_first().expect("k is non-empty");
        let mut total = 0;
        for (w, &word) in first.iter().enumerate() {
            let mut bits = rest.iter().fold(word, |bits, map| bits & map[w]);
            while bits != 0 {
                total += dweights[w * 64 + bits.trailing_zeros() as usize];
                bits &= bits - 1;
            }
        }
        total
    }
}

struct MemoEntry {
    attrs: AttrSet,
    part: Rc<Partition>,
    stamp: u64,
}

/// A lattice-aware candidate evaluator: prices `Err(L_S(D), P)` for a
/// *stream* of related subsets by partition refinement and marginal
/// coarsening over a bounded memo, instead of one cold hash group-by per
/// candidate (see the module docs for the derivation rules). Create one
/// per search walk (or per worker thread) via [`Evaluator::context`] /
/// [`Evaluator::context_for`]; results are bit-identical to
/// [`Evaluator::error_of`].
pub struct EvalContext<'a> {
    ev: &'a Evaluator,
    /// `false` routes every call to the cold oracle (the
    /// `SearchOptions::refine(false)` ablation).
    refine: bool,
    memo: Vec<MemoEntry>,
    stamp: u64,
    /// Counting-thread budget for cold-path calls.
    count_threads: usize,
    /// The last sized child's ids ([`EvalContext::child_size_bounded`]
    /// reads only their count).
    sized: GroupIds,
    scratch: RefineScratch,
}

impl<'a> EvalContext<'a> {
    fn new(ev: &'a Evaluator, refine: bool, count_threads: usize) -> Self {
        EvalContext {
            ev,
            refine,
            memo: Vec::new(),
            stamp: 0,
            count_threads,
            sized: GroupIds::default(),
            scratch: RefineScratch::default(),
        }
    }

    /// Computes `Err(L_S(D), P)` for `attrs` — bit-identical to the cold
    /// [`Evaluator::error_of`], but amortized across the candidates this
    /// context has already seen. The first four patterns are priced from
    /// match bitmaps; `attrs`' partition is derived only when the scan
    /// reads past them.
    pub fn error_of(&mut self, attrs: AttrSet, early_exit: bool) -> ErrorStats {
        if !self.refine {
            return self.ev.error_of_with(attrs, early_exit, self.count_threads);
        }
        let ev = self.ev;
        let mut part: Option<Rc<Partition>> = None;
        let sbits = attrs.bits();
        let counts = ev.pattern_counts();
        let mut acc = ErrorAccumulator::new();
        let mut exited = false;
        for (i, &r32) in ev.order.iter().enumerate() {
            let r = r32 as usize;
            let actual = counts[r];
            if early_exit && (actual as f64) < acc.max_abs() {
                exited = true;
                break;
            }
            let defined = ev.defined[r];
            let k_bits = sbits & defined;
            let base = if k_bits == 0 {
                // p|S is the empty pattern (including the S = ∅ label).
                ev.n_rows
            } else if i < BITMAP_PREFIX {
                let prefix = ev.prefix.get_or_init(|| PrefixMatches::build(ev));
                prefix.weight(i, AttrSet::from_bits(k_bits), &ev.dweights)
            } else if k_bits == sbits {
                // p defines all of S: two array reads.
                part.get_or_insert_with(|| self.partition(attrs))
                    .weight_of_row(ev.pattern_row(r))
            } else {
                // p defines only part of S: the K-marginal *is* the
                // K-partition — memoized, so it is shared across the scan
                // and across sibling candidates.
                let partk = self.partition(AttrSet::from_bits(k_bits));
                partk.weight_of_row(ev.pattern_row(r))
            };
            acc.push(actual, ev.apply_fracs(r, sbits, defined, base));
        }
        acc.finish(exited)
    }

    /// The label size of `parent ∪ {attr}` when it is at most `bound`,
    /// else `None` — the same answer as
    /// [`label_size_bounded`](crate::counting::label_size_bounded) over
    /// the distinct table, found by the fused `refine_bounded` pass over
    /// the distinct rows' ids in `parent`'s memoized partition, which
    /// counts distinct `(parent group, code of attr)` pairs and stops at
    /// `bound + 1`. The naive search sizes its lattice nodes this way
    /// (the top-down walk runs the same pass over the ids it keeps
    /// itself); it uses the memo whether or not the context evaluates
    /// errors by refinement.
    pub fn child_size_bounded(&mut self, parent: AttrSet, attr: usize, bound: u64) -> Option<u64> {
        debug_assert!(!parent.contains(attr), "{attr} already in {parent}");
        let ev = self.ev;
        let part = self.partition(parent);
        // The parent group whose rows miss every parent attribute: with a
        // missing `attr` value they project onto the empty pattern, which
        // no label counts. (The unit partition's one group is that group.)
        let all_missing = part.reps.iter().position(|&rep| {
            parent
                .iter()
                .all(|a| ev.universe_column(a)[rep as usize] == MISSING)
        });
        // Pattern rows follow the distinct rows in the universe; they add
        // no pattern to a label and are never read.
        let col = ev.distinct.column(attr);
        refine_bounded(
            &part.ids[..col.len()],
            part.n_groups(),
            all_missing.map(|g| g as u32),
            col,
            ev.card(attr),
            bound,
            &mut self.sized,
            &mut self.scratch,
        )
    }

    /// Number of partitions currently memoized (diagnostics).
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Returns the partition for `attrs`, deriving it by the cheapest
    /// available lattice move (see the module docs) and memoizing the
    /// result (and any intermediate refinements) under the LRU bound.
    fn partition(&mut self, attrs: AttrSet) -> Rc<Partition> {
        self.stamp += 1;
        if attrs.is_empty() {
            return Rc::new(self.ev.unit_partition());
        }
        if let Some(i) = self.memo.iter().position(|e| e.attrs == attrs) {
            self.memo[i].stamp = self.stamp;
            return Rc::clone(&self.memo[i].part);
        }
        // Plan: coarsen from the finest-grained strict superset (one
        // O(rows) pass) if any is memoized; otherwise refine up from the
        // largest memoized subset (|missing| passes), seeding from the
        // unit partition when the memo has nothing below `attrs`.
        let mut finer: Option<usize> = None;
        let mut coarser: Option<usize> = None;
        for (i, e) in self.memo.iter().enumerate() {
            if attrs.is_strict_subset_of(e.attrs) {
                let better = finer.is_none_or(|j: usize| {
                    self.memo[i].part.n_groups() < self.memo[j].part.n_groups()
                });
                if better {
                    finer = Some(i);
                }
            } else if e.attrs.is_strict_subset_of(attrs) {
                let better =
                    coarser.is_none_or(|j: usize| e.attrs.len() > self.memo[j].attrs.len());
                if better {
                    coarser = Some(i);
                }
            }
        }
        let ev = self.ev;
        let part = if let Some(i) = finer {
            let fine = Rc::clone(&self.memo[i].part);
            Rc::new(fine.coarsen(attrs.iter().map(|a| (ev.universe_column(a), ev.card(a)))))
        } else {
            let (mut cur, mut built) = match coarser {
                Some(i) => (Rc::clone(&self.memo[i].part), self.memo[i].attrs),
                None => (Rc::new(ev.unit_partition()), AttrSet::EMPTY),
            };
            for a in attrs.difference(built).iter() {
                let col = ev.universe_column(a);
                cur = Rc::new(cur.refine(col, ev.card(a), &ev.dweights, &mut self.scratch));
                built = built.insert(a);
                if built != attrs {
                    // Memoize intermediate chain links: siblings in the
                    // walk will branch from them.
                    self.insert(built, Rc::clone(&cur));
                }
            }
            cur
        };
        self.insert(attrs, Rc::clone(&part));
        part
    }

    fn insert(&mut self, attrs: AttrSet, part: Rc<Partition>) {
        if let Some(e) = self.memo.iter_mut().find(|e| e.attrs == attrs) {
            e.part = part;
            e.stamp = self.stamp;
            return;
        }
        if self.memo.len() >= REFINE_MEMO {
            if let Some(oldest) = self
                .memo
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
            {
                self.memo.swap_remove(oldest);
            }
        }
        self.memo.push(MemoEntry {
            attrs,
            part,
            stamp: self.stamp,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use crate::pattern::Pattern;
    use pclabel_data::generate::{correlated_pair, figure2_sample, functional_chain};

    /// Brute-force Err(L_S, P) by explicit Label::estimate per pattern.
    fn brute_stats(d: &Dataset, attrs: AttrSet, ps: &PatternSet) -> ErrorStats {
        let label = Label::build(d, attrs);
        let m = ps.materialize(d);
        let mut acc = ErrorAccumulator::new();
        for r in 0..m.len() {
            let p = m.pattern(r);
            acc.push(m.counts[r], label.estimate(&p));
        }
        acc.finish(false)
    }

    #[test]
    fn evaluator_matches_label_estimate_exactly() {
        let d = figure2_sample();
        let ev = Evaluator::new(&d, &PatternSet::AllTuples);
        for attrs in [
            AttrSet::EMPTY,
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1, 3]),
            AttrSet::from_indices([0, 1, 2]),
            AttrSet::full(4),
        ] {
            let fast = ev.error_of(attrs, false);
            let slow = brute_stats(&d, attrs, &PatternSet::AllTuples);
            assert!(
                (fast.max_abs - slow.max_abs).abs() < 1e-9,
                "max {attrs}: {} vs {}",
                fast.max_abs,
                slow.max_abs
            );
            assert!((fast.mean_abs - slow.mean_abs).abs() < 1e-9, "mean {attrs}");
            assert!((fast.max_q - slow.max_q).abs() < 1e-9, "q {attrs}");
            assert_eq!(fast.n as usize, ev.n_patterns());
        }
    }

    #[test]
    fn context_is_bit_identical_to_cold_build() {
        let d = figure2_sample();
        let ev = Evaluator::new(&d, &PatternSet::AllTuples);
        let mut ctx = ev.context();
        for early in [false, true] {
            for attrs in [
                AttrSet::EMPTY,
                AttrSet::from_indices([0]),
                AttrSet::from_indices([1, 3]),
                AttrSet::from_indices([0, 1, 2]),
                AttrSet::full(4),
            ] {
                let cold = ev.error_of(attrs, early);
                let warm = ctx.error_of(attrs, early);
                assert_eq!(cold, warm, "attrs {attrs} early {early}");
            }
        }
    }

    #[test]
    fn context_reuses_partitions_across_a_forward_chain() {
        let d = correlated_pair(6, 3000, 0.4, 11).unwrap();
        let ev = Evaluator::new(&d, &PatternSet::AllTuples);
        let mut ctx = ev.context();
        // A forward chain with sibling branches.
        for attrs in [
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1]),
            AttrSet::from_indices([0, 1]),
        ] {
            assert_eq!(ctx.error_of(attrs, true), ev.error_of(attrs, true));
        }
        assert!(ctx.memo_len() >= 2);
    }

    #[test]
    fn context_memo_respects_cap() {
        // The 31 non-empty subsets of 5 attributes, each priced by a full
        // scan, derive more partitions than the memo holds.
        let d = functional_chain(5, 16, 500, 3).unwrap();
        let ev = Evaluator::new(&d, &PatternSet::AllTuples);
        let mut ctx = ev.context();
        for bits in 1..32 {
            let attrs = AttrSet::from_bits(bits);
            // Still correct while evicting.
            assert_eq!(ctx.error_of(attrs, false), ev.error_of(attrs, false));
            assert!(ctx.memo_len() <= REFINE_MEMO, "memo grew past its cap");
        }
        assert_eq!(ctx.memo_len(), REFINE_MEMO);
    }

    #[test]
    fn context_with_refinement_disabled_is_the_oracle() {
        let d = figure2_sample();
        let ev = Evaluator::new(&d, &PatternSet::AllTuples);
        let opts = SearchOptions::with_bound(10).refine(false);
        let mut ctx = ev.context_for(&opts);
        let attrs = AttrSet::from_indices([1, 3]);
        assert_eq!(ctx.error_of(attrs, true), ev.error_of(attrs, true));
        assert_eq!(ctx.memo_len(), 0);
    }

    #[test]
    fn full_attr_label_has_zero_error() {
        let d = figure2_sample();
        let ev = Evaluator::new(&d, &PatternSet::AllTuples);
        let stats = ev.error_of(AttrSet::full(4), false);
        assert_eq!(stats.max_abs, 0.0);
        assert_eq!(stats.max_q, 1.0);
    }

    #[test]
    fn early_exit_agrees_on_max_error() {
        let d = correlated_pair(8, 5000, 0.4, 17).unwrap();
        let ev = Evaluator::new(&d, &PatternSet::AllTuples);
        let mut ctx = ev.context();
        for attrs in [
            AttrSet::EMPTY,
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1]),
        ] {
            let exact = ev.error_of(attrs, false);
            let fast = ev.error_of(attrs, true);
            assert_eq!(exact.max_abs, fast.max_abs, "attrs {attrs}");
            assert_eq!(ctx.error_of(attrs, true).max_abs, fast.max_abs);
        }
    }

    #[test]
    fn over_attrs_pattern_set_evaluation() {
        // Patterns over {age, marital}; label over {gender, age}: the
        // marginal path (K = {age} ⊊ S) is exercised, on both paths.
        let d = figure2_sample();
        let ps = PatternSet::OverAttrs(AttrSet::from_indices([1, 3]));
        let ev = Evaluator::new(&d, &ps);
        let attrs = AttrSet::from_indices([0, 1]);
        let fast = ev.error_of(attrs, false);
        let slow = brute_stats(&d, attrs, &ps);
        assert!((fast.max_abs - slow.max_abs).abs() < 1e-9);
        assert!((fast.mean_abs - slow.mean_abs).abs() < 1e-9);
        assert_eq!(ev.context().error_of(attrs, false), fast);
    }

    #[test]
    fn explicit_pattern_set_evaluation() {
        let d = figure2_sample();
        let p1 = Pattern::parse(&d, &[("gender", "Female"), ("race", "Hispanic")]).unwrap();
        let p2 = Pattern::parse(&d, &[("age group", "under 20")]).unwrap();
        let ps = PatternSet::Explicit(vec![p1, p2]);
        let ev = Evaluator::new(&d, &ps);
        let attrs = AttrSet::from_indices([0, 2]);
        let fast = ev.error_of(attrs, false);
        let slow = brute_stats(&d, attrs, &ps);
        assert!((fast.max_abs - slow.max_abs).abs() < 1e-9);
        assert_eq!(fast.n, 2);
        assert_eq!(ev.context().error_of(attrs, false), fast);
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let d = correlated_pair(6, 3000, 0.5, 3).unwrap();
        let ev = Evaluator::new(&d, &PatternSet::AllTuples);
        let cands = vec![
            AttrSet::EMPTY,
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1]),
            AttrSet::from_indices([0, 1]),
        ];
        let opts = SearchOptions::with_bound(100).early_exit(false);
        let seq = ev.evaluate_many(&cands, &opts);
        let par = ev.evaluate_many(&cands, &opts.clone().threads(4));
        assert_eq!(seq, par);
        let cold = ev.evaluate_many(&cands, &opts.clone().refine(false).threads(4));
        assert_eq!(seq, cold);
        // Full label has zero error; empty label the largest.
        assert_eq!(seq[3], 0.0);
        assert!(seq[0] >= seq[3]);
    }
}
