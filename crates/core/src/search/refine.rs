//! Partitions and lattice-node sizing for the search evaluator.
//!
//! The searches walk a *lattice* of attribute subsets where neighbours
//! differ by one attribute, yet a hash group-by treats every subset as a
//! cold start: pack a key over all of `S`, hash it, probe a map — per
//! row, per candidate. A [`Partition`] stores the same grouping as a
//! dense row→group-id vector and derives its neighbours with
//! `pclabel-data`'s one refinement pass
//! ([`pclabel_data::partition::refine`], which
//! [`Dataset::compress`](pclabel_data::dataset::Dataset::compress) folds
//! over every column):
//!
//! * **refinement** (child = parent ∪ {a}): one O(rows) pass numbering
//!   the `(old group id, value of a)` pairs as new ids;
//! * **coarsening** (marginal `K ⊂ S`): rows in one `S`-group share their
//!   `K`-projection, so the pass groups the `S`-partition's
//!   *representatives* by their `K`-values (O(groups · |K|)), and every
//!   row's id is mapped through the result — the data-cube trick of
//!   deriving coarse aggregates from finer ones.
//!
//! The row universe is the evaluator's distinct table, optionally
//! followed by the materialized pattern rows (passive: they get group ids
//! so pattern lookups are two array reads, but weigh nothing). Group
//! weights are exact `u64` sums of the distinct rows' multiplicities, so
//! every count is bit-identical to the hash group-by's.
//!
//! Sizing a lattice node's children reads only the group ids of the
//! distinct rows: `refine_bounded` runs the pass over them with a
//! recorder that counts the child's label size and stops past the bound.
//! The top-down walk keeps each node's ids in a `GroupIds`; the naive
//! search reads the data prefix of a memoized partition's ids.

use pclabel_data::dataset::MISSING;
use pclabel_data::partition::{self, group_by_columns, group_weights, RefineScratch};

/// A dense row→group-id assignment over the evaluator's row universe
/// (distinct data rows, then pattern rows), with per-group data weights.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Group id per universe row.
    pub(crate) ids: Vec<u32>,
    /// Total data-row weight per group (pattern rows contribute 0).
    weights: Vec<u64>,
    /// One representative universe row per group (first encountered).
    pub(crate) reps: Vec<u32>,
}

impl Partition {
    /// The trivial partition: every universe row in one group carrying
    /// the full data weight (the empty projection).
    pub fn unit(n_universe: usize, total_weight: u64) -> Self {
        Partition {
            ids: vec![0; n_universe],
            weights: vec![total_weight],
            reps: vec![0],
        }
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.weights.len()
    }

    /// Total data weight of `row`'s group — the same number a hash
    /// group-by would return for the row's projection key.
    #[inline]
    pub fn weight_of_row(&self, row: usize) -> u64 {
        self.weights[self.ids[row] as usize]
    }

    /// Refines by one column: rows share a group in the result iff they
    /// shared one before *and* agree on the column, missing being a code
    /// of its own. `col` covers the universe (the pattern rows' values
    /// after the data rows'), `card` is the column's cardinality,
    /// `dweights` the data rows' multiplicities and `scratch` the pass's
    /// remap tables.
    pub fn refine(
        &self,
        col: &[u32],
        card: u32,
        dweights: &[u64],
        scratch: &mut RefineScratch,
    ) -> Partition {
        let mut ids = Vec::new();
        let mut reps = Vec::with_capacity(self.n_groups() + 1);
        let record = |_, row: usize| {
            reps.push(row as u32);
            true
        };
        let groups = partition::refine(
            &self.ids,
            self.n_groups(),
            col,
            card,
            &mut ids,
            scratch,
            record,
        )
        .expect("the recorder never stops the pass");
        // Only the data rows, a prefix of the universe, weigh anything.
        let weights = group_weights(&ids, dweights.iter().copied(), groups);
        Partition { ids, weights, reps }
    }

    /// Coarsens to a sub-subset of the attribute set this partition was
    /// built over: groups whose representatives agree on every kept
    /// attribute are merged and their weights summed. `keep` yields each
    /// kept attribute's universe column (with [`MISSING`] for undefined
    /// cells) and cardinality.
    ///
    /// Soundness: rows in one group share their full projection, so the
    /// representative's kept values stand for every member, and `u64`
    /// weight addition is exact and order-independent — the coarse counts
    /// equal a from-scratch group-by over the kept attributes.
    pub fn coarsen<'c>(&self, keep: impl IntoIterator<Item = (&'c [u32], u32)>) -> Partition {
        let cols = keep.into_iter().map(|(col, card)| {
            let gathered: Vec<u32> = self.reps.iter().map(|&rep| col[rep as usize]).collect();
            (gathered, card)
        });
        let (coarse, firsts) = group_by_columns(self.n_groups(), cols);
        Partition {
            ids: self.ids.iter().map(|&g| coarse[g as usize]).collect(),
            weights: group_weights(&coarse, self.weights.iter().copied(), firsts.len()),
            reps: firsts.iter().map(|&g| self.reps[g]).collect(),
        }
    }
}

/// The group ids of the distinct rows under one attribute set — the part
/// of a [`Partition`] that sizing the set's children reads: no weights,
/// representatives or pattern rows.
#[derive(Debug, Default)]
pub(crate) struct GroupIds {
    pub(crate) ids: Vec<u32>,
    pub(crate) groups: usize,
    /// The group of the rows that miss every attribute of the set.
    pub(crate) all_missing: Option<u32>,
}

impl GroupIds {
    /// The empty set's grouping of `rows` rows: one group, whose rows
    /// miss every attribute of the set.
    pub(crate) fn unit(rows: usize) -> Self {
        GroupIds {
            ids: vec![0; rows],
            groups: 1,
            all_missing: Some(0),
        }
    }
}

/// Refines the grouping `ids` of the distinct rows (`groups` groups,
/// `all_missing` the group of the rows that miss every attribute of the
/// set) by one column into `out`, returning the refined set's label size
/// when it is at most `bound`, else `None` as soon as it exceeds `bound`
/// (`out` is then partly written). The size counts the pass's new groups
/// except the all-missing group's missing code (the empty pattern), so it
/// equals [`label_size_bounded`](crate::counting::label_size_bounded).
/// The remap's dense-or-hash rule reads the rows alone, so no bound can
/// grow it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn refine_bounded(
    ids: &[u32],
    groups: usize,
    all_missing: Option<u32>,
    col: &[u32],
    card: u32,
    bound: u64,
    out: &mut GroupIds,
    scratch: &mut RefineScratch,
) -> Option<u64> {
    let mut size = 0u64;
    let mut empty = None;
    let record = |id, row: usize| {
        if col[row] == MISSING && Some(ids[row]) == all_missing {
            empty = Some(id);
            return true;
        }
        size += 1;
        size <= bound
    };
    out.groups = partition::refine(ids, groups, col, card, &mut out.ids, scratch, record)?;
    out.all_missing = empty;
    Some(size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrset::AttrSet;
    use crate::counting::GroupCounts;
    use pclabel_data::dataset::{Dataset, DatasetBuilder};
    use pclabel_data::generate::figure2_sample;

    fn card(dataset: &Dataset, attr: usize) -> u32 {
        dataset.schema().attr(attr).map_or(0, |at| at.cardinality()) as u32
    }

    /// Builds the partition for `attrs` over `dataset` (no pattern rows)
    /// by successive refinement, in increasing attribute order.
    fn partition_over(dataset: &Dataset, attrs: AttrSet, dweights: &[u64]) -> Partition {
        let total: u64 = dweights.iter().sum();
        let mut part = Partition::unit(dataset.n_rows(), total);
        let mut scratch = RefineScratch::default();
        for a in attrs.iter() {
            part = part.refine(dataset.column(a), card(dataset, a), dweights, &mut scratch);
        }
        part
    }

    #[test]
    fn refined_weights_match_group_counts() {
        let d = figure2_sample();
        let w = vec![1u64; d.n_rows()];
        for attrs in [
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1, 3]),
            AttrSet::full(4),
        ] {
            let part = partition_over(&d, attrs, &w);
            let (gc, _) = GroupCounts::build(&d, None, attrs);
            for r in 0..d.n_rows() {
                assert_eq!(
                    part.weight_of_row(r),
                    gc.weight_of_row(&d, r),
                    "{attrs} row {r}"
                );
            }
        }
    }

    #[test]
    fn unit_partition_carries_total_weight() {
        let part = Partition::unit(5, 42);
        assert_eq!(part.n_groups(), 1);
        assert_eq!(part.ids.len(), 5);
        for r in 0..5 {
            assert_eq!(part.weight_of_row(r), 42);
            assert_eq!(part.ids[r], 0);
        }
    }

    #[test]
    fn refine_tracks_missing_as_own_code() {
        let mut b = DatasetBuilder::new(["a"]);
        b.push_row_opt(&[Some("x")]).unwrap();
        b.push_row_opt(&[None::<&str>]).unwrap();
        b.push_row_opt(&[Some("x")]).unwrap();
        let d = b.finish();
        let w = vec![1u64; 3];
        let part = partition_over(&d, AttrSet::singleton(0), &w);
        assert_eq!(part.n_groups(), 2);
        assert_eq!(part.ids[0], part.ids[2]);
        assert_ne!(part.ids[0], part.ids[1]);
        assert_eq!(part.weight_of_row(0), 2);
        assert_eq!(part.weight_of_row(1), 1);
    }

    #[test]
    fn pattern_rows_are_passive() {
        // Universe: 3 data rows + 2 pattern rows; the pattern rows get
        // ids (and read group weights) but add no weight.
        let universe = [0u32, 1, 0, 0, 2];
        let w = [5u64, 7, 11];
        let part = Partition::unit(5, 23).refine(&universe, 3, &w, &mut RefineScratch::default());
        assert_eq!(part.weight_of_row(3), 16); // pattern "0" joins rows 0+2
        assert_eq!(part.weight_of_row(4), 0); // value 2 unseen in data
        assert_eq!(part.weight_of_row(1), 7);
    }

    #[test]
    fn coarsen_equals_rebuild_from_scratch() {
        let d = figure2_sample();
        let w = vec![1u64; d.n_rows()];
        let fine = partition_over(&d, AttrSet::full(4), &w);
        let keep = AttrSet::from_indices([1, 3]);
        let coarse = fine.coarsen(keep.iter().map(|a| (d.column(a), card(&d, a))));
        let fresh = partition_over(&d, keep, &w);
        for r in 0..d.n_rows() {
            assert_eq!(coarse.weight_of_row(r), fresh.weight_of_row(r), "row {r}");
        }
        assert_eq!(coarse.n_groups(), fresh.n_groups());
    }

    #[test]
    fn hash_fallback_matches_dense() {
        // Two high-cardinality columns: the second refinement's composite
        // space (~997 groups × 992 codes) exceeds the dense-remap budget
        // and takes the hash path; both paths must agree.
        let n = 2000usize;
        let names = ["hi", "hi2"];
        let mut b = DatasetBuilder::new(names);
        for r in 0..n {
            b.push_row(&[format!("v{}", r % 997), format!("w{}", (r * 7) % 991)])
                .unwrap();
        }
        let d = b.finish();
        let w = vec![1u64; n];
        let part = partition_over(&d, AttrSet::full(2), &w);
        let (gc, _) = GroupCounts::build(&d, None, AttrSet::full(2));
        for r in 0..n {
            assert_eq!(part.weight_of_row(r), gc.weight_of_row(&d, r));
        }
    }

    #[test]
    fn fused_pass_sizes_and_numbers_like_refine() {
        // Figure 2 plus rows missing one or both attributes (dense remaps),
        // and the two high-cardinality columns above (a hashed second pass):
        // along the chain {0} → {0, 1}, each fused pass's size is the
        // label size, and its ids are `Partition::refine`'s.
        let mut small = DatasetBuilder::new(["a", "b"]);
        for row in [[Some("x"), Some("p")], [None, Some("p")], [None, None]] {
            small.push_row_opt(&row).unwrap();
        }
        let mut wide = DatasetBuilder::new(["hi", "hi2"]);
        for r in 0..2000usize {
            wide.push_row(&[format!("v{}", r % 997), format!("w{}", (r * 7) % 991)])
                .unwrap();
        }
        wide.push_row_opt(&[None::<&str>, None]).unwrap();
        let mut scratch = RefineScratch::default();
        for d in [figure2_sample(), small.finish(), wide.finish()] {
            let w = vec![1u64; d.n_rows()];
            let mut part = Partition::unit(d.n_rows(), d.n_rows() as u64);
            let mut ids = GroupIds::unit(d.n_rows());
            for a in 0..2 {
                let (col, card) = (d.column(a), card(&d, a));
                let attrs = AttrSet::full(a + 1);
                let exact = crate::counting::label_size(&d, attrs);
                let mut out = GroupIds::default();
                // The walk's step from `ids` to `out`.
                let mut size = |bound, out: &mut GroupIds| {
                    refine_bounded(
                        &ids.ids,
                        ids.groups,
                        ids.all_missing,
                        col,
                        card,
                        bound,
                        out,
                        &mut scratch,
                    )
                };
                if exact > 0 {
                    assert_eq!(size(exact - 1, &mut out), None, "{attrs}");
                }
                assert_eq!(size(exact, &mut out), Some(exact), "{attrs}");
                part = part.refine(col, card, &w, &mut scratch);
                assert_eq!(out.ids, part.ids, "{attrs}");
                assert_eq!(out.groups, part.n_groups(), "{attrs}");
                ids = out;
            }
        }
    }
}
