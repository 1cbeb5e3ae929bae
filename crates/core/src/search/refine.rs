//! Partition refinement and marginal coarsening for the search evaluator.
//!
//! The search strategies walk a *lattice* of attribute subsets where
//! neighboring candidates differ by one attribute, yet a hash group-by
//! treats every subset as a cold start: pack a key over all of `S`, hash
//! it, probe a map — per row, per candidate. A [`Partition`] stores the
//! same grouping as a dense row→group-id vector instead, which supports
//! the two lattice moves directly:
//!
//! * **refinement** (child = parent ∪ {a}): one O(rows) pass composing
//!   `(old group id, value of a)` into new ids. When the composite space
//!   `groups × (card + 1)` is small — the common case under the paper's
//!   label-size bounds — the remap is a flat array and the pass does no
//!   hashing at all; otherwise it falls back to a `u64`-keyed hash remap
//!   (still never packing or hashing full multi-attribute keys);
//! * **coarsening** (marginal `K ⊂ S`): rows in the same `S`-group share
//!   their `K`-projection, so the `K`-partition is derived by grouping
//!   the `S`-partition's *group representatives* by their `K`-values
//!   (O(groups · |K|)) and mapping every row's id through that table in
//!   one O(rows) pass — the data-cube trick of deriving coarse aggregates
//!   from finer ones, generalizing the evaluator's old per-call
//!   `build_marginal`.
//!
//! The partition's row universe is the evaluator's compressed distinct
//! table, optionally followed by the materialized pattern rows ("passive"
//! rows: they receive group ids so pattern lookups are two array reads,
//! but contribute no weight). Group weights are exact `u64` sums of the
//! distinct rows' multiplicities, so every count derived from a partition
//! is bit-identical to the hash group-by's — the property the evaluator's
//! proptests pin.
//!
//! Sizing a lattice node's children needs less than a partition: only
//! the group ids of the distinct rows. `refine_bounded` fuses sizing and
//! refinement over such ids — one pass that counts the child's label
//! size, stops past the bound and writes the child's ids as it goes. The
//! top-down walk keeps each node's ids in a `GroupIds`, so a child that
//! fits is never read a second time; the naive search runs the same
//! pass over the data prefix of a memoized partition's ids.

use pclabel_data::dataset::MISSING;

use crate::hash::{fx_map_with_capacity, FxHashMap};

/// Above this many slots the dense remap of a refinement pass would cost
/// more to allocate/clear than the hashing it avoids; measured against
/// `4 × rows` (see [`dense_slots`]).
const DENSE_REMAP_FLOOR: usize = 1 << 16;

/// Slots of the flat `(group id, code)` table a pass refining `groups`
/// groups over `rows` rows by a column of cardinality `card` uses, or
/// `None` when the composite space `groups × (card + 1)` exceeds
/// `max(4 × rows, 2¹⁶)` and the pass hashes the pairs instead. The budget
/// depends on the rows alone, never on a caller's label bound, so no
/// request can make a pass allocate more slots than that.
fn dense_slots(groups: usize, card: u32, rows: usize) -> Option<usize> {
    let slots = groups.saturating_mul(card as usize + 1);
    (slots <= (4 * rows).max(DENSE_REMAP_FLOOR)).then_some(slots)
}

/// A dense row→group-id assignment over the evaluator's row universe
/// (distinct data rows, then pattern rows), with per-group data weights.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Group id per universe row.
    ids: Vec<u32>,
    /// Total data-row weight per group (pattern rows contribute 0).
    weights: Vec<u64>,
    /// One representative universe row per group (first encountered).
    reps: Vec<u32>,
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

    /// Number of universe rows.
    pub fn n_rows(&self) -> usize {
        self.ids.len()
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.weights.len()
    }

    /// Group id of universe row `row`.
    #[inline]
    pub fn group_of(&self, row: usize) -> u32 {
        self.ids[row]
    }

    /// Total data weight of `row`'s group — the same number a hash
    /// group-by would return for the row's projection key.
    #[inline]
    pub fn weight_of_row(&self, row: usize) -> u64 {
        self.weights[self.ids[row] as usize]
    }

    /// Refines by one column: rows share a group in the result iff they
    /// shared one before *and* agree on the column (missing is its own
    /// code, exactly like the reserved missing code of
    /// [`KeyCodec`](crate::counting::KeyCodec)).
    ///
    /// `data_col` covers the data prefix of the universe, `pattern_col`
    /// the pattern suffix (empty when patterns share the data rows);
    /// `card` is the column's dictionary cardinality and `dweights` the
    /// data rows' multiplicities.
    pub fn refine(
        &self,
        data_col: &[u32],
        pattern_col: &[u32],
        card: u32,
        dweights: &[u64],
    ) -> Partition {
        let n = self.ids.len();
        debug_assert_eq!(data_col.len() + pattern_col.len(), n);
        debug_assert_eq!(dweights.len(), data_col.len());
        let mut out = Partition {
            ids: Vec::with_capacity(n),
            weights: Vec::with_capacity(self.n_groups() + 1),
            reps: Vec::with_capacity(self.n_groups() + 1),
        };
        if let Some(slots) = self.dense_slots(card) {
            let mut remap = vec![u32::MAX; slots];
            self.refine_dense(
                &mut out,
                &mut remap,
                card as usize + 1,
                data_col,
                pattern_col,
                dweights,
            );
        } else {
            let mut remap: FxHashMap<u64, u32> = fx_map_with_capacity(self.n_groups() * 2);
            self.refine_hash(&mut out, &mut remap, card, data_col, pattern_col, dweights);
        }
        out
    }

    /// Slots of the flat `(group id, code)` table a pass refining by a
    /// column of cardinality `card` uses, or `None` when the composite
    /// space `groups × (card + 1)` exceeds `max(4 × rows, 2¹⁶)` and the
    /// pass hashes the pairs instead. The budget depends on the universe
    /// alone, never on a caller's label bound, so no request can make a
    /// pass allocate more slots than that.
    pub fn dense_slots(&self, card: u32) -> Option<usize> {
        dense_slots(self.n_groups(), card, self.n_rows())
    }

    /// The group id of every universe row.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The representative universe row of each group.
    pub(crate) fn reps(&self) -> &[u32] {
        &self.reps
    }

    fn refine_dense(
        &self,
        out: &mut Partition,
        remap: &mut [u32],
        stride: usize,
        data_col: &[u32],
        pattern_col: &[u32],
        dweights: &[u64],
    ) {
        let card = (stride - 1) as u32;
        for (r, (&v, &w)) in data_col.iter().zip(dweights).enumerate() {
            let code = if v == MISSING { card } else { v };
            debug_assert!(code <= card, "value id exceeds declared cardinality");
            let slot = self.ids[r] as usize * stride + code as usize;
            let mut g = remap[slot];
            if g == u32::MAX {
                g = out.weights.len() as u32;
                remap[slot] = g;
                out.weights.push(0);
                out.reps.push(r as u32);
            }
            out.weights[g as usize] += w;
            out.ids.push(g);
        }
        let n_data = data_col.len();
        for (p, &v) in pattern_col.iter().enumerate() {
            let code = if v == MISSING { card } else { v };
            let slot = self.ids[n_data + p] as usize * stride + code as usize;
            let mut g = remap[slot];
            if g == u32::MAX {
                g = out.weights.len() as u32;
                remap[slot] = g;
                out.weights.push(0);
                out.reps.push((n_data + p) as u32);
            }
            out.ids.push(g);
        }
    }

    fn refine_hash(
        &self,
        out: &mut Partition,
        remap: &mut FxHashMap<u64, u32>,
        card: u32,
        data_col: &[u32],
        pattern_col: &[u32],
        dweights: &[u64],
    ) {
        for (r, (&v, &w)) in data_col.iter().zip(dweights).enumerate() {
            let code = if v == MISSING { card } else { v };
            let key = ((self.ids[r] as u64) << 32) | code as u64;
            let next = out.weights.len() as u32;
            let g = *remap.entry(key).or_insert(next);
            if g == next {
                out.weights.push(0);
                out.reps.push(r as u32);
            }
            out.weights[g as usize] += w;
            out.ids.push(g);
        }
        let n_data = data_col.len();
        for (p, &v) in pattern_col.iter().enumerate() {
            let code = if v == MISSING { card } else { v };
            let key = ((self.ids[n_data + p] as u64) << 32) | code as u64;
            let next = out.weights.len() as u32;
            let g = *remap.entry(key).or_insert(next);
            if g == next {
                out.weights.push(0);
                out.reps.push((n_data + p) as u32);
            }
            out.ids.push(g);
        }
    }

    /// Coarsens to the sub-subset `keep` (which must be contained in the
    /// attribute set this partition was built over): groups whose
    /// representatives agree on every attribute of `keep` are merged and
    /// their weights summed. `value_of(row, attr)` reads a universe
    /// row's raw value (with [`MISSING`] for undefined cells).
    ///
    /// Soundness: rows in one group share their full projection, so the
    /// representative's `keep`-values stand for every member, and `u64`
    /// weight addition is exact and order-independent — the coarse counts
    /// equal a from-scratch group-by over `keep`.
    pub fn coarsen(&self, keep: &[usize], value_of: &dyn Fn(u32, usize) -> u32) -> Partition {
        let g_old = self.n_groups();
        let mut key_to_group: FxHashMap<Box<[u32]>, u32> = fx_map_with_capacity(g_old);
        let mut coarse: Vec<u32> = Vec::with_capacity(g_old);
        let mut weights: Vec<u64> = Vec::new();
        let mut reps: Vec<u32> = Vec::new();
        for (g, (&rep, &w)) in self.reps.iter().zip(&self.weights).enumerate() {
            let key: Box<[u32]> = keep.iter().map(|&a| value_of(rep, a)).collect();
            let next = weights.len() as u32;
            let cg = *key_to_group.entry(key).or_insert(next);
            if cg == next {
                weights.push(0);
                reps.push(rep);
            }
            weights[cg as usize] += w;
            coarse.push(cg);
            debug_assert_eq!(g + 1, coarse.len());
        }
        let ids = self.ids.iter().map(|&g| coarse[g as usize]).collect();
        Partition { ids, weights, reps }
    }
}

/// The group ids of the distinct rows under one attribute set — the part
/// of a [`Partition`] that sizing the set's children reads: no weights,
/// representatives or pattern rows.
#[derive(Debug, Default)]
pub(crate) struct GroupIds {
    ids: Vec<u32>,
    groups: usize,
    /// The group of the rows that miss every attribute of the set.
    all_missing: Option<u32>,
}

/// Scratch space reused across [`refine_bounded`] passes.
#[derive(Debug, Default)]
pub(crate) struct RefineScratch {
    /// Dense remap; every slot is `u32::MAX` between passes.
    dense: Vec<u32>,
    /// The dense slots the current pass claimed, reset when it ends.
    claimed: Vec<usize>,
    hashed: FxHashMap<u64, u32>,
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

    /// [`refine_bounded`] over these ids.
    pub(crate) fn refine_bounded(
        &self,
        col: &[u32],
        card: u32,
        bound: u64,
        out: &mut GroupIds,
        scratch: &mut RefineScratch,
    ) -> Option<u64> {
        refine_bounded(
            &self.ids,
            self.groups,
            self.all_missing,
            col,
            card,
            bound,
            out,
            scratch,
        )
    }
}

/// Refines the grouping `ids` of the distinct rows (`groups` groups,
/// `all_missing` the group of the rows that miss every attribute of the
/// set) by one column into `out` when the refined set's label size is at
/// most `bound`, returning that size, else `None` as soon as the size
/// exceeds `bound` (`out` is then partly written). The size is the number
/// of distinct `(group id, code)` pairs, leaving out the all-missing
/// group's missing code (the empty pattern), so it equals
/// [`label_size_bounded`](crate::counting::label_size_bounded) over the
/// refined set; the one pass that counts the pairs also numbers them as
/// the refined ids. The remap follows [`dense_slots`]'s dense-or-hash
/// rule over the distinct rows, so no bound can grow it.
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
    debug_assert_eq!(col.len(), ids.len());
    match dense_slots(groups, card, ids.len()) {
        Some(slots) => {
            if scratch.dense.len() < slots {
                scratch.dense.resize(slots, u32::MAX);
            }
            let (dense, claimed) = (&mut scratch.dense, &mut scratch.claimed);
            let size = refine_pass(ids, all_missing, col, card, bound, out, |key, next| {
                let slot = &mut dense[key as usize];
                if *slot == u32::MAX {
                    *slot = next;
                    claimed.push(key as usize);
                }
                *slot
            });
            for slot in claimed.drain(..) {
                dense[slot] = u32::MAX;
            }
            size
        }
        None => {
            let hashed = &mut scratch.hashed;
            hashed.clear();
            refine_pass(ids, all_missing, col, card, bound, out, |key, next| {
                *hashed.entry(key).or_insert(next)
            })
        }
    }
}

/// The pass behind [`refine_bounded`]: `claim(key, next)` returns the id
/// the remap holds for the pair `key`, after storing `next` there if it
/// held none.
fn refine_pass(
    ids: &[u32],
    all_missing: Option<u32>,
    col: &[u32],
    card: u32,
    bound: u64,
    out: &mut GroupIds,
    mut claim: impl FnMut(u64, u32) -> u32,
) -> Option<u64> {
    let stride = u64::from(card) + 1;
    let key =
        |g: u32, v: u32| u64::from(g) * stride + u64::from(if v == MISSING { card } else { v });
    let skip = all_missing.map(|g| key(g, MISSING));
    out.ids.resize(ids.len(), 0);
    out.all_missing = None;
    let mut next = 0u32;
    let mut size = 0u64;
    for ((o, &g), &v) in out.ids.iter_mut().zip(ids).zip(col) {
        let pair = key(g, v);
        let id = claim(pair, next);
        if id == next {
            next += 1;
            if Some(pair) == skip {
                out.all_missing = Some(id);
            } else {
                size += 1;
                if size > bound {
                    return None;
                }
            }
        }
        *o = id;
    }
    out.groups = next as usize;
    Some(size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrset::AttrSet;
    use crate::counting::GroupCounts;
    use pclabel_data::dataset::{Dataset, DatasetBuilder};
    use pclabel_data::generate::figure2_sample;

    /// Builds the partition for `attrs` over `dataset` (no pattern rows)
    /// by successive refinement, in increasing attribute order.
    fn partition_over(dataset: &Dataset, attrs: AttrSet, dweights: &[u64]) -> Partition {
        let total: u64 = dweights.iter().sum();
        let mut part = Partition::unit(dataset.n_rows(), total);
        for a in attrs.iter() {
            let card = dataset.schema().attr(a).map_or(0, |at| at.cardinality()) as u32;
            part = part.refine(dataset.column(a), &[], card, dweights);
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
            let (gc, _) = GroupCounts::build(&d, None, attrs, 1);
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
        assert_eq!(part.n_rows(), 5);
        for r in 0..5 {
            assert_eq!(part.weight_of_row(r), 42);
            assert_eq!(part.group_of(r), 0);
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
        assert_eq!(part.group_of(0), part.group_of(2));
        assert_ne!(part.group_of(0), part.group_of(1));
        assert_eq!(part.weight_of_row(0), 2);
        assert_eq!(part.weight_of_row(1), 1);
    }

    #[test]
    fn pattern_rows_are_passive() {
        // Universe: 3 data rows + 2 pattern rows; the pattern rows get
        // ids (and read group weights) but add no weight.
        let data = [0u32, 1, 0];
        let patterns = [0u32, 2];
        let w = [5u64, 7, 11];
        let part = Partition::unit(5, 23).refine(&data, &patterns, 3, &w);
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
        let coarse = fine.coarsen(&keep.to_vec(), &|row, a| d.value_raw(row as usize, a));
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
        let (gc, _) = GroupCounts::build(&d, None, AttrSet::full(2), 1);
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
                let card = d.schema().attr(a).unwrap().cardinality() as u32;
                let attrs = AttrSet::full(a + 1);
                let exact = crate::counting::label_size(&d, attrs);
                let mut out = GroupIds::default();
                if exact > 0 {
                    let over =
                        ids.refine_bounded(d.column(a), card, exact - 1, &mut out, &mut scratch);
                    assert_eq!(over, None, "{attrs}");
                }
                let size = ids.refine_bounded(d.column(a), card, exact, &mut out, &mut scratch);
                assert_eq!(size, Some(exact), "{attrs}");
                part = part.refine(d.column(a), &[], card, &w);
                assert_eq!(out.ids, part.ids, "{attrs}");
                assert_eq!(out.groups, part.n_groups(), "{attrs}");
                ids = out;
            }
        }
    }
}
