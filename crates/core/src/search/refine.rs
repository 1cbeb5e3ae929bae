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

use pclabel_data::dataset::MISSING;

use crate::hash::{fx_map_with_capacity, fx_set_with_capacity, FxHashMap, FxHashSet};

/// Above this many slots the dense remap of a refinement pass would cost
/// more to allocate/clear than the hashing it avoids; measured against
/// `4 × rows` (see [`Partition::dense_slots`]).
const DENSE_REMAP_FLOOR: usize = 1 << 16;

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
        let slots = self.n_groups().saturating_mul(card as usize + 1);
        (slots <= (4 * self.n_rows()).max(DENSE_REMAP_FLOOR)).then_some(slots)
    }

    /// Bounded size of the refinement by one column, without building it:
    /// the number of distinct `(group id, code)` pairs over the data rows
    /// — the label size of the parent's attributes plus the column — or
    /// `None` as soon as that number exceeds `bound`. The pair
    /// `(all_missing, missing)`, the refined all-missing projection (the
    /// empty pattern), is not counted, so the answer equals
    /// [`label_size_bounded`](crate::counting::label_size_bounded) over
    /// the refined attribute set.
    ///
    /// `data_col` covers the data prefix of the universe: passive pattern
    /// rows add no pattern to a label and are never read.
    pub fn refined_size_bounded(
        &self,
        data_col: &[u32],
        card: u32,
        all_missing: Option<u32>,
        bound: u64,
    ) -> Option<u64> {
        let ids = &self.ids[..data_col.len()];
        let code = |v: u32| if v == MISSING { card } else { v };
        let mut size = 0u64;
        if let Some(slots) = self.dense_slots(card) {
            let stride = card as usize + 1;
            let skip = all_missing.map(|g| g as usize * stride + card as usize);
            let mut seen = vec![0u64; slots.div_ceil(64)];
            for (&g, &v) in ids.iter().zip(data_col) {
                let slot = g as usize * stride + code(v) as usize;
                let (word, bit) = (slot / 64, 1u64 << (slot % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    if Some(slot) != skip {
                        size += 1;
                        if size > bound {
                            return None;
                        }
                    }
                }
            }
        } else {
            let key = |g: u32, c: u32| (u64::from(g) << 32) | u64::from(c);
            let skip = all_missing.map(|g| key(g, card));
            // The scan stops at bound + 1 pairs; a huge bound still starts
            // from a small table.
            let cap = usize::try_from(bound).map_or(usize::MAX, |b| b.saturating_add(1));
            let mut seen: FxHashSet<u64> = fx_set_with_capacity(cap.min(1 << 12));
            for (&g, &v) in ids.iter().zip(data_col) {
                let pair = key(g, code(v));
                if Some(pair) != skip && seen.insert(pair) {
                    size += 1;
                    if size > bound {
                        return None;
                    }
                }
            }
        }
        Some(size)
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
            let gc = GroupCounts::build(&d, None, attrs);
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
        let gc = GroupCounts::build(&d, None, AttrSet::full(2));
        for r in 0..n {
            assert_eq!(part.weight_of_row(r), gc.weight_of_row(&d, r));
        }
    }
}
