//! Bulk pattern counting: group-by over attribute projections.
//!
//! A label's `PC` component is exactly a group-by of the dataset on the
//! chosen attribute subset `S`; the label-size function `|P_S|` is the
//! number of groups. [`GroupCounts`] is a hash group-by with bit-packed
//! `u64` keys whenever the schema fits (fast path), falling back to boxed
//! `u32` slices. Every scan over rows is written once, generic over the
//! key width. (The search evaluator's partition refinement lives in
//! [`crate::search::refine`].)
//!
//! [`GroupCounts::build`] is the one constructor: one serial scan into
//! one map. The build is serial because a label holds few groups — the
//! paper's search bounds `|PC|` by `B_s` (50 and 100 in its experiments)
//! — and on 2 hardware threads a two-worker radix-partitioned build lost
//! to the serial scan on every label-sized table it was measured on
//! (BlueNile's 560-group `{shape, color, clarity}` at 200,000 rows:
//! 2.44–2.52 ms serial against 2.99–3.37 ms), winning only at tens of
//! thousands of groups (COMPAS on all 17 attributes, 32,244 groups),
//! which only an explicit `label_attrs` of many attributes reaches.
//!
//! The map sits behind an `Arc`, so cloning a group-by (the next label
//! generation) is cheap, and [`GroupCounts::append_rows`] is
//! copy-on-append: it copies the map first when an older generation
//! still shares it, so that generation's readers never see the new rows.
//!
//! Missing cells are first-class: a row's projection onto `S` keeps only
//! its defined attributes (the partial-pattern semantics required by the
//! NP-hardness reduction of Appendix A), with missing encoded as a reserved
//! per-attribute code so that distinct partial patterns land in distinct
//! groups. The all-missing group corresponds to the empty pattern and is
//! excluded from the label size.

use std::borrow::Borrow;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use pclabel_data::dataset::{Dataset, MISSING};

use crate::attrset::AttrSet;
use crate::hash::{fx_set_with_capacity, FxHashMap, FxHashSet};

/// Encodes per-row projections onto a fixed attribute subset as compact
/// keys. Missing is encoded as `cardinality` (one past the last valid id).
#[derive(Debug, Clone)]
pub struct KeyCodec {
    attrs: Vec<usize>,
    cards: Vec<u32>,
    shifts: Vec<u32>,
    /// Total bits needed; packing applies when <= 64.
    total_bits: u32,
    /// The packed key of a row missing every attribute (0 when packing
    /// does not apply).
    missing_key: u64,
}

/// Bits needed for one attribute's codes `0..=card`: the values occupy
/// `0..card` and `card` itself is the reserved missing code, so the widest
/// code is `card` and the width is `ceil(log2(card + 1))` — equivalently
/// the position of `card`'s highest set bit plus one. Minimum 1 so an
/// empty domain (cardinality 0) still reserves a bit for its missing code.
#[inline]
const fn code_width(card: u32) -> u32 {
    let bits = u32::BITS - card.leading_zeros();
    if bits == 0 {
        1
    } else {
        bits
    }
}

impl KeyCodec {
    /// Builds a codec for `attrs` against `dataset`'s schema.
    pub fn new(dataset: &Dataset, attrs: AttrSet) -> Self {
        let attrs_vec = attrs.to_vec();
        let mut cards = Vec::with_capacity(attrs_vec.len());
        let mut shifts = Vec::with_capacity(attrs_vec.len());
        let mut total = 0u32;
        for &a in &attrs_vec {
            let card = dataset
                .schema()
                .attr(a)
                .map(|at| at.cardinality() as u32)
                .unwrap_or(0);
            shifts.push(total);
            cards.push(card);
            total += code_width(card);
        }
        let missing_key = if total <= 64 {
            cards
                .iter()
                .zip(&shifts)
                .fold(0, |key, (&card, &shift)| key | (card as u64) << shift)
        } else {
            0
        };
        Self {
            attrs: attrs_vec,
            cards,
            shifts,
            total_bits: total,
            missing_key,
        }
    }

    /// Whether all keys fit in a single `u64`.
    pub fn fits_u64(&self) -> bool {
        self.total_bits <= 64
    }

    /// Total key width in bits (sum of per-attribute code widths).
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Attributes covered, in increasing order.
    pub fn attrs(&self) -> &[usize] {
        &self.attrs
    }

    /// Whether `dataset` still encodes to the same keys this codec was
    /// built for: every covered attribute must have the exact cardinality
    /// seen at build time (a grown dictionary changes code widths and the
    /// reserved missing code, so incremental appends would be unsound).
    pub fn compatible_with(&self, dataset: &Dataset) -> bool {
        self.attrs.iter().zip(&self.cards).all(|(&a, &card)| {
            dataset
                .schema()
                .attr(a)
                .is_some_and(|at| at.cardinality() as u32 == card)
        })
    }

    /// Packs row `r` of `dataset` into a `u64` key. Only valid when
    /// [`KeyCodec::fits_u64`] holds.
    #[inline]
    pub fn encode_row_u64(&self, dataset: &Dataset, r: usize) -> u64 {
        debug_assert!(self.fits_u64());
        let mut key = 0u64;
        for (i, &a) in self.attrs.iter().enumerate() {
            let v = dataset.value_raw(r, a);
            let code = if v == MISSING { self.cards[i] } else { v };
            key |= (code as u64) << self.shifts[i];
        }
        key
    }

    /// Packs an explicit values slice (aligned with [`KeyCodec::attrs`],
    /// `MISSING` allowed) into a `u64` key.
    #[inline]
    pub fn encode_values_u64(&self, values: &[u32]) -> u64 {
        debug_assert!(self.fits_u64());
        debug_assert_eq!(values.len(), self.attrs.len());
        let mut key = 0u64;
        for (i, &v) in values.iter().enumerate() {
            let code = if v == MISSING { self.cards[i] } else { v };
            key |= (code as u64) << self.shifts[i];
        }
        key
    }

    /// Extracts the values (with `MISSING` restored) from a packed key.
    pub fn decode_u64(&self, key: u64) -> Vec<u32> {
        self.cards
            .iter()
            .zip(&self.shifts)
            .map(|(&card, &shift)| {
                let code = ((key >> shift) & (u64::MAX >> (64 - code_width(card)))) as u32;
                if code == card {
                    MISSING
                } else {
                    code
                }
            })
            .collect()
    }
}

// --- key widths -------------------------------------------------------------

/// A group key of one width: the packed `u64` projection when the codec
/// fits 64 bits, the boxed raw ids otherwise. The scan, appends and
/// lookups are written once, generic over this trait; what differs
/// between the widths lives here.
trait GroupKey: Hash + Eq + Clone + Borrow<<Self as GroupKey>::Probe> {
    /// What a lookup hashes: the key itself for packed keys, the caller's
    /// `[u32]` slice for wide ones, so lookups neither allocate nor copy.
    type Probe: Hash + Eq + ?Sized;

    /// Row `r`'s projection.
    fn of_row(codec: &KeyCodec, dataset: &Dataset, r: usize) -> Self;

    /// Calls `f` with the probe of a values slice aligned with
    /// [`KeyCodec::attrs`].
    fn with_probe<R>(codec: &KeyCodec, values: &[u32], f: impl FnOnce(&Self::Probe) -> R) -> R;

    /// Whether this is the all-missing key (the empty pattern, which no
    /// group holds).
    fn is_all_missing(&self, codec: &KeyCodec) -> bool;

    /// The key's values, aligned with [`KeyCodec::attrs`], `MISSING`
    /// restored.
    fn values(&self, codec: &KeyCodec) -> Vec<u32>;

    /// Estimated table bytes of a map over these keys (the accounting of
    /// [`CountingProfile::peak_bytes`]).
    fn map_bytes(map: &FxHashMap<Self, u64>, arity: usize) -> u64;

    /// Tags a group map with its key width.
    fn into_map(counts: Arc<FxHashMap<Self, u64>>) -> GroupMap;
}

impl GroupKey for u64 {
    type Probe = u64;

    #[inline]
    fn of_row(codec: &KeyCodec, dataset: &Dataset, r: usize) -> u64 {
        codec.encode_row_u64(dataset, r)
    }

    #[inline]
    fn with_probe<R>(codec: &KeyCodec, values: &[u32], f: impl FnOnce(&u64) -> R) -> R {
        f(&codec.encode_values_u64(values))
    }

    #[inline]
    fn is_all_missing(&self, codec: &KeyCodec) -> bool {
        *self == codec.missing_key
    }

    fn values(&self, codec: &KeyCodec) -> Vec<u32> {
        codec.decode_u64(*self)
    }

    /// 8 (key) + 8 (weight) + 1 (control byte) per slot of capacity.
    fn map_bytes(map: &FxHashMap<u64, u64>, _arity: usize) -> u64 {
        map.capacity() as u64 * 17
    }

    fn into_map(counts: Arc<FxHashMap<u64, u64>>) -> GroupMap {
        GroupMap::Packed(counts)
    }
}

impl GroupKey for Box<[u32]> {
    type Probe = [u32];

    /// The raw ids, `MISSING` included.
    #[inline]
    fn of_row(codec: &KeyCodec, dataset: &Dataset, r: usize) -> Box<[u32]> {
        codec
            .attrs
            .iter()
            .map(|&a| dataset.value_raw(r, a))
            .collect()
    }

    #[inline]
    fn with_probe<R>(_codec: &KeyCodec, values: &[u32], f: impl FnOnce(&[u32]) -> R) -> R {
        f(values)
    }

    #[inline]
    fn is_all_missing(&self, _codec: &KeyCodec) -> bool {
        self.iter().all(|&v| v == MISSING)
    }

    fn values(&self, _codec: &KeyCodec) -> Vec<u32> {
        self.to_vec()
    }

    /// 16 (fat pointer) + 8 + 1 per slot plus the boxed key heap (4 bytes
    /// per value).
    fn map_bytes(map: &FxHashMap<Box<[u32]>, u64>, arity: usize) -> u64 {
        map.capacity() as u64 * 25 + map.len() as u64 * (16 + 4 * arity as u64)
    }

    fn into_map(counts: Arc<FxHashMap<Box<[u32]>, u64>>) -> GroupMap {
        GroupMap::Wide(counts)
    }
}

/// Adds rows `rows` of `dataset` (weighted by `weights[r]`, or 1) to
/// `map`: all-missing rows to `empty`, every other row to its key's
/// group. The build's scan and an append's fold.
fn add_rows<K: GroupKey>(
    map: &mut FxHashMap<K, u64>,
    codec: &KeyCodec,
    dataset: &Dataset,
    weights: Option<&[u64]>,
    rows: Range<usize>,
    empty: &mut u64,
) {
    for r in rows {
        let w = weights.map_or(1, |w| w[r]);
        let key = K::of_row(codec, dataset, r);
        if key.is_all_missing(codec) {
            *empty += w;
        } else {
            *map.entry(key).or_insert(0) += w;
        }
    }
}

/// The weight of row `r`'s group in `map`, 0 when absent.
#[inline]
fn row_weight<K: GroupKey>(
    map: &FxHashMap<K, u64>,
    codec: &KeyCodec,
    dataset: &Dataset,
    r: usize,
) -> u64 {
    map.get(K::of_row(codec, dataset, r).borrow())
        .copied()
        .unwrap_or(0)
}

/// The weight of the group of `values` (aligned with
/// [`KeyCodec::attrs`]) in `map`, 0 when absent.
#[inline]
fn values_weight<K: GroupKey>(map: &FxHashMap<K, u64>, codec: &KeyCodec, values: &[u32]) -> u64 {
    K::with_probe(codec, values, |probe| map.get(probe).copied().unwrap_or(0))
}

#[derive(Clone)]
enum GroupMap {
    Packed(Arc<FxHashMap<u64, u64>>),
    Wide(Arc<FxHashMap<Box<[u32]>, u64>>),
}

/// Evaluates `$body` with `$counts` bound to the group map's storage,
/// whichever its key width (the body is compiled once per width).
macro_rules! with_counts {
    ($map:expr, $counts:ident => $body:expr) => {
        match $map {
            GroupMap::Packed($counts) => $body,
            GroupMap::Wide($counts) => $body,
        }
    };
}

/// The group-by of a dataset on an attribute subset: one entry per distinct
/// (partial) projection, valued by total row weight. Cloning is cheap
/// (the map is `Arc`-shared; see the module docs).
#[derive(Clone)]
pub struct GroupCounts {
    attrs: AttrSet,
    codec: KeyCodec,
    map: GroupMap,
    /// Weight of the all-missing group (empty pattern), if any.
    empty_group_weight: u64,
}

/// Wall-clock and memory accounting for one build, reported by
/// [`GroupCounts::build`] so request traces can attribute it.
///
/// `peak_bytes` is an *estimate* of the build's own allocation: the hash
/// map's table bytes (capacity × entry footprint, plus boxed key heap for
/// wide keys).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingProfile {
    /// Always 0: the build has no partition pass. Kept until ROADMAP
    /// item 1 ports the benchmark, which still reads it.
    pub partition_secs: f64,
    /// The counting scan (for a label, `PC`'s group-by; for an
    /// incremental append, the whole label update).
    pub count_secs: f64,
    /// Label assembly after the scan: computing `VC` and the label
    /// itself (0 for a bare [`GroupCounts::build`]).
    pub assemble_secs: f64,
    /// Estimated peak allocation of the build (see type docs).
    pub peak_bytes: u64,
}

impl GroupCounts {
    /// Groups `dataset` by `attrs` in one serial scan; row `r`
    /// contributes `weights[r]` (or 1 when `weights` is `None`). Returns
    /// the counts and their build profile.
    pub fn build(
        dataset: &Dataset,
        weights: Option<&[u64]>,
        attrs: AttrSet,
    ) -> (Self, CountingProfile) {
        let codec = KeyCodec::new(dataset, attrs);
        if codec.fits_u64() {
            build_keyed::<u64>(dataset, weights, attrs, codec)
        } else {
            build_keyed::<Box<[u32]>>(dataset, weights, attrs, codec)
        }
    }

    /// Folds rows `rows` of `dataset` into the counts in place. The map is
    /// copied first when another clone (an older label generation) still
    /// shares it, so that clone keeps its counts.
    ///
    /// `dataset` must extend the build-time dataset without changing any
    /// covered attribute's dictionary — check with
    /// [`GroupCounts::codec_compatible`] first; appending after a
    /// dictionary grew silently miscounts. `weights` (when given) is
    /// indexed by absolute row id, like the build.
    pub fn append_rows(&mut self, dataset: &Dataset, weights: Option<&[u64]>, rows: Range<usize>) {
        debug_assert!(
            self.codec_compatible(dataset),
            "dictionary grew under codec"
        );
        let (codec, empty) = (&self.codec, &mut self.empty_group_weight);
        with_counts!(&mut self.map, counts => {
            add_rows(Arc::make_mut(counts), codec, dataset, weights, rows, empty)
        });
    }

    /// Whether `dataset` can be appended against this group-by's codec
    /// (see [`KeyCodec::compatible_with`]).
    pub fn codec_compatible(&self, dataset: &Dataset) -> bool {
        self.codec.compatible_with(dataset)
    }

    /// The attribute subset this group-by is over.
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Estimated resident bytes of the group map (see
    /// [`CountingProfile::peak_bytes`] for the accounting).
    pub fn map_bytes(&self) -> u64 {
        let arity = self.codec.attrs().len();
        with_counts!(&self.map, counts => GroupKey::map_bytes(&**counts, arity))
    }

    /// `|P_S|`: the number of distinct non-empty (partial) patterns — the
    /// paper's label size.
    pub fn pattern_count_size(&self) -> u64 {
        with_counts!(&self.map, counts => counts.len() as u64)
    }

    /// Total weight of rows whose projection is the empty pattern (only
    /// non-zero when `attrs` is empty or rows are missing all of `attrs`).
    pub fn empty_group_weight(&self) -> u64 {
        self.empty_group_weight
    }

    /// The group weight of row `r`'s projection, reading the row from
    /// `dataset` (which must share the schema used at build time).
    #[inline]
    pub fn weight_of_row(&self, dataset: &Dataset, r: usize) -> u64 {
        with_counts!(&self.map, counts => row_weight(counts, &self.codec, dataset, r))
    }

    /// The group weight for an explicit values slice aligned with
    /// [`GroupCounts::attr_order`] (`MISSING` marks an undefined cell).
    pub fn weight_of_values(&self, values: &[u32]) -> u64 {
        with_counts!(&self.map, counts => values_weight(counts, &self.codec, values))
    }

    /// Attribute indices in key order.
    pub fn attr_order(&self) -> &[usize] {
        self.codec.attrs()
    }

    /// Iterates over `(values, weight)` pairs; `values` is aligned with
    /// [`GroupCounts::attr_order`] and may contain `MISSING`. Order is
    /// unspecified.
    pub fn iter(&self) -> GroupIter<'_> {
        let codec = &self.codec;
        with_counts!(&self.map, counts => {
            Box::new(counts.iter().map(move |(k, &w)| (k.values(codec), w)))
        })
    }

    /// The marginal of the counts on `k ⊆ S`: the total weight of each
    /// `k`-projection, keyed by its values in increasing attribute order.
    /// Groups missing any attribute of `k` hold rows that no `k`-defined
    /// pattern matches, so they are left out. This is how a label answers
    /// a pattern that defines only part of `S`.
    pub fn marginal(&self, k: AttrSet) -> FxHashMap<Box<[u32]>, u64> {
        let positions: Vec<usize> = self
            .attr_order()
            .iter()
            .enumerate()
            .filter(|&(_, &a)| k.contains(a))
            .map(|(i, _)| i)
            .collect();
        let mut map: FxHashMap<Box<[u32]>, u64> = FxHashMap::default();
        for (values, weight) in self.iter() {
            if positions.iter().any(|&i| values[i] == MISSING) {
                continue;
            }
            let key: Box<[u32]> = positions.iter().map(|&i| values[i]).collect();
            *map.entry(key).or_insert(0) += weight;
        }
        map
    }
}

/// [`GroupCounts::build`] for one key width.
fn build_keyed<K: GroupKey>(
    dataset: &Dataset,
    weights: Option<&[u64]>,
    attrs: AttrSet,
    codec: KeyCodec,
) -> (GroupCounts, CountingProfile) {
    let t0 = Instant::now();
    let mut map = FxHashMap::default();
    let mut empty = 0u64;
    add_rows::<K>(
        &mut map,
        &codec,
        dataset,
        weights,
        0..dataset.n_rows(),
        &mut empty,
    );
    let profile = CountingProfile {
        count_secs: t0.elapsed().as_secs_f64(),
        peak_bytes: K::map_bytes(&map, codec.attrs().len()),
        ..CountingProfile::default()
    };
    let counts = GroupCounts {
        attrs,
        codec,
        map: K::into_map(Arc::new(map)),
        empty_group_weight: empty,
    };
    (counts, profile)
}

/// Iterator over a group-by's `(values, weight)` entries.
pub type GroupIter<'a> = Box<dyn Iterator<Item = (Vec<u32>, u64)> + 'a>;

impl pclabel_data::mem::HeapBytes for GroupCounts {
    /// The group map (the same per-slot model as
    /// [`CountingProfile::peak_bytes`]) plus the codec's per-attribute
    /// metadata.
    fn heap_bytes(&self) -> u64 {
        let codec = self.codec.attrs().len()
            * (std::mem::size_of::<usize>() + 2 * std::mem::size_of::<u32>());
        self.map_bytes() + codec as u64
    }
}

/// Convenience: the paper's `labelSize(S, D)` — the number of distinct
/// non-empty patterns over `attrs` present in `dataset`.
pub fn label_size(dataset: &Dataset, attrs: AttrSet) -> u64 {
    GroupCounts::build(dataset, None, attrs)
        .0
        .pattern_count_size()
}

/// Bound-aware label sizing: returns `Some(|P_S|)` when it is ≤ `bound`,
/// or `None` as soon as the running distinct count exceeds it. With the
/// paper's small bounds (≤ 100), an over-budget subset is usually
/// detected within the first few hundred rows.
///
/// This cold scan packs every attribute of `attrs` into a hashed key per
/// row. The searches size their lattice nodes from the parent's group ids
/// instead, with one fused pass: naive through
/// [`EvalContext::child_size_bounded`](crate::search::EvalContext::child_size_bounded)
/// over the parent's memoized partition, top-down over the ids its
/// depth-first walk keeps. This function is the oracle both paths are
/// tested against.
pub fn label_size_bounded(dataset: &Dataset, attrs: AttrSet, bound: u64) -> Option<u64> {
    if attrs.is_empty() {
        return Some(0);
    }
    let codec = KeyCodec::new(dataset, attrs);
    if codec.fits_u64() {
        distinct_bounded::<u64>(dataset, &codec, bound)
    } else {
        distinct_bounded::<Box<[u32]>>(dataset, &codec, bound)
    }
}

/// [`label_size_bounded`] for one key width.
fn distinct_bounded<K: GroupKey>(dataset: &Dataset, codec: &KeyCodec, bound: u64) -> Option<u64> {
    // Capacity bound+2: the scan aborts at bound+1 distinct keys (of which
    // one may be the excluded all-missing key).
    let cap = (bound as usize).saturating_add(2);
    let mut seen: FxHashSet<K> = fx_set_with_capacity(cap.min(1 << 12));
    for r in 0..dataset.n_rows() {
        let key = K::of_row(codec, dataset, r);
        if key.is_all_missing(codec) {
            continue;
        }
        if seen.insert(key) && seen.len() as u64 > bound {
            return None;
        }
    }
    Some(seen.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use pclabel_data::dataset::DatasetBuilder;
    use pclabel_data::generate::figure2_sample;

    /// 300 distinct rows over 9 attributes of 300 values each: 9 bits
    /// apiece, 81 key bits, so keys are wide.
    fn wide_dataset() -> Dataset {
        let names: Vec<String> = (0..9).map(|i| format!("w{i}")).collect();
        let mut b = DatasetBuilder::new(&names);
        for r in 0..300 {
            let row: Vec<String> = (0..9).map(|a| format!("{}", (r * (a + 1)) % 300)).collect();
            b.push_row(&row).unwrap();
        }
        b.finish()
    }

    /// The counts of a build.
    fn counts(d: &Dataset, weights: Option<&[u64]>, attrs: AttrSet) -> GroupCounts {
        GroupCounts::build(d, weights, attrs).0
    }

    #[test]
    fn example_2_10_group_counts() {
        // L_{age group, marital status}: PC = {(under20,single):6,
        // (20-39,married):6, (20-39,divorced):6}.
        let d = figure2_sample();
        let attrs = AttrSet::from_indices([1, 3]);
        let g = counts(&d, None, attrs);
        assert_eq!(g.pattern_count_size(), 3);
        let mut entries: Vec<(Vec<u32>, u64)> = g.iter().collect();
        entries.sort();
        assert!(entries.iter().all(|&(_, w)| w == 6));
    }

    #[test]
    fn example_2_10_second_label() {
        // L_{gender, age group}: 4 patterns with counts 3,3,6,6.
        let d = figure2_sample();
        let g = counts(&d, None, AttrSet::from_indices([0, 1]));
        assert_eq!(g.pattern_count_size(), 4);
        let mut weights: Vec<u64> = g.iter().map(|(_, w)| w).collect();
        weights.sort_unstable();
        assert_eq!(weights, vec![3, 3, 6, 6]);
    }

    #[test]
    fn group_weights_match_scan_counts() {
        let d = figure2_sample();
        for attrs in [
            AttrSet::from_indices([0]),
            AttrSet::from_indices([0, 2]),
            AttrSet::from_indices([0, 1, 2, 3]),
        ] {
            let g = counts(&d, None, attrs);
            for r in 0..d.n_rows() {
                let p = Pattern::from_row(&d, r).restrict(attrs);
                assert_eq!(
                    g.weight_of_row(&d, r),
                    p.count_in(&d),
                    "row {r} attrs {attrs}"
                );
            }
        }
    }

    #[test]
    fn empty_attrs_is_one_empty_group() {
        let d = figure2_sample();
        let g = counts(&d, None, AttrSet::EMPTY);
        assert_eq!(g.pattern_count_size(), 0);
        assert_eq!(g.empty_group_weight(), 18);
    }

    #[test]
    fn weights_flow_through() {
        let d = figure2_sample();
        let (distinct, w) = d.compress();
        let attrs = AttrSet::from_indices([1, 3]);
        let raw = counts(&d, None, attrs);
        let compressed = counts(&distinct, Some(&w), attrs);
        assert_eq!(raw.pattern_count_size(), compressed.pattern_count_size());
        for r in 0..distinct.n_rows() {
            assert_eq!(
                raw.weight_of_row(&distinct, r),
                compressed.weight_of_row(&distinct, r)
            );
        }
    }

    #[test]
    fn missing_values_form_partial_patterns() {
        // Rows: (x, 1), (x, ⊥), (⊥, ⊥).
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row_opt(&[Some("x"), Some("1")]).unwrap();
        b.push_row_opt(&[Some("x"), None::<&str>]).unwrap();
        b.push_row_opt(&[None::<&str>, None::<&str>]).unwrap();
        let d = b.finish();
        let g = counts(&d, None, AttrSet::from_indices([0, 1]));
        // Distinct non-empty projections: {a=x, b=1} and {a=x}.
        assert_eq!(g.pattern_count_size(), 2);
        assert_eq!(g.empty_group_weight(), 1);
        // Group weights are partition weights, not pattern counts.
        assert_eq!(g.weight_of_row(&d, 0), 1);
        assert_eq!(g.weight_of_row(&d, 1), 1);
    }

    #[test]
    fn wide_keys_used_for_huge_schemas() {
        let d = wide_dataset();
        let attrs = AttrSet::full(9);
        let codec = KeyCodec::new(&d, attrs);
        assert!(!codec.fits_u64());
        let g = counts(&d, None, attrs);
        assert_eq!(g.pattern_count_size(), 300);
        for r in 0..d.n_rows() {
            assert_eq!(g.weight_of_row(&d, r), 1);
        }
    }

    #[test]
    fn codec_roundtrip_decodes_values() {
        let d = figure2_sample();
        let attrs = AttrSet::from_indices([0, 2, 3]);
        let codec = KeyCodec::new(&d, attrs);
        assert!(codec.fits_u64());
        for r in 0..d.n_rows() {
            let key = codec.encode_row_u64(&d, r);
            let vals = codec.decode_u64(key);
            let expect: Vec<u32> = codec.attrs().iter().map(|&a| d.value_raw(r, a)).collect();
            assert_eq!(vals, expect);
        }
    }

    /// Two group-bys are identical iff they partition the rows into the
    /// same groups with the same weights (and empty-group weight).
    fn assert_same_groups(a: &GroupCounts, b: &GroupCounts) {
        assert_eq!(a.attrs(), b.attrs());
        assert_eq!(a.pattern_count_size(), b.pattern_count_size());
        assert_eq!(a.empty_group_weight(), b.empty_group_weight());
        let mut ea: Vec<(Vec<u32>, u64)> = a.iter().collect();
        let mut eb: Vec<(Vec<u32>, u64)> = b.iter().collect();
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb);
    }

    #[test]
    fn append_rows_equals_full_rebuild() {
        let d = figure2_sample();
        for attrs in [
            AttrSet::EMPTY,
            AttrSet::from_indices([1, 3]),
            AttrSet::full(4),
        ] {
            for split in [1usize, 7, 17] {
                let prefix = d.take_rows(&(0..split).collect::<Vec<_>>());
                let mut incremental = counts(&prefix, None, attrs);
                assert!(incremental.codec_compatible(&d));
                incremental.append_rows(&d, None, split..d.n_rows());
                assert_same_groups(&counts(&d, None, attrs), &incremental);
            }
        }
    }

    /// The address of a group-by's map allocation.
    fn map_ptr(g: &GroupCounts) -> *const () {
        with_counts!(&g.map, counts => Arc::as_ptr(counts).cast())
    }

    #[test]
    fn append_rows_copies_only_a_shared_map() {
        // A clone shares the map until one side appends; the append
        // copies it, and the other side keeps its counts.
        let d = figure2_sample();
        let attrs = AttrSet::full(4);
        let prefix = d.take_rows(&(0..10).collect::<Vec<_>>());
        let base = counts(&prefix, None, attrs);
        let mut appended = base.clone();
        assert_eq!(map_ptr(&base), map_ptr(&appended));
        appended.append_rows(&d, None, 10..d.n_rows());
        assert_ne!(map_ptr(&base), map_ptr(&appended));
        assert_same_groups(&counts(&prefix, None, attrs), &base);
        assert_same_groups(&counts(&d, None, attrs), &appended);
        // A map nothing else shares is appended to in place.
        let mut own = counts(&prefix, None, attrs);
        let before = map_ptr(&own);
        own.append_rows(&d, None, 10..d.n_rows());
        assert_eq!(map_ptr(&own), before);
        assert_same_groups(&appended, &own);
    }

    #[test]
    fn weighted_build_counts_missing_rows_in_the_empty_group() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row_opt(&[Some("x"), Some("1")]).unwrap();
        b.push_row_opt(&[Some("x"), None::<&str>]).unwrap();
        b.push_row_opt(&[None::<&str>, None::<&str>]).unwrap();
        b.push_row_opt(&[Some("y"), Some("1")]).unwrap();
        b.push_row_opt(&[None::<&str>, None::<&str>]).unwrap();
        let d = b.finish();
        let weights = [3u64, 1, 5, 2, 7];
        let g = counts(&d, Some(&weights), AttrSet::from_indices([0, 1]));
        // Groups {a=x, b=1}, {a=x} and {a=y, b=1}; the all-missing rows
        // weigh 5 + 7.
        assert_eq!(g.pattern_count_size(), 3);
        assert_eq!(g.empty_group_weight(), 12);
        for (r, w) in [(0, 3), (1, 1), (3, 2)] {
            assert_eq!(g.weight_of_row(&d, r), w, "row {r}");
        }
    }

    #[test]
    fn wide_key_appends_equal_full_build() {
        let d = wide_dataset();
        let attrs = AttrSet::full(9);
        assert!(!KeyCodec::new(&d, attrs).fits_u64());
        let prefix = d.take_rows(&(0..100).collect::<Vec<_>>());
        let mut incremental = counts(&prefix, None, attrs);
        incremental.append_rows(&d, None, 100..d.n_rows());
        assert_same_groups(&counts(&d, None, attrs), &incremental);
    }

    #[test]
    fn code_width_reserves_room_for_missing_code() {
        // The width must hold the reserved missing code `card` itself:
        // a power-of-two cardinality needs one bit more than log2(card).
        assert_eq!(code_width(0), 1);
        assert_eq!(code_width(1), 1); // codes {0, 1=missing}
        assert_eq!(code_width(2), 2); // codes {0, 1, 2=missing}
        assert_eq!(code_width(3), 2);
        assert_eq!(code_width(4), 3); // 4=missing needs bit 2
        assert_eq!(code_width(7), 3);
        assert_eq!(code_width(8), 4);
        assert_eq!(code_width(255), 8);
        assert_eq!(code_width(256), 9);
        for card in 1..2000u32 {
            let naive = (0..).find(|&b| (1u64 << b) > card as u64).unwrap();
            assert_eq!(code_width(card), naive, "card {card}");
        }
    }

    #[test]
    fn missing_codes_never_collide_with_values_at_powers_of_two() {
        // Cardinality-4 attribute (worst case: missing code 4 = 0b100):
        // a missing cell must land in a different group than every value.
        let mut b = DatasetBuilder::new(["p", "q"]);
        for v in ["a", "b", "c", "d"] {
            b.push_row_opt(&[Some(v), Some("z")]).unwrap();
        }
        b.push_row_opt(&[None::<&str>, Some("z")]).unwrap();
        let d = b.finish();
        let attrs = AttrSet::from_indices([0, 1]);
        let codec = KeyCodec::new(&d, attrs);
        assert_eq!(codec.total_bits(), 3 + 1);
        let g = counts(&d, None, attrs);
        // 4 value groups + 1 partial ({q=z}) group, all weight 1.
        assert_eq!(g.pattern_count_size(), 5);
        for r in 0..d.n_rows() {
            assert_eq!(g.weight_of_row(&d, r), 1, "row {r} collided");
        }
    }

    #[test]
    fn packing_boundary_at_exactly_64_bits() {
        // 8 attributes × cardinality 255 = 8 bits each = exactly 64 bits:
        // the packed path must still be used and decode losslessly.
        let domains: Vec<Vec<String>> = (0..8)
            .map(|_| (0..255).map(|v| format!("v{v}")).collect())
            .collect();
        let mut b = DatasetBuilder::with_domains(
            ["a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"]
                .iter()
                .zip(&domains)
                .map(|(n, d)| (*n, d.iter().map(|s| s.as_str()))),
        );
        b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 200]).unwrap();
        b.push_ids(&[MISSING, 254, 7, 100, 254, 0, 31, 200])
            .unwrap();
        let d = b.finish();
        let attrs = AttrSet::full(8);
        let codec = KeyCodec::new(&d, attrs);
        assert_eq!(codec.total_bits(), 64);
        assert!(codec.fits_u64());
        for r in 0..d.n_rows() {
            let key = codec.encode_row_u64(&d, r);
            let decoded = codec.decode_u64(key);
            let expect: Vec<u32> = codec.attrs().iter().map(|&a| d.value_raw(r, a)).collect();
            assert_eq!(decoded, expect, "row {r}");
        }
        let g = counts(&d, None, attrs);
        assert_eq!(g.pattern_count_size(), 2);
        for r in 0..d.n_rows() {
            assert_eq!(g.weight_of_row(&d, r), 1);
        }
    }

    #[test]
    fn packing_boundary_at_65_bits_falls_back_to_wide() {
        // Same schema plus one binary attribute: 65 bits, must go wide.
        let mut domains: Vec<Vec<String>> = (0..8)
            .map(|_| (0..255).map(|v| format!("v{v}")).collect())
            .collect();
        domains.push(vec!["y".into()]);
        let names: Vec<String> = (0..9).map(|i| format!("a{i}")).collect();
        let mut b = DatasetBuilder::with_domains(
            names
                .iter()
                .zip(&domains)
                .map(|(n, d)| (n.as_str(), d.iter().map(|s| s.as_str()))),
        );
        b.push_ids(&[0, 254, 7, 100, 254, 0, 31, 200, 0]).unwrap();
        let d = b.finish();
        let codec = KeyCodec::new(&d, AttrSet::full(9));
        assert_eq!(codec.total_bits(), 65);
        assert!(!codec.fits_u64());
        let g = counts(&d, None, AttrSet::full(9));
        assert_eq!(g.pattern_count_size(), 1);
        assert_eq!(g.weight_of_row(&d, 0), 1);
    }

    #[test]
    fn codec_compatibility_detects_grown_dictionaries() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row(&["x", "1"]).unwrap();
        let d = b.finish();
        let g = counts(&d, None, AttrSet::from_indices([0, 1]));
        assert!(g.codec_compatible(&d));
        // Same schema plus one interned value on a covered attribute.
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row(&["x", "1"]).unwrap();
        b.push_row(&["y", "1"]).unwrap();
        let grown = b.finish();
        assert!(!g.codec_compatible(&grown));
    }

    #[test]
    fn build_reports_its_profile() {
        let d = figure2_sample();
        let (g, profile) = GroupCounts::build(&d, None, AttrSet::from_indices([1, 3]));
        assert_eq!(g.pattern_count_size(), 3);
        assert_eq!(profile.peak_bytes, g.map_bytes());
        assert!(profile.peak_bytes > 0 && profile.count_secs >= 0.0);
        assert_eq!((profile.partition_secs, profile.assemble_secs), (0.0, 0.0));
    }

    #[test]
    fn label_size_on_figure2_matches_example_3_7() {
        // Example 3.7 with attribute indices g=0, a=1, r=2, m=3. Note the
        // paper's prose swaps {a,r} and {a,m} mid-example (it says {a,r}
        // has size 3 but then returns {a,m} as the winner); the actual
        // Figure 2 data gives |P_{a,m}| = 3 (see Example 2.10's PC set) and
        // |P_{a,r}| = 6, consistent with the example's conclusion.
        let d = figure2_sample();
        assert_eq!(label_size(&d, AttrSet::from_indices([0, 1])), 4);
        assert_eq!(label_size(&d, AttrSet::from_indices([1, 2])), 6);
        assert_eq!(label_size(&d, AttrSet::from_indices([1, 3])), 3);
    }
}
