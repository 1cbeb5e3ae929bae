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
//! [`GroupCounts::build`] is the one constructor. It takes a thread
//! count: one thread (or an empty `S`) runs the serial scan, more threads
//! run the radix-partitioned build described below. Either way the
//! counts are stored in [`auto_shards`]`(threads)` shards.
//!
//! ## Sharded storage
//!
//! The group map is stored as `N` key-range shards (`N` a power of two,
//! at most [`MAX_SHARDS`]), a key routed to its shard by the **top bits
//! of the packed key** (so shards are contiguous key ranges) or, for wide
//! keys, the top bits of the key's Fx hash. Three things fall out of this
//! layout:
//!
//! * **mergeless parallel builds** — a multi-threaded
//!   [`GroupCounts::build`] radix-partitions rows by shard first, then
//!   each worker builds the final maps of the shards *it alone owns*.
//!   There is no cross-thread merge of whole partial maps: every key is
//!   hashed into exactly one map, ever, and "merge" is the concatenation
//!   of the workers' disjoint shard lists. Peak memory does not pay for
//!   hot groups duplicated once per thread.
//! * **incremental appends** — [`GroupCounts::append_rows`] folds a batch
//!   of new rows into the counts in place, touching only the shards those
//!   rows' keys land in and reporting which ones. Shards are
//!   `Arc`-shared, so an updated copy of a group-by (a refreshed label
//!   generation) clones only the touched shards and shares the rest with
//!   its predecessor.
//! * **shard-local invalidation** — a caller caching per-group answers
//!   can ask [`GroupCounts::shard_of_values`] which shard a group lives
//!   in and drop only the cache entries of shards an append touched.
//!
//! Builds are *bit-identical* across thread counts: same groups, same
//! weights, same empty-group weight (enforced by the property tests).
//! The pre-sharding chunk-and-merge strategy is retained in
//! [`mod@reference`] as the equivalence oracle and the baseline the
//! counting microbenchmark measures the win against.
//!
//! Missing cells are first-class: a row's projection onto `S` keeps only
//! its defined attributes (the partial-pattern semantics required by the
//! NP-hardness reduction of Appendix A), with missing encoded as a reserved
//! per-attribute code so that distinct partial patterns land in distinct
//! groups. The all-missing group corresponds to the empty pattern and is
//! excluded from the label size.

use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use pclabel_data::dataset::{Dataset, MISSING};

use crate::attrset::AttrSet;
use crate::hash::{fx_map_with_capacity, fx_set_with_capacity, FxHashMap, FxHashSet, FxHasher};

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
/// fits 64 bits, the boxed raw ids otherwise. The scans, the radix build,
/// appends, lookups and the reference oracle are written once, generic
/// over this trait; what differs between the widths lives here.
trait GroupKey: Hash + Eq + Clone + Send + Sync + Borrow<<Self as GroupKey>::Probe> {
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

    /// The shard a key routes to among `2^shard_bits`.
    fn shard(codec: &KeyCodec, probe: &Self::Probe, shard_bits: u32) -> usize;

    /// The shard row `r`'s key routes to.
    #[inline]
    fn row_shard(codec: &KeyCodec, dataset: &Dataset, r: usize, shard_bits: u32) -> usize {
        Self::shard(codec, Self::of_row(codec, dataset, r).borrow(), shard_bits)
    }

    /// The key's values, aligned with [`KeyCodec::attrs`], `MISSING`
    /// restored.
    fn values(&self, codec: &KeyCodec) -> Vec<u32>;

    /// Estimated table bytes of a map over these keys (the accounting of
    /// [`CountingProfile::peak_bytes`]).
    fn map_bytes(map: &FxHashMap<Self, u64>, arity: usize) -> u64;

    /// Tags sharded storage with its key width.
    fn into_map(counts: ShardedCounts<Self>) -> GroupMap;
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

    /// The key's top `shard_bits` bits (of the codec's `total_bits`-wide
    /// key space), so each shard is a contiguous key range.
    #[inline]
    fn shard(codec: &KeyCodec, key: &u64, shard_bits: u32) -> usize {
        if shard_bits == 0 {
            return 0;
        }
        // When total_bits < shard_bits the shift is 0 and key <
        // 2^total_bits < n_shards, so the index stays in range (high
        // shards just stay empty).
        (key >> codec.total_bits.saturating_sub(shard_bits)) as usize
    }

    fn values(&self, codec: &KeyCodec) -> Vec<u32> {
        codec.decode_u64(*self)
    }

    /// 8 (key) + 8 (weight) + 1 (control byte) per slot of capacity.
    fn map_bytes(map: &FxHashMap<u64, u64>, _arity: usize) -> u64 {
        map.capacity() as u64 * 17
    }

    fn into_map(counts: ShardedCounts<u64>) -> GroupMap {
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

    #[inline]
    fn shard(_codec: &KeyCodec, values: &[u32], shard_bits: u32) -> usize {
        wide_shard(values.len(), values.iter().copied(), shard_bits)
    }

    /// Hashes the row's values in place, without boxing a key.
    #[inline]
    fn row_shard(codec: &KeyCodec, dataset: &Dataset, r: usize, shard_bits: u32) -> usize {
        let values = codec.attrs.iter().map(|&a| dataset.value_raw(r, a));
        wide_shard(codec.attrs.len(), values, shard_bits)
    }

    fn values(&self, _codec: &KeyCodec) -> Vec<u32> {
        self.to_vec()
    }

    /// 16 (fat pointer) + 8 + 1 per slot plus the boxed key heap (4 bytes
    /// per value).
    fn map_bytes(map: &FxHashMap<Box<[u32]>, u64>, arity: usize) -> u64 {
        map.capacity() as u64 * 25 + map.len() as u64 * (16 + 4 * arity as u64)
    }

    fn into_map(counts: ShardedCounts<Box<[u32]>>) -> GroupMap {
        GroupMap::Wide(counts)
    }
}

/// Shard of a wide key: top bits of the Fx hash over (len, values...).
/// One canonical routing for build, append and lookup, independent of how
/// the values are materialized.
#[inline]
fn wide_shard<I: Iterator<Item = u32>>(len: usize, values: I, shard_bits: u32) -> usize {
    if shard_bits == 0 {
        return 0;
    }
    let mut h = FxHasher::default();
    h.write_usize(len);
    for v in values {
        h.write_u32(v);
    }
    (h.finish() >> (64 - shard_bits)) as usize
}

// --- sharded storage --------------------------------------------------------

/// Upper bound on the shard count; also lets radix-partition passes store
/// one shard id per row in a single byte.
pub const MAX_SHARDS: usize = 256;

/// The shard count [`GroupCounts::build`] stores a `threads`-worker build
/// in: a few shards per worker (finer granularity balances skewed key
/// ranges), 1 for serial builds, capped at [`MAX_SHARDS`]. Always a power
/// of two.
pub fn auto_shards(threads: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        (threads * 4).next_power_of_two().min(MAX_SHARDS)
    }
}

/// Splits `0..counts.len()` shards into `workers` contiguous ranges of
/// near-equal total row count (from the phase-1 histogram), so phase-2
/// ownership tracks *rows*, not shard indices. A skewed top attribute —
/// a low-cardinality attribute occupying the packed key's high bits —
/// crowds all rows into a prefix of the shard space; equal-width ranges
/// would hand everything to the first worker(s) and idle the rest.
///
/// Boundary `w` is placed at the first shard where the cumulative count
/// reaches `total · (w + 1) / workers`, so ranges are contiguous,
/// disjoint and cover every shard; trailing ranges may be empty. The
/// assignment only moves work between threads — the shard a key lands in
/// (and therefore the built maps) is unchanged.
pub fn balanced_shard_ranges(counts: &[u64], workers: usize) -> Vec<Range<usize>> {
    let n = counts.len();
    let workers = workers.max(1);
    let total: u64 = counts.iter().sum();
    let mut out = Vec::with_capacity(workers);
    let mut start = 0usize;
    let mut acc = 0u64;
    for w in 0..workers {
        if w + 1 == workers {
            out.push(start..n);
            break;
        }
        let goal = total * (w as u64 + 1) / workers as u64;
        let mut end = start;
        while end < n && acc < goal {
            acc += counts[end];
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    out
}

/// The sharded group map: `N` independent `key → weight` maps, each
/// behind an `Arc` so updated copies (label generations after an append)
/// share every shard the update did not touch.
#[derive(Clone)]
struct ShardedCounts<K> {
    shards: Box<[Arc<FxHashMap<K, u64>>]>,
    shard_bits: u32,
}

impl<K: GroupKey> ShardedCounts<K> {
    /// Wraps already-built per-shard maps (a power-of-two count; the
    /// workers' concatenated output).
    fn from_maps(maps: Vec<FxHashMap<K, u64>>) -> Self {
        debug_assert!(maps.len().is_power_of_two() && maps.len() <= MAX_SHARDS);
        let shard_bits = maps.len().trailing_zeros();
        ShardedCounts {
            shards: maps.into_iter().map(Arc::new).collect(),
            shard_bits,
        }
    }

    /// Estimated bytes of the shard maps.
    fn map_bytes(&self, arity: usize) -> u64 {
        self.shards.iter().map(|m| K::map_bytes(m, arity)).sum()
    }

    /// Adds rows `rows` of `dataset` (weighted by `weights[r]`, or 1) to
    /// the counts: all-missing rows to `empty`, every other row to its
    /// key's shard, which is copied first if it is still shared with an
    /// older snapshot (copy-on-append) and marked in `touched`.
    fn add_rows(
        &mut self,
        codec: &KeyCodec,
        dataset: &Dataset,
        weights: Option<&[u64]>,
        rows: Range<usize>,
        empty: &mut u64,
        touched: &mut [bool],
    ) {
        for r in rows {
            let w = weights.map_or(1, |w| w[r]);
            let key = K::of_row(codec, dataset, r);
            if key.is_all_missing(codec) {
                *empty += w;
            } else {
                let s = K::shard(codec, key.borrow(), self.shard_bits);
                *Arc::make_mut(&mut self.shards[s]).entry(key).or_insert(0) += w;
                touched[s] = true;
            }
        }
    }

    /// The weight stored under `probe`, 0 when absent.
    #[inline]
    fn weight(&self, codec: &KeyCodec, probe: &K::Probe) -> u64 {
        let s = K::shard(codec, probe, self.shard_bits);
        self.shards[s].get(probe).copied().unwrap_or(0)
    }

    /// See [`GroupCounts::weight_of_row`].
    #[inline]
    fn weight_of_row(&self, codec: &KeyCodec, dataset: &Dataset, r: usize) -> u64 {
        self.weight(codec, K::of_row(codec, dataset, r).borrow())
    }

    /// See [`GroupCounts::weight_of_values`].
    #[inline]
    fn weight_of_values(&self, codec: &KeyCodec, values: &[u32]) -> u64 {
        K::with_probe(codec, values, |probe| self.weight(codec, probe))
    }

    /// See [`GroupCounts::shard_of_values`].
    fn shard_of_values(&self, codec: &KeyCodec, values: &[u32]) -> usize {
        K::with_probe(codec, values, |probe| {
            K::shard(codec, probe, self.shard_bits)
        })
    }

    fn iter(&self) -> impl Iterator<Item = (&K, u64)> {
        self.shards
            .iter()
            .flat_map(|s| s.iter().map(|(k, &w)| (k, w)))
    }
}

#[derive(Clone)]
enum GroupMap {
    Packed(ShardedCounts<u64>),
    Wide(ShardedCounts<Box<[u32]>>),
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
/// (partial) projection, valued by total row weight. Stored sharded by key
/// range (see the module docs); cloning is cheap (`Arc` per shard).
#[derive(Clone)]
pub struct GroupCounts {
    attrs: AttrSet,
    codec: KeyCodec,
    map: GroupMap,
    /// Weight of the all-missing group (empty pattern), if any.
    empty_group_weight: u64,
}

/// Below this many rows per worker, chunked counting's thread spawn and
/// partition cost more than the scan itself. Callers that pick thread
/// counts automatically (the search evaluator, the engine's
/// [`auto_threads`](https://docs.rs/pclabel-engine) policy) divide row
/// count by this before parallelizing; [`GroupCounts::build`] itself
/// honors whatever it is given.
pub const MIN_PARALLEL_ROWS_PER_THREAD: usize = 32_768;

/// Wall-clock and memory accounting for one build, reported by
/// [`GroupCounts::build`] so request traces and the counting
/// microbenchmark can attribute the phases separately.
///
/// `peak_bytes` is an *estimate* of the transient high-water mark of the
/// build's own allocations: the radix-partition side buffer plus the hash
/// maps' table bytes (capacity × entry footprint, plus boxed key heap for
/// wide keys). It deliberately uses the same accounting as
/// [`reference::build_merged`] so the two are comparable.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingProfile {
    /// Phase 1: radix-partitioning rows to shards (key/shard-id side
    /// buffer fill). Zero for serial builds.
    pub partition_secs: f64,
    /// Phase 2: the counting scan itself.
    pub count_secs: f64,
    /// Phase 3: what is left of "merge" — concatenating the workers'
    /// disjoint shard lists (or, in [`reference::build_merged`], the
    /// cross-thread merge of whole partial maps).
    pub assemble_secs: f64,
    /// Estimated peak allocation of the build (see type docs).
    pub peak_bytes: u64,
}

impl CountingProfile {
    /// Total wall-clock seconds across the three phases — what a
    /// request trace attributes to "counting build".
    pub fn total_secs(&self) -> f64 {
        self.partition_secs + self.count_secs + self.assemble_secs
    }
}

/// Per-worker output of a phase-2 counting pass: the final maps of the
/// worker's owned shards (in shard order) plus its empty-group weight.
type ShardParts<K> = Vec<(Vec<FxHashMap<K, u64>>, u64)>;

impl GroupCounts {
    /// Groups `dataset` by `attrs` on `threads` workers; row `r`
    /// contributes `weights[r]` (or 1 when `weights` is `None`). Returns
    /// the counts and their build profile.
    ///
    /// The counts are stored in [`auto_shards`]`(threads)` shards, taken
    /// from the thread count asked for, before it is clamped to the row
    /// count. Groups, weights and the empty-group weight do not depend on
    /// `threads`; only the storage layout does. No row-count heuristic is
    /// applied here — callers that want auto-sizing should go through
    /// `pclabel_engine::parallel`.
    ///
    /// One thread, or an empty `attrs`, runs the serial scan. More threads
    /// run the radix-partitioned build. Phase 1 computes every row's shard
    /// id into a flat one-byte-per-row side buffer, in parallel over row
    /// chunks, and sums a per-shard row histogram on the way. Phase 2
    /// assigns each worker a *disjoint contiguous range of shards* sized
    /// by that histogram ([`balanced_shard_ranges`]), so a skewed top
    /// attribute whose keys crowd into a few shards does not idle most
    /// workers. Every worker scans the side buffer, re-encodes only the
    /// rows whose shard it owns and writes the final per-shard maps
    /// directly. Phase 3 concatenates the workers' shard lists — there is
    /// no cross-thread key merge, and no group is ever held in more than
    /// one map, which is where the peak-memory win over
    /// [`reference::build_merged`] comes from (that strategy duplicates
    /// hot groups once per thread and merges).
    pub fn build(
        dataset: &Dataset,
        weights: Option<&[u64]>,
        attrs: AttrSet,
        threads: usize,
    ) -> (Self, CountingProfile) {
        let codec = KeyCodec::new(dataset, attrs);
        if codec.fits_u64() {
            build_keyed::<u64>(dataset, weights, attrs, codec, threads)
        } else {
            build_keyed::<Box<[u32]>>(dataset, weights, attrs, codec, threads)
        }
    }

    /// Folds rows `rows` of `dataset` into the counts in place, returning
    /// the sorted list of shards the batch touched. Only those shards'
    /// maps are copied (if still `Arc`-shared with an older snapshot) and
    /// updated; every other shard is untouched and stays shared.
    ///
    /// `dataset` must extend the build-time dataset without changing any
    /// covered attribute's dictionary — check with
    /// [`GroupCounts::codec_compatible`] first; appending after a
    /// dictionary grew silently miscounts. `weights` (when given) is
    /// indexed by absolute row id, like the build.
    pub fn append_rows(
        &mut self,
        dataset: &Dataset,
        weights: Option<&[u64]>,
        rows: Range<usize>,
    ) -> Vec<u32> {
        debug_assert!(
            self.codec_compatible(dataset),
            "dictionary grew under codec"
        );
        let mut touched = vec![false; self.n_shards()];
        let (codec, empty) = (&self.codec, &mut self.empty_group_weight);
        with_counts!(&mut self.map, counts => {
            counts.add_rows(codec, dataset, weights, rows, empty, &mut touched)
        });
        touched
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t)
            .map(|(s, _)| s as u32)
            .collect()
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

    /// Number of key-range shards the counts are stored in.
    pub fn n_shards(&self) -> usize {
        with_counts!(&self.map, counts => counts.shards.len())
    }

    /// Entries per shard.
    #[cfg(test)]
    pub(crate) fn shard_sizes(&self) -> Vec<usize> {
        with_counts!(&self.map, counts => counts.shards.iter().map(|s| s.len()).collect())
    }

    /// The shard a group (given as a values slice aligned with
    /// [`GroupCounts::attr_order`]) is stored in. Lets callers keep
    /// per-group caches whose invalidation is shard-local under
    /// [`GroupCounts::append_rows`].
    pub fn shard_of_values(&self, values: &[u32]) -> usize {
        with_counts!(&self.map, counts => counts.shard_of_values(&self.codec, values))
    }

    /// Estimated resident bytes of the shard maps (see
    /// [`CountingProfile::peak_bytes`] for the accounting).
    pub fn map_bytes(&self) -> u64 {
        let arity = self.codec.attrs().len();
        with_counts!(&self.map, counts => counts.map_bytes(arity))
    }

    /// `|P_S|`: the number of distinct non-empty (partial) patterns — the
    /// paper's label size.
    pub fn pattern_count_size(&self) -> u64 {
        with_counts!(&self.map, counts => counts.shards.iter().map(|s| s.len() as u64).sum())
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
        with_counts!(&self.map, counts => counts.weight_of_row(&self.codec, dataset, r))
    }

    /// The group weight for an explicit values slice aligned with
    /// [`GroupCounts::attr_order`] (`MISSING` marks an undefined cell).
    pub fn weight_of_values(&self, values: &[u32]) -> u64 {
        with_counts!(&self.map, counts => counts.weight_of_values(&self.codec, values))
    }

    /// Attribute indices in key order.
    pub fn attr_order(&self) -> &[usize] {
        self.codec.attrs()
    }

    /// Iterates over `(values, weight)` pairs; `values` is aligned with
    /// [`GroupCounts::attr_order`] and may contain `MISSING`. Order is
    /// unspecified (shard-major).
    pub fn iter(&self) -> GroupIter<'_> {
        let codec = &self.codec;
        with_counts!(&self.map, counts => {
            Box::new(counts.iter().map(move |(k, w)| (k.values(codec), w)))
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
    threads: usize,
) -> (GroupCounts, CountingProfile) {
    let n_shards = auto_shards(threads);
    let n = dataset.n_rows();
    let threads = threads.max(1).min(n.max(1));
    let arity = codec.attrs().len();
    let assemble = |counts: ShardedCounts<K>, codec: KeyCodec, empty: u64| GroupCounts {
        attrs,
        codec,
        map: K::into_map(counts),
        empty_group_weight: empty,
    };

    if threads <= 1 || attrs.is_empty() {
        let t0 = Instant::now();
        let mut counts = ShardedCounts::from_maps(vec![FxHashMap::default(); n_shards]);
        let mut empty = 0u64;
        let mut touched = vec![false; n_shards];
        counts.add_rows(&codec, dataset, weights, 0..n, &mut empty, &mut touched);
        let profile = CountingProfile {
            count_secs: t0.elapsed().as_secs_f64(),
            peak_bytes: counts.map_bytes(arity),
            ..CountingProfile::default()
        };
        return (assemble(counts, codec, empty), profile);
    }
    let shard_bits = n_shards.trailing_zeros();
    let chunk = n.div_ceil(threads);
    let workers = threads.min(n_shards);

    // Phase 1: one shard-id byte per row (MAX_SHARDS = 256 fits u8), plus
    // a per-shard row histogram so phase 2 can split shard ownership by
    // measured rows instead of equal-width ranges. Keys are cheap enough
    // to encode twice; a u64 key buffer would be 8× the transient memory
    // and eat the peak-memory win.
    let t0 = Instant::now();
    let mut ids = vec![0u8; n];
    let histogram: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .chunks_mut(chunk)
            .enumerate()
            .map(|(i, slice)| {
                let codec = &codec;
                let start = i * chunk;
                scope.spawn(move || {
                    let mut hist = vec![0u64; n_shards];
                    for (j, slot) in slice.iter_mut().enumerate() {
                        let s = K::row_shard(codec, dataset, start + j, shard_bits);
                        *slot = s as u8;
                        hist[s] += 1;
                    }
                    hist
                })
            })
            .collect();
        let mut total = vec![0u64; n_shards];
        for h in handles {
            let part = h.join().expect("partition worker panicked");
            for (t, v) in total.iter_mut().zip(part) {
                *t += v;
            }
        }
        total
    });
    let ranges = balanced_shard_ranges(&histogram, workers);
    let partition_secs = t0.elapsed().as_secs_f64();

    // Phase 2: disjoint shard ownership; workers re-encode the rows they
    // own and write the final per-shard maps directly. Maps grow
    // organically — a capacity hint sized from rows-per-shard
    // over-allocates badly when groups ≪ rows.
    let t1 = Instant::now();
    let parts: ShardParts<K> = std::thread::scope(|scope| {
        let ids = &ids;
        let codec = &codec;
        let handles: Vec<_> = ranges
            .iter()
            .map(|range| {
                let (lo, hi) = (range.start, range.end);
                scope.spawn(move || {
                    let mut maps: Vec<FxHashMap<K, u64>> =
                        (lo..hi).map(|_| FxHashMap::default()).collect();
                    let mut empty = 0u64;
                    if lo >= hi {
                        return (maps, empty);
                    }
                    for (r, &id) in ids.iter().enumerate() {
                        let s = id as usize;
                        if s < lo || s >= hi {
                            continue;
                        }
                        let w = weights.map_or(1, |w| w[r]);
                        let key = K::of_row(codec, dataset, r);
                        if key.is_all_missing(codec) {
                            empty += w;
                        } else {
                            *maps[s - lo].entry(key).or_insert(0) += w;
                        }
                    }
                    (maps, empty)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("counting worker panicked"))
            .collect()
    });
    let count_secs = t1.elapsed().as_secs_f64();

    // Phase 3: "merge" = concatenation of disjoint shard lists.
    let t2 = Instant::now();
    let mut shard_maps: Vec<FxHashMap<K, u64>> = Vec::with_capacity(n_shards);
    let mut empty = 0u64;
    for (maps, e) in parts {
        shard_maps.extend(maps);
        empty += e;
    }
    let assemble_secs = t2.elapsed().as_secs_f64();
    let counts = ShardedCounts::from_maps(shard_maps);
    let peak_bytes = n as u64 + counts.map_bytes(arity);
    (
        assemble(counts, codec, empty),
        CountingProfile {
            partition_secs,
            count_secs,
            assemble_secs,
            peak_bytes,
        },
    )
}

/// Iterator over a group-by's `(values, weight)` entries.
pub type GroupIter<'a> = Box<dyn Iterator<Item = (Vec<u32>, u64)> + 'a>;

impl pclabel_data::mem::HeapBytes for GroupCounts {
    /// Shard maps (the same per-slot model as
    /// [`CountingProfile::peak_bytes`]) plus the shard handle table (the
    /// per-shard `Arc` pointers) and the codec's per-attribute metadata.
    fn heap_bytes(&self) -> u64 {
        let handles = with_counts!(&self.map, counts => std::mem::size_of_val(&*counts.shards));
        let codec = self.codec.attrs().len()
            * (std::mem::size_of::<usize>() + 2 * std::mem::size_of::<u32>());
        self.map_bytes() + (handles + codec) as u64
    }
}

/// The pre-sharding chunk-and-merge parallel build, retained verbatim as
/// (a) the equivalence oracle the property tests pit the sharded pipeline
/// against and (b) the baseline `microbench_counting` measures the
/// merge-time and peak-memory win over. **No production path calls this**
/// — [`GroupCounts::build`] is mergeless.
pub mod reference {
    use super::*;

    /// A chunk scan's partial result: its group map plus the chunk's
    /// empty-group weight.
    type Partial<K> = (FxHashMap<K, u64>, u64);

    fn scan<K: GroupKey>(
        dataset: &Dataset,
        weights: Option<&[u64]>,
        codec: &KeyCodec,
        range: Range<usize>,
    ) -> Partial<K> {
        let mut m: FxHashMap<K, u64> = fx_map_with_capacity(range.len().min(1 << 16));
        let mut empty_group_weight = 0u64;
        for r in range {
            let w = weights.map_or(1, |w| w[r]);
            let key = K::of_row(codec, dataset, r);
            if key.is_all_missing(codec) {
                empty_group_weight += w;
            } else {
                *m.entry(key).or_insert(0) += w;
            }
        }
        (m, empty_group_weight)
    }

    /// Merges partial maps produced by chunked scans. Addition is
    /// commutative and associative, so any merge order yields the same
    /// totals; merging into the largest partial minimizes rehashing.
    fn merge_partials<K: Hash + Eq>(mut parts: Vec<FxHashMap<K, u64>>) -> FxHashMap<K, u64> {
        let Some(biggest) = parts
            .iter()
            .enumerate()
            .max_by_key(|(_, m)| m.len())
            .map(|(i, _)| i)
        else {
            return FxHashMap::default();
        };
        let mut acc = parts.swap_remove(biggest);
        for part in parts {
            for (k, w) in part {
                *acc.entry(k).or_insert(0) += w;
            }
        }
        acc
    }

    /// The legacy strategy: chunk rows across `threads` workers, each
    /// building a whole partial map (hot groups duplicated once per
    /// thread), then merge the partials on one thread. Returns the counts
    /// (stored single-shard) plus a [`CountingProfile`] whose
    /// `assemble_secs` is the merge time and whose `peak_bytes` accounts
    /// for every partial alive at the merge barrier.
    pub fn build_merged(
        dataset: &Dataset,
        weights: Option<&[u64]>,
        attrs: AttrSet,
        threads: usize,
    ) -> (GroupCounts, CountingProfile) {
        let n = dataset.n_rows();
        let threads = threads.max(1).min(n.max(1));
        if threads <= 1 || attrs.is_empty() {
            return GroupCounts::build(dataset, weights, attrs, 1);
        }
        let codec = KeyCodec::new(dataset, attrs);
        if codec.fits_u64() {
            merged::<u64>(dataset, weights, attrs, codec, threads)
        } else {
            merged::<Box<[u32]>>(dataset, weights, attrs, codec, threads)
        }
    }

    /// [`build_merged`] for one key width, on at least two threads.
    fn merged<K: GroupKey>(
        dataset: &Dataset,
        weights: Option<&[u64]>,
        attrs: AttrSet,
        codec: KeyCodec,
        threads: usize,
    ) -> (GroupCounts, CountingProfile) {
        let n = dataset.n_rows();
        let chunk = n.div_ceil(threads);
        let ranges = (0..threads).map(|t| (t * chunk)..((t + 1) * chunk).min(n));
        let arity = codec.attrs().len();

        let t0 = Instant::now();
        let parts: Vec<Partial<K>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .map(|range| {
                    let codec = &codec;
                    scope.spawn(move || scan(dataset, weights, codec, range))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("counting worker panicked"))
                .collect()
        });
        let count_secs = t0.elapsed().as_secs_f64();
        let empty: u64 = parts.iter().map(|(_, e)| e).sum();
        let partial_bytes: u64 = parts.iter().map(|(m, _)| K::map_bytes(m, arity)).sum();
        let biggest = parts
            .iter()
            .map(|(m, _)| K::map_bytes(m, arity))
            .max()
            .unwrap_or(0);
        let maps = parts.into_iter().map(|(m, _)| m).collect();
        let t1 = Instant::now();
        let merged = merge_partials(maps);
        let assemble_secs = t1.elapsed().as_secs_f64();
        // Peak: every partial alive at the barrier, plus whatever the
        // accumulator grew beyond the biggest partial it started as.
        let peak_bytes = partial_bytes + K::map_bytes(&merged, arity).saturating_sub(biggest);
        let built = GroupCounts {
            attrs,
            codec,
            map: K::into_map(ShardedCounts::from_maps(vec![merged])),
            empty_group_weight: empty,
        };
        (
            built,
            CountingProfile {
                partition_secs: 0.0,
                count_secs,
                assemble_secs,
                peak_bytes,
            },
        )
    }
}

/// Convenience: the paper's `labelSize(S, D)` — the number of distinct
/// non-empty patterns over `attrs` present in `dataset`.
pub fn label_size(dataset: &Dataset, attrs: AttrSet) -> u64 {
    GroupCounts::build(dataset, None, attrs, 1)
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
/// instead, with one fused pass: greedy and naive through
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

    /// The counts of a `threads`-worker build.
    fn counts(d: &Dataset, weights: Option<&[u64]>, attrs: AttrSet, threads: usize) -> GroupCounts {
        GroupCounts::build(d, weights, attrs, threads).0
    }

    #[test]
    fn example_2_10_group_counts() {
        // L_{age group, marital status}: PC = {(under20,single):6,
        // (20-39,married):6, (20-39,divorced):6}.
        let d = figure2_sample();
        let attrs = AttrSet::from_indices([1, 3]);
        let g = counts(&d, None, attrs, 1);
        assert_eq!(g.pattern_count_size(), 3);
        let mut entries: Vec<(Vec<u32>, u64)> = g.iter().collect();
        entries.sort();
        assert!(entries.iter().all(|&(_, w)| w == 6));
    }

    #[test]
    fn example_2_10_second_label() {
        // L_{gender, age group}: 4 patterns with counts 3,3,6,6.
        let d = figure2_sample();
        let g = counts(&d, None, AttrSet::from_indices([0, 1]), 1);
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
            let g = counts(&d, None, attrs, 1);
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
        let g = counts(&d, None, AttrSet::EMPTY, 1);
        assert_eq!(g.pattern_count_size(), 0);
        assert_eq!(g.empty_group_weight(), 18);
    }

    #[test]
    fn weights_flow_through() {
        let d = figure2_sample();
        let (distinct, w) = d.compress();
        let attrs = AttrSet::from_indices([1, 3]);
        let raw = counts(&d, None, attrs, 1);
        let compressed = counts(&distinct, Some(&w), attrs, 1);
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
        let g = counts(&d, None, AttrSet::from_indices([0, 1]), 1);
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
        let g = counts(&d, None, attrs, 1);
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
    fn sharded_builds_match_serial_across_shard_counts() {
        let d = figure2_sample();
        for attrs in [
            AttrSet::EMPTY,
            AttrSet::from_indices([0]),
            AttrSet::from_indices([1, 3]),
            AttrSet::full(4),
        ] {
            let serial = counts(&d, None, attrs, 1);
            // 1 to 256 shards.
            for threads in [1usize, 2, 3, 4, 7, 16, 64] {
                let built = counts(&d, None, attrs, threads);
                assert_same_groups(&serial, &built);
                assert_eq!(built.n_shards(), auto_shards(threads));
            }
            let (merged, _) = reference::build_merged(&d, None, attrs, 3);
            assert_same_groups(&serial, &merged);
        }
    }

    #[test]
    fn shard_routing_is_consistent_between_build_and_lookup() {
        let d = figure2_sample();
        let attrs = AttrSet::from_indices([0, 1, 3]);
        let g = counts(&d, None, attrs, 2);
        assert_eq!(g.n_shards(), 8);
        // Every stored group's values route to a shard that holds it.
        let sizes = g.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>() as u64, g.pattern_count_size());
        for (values, w) in g.iter() {
            assert_eq!(g.weight_of_values(&values), w);
            assert!(g.shard_of_values(&values) < g.n_shards());
        }
    }

    #[test]
    fn append_rows_equals_full_rebuild() {
        let d = figure2_sample();
        for attrs in [
            AttrSet::EMPTY,
            AttrSet::from_indices([1, 3]),
            AttrSet::full(4),
        ] {
            for threads in [1usize, 2] {
                for split in [1usize, 7, 17] {
                    let prefix = d.take_rows(&(0..split).collect::<Vec<_>>());
                    let mut incremental = counts(&prefix, None, attrs, threads);
                    assert!(incremental.codec_compatible(&d));
                    let touched = incremental.append_rows(&d, None, split..d.n_rows());
                    let full = counts(&d, None, attrs, threads);
                    assert_same_groups(&full, &incremental);
                    // Touched shards are valid ids; with non-empty attrs
                    // and rows appended, something must have been touched
                    // unless every appended row was all-missing.
                    for &s in &touched {
                        assert!((s as usize) < incremental.n_shards());
                    }
                    if !attrs.is_empty() {
                        assert!(!touched.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn append_rows_shares_untouched_shards() {
        // Append one row; most shards of a 64-shard map must stay
        // Arc-shared with the pre-append snapshot (mergeless storage).
        let d = figure2_sample();
        let attrs = AttrSet::full(4);
        let base = counts(&d, None, attrs, 16);
        let mut appended = base.clone();
        let touched = appended.append_rows(&d, None, 0..1);
        assert_eq!(touched.len(), 1);
        let (GroupMap::Packed(old), GroupMap::Packed(new)) = (&base.map, &appended.map) else {
            panic!("figure2 packs");
        };
        let shared = old
            .shards
            .iter()
            .zip(new.shards.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared, old.shards.len() - 1);
    }

    #[test]
    fn parallel_build_matches_serial_with_missing_and_weights() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row_opt(&[Some("x"), Some("1")]).unwrap();
        b.push_row_opt(&[Some("x"), None::<&str>]).unwrap();
        b.push_row_opt(&[None::<&str>, None::<&str>]).unwrap();
        b.push_row_opt(&[Some("y"), Some("1")]).unwrap();
        b.push_row_opt(&[None::<&str>, None::<&str>]).unwrap();
        let d = b.finish();
        let weights = [3u64, 1, 5, 2, 7];
        let attrs = AttrSet::from_indices([0, 1]);
        let serial = counts(&d, Some(&weights), attrs, 1);
        let parallel = counts(&d, Some(&weights), attrs, 3);
        assert_same_groups(&serial, &parallel);
        // All-missing rows land in the empty group across chunks: 5 + 7.
        assert_eq!(parallel.empty_group_weight(), 12);
    }

    #[test]
    fn parallel_build_matches_serial_on_wide_keys() {
        let d = wide_dataset();
        let attrs = AttrSet::full(9);
        assert!(!KeyCodec::new(&d, attrs).fits_u64());
        let serial = counts(&d, None, attrs, 1);
        let parallel = counts(&d, None, attrs, 4);
        assert_same_groups(&serial, &parallel);
        // 8, 16 and 64 shards.
        for threads in [2usize, 4, 16] {
            assert_same_groups(&serial, &counts(&d, None, attrs, threads));
        }
        let (merged, profile) = reference::build_merged(&d, None, attrs, 4);
        assert_same_groups(&serial, &merged);
        assert!(profile.peak_bytes > 0);
        // Wide-key appends rebuild the same totals too.
        let prefix = d.take_rows(&(0..100).collect::<Vec<_>>());
        let mut incremental = counts(&prefix, None, attrs, 2);
        incremental.append_rows(&d, None, 100..d.n_rows());
        assert_same_groups(&serial, &incremental);
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
        let g = counts(&d, None, attrs, 1);
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
        let g = counts(&d, None, attrs, 1);
        assert_eq!(g.pattern_count_size(), 2);
        // Boundary keys must shard consistently at every shard count: the
        // top-bits routing shifts by 64 - shard_bits here.
        let serial = counts(&d, None, attrs, 1);
        // 8, 16, 64 and 256 shards.
        for threads in [2usize, 4, 16, 64] {
            let sharded = counts(&d, None, attrs, threads);
            assert_eq!(sharded.n_shards(), auto_shards(threads));
            assert_same_groups(&serial, &sharded);
            for r in 0..d.n_rows() {
                assert_eq!(sharded.weight_of_row(&d, r), 1);
            }
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
        let g = counts(&d, None, AttrSet::full(9), 1);
        assert_eq!(g.pattern_count_size(), 1);
        assert_eq!(g.weight_of_row(&d, 0), 1);
    }

    #[test]
    fn codec_compatibility_detects_grown_dictionaries() {
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row(&["x", "1"]).unwrap();
        let d = b.finish();
        let g = counts(&d, None, AttrSet::from_indices([0, 1]), 1);
        assert!(g.codec_compatible(&d));
        // Same schema plus one interned value on a covered attribute.
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row(&["x", "1"]).unwrap();
        b.push_row(&["y", "1"]).unwrap();
        let grown = b.finish();
        assert!(!g.codec_compatible(&grown));
    }

    /// Ranges must tile `0..counts.len()` exactly, in order.
    fn assert_tiling(ranges: &[Range<usize>], n: usize, workers: usize) {
        assert_eq!(ranges.len(), workers);
        let mut cursor = 0usize;
        for r in ranges {
            assert_eq!(r.start, cursor);
            assert!(r.end >= r.start);
            cursor = r.end;
        }
        assert_eq!(cursor, n);
    }

    #[test]
    fn balanced_ranges_split_uniform_counts_evenly() {
        let counts = vec![10u64; 8];
        let ranges = balanced_shard_ranges(&counts, 4);
        assert_tiling(&ranges, 8, 4);
        for r in &ranges {
            assert_eq!(r.len(), 2);
        }
    }

    #[test]
    fn balanced_ranges_follow_skew() {
        // All rows crowd the first two shards (a low-cardinality top
        // attribute): equal-width ranges would idle workers 2 and 3; the
        // size-aware split gives each heavy shard its own worker.
        let counts = [500u64, 500, 0, 0, 0, 0, 0, 0];
        let ranges = balanced_shard_ranges(&counts, 4);
        assert_tiling(&ranges, 8, 4);
        let loads: Vec<u64> = ranges
            .iter()
            .map(|r| counts[r.clone()].iter().sum())
            .collect();
        // No worker may own both heavy shards (equal-width ranges gave
        // worker 0 the full 1000); the maximum load is the optimum 500.
        assert_eq!(loads.iter().max(), Some(&500));
        assert_eq!(loads.iter().filter(|&&l| l == 500).count(), 2);
    }

    #[test]
    fn balanced_ranges_edge_cases() {
        // Zero rows: everything collapses into (empty) ranges + the tail.
        let ranges = balanced_shard_ranges(&[0u64; 4], 3);
        assert_tiling(&ranges, 4, 3);
        // One worker takes it all.
        let ranges = balanced_shard_ranges(&[3, 1, 4], 1);
        assert_eq!(ranges, vec![0..3]);
        // More workers than shards still tiles.
        let ranges = balanced_shard_ranges(&[7, 9], 5);
        assert_tiling(&ranges, 2, 5);
        let total: u64 = ranges
            .iter()
            .flat_map(|r| [7u64, 9][r.clone()].iter())
            .sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn skewed_top_attribute_builds_identically() {
        // Last attribute (top key bits) has cardinality 1: every key
        // lands in the low shards. The balanced assignment must not
        // change the result vs serial.
        let mut b = DatasetBuilder::new(["wide", "narrow"]);
        for r in 0..4000 {
            b.push_row(&[format!("v{}", r % 512), "only".to_string()])
                .unwrap();
        }
        let d = b.finish();
        let attrs = AttrSet::from_indices([0, 1]);
        let serial = counts(&d, None, attrs, 1);
        // 8 to 256 shards.
        for threads in [2usize, 4, 8, 16, 64] {
            assert_same_groups(&serial, &counts(&d, None, attrs, threads));
        }
    }

    #[test]
    fn auto_shards_policy() {
        assert_eq!(auto_shards(0), 1);
        assert_eq!(auto_shards(1), 1);
        assert_eq!(auto_shards(2), 8);
        assert_eq!(auto_shards(4), 16);
        assert_eq!(auto_shards(1000), MAX_SHARDS);
        for t in 0..100 {
            assert!(auto_shards(t).is_power_of_two());
            assert!(auto_shards(t) <= MAX_SHARDS);
        }
    }

    #[test]
    fn profiled_build_reports_phases() {
        let d = figure2_sample();
        let attrs = AttrSet::from_indices([1, 3]);
        let (g, profile) = GroupCounts::build(&d, None, attrs, 2);
        assert_eq!(g.pattern_count_size(), 3);
        assert!(profile.peak_bytes > 0);
        assert!(profile.partition_secs >= 0.0 && profile.count_secs >= 0.0);
        let (_, serial_profile) = GroupCounts::build(&d, None, attrs, 1);
        assert_eq!(serial_profile.partition_secs, 0.0);
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
