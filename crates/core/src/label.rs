//! Labels and the pattern-count estimation function (paper §II).
//!
//! A label `L_S(D)` (Def. 2.9) stores:
//!
//! * `VC` — the count of every individual attribute value in `D`
//!   ([`ValueCounts`]), shared by all labels of the same dataset; and
//! * `PC` — the count of every pattern over the chosen subset `S` that
//!   occurs in `D` ([`crate::counting::GroupCounts`]).
//!
//! Given a pattern `p`, the estimation function (Def. 2.11) anchors on the
//! stored count of `p`'s projection onto `S` and multiplies independence
//! factors from `VC` for the attributes of `p` outside `S`:
//!
//! ```text
//! Est(p, L_S) = c_D(p|S) · Π_{A_i ∈ Attr(p)\S}  c_D(A_i = p.A_i) / Σ_a c_D(A_i = a)
//! ```

use std::sync::{Arc, Mutex};

use pclabel_data::dataset::{Dataset, MISSING};
use pclabel_data::schema::Schema;

use crate::attrset::AttrSet;
use crate::counting::{CountingProfile, GroupCounts};
use crate::hash::FxHashMap;
use crate::pattern::Pattern;

/// The `VC` component: per-attribute value counts and active-domain totals.
#[derive(Debug, Clone)]
pub struct ValueCounts {
    counts: Vec<Vec<u64>>,
    totals: Vec<u64>,
}

impl ValueCounts {
    /// Computes value counts over `dataset` (optionally weighted, for use
    /// with [`Dataset::compress`] output).
    pub fn compute(dataset: &Dataset, weights: Option<&[u64]>) -> Self {
        let counts = dataset.weighted_value_counts(weights);
        let totals = counts.iter().map(|c| c.iter().sum()).collect();
        Self { counts, totals }
    }

    /// `c_D({A_attr = value})`; zero for out-of-range ids or `MISSING`.
    #[inline]
    pub fn count(&self, attr: usize, value: u32) -> u64 {
        if value == MISSING {
            return 0;
        }
        self.counts
            .get(attr)
            .and_then(|c| c.get(value as usize))
            .copied()
            .unwrap_or(0)
    }

    /// `Σ_{a ∈ Dom(A_attr)} c_D({A_attr = a})` — the estimation
    /// denominator. Equals `|D|` when the attribute has no missing cells.
    #[inline]
    pub fn total(&self, attr: usize) -> u64 {
        self.totals.get(attr).copied().unwrap_or(0)
    }

    /// The independence factor `count / total`, or 0 when the attribute
    /// never takes a value.
    #[inline]
    pub fn fraction(&self, attr: usize, value: u32) -> f64 {
        let t = self.total(attr);
        if t == 0 {
            0.0
        } else {
            self.count(attr, value) as f64 / t as f64
        }
    }

    /// Folds rows `rows` of `dataset` into the counts in place (the `VC`
    /// half of an incremental label append). Dictionaries only ever
    /// append, so values interned after this `VC` was computed simply
    /// extend each per-attribute table — dictionary growth is fine here
    /// (unlike the packed `PC` keys, whose layout it changes).
    pub fn add_rows(&mut self, dataset: &Dataset, rows: std::ops::Range<usize>) {
        for attr in 0..self.counts.len() {
            let col = dataset.column(attr);
            let counts = &mut self.counts[attr];
            let card = dataset.schema().attr(attr).map_or(0, |a| a.cardinality());
            if counts.len() < card {
                counts.resize(card, 0);
            }
            let mut added = 0u64;
            for &v in &col[rows.clone()] {
                if v != MISSING {
                    counts[v as usize] += 1;
                    added += 1;
                }
            }
            self.totals[attr] += added;
        }
    }

    /// `|VC|`: the number of stored (attribute, value) entries with a
    /// positive count.
    pub fn size(&self) -> u64 {
        self.counts
            .iter()
            .map(|c| c.iter().filter(|&&x| x > 0).count() as u64)
            .sum()
    }

    /// Number of attributes covered.
    pub fn n_attrs(&self) -> usize {
        self.counts.len()
    }
}

/// A pattern count-based label `L_S(D)` (paper Definition 2.9).
pub struct Label {
    dataset_name: Box<str>,
    schema: Arc<Schema>,
    attrs: AttrSet,
    pc: GroupCounts,
    vc: Arc<ValueCounts>,
    n_rows: u64,
    /// Lazily built marginal tables for projections `K ⊂ S`, keyed by the
    /// projection attribute set. Values are keyed by the `K`-aligned value
    /// ids.
    marginals: Mutex<MarginalCache>,
}

/// Cache of per-projection marginal tables (see [`Label::count_of_projection`]).
type MarginalCache = FxHashMap<AttrSet, Arc<FxHashMap<Box<[u32]>, u64>>>;

impl Label {
    /// Single construction path: the builders only vary how the `PC`
    /// group map and the `VC` are obtained.
    fn assemble(
        dataset: &Dataset,
        weights: Option<&[u64]>,
        pc: GroupCounts,
        vc: Arc<ValueCounts>,
    ) -> Self {
        let n_rows = match weights {
            Some(w) => w.iter().sum(),
            None => dataset.n_rows() as u64,
        };
        Self {
            dataset_name: dataset.name().into(),
            schema: dataset.schema_arc(),
            attrs: pc.attrs(),
            pc,
            vc,
            n_rows,
            marginals: Mutex::new(FxHashMap::default()),
        }
    }

    /// Builds `L_S(D)` directly from a dataset.
    pub fn build(dataset: &Dataset, attrs: AttrSet) -> Self {
        Self::build_profiled(dataset, attrs).0
    }

    /// [`Label::build`], additionally reporting the counting profile so
    /// the serving layer can trace builds per request. The `VC`
    /// computation and final assembly fold into `assemble_secs`.
    pub fn build_profiled(dataset: &Dataset, attrs: AttrSet) -> (Self, CountingProfile) {
        let (pc, mut profile) = GroupCounts::build(dataset, None, attrs);
        let t0 = std::time::Instant::now();
        let vc = Arc::new(ValueCounts::compute(dataset, None));
        let label = Self::assemble(dataset, None, pc, vc);
        profile.assemble_secs += t0.elapsed().as_secs_f64();
        (label, profile)
    }

    /// [`Label::build`]; `threads` is ignored. Kept until ROADMAP item 1
    /// ports the benchmark, which still calls it.
    pub fn build_parallel(dataset: &Dataset, attrs: AttrSet, _threads: usize) -> Self {
        Self::build(dataset, attrs)
    }

    /// [`Label::build_profiled`]; `threads` is ignored. Kept until
    /// ROADMAP item 1 ports the benchmark, which still calls it.
    pub fn build_parallel_profiled(
        dataset: &Dataset,
        attrs: AttrSet,
        _threads: usize,
    ) -> (Self, CountingProfile) {
        Self::build_profiled(dataset, attrs)
    }

    /// Crate-internal: builds serially from a (possibly compressed)
    /// dataset with optional row weights and a pre-computed `VC` (the
    /// search reuses one `VC` across thousands of candidate labels).
    pub(crate) fn from_parts(
        dataset: &Dataset,
        weights: Option<&[u64]>,
        attrs: AttrSet,
        vc: Arc<ValueCounts>,
    ) -> Self {
        let (pc, _) = GroupCounts::build(dataset, weights, attrs);
        Self::assemble(dataset, weights, pc, vc)
    }

    /// Incremental append: a new label over `dataset` (which must extend
    /// this label's dataset by the rows `appended`, without growing any
    /// dictionary of the subset `S` — check [`Label::can_append`]
    /// first). The new label's `PC` starts as a cheap `Arc` clone of this
    /// one's and is copied once before the new rows are folded in, so
    /// this label keeps answering as before. Returns the new label and
    /// the update's profile: `count_secs` times the whole update, and the
    /// other fields are 0.
    ///
    /// The result is identical to `Label::build(dataset, attrs)` — the
    /// equivalence the engine's append tests pin down. Only unweighted
    /// labels support appends (weighted builds come from compressed
    /// tables, whose row identity an append would not preserve).
    pub fn with_appended(
        &self,
        dataset: &Dataset,
        appended: std::ops::Range<usize>,
    ) -> (Label, CountingProfile) {
        debug_assert!(self.can_append(dataset));
        let t0 = std::time::Instant::now();
        let added = appended.len() as u64;
        let mut pc = self.pc.clone();
        pc.append_rows(dataset, None, appended.clone());
        let mut vc = (*self.vc).clone();
        vc.add_rows(dataset, appended);
        let label = Label {
            dataset_name: self.dataset_name.clone(),
            schema: dataset.schema_arc(),
            attrs: self.attrs,
            pc,
            vc: Arc::new(vc),
            n_rows: self.n_rows + added,
            // The marginal tables are stale; rebuild them lazily.
            marginals: Mutex::new(FxHashMap::default()),
        };
        let profile = CountingProfile {
            count_secs: t0.elapsed().as_secs_f64(),
            ..CountingProfile::default()
        };
        (label, profile)
    }

    /// Whether `dataset` can be appended onto this label incrementally:
    /// every attribute the `PC` covers (the subset `S`) must have the
    /// cardinality seen at build time — a grown dictionary changes the
    /// packed-key layout. Growth on attributes *outside* `S` is fine:
    /// the `VC` table extends in place ([`ValueCounts::add_rows`]).
    pub fn can_append(&self, dataset: &Dataset) -> bool {
        self.pc.codec_compatible(dataset)
    }

    /// Name of the dataset the label was built from.
    pub fn dataset_name(&self) -> &str {
        &self.dataset_name
    }

    /// The subset `S` the label is defined over.
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Schema handle (for rendering).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// `|D|`.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// `|PC| = |P_S|` — the label size the paper's bound `B_s` constrains
    /// (footnote 1 of §IV-B).
    pub fn pattern_count_size(&self) -> u64 {
        self.pc.pattern_count_size()
    }

    /// `|VC|` — fixed for the dataset, identical across labels.
    pub fn value_count_size(&self) -> u64 {
        self.vc.size()
    }

    /// The shared `VC` component.
    pub fn value_counts(&self) -> &ValueCounts {
        &self.vc
    }

    /// Decodes the stored `PC` entries as `(pattern, c_D(pattern))` pairs.
    ///
    /// For fully-defined data each stored group *is* a pattern over `S` and
    /// the group weight is its count. With missing values a stored group is
    /// a partial pattern whose true count is the marginal over all finer
    /// groups; this method reports the true counts in both cases.
    pub fn pc_entries(&self) -> Vec<(Pattern, u64)> {
        let order = self.pc.attr_order();
        self.pc
            .iter()
            .map(|(values, _)| {
                let pattern = Pattern::from_terms(
                    order
                        .iter()
                        .zip(&values)
                        .filter(|&(_, &v)| v != MISSING)
                        .map(|(&a, &v)| (a, v)),
                );
                let count = self.count_of_projection(&pattern);
                (pattern, count)
            })
            .collect()
    }

    /// `c_D(q)` for a pattern `q` with `Attr(q) ⊆ S`, answered from the
    /// stored `PC` alone.
    ///
    /// When `Attr(q) = S` (and the data had no missing cells on `S`) this
    /// is a direct lookup; otherwise the marginal over the stored partition
    /// is taken, which is exact because the stored groups partition the
    /// rows by their projection onto `S`.
    pub fn count_of_projection(&self, q: &Pattern) -> u64 {
        let qattrs = q.attrs();
        debug_assert!(
            qattrs.is_subset_of(self.attrs),
            "projection {qattrs} not within label attrs {}",
            self.attrs
        );
        if qattrs.is_empty() {
            return self.n_rows;
        }
        let order = self.pc.attr_order();
        if qattrs == self.attrs {
            // Fast path: exact group lookup. Rows that are missing any
            // attribute of S cannot satisfy q, and they live in different
            // groups, so the exact-key weight is precisely c_D(q).
            let values: Vec<u32> = order
                .iter()
                .map(|&a| q.value_of(a).unwrap_or(MISSING))
                .collect();
            debug_assert!(values.iter().all(|&v| v != MISSING));
            return self.pc.weight_of_values(&values);
        }
        // Marginal path: sum group weights that agree with q on Attr(q).
        let marginal = self.marginal(qattrs);
        let key: Box<[u32]> = order
            .iter()
            .filter(|&&a| qattrs.contains(a))
            .map(|&a| q.value_of(a).expect("attr in Attr(q)"))
            .collect();
        marginal.get(&key).copied().unwrap_or(0)
    }

    /// The `PC` marginal on `k` ([`GroupCounts::marginal`]), built on
    /// first use and cached per subset.
    fn marginal(&self, k: AttrSet) -> Arc<FxHashMap<Box<[u32]>, u64>> {
        if let Some(m) = self.marginals.lock().expect("marginal cache lock").get(&k) {
            return Arc::clone(m);
        }
        let arc = Arc::new(self.pc.marginal(k));
        self.marginals
            .lock()
            .expect("marginal cache lock")
            .insert(k, Arc::clone(&arc));
        arc
    }

    /// The estimation function `Est(p, L_S)` (paper Definition 2.11).
    pub fn estimate(&self, p: &Pattern) -> f64 {
        let projection = p.restrict(self.attrs);
        let base = self.count_of_projection(&projection) as f64;
        if base == 0.0 {
            return 0.0;
        }
        let outside = p.attrs().difference(self.attrs);
        let mut est = base;
        for (attr, value) in p.terms() {
            if outside.contains(attr) {
                est *= self.vc.fraction(attr, value);
            }
        }
        est
    }

    /// Heap bytes of the `PC` component (its group map and codec).
    pub fn pc_heap_bytes(&self) -> u64 {
        use pclabel_data::mem::HeapBytes;
        self.pc.heap_bytes()
    }

    /// Heap bytes of the `VC` component.
    pub fn vc_heap_bytes(&self) -> u64 {
        use pclabel_data::mem::HeapBytes;
        self.vc.heap_bytes()
    }

    /// Heap bytes of the lazily-built marginal tables currently cached.
    pub fn marginal_heap_bytes(&self) -> u64 {
        let cache = self.marginals.lock().expect("marginal cache lock");
        let outer = (cache.capacity()
            * (std::mem::size_of::<AttrSet>()
                + std::mem::size_of::<Arc<FxHashMap<Box<[u32]>, u64>>>()
                + 1)) as u64;
        let inner: u64 = cache
            .values()
            .map(|m| {
                // Same model as the wide group maps: fat key pointer +
                // weight + control byte per slot, plus the boxed key
                // heap actually allocated.
                m.capacity() as u64 * 25 + m.keys().map(|k| 16 + 4 * k.len() as u64).sum::<u64>()
            })
            .sum();
        outer + inner
    }
}

impl pclabel_data::mem::HeapBytes for ValueCounts {
    fn heap_bytes(&self) -> u64 {
        let tables: u64 = self
            .counts
            .iter()
            .map(|c| (c.capacity() * std::mem::size_of::<u64>()) as u64)
            .sum();
        tables
            + ((self.counts.capacity() * std::mem::size_of::<Vec<u64>>())
                + self.totals.capacity() * std::mem::size_of::<u64>()) as u64
    }
}

impl pclabel_data::mem::HeapBytes for Label {
    /// `PC` + `VC` + cached marginal tables + the dataset name. The
    /// schema is *not* counted: the label shares it with its dataset
    /// via `Arc`, and the dataset is its primary owner.
    fn heap_bytes(&self) -> u64 {
        self.pc_heap_bytes()
            + self.vc_heap_bytes()
            + self.marginal_heap_bytes()
            + self.dataset_name.len() as u64
    }
}

impl std::fmt::Debug for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Label")
            .field("dataset", &self.dataset_name)
            .field("attrs", &self.attrs.to_vec())
            .field("pc_size", &self.pattern_count_size())
            .field("vc_size", &self.value_count_size())
            .field("n_rows", &self.n_rows)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pclabel_data::dataset::DatasetBuilder;
    use pclabel_data::generate::{binary_cube, binary_cube_correlated, figure2_sample};

    fn fig2_label(attr_names: &[&str]) -> (Dataset, Label) {
        let d = figure2_sample();
        let attrs =
            AttrSet::from_indices(attr_names.iter().map(|n| d.schema().index_of(n).unwrap()));
        let label = Label::build(&d, attrs);
        (d, label)
    }

    #[test]
    fn heap_bytes_cross_check_with_counting_profile() {
        use pclabel_data::mem::HeapBytes;
        let d = figure2_sample();
        let (label, profile) = Label::build_profiled(&d, AttrSet::from_indices([1, 3]));
        assert!(label.pc_heap_bytes() > 0);
        assert!(label.vc_heap_bytes() > 0);
        // The build-time peak models the group map with the same
        // per-slot constants, so the retained PC map bytes can never
        // exceed it.
        assert!(profile.peak_bytes > 0);
        assert!(
            label.pc.map_bytes() <= profile.peak_bytes,
            "retained PC ({}) exceeds the build peak ({})",
            label.pc.map_bytes(),
            profile.peak_bytes
        );
        // The label total covers its parts and omits the shared schema.
        assert!(
            label.heap_bytes()
                >= label.pc_heap_bytes() + label.vc_heap_bytes() + label.marginal_heap_bytes()
        );
        // Touching a projection materializes a marginal table, which
        // the accounting must see.
        assert_eq!(label.marginal_heap_bytes(), 0);
        let p = Pattern::parse(&d, &[("age group", "20-39")]).unwrap();
        let _ = label.estimate(&p);
        assert!(label.marginal_heap_bytes() > 0);
    }

    #[test]
    fn example_2_12_estimate_with_age_marital_label() {
        // Est(p, l) with l = L_{age, marital}:
        // p = {gender=female, age=20-39, marital=married} → 6 · 9/18 = 3.
        let (d, l) = fig2_label(&["age group", "marital status"]);
        let p = Pattern::parse(
            &d,
            &[
                ("gender", "Female"),
                ("age group", "20-39"),
                ("marital status", "married"),
            ],
        )
        .unwrap();
        assert_eq!(l.estimate(&p), 3.0);
    }

    #[test]
    fn example_2_12_estimate_with_gender_age_label() {
        // l' = L_{gender, age}: Est(p, l') = 6 · 6/18 = 2.
        let (d, l) = fig2_label(&["gender", "age group"]);
        let p = Pattern::parse(
            &d,
            &[
                ("gender", "Female"),
                ("age group", "20-39"),
                ("marital status", "married"),
            ],
        )
        .unwrap();
        assert_eq!(l.estimate(&p), 2.0);
    }

    #[test]
    fn example_2_14_errors() {
        // True count is 3, so Err(l, p) = 0 and Err(l', p) = 1.
        let (d, l) = fig2_label(&["age group", "marital status"]);
        let (_, l2) = fig2_label(&["gender", "age group"]);
        let p = Pattern::parse(
            &d,
            &[
                ("gender", "Female"),
                ("age group", "20-39"),
                ("marital status", "married"),
            ],
        )
        .unwrap();
        assert_eq!(p.count_in(&d), 3);
        assert_eq!((p.count_in(&d) as f64 - l.estimate(&p)).abs(), 0.0);
        assert_eq!((p.count_in(&d) as f64 - l2.estimate(&p)).abs(), 1.0);
    }

    #[test]
    fn example_2_6_independence_estimate() {
        // Binary cube, label over ∅-like minimal subset: estimate of
        // {A1=0, A2=0, A3=0} from value counts alone is 2^{n-3}.
        let d = binary_cube(6).unwrap();
        let l = Label::build(&d, AttrSet::EMPTY);
        let p = Pattern::from_terms([(0, 0), (1, 0), (2, 0)]);
        assert_eq!(l.estimate(&p), 2f64.powi(6 - 3));
    }

    #[test]
    fn example_2_8_correlated_cube() {
        // With A1 = A2, the label over {A1, A2} gives the exact count
        // 2^{n-2} for {A1=0, A2=0, A3=0}.
        let n = 6;
        let d = binary_cube_correlated(n).unwrap();
        let p = Pattern::from_terms([(0, 0), (1, 0), (2, 0)]);
        assert_eq!(p.count_in(&d), 1 << (n - 2));

        let vc_only = Label::build(&d, AttrSet::EMPTY);
        assert_eq!(vc_only.estimate(&p), 2f64.powi(n as i32 - 3)); // wrong by 2×

        let l = Label::build(&d, AttrSet::from_indices([0, 1]));
        assert_eq!(l.estimate(&p), 2f64.powi(n as i32 - 2)); // exact
    }

    #[test]
    fn exact_when_pattern_within_s() {
        // §III-A: Attr(p) ⊆ S ⇒ exact estimation.
        let (d, l) = fig2_label(&["age group", "marital status"]);
        for r in 0..d.n_rows() {
            let p = Pattern::from_row(&d, r).restrict(l.attrs());
            assert_eq!(l.estimate(&p), p.count_in(&d) as f64);
        }
    }

    #[test]
    fn projection_count_marginalizes() {
        // Label over {age, marital}; q = {age=20-39} must marginalize to 12.
        let (d, l) = fig2_label(&["age group", "marital status"]);
        let q = Pattern::parse(&d, &[("age group", "20-39")]).unwrap();
        assert_eq!(l.count_of_projection(&q), 12);
        assert_eq!(l.count_of_projection(&Pattern::empty()), 18);
    }

    #[test]
    fn estimate_of_unseen_pattern_is_zero_based() {
        // A pattern whose projection never occurs estimates to 0.
        let (d, l) = fig2_label(&["age group", "marital status"]);
        let p = Pattern::parse(
            &d,
            &[("age group", "under 20"), ("marital status", "married")],
        )
        .unwrap();
        assert_eq!(p.count_in(&d), 0);
        assert_eq!(l.estimate(&p), 0.0);
    }

    #[test]
    fn vc_sizes_and_fractions() {
        let (_, l) = fig2_label(&["gender"]);
        let vc = l.value_counts();
        // Figure 2 active domains: 2 + 2 + 3 + 3 = 10 VC entries.
        assert_eq!(l.value_count_size(), 10);
        assert_eq!(vc.total(0), 18);
        assert_eq!(vc.fraction(0, 0), 0.5);
        assert_eq!(vc.count(0, MISSING), 0);
        assert_eq!(vc.fraction(99, 0), 0.0);
    }

    #[test]
    fn pc_entries_reports_true_counts() {
        let (d, l) = fig2_label(&["age group", "marital status"]);
        let mut entries = l.pc_entries();
        entries.sort_by_key(|(p, _)| format!("{p}"));
        assert_eq!(entries.len(), 3);
        for (p, c) in &entries {
            assert_eq!(*c, p.count_in(&d), "{}", p.display_with(&d));
            assert_eq!(*c, 6);
        }
    }

    #[test]
    fn missing_data_semantics() {
        // Rows: (x,1) ×3, (x,⊥) ×2, (y,1) ×1, (⊥,⊥) ×1.
        let mut b = DatasetBuilder::new(["a", "b"]);
        for _ in 0..3 {
            b.push_row_opt(&[Some("x"), Some("1")]).unwrap();
        }
        for _ in 0..2 {
            b.push_row_opt(&[Some("x"), None::<&str>]).unwrap();
        }
        b.push_row_opt(&[Some("y"), Some("1")]).unwrap();
        b.push_row_opt(&[None::<&str>, None::<&str>]).unwrap();
        let d = b.finish();
        let l = Label::build(&d, AttrSet::from_indices([0, 1]));
        // P_S holds 3 non-empty projections: (x,1), (x,⊥)→{a=x}, (y,1).
        assert_eq!(l.pattern_count_size(), 3);
        // Full pattern lookup.
        let p_x1 = Pattern::from_terms([(0, 0), (1, 0)]);
        assert_eq!(l.count_of_projection(&p_x1), 3);
        // Partial pattern {a=x}: marginal over (x,1) and (x,⊥) = 5.
        let p_x = Pattern::from_terms([(0, 0)]);
        assert_eq!(l.count_of_projection(&p_x), 5);
        assert_eq!(p_x.count_in(&d), 5);
        // VC denominators exclude missing: total(b) = 4, total(a) = 6.
        assert_eq!(l.value_counts().total(0), 6);
        assert_eq!(l.value_counts().total(1), 4);
    }

    #[test]
    fn appended_label_equals_full_rebuild() {
        let d = figure2_sample();
        let attrs = AttrSet::from_indices([1, 3]);
        let prefix = d.take_rows(&(0..10).collect::<Vec<_>>());
        let base = Label::build(&prefix, attrs);
        assert!(base.can_append(&d));
        // Read a marginal first, so the base label has cached tables that
        // must not leak into its successor.
        let age = Pattern::parse(&d, &[("age group", "20-39")]).unwrap();
        let before = base.count_of_projection(&age);
        let (appended, profile) = base.with_appended(&d, 10..d.n_rows());
        assert!(profile.count_secs >= 0.0);
        assert_eq!((profile.partition_secs, profile.peak_bytes), (0.0, 0));
        let full = Label::build(&d, attrs);
        assert_eq!(appended.n_rows(), full.n_rows());
        assert_eq!(appended.pattern_count_size(), full.pattern_count_size());
        assert_eq!(appended.value_count_size(), full.value_count_size());
        for r in 0..d.n_rows() {
            let p = Pattern::from_row(&d, r);
            assert_eq!(appended.estimate(&p), full.estimate(&p), "row {r}");
            let q = p.restrict(attrs);
            assert_eq!(
                appended.count_of_projection(&q),
                full.count_of_projection(&q)
            );
        }
        // The base label is untouched (copy-on-append): its projections
        // and estimates still equal a fresh build of the prefix.
        let fresh = Label::build(&prefix, attrs);
        assert_eq!(base.n_rows(), 10);
        assert_eq!(base.pattern_count_size(), fresh.pattern_count_size());
        assert_eq!(base.count_of_projection(&age), before);
        for r in 0..d.n_rows() {
            let p = Pattern::from_row(&d, r);
            assert_eq!(base.estimate(&p), fresh.estimate(&p), "row {r}");
            for k in [
                attrs,
                AttrSet::from_indices([1]),
                AttrSet::from_indices([3]),
            ] {
                let q = p.restrict(k);
                assert_eq!(base.count_of_projection(&q), fresh.count_of_projection(&q));
            }
        }
    }

    #[test]
    fn appended_label_tolerates_growth_outside_s() {
        // Label over {a}; the appended row carries a new value on b —
        // outside S, so the append stays incremental and the VC table
        // extends in place instead of indexing out of bounds.
        let mut b = DatasetBuilder::new(["a", "b"]);
        b.push_row(&["x", "1"]).unwrap();
        b.push_row(&["y", "1"]).unwrap();
        let d = b.finish();
        let label = Label::build(&d, AttrSet::from_indices([0]));
        let mut grown = d.clone();
        grown
            .append_labeled_rows(&[vec![Some("x"), Some("2")]])
            .unwrap();
        assert!(label.can_append(&grown));
        let (appended, _) = label.with_appended(&grown, 2..3);
        let full = Label::build(&grown, AttrSet::from_indices([0]));
        assert_eq!(appended.n_rows(), 3);
        // {a=x, b=2} exercises the new value's VC entry.
        let p = Pattern::from_terms([(0, 0), (1, 1)]);
        assert_eq!(appended.estimate(&p), full.estimate(&p));
        assert_eq!(appended.value_count_size(), full.value_count_size());
    }

    #[test]
    fn weighted_build_equals_raw_build() {
        let d = figure2_sample();
        let (distinct, w) = d.compress();
        let attrs = AttrSet::from_indices([0, 2]);
        let raw = Label::build(&d, attrs);
        let vc = Arc::new(ValueCounts::compute(&distinct, Some(&w)));
        let packed = Label::from_parts(&distinct, Some(&w), attrs, vc);
        assert_eq!(raw.n_rows(), packed.n_rows());
        assert_eq!(raw.pattern_count_size(), packed.pattern_count_size());
        for r in 0..d.n_rows() {
            let p = Pattern::from_row(&d, r);
            assert_eq!(raw.estimate(&p), packed.estimate(&p));
        }
    }
}
