//! Property-based tests for the core label machinery: attribute-set
//! algebra, the `gen` operator's enumeration laws, counting consistency,
//! estimation identities, and Proposition 3.2.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::{label_size, label_size_bounded, GroupCounts};
use pclabel_core::label::Label;
use pclabel_core::lattice::{binomial, gen, Combinations};
use pclabel_core::pattern::Pattern;
use pclabel_data::dataset::{Dataset, DatasetBuilder, MISSING};

/// The counts of a build.
fn counts(d: &Dataset, weights: Option<&[u64]>, attrs: AttrSet) -> GroupCounts {
    GroupCounts::build(d, weights, attrs).0
}

/// A group-by's `(values, weight)` entries, sorted.
fn entries(g: &GroupCounts) -> Vec<(Vec<u32>, u64)> {
    let mut out: Vec<(Vec<u32>, u64)> = g.iter().collect();
    out.sort();
    out
}

/// The group-by by brute force: each row's projection onto `attrs` (in
/// increasing attribute order, `MISSING` kept) with its summed weight,
/// sorted, and the weight of the all-missing projection apart.
fn brute_force(
    d: &Dataset,
    weights: Option<&[u64]>,
    attrs: AttrSet,
) -> (Vec<(Vec<u32>, u64)>, u64) {
    let mut groups: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
    let mut empty = 0;
    for r in 0..d.n_rows() {
        let w = weights.map_or(1, |w| w[r]);
        let key: Vec<u32> = attrs.iter().map(|a| d.value_raw(r, a)).collect();
        if key.iter().all(|&v| v == MISSING) {
            empty += w;
        } else {
            *groups.entry(key).or_insert(0) += w;
        }
    }
    (groups.into_iter().collect(), empty)
}

/// Row weights 1..=5 by row index, for weighted builds.
fn row_weights(d: &Dataset) -> Vec<u64> {
    (0..d.n_rows()).map(|r| (r % 5) as u64 + 1).collect()
}

fn arb_attrset(n: usize) -> impl Strategy<Value = AttrSet> {
    (0u64..(1u64 << n)).prop_map(AttrSet::from_bits)
}

/// Small random dataset with optional missing cells.
fn arb_dataset_missing() -> impl Strategy<Value = Dataset> {
    (2usize..=4, 1usize..=40, 1u32..=3).prop_flat_map(|(n_attrs, n_rows, dom)| {
        proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.85, 0..dom), n_attrs),
            n_rows,
        )
        .prop_map(move |rows| {
            let names: Vec<String> = (0..n_attrs).map(|i| format!("a{i}")).collect();
            let mut b = DatasetBuilder::new(&names);
            // Pre-intern the full domain so ids are stable even when some
            // values appear only as missing.
            let full: Vec<String> = (0..dom).map(|v| format!("v{v}")).collect();
            b.push_row(
                &full[..1]
                    .iter()
                    .cycle()
                    .take(n_attrs)
                    .cloned()
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            for row in rows {
                let fields: Vec<Option<String>> =
                    row.iter().map(|c| c.map(|v| format!("v{v}"))).collect();
                b.push_row_opt(&fields).unwrap();
            }
            b.finish()
        })
    })
}

/// Ten attributes: nine of 300 values (the label subset `S`, 81 key
/// bits, so wide keys) and one of 3 values outside `S`. Cells take one of
/// the first 3 ids, so groups repeat, or are missing; the last row
/// defines every attribute.
fn arb_wide_dataset() -> impl Strategy<Value = Dataset> {
    let cell = proptest::option::weighted(0.8, 0u32..3);
    (
        proptest::collection::vec(proptest::collection::vec(cell, 10), 4..=40),
        proptest::collection::vec(0u32..3, 10),
    )
        .prop_map(|(rows, last)| {
            let names: Vec<String> = (0..10).map(|a| format!("a{a}")).collect();
            let domains: Vec<Vec<String>> = (0..10)
                .map(|a| {
                    let card = if a < 9 { 300 } else { 3 };
                    (0..card).map(|v| format!("v{v}")).collect()
                })
                .collect();
            let mut b = DatasetBuilder::with_domains(
                names
                    .iter()
                    .zip(&domains)
                    .map(|(name, values)| (name.as_str(), values.iter().map(String::as_str))),
            );
            for row in rows {
                let ids: Vec<u32> = row.iter().map(|c| c.unwrap_or(MISSING)).collect();
                b.push_ids(&ids).unwrap();
            }
            b.push_ids(&last).unwrap();
            b.finish()
        })
}

/// The wide-key dataset `wide_key_counting_and_appends_are_exact`
/// starts from: 300 rows over 9 attributes of 300 values, then `extra` rows.
fn wide_rows(extra: usize) -> Dataset {
    let names: Vec<String> = (0..9).map(|i| format!("w{i}")).collect();
    let mut b = DatasetBuilder::new(&names);
    for r in 0..300 {
        let row: Vec<String> = (0..9).map(|a| format!("{}", (r * (a + 1)) % 300)).collect();
        b.push_row(&row).unwrap();
    }
    for r in 0..extra {
        let row: Vec<String> = (0..9).map(|a| format!("{}", (r * (a + 2)) % 300)).collect();
        b.push_row(&row).unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Bitset algebra laws.
    #[test]
    fn attrset_laws(a in arb_attrset(12), b in arb_attrset(12), c in arb_attrset(12)) {
        prop_assert_eq!(a.union(b), b.union(a));
        prop_assert_eq!(a.intersect(b), b.intersect(a));
        prop_assert_eq!(a.union(b).intersect(c), a.intersect(c).union(b.intersect(c)));
        prop_assert_eq!(a.difference(b).union(a.intersect(b)), a);
        prop_assert!(a.intersect(b).is_subset_of(a));
        prop_assert!(a.is_subset_of(a.union(b)));
        prop_assert_eq!(a.len() + b.len(), a.union(b).len() + a.intersect(b).len());
    }

    /// Iteration order is increasing and faithful.
    #[test]
    fn attrset_iteration(a in arb_attrset(20)) {
        let v = a.to_vec();
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(AttrSet::from_indices(v.iter().copied()), a);
        prop_assert_eq!(v.len(), a.len());
        prop_assert_eq!(v.last().copied(), a.max_index());
    }

    /// gen() from ∅ enumerates every subset exactly once (Prop. 3.8).
    #[test]
    fn gen_enumerates_lattice(n in 1usize..=8) {
        let mut count = 0u64;
        let mut stack = vec![AttrSet::EMPTY];
        while let Some(s) = stack.pop() {
            count += 1;
            for c in gen(s, n) {
                stack.push(c);
            }
        }
        prop_assert_eq!(count, 1u64 << n);
    }

    /// Combinations(n, k) matches the binomial coefficient and gen()'s
    /// level-k slice.
    #[test]
    fn combinations_consistent(n in 1usize..=8, k in 0usize..=8) {
        let combos: Vec<AttrSet> = Combinations::new(n, k).collect();
        prop_assert_eq!(combos.len() as u64, binomial(n as u64, k as u64));
        prop_assert!(combos.iter().all(|s| s.len() == k));
    }

    /// Bounded sizing agrees with exact sizing.
    #[test]
    fn bounded_size_agrees(d in arb_dataset_missing(), bits in any::<u64>()) {
        let attrs = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        let exact = label_size(&d, attrs);
        // Bound above the true size → Some(exact); below → None.
        prop_assert_eq!(label_size_bounded(&d, attrs, exact + 3), Some(exact));
        prop_assert_eq!(label_size_bounded(&d, attrs, exact), Some(exact));
        if exact > 0 {
            prop_assert_eq!(label_size_bounded(&d, attrs, exact - 1), None);
        }
    }

    /// The build equals a brute-force group-by: same groups, weights,
    /// label size and empty-group weight, on random schemas with missing
    /// cells, weighted or not (packed keys).
    #[test]
    fn counting_matches_brute_force(
        d in arb_dataset_missing(),
        bits in any::<u64>(),
        weighted in any::<bool>(),
    ) {
        let attrs = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        let w = row_weights(&d);
        let weights = weighted.then_some(&w[..]);
        let built = counts(&d, weights, attrs);
        let (groups, empty) = brute_force(&d, weights, attrs);
        prop_assert_eq!(built.pattern_count_size(), groups.len() as u64);
        prop_assert_eq!(label_size(&d, attrs), groups.len() as u64);
        prop_assert_eq!(built.empty_group_weight(), empty);
        prop_assert_eq!(entries(&built), groups.clone());
        for (values, w) in &groups {
            prop_assert_eq!(built.weight_of_values(values), *w);
        }
    }

    /// Incremental appends are exact: building on a prefix and appending
    /// the suffix equals the full build, weighted or not, and a clone
    /// taken before the append still equals a fresh build of the prefix
    /// (copy-on-append).
    #[test]
    fn append_rows_equals_full_build(
        d in arb_dataset_missing(),
        bits in any::<u64>(),
        split_frac in 0.0f64..1.0,
        weighted in any::<bool>(),
    ) {
        let attrs = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        let split = ((d.n_rows() as f64) * split_frac) as usize;
        let prefix = d.take_rows(&(0..split).collect::<Vec<_>>());
        let w = row_weights(&d);
        let weights = weighted.then_some(&w[..]);
        let prefix_weights = weights.map(|w| &w[..split]);
        let full = counts(&d, weights, attrs);
        let mut incremental = counts(&prefix, prefix_weights, attrs);
        prop_assert!(incremental.codec_compatible(&d));
        let before = incremental.clone();
        incremental.append_rows(&d, weights, split..d.n_rows());
        prop_assert_eq!(full.pattern_count_size(), incremental.pattern_count_size());
        prop_assert_eq!(full.empty_group_weight(), incremental.empty_group_weight());
        prop_assert_eq!(entries(&full), entries(&incremental));
        let fresh = counts(&prefix, prefix_weights, attrs);
        prop_assert_eq!(before.empty_group_weight(), fresh.empty_group_weight());
        prop_assert_eq!(entries(&before), entries(&fresh));
    }

    /// The wide-key (> 64 bit) path obeys the same brute-force and append
    /// identities, weighted or not.
    #[test]
    fn wide_key_counting_and_appends_are_exact(
        rows in 5usize..=40,
        split in 0usize..=5,
        weighted in any::<bool>(),
    ) {
        // 9 attributes × ~300 distinct values = 81 key bits: wide path.
        // The first 300 rows pre-intern the domain, so prefix datasets
        // share cardinalities.
        let d = wide_rows(rows);
        let attrs = AttrSet::full(9);
        let w = row_weights(&d);
        let weights = weighted.then_some(&w[..]);
        let full = counts(&d, weights, attrs);
        let se = entries(&full);
        prop_assert_eq!(&se, &brute_force(&d, weights, attrs).0);
        let split = 300 + split.min(rows);
        let prefix = d.take_rows(&(0..split).collect::<Vec<_>>());
        let mut incremental = counts(&prefix, weights.map(|w| &w[..split]), attrs);
        incremental.append_rows(&d, weights, split..d.n_rows());
        prop_assert_eq!(se, entries(&incremental));
    }

    /// Pattern counts from the label equal brute-force scans, for every
    /// stored entry (missing-value marginals included).
    #[test]
    fn pc_entries_are_true_counts(d in arb_dataset_missing(), bits in any::<u64>()) {
        let attrs = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        let label = Label::build(&d, attrs);
        for (pattern, count) in label.pc_entries() {
            prop_assert_eq!(count, pattern.count_in(&d), "{}", pattern);
        }
    }

    /// Estimation identity: Est(p, L_S) = c(p|S) · Π fractions, rebuilt by
    /// hand from VC.
    #[test]
    fn estimate_formula_identity(d in arb_dataset_missing(), bits in any::<u64>()) {
        let attrs = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        let label = Label::build(&d, attrs);
        let vc = label.value_counts();
        for r in 0..d.n_rows().min(8) {
            let p = Pattern::from_row(&d, r);
            let projection = p.restrict(attrs);
            let mut expected = projection.count_in(&d) as f64;
            for (a, v) in p.terms() {
                if !attrs.contains(a) {
                    let total = vc.total(a);
                    if total == 0 {
                        expected = 0.0;
                    } else {
                        expected *= vc.count(a, v) as f64 / total as f64;
                    }
                }
            }
            prop_assert!((label.estimate(&p) - expected).abs() < 1e-9);
        }
    }

    /// Proposition 3.2, exactly as stated: for S1 ⊆ S2 and a pattern p
    /// with Attr(p) ⊄ S2, let p′ = p|Attr(p)∩S2. If Est(p′, l1) and
    /// Est(p, l2) err on the same (strict) side of their true counts,
    /// then Err(l2, p) ≤ Err(l1, p).
    #[test]
    fn proposition_3_2(d in arb_dataset_missing(), bits1 in any::<u64>(), extra in 0usize..4) {
        let mask = (1u64 << d.n_attrs()) - 1;
        let s1 = AttrSet::from_bits(bits1 & mask);
        let s2 = s1.insert(extra.min(d.n_attrs() - 1));
        let l1 = Label::build(&d, s1);
        let l2 = Label::build(&d, s2);
        for r in 0..d.n_rows().min(8) {
            let p = Pattern::from_row(&d, r);
            if p.attrs().is_subset_of(s2) {
                continue; // the proposition requires Attr(p) ⊄ S2
            }
            let p_prime = p.restrict(s2);
            let prime_actual = p_prime.count_in(&d) as f64;
            let prime_est = l1.estimate(&p_prime);
            let actual = p.count_in(&d) as f64;
            let e1 = l1.estimate(&p);
            let e2 = l2.estimate(&p);
            let both_over = prime_est > prime_actual && e2 > actual;
            let both_under = prime_est < prime_actual && e2 < actual;
            if both_over || both_under {
                prop_assert!(
                    (e2 - actual).abs() <= (e1 - actual).abs() + 1e-9,
                    "S1={} S2={} p={} actual={} e1={} e2={} p'={} (actual {}, est {})",
                    s1, s2, p, actual, e1, e2, p_prime, prime_actual, prime_est
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Label` on wide keys against brute-force counts: each row's
    /// projection onto `S` and onto random parts of `S` (the marginal
    /// path) is counted exactly, and an append onto a prefix equals the
    /// full build, estimates bit for bit.
    #[test]
    fn wide_labels_match_brute_force(
        d in arb_wide_dataset(),
        masks in proptest::collection::vec(1u64..(1 << 9), 3),
        split_frac in 0.0f64..1.0,
    ) {
        let s = AttrSet::full(9);
        let n = d.n_rows();
        let split = ((n as f64) * split_frac) as usize;
        let prefix = d.take_rows(&(0..split).collect::<Vec<_>>());
        let label = Label::build(&d, s);
        let (appended, _) = Label::build(&prefix, s).with_appended(&d, split..n);
        prop_assert_eq!(appended.n_rows(), label.n_rows());
        prop_assert_eq!(appended.pattern_count_size(), label.pattern_count_size());
        for r in 0..n {
            let p = Pattern::from_row(&d, r);
            let projections = std::iter::once(s)
                .chain(masks.iter().map(|&m| AttrSet::from_bits(m)))
                .map(|k| p.restrict(k));
            for q in projections {
                prop_assert_eq!(label.count_of_projection(&q), q.count_in(&d), "{}", q);
                prop_assert_eq!(appended.count_of_projection(&q), q.count_in(&d), "{}", q);
            }
            let estimate = label.estimate(&p).to_bits();
            prop_assert_eq!(estimate, appended.estimate(&p).to_bits(), "{}", p);
        }
    }
}
