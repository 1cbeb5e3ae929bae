//! Property-based tests for the core label machinery: attribute-set
//! algebra, the `gen` operator's enumeration laws, counting consistency,
//! estimation identities, and Proposition 3.2.

use proptest::prelude::*;

use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::{label_size, label_size_bounded, GroupCounts};
use pclabel_core::label::Label;
use pclabel_core::lattice::{binomial, gen, Combinations};
use pclabel_core::pattern::Pattern;
use pclabel_data::dataset::{Dataset, DatasetBuilder};

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

    /// Parallel chunked counting is bit-identical to the serial build:
    /// same group count, same per-group sizes, same label size and
    /// empty-group weight — across random schemas, thread counts and
    /// datasets with missing cells.
    #[test]
    fn parallel_counting_identical_to_serial(
        d in arb_dataset_missing(),
        bits in any::<u64>(),
        threads in 2usize..=9,
    ) {
        let attrs = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        let serial = GroupCounts::build(&d, None, attrs);
        let parallel = GroupCounts::build_parallel(&d, None, attrs, threads);
        prop_assert_eq!(serial.pattern_count_size(), parallel.pattern_count_size());
        prop_assert_eq!(serial.empty_group_weight(), parallel.empty_group_weight());
        prop_assert_eq!(
            label_size(&d, attrs),
            parallel.pattern_count_size(),
            "label size diverged for attrs {}", attrs
        );
        let mut se: Vec<(Vec<u32>, u64)> = serial.iter().collect();
        let mut pe: Vec<(Vec<u32>, u64)> = parallel.iter().collect();
        se.sort();
        pe.sort();
        prop_assert_eq!(se, pe);
    }

    /// The sharded pipeline is bit-identical to the serial single-shard
    /// build across the whole shard grid {1, 2, 8, 64} — serial sharded,
    /// radix-partitioned parallel, and the legacy chunk-and-merge
    /// reference all produce the same groups, weights and empty-group
    /// weight on random schemas with missing cells (packed keys).
    #[test]
    fn sharded_counting_identical_to_serial(
        d in arb_dataset_missing(),
        bits in any::<u64>(),
        threads in 2usize..=5,
    ) {
        let attrs = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        let serial = GroupCounts::build(&d, None, attrs);
        let mut se: Vec<(Vec<u32>, u64)> = serial.iter().collect();
        se.sort();
        for shards in [1usize, 2, 8, 64] {
            for build in [
                GroupCounts::build_sharded(&d, None, attrs, shards),
                GroupCounts::build_parallel_sharded(&d, None, attrs, threads, shards),
            ] {
                prop_assert_eq!(serial.pattern_count_size(), build.pattern_count_size());
                prop_assert_eq!(serial.empty_group_weight(), build.empty_group_weight());
                let mut be: Vec<(Vec<u32>, u64)> = build.iter().collect();
                be.sort();
                prop_assert_eq!(se.clone(), be, "shards {} threads {}", shards, threads);
                // Lookups route to the same shard the build stored in.
                for (values, w) in &se {
                    prop_assert_eq!(build.weight_of_values(values), *w);
                }
            }
        }
        let (merged, _) = pclabel_core::counting::reference::build_merged(&d, None, attrs, threads);
        prop_assert_eq!(serial.pattern_count_size(), merged.pattern_count_size());
        let mut me: Vec<(Vec<u32>, u64)> = merged.iter().collect();
        me.sort();
        prop_assert_eq!(se, me);
    }

    /// Incremental appends are exact: building on a prefix and appending
    /// the suffix equals the full build, for every shard count, and the
    /// shards it reports as touched cover every changed group.
    #[test]
    fn append_rows_equals_full_build(
        d in arb_dataset_missing(),
        bits in any::<u64>(),
        split_frac in 0.0f64..1.0,
    ) {
        let attrs = AttrSet::from_bits(bits & ((1u64 << d.n_attrs()) - 1));
        let split = ((d.n_rows() as f64) * split_frac) as usize;
        let prefix = d.take_rows(&(0..split).collect::<Vec<_>>());
        for shards in [1usize, 2, 8, 64] {
            let full = GroupCounts::build_sharded(&d, None, attrs, shards);
            let mut incremental = GroupCounts::build_sharded(&prefix, None, attrs, shards);
            prop_assert!(incremental.codec_compatible(&d));
            let before = incremental.clone();
            let touched = incremental.append_rows(&d, None, split..d.n_rows());
            prop_assert_eq!(full.pattern_count_size(), incremental.pattern_count_size());
            prop_assert_eq!(full.empty_group_weight(), incremental.empty_group_weight());
            let mut fe: Vec<(Vec<u32>, u64)> = full.iter().collect();
            let mut ie: Vec<(Vec<u32>, u64)> = incremental.iter().collect();
            fe.sort();
            ie.sort();
            prop_assert_eq!(fe, ie);
            // Any group whose weight changed must live in a touched shard.
            for (values, w) in incremental.iter() {
                if before.weight_of_values(&values) != w {
                    let s = incremental.shard_of_values(&values) as u32;
                    prop_assert!(touched.contains(&s), "untouched shard {} changed", s);
                }
            }
        }
    }

    /// The wide-key (> 64 bit) path obeys the same sharded/serial and
    /// append identities: its shards route by key hash, not key range.
    #[test]
    fn wide_key_sharding_identical_to_serial(
        rows in 5usize..=40,
        split in 0usize..=5,
        threads in 2usize..=4,
    ) {
        // 9 attributes × ~300 distinct values = 81 key bits: wide path.
        let names: Vec<String> = (0..9).map(|i| format!("w{i}")).collect();
        let mut b = pclabel_data::dataset::DatasetBuilder::new(&names);
        // Pre-intern the domain so prefix datasets share cardinalities.
        for r in 0..300 {
            let row: Vec<String> = (0..9).map(|a| format!("{}", (r * (a + 1)) % 300)).collect();
            b.push_row(&row).unwrap();
        }
        for r in 0..rows {
            let row: Vec<String> = (0..9).map(|a| format!("{}", (r * (a + 2)) % 300)).collect();
            b.push_row(&row).unwrap();
        }
        let d = b.finish();
        let attrs = AttrSet::full(9);
        let serial = GroupCounts::build(&d, None, attrs);
        let mut se: Vec<(Vec<u32>, u64)> = serial.iter().collect();
        se.sort();
        let split = 300 + split.min(rows);
        for shards in [2usize, 8, 64] {
            let parallel = GroupCounts::build_parallel_sharded(&d, None, attrs, threads, shards);
            let mut pe: Vec<(Vec<u32>, u64)> = parallel.iter().collect();
            pe.sort();
            prop_assert_eq!(se.clone(), pe);
            let prefix = d.take_rows(&(0..split).collect::<Vec<_>>());
            let mut incremental = GroupCounts::build_sharded(&prefix, None, attrs, shards);
            incremental.append_rows(&d, None, split..d.n_rows());
            let mut ie: Vec<(Vec<u32>, u64)> = incremental.iter().collect();
            ie.sort();
            prop_assert_eq!(se.clone(), ie);
        }
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
