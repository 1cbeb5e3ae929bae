//! Property-based tests for the data substrate: CSV round-trips with
//! adversarial cell content, bucketization invariants, sampling and
//! compression laws.

use proptest::prelude::*;

use pclabel_data::bucketize::{bucketize_attr, BucketStrategy, NonNumericPolicy};
use pclabel_data::csv::{read_dataset_from_str, write_csv, CsvOptions, CsvWriteOptions};
use pclabel_data::dataset::{Dataset, DatasetBuilder};
use pclabel_data::generate::AliasTable;
use pclabel_data::sample::sample_indices;

/// Arbitrary cell content including CSV-hostile characters.
fn arb_cell() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9,\"\n\r %üß]{0,12}").expect("valid regex")
}

fn arb_table() -> impl Strategy<Value = (usize, Vec<Vec<String>>)> {
    (1usize..=4, 1usize..=20).prop_flat_map(|(cols, rows)| {
        (
            Just(cols),
            proptest::collection::vec(proptest::collection::vec(arb_cell(), cols), rows),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// read(write(x)) is the identity on cell contents.
    #[test]
    fn csv_roundtrip_arbitrary_cells((cols, rows) in arb_table()) {
        let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
        let mut b = DatasetBuilder::new(&names);
        for row in &rows {
            b.push_row(row).unwrap();
        }
        let d = b.finish();
        // Without missing tokens, empty cells read back as empty labels.
        let text = write_csv(&d, &CsvWriteOptions::default());
        let opts = CsvOptions { missing_tokens: Vec::new(), ..CsvOptions::default() };
        let parsed = read_dataset_from_str(&text, &opts).unwrap();
        prop_assert_eq!(parsed.n_rows(), rows.len());
        for (r, want) in rows.iter().enumerate() {
            for (a, cell) in want.iter().enumerate() {
                prop_assert_eq!(parsed.label_of(a, parsed.value_raw(r, a)), cell.as_str());
            }
        }
    }

    /// Reading a written dataset preserves shape and cell labels.
    #[test]
    fn dataset_csv_identity((cols, rows) in arb_table()) {
        let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
        let mut b = DatasetBuilder::new(&names);
        for row in &rows {
            b.push_row(row).unwrap();
        }
        let d = b.finish();
        let text = write_csv(&d, &CsvWriteOptions::default());
        let d2 = read_dataset_from_str(&text, &CsvOptions::default()).unwrap();
        prop_assert_eq!(d2.n_rows(), d.n_rows());
        for r in 0..d.n_rows() {
            for a in 0..d.n_attrs() {
                // Empty strings read back as missing; both render as the
                // same written field, which the previous test pins down.
                let orig = d.label_of(a, d.value_raw(r, a));
                if !orig.is_empty() {
                    prop_assert_eq!(d2.label_of(a, d2.value_raw(r, a)), orig);
                }
            }
        }
    }

    /// Compression conserves total weight and value counts.
    #[test]
    fn compression_conserves_counts((cols, rows) in arb_table()) {
        let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
        let mut b = DatasetBuilder::new(&names);
        for row in &rows {
            b.push_row(row).unwrap();
        }
        let d = b.finish();
        let (distinct, weights) = d.compress();
        prop_assert_eq!(weights.iter().sum::<u64>(), d.n_rows() as u64);
        prop_assert!(distinct.n_rows() <= d.n_rows());
        prop_assert_eq!(
            d.value_counts(),
            distinct.weighted_value_counts(Some(&weights))
        );
    }

    /// Equal-width bucketization: at most k buckets, all rows retained,
    /// bucket of x is monotone in x.
    #[test]
    fn bucketize_invariants(values in proptest::collection::vec(-1000i32..1000, 2..60),
                            k in 1usize..8) {
        let mut b = DatasetBuilder::new(["v"]);
        for v in &values {
            b.push_row(&[v.to_string()]).unwrap();
        }
        let d = b.finish();
        let out = bucketize_attr(&d, 0, &BucketStrategy::EqualWidth(k), NonNumericPolicy::Error)
            .unwrap();
        prop_assert_eq!(out.n_rows(), d.n_rows());
        prop_assert!(out.schema().attr(0).unwrap().cardinality() <= k);
        // Monotonicity: if values[i] <= values[j] then bucket label order
        // follows the numeric order of the bucket lower bounds; weaker
        // check — same value ⇒ same bucket.
        for i in 0..values.len() {
            for j in 0..values.len() {
                if values[i] == values[j] {
                    prop_assert_eq!(out.value_raw(i, 0), out.value_raw(j, 0));
                }
            }
        }
    }

    /// Sampling without replacement yields distinct, in-range indices.
    #[test]
    fn sampling_indices_valid(n in 1usize..500, frac in 0.0f64..=1.0, seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let k = ((n as f64) * frac) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = sample_indices(n, k, &mut rng).unwrap();
        prop_assert_eq!(idx.len(), k);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), k);
        prop_assert!(idx.iter().all(|&i| i < n));
    }

    /// Alias tables only emit indices with positive weight.
    #[test]
    fn alias_respects_support(weights in proptest::collection::vec(0.0f64..10.0, 1..20),
                              seed in any::<u64>()) {
        prop_assume!(weights.iter().any(|&w| w > 0.0));
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let t = AliasTable::new(&weights).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let i = t.sample(&mut rng) as usize;
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight index {i}");
        }
    }

    /// Projection then projection equals combined projection.
    #[test]
    fn project_composes((cols, rows) in arb_table()) {
        prop_assume!(cols >= 2);
        let names: Vec<String> = (0..cols).map(|i| format!("c{i}")).collect();
        let mut b = DatasetBuilder::new(&names);
        for row in &rows {
            b.push_row(row).unwrap();
        }
        let d = b.finish();
        let once: Dataset = d.project(&[0, 1]).unwrap();
        let twice = once.project(&[1]).unwrap();
        let direct = d.project(&[1]).unwrap();
        prop_assert_eq!(twice.n_rows(), direct.n_rows());
        for r in 0..twice.n_rows() {
            prop_assert_eq!(
                twice.label_of(0, twice.value_raw(r, 0)),
                direct.label_of(0, direct.value_raw(r, 0))
            );
        }
    }
}
