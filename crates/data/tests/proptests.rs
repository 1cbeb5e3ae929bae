//! Property-based tests for the data substrate: CSV round-trips with
//! adversarial cell content, bucketization invariants, sampling and
//! compression laws, and `Dataset::compress` against a row-by-row
//! first-occurrence recount.

use std::collections::HashMap;

use proptest::prelude::*;

use pclabel_data::bucketize::{bucketize_attr, BucketStrategy, NonNumericPolicy};
use pclabel_data::csv::{read_dataset_from_str, write_csv, CsvOptions, CsvWriteOptions};
use pclabel_data::dataset::{Dataset, DatasetBuilder};
use pclabel_data::generate::AliasTable;
use pclabel_data::partition::dense_slots;
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

/// Tables over an alphabet of 2–3 letters with missing cells, so most
/// repeat rows.
fn arb_repetitive() -> impl Strategy<Value = Dataset> {
    (1usize..=4, 2u32..=3).prop_flat_map(|(cols, letters)| {
        let row = proptest::collection::vec(proptest::option::weighted(0.8, 0..letters), cols);
        proptest::collection::vec(row, 0..=30).prop_map(move |rows| {
            let mut b = DatasetBuilder::new((0..cols).map(|i| format!("c{i}")));
            for row in rows {
                let cells: Vec<_> = row
                    .iter()
                    .map(|c| c.map(|v| ["a", "b", "c"][v as usize]))
                    .collect();
                b.push_row_opt(&cells).unwrap();
            }
            b.finish()
        })
    })
}

/// The distinct rows of `d` (raw ids) in first-occurrence order and how
/// often each occurs, recounted row by row.
fn recount(d: &Dataset) -> (Vec<Vec<u32>>, Vec<u64>) {
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    let (mut rows, mut weights) = (Vec::new(), Vec::new());
    for row in (0..d.n_rows()).map(|r| d.row_to_vec(r)) {
        let i = *index.entry(row.clone()).or_insert_with(|| {
            rows.push(row);
            weights.push(0);
            rows.len() - 1
        });
        weights[i] += 1;
    }
    (rows, weights)
}

/// `d.compress()` as row vectors and weights.
fn compressed(d: &Dataset) -> (Vec<Vec<u32>>, Vec<u64>) {
    let (distinct, weights) = d.compress();
    assert_eq!(distinct.n_attrs(), d.n_attrs());
    let rows = (0..distinct.n_rows()).map(|r| distinct.row_to_vec(r));
    (rows.collect(), weights)
}

#[test]
fn compress_matches_the_recount_on_edge_cases() {
    let none = DatasetBuilder::new(["a", "b"]).finish();
    assert_eq!(compressed(&none), (vec![], vec![]));
    let mut empty_schema = DatasetBuilder::new(Vec::<&str>::new());
    for _ in 0..3 {
        empty_schema.push_row::<&str>(&[]).unwrap();
    }
    assert_eq!(compressed(&empty_schema.finish()), (vec![vec![]], vec![3]));
    // The 997 × 991 columns of `hash_fallback_matches_dense` twice over,
    // with missing cells: refining the first column's 998 groups (997
    // values and missing) by the second's 991 codes is past the flat
    // remap's budget, so the pass hashes.
    let mut wide = DatasetBuilder::new(["hi", "hi2"]);
    for r in (0..2000usize).chain(0..2000) {
        wide.push_row(&[format!("v{}", r % 997), format!("w{}", (r * 7) % 991)])
            .unwrap();
    }
    for row in [[None, Some("w0")], [None, None], [None, Some("w0")]] {
        wide.push_row_opt(&row).unwrap();
    }
    let wide = wide.finish();
    assert_eq!(dense_slots(998, 991, wide.n_rows()), None);
    let (rows, weights) = compressed(&wide);
    assert_eq!((rows.len(), weights[0]), (2002, 2));
    assert_eq!((rows, weights), recount(&wide));
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

    /// Compression returns the distinct rows in first-occurrence order,
    /// each weighted by how often it occurs, and so conserves value counts.
    #[test]
    fn compression_conserves_counts(d in arb_repetitive()) {
        prop_assert_eq!(compressed(&d), recount(&d));
        let (distinct, weights) = d.compress();
        prop_assert_eq!(d.value_counts(), distinct.weighted_value_counts(Some(&weights)));
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
