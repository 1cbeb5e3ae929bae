//! Ablation benchmarks for the design choices called out in `DESIGN.md`:
//!
//! * `early_exit` — the §IV-C sorted-scan early exit vs the exact full
//!   scan when evaluating candidate errors;
//! * `group_keys` — bit-packed `u64` group keys vs the wide boxed-slice
//!   fallback (forced by a synthetic >64-bit schema);
//! * `parallel_scan` — sequential vs multi-threaded candidate evaluation;
//! * `greedy` — greedy forward selection (extension) vs Algorithm 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pclabel_bench::datasets::small;
use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::GroupCounts;
use pclabel_core::patterns::PatternSet;
use pclabel_core::search::{greedy_search, top_down_search, Evaluator, SearchOptions};
use pclabel_data::dataset::DatasetBuilder;

fn bench_early_exit(c: &mut Criterion) {
    let d = small::compas_small();
    let ev = Evaluator::new(&d, &PatternSet::AllTuples);
    let attrs = AttrSet::from_indices([0, 1, 2]);
    let mut group = c.benchmark_group("ablation_early_exit");
    group.bench_function("early_exit_on", |b| b.iter(|| ev.error_of(attrs, true)));
    group.bench_function("early_exit_off", |b| b.iter(|| ev.error_of(attrs, false)));
    group.finish();
}

fn bench_group_keys(c: &mut Criterion) {
    // Packed: COMPAS (17 attrs fit in u64). Wide: synthetic 12×300-value
    // schema (12 × 9 bits > 64).
    let packed = small::compas_small();
    let wide = {
        let names: Vec<String> = (0..12).map(|i| format!("w{i}")).collect();
        let mut b = DatasetBuilder::new(&names);
        for r in 0..10_000usize {
            let row: Vec<String> = (0..12)
                .map(|a| format!("{}", (r * (a + 3)) % 300))
                .collect();
            b.push_row(&row).unwrap();
        }
        b.finish()
    };
    let mut group = c.benchmark_group("ablation_group_keys");
    group.bench_function("packed_u64_8attrs", |b| {
        b.iter(|| GroupCounts::build(&packed, None, AttrSet::from_indices(0..8), 1))
    });
    group.bench_function("wide_boxed_8attrs", |b| {
        b.iter(|| GroupCounts::build(&wide, None, AttrSet::from_indices(0..8), 1))
    });
    group.finish();
}

fn bench_parallel_scan(c: &mut Criterion) {
    let d = small::creditcard_small();
    let ev = Evaluator::new(&d, &PatternSet::AllTuples);
    // A realistic candidate set: all attribute pairs.
    let cands: Vec<AttrSet> = (0..d.n_attrs())
        .flat_map(|i| ((i + 1)..d.n_attrs()).map(move |j| AttrSet::from_indices([i, j])))
        .collect();
    let mut group = c.benchmark_group("ablation_parallel_scan");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let opts = SearchOptions::with_bound(50).threads(threads);
                b.iter(|| ev.evaluate_many(&cands, &opts))
            },
        );
    }
    group.finish();
}

fn bench_greedy_vs_topdown(c: &mut Criterion) {
    let d = small::compas_small();
    let mut group = c.benchmark_group("ablation_greedy");
    group.sample_size(10);
    group.bench_function("greedy_forward", |b| {
        b.iter(|| greedy_search(&d, &SearchOptions::with_bound(50)).expect("valid"))
    });
    group.bench_function("topdown_algorithm1", |b| {
        b.iter(|| top_down_search(&d, &SearchOptions::with_bound(50)).expect("valid"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_early_exit,
    bench_group_keys,
    bench_parallel_scan,
    bench_greedy_vs_topdown
);
criterion_main!(benches);
