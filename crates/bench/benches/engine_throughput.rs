//! Criterion benchmarks for the serving subsystem: serial vs parallel
//! group counting and batched query execution through the `LabelStore`.
//! The full-scale (≥1M rows) JSON-emitting run lives in the
//! `engine_bench` binary; these use a reduced dataset so the whole
//! criterion suite stays fast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pclabel_core::attrset::AttrSet;
use pclabel_core::counting::GroupCounts;
use pclabel_data::dataset::Dataset;
use pclabel_data::generate::{independent, AttrSpec};
use pclabel_engine::prelude::*;

fn reduced_dataset() -> Dataset {
    let specs: Vec<AttrSpec> = [8usize, 6, 4, 5]
        .iter()
        .enumerate()
        .map(|(i, &domain)| {
            AttrSpec::uniform(
                format!("a{i}"),
                (0..domain).map(|v| format!("v{v}")).collect::<Vec<_>>(),
            )
        })
        .collect();
    independent(&specs, 200_000, 7).expect("valid generator config")
}

fn bench_parallel_counting(c: &mut Criterion) {
    let d = reduced_dataset();
    let attrs = AttrSet::from_indices([0, 1, 2]);
    let mut group = c.benchmark_group("engine_counting");
    group.throughput(Throughput::Elements(d.n_rows() as u64));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("group_by", threads),
            &threads,
            |b, &threads| b.iter(|| GroupCounts::build(&d, None, attrs, threads)),
        );
    }
    group.finish();
}

fn bench_batched_queries(c: &mut Criterion) {
    let engine = Engine::new(EngineConfig::default());
    engine
        .store()
        .register(
            "bench",
            reduced_dataset(),
            LabelPolicy::Attrs(AttrSet::from_indices([0, 1, 2])),
        )
        .expect("register");
    let patterns: Vec<PatternSpec> = (0..2_000usize)
        .map(|i| PatternSpec {
            terms: vec![
                ("a0".into(), format!("v{}", i % 8)),
                ("a3".into(), format!("v{}", i % 5)),
            ],
        })
        .collect();
    let request = QueryRequest {
        id: None,
        dataset: "bench".into(),
        patterns,
    };
    // Warm once so the measured loop is the steady (cache-hot) state.
    engine.execute(&request).expect("warm batch");

    let mut group = c.benchmark_group("engine_serving");
    group.throughput(Throughput::Elements(2_000));
    group.bench_function("batch_2k_hot", |b| {
        b.iter(|| engine.execute(&request).expect("batch"))
    });
    group.finish();
}

criterion_group!(benches, bench_parallel_counting, bench_batched_queries);
criterion_main!(benches);
