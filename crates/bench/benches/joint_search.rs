//! Criterion benchmark of the joint search (Algorithm 2) on a scaled
//! ImageText corpus: per-query latency with and without the Lemma-4
//! multi-vector pruning.

use criterion::{criterion_group, criterion_main, Criterion};
use must_core::runtime::EngineWorker;
use must_core::{Must, MustBuildOptions};
use must_data::embed::embed_dataset;
use must_vector::Weights;

fn bench_search(c: &mut Criterion) {
    let ds = must_data::catalog::image_text(8_000, 64, 1);
    let registry = must_bench::registry();
    let embedded = embed_dataset(&ds, &must_bench::efficiency::semisynthetic_config(), &registry);
    let queries: Vec<_> = embedded.queries.iter().map(|q| q.query.clone()).collect();
    let mut must = Must::build(
        embedded.objects,
        Weights::from_squared(vec![0.12, 0.56]).unwrap(),
        MustBuildOptions::default(),
    )
    .unwrap();

    let mut group = c.benchmark_group("joint_search");
    for (prune, name) in [(true, "l200_pruned"), (false, "l200_unpruned")] {
        must.set_prune(prune);
        let mut worker = must.worker();
        let mut qi = 0usize;
        group.bench_function(name, |b| {
            b.iter(|| {
                qi = (qi + 1) % queries.len();
                worker.run_query(&queries[qi], None, 10, 200).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_search
}
criterion_main!(benches);
