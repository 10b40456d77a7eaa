//! Criterion benchmark of fused-index construction (Algorithm 1) across
//! graph recipes on a small corpus.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use must_core::index::build_index;
use must_core::MustBuildOptions;
use must_core::oracle::JointOracle;
use must_data::embed::embed_dataset;
use must_graph::GraphRecipe;
use must_vector::Weights;

fn bench_build(c: &mut Criterion) {
    let ds = must_data::catalog::image_text(4_000, 16, 1);
    let registry = must_bench::registry();
    let embedded = embed_dataset(&ds, &must_bench::efficiency::semisynthetic_config(), &registry);
    let weights = Weights::uniform(2);
    let oracle = JointOracle::new(&embedded.objects, &weights).unwrap();

    let mut group = c.benchmark_group("index_build_4k");
    group.sample_size(10);
    for recipe in [GraphRecipe::Fused, GraphRecipe::KGraph, GraphRecipe::Nssg, GraphRecipe::Hnsw] {
        group.bench_with_input(BenchmarkId::from_parameter(recipe.label()), &recipe, |b, &r| {
            b.iter(|| {
                build_index(&oracle, &MustBuildOptions { gamma: 16, recipe: r, ..Default::default() })
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
