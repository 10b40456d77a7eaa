//! Build determinism across thread budgets: the wave-scheduled HNSW (and
//! every other backend touched by the thread knob) must produce
//! byte-identical bundles for `threads ∈ {1, 2, 4}` — the on-disk proof
//! that the worker budget is a wall-clock knob, not an algorithm knob.

use must::graph::GraphRecipe;
use must::prelude::*;

/// Deterministic pseudo-random corpus: `n` objects, two modalities.
fn corpus(n: usize, d0: usize, d1: usize, seed: u64) -> MultiVectorSet {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((state >> 40) as f32 / (1u64 << 24) as f32) + 0.05
    };
    let mut m0 = VectorSetBuilder::new(d0, n);
    let mut m1 = VectorSetBuilder::new(d1, n);
    for _ in 0..n {
        let v0: Vec<f32> = (0..d0).map(|_| next()).collect();
        let v1: Vec<f32> = (0..d1).map(|_| next()).collect();
        m0.push_normalized(&v0).unwrap();
        m1.push_normalized(&v1).unwrap();
    }
    MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap()
}

fn tmp(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("must-build-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}.bundle", std::process::id()))
}

fn bundle_bytes(set: &MultiVectorSet, recipe: GraphRecipe, threads: usize, tag: &str) -> Vec<u8> {
    let weights = Weights::uniform(2);
    let must = Must::build(
        set.clone(),
        weights,
        MustBuildOptions { gamma: 12, recipe, threads, ..Default::default() },
    )
    .unwrap();
    let path = tmp(tag);
    persist::save_quantized(&must, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn v7_bundles_are_byte_identical_across_thread_budgets() {
    let set = corpus(900, 12, 8, 0xD1CE);
    for recipe in [GraphRecipe::Hnsw, GraphRecipe::Fused] {
        let t1 = bundle_bytes(&set, recipe, 1, &format!("{recipe:?}-t1"));
        for threads in [2usize, 4] {
            let tn = bundle_bytes(&set, recipe, threads, &format!("{recipe:?}-t{threads}"));
            assert_eq!(t1, tn, "{recipe:?}: bundle differs between T=1 and T={threads}");
        }
    }
}

#[test]
fn sharded_bundles_are_byte_identical_across_thread_budgets() {
    let set = corpus(600, 10, 6, 0xFACE);
    let save = |recipe: GraphRecipe, threads: usize| {
        let sharded = ShardedMust::build(
            set.clone(),
            Weights::uniform(2),
            MustBuildOptions { gamma: 12, recipe, threads, ..Default::default() },
            ShardSpec::clustered(3),
        )
        .unwrap();
        let path = tmp(&format!("sharded-{recipe:?}-t{threads}"));
        persist::save_sharded(&sharded, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };
    for recipe in [GraphRecipe::Hnsw, GraphRecipe::Fused] {
        let t1 = save(recipe, 1);
        for threads in [2usize, 4] {
            let tn = save(recipe, threads);
            assert_eq!(t1, tn, "{recipe:?}: sharded bundle differs between T=1 and T={threads}");
        }
    }
}
