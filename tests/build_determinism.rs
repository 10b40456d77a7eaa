//! Build determinism across thread budgets: the wave-scheduled HNSW (and
//! every other backend touched by the thread knob) must produce
//! byte-identical bundles for `threads ∈ {1, 2, 3, 4}` — the on-disk proof
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
        for threads in [2usize, 3, 4] {
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
        for threads in [2usize, 3, 4] {
            let tn = save(recipe, threads);
            assert_eq!(t1, tn, "{recipe:?}: sharded bundle differs between T=1 and T={threads}");
        }
    }
}

/// FNV-1a (64-bit) over a byte stream — the bundle-hash function of the
/// persist golden pins.
fn fnv1a_bytes(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over a word stream, each word as 8 little-endian bytes.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a_bytes(words.into_iter().flat_map(u64::to_le_bytes))
}

/// The rows of object `id`, as `insert_object` takes them.
fn object_rows(set: &MultiVectorSet, id: u32) -> Vec<Vec<f32>> {
    set.object(id).map(<[f32]>::to_vec).collect()
}

#[test]
fn joint_oracle_hnsw_build_and_inserts_match_the_golden_bytes() {
    // A JointOracle (two modalities, unequal weights) under the HNSW
    // backend at gamma = 16 (M = 8, efConstruction = 64): the v7 bundle
    // after the wave build, and again after 300 `insert_object` calls.
    // Every pair similarity of construction, insertion, back-edge
    // re-pruning and the occlusion test goes through the oracle, so a
    // kernel that moved one bit of one score moves these hashes.
    let n0 = 1_900;
    let grow = corpus(300, 24, 16, 0x1D5E);
    for threads in [1usize, 2] {
        let mut must = Must::build(
            corpus(n0, 24, 16, 0xB0D1),
            Weights::new(vec![0.8, 0.45]).unwrap(),
            MustBuildOptions { gamma: 16, recipe: GraphRecipe::Hnsw, threads, ..Default::default() },
        )
        .unwrap();
        let save = |must: &Must, tag: &str| {
            let path = tmp(tag);
            persist::save_quantized(must, &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            fnv1a_bytes(bytes)
        };
        let built = save(&must, &format!("joint-hnsw-t{threads}"));
        for id in 0..grow.len() as u32 {
            must.insert_object(&object_rows(&grow, id)).unwrap();
        }
        let grown = save(&must, &format!("joint-hnsw-grown-t{threads}"));
        assert_eq!(
            (built, grown),
            (0x4357_A07D_CC87_671B, 0xF8C4_2BCF_AD31_A7EC),
            "T={threads}: {built:#018X} {grown:#018X}"
        );
    }
}

#[test]
fn joint_oracle_fused_build_matches_the_golden_lists_and_graph() {
    // Algorithm 1 on a JointOracle: component 1's NNDescent lists with
    // every similarity bit, then the Fused recipe's CSR and seed.
    use must::core::oracle::JointOracle;
    use must::graph::nndescent::build_init_graph;
    let set = corpus(1_200, 24, 16, 0xF05E);
    let weights = Weights::new(vec![0.7, 0.55]).unwrap();
    for threads in [1usize, 2] {
        let oracle = JointOracle::new(&set, &weights).unwrap();
        let lists = build_init_graph(&oracle, 16, 3, 0x5EED, threads);
        let init = fnv1a_words(lists.iter().flat_map(|l| {
            std::iter::once(l.len() as u64)
                .chain(l.iter().flat_map(|nb| [u64::from(nb.id), u64::from(nb.sim.to_bits())]))
        }));
        let must = Must::build(
            set.clone(),
            weights.clone(),
            MustBuildOptions { gamma: 16, recipe: GraphRecipe::Fused, threads, ..Default::default() },
        )
        .unwrap();
        let csr = must.index().graph().expect("the Fused recipe serves a CSR graph");
        let graph = fnv1a_words(
            csr.offsets().iter().chain(csr.edges()).chain([&csr.seed()]).map(|&x| u64::from(x)),
        );
        assert_eq!(
            (init, graph),
            (0x6F1A_1815_67DC_D223, 0x80CA_D5AD_785F_93FD),
            "T={threads}: {init:#018X} {graph:#018X}"
        );
    }
}

#[test]
fn joint_oracle_nsg_and_vamana_builds_match_the_golden_graphs() {
    // The search-based candidate recipes on a JointOracle: every vertex's
    // candidates come from a greedy walk over the current lists, so a walk
    // that visits, scores or files one candidate differently moves these.
    // KGraph, NSSG and HCNNG ride along, so every flat recipe but Fused
    // (pinned above) has its CSR bytes pinned here.
    let set = corpus(800, 24, 16, 0x5E4C);
    let weights = Weights::new(vec![0.75, 0.5]).unwrap();
    let recipes =
        [GraphRecipe::Nsg, GraphRecipe::Vamana, GraphRecipe::KGraph, GraphRecipe::Nssg, GraphRecipe::Hcnng];
    for threads in [1usize, 2] {
        let mut got = Vec::new();
        for recipe in recipes {
            let must = Must::build(
                set.clone(),
                weights.clone(),
                MustBuildOptions { gamma: 12, recipe, threads, ..Default::default() },
            )
            .unwrap();
            let csr = must.index().graph().expect("a flat recipe serves a CSR graph");
            got.push(fnv1a_words(
                csr.offsets().iter().chain(csr.edges()).chain([&csr.seed()]).map(|&x| u64::from(x)),
            ));
        }
        let want = [
            0x0290_4160_6ED7_00EF,
            0xCE4C_409A_2A1A_C876,
            0x80B1_125A_B9EA_53A1,
            0x5B77_06F0_303D_FFE6,
            0xD7D9_5DA5_C406_FD11,
        ];
        for ((recipe, got), want) in recipes.iter().zip(&got).zip(want) {
            assert_eq!(*got, want, "T={threads}: {} {got:#018X}", recipe.label());
        }
    }
}
