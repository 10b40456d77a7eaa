//! Property tests for the query-time-weighting invariant — the contract
//! that makes the unscaled-storage refactor safe: `search_weighted(q, w)`
//! on a server frozen with *default* weights returns exactly what a
//! server frozen with `w` over the same index returns.  Because storage
//! is unscaled and `w` enters through the query row alone, the two paths
//! run the same float operations — so ids must match exactly and
//! similarities to 1e-5 — across random corpora, random weight vectors,
//! and **all seven graph backends**.

use must_core::framework::{Must, MustBuildOptions};
use must_core::runtime::ServeEngine;
use must_core::server::MustServer;
use must_graph::GraphRecipe;
use must_vector::{FusedRows, MultiQuery, VectorSetBuilder, Weights};
use proptest::prelude::*;

/// Deterministic pseudo-random corpus from a seed: `n` objects, two
/// modalities of dimensionality `d0`/`d1`.
fn corpus(n: usize, d0: usize, d1: usize, seed: u64) -> FusedRows {
    let mut rng = proptest::TestRng::new(seed);
    let mut m0 = VectorSetBuilder::new(d0, n);
    let mut m1 = VectorSetBuilder::new(d1, n);
    for _ in 0..n {
        // Shift off zero so every vector is normalisable.
        let v0: Vec<f32> = (0..d0).map(|_| rng.unit_f64() as f32 + 0.05).collect();
        let v1: Vec<f32> = (0..d1).map(|_| rng.unit_f64() as f32 + 0.05).collect();
        m0.push_normalized(&v0).unwrap();
        m1.push_normalized(&v1).unwrap();
    }
    FusedRows::new(vec![m0.finish(), m1.finish()]).unwrap()
}

fn self_query(set: &FusedRows, id: u32) -> MultiQuery {
    MultiQuery::full(vec![
        set.modality(0).get(id).to_vec(),
        set.modality(1).get(id).to_vec(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(14))]

    #[test]
    fn search_weighted_equals_freshly_frozen_server_on_every_backend(
        n in 30usize..72,
        d0 in 3usize..8,
        d1 in 2usize..5,
        recipe_idx in 0usize..7,
        seed in 1u64..1_000_000,
        w0 in 0.05f32..1.5,
        w1 in 0.05f32..1.5,
    ) {
        let recipe = GraphRecipe::all()[recipe_idx];
        let opts = MustBuildOptions { gamma: 8, recipe, ..Default::default() };
        let set = corpus(n, d0, d1, seed);
        let default_w = Weights::uniform(2);
        let override_w = Weights::new(vec![w0, w1]).unwrap();

        // One index, two freezes: the production server keeps the default
        // weights, the oracle server is frozen with the override as its
        // default — what "retrain/adjust omega then redeploy" used to
        // require.
        let must = Must::build(set, default_w.clone(), opts).unwrap();
        let oracle = MustServer::freeze(
            Must::from_parts(must.objects().clone(), override_w.clone(), must.index().clone(), opts)
                .unwrap(),
        );
        let production = MustServer::freeze(must);

        for probe in 0..4u32 {
            let id = probe * (n as u32 / 4);
            let q = self_query(production.objects(), id);
            let got = production.search_weighted(&q, &override_w, 5, 24).unwrap();
            let want = oracle.search(&q, 5, 24).unwrap();
            let got_ids: Vec<u32> = got.results.iter().map(|r| r.0).collect();
            let want_ids: Vec<u32> = want.results.iter().map(|r| r.0).collect();
            prop_assert_eq!(
                got_ids, want_ids,
                "recipe {} query {}: id order must match the re-frozen oracle",
                recipe.label(), id
            );
            for ((_, gs), (_, ws)) in got.results.iter().zip(&want.results) {
                prop_assert!((gs - ws).abs() < 1e-5, "recipe {} sims diverged", recipe.label());
            }
            prop_assert_eq!(got.stats, want.stats, "recipe {}", recipe.label());

            // And the default path is the weighted path with the frozen
            // configuration — bitwise.
            let a = production.search(&q, 5, 24).unwrap();
            let b = production.search_weighted(&q, &default_w, 5, 24).unwrap();
            prop_assert_eq!(a.results, b.results);
            prop_assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn weighted_blends_interpolate_monotonically_between_endpoints(
        n in 30usize..60,
        seed in 1u64..1_000_000,
    ) {
        // Weights::blend is linear in omega^2, and Lemma 1 is linear in
        // omega^2 too — so a blended override's similarity for any fixed
        // (query, object) pair is the same blend of the endpoint
        // similarities.  This is what makes preference sliders behave.
        let set = corpus(n, 5, 3, seed);
        let a = Weights::from_squared(vec![0.9, 0.1]).unwrap();
        let b = Weights::from_squared(vec![0.2, 0.8]).unwrap();
        let must = Must::build(set, Weights::uniform(2), MustBuildOptions { gamma: 8, ..Default::default() })
            .unwrap();
        let server = MustServer::freeze(must);
        let q = self_query(server.objects(), 7);
        // A self-query's anchor is top-1 under any weights (every
        // modality matches perfectly), so the top-1 similarity is the
        // anchor's joint similarity — directly comparable across blends.
        let (id_a, sim_a) = server.search_weighted(&q, &a, 1, n).unwrap().results[0];
        let (id_b, sim_b) = server.search_weighted(&q, &b, 1, n).unwrap().results[0];
        prop_assert_eq!(id_a, 7);
        prop_assert_eq!(id_b, 7);
        for t in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
            let blended = Weights::blend(&a, &b, t).unwrap();
            let (id, sim) = server.search_weighted(&q, &blended, 1, n).unwrap().results[0];
            prop_assert_eq!(id, 7, "self-query anchor survives blending at t={}", t);
            let want = (1.0 - t) * sim_a + t * sim_b;
            prop_assert!(
                (sim - want).abs() < 1e-5,
                "blend at t={} must interpolate the similarity: {} vs {}",
                t, sim, want
            );
        }
    }
}
