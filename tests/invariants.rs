//! Cross-crate property tests pinning the paper's lemmas on realistic
//! (encoder-produced) embeddings rather than toy vectors.

use must::core::search::brute_force_search;
use must::data::embed::embed_dataset;
use must::encoders::{EncoderConfig, EncoderRegistry, LatentSpace, TargetEncoding, UnimodalKind};
use must::graph::quality::audit;
use must::prelude::*;
use proptest::prelude::*;

fn small_embedded() -> must::data::embed::EmbeddedDataset {
    let ds = must::data::catalog::image_text(600, 40, 5);
    let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 5);
    let config = EncoderConfig::new(
        TargetEncoding::Independent(UnimodalKind::ResNet50),
        vec![UnimodalKind::Lstm],
    );
    embed_dataset(&ds, &config, &registry)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Lemma 4 on real embeddings: pruned and unpruned brute force return
    /// identical rankings for arbitrary weights and queries.
    #[test]
    fn lemma4_lossless_on_encoder_output(
        w0 in 0.05f32..1.5,
        w1 in 0.05f32..1.5,
        qi in 0usize..40,
    ) {
        let embedded = small_embedded();
        let weights = Weights::new(vec![w0, w1]).unwrap();
        let rows = embedded.objects.fused();
        let q = &embedded.queries[qi].query;
        let a = brute_force_search(rows, q, &weights, 10, true).unwrap();
        let b = brute_force_search(rows, q, &weights, 10, false).unwrap();
        let ids = |o: &must::core::search::SearchOutcome| {
            o.results.iter().map(|r| r.0).collect::<Vec<_>>()
        };
        prop_assert_eq!(ids(&a), ids(&b));
        prop_assert!(a.kernel_evals <= b.kernel_evals);
    }

    /// The fused index is always fully reachable from its seed
    /// (component 5), for arbitrary weights and gamma.
    #[test]
    fn fused_index_is_always_connected(
        w0 in 0.1f32..1.2,
        w1 in 0.1f32..1.2,
        gamma in 4usize..16,
    ) {
        let embedded = small_embedded();
        let weights = Weights::new(vec![w0, w1]).unwrap();
        let must = Must::build(
            embedded.objects,
            weights,
            MustBuildOptions { gamma, ..Default::default() },
        )
        .unwrap();
        let a = audit(must.index().graph().expect("fused recipe is flat"));
        prop_assert!((a.reachability - 1.0).abs() < 1e-9);
        prop_assert!(a.vertices == 600);
    }

    /// Search results are sorted, unique, and scored consistently with the
    /// joint similarity (Lemma 1).
    #[test]
    fn search_results_are_consistent(qi in 0usize..40, l in 20usize..200) {
        let embedded = small_embedded();
        let weights = Weights::uniform(2);
        let must = Must::build(embedded.objects, weights.clone(), MustBuildOptions::default())
            .unwrap();
        let q = &embedded.queries[qi].query;
        let hits = must.search(q, 10, l).unwrap().results;
        // Sorted descending, unique ids.
        for w in hits.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
            prop_assert!(w[0].0 != w[1].0);
        }
        // Reported similarity equals the Lemma-1 weighted sum.
        let ev = must.objects().fused().query(q, &weights).unwrap();
        for (id, sim) in &hits {
            prop_assert!((ev.ip(*id) - sim).abs() < 1e-4);
        }
    }
}

/// Recall is monotone in the pool size l (Lemma 3's practical corollary).
#[test]
fn recall_is_monotone_in_l() {
    let embedded = small_embedded();
    let must =
        Must::build(embedded.objects.clone(), Weights::uniform(2), MustBuildOptions::default())
            .unwrap();
    let mut worker = must.worker();
    let mut last = -1.0f64;
    for l in [10usize, 40, 160, 600] {
        let mut recall = 0.0;
        for q in &embedded.queries {
            let exact = must.brute_force(&q.query, 1).unwrap().results[0].0;
            let out = worker.search(&q.query, 1, l).unwrap();
            if out.results[0].0 == exact {
                recall += 1.0;
            }
        }
        recall /= embedded.queries.len() as f64;
        assert!(
            recall + 0.08 >= last,
            "recall should not collapse as l grows: {last} -> {recall} at l = {l}"
        );
        last = recall.max(last);
    }
    assert!(last > 0.9, "large-l recall should approach exact: {last}");
}
