//! Cross-crate integration tests: generate → embed → learn → index →
//! search, and the paper's headline claims at small scale.

use must::core::baselines::{mr_brute_force, JointEmbedding, MultiStreamedRetrieval};
use must::core::metrics::recall_at;
use must::core::search::{brute_force_search, modality_top_k};
use must::core::weights::WeightLearnConfig;
use must::data::embed::embed_dataset;
use must::encoders::{
    ComposerKind, EncoderConfig, EncoderRegistry, LatentSpace, TargetEncoding, UnimodalKind,
};
use must::graph::search::SearchScratch;
use must::prelude::*;

fn mit_small() -> must::data::LatentDataset {
    must::data::catalog::mit_states(0.2, 42)
}

fn clip_lstm() -> EncoderConfig {
    EncoderConfig::new(TargetEncoding::Composed(ComposerKind::Clip), vec![UnimodalKind::Lstm])
}

struct Pipeline {
    embedded: must::data::embed::EmbeddedDataset,
    weights: Weights,
}

fn pipeline() -> Pipeline {
    let ds = mit_small();
    let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 42);
    let embedded = embed_dataset(&ds, &clip_lstm(), &registry);
    let anchors: Vec<_> =
        embedded.queries[..120].iter().map(|q| (&q.query, q.anchor)).collect();
    let learned = Must::learn_weights(
        &embedded.objects,
        &anchors,
        &WeightLearnConfig { epochs: 150, ..Default::default() },
    );
    Pipeline { embedded, weights: learned.weights }
}

/// Workspace smoke test: a tiny corpus goes latent → embed → build →
/// search in seconds, the fused index agrees with brute force on top-1,
/// and the Lemma-4 prefix bound actually prunes candidate evaluations
/// (`SearchStats::pruned > 0`) without changing results.
#[test]
fn tiny_corpus_build_search_roundtrip() {
    let ds = must::data::catalog::mit_states(0.03, 7);
    let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 7);
    let embedded = embed_dataset(&ds, &clip_lstm(), &registry);
    let must = Must::build(
        embedded.objects.clone(),
        Weights::uniform(2),
        MustBuildOptions { gamma: 16, ..Default::default() },
    )
    .unwrap();
    let mut worker = must.worker();

    let (mut agree, mut pruned_total, total) = (0usize, 0u64, 25usize);
    for q in embedded.queries.iter().take(total) {
        let exact = must.brute_force(&q.query, 1).unwrap();
        let approx = worker.search(&q.query, 1, 120).unwrap();
        if exact.results[0].0 == approx.results[0].0 {
            agree += 1;
        }
        pruned_total += approx.stats.pruned;
        assert!(
            approx.stats.evaluated >= approx.stats.pruned,
            "stats coherence: {:?}",
            approx.stats
        );
    }
    // Recall vs. brute force: the fused index must agree on (almost)
    // every top-1 at this pool size.
    assert!(agree * 10 >= total * 9, "top-1 agreement {agree}/{total}");
    // The Lemma-4 multi-vector optimisation must actually fire on a
    // pruned fused-index search.
    assert!(pruned_total > 0, "expected non-zero pruned candidate count");

    // And switching pruning off preserves results (the Fig. 10(c) claim).
    let q = embedded.queries[0].query.clone();
    let with = worker.search(&q, 5, 80).unwrap();
    drop(worker);
    let mut must = must;
    must.set_prune(false);
    let without = must.search(&q, 5, 80).unwrap();
    let ids = |r: &[(u32, f32)]| r.iter().map(|x| x.0).collect::<Vec<_>>();
    assert_eq!(ids(&with.results), ids(&without.results));
}

/// Mean recall@k of the three frameworks (exact search each, the Tabs.
/// III–VI protocol) over the evaluation slice: `(MUST, MR, JE)`.
fn framework_recalls(p: &Pipeline, k: usize) -> (f64, f64, f64) {
    let rows = p.embedded.objects.fused();
    let objects = &p.embedded.objects;
    let eval = &p.embedded.queries[120..520.min(p.embedded.queries.len())];
    let (mut r_must, mut r_mr, mut r_je) = (0.0, 0.0, 0.0);
    for q in eval {
        let ids: Vec<u32> = brute_force_search(rows, &q.query, &p.weights, k, true)
            .unwrap()
            .results
            .iter()
            .map(|r| r.0)
            .collect();
        r_must += recall_at(&ids, &q.ground_truth, k);

        let merged = mr_brute_force(objects, &q.query, k, 300).0;
        r_mr += recall_at(&merged, &q.ground_truth, k);

        let je_ids: Vec<u32> = modality_top_k(objects.modality(0), q.query.slot(0).unwrap(), k)
            .iter()
            .map(|r| r.0)
            .collect();
        r_je += recall_at(&je_ids, &q.ground_truth, k);
    }
    let n = eval.len() as f64;
    (r_must / n, r_mr / n, r_je / n)
}

/// The paper's headline accuracy claim, end to end: MUST's weighted joint
/// similarity beats both the MR merge and the JE single-vector search on
/// the same corpus and queries.
#[test]
fn must_beats_mr_and_je_on_recall() {
    let (r_must, r_mr, r_je) = framework_recalls(&pipeline(), 5);
    assert!(
        r_must > r_mr && r_must > r_je,
        "MUST {r_must} must beat MR {r_mr} and JE {r_je}"
    );
}

/// Recall@10 regression pin for the paper's headline effect, end to end on
/// the seeded small corpus: MUST's weighted joint similarity must beat both
/// the MR merge (whose per-modality candidate lists drown in merge
/// ambiguity) and the JE composition search.  Future performance work on
/// the serving/index layers cannot silently trade this win away — if this
/// test regresses, the change altered *what* is retrieved, not just how
/// fast.
#[test]
fn recall_at_10_regression_must_over_mr_and_je() {
    let (r_must, r_mr, r_je) = framework_recalls(&pipeline(), 10);
    assert!(
        r_must >= r_mr && r_must >= r_je,
        "recall@10 regression: MUST {r_must:.4} must stay >= MR {r_mr:.4} and JE {r_je:.4}"
    );
    assert!(
        r_must > 0.25,
        "absolute recall@10 floor: MUST {r_must:.4} must stay above 0.25"
    );
}

/// The fused index approximates exact joint search closely at moderate l.
#[test]
fn fused_index_matches_brute_force() {
    let p = pipeline();
    let must = Must::build(
        p.embedded.objects.clone(),
        p.weights.clone(),
        MustBuildOptions { gamma: 20, ..Default::default() },
    )
    .unwrap();
    let mut worker = must.worker();
    let mut agree = 0;
    let total = 40;
    for q in p.embedded.queries.iter().skip(120).take(total) {
        let exact = must.brute_force(&q.query, 1).unwrap();
        let approx = worker.search(&q.query, 1, 300).unwrap();
        if exact.results[0].0 == approx.results[0].0 {
            agree += 1;
        }
    }
    assert!(agree * 10 >= total * 9, "agreement {agree}/{total}");
}

/// Graph-backed baselines run end to end and return sane results.
#[test]
fn baselines_run_on_real_embeddings() {
    let p = pipeline();
    let mr = MultiStreamedRetrieval::build(&p.embedded.objects, 16);
    let je = JointEmbedding::build(&p.embedded.objects, 16);
    let mut visited = SearchScratch::default();
    let q = &p.embedded.queries[200];
    let mr_out = mr.search(&q.query, 10, 200, &mut visited).unwrap();
    assert_eq!(mr_out.results.len(), 10);
    let je_out = je.search(&q.query, 10, 100, &mut visited).unwrap();
    assert_eq!(je_out.len(), 10);
}

/// t < m: dropping the auxiliary modality degrades accuracy (Tab. X).
#[test]
fn multimodal_queries_beat_single_modality() {
    let p = pipeline();
    let rows = p.embedded.objects.fused();
    let eval = &p.embedded.queries[120..420.min(p.embedded.queries.len())];
    let (mut r_full, mut r_target_only) = (0.0, 0.0);
    for q in eval {
        let full: Vec<u32> = brute_force_search(rows, &q.query, &p.weights, 10, true)
            .unwrap()
            .results
            .iter()
            .map(|r| r.0)
            .collect();
        r_full += recall_at(&full, &q.ground_truth, 10);
        let target_only = MultiQuery::partial(vec![
            q.query.slot(0).map(<[f32]>::to_vec),
            None,
        ]);
        let t_ids: Vec<u32> = brute_force_search(rows, &target_only, &p.weights, 10, true)
            .unwrap()
            .results
            .iter()
            .map(|r| r.0)
            .collect();
        r_target_only += recall_at(&t_ids, &q.ground_truth, 10);
    }
    assert!(
        r_full > r_target_only,
        "full queries {r_full} must beat target-only {r_target_only}"
    );
}

/// Learned weights transfer across query content (Section VIII-F): the
/// same weights rank a fresh batch of queries well.
#[test]
fn learned_weights_generalize_to_unseen_queries() {
    let p = pipeline();
    let rows = p.embedded.objects.fused();
    // Evaluate only on queries far outside the training slice.
    let eval = &p.embedded.queries[p.embedded.queries.len() - 200..];
    let mut recall = 0.0;
    for q in eval {
        let ids: Vec<u32> = brute_force_search(rows, &q.query, &p.weights, 10, true)
            .unwrap()
            .results
            .iter()
            .map(|r| r.0)
            .collect();
        recall += recall_at(&ids, &q.ground_truth, 10);
    }
    recall /= eval.len() as f64;
    assert!(recall > 0.25, "held-out recall@10 too low: {recall}");
}
