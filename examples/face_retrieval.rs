//! Face retrieval on a CelebA-like corpus (the paper's Fig. 3 scenario):
//! a reference face plus a textual attribute change ("no glasses and
//! hat"), answered with *learned* modality weights.
//!
//! Demonstrates the full MUST pipeline: generate → embed → learn weights →
//! build fused index → joint search, and compares against the JE and MR
//! baselines on the same corpus.
//!
//! Run with `cargo run --release --example face_retrieval`.

use must::core::baselines::{JointEmbedding, MultiStreamedRetrieval};
use must::core::metrics::recall_at;
use must::core::weights::WeightLearnConfig;
use must::data::embed::embed_dataset;
use must::encoders::{ComposerKind, EncoderConfig, EncoderRegistry, LatentSpace, TargetEncoding, UnimodalKind};
use must::graph::search::SearchScratch;
use must::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled CelebA-like corpus: identities x facial-attribute combos.
    let dataset = must::data::catalog::celeba(0.25, 7);
    println!("{}", dataset.stats_row());

    // CLIP composition for the target slot + structured attribute text.
    let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 7);
    let config = EncoderConfig::new(
        TargetEncoding::Composed(ComposerKind::Clip),
        vec![UnimodalKind::Encoding],
    );
    let embedded = embed_dataset(&dataset, &config, &registry);

    // Learn modality weights on the first 200 queries.
    let anchors: Vec<_> = embedded.queries[..200].iter().map(|q| (&q.query, q.anchor)).collect();
    let learned = Must::learn_weights(
        &embedded.objects,
        &anchors,
        &WeightLearnConfig { epochs: 200, ..Default::default() },
    );
    println!(
        "learned weights^2 = {:?} (trained in {:.1}s)",
        learned.weights.squared(),
        learned.train_secs
    );

    // Build all three systems over the same corpus.
    let objects = embedded.objects.clone();
    let must = Must::build(objects, learned.weights.clone(), MustBuildOptions::default())?;
    let gamma = must.report().gamma;
    let mr = MultiStreamedRetrieval::build(must.objects(), gamma);
    let je = JointEmbedding::build(must.objects(), gamma);

    // Evaluate Recall@1(1) on held-out queries.
    let eval = &embedded.queries[200..700.min(embedded.queries.len())];
    let mut worker = must.worker();
    let mut visited = SearchScratch::default();
    let (mut r_must, mut r_mr, mut r_je) = (0.0, 0.0, 0.0);
    for q in eval {
        let m = worker.search(&q.query, 1, 200)?;
        let ids: Vec<u32> = m.results.iter().map(|r| r.0).collect();
        r_must += recall_at(&ids, &q.ground_truth, 1);
        let mr_out = mr.search(&q.query, 1, 300, &mut visited)?;
        r_mr += recall_at(&mr_out.results, &q.ground_truth, 1);
        let je_out = je.search(&q.query, 1, 200, &mut visited)?;
        let je_ids: Vec<u32> = je_out.iter().map(|r| r.0).collect();
        r_je += recall_at(&je_ids, &q.ground_truth, 1);
    }
    let n = eval.len() as f64;
    println!("\nRecall@1(1) over {} held-out queries:", eval.len());
    println!("  MUST {:.4}", r_must / n);
    println!("  MR   {:.4}", r_mr / n);
    println!("  JE   {:.4}", r_je / n);
    assert!(r_must >= r_mr && r_must >= r_je, "MUST should win on this workload");
    Ok(())
}
