//! Interactive refinement (Section IX "Single Modality Inputs"): start
//! from a text-only query, take a returned target-modality example as the
//! reference, and iteratively refine with additional constraints.
//!
//! Run with `cargo run --release --example interactive_refinement`.

use must::data::embed::embed_dataset;
use must::encoders::{ComposerKind, EncoderConfig, EncoderRegistry, LatentSpace, TargetEncoding, UnimodalKind};
use must::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = must::data::catalog::mit_states(0.25, 13);
    println!("{}", dataset.stats_row());

    let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 13);
    let config = EncoderConfig::new(
        TargetEncoding::Composed(ComposerKind::Clip),
        vec![UnimodalKind::Lstm],
    );
    let embedded = embed_dataset(&dataset, &config, &registry);
    let must = Must::build(
        embedded.objects.clone(),
        Weights::uniform(2),
        MustBuildOptions::default(),
    )?;

    // Pick a wanted (class, attribute) from one of the workload queries.
    let sample = &embedded.queries[0];
    let want = sample.want;
    println!("user intent: an object of class {} in state {}", want.class, want.attr);

    // Round 1 — text only (t = 1): the user has no reference image yet.
    let text_only = MultiQuery::partial(vec![None, sample.query.slot(1).map(<[f32]>::to_vec)]);
    let round1 = must.search(&text_only, 5, 200)?.results;
    println!("\nround 1 (text only) top-5:");
    let mut reference: Option<u32> = None;
    for (id, sim) in &round1 {
        let l = embedded.labels[*id as usize];
        println!("  object {id:>6}  class {:>4} attr {:>4}  sim {sim:.3}", l.class, l.attr);
        // The user picks the first result of the right class as a reference.
        if reference.is_none() && l.class == want.class {
            reference = Some(*id);
        }
    }

    // Round 2 — the chosen result becomes the reference image (the paper's
    // iterative-use property); the text constraint stays.
    let reference = reference.unwrap_or(round1[0].0);
    println!("\nuser picks object {reference} as the visual reference");
    let refined = MultiQuery::full(vec![
        must.objects().modality(0).get(reference).to_vec(),
        sample.query.slot(1).unwrap().to_vec(),
    ]);
    let round2 = must.search(&refined, 5, 200)?.results;
    println!("round 2 (image + text) top-5:");
    let mut class_hits_r1 = 0;
    let mut class_hits_r2 = 0;
    for ((id1, _), (id2, _)) in round1.iter().zip(&round2) {
        if embedded.labels[*id1 as usize].class == want.class {
            class_hits_r1 += 1;
        }
        let l = embedded.labels[*id2 as usize];
        if l.class == want.class {
            class_hits_r2 += 1;
        }
        println!(
            "  object {id2:>6}  class {:>4} attr {:>4}",
            l.class, l.attr
        );
    }
    println!(
        "\nclass matches in top-5: round 1 = {class_hits_r1}, round 2 = {class_hits_r2} \
         (refinement narrows the search to the intended class)"
    );
    Ok(())
}
