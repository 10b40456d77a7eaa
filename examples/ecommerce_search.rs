//! E-commerce product search on a Shopping-like corpus (the paper's
//! Tab. V scenario): "this T-shirt, but in white jersey instead of grey
//! sweat fabric" — with user-defined weight customisation (Tab. IX).
//!
//! Run with `cargo run --release --example ecommerce_search`.

use must::data::catalog::ShoppingCategory;
use must::data::embed::embed_dataset;
use must::encoders::{ComposerKind, EncoderConfig, EncoderRegistry, LatentSpace, TargetEncoding, UnimodalKind};
use must::prelude::*;
use must::vector::kernels;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = must::data::catalog::shopping(ShoppingCategory::TShirt, 0.25, 11);
    println!("{}", dataset.stats_row());

    let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 11);
    let config = EncoderConfig::new(
        TargetEncoding::Composed(ComposerKind::Tirg),
        vec![UnimodalKind::Encoding],
    );
    let embedded = embed_dataset(&dataset, &config, &registry);
    let query = embedded.queries.last().expect("workload").clone();

    // The same corpus under three *user-defined* weight configurations:
    // balanced, image-heavy, text-heavy (Fig. 4(g) Option 2 / Tab. IX).
    for (name, w0_sq, w1_sq) in [
        ("balanced    (w0^2=0.5, w1^2=0.5)", 0.5, 0.5),
        ("image-heavy (w0^2=0.9, w1^2=0.1)", 0.9, 0.1),
        ("text-heavy  (w0^2=0.1, w1^2=0.9)", 0.1, 0.9),
    ] {
        let weights = Weights::from_squared(vec![w0_sq, w1_sq])?;
        let must = Must::build(embedded.objects.clone(), weights, MustBuildOptions::default())?;
        let hits = must.search(&query.query, 5, 100)?.results;
        // Report how similar the top hit is to each query modality.
        let top = hits[0].0;
        let s_img = kernels::ip(
            query.query.slot(0).unwrap(),
            must.objects().modality(0).get(top),
        );
        let s_txt = kernels::ip(
            query.query.slot(1).unwrap(),
            must.objects().modality(1).get(top),
        );
        println!(
            "{name}: top hit object {top:>6}  image-sim {s_img:.3}  text-sim {s_txt:.3}"
        );
    }
    println!(
        "\nIncreasing a modality's weight pulls results towards that modality \
         (the paper's Tab. IX customisation property)."
    );
    Ok(())
}
