//! Quickstart: build a MUST instance over a tiny hand-rolled multimodal
//! corpus and answer a "reference image + text modification" query.
//!
//! Run with `cargo run --release --example quickstart`.

use must::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A corpus of 8 "products", each with an image-like 4-d vector
    // (modality 0, the target) and a text-like 2-d attribute vector
    // (modality 1).  Axis 0/1 of the text space = "red" / "blue".
    let images: [[f32; 4]; 8] = [
        [1.0, 0.1, 0.0, 0.0], // 0: sneaker, red
        [1.0, 0.0, 0.1, 0.0], // 1: sneaker, blue
        [0.0, 1.0, 0.1, 0.0], // 2: boot, red
        [0.0, 1.0, 0.0, 0.1], // 3: boot, blue
        [0.0, 0.0, 1.0, 0.1], // 4: sandal, red
        [0.1, 0.0, 1.0, 0.0], // 5: sandal, blue
        [0.0, 0.1, 0.0, 1.0], // 6: heel, red
        [0.1, 0.0, 0.0, 1.0], // 7: heel, blue
    ];
    let texts: [[f32; 2]; 8] = [
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 0.0],
        [0.0, 1.0],
    ];
    let names = [
        "red sneaker", "blue sneaker", "red boot", "blue boot",
        "red sandal", "blue sandal", "red heel", "blue heel",
    ];

    let mut m0 = VectorSetBuilder::new(4, 8);
    let mut m1 = VectorSetBuilder::new(2, 8);
    for (img, txt) in images.iter().zip(&texts) {
        m0.push_normalized(img)?;
        m1.push_normalized(txt)?;
    }
    let objects = MultiVectorSet::new(vec![m0.finish(), m1.finish()])?;

    // Weights: either learned (see the face_retrieval example) or
    // user-defined.  Here we weight both modalities equally.
    let must = Must::build(objects, Weights::uniform(2), MustBuildOptions::default())?;

    // MSTM query: "something like the red sneaker (object 0), but blue".
    // Modality 0 carries the reference image, modality 1 the desired
    // attribute.
    let query = MultiQuery::full(vec![images[0].to_vec(), vec![0.0, 1.0]]);
    let hits = must.search(&query, 3, 8)?.results;

    println!("query: image of '{}' + text 'make it blue'", names[0]);
    for (rank, (id, sim)) in hits.iter().enumerate() {
        println!("  #{} {} (joint similarity {sim:.3})", rank + 1, names[*id as usize]);
    }
    assert_eq!(hits[0].0, 1, "the blue sneaker must win");

    // Queries may omit modalities: a text-only search (t < m) masks the
    // missing modality's weight (Section VII-B of the paper).
    let text_only = MultiQuery::partial(vec![None, Some(vec![0.0, 1.0])]);
    let blue_things = must.search(&text_only, 4, 8)?.results;
    println!("\ntext-only query 'blue':");
    for (id, _) in &blue_things {
        println!("  {}", names[*id as usize]);
    }
    Ok(())
}
