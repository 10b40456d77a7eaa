//! Query-time weighting: one frozen server, many user weight vectors.
//!
//! The engine stores unscaled fused rows, so modality weights are a
//! per-query parameter — "adjust omega" is a serving feature, not an
//! offline rebuild.  This example builds one bundle, loads it into a
//! single `MustServer`, and serves three different user weight vectors
//! **concurrently** from the same frozen snapshot, printing each user's
//! top-k.
//!
//! A weight override is a parameter of one query, not a second API: every
//! entry point funnels into `EngineWorker::run_query(query, weights, k,
//! l)`, where `None` means the frozen defaults.  `search_weighted` is a
//! provided method of the `ServeEngine` trait (in the prelude), so the
//! same call serves a `ShardedServer` too.
//!
//! Run with `cargo run --release --example user_weights`.

use must::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Offline: one corpus, one build, one bundle. ------------------
    // 96 synthetic products in two modalities (image-ish, text-ish).
    let (dim_img, dim_txt, n) = (16, 8, 96);
    let mut m0 = VectorSetBuilder::new(dim_img, n);
    let mut m1 = VectorSetBuilder::new(dim_txt, n);
    let mut x = 0.73f32;
    for _ in 0..n {
        let img: Vec<f32> = (0..dim_img)
            .map(|_| {
                x = (x * 53.71).fract() + 0.01;
                x
            })
            .collect();
        let txt: Vec<f32> = (0..dim_txt)
            .map(|_| {
                x = (x * 53.71).fract() + 0.01;
                x
            })
            .collect();
        m0.push_normalized(&img)?;
        m1.push_normalized(&txt)?;
    }
    let objects = FusedRows::new(vec![m0.finish(), m1.finish()])?;
    let must = Must::build(objects, Weights::uniform(2), MustBuildOptions::default())?;
    let path = std::env::temp_dir().join("must-user-weights.mustb");
    persist::save(&must, &path)?;

    // ---- Online: one load, three users, three weight vectors. ---------
    let server = MustServer::load(&path)?;
    println!(
        "serving {} objects from one frozen snapshot (default weights^2 = {:?})",
        server.len(),
        server.weights().squared()
    );

    // A query mixing object 10's image with object 55's text: the weights
    // decide which anchor wins.
    let query = MultiQuery::full(vec![
        server.objects().modality(0).get(10).to_vec(),
        server.objects().modality(1).get(55).to_vec(),
    ]);

    let users = [
        ("image-first", Weights::from_squared(vec![0.9, 0.1])?),
        ("balanced", Weights::uniform(2)),
        ("text-first", Weights::from_squared(vec![0.1, 0.9])?),
    ];

    // Every user searches the same server concurrently; no rebuild, no
    // re-freeze, no copies — the override rides on the query row alone.
    std::thread::scope(|scope| {
        for (name, weights) in &users {
            let server = &server;
            let query = &query;
            scope.spawn(move || {
                let out = server
                    .search_weighted(query, weights, 3, 32)
                    .expect("well-formed query");
                let top: Vec<String> = out
                    .results
                    .iter()
                    .map(|(id, sim)| format!("{id} ({sim:.3})"))
                    .collect();
                println!("user {name:<12} w^2 = {:?} -> top-3: {}", weights.squared(), top.join(", "));
            });
        }
    });

    // Smooth interpolation between two users' preferences — a weight
    // slider served from the same snapshot.
    let (a, b) = (&users[0].1, &users[2].1);
    for step in 0..=4 {
        let t = step as f32 / 4.0;
        let blended = Weights::blend(a, b, t)?;
        let out = server.search_weighted(&query, &blended, 1, 32)?;
        println!(
            "blend t={t:.2} w^2 = [{:.2}, {:.2}] -> top id {}",
            blended.sq(0),
            blended.sq(1),
            out.results[0].0
        );
    }

    // Sanity: the extremes route to the modality anchors.
    let img_top = server.search_weighted(&query, &Weights::from_squared(vec![0.999, 0.001])?, 1, 64)?;
    let txt_top = server.search_weighted(&query, &Weights::from_squared(vec![0.001, 0.999])?, 1, 64)?;
    assert_eq!(img_top.results[0].0, 10, "image-heavy weights find the image anchor");
    assert_eq!(txt_top.results[0].0, 55, "text-heavy weights find the text anchor");

    // The default path is the same body with `None`: overriding with the
    // frozen weights changes nothing, bit for bit.
    let mut worker = server.worker();
    let default = worker.run_query(&query, None, 3, 32)?;
    let explicit = worker.run_query(&query, Some(server.weights()), 3, 32)?;
    assert_eq!((default.results, default.stats), (explicit.results, explicit.stats));

    std::fs::remove_file(&path)?;
    Ok(())
}
