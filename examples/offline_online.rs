//! The deployment loop (Fig. 4's offline/online split): build offline,
//! persist a bundle-v5 snapshot, reload it as a shared `MustServer`, and
//! answer queries from several threads at once.
//!
//! Run with `cargo run --release --example offline_online`.

use must::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Offline: embed, build, persist. ------------------------------
    // (The quickstart example walks through the corpus itself; here it is
    // just 64 random-ish products in two modalities.)
    let (dim_img, dim_txt, n) = (16, 8, 64);
    let mut m0 = VectorSetBuilder::new(dim_img, n);
    let mut m1 = VectorSetBuilder::new(dim_txt, n);
    let mut x = 0.37f32;
    for _ in 0..n {
        let img: Vec<f32> = (0..dim_img)
            .map(|_| {
                x = (x * 61.17).fract() + 0.01;
                x
            })
            .collect();
        let txt: Vec<f32> = (0..dim_txt)
            .map(|_| {
                x = (x * 61.17).fract() + 0.01;
                x
            })
            .collect();
        m0.push_normalized(&img)?;
        m1.push_normalized(&txt)?;
    }
    let objects = FusedRows::new(vec![m0.finish(), m1.finish()])?;
    let must = Must::build(objects, Weights::uniform(2), MustBuildOptions::default())?;

    let path = std::env::temp_dir().join("must-offline-online.mustb");
    persist::save(&must, &path)?;
    println!(
        "offline: built over {n} objects, snapshot at {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // ---- Online: load the frozen snapshot and serve concurrently. -----
    let server = MustServer::load(&path)?;
    let queries: Vec<MultiQuery> = (0..8u32)
        .map(|i| {
            let id = i * 7;
            MultiQuery::full(vec![
                server.objects().modality(0).get(id).to_vec(),
                server.objects().modality(1).get(id).to_vec(),
            ])
        })
        .collect();

    // The batch API (a `ServeEngine` method, shared with `ShardedServer`)
    // fans the queries over worker threads; results are bit-identical to
    // serial execution.
    let outcomes = server.search_batch(&queries, 3, 16, 4);
    for (i, out) in outcomes.into_iter().enumerate() {
        let out = out?;
        println!(
            "online: query {i} -> top id {} (sim {:.3}, {} hops)",
            out.results[0].0, out.results[0].1, out.stats.hops
        );
        assert_eq!(out.results[0].0, (i as u32) * 7, "self-query must find itself");
    }

    // The serve loop (also a `ServeEngine` method) handles open-ended
    // request streams through a `ServeRuntime`.
    let (req_tx, req_rx) = std::sync::mpsc::channel();
    let (rep_tx, rep_rx) = std::sync::mpsc::channel();
    for (i, q) in queries.iter().enumerate() {
        req_tx.send(ServeRequest { id: i as u64, query: q.clone(), k: 1, l: 16 })?;
    }
    drop(req_tx);
    let served = server.serve(req_rx, rep_tx, 2);
    println!("online: serve loop answered {served} requests");
    assert_eq!(rep_rx.iter().count(), served);

    std::fs::remove_file(&path)?;
    Ok(())
}
