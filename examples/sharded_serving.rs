//! Sharded scatter-gather deployment: split a corpus over **clustered**
//! shards, build every shard in parallel, persist the whole deployment
//! (including per-shard routing summaries) as one bundle-v6 file, reload
//! it, and serve queries whose per-shard results merge by exact joint
//! similarity — first at full fan-out, then routed to a single shard via
//! the selective-routing dial.
//!
//! Run with `cargo run --release --example sharded_serving`.

use must::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Offline: build S shards in parallel and persist one bundle. --
    // Four "topics": each object leans strongly toward one anchor
    // coordinate, plus deterministic noise — the cluster structure the
    // clustered assignment (and hence selective routing) exploits.
    let (dim_img, dim_txt, n) = (16, 8, 120);
    let mut m0 = VectorSetBuilder::new(dim_img, n);
    let mut m1 = VectorSetBuilder::new(dim_txt, n);
    let mut x = 0.41f32;
    for i in 0..n {
        let topic = i % 4;
        let mut img: Vec<f32> = (0..dim_img)
            .map(|_| {
                x = (x * 61.17).fract() + 0.01;
                0.2 * x
            })
            .collect();
        img[topic] += 1.0;
        let mut txt: Vec<f32> = (0..dim_txt)
            .map(|_| {
                x = (x * 61.17).fract() + 0.01;
                0.2 * x
            })
            .collect();
        txt[topic] += 1.0;
        m0.push_normalized(&img)?;
        m1.push_normalized(&txt)?;
    }
    let objects = MultiVectorSet::new(vec![m0.finish(), m1.finish()])?;
    let queries: Vec<MultiQuery> = (0..6u32)
        .map(|i| {
            let id = i * 19;
            MultiQuery::full(vec![
                objects.modality(0).get(id).to_vec(),
                objects.modality(1).get(id).to_vec(),
            ])
        })
        .collect();

    let sharded = ShardedMust::build(
        objects,
        Weights::uniform(2),
        MustBuildOptions::default(),
        ShardSpec::clustered(4),
    )?;
    println!(
        "offline: built {} shards over {} objects (sizes: {:?})",
        sharded.num_shards(),
        sharded.len(),
        (0..sharded.num_shards()).map(|s| sharded.global_ids(s).len()).collect::<Vec<_>>()
    );
    let path = std::env::temp_dir().join("must-sharded-serving.mustb");
    persist::save_sharded(&sharded, &path)?;
    println!(
        "offline: bundle v6 at {} ({} bytes, summaries included)",
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // ---- Online: reload and serve scatter-gather. ---------------------
    // `search_batch` is the same `ServeEngine` method a `MustServer`
    // serves with: each query runs on one worker, which searches the
    // shards in order and gathers; the batch spreads queries over threads.
    let server = ShardedServer::load(&path)?;
    let outcomes = server.search_batch(&queries, 3, 16, 2);
    for (i, out) in outcomes.into_iter().enumerate() {
        let out = out?;
        println!(
            "online: query {i} -> global id {} (sim {:.3}, {} hops across {} shards)",
            out.results[0].0,
            out.results[0].1,
            out.stats.hops,
            server.num_shards()
        );
        assert_eq!(out.results[0].0, (i as u32) * 19, "self-query must find itself");
    }

    // ---- Selective routing: the (r, l_shard) dial. --------------------
    // r = S is pinned bit-identical to the unrouted scatter; smaller r
    // scores the query against every shard's summary (centroid + radius
    // per modality, under the active omega^2) and searches only the best
    // shards.  A self-query lives in exactly one clustered shard, so even
    // r = 1 finds it.
    let full = server.with_routing(RoutePolicy::new(server.num_shards()));
    let routed = server.with_routing(RoutePolicy::with_beam(1, 16));
    for (i, q) in queries.iter().enumerate() {
        let a = server.search(q, 3, 16)?;
        let b = full.search(q, 3, 16)?;
        assert_eq!(a.results, b.results, "r = S routing is bit-identical");
        let c = routed.search(q, 3, 16)?;
        println!(
            "routed: query {i} -> global id {} via 1 of {} shards (sim {:.3})",
            c.results[0].0,
            server.num_shards(),
            c.results[0].1
        );
        assert_eq!(c.results[0].0, (i as u32) * 19, "routed self-query must find itself");
    }

    std::fs::remove_file(&path)?;
    Ok(())
}
