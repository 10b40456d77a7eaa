//! Sharded scatter-gather integration tests: the S-shard server must agree
//! **bit-for-bit** with the single-shard `MustServer` oracle on the same
//! corpus (the gather merge is exact, per-shard similarities are the same
//! float ops as the unsharded engine's), stay thread-count invariant like
//! PR 2's server, and round-trip through the sharded bundle manifest.
//! Selective routing rides the same contracts: `r = S` routing is pinned
//! bit-identical to the unrouted scatter, post-insert radius growth keeps
//! routed searches able to find new objects, and query-time weight
//! overrides route exactly as a deployment frozen under those weights
//! would (summaries are stored unweighted; ω² is applied query-side).

use must::data::embed::embed_dataset;
use must::encoders::{
    ComposerKind, EncoderConfig, EncoderRegistry, LatentSpace, TargetEncoding, UnimodalKind,
};
use must::prelude::*;

/// Embeds a small MIT-States-style corpus and returns the corpus, weights,
/// and a 48-query workload.
fn fixture() -> (FusedRows, Weights, Vec<MultiQuery>) {
    let ds = must::data::catalog::mit_states(0.05, 1717);
    let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 1717);
    let config = EncoderConfig::new(
        TargetEncoding::Composed(ComposerKind::Clip),
        vec![UnimodalKind::Lstm],
    );
    let embedded = embed_dataset(&ds, &config, &registry);
    let queries: Vec<MultiQuery> =
        embedded.queries.iter().take(48).map(|q| q.query.clone()).collect();
    assert_eq!(queries.len(), 48, "fixture needs a full 48-query workload");
    (embedded.objects, Weights::new(vec![0.8, 0.5]).unwrap(), queries)
}

fn build_opts() -> MustBuildOptions {
    MustBuildOptions { gamma: 16, ..Default::default() }
}

/// The acceptance pin: for S in {2, 4, 8}, the sharded server's ranked
/// `(global id, similarity)` lists equal the S = 1 `MustServer` oracle's
/// bit for bit at an `l` where both resolve the exact joint top-k.  This
/// holds because (a) shard rows carry the same `f32` values at the same
/// lane offsets, so per-shard similarities are bitwise equal to the
/// unsharded engine's, and (b) the gather merge re-ranks by that exact
/// similarity over a candidate superset of the oracle's results.
#[test]
fn sharded_results_match_single_shard_oracle_bitwise() {
    let (objects, weights, queries) = fixture();
    let (k, l) = (10, 400);

    let oracle = MustServer::freeze(
        Must::build(objects.clone(), weights.clone(), build_opts()).unwrap(),
    );
    let mut oracle_worker = oracle.worker();
    let expected: Vec<_> =
        queries.iter().map(|q| oracle_worker.search(q, k, l).unwrap()).collect();

    for shards in [2usize, 4, 8] {
        let sharded = ShardedMust::build(
            objects.clone(),
            weights.clone(),
            build_opts(),
            ShardSpec::clustered(shards),
        )
        .unwrap();
        assert_eq!(sharded.num_shards(), shards);
        let server = ShardedServer::freeze(sharded);
        let mut worker = server.worker();
        for (qi, (q, want)) in queries.iter().zip(&expected).enumerate() {
            let got = worker.search(q, k, l).unwrap();
            assert_eq!(
                got.results, want.results,
                "S={shards} query {qi}: sharded merge must equal the single-shard oracle"
            );
        }
    }
}

/// Scatter (one scoped thread per shard), the sequential worker path, and
/// every `search_batch` thread count must agree bit-for-bit.
#[test]
fn sharded_serving_is_thread_count_invariant() {
    let (objects, weights, queries) = fixture();
    let (k, l) = (10, 60);
    let sharded =
        ShardedMust::build(objects, weights, build_opts(), ShardSpec::clustered(4)).unwrap();
    let server = ShardedServer::freeze(sharded);

    let mut worker = server.worker();
    let serial: Vec<_> = queries.iter().map(|q| worker.search(q, k, l).unwrap()).collect();

    // The one-off path (a transient worker) agrees with a reused worker.
    for (qi, (q, want)) in queries.iter().zip(&serial).enumerate() {
        let got = server.search(q, k, l).unwrap();
        assert_eq!(got.results, want.results, "scatter query {qi}");
        assert_eq!(got.stats, want.stats, "scatter query {qi}");
    }

    // The batch API agrees for every thread count.
    for threads in [1, 3, 8] {
        let batch = server.search_batch(&queries, k, l, threads);
        for (qi, (got, want)) in batch.into_iter().zip(&serial).enumerate() {
            let got = got.unwrap();
            assert_eq!(got.results, want.results, "batch({threads}) query {qi}");
            assert_eq!(got.stats, want.stats, "batch({threads}) query {qi}");
        }
    }
}

/// Query-time weight overrides through the scatter-gather stack: for
/// S ∈ {2, 4}, `search_weighted(q, w)` on a sharded server frozen with
/// default weights must equal — bit for bit — a sharded server whose
/// shards were re-frozen with `w` over the *same* per-shard indexes.
/// The scatter threads the same override to every shard and the gather
/// merges candidates scored under that same override, so the DESIGN §7
/// ordering argument (sim desc, global id asc — a total order) holds
/// unchanged.
#[test]
fn sharded_weight_overrides_match_refrozen_shards() {
    let (objects, default_w, queries) = fixture();
    let override_w = Weights::from_squared(vec![0.15, 0.85]).unwrap();
    let (k, l) = (10, 60);

    for shards in [2usize, 4] {
        let built = ShardedMust::build(
            objects.clone(),
            default_w.clone(),
            build_opts(),
            ShardSpec::clustered(shards),
        )
        .unwrap();
        // Re-wrap every shard's prebuilt index under the override weights
        // — the offline redeploy the serving feature replaces.
        let refrozen_shards: Vec<Must> = (0..shards)
            .map(|s| {
                let shard = built.shard(s);
                Must::from_parts(
                    shard.objects().clone(),
                    override_w.clone(),
                    shard.index().clone(),
                    build_opts(),
                )
                .unwrap()
            })
            .collect();
        let id_maps: Vec<Vec<u32>> = (0..shards).map(|s| built.global_ids(s).to_vec()).collect();
        let refrozen = ShardedServer::freeze(
            ShardedMust::from_parts(refrozen_shards, id_maps).unwrap(),
        );
        let server = ShardedServer::freeze(built);

        let mut worker = server.worker();
        for (qi, q) in queries.iter().take(24).enumerate() {
            let got = server.search_weighted(q, &override_w, k, l).unwrap();
            let want = refrozen.search(q, k, l).unwrap();
            assert_eq!(
                got.results, want.results,
                "S={shards} query {qi}: override must equal re-frozen shards"
            );
            assert_eq!(got.stats, want.stats, "S={shards} query {qi}");
            // A reused worker and the one-off path agree under overrides
            // too.
            let seq = worker.run_query(q, Some(&override_w), k, l).unwrap();
            assert_eq!(seq.results, got.results, "S={shards} query {qi}: worker");
            // Gather ordering: total order (sim desc, global id asc).
            for pair in got.results.windows(2) {
                assert!(
                    pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                    "S={shards} query {qi}: gather order violated"
                );
            }
        }

        // Batch override path is thread-count invariant.
        let serial = server.search_batch_weighted(&queries[..16], &override_w, k, l, 1);
        for threads in [2, 8] {
            let batch = server.search_batch_weighted(&queries[..16], &override_w, k, l, threads);
            for (qi, (a, b)) in batch.iter().zip(&serial).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.results, b.results, "S={shards} threads={threads} query {qi}");
            }
        }
    }
}

/// Offline sharded build → bundle v6 on disk → `ShardedServer::load` →
/// results identical to the in-process freeze, with the id maps intact.
#[test]
fn bundle_v6_load_serves_identically() {
    let (objects, weights, queries) = fixture();
    let sharded =
        ShardedMust::build(objects, weights, build_opts(), ShardSpec::clustered(3)).unwrap();
    let dir = std::env::temp_dir().join("must-sharding-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("sharded-{}.mustb", std::process::id()));
    persist::save_sharded(&sharded, &path).unwrap();
    let direct = ShardedServer::freeze(sharded);

    let loaded = ShardedServer::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded.num_shards(), 3);
    assert_eq!(loaded.len(), direct.len());
    for (qi, q) in queries.iter().take(16).enumerate() {
        let a = direct.search(q, 10, 60).unwrap();
        let b = loaded.search(q, 10, 60).unwrap();
        assert_eq!(a.results, b.results, "query {qi}");
        assert_eq!(a.stats, b.stats, "query {qi}");
    }
}

/// A v5 single-shard bundle loads into the sharded serving layer as one
/// shard and serves exactly what the single-shard server serves.
#[test]
fn sharded_layer_adopts_v5_bundles() {
    let (objects, weights, queries) = fixture();
    let must = Must::build(objects, weights, build_opts()).unwrap();
    let dir = std::env::temp_dir().join("must-sharding-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("adopt-v5-{}.mustb", std::process::id()));
    persist::save(&must, &path).unwrap();
    let single = MustServer::freeze(must);

    let adopted = ShardedServer::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(adopted.num_shards(), 1);
    for (qi, q) in queries.iter().take(16).enumerate() {
        let a = single.search(q, 10, 60).unwrap();
        let b = adopted.search(q, 10, 60).unwrap();
        assert_eq!(a.results, b.results, "query {qi}");
        assert_eq!(a.stats, b.stats, "query {qi}");
    }
}

/// The acceptance pin for the routing knob: `RoutePolicy::new(S)` (full
/// fan-out, no per-shard beam override) must be **bit-identical** to the
/// unrouted scatter for S ∈ {2, 4, 8} — one-off, worker, and every batch
/// thread count.  Routing at `fan_out >= S` selects every shard in index
/// order with the caller's own `l`, so the per-shard searches and the
/// gather see exactly the calls the unrouted path makes.
#[test]
fn full_fan_out_routing_is_bit_identical_to_unrouted() {
    let (objects, weights, queries) = fixture();
    let (k, l) = (10, 60);
    for shards in [2usize, 4, 8] {
        let sharded = ShardedMust::build(
            objects.clone(),
            weights.clone(),
            build_opts(),
            ShardSpec::clustered(shards),
        )
        .unwrap();
        let server = ShardedServer::freeze(sharded);
        let routed = server.with_routing(RoutePolicy::new(shards));
        assert_eq!(routed.routing(), Some(RoutePolicy::new(shards)));

        let mut worker = routed.worker();
        // Zero results asked for: a typed error from the planner on every
        // path, before any shard is routed to or searched.
        for got in [server.search(&queries[0], 0, l), routed.search(&queries[0], 0, l)] {
            assert!(matches!(got, Err(must::core::MustError::Config(_))), "S={shards}: {got:?}");
        }
        assert!(matches!(worker.search(&queries[0], 0, l), Err(must::core::MustError::Config(_))));
        for (qi, q) in queries.iter().enumerate() {
            let want = server.search(q, k, l).unwrap();
            let got = routed.search(q, k, l).unwrap();
            assert_eq!(got.results, want.results, "S={shards} query {qi}: routed scatter");
            assert_eq!(got.stats, want.stats, "S={shards} query {qi}: routed scatter stats");
            let seq = worker.search(q, k, l).unwrap();
            assert_eq!(seq.results, want.results, "S={shards} query {qi}: routed worker");
            assert_eq!(seq.stats, want.stats, "S={shards} query {qi}: routed worker stats");
        }

        let serial = server.search_batch(&queries, k, l, 1);
        for threads in [1, 3, 8] {
            let batch = routed.search_batch(&queries, k, l, threads);
            for (qi, (got, want)) in batch.into_iter().zip(&serial).enumerate() {
                let (got, want) = (got.unwrap(), want.as_ref().unwrap());
                assert_eq!(
                    got.results, want.results,
                    "S={shards} threads={threads} query {qi}: routed batch"
                );
                assert_eq!(got.stats, want.stats, "S={shards} threads={threads} query {qi}");
            }
        }
    }
}

/// Routed recall, pinned in tier 1 (the retired serving-bench checker
/// only ever gated it on a committed file): a clustered S = 4 deployment
/// routed to the r = 2 best-scoring shards with half the beam each must
/// stay within 0.03 of its own full fan-out's Recall@10 against the exact
/// joint oracle, and above an absolute floor.  Routing to the *lowest*
/// scoring shards instead fails both bars.
#[test]
fn routed_recall_stays_near_full_fan_out() {
    let (objects, weights, queries) = fixture();
    let (k, l) = (10usize, 60usize);
    let ground_truth =
        must::core::search::exact_ground_truth(&objects, &weights, &queries, k).unwrap();
    let server = ShardedServer::freeze(
        ShardedMust::build(objects, weights, build_opts(), ShardSpec::clustered(4)).unwrap(),
    );
    let routed = server.with_routing(RoutePolicy::with_beam(2, l.div_ceil(2)));
    let recall = |server: &ShardedServer| -> f64 {
        let mut worker = server.worker();
        let sum: f64 = queries
            .iter()
            .zip(&ground_truth)
            .map(|(q, gt)| {
                let out = worker.search(q, k, l).unwrap();
                let ids: Vec<u32> = out.results.iter().map(|r| r.0).collect();
                recall_at(&ids, gt, k)
            })
            .sum();
        sum / queries.len() as f64
    };
    let (full, half) = (recall(&server), recall(&routed));
    // With the router's sort flipped the routed figure is 0.0104.
    assert!(
        half >= full - 0.03 && half >= 0.95,
        "routed recall@10 {half:.4} vs full fan-out {full:.4}: must be within 0.03 of it \
         and >= 0.95 (0.9979 / 0.9979 at parent 9aa6faa, debug and release)"
    );
}

/// Radius growth after `insert_object` keeps routing honest: a corpus of
/// three tight blobs is clustered into three shards, then an object
/// orthogonal to every blob is inserted.  The insert widens only the
/// target shard's radii around its *fixed* centroid, which is exactly
/// what lets a `fan_out = 1` routed self-query still reach the new
/// object — if the summary had stayed stale, the router would steer the
/// query to a shard that cannot contain it.
#[test]
fn routed_search_finds_objects_inserted_after_freeze() {
    // Three blobs along axes e0/e1/e2 (tiny deterministic jitter on a
    // disjoint coordinate keeps radii small), HNSW so shards can grow.
    let n = 30usize;
    let mut m0 = VectorSetBuilder::new(8, n);
    let mut m1 = VectorSetBuilder::new(4, n);
    for i in 0..n {
        let b = i % 3;
        let mut v0 = vec![0.0f32; 8];
        v0[b] = 1.0;
        v0[4 + b] = 0.1 * ((i / 3) % 3) as f32;
        m0.push_normalized(&v0).unwrap();
        let mut v1 = vec![0.0f32; 4];
        v1[b] = 1.0;
        v1[3] = 0.05 * (i % 4) as f32;
        m1.push_normalized(&v1).unwrap();
    }
    let objects = FusedRows::new(vec![m0.finish(), m1.finish()]).unwrap();
    let opts = MustBuildOptions { recipe: must::graph::GraphRecipe::Hnsw, ..Default::default() };
    let mut sharded = ShardedMust::build(
        objects,
        Weights::uniform(2),
        opts,
        ShardSpec::clustered(3),
    )
    .unwrap();

    // The new object points along axes no blob occupies.
    let mut n0 = vec![0.0f32; 8];
    n0[3] = 1.0;
    let n1 = vec![0.0f32, 0.0, 0.0, 1.0];
    let new_id = sharded.insert_object(&[n0.clone(), n1.clone()]).unwrap();
    assert_eq!(new_id as usize, n);

    let server = ShardedServer::freeze(sharded)
        .with_routing(RoutePolicy::with_beam(1, 20));
    let query = MultiQuery::full(vec![n0, n1]);
    let hits = server.search(&query, 3, 20).unwrap();
    assert_eq!(
        hits.results[0].0, new_id,
        "a fan_out=1 routed self-query must find the freshly inserted object"
    );
}

/// Query-time weight overrides steer the router exactly as a deployment
/// whose summaries were frozen under those weights: summaries store
/// **unweighted** per-modality terms and the router applies ω² on the
/// query side, so `search_weighted(q, w)` on a default-weight snapshot
/// must match — bit for bit, routed at r < S — a server re-frozen under
/// `w` over the same shard indexes and the same persisted summaries (the
/// bundle-v6 reassembly path; clustered summaries cover only the
/// primary-member prefix, so a full re-derivation would not reproduce
/// them).
#[test]
fn routed_weight_overrides_match_refrozen_summaries() {
    let (objects, default_w, queries) = fixture();
    let override_w = Weights::from_squared(vec![0.15, 0.85]).unwrap();
    let (k, l) = (10, 60);
    let shards = 4usize;

    let built = ShardedMust::build(
        objects,
        default_w,
        build_opts(),
        ShardSpec::clustered(shards),
    )
    .unwrap();
    let refrozen_shards: Vec<Must> = (0..shards)
        .map(|s| {
            let shard = built.shard(s);
            Must::from_parts(
                shard.objects().clone(),
                override_w.clone(),
                shard.index().clone(),
                build_opts(),
            )
            .unwrap()
        })
        .collect();
    let id_maps: Vec<Vec<u32>> = (0..shards).map(|s| built.global_ids(s).to_vec()).collect();
    let summaries: Vec<_> = (0..shards).map(|s| built.summary(s).clone()).collect();
    let refrozen = ShardedServer::freeze(
        ShardedMust::from_parts_with_summaries(refrozen_shards, id_maps, summaries).unwrap(),
    );
    let server = ShardedServer::freeze(built);
    for s in 0..shards {
        assert_eq!(server.summary(s), refrozen.summary(s), "summaries adopt the persisted parts");
    }

    for policy in [RoutePolicy::with_beam(1, 30), RoutePolicy::with_beam(2, 30)] {
        let routed = server.with_routing(policy);
        let reference = refrozen.with_routing(policy);
        for (qi, q) in queries.iter().take(24).enumerate() {
            let got = routed.search_weighted(q, &override_w, k, l).unwrap();
            let want = reference.search(q, k, l).unwrap();
            assert_eq!(
                got.results, want.results,
                "policy {policy:?} query {qi}: override routing must equal frozen-weight routing"
            );
            assert_eq!(got.stats, want.stats, "policy {policy:?} query {qi}");
        }
    }
}

/// The sharded serve loop (runtime-backed, persistent per-worker shard
/// scratch) answers a full request stream with, per query, exactly the
/// sequential `ShardedWorker` outcome — bit-identity across runtime
/// workers, through the scatter path.
#[test]
fn sharded_serve_loop_matches_sequential_worker() {
    let (objects, weights, queries) = fixture();
    let (k, l) = (10, 80);
    let sharded = ShardedMust::build(objects, weights, build_opts(), ShardSpec::clustered(3)).unwrap();
    let server = ShardedServer::freeze(sharded);
    let mut worker = server.worker();
    let serial: Vec<_> = queries.iter().map(|q| worker.search(q, k, l).unwrap()).collect();

    let (req_tx, req_rx) = std::sync::mpsc::channel();
    let (rep_tx, rep_rx) = std::sync::mpsc::channel();
    for (i, q) in queries.iter().enumerate() {
        req_tx.send(ServeRequest { id: i as u64, query: q.clone(), k, l }).unwrap();
    }
    drop(req_tx);
    let served = server.serve(req_rx, rep_tx, 4);
    assert_eq!(served, queries.len());

    let mut replies: Vec<ServeReply> = rep_rx.iter().collect();
    assert_eq!(replies.len(), queries.len());
    replies.sort_by_key(|r| r.id);
    for (i, rep) in replies.into_iter().enumerate() {
        assert_eq!(rep.id, i as u64);
        let out = rep.outcome.unwrap();
        assert_eq!(out.results, serial[i].results, "request {i}");
        assert_eq!(out.stats, serial[i].stats, "request {i}");
    }
}
