//! The serving sweeps the repo benchmark (`benchmark/`, `BENCHMARK.json`)
//! does not take yet, over a MIT-States-style corpus served by
//! [`must_core::MustServer`] / [`must_core::shard::ShardedServer`], with
//! Recall@10 against the exact joint-similarity oracle:
//!
//! * a **shard sweep** (S ∈ {1, 2, 4, 8}) through the scatter-gather path,
//! * a **routing sweep** (clustered S = 8, fan-out r ∈ {1, 2, 4, 8}) showing
//!   what selective shard routing buys once similar objects share a shard,
//! * the §VIII-F **weight-churn** pair: the query stream switches its user
//!   weight vector every Q queries, served by per-query weight overrides on
//!   one snapshot vs the rebuild-per-switch baseline prescaled storage
//!   would require.
//!
//! `--scale` runs *only* the **scale tier**: a semi-synthetic ImageText
//! corpus streamed object-by-object through the encoders (1M objects by
//! default; `MUST_SCALE_N` overrides, else `MUST_SCALE` scales the
//! million), SQ8-quantized, and served through the quantized-scan +
//! exact-re-rank path.
//!
//! Each table goes through [`Table::emit`] (stdout plus
//! `EXPERIMENTS-out/serving_*.{txt,json}`); nothing else is written.  One
//! pass per row, every timing is this host's: compare rows of one run, not
//! runs.  The exit code is the check — every row's queries must all be
//! answered, and the scale tier must hold Recall@10 ≥ 0.97 at n ≥ 1M
//! (≥ 0.9 below) at ≤ 5 hot-path bytes per dimension; 1 also when a table
//! could not be written, 2 on a malformed `MUST_SCALE` / `MUST_SCALE_N`.
//! Thread × batch scaling, the open-loop ladder and the build speedup are
//! `benchmark/`'s (`ops_per_s`, `core.server.batch64_qps`, `open.r*`,
//! `graph.par.build_speedup`).

use std::io;
use std::process::ExitCode;
use std::time::Instant;

use must_bench::efficiency::{prepare, semisynthetic_config};
use must_bench::report::{f4, percentile_ms, Table};
use must_core::metrics::recall_at;
use must_core::runtime::ServeEngine;
use must_core::search::{exact_ground_truth, SearchOutcome};
use must_core::server::MustServer;
use must_core::shard::{RoutePolicy, ShardSpec, ShardedMust, ShardedServer};
use must_core::{Must, MustBuildOptions, MustError};
use must_data::semisynthetic::{SemiSyntheticSpec, SemiSyntheticStream};
use must_encoders::{Embedder, UnimodalKind};
use must_graph::GraphRecipe;
use must_vector::{MultiQuery, MultiVectorSet, ObjectId, VectorSetBuilder, Weights};

/// The operating point of every sweep: top-`K` at beam `L` (the scale tier
/// widens its beam from `L`), arrival batches of `BATCH` queries.
const K: usize = 10;
const L: usize = 100;
const BATCH: usize = 64;

/// Throughput, per-query latency percentiles and mean Recall@`K` of one row.
struct Point {
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    recall: f64,
}

impl Point {
    /// The four cells every table ends with.
    fn cells(&self) -> [String; 4] {
        [format!("{:.0}", self.qps), f4(self.p50_ms), f4(self.p99_ms), f4(self.recall)]
    }
}

/// `lead` followed by the headers of [`Point::cells`].
fn headers(lead: &[&'static str]) -> Vec<&'static str> {
    [lead, &["QPS", "p50 (ms)", "p99 (ms)", "Recall@10"]].concat()
}

/// Drives the workload through a batch-search entry point in chunks of
/// `batch` — `search_batch(chunk index, chunk)` — and reduces it to a
/// [`Point`].  Whatever the closure does sits inside the timed region;
/// recall scoring runs after the clock stops.
fn measure(
    search_batch: impl Fn(usize, &[MultiQuery]) -> Vec<Result<SearchOutcome, MustError>>,
    queries: &[MultiQuery],
    ground_truth: &[Vec<ObjectId>],
    batch: usize,
) -> Point {
    let mut outcomes: Vec<SearchOutcome> = Vec::with_capacity(queries.len());
    let t0 = Instant::now();
    for (ci, qs) in queries.chunks(batch).enumerate() {
        for out in search_batch(ci, qs) {
            outcomes.push(out.expect("workload queries are well-formed"));
        }
    }
    let qps = queries.len() as f64 / t0.elapsed().as_secs_f64();
    assert_eq!(outcomes.len(), queries.len(), "every query of a row must be answered");
    let mut latencies: Vec<f64> = outcomes.iter().map(|out| out.secs).collect();
    latencies.sort_unstable_by(f64::total_cmp);
    let recall_sum: f64 = outcomes
        .iter()
        .zip(ground_truth)
        .map(|(out, gt)| {
            let ids: Vec<ObjectId> = out.results.iter().map(|r| r.0).collect();
            recall_at(&ids, gt, K)
        })
        .sum();
    Point {
        qps,
        p50_ms: percentile_ms(&latencies, 50.0),
        p99_ms: percentile_ms(&latencies, 99.0),
        recall: recall_sum / queries.len() as f64,
    }
}

/// The corpus, learned weights and workload the three sweeps share.
struct Workload {
    corpus: MultiVectorSet,
    weights: Weights,
    queries: Vec<MultiQuery>,
    ground_truth: Vec<Vec<ObjectId>>,
    /// The host's available parallelism: every batch runs on this many workers.
    threads: usize,
}

impl Workload {
    /// The operating point every table title carries.
    fn label(&self) -> String {
        format!(
            "{} objects, {} queries, k={K} l={L} threads=host_threads={}",
            self.corpus.len(),
            self.queries.len(),
            self.threads
        )
    }

    fn sharded(&self, spec: ShardSpec) -> ShardedMust {
        ShardedMust::build(
            self.corpus.clone(),
            self.weights.clone(),
            MustBuildOptions::default(),
            spec,
        )
        .expect("shard build")
    }

    fn measure_sharded(&self, server: &ShardedServer) -> Point {
        measure(
            |_, qs| server.search_batch(qs, K, L, self.threads),
            &self.queries,
            &self.ground_truth,
            BATCH,
        )
    }
}

/// Shard sweep: what sharding buys (parallel build, bounded per-shard
/// memory) and what the full-fan-out scatter-gather costs at query time.
fn shard_sweep(w: &Workload) -> io::Result<()> {
    let mut table = Table::new(
        "Serving shards",
        &format!("clustered shards, full fan-out, batch={BATCH} ({})", w.label()),
        &headers(&["S", "Build (s)", "Build threads"]),
    );
    for shards in [1usize, 2, 4, 8].into_iter().filter(|&s| s <= w.corpus.len()) {
        let t0 = Instant::now();
        let sharded = w.sharded(ShardSpec::clustered(shards));
        let build_secs = t0.elapsed().as_secs_f64();
        let point = w.measure_sharded(&ShardedServer::freeze(sharded));
        let mut row = vec![
            shards.to_string(),
            f4(build_secs),
            must_graph::par::build_threads().to_string(),
        ];
        row.extend(point.cells());
        table.push_row(row);
    }
    table.emit()
}

/// Routing sweep: a clustered assignment groups similar objects per shard,
/// the router scores each query against per-shard summaries under the
/// active ω² weights, and only the top-`r` shards are searched with a
/// per-shard beam that keeps the *total* candidate budget near the
/// single-shard `l`.  r = S is the full-fan-out reference point.
fn routing_sweep(w: &Workload) -> io::Result<()> {
    let shards = 8usize;
    if shards > w.corpus.len() {
        eprintln!("[serving] skipping routing sweep: corpus has only {} objects", w.corpus.len());
        return Ok(());
    }
    let mut table = Table::new(
        "Serving routing",
        &format!("clustered S={shards}, top-r routed, batch={BATCH} ({})", w.label()),
        &headers(&["r", "l_shard"]),
    );
    let clustered = ShardedServer::freeze(w.sharded(ShardSpec::clustered(shards)));
    for fan_out in [1usize, 2, 4, shards] {
        let l_shard = L.div_ceil(fan_out).max(K);
        let routed = clustered.with_routing(RoutePolicy::with_beam(fan_out, l_shard));
        let mut row = vec![fan_out.to_string(), l_shard.to_string()];
        row.extend(w.measure_sharded(&routed).cells());
        table.push_row(row);
    }
    table.emit()
}

/// Weight churn (§VIII-F): the stream rotates through a cycle of user
/// weight vectors every `switch_every` queries.  Three rows over the same
/// stream, each scored against the exact oracle *under the chunk's own
/// weights*: steady state (one fixed weight vector), per-query overrides
/// on the same frozen snapshot, and the rebuild-per-switch baseline whose
/// clock includes every `Must::build` + freeze the prescaled storage model
/// would need.
fn churn_sweep(w: &Workload, server: &MustServer) -> io::Result<()> {
    let threads = w.threads;
    // The learned configuration plus two user-defined vectors (Tab. IX
    // style sweeps of omega^2).
    let cycle = [
        w.weights.clone(),
        Weights::from_squared(vec![0.8, 0.2]).expect("valid"),
        Weights::from_squared(vec![0.3, 0.7]).expect("valid"),
    ];
    // Bound the rebuild count so the baseline stays measurable at any
    // scale: roughly 6 switches over the stream.
    let n = w.queries.len();
    let switch_every = (n / 6).max(16).min(n.max(1));
    let per_weight: Vec<Vec<Vec<ObjectId>>> = cycle
        .iter()
        .map(|cw| exact_ground_truth(&w.corpus, cw, &w.queries, K).expect("valid workload"))
        .collect();
    let churn_truth: Vec<Vec<ObjectId>> = (0..n)
        .map(|qi| per_weight[(qi / switch_every) % cycle.len()][qi].clone())
        .collect();

    let steady = measure(
        |_, qs| server.search_batch(qs, K, L, threads),
        &w.queries,
        &per_weight[0],
        switch_every,
    );
    let churn = measure(
        |ci, qs| server.search_batch_weighted(qs, &cycle[ci % cycle.len()], K, L, threads),
        &w.queries,
        &churn_truth,
        switch_every,
    );
    // Chunk 0 runs under the frozen default, which a prescaled deployment
    // already has; every later chunk pays a full offline build first.
    let rebuild = measure(
        |ci, qs| {
            let srv = if ci == 0 {
                server.clone()
            } else {
                let weights = cycle[ci % cycle.len()].clone();
                MustServer::freeze(
                    Must::build(w.corpus.clone(), weights, MustBuildOptions::default())
                        .expect("rebuild"),
                )
            };
            srv.search_batch(qs, K, L, threads)
        },
        &w.queries,
        &churn_truth,
        switch_every,
    );

    let mut table = Table::new(
        "Serving churn",
        &format!(
            "weights switch every {switch_every} queries, {} switches ({})",
            n.div_ceil(switch_every).saturating_sub(1),
            w.label()
        ),
        &headers(&["Path", "x steady"]),
    );
    for (path, point) in [
        ("steady (one weight vector)", &steady),
        ("per-query weight override", &churn),
        ("rebuild per switch", &rebuild),
    ] {
        let mut row = vec![path.to_string(), format!("{:.2}", point.qps / steady.qps)];
        row.extend(point.cells());
        table.push_row(row);
    }
    table.emit()
}

/// Streams `n` semi-synthetic ImageText objects through the encoders one
/// at a time (constant latent memory) and embeds the 64-query workload.
fn embed_semisynthetic(n: usize) -> (MultiVectorSet, Vec<MultiQuery>) {
    let stream = SemiSyntheticStream::new(SemiSyntheticSpec {
        name: "ImageText1M".into(),
        n_objects: n,
        n_queries: 64,
        n_attrs: 256,
        query_perturbation: 0.25,
        seed: must_bench::DATASET_SEED,
    });
    let registry = must_bench::registry();
    let image = registry.target_embedder(&semisynthetic_config());
    let text = registry.unimodal(UnimodalKind::Lstm);

    eprintln!("[serving] streaming + embedding {n} semi-synthetic objects");
    let mut b0 = VectorSetBuilder::new(image.dim(), n);
    let mut b1 = VectorSetBuilder::new(text.dim(), n);
    for id in 0..n as u64 {
        let latents = stream.object(id);
        b0.push_normalized(&image.embed(&latents[0])).expect("encoders emit valid vectors");
        b1.push_normalized(&text.embed(&latents[1])).expect("encoders emit valid vectors");
        if (id + 1) % 250_000 == 0 {
            eprintln!("[serving]   embedded {} / {n}", id + 1);
        }
    }
    let objects =
        MultiVectorSet::new(vec![b0.finish(), b1.finish()]).expect("equal cardinality");
    let queries = stream
        .queries()
        .iter()
        .map(|q| {
            let qi = q.latents[0].as_ref().expect("target latent supplied");
            let qt = q.latents[1].as_ref().expect("text latent supplied");
            MultiQuery::full(vec![image.embed(qi), text.embed(qt)])
        })
        .collect();
    (objects, queries)
}

/// The scale tier: embed, build HNSW, attach the SQ8 engine, and measure
/// the quantized-scan + exact-re-rank serving path against the exact joint
/// oracle.  A beam that is right-sized at 64k starves at 1M (0.98 → 0.84
/// at l = 100) and the build is the expensive part, so the beam doubles on
/// this one index until recall clears the floor with a little margin.
fn scale_tier(n: usize) -> io::Result<()> {
    let t0 = Instant::now();
    let (objects, queries) = embed_semisynthetic(n);
    let embed_secs = t0.elapsed().as_secs_f64();

    let weights = Weights::uniform(2);
    let ground_truth =
        exact_ground_truth(&objects, &weights, &queries, K).expect("valid workload");

    eprintln!("[serving] scale tier: building the index (embed took {}s)", f4(embed_secs));
    let t0 = Instant::now();
    let mut must = Must::build(
        objects,
        weights,
        MustBuildOptions { gamma: 16, recipe: GraphRecipe::Hnsw, ..Default::default() },
    )
    .expect("scale-tier build");
    must.quantize();
    let build_secs = t0.elapsed().as_secs_f64();

    // Hot-path bytes: stride f32 lanes retained for the exact re-rank plus
    // stride u8 codes for the quantized walk.
    let fused = must.objects().fused();
    let total_dims: usize = fused.dims().iter().sum();
    let bytes_per_object = fused.stride() * 5;
    let bytes_per_dim = bytes_per_object as f64 / total_dims as f64;

    let server = MustServer::freeze(must);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let run = |l: usize| {
        measure(|_, qs| server.search_batch(qs, K, l, threads), &queries, &ground_truth, 16)
    };
    let mut l = L;
    let mut point = run(l);
    while point.recall < 0.975 && l < 4096 {
        eprintln!("[serving]   recall@10 {} at l={l} — widening the beam", f4(point.recall));
        l *= 2;
        point = run(l);
    }

    let mut table = Table::new(
        "Serving scale",
        &format!("SQ8 scan + exact re-rank, ImageText1M stream (host_threads={threads})"),
        &headers(&[
            "n", "Dims", "B/object", "B/dim", "Embed (s)", "Build (s)", "Build threads",
            "Threads", "l", "Re-rank k",
        ]),
    );
    let mut row = vec![
        n.to_string(),
        total_dims.to_string(),
        bytes_per_object.to_string(),
        format!("{bytes_per_dim:.2}"),
        f4(embed_secs),
        f4(build_secs),
        must_graph::par::build_threads().to_string(),
        threads.to_string(),
        l.to_string(),
        (4 * K).min(n).to_string(),
    ];
    row.extend(point.cells());
    table.push_row(row);
    let written = table.emit();

    let floor = if n >= 1_000_000 { 0.97 } else { 0.9 };
    assert!(
        point.recall >= floor,
        "scale tier (n={n}): recall@10 {:.4} < {floor} — the quantized scan with exact re-rank \
         must hold recall at scale",
        point.recall
    );
    assert!(
        bytes_per_dim <= 5.0 + 1e-9,
        "scale tier (n={n}): {bytes_per_dim:.3} hot-path bytes per dimension > 5"
    );
    written
}

/// The shard, routing and weight-churn sweeps over one MIT-States corpus.
fn sweeps(scale: f64) -> io::Result<()> {
    let ds = must_data::catalog::mit_states(scale, must_bench::DATASET_SEED);
    must_bench::banner(&ds);
    // prepare() learns weights, computes the exact top-k oracle, and
    // builds the fused index — the offline phase.  freeze() is the
    // offline→online handover.
    let setup = prepare(&ds, K, MustBuildOptions::default());
    let workload = Workload {
        corpus: setup.must.objects().clone(),
        weights: setup.weights,
        queries: setup.queries,
        ground_truth: setup.ground_truth,
        threads: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let server = MustServer::freeze(setup.must);

    shard_sweep(&workload)?;
    routing_sweep(&workload)?;
    churn_sweep(&workload, &server)
}

fn main() -> ExitCode {
    // `MUST_SCALE_N` is the scale tier's object count; without it
    // `MUST_SCALE` scales the million.
    let sizes = must_bench::scale().and_then(|scale| {
        let n = must_bench::env_number::<usize>("MUST_SCALE_N", |_| true)?;
        Ok((scale, n.unwrap_or((1_000_000.0 * scale).round() as usize).max(256)))
    });
    let (scale, n) = match sizes {
        Ok(sizes) => sizes,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let written =
        if std::env::args().any(|a| a == "--scale") { scale_tier(n) } else { sweeps(scale) };
    if let Err(e) = written {
        eprintln!("artefact not written: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
