//! Workload definitions, seed-derived inputs, and the set-up every
//! workload shares: embed → learn weights → exact ground truth → build →
//! (quantize) → persist → load into a serving snapshot.
//!
//! Everything here is a pure function of `(workload, seed, smoke)`; no
//! environment variable changes a workload (`MUST_BUILD_THREADS` is
//! cleared at start-up and only ever set by the benchmark itself, for the
//! single-thread build reference).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use must_core::persist;
use must_core::search::exact_ground_truth;
use must_core::shard::{RoutePolicy, ShardSpec, ShardedMust, ShardedServer};
use must_core::weights::WeightLearnConfig;
use must_core::{Must, MustBuildOptions, MustServer};
use must_data::semisynthetic::{SemiSyntheticSpec, SemiSyntheticStream};
use must_encoders::{
    Embedder, EncoderConfig, EncoderRegistry, Latent, LatentSpace, TargetEncoding, UnimodalKind,
};
use must_graph::GraphRecipe;
use must_vector::{FusedRows, MultiQuery, MultiVectorSet, ObjectId, VectorSetBuilder, Weights};

/// Results wanted per query.
pub const K: usize = 10;
/// Result-pool size of every search.
pub const L: usize = 100;
/// Query anchors the weights are learned on (never timed as queries).
pub const N_ANCHORS: usize = 256;
/// Shards of the routed workload.
pub const SHARDS: usize = 8;
/// Routing of the routed workload: top-2 shards, per-shard beam 50.
pub const ROUTE_FAN_OUT: usize = 2;
pub const ROUTE_L_SHARD: usize = 50;
/// One query in five of the routed workload carries a weight override,
/// cycling through [`override_weights`].
pub const OVERRIDE_EVERY: usize = 5;

/// The three offered rates of the open loop (requests/second), frozen
/// after the calibration described in the README: on the reference
/// 2-thread host the runtime drains a backlog at ≈ 14 500 requests/s, so
/// R2 ≈ 0.28× and R3 ≈ 0.55× of that, R1 = R2 / 2.  (At the 0.5× the issue
/// asked for, the tail at R2 did not repeat between identical runs.)
pub const RATES: [f64; 3] = [2000.0, 4000.0, 8000.0];
/// Latency limit of the open loop at the tail percentile (µs).
pub const SLO_US: f64 = 5000.0;

/// How a workload's measured phase is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop: `clients` callers, each waiting for its reply.
    Closed,
    /// Open loop: a fixed-rate schedule through the serve runtime.
    Open,
    /// Offline: load the bundle, insert objects one call at a time.
    Mutate,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Objects the index is built over.
    pub n_base: usize,
    /// Evaluation queries (cycled by the timed loops).
    pub n_queries: usize,
    /// HNSW γ=16 when set, else the default fused pipeline (Algorithm 1).
    pub hnsw: bool,
    /// Attach the SQ8 engine, so serving takes the quantized-scan +
    /// exact-re-rank path and the bundle is v7.
    pub quantized: bool,
    /// Clustered shards with routing; 0 serves one unsharded snapshot.
    pub shards: usize,
    /// Objects inserted before the recall pass (`Mutate` only).
    pub tail_fixed: usize,
    /// Objects available to the time-bounded insert windows.
    pub tail_pool: usize,
    /// Recall@10 floor the run must clear.
    pub recall_floor: f64,
}

pub const WORKLOADS: [&str; 4] = [
    "serve_f32",
    "serve_sq8",
    "serve_routed_open",
    "build_mutate",
];

/// The workload table.  Sizes are set by the driver's time cap (about 30 s
/// per run, set-up repeated three times inside it), not by ambition: see
/// the README for what the issue asked and why these are smaller.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let n = |full: usize, small: usize| if smoke { small } else { full };
    let base = Spec {
        name: "",
        kind: Kind::Closed,
        n_base: n(32_768, 4096),
        n_queries: n(1024, 128),
        hnsw: true,
        quantized: false,
        shards: 0,
        tail_fixed: 0,
        tail_pool: 0,
        recall_floor: 0.95,
    };
    Some(match name {
        "serve_f32" => Spec {
            name: "serve_f32",
            ..base
        },
        "serve_sq8" => Spec {
            name: "serve_sq8",
            quantized: true,
            ..base
        },
        "serve_routed_open" => Spec {
            name: "serve_routed_open",
            kind: Kind::Open,
            n_base: n(8192, 2048),
            hnsw: false,
            shards: SHARDS,
            ..base
        },
        "build_mutate" => Spec {
            name: "build_mutate",
            kind: Kind::Mutate,
            n_base: n(28_672, 3584),
            quantized: true,
            tail_fixed: n(2048, 256),
            tail_pool: n(8192, 1024),
            recall_floor: 0.93,
            ..base
        },
        _ => return None,
    })
}

/// The four fixed per-query weight overrides of the routed workload.
pub fn override_weights() -> Vec<Weights> {
    [[0.8f32, 0.2], [0.6, 0.4], [0.4, 0.6], [0.2, 0.8]]
        .into_iter()
        .map(|w| Weights::from_squared(w.to_vec()).expect("positive weights"))
        .collect()
}

/// Threads the host offers; every thread count below derives from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Host-derived thread counts, recorded with every result.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub nproc: usize,
    /// Closed-loop callers.
    pub clients: usize,
    /// Serve-runtime workers of the open loop.  The generator sleeps
    /// between sends and the collector blocks on its channel, so they take
    /// a core only for microseconds at a time.
    pub workers: usize,
    pub build_threads: usize,
}

impl Host {
    pub fn detect() -> Self {
        let nproc = nproc();
        Self {
            nproc,
            clients: nproc.min(4),
            workers: nproc,
            build_threads: nproc,
        }
    }
}

/// The frozen snapshot a workload serves from.
pub enum Engine {
    Single(MustServer),
    Sharded(ShardedServer),
}

/// Wall clock of each set-up phase, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetUpTimes {
    pub embed: f64,
    pub learn: f64,
    pub ground_truth: f64,
    pub build: f64,
    pub quantize: f64,
    pub save: f64,
    pub load: f64,
    /// From the start of set-up to a loaded server that answered a query.
    pub total: f64,
}

/// Everything a workload's measured phase needs.
pub struct SetUp {
    pub spec: Spec,
    pub queries: Vec<MultiQuery>,
    /// Per query: index into [`override_weights`], or `None` for the
    /// snapshot's default (learned) weights.
    pub overrides: Vec<Option<usize>>,
    pub weights: Weights,
    pub ground_truth: Vec<Vec<ObjectId>>,
    pub engine: Engine,
    pub bundle: PathBuf,
    pub bundle_bytes: u64,
    /// Rows `insert_object` takes: `tail_fixed` then `tail_pool` objects.
    pub tail: Vec<Vec<Vec<f32>>>,
    pub times: SetUpTimes,
    /// FNV-1a over the corpus rows, tail rows, query vectors and weights.
    pub inputs_hash: u64,
}

impl SetUp {
    /// The override query `i` carries, if any (`None`: the snapshot's
    /// default weights).
    pub fn weights_of<'a>(&self, i: usize, overrides: &'a [Weights]) -> Option<&'a Weights> {
        self.overrides[i].map(|o| &overrides[o])
    }

    /// The weights query `i` actually runs under.
    pub fn effective_weights<'a>(&'a self, i: usize, overrides: &'a [Weights]) -> &'a Weights {
        self.weights_of(i, overrides).unwrap_or(&self.weights)
    }
}

struct Encoders {
    image: Arc<dyn Embedder>,
    text: Arc<dyn Embedder>,
}

impl Encoders {
    /// ImageText: ResNet50 target + LSTM text (64 + 32 dims, one 96-lane
    /// fused row per object).
    fn new(seed: u64) -> Self {
        let registry = EncoderRegistry::new(LatentSpace::DEFAULT, seed);
        let config = EncoderConfig::new(
            TargetEncoding::Independent(UnimodalKind::ResNet50),
            vec![UnimodalKind::Lstm],
        );
        Self {
            image: registry.target_embedder(&config),
            text: registry.unimodal(UnimodalKind::Lstm),
        }
    }

    fn rows(&self, latents: &[Latent]) -> Vec<Vec<f32>> {
        vec![self.image.embed(&latents[0]), self.text.embed(&latents[1])]
    }
}

fn stream(name: &str, n_objects: usize, n_queries: usize, seed: u64) -> SemiSyntheticStream {
    SemiSyntheticStream::new(SemiSyntheticSpec {
        name: name.into(),
        n_objects,
        n_queries,
        n_attrs: 256,
        query_perturbation: 0.25,
        seed,
    })
}

/// FNV-1a, 64 bit.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }
}

/// Hash of a file's bytes (the bundle: builds are byte-deterministic, so
/// this repeats exactly for one seed).
pub fn hash_file(path: &Path) -> u64 {
    let mut h = Fnv::new();
    h.bytes(&std::fs::read(path).expect("bundle was just written"));
    h.0
}

fn build_options(spec: &Spec, threads: usize) -> MustBuildOptions {
    if spec.hnsw {
        MustBuildOptions {
            gamma: 16,
            recipe: GraphRecipe::Hnsw,
            threads,
            ..Default::default()
        }
    } else {
        MustBuildOptions {
            threads,
            ..Default::default()
        }
    }
}

/// What a build produced, before it is persisted (one short-lived value
/// per set-up, so the variants' size difference costs nothing).
#[allow(clippy::large_enum_variant)]
pub enum Built {
    Single(Must),
    Sharded(ShardedMust),
}

/// Builds `spec`'s index over `objects` with `threads` build workers
/// (`0` = all the host offers).
pub fn build(spec: &Spec, objects: MultiVectorSet, weights: &Weights, threads: usize) -> Built {
    let opts = build_options(spec, threads);
    if spec.shards > 0 {
        // The shard builder divides `par::build_threads()` between
        // concurrent shard builds; the environment variable is its only
        // knob, so the single-thread reference sets it for the call.
        if threads == 1 {
            std::env::set_var("MUST_BUILD_THREADS", "1");
        }
        let built = ShardedMust::build(
            objects,
            weights.clone(),
            opts,
            ShardSpec::clustered(spec.shards),
        )
        .expect("sharded build");
        std::env::remove_var("MUST_BUILD_THREADS");
        Built::Sharded(built)
    } else {
        Built::Single(Must::build(objects, weights.clone(), opts).expect("build"))
    }
}

/// Persists a build as the bundle its workload serves from.
pub fn save(built: &Built, path: &Path) {
    match built {
        Built::Single(m) if m.quant().is_some() => persist::save_quantized(m, path),
        Built::Single(m) => persist::save(m, path),
        Built::Sharded(s) => persist::save_sharded(s, path),
    }
    .expect("bundle save");
}

/// The embedded inputs of one workload, before any index exists.
pub struct Embedded {
    /// The searchable corpus the ground truth is computed over (for
    /// `Mutate`: base plus the fixed tail).
    pub all: MultiVectorSet,
    pub anchors: Vec<(MultiQuery, ObjectId)>,
    pub queries: Vec<MultiQuery>,
    pub tail: Vec<Vec<Vec<f32>>>,
}

/// Generates and embeds corpus, tail and queries from the seed.
pub fn embed(spec: &Spec, seed: u64) -> Embedded {
    let enc = Encoders::new(seed);
    let n_all = spec.n_base + spec.tail_fixed;
    let corpus = stream(spec.name, n_all, N_ANCHORS + spec.n_queries, seed);
    let mut b0 = VectorSetBuilder::new(enc.image.dim(), n_all);
    let mut b1 = VectorSetBuilder::new(enc.text.dim(), n_all);
    let mut tail = Vec::with_capacity(spec.tail_fixed + spec.tail_pool);
    for id in 0..n_all as u64 {
        let rows = enc.rows(&corpus.object(id));
        b0.push_normalized(&rows[0])
            .expect("encoders emit valid vectors");
        b1.push_normalized(&rows[1])
            .expect("encoders emit valid vectors");
        if id as usize >= spec.n_base {
            tail.push(rows);
        }
    }
    if spec.tail_pool > 0 {
        // The pool is never searched for, so it comes from its own stream:
        // query anchors stay inside the searchable corpus.
        let pool = stream(spec.name, spec.tail_pool, 1, seed ^ 0x7A11_9001);
        tail.extend((0..spec.tail_pool as u64).map(|id| enc.rows(&pool.object(id))));
    }
    let all = MultiVectorSet::new(vec![b0.finish(), b1.finish()]).expect("equal cardinality");
    let mut embedded: Vec<(MultiQuery, ObjectId)> = corpus
        .queries()
        .iter()
        .map(|q| {
            let rows: Vec<Latent> = q
                .latents
                .iter()
                .map(|l| l.clone().expect("both latents supplied"))
                .collect();
            (MultiQuery::full(enc.rows(&rows)), q.anchor)
        })
        .collect();
    let queries = embedded
        .split_off(N_ANCHORS)
        .into_iter()
        .map(|(q, _)| q)
        .collect();
    Embedded {
        all,
        anchors: embedded,
        queries,
        tail,
    }
}

/// The first `n` objects of `set` as a corpus of their own (a bit-exact
/// copy of the rows, so the post-insert corpus equals `set`).
pub fn prefix(set: &MultiVectorSet, n: usize) -> MultiVectorSet {
    let rows = set.fused();
    let data = rows.raw_data()[..n * rows.stride()].to_vec();
    MultiVectorSet::from_fused(
        FusedRows::from_raw_parts(rows.dims().to_vec(), data).expect("whole rows"),
    )
}

/// Exact top-`K` per query under the weights that query runs with.
fn ground_truth(
    all: &MultiVectorSet,
    default: &Weights,
    queries: &[MultiQuery],
    overrides: &[Option<usize>],
) -> Vec<Vec<ObjectId>> {
    let table = override_weights();
    let mut out = vec![Vec::new(); queries.len()];
    let groups =
        std::iter::once((None, default)).chain(table.iter().enumerate().map(|(i, w)| (Some(i), w)));
    for (group, weights) in groups {
        let members: Vec<usize> = (0..queries.len())
            .filter(|&i| overrides[i] == group)
            .collect();
        if members.is_empty() {
            continue;
        }
        let batch: Vec<MultiQuery> = members.iter().map(|&i| queries[i].clone()).collect();
        let truth = exact_ground_truth(all, weights, &batch, K).expect("valid workload");
        for (i, t) in members.into_iter().zip(truth) {
            out[i] = t;
        }
    }
    out
}

/// FNV-1a over everything the seed determines before any index exists.
fn hash_inputs(
    all: &MultiVectorSet,
    tail: &[Vec<Vec<f32>>],
    queries: &[MultiQuery],
    weights: &Weights,
) -> u64 {
    let mut h = Fnv::new();
    h.floats(all.fused().raw_data());
    for row in tail.iter().flatten() {
        h.floats(row);
    }
    for q in queries {
        for k in 0..q.num_slots() {
            h.floats(q.slot(k).expect("full query"));
        }
    }
    h.floats(weights.raw());
    h.0
}

/// Runs the whole set-up once; `dir` receives the bundle.
pub fn set_up(spec: &Spec, seed: u64, host: &Host, dir: &Path) -> SetUp {
    let start = Instant::now();
    let mut times = SetUpTimes::default();

    let t = Instant::now();
    let Embedded {
        all,
        anchors,
        queries,
        tail,
    } = embed(spec, seed);
    times.embed = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let anchor_refs: Vec<(&MultiQuery, ObjectId)> = anchors.iter().map(|(q, a)| (q, *a)).collect();
    let learned = Must::learn_weights(
        &all,
        &anchor_refs,
        &WeightLearnConfig {
            epochs: 100,
            ..Default::default()
        },
    );
    let weights = learned.weights;
    times.learn = t.elapsed().as_secs_f64();

    let overrides: Vec<Option<usize>> = (0..queries.len())
        .map(|i| {
            (spec.kind == Kind::Open && i % OVERRIDE_EVERY == OVERRIDE_EVERY - 1)
                .then_some((i / OVERRIDE_EVERY) % 4)
        })
        .collect();
    let t = Instant::now();
    let ground_truth = ground_truth(&all, &weights, &queries, &overrides);
    times.ground_truth = t.elapsed().as_secs_f64();

    let inputs_hash = hash_inputs(&all, &tail, &queries, &weights);

    let t = Instant::now();
    let base = if spec.tail_fixed > 0 {
        prefix(&all, spec.n_base)
    } else {
        all
    };
    let mut built = build(spec, base, &weights, host.build_threads);
    times.build = t.elapsed().as_secs_f64();

    if spec.quantized {
        let t = Instant::now();
        match &mut built {
            Built::Single(m) => m.quantize(),
            Built::Sharded(_) => unreachable!("no workload quantizes shards"),
        }
        times.quantize = t.elapsed().as_secs_f64();
    }

    let bundle = dir.join(format!("{}.mustb", spec.name));
    let t = Instant::now();
    save(&built, &bundle);
    times.save = t.elapsed().as_secs_f64();
    drop(built);

    let t = Instant::now();
    let engine = load_and_probe(spec, &bundle, &queries[0]);
    times.load = t.elapsed().as_secs_f64();
    times.total = start.elapsed().as_secs_f64();

    let bundle_bytes = std::fs::metadata(&bundle).expect("bundle exists").len();
    SetUp {
        spec: *spec,
        queries,
        overrides,
        weights,
        ground_truth,
        engine,
        bundle,
        bundle_bytes,
        tail,
        times,
        inputs_hash,
    }
}

/// Bundle → the serving snapshot of `spec`, once it has answered a query.
pub fn load_and_probe(spec: &Spec, bundle: &Path, probe: &MultiQuery) -> Engine {
    let engine = if spec.shards > 0 {
        let server = ShardedServer::load(bundle).expect("sharded bundle load");
        Engine::Sharded(server.with_routing(RoutePolicy::with_beam(ROUTE_FAN_OUT, ROUTE_L_SHARD)))
    } else {
        Engine::Single(MustServer::load(bundle).expect("bundle load"))
    };
    let answered = match &engine {
        Engine::Single(s) => s.search(probe, K, L),
        Engine::Sharded(s) => s.worker().search(probe, K, L),
    }
    .expect("loaded snapshot answers a query");
    assert_eq!(
        answered.results.len(),
        K,
        "loaded snapshot returns k results"
    );
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let spec = spec("build_mutate", true).unwrap();
        let hash = |seed| {
            let e = embed(&spec, seed);
            assert_eq!(e.all.len(), spec.n_base + spec.tail_fixed);
            assert_eq!(e.tail.len(), spec.tail_fixed + spec.tail_pool);
            assert_eq!(
                (e.anchors.len(), e.queries.len()),
                (N_ANCHORS, spec.n_queries)
            );
            hash_inputs(&e.all, &e.tail, &e.queries, &Weights::uniform(2))
        };
        assert_eq!(hash(7), hash(7), "two runs of one seed see the same inputs");
        assert_ne!(hash(7), hash(8), "another seed gives other inputs");
    }

    #[test]
    fn fnv1a_matches_its_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"");
        assert_eq!(h.0, 0xCBF2_9CE4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn every_named_workload_has_a_spec_at_both_sizes() {
        for name in WORKLOADS {
            for smoke in [false, true] {
                let s = spec(name, smoke).unwrap();
                assert_eq!(s.name, name);
                assert_eq!(s.tail_fixed > 0, s.kind == Kind::Mutate);
            }
        }
        assert!(spec("serve_everything", false).is_none());
    }
}
