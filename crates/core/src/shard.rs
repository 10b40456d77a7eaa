//! Sharded serving: split a corpus into `S` clustered shards, search the
//! shards a query routes to, and merge the per-shard top-`k` by exact joint
//! similarity.
//!
//! The paper's offline/online split (Fig. 4) extends naturally to many
//! offline-built shards merged online: build time, memory, and insertion
//! contention all scale with a single monolithic engine, so a
//! production deployment partitions the corpus and builds every partition
//! in parallel.  The pieces:
//!
//! * [`ShardSpec`] — the shard count.  Membership is always clustered: a
//!   deterministic balanced k-means over the weighted fused rows, with
//!   boundary objects *replicated* into their runner-up shards (closure
//!   assignment), so shards are spatially coherent and may overlap.
//! * [`ShardedMust`] — the sharded instance: one [`MustServer`] per shard,
//!   built in parallel (`MUST_BUILD_THREADS` governs the worker budget
//!   across *and* within shards), plus the local→global id maps and the
//!   routing summaries.  Dynamic insertion routes each new object to the
//!   currently smallest shard.
//! * [`ShardedServer`] — the online side: a frozen [`ShardedMust`] behind
//!   one [`Arc`], every accessor through `Deref`, plus the handle's
//!   [`RoutePolicy`].  A [`ShardedWorker`] holds one [`ServerWorker`] per
//!   shard; its [`EngineWorker::run_query`] — the one sharded query body —
//!   runs the existing per-shard beam search on each selected shard in
//!   shard order and merges the per-shard top-`k` lists into one global
//!   top-`k` (gather).  Parallelism comes from concurrent queries (the
//!   [`ServeEngine`] batch and serve paths), not from spreading one query
//!   over threads.
//! * [`ShardSummary`] + [`RoutePolicy`] — selective routing.  Every shard
//!   carries a summary (per-modality centroid segments plus residual
//!   radii); [`ShardedServer::with_routing`] scores a query against each
//!   summary under the active `ω²` weights and searches only the top-`r`
//!   shards, optionally with a reduced per-shard beam `l_shard`.
//!   `r = S` reproduces the full fan-out bit-identically.  Clustering is
//!   what makes `r < S` work: each shard covers a coherent region and
//!   holds copies of the borderline objects nearby, so a query's
//!   neighbours concentrate in few shards.  Per-shard beam cost scales with
//!   the beam, not the shard size, so the replicas buy low-fan-out
//!   coverage at almost no query-time cost, and the gather step drops the
//!   duplicate copies.
//!
//! ## Determinism contract
//!
//! Per-shard searches inherit [`MustServer`]'s fixed-seed determinism, and
//! the gather step orders candidates by `(similarity desc, global id asc)`
//! — a total order — so a sharded query's results are a pure function of
//! the query: bit-identical across entry points, batch thread counts, and
//! repeated runs, exactly like the single-shard server.  Routing preserves
//! this: the router's scores are a pure function of `(query, weights,
//! summaries)` and ties break toward the lower shard index, so the set of
//! shards searched — and therefore the merged result — is deterministic
//! too.  Similarities themselves are bit-identical to the unsharded
//! engine's because a shard row holds the same `f32` values at the same
//! lane offsets as the corresponding global row, so the fused dot product
//! performs the same float operations in the same order.
//!
//! ```
//! use must_core::framework::MustBuildOptions;
//! use must_core::shard::{ShardSpec, ShardedMust, ShardedServer};
//! use must_vector::{MultiQuery, MultiVectorSet, VectorSetBuilder, Weights};
//!
//! // 8 objects x 2 modalities, split over 2 shards, served scatter-gather.
//! let mut m0 = VectorSetBuilder::new(4, 8);
//! let mut m1 = VectorSetBuilder::new(2, 8);
//! for i in 0..8u32 {
//!     let mut img = [0.1f32; 4];
//!     img[(i % 4) as usize] = 1.0;
//!     m0.push_normalized(&img).unwrap();
//!     m1.push_normalized(&[1.0, i as f32 / 8.0]).unwrap();
//! }
//! let objects = MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap();
//! let sharded = ShardedMust::build(
//!     objects,
//!     Weights::uniform(2),
//!     MustBuildOptions::default(),
//!     ShardSpec::clustered(2),
//! )
//! .unwrap();
//! assert_eq!(sharded.num_shards(), 2);
//! assert_eq!(sharded.len(), 8);
//! let server = ShardedServer::freeze(sharded);
//! let query = MultiQuery::full(vec![vec![0.1, 1.0, 0.1, 0.1], vec![1.0, 0.125]]);
//! let out = server.search(&query, 1, 8).unwrap();
//! assert_eq!(out.results[0].0, 1); // global id, not a shard-local one
//! ```

use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use must_graph::par;
use must_graph::{answer_order, SearchParams, SearchStats};
use must_vector::{kernels, FusedRows, Layout, MultiQuery, MultiVectorSet, ObjectId, Weights};

use crate::framework::{Must, MustBuildOptions};
use crate::search::{request_params, SearchOutcome};
use crate::runtime::{EngineWorker, ServeEngine};
use crate::server::{MustServer, ServerWorker};
use crate::MustError;

/// How to split a corpus: the shard count.  Membership is clustered — each
/// object goes to the shard whose weighted fused centroid it is most
/// similar to (deterministic balanced k-means over the fused rows, capacity
/// `ceil(1.25 · n / S)` per shard), and *boundary* objects are additionally
/// **replicated** into their strongest runner-up shards (closure
/// assignment, costing ~1.6× rows for coverage no disjoint partition
/// reaches).  This is what makes selective routing ([`RoutePolicy`])
/// effective.
///
/// ```
/// use must_core::shard::ShardSpec;
///
/// assert_eq!(ShardSpec::clustered(4).shards, 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// Number of shards `S >= 1`.
    pub shards: usize,
}

impl ShardSpec {
    /// A clustered spec over `shards` shards.
    #[must_use]
    pub fn clustered(shards: usize) -> Self {
        Self { shards }
    }
}

/// Fixed Lloyd refinement rounds for the clustered split.  A
/// constant rather than a knob: clustered membership is a pure function of
/// `(corpus, weights, S)` and is recorded in bundles, so it must not vary
/// across builds of the same corpus.  Twenty rounds converges measurably
/// tighter partitions than eight on the committed MIT-States sweep
/// (routing coverage at fan-out 3 rises ~0.4 pt) at negligible build
/// cost next to the graph construction it precedes.
const CLUSTER_ROUNDS: usize = 20;

/// Capacity slack for the balanced pass: each cluster may hold up to
/// `ceil(1.25 · n / S)` members.  A hard `ceil(n / S)` cap forcibly
/// reassigns every overflow member of a natural cluster to a foreign
/// shard, splitting exactly the neighbourhoods selective routing needs
/// intact — measured on the committed sweep, the strict cap costs ~2 pt
/// of fan-out-1 routing coverage while the slack keeps shard sizes
/// within 25 % of even.
const CLUSTER_CAP_NUM: usize = 5;
/// Denominator of the capacity-slack fraction (`5/4` = 25 % slack).
const CLUSTER_CAP_DEN: usize = 4;

/// Closure-replication threshold, as a fraction of each object's
/// best-to-worst centroid-score spread (`2/5`): after the balanced pass,
/// an object is *replicated* into up to [`CLOSURE_MAX_REPLICAS`]
/// runner-up clusters whose centroid score is within `0.4 · spread` of
/// its best.  Boundary objects — exactly the ones whose neighbourhoods a
/// disjoint partition splits — then exist in every shard a router is
/// likely to send their queries to, which is what lifts low-fan-out
/// routing coverage past what any disjoint partition can reach (the best
/// disjoint fan-out-2 coverage measured on the committed MIT-States
/// sweep tops out near 0.96; replication takes it past 0.99).
/// Graph-search cost per shard scales with the beam width, not the shard
/// size, so the extra rows cost memory and build time but almost no
/// query latency — which is why the threshold errs generous.
const CLOSURE_FRAC_NUM: usize = 2;
/// Denominator of [`CLOSURE_FRAC_NUM`].
const CLOSURE_FRAC_DEN: usize = 5;
/// Most runner-up clusters one object may be replicated into.
const CLOSURE_MAX_REPLICAS: usize = 3;

/// A centroid row with every modality segment pre-multiplied by its `ω²`
/// weight, so one contiguous dot product against a fused row yields the
/// Lemma-1 weighted similarity (padding lanes are zero on both sides).
fn prescale_centroid(rows: &FusedRows, centroid: &[f32], weights: &Weights) -> Vec<f32> {
    let mut scaled = centroid.to_vec();
    for k in 0..rows.num_modalities() {
        let (a, b) = rows.segment_bounds(k);
        let w = weights.sq(k);
        for x in &mut scaled[a..b] {
            *x *= w;
        }
    }
    scaled
}

/// Splits `objects` into `s` clustered per-shard corpora, each paired with
/// its local→global id map (`map[local] = global`) and its *primary*
/// member count: rows are laid out primaries-first (closure replicas
/// after), and the build computes routing summaries over only that prefix.
/// Whole fused rows are copied bit-exact and their segment norms derived
/// as on load, so per-shard similarities equal the unsharded engine's.
/// Clustering runs under `weights`, whose arity [`ShardedMust::build`] has
/// checked.
fn split(
    objects: &MultiVectorSet,
    weights: &Weights,
    s: usize,
) -> Vec<(MultiVectorSet, Vec<ObjectId>, usize)> {
    let rows = objects.fused();
    cluster_members(rows, weights, s)
        .into_iter()
        .map(|(ids, primaries)| {
            let mut data = Vec::with_capacity(ids.len() * rows.stride());
            for &id in &ids {
                data.extend_from_slice(rows.row(id));
            }
            let fused = FusedRows::from_raw_parts(rows.dims().to_vec(), data).expect("whole rows");
            (MultiVectorSet::from_fused(fused), ids, primaries)
        })
        .collect()
}

/// Deterministic balanced k-means membership over the fused rows: seeds by
/// farthest-point, refines centroids for [`CLUSTER_ROUNDS`] Lloyd rounds,
/// then assigns points in descending best-vs-second-margin order to their
/// most-similar cluster with spare capacity (`ceil(1.25 · n / S)` per
/// cluster — see [`CLUSTER_CAP_NUM`]), and finally *replicates* boundary
/// objects into their strongest runner-up clusters
/// ([`CLOSURE_FRAC_NUM`]) — so the returned member lists **overlap**.
/// All ties break by id or cluster index, so membership is reproducible
/// across thread counts and platforms.  Returns `S` member lists, each
/// laid out as ascending-id primaries followed by ascending-id replicas,
/// paired with its primary count (summaries are computed over the primary
/// prefix only).  Needs `1 <= S <= n`; one shard holds every object.
fn cluster_members(rows: &FusedRows, weights: &Weights, s: usize) -> Vec<(Vec<ObjectId>, usize)> {
    let n = rows.len();
    let sim = |i: usize, scaled: &[f32]| kernels::ip_prescaled_segments(rows.row(i as ObjectId), scaled);

    // Farthest-point seeding: start from row 0, then repeatedly take the
    // row least similar to its closest chosen seed (tie → lowest id).
    let mut chosen = vec![false; n];
    chosen[0] = true;
    let mut seeds = vec![0usize];
    let first = prescale_centroid(rows, rows.row(0), weights);
    let mut nearest: Vec<f32> = (0..n).map(|i| sim(i, &first)).collect();
    while seeds.len() < s {
        let next = (0..n)
            .filter(|&i| !chosen[i])
            .min_by(|&a, &b| nearest[a].total_cmp(&nearest[b]).then(a.cmp(&b)))
            .expect("n >= s leaves unchosen rows");
        chosen[next] = true;
        seeds.push(next);
        let scaled = prescale_centroid(rows, rows.row(next as ObjectId), weights);
        for (i, near) in nearest.iter_mut().enumerate() {
            *near = near.max(sim(i, &scaled));
        }
    }

    // Lloyd rounds: assign to the most-similar centroid (tie → lowest
    // cluster), recompute means; an emptied cluster keeps its centroid.
    let mut centroids: Vec<Vec<f32>> =
        seeds.iter().map(|&i| rows.row(i as ObjectId).to_vec()).collect();
    let mut assign = vec![0usize; n];
    for _ in 0..CLUSTER_ROUNDS {
        let scaled: Vec<Vec<f32>> =
            centroids.iter().map(|c| prescale_centroid(rows, c, weights)).collect();
        for (i, slot) in assign.iter_mut().enumerate() {
            let mut best = (sim(i, &scaled[0]), 0usize);
            for (c, sc) in scaled.iter().enumerate().skip(1) {
                let v = sim(i, sc);
                if v > best.0 {
                    best = (v, c);
                }
            }
            *slot = best.1;
        }
        let mut sums = vec![vec![0.0f32; rows.stride()]; s];
        let mut counts = vec![0usize; s];
        for (i, &c) in assign.iter().enumerate() {
            counts[c] += 1;
            for (dst, src) in sums[c].iter_mut().zip(rows.row(i as ObjectId)) {
                *dst += src;
            }
        }
        for (c, sum) in sums.into_iter().enumerate() {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f32;
                centroids[c] = sum.into_iter().map(|x| x * inv).collect();
            }
        }
    }

    // Balanced greedy assignment: points with the clearest favourite
    // (largest best-vs-second margin) claim a slot first, each going to
    // its most-similar cluster that still has capacity.
    let scaled: Vec<Vec<f32>> =
        centroids.iter().map(|c| prescale_centroid(rows, c, weights)).collect();
    let mut sims = vec![0.0f32; n * s];
    let mut order: Vec<(f32, usize)> = Vec::with_capacity(n);
    for i in 0..n {
        let (mut best, mut second) = (f32::NEG_INFINITY, f32::NEG_INFINITY);
        for (c, sc) in scaled.iter().enumerate() {
            let v = sim(i, sc);
            sims[i * s + c] = v;
            if v > best {
                second = best;
                best = v;
            } else if v > second {
                second = v;
            }
        }
        order.push((best - second, i));
    }
    order.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let cap = (n * CLUSTER_CAP_NUM).div_ceil(s * CLUSTER_CAP_DEN).max(n.div_ceil(s));
    let mut members: Vec<Vec<ObjectId>> = vec![Vec::new(); s];
    let mut prefs: Vec<usize> = (0..s).collect();
    for &(_, i) in &order {
        prefs.sort_unstable_by(|&a, &b| sims[i * s + b].total_cmp(&sims[i * s + a]).then(a.cmp(&b)));
        let c = *prefs.iter().find(|&&c| members[c].len() < cap).expect("cap * S >= n");
        members[c].push(i as ObjectId);
    }
    // `n >= s` guarantees enough points to populate every cluster; steal
    // the best-fitting member from the largest donor if one ended empty.
    for c in 0..s {
        while members[c].is_empty() {
            let donor = (0..s)
                .max_by(|&a, &b| members[a].len().cmp(&members[b].len()).then(b.cmp(&a)))
                .expect("at least one cluster");
            if members[donor].len() <= 1 {
                break;
            }
            let pos = (0..members[donor].len())
                .max_by(|&a, &b| {
                    let (ia, ib) = (members[donor][a] as usize, members[donor][b] as usize);
                    sims[ia * s + c].total_cmp(&sims[ib * s + c]).then(ib.cmp(&ia))
                })
                .expect("donor is non-empty");
            let moved = members[donor].remove(pos);
            members[c].push(moved);
        }
    }
    // Closure replication: copy boundary objects into their strongest
    // runner-up clusters (within [`CLOSURE_FRAC_NUM`]/[`CLOSURE_FRAC_DEN`]
    // of the object's score spread, capped at twice the balanced
    // capacity).  Primaries sort first so replicas land after them —
    // summaries cover only the primary prefix.  Id-order iteration and
    // index tie-breaks keep membership deterministic.
    let mut primary = vec![0usize; n];
    for (c, ids) in members.iter().enumerate() {
        for &id in ids {
            primary[id as usize] = c;
        }
    }
    for ids in &mut members {
        ids.sort_unstable();
    }
    let counts: Vec<usize> = members.iter().map(Vec::len).collect();
    let rep_cap = 2 * cap;
    let frac = CLOSURE_FRAC_NUM as f32 / CLOSURE_FRAC_DEN as f32;
    for i in 0..n {
        let row = &sims[i * s..(i + 1) * s];
        let best = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let worst = row.iter().fold(f32::INFINITY, |a, &b| a.min(b));
        let thr = best - frac * (best - worst);
        let mut cands: Vec<usize> =
            (0..s).filter(|&c| c != primary[i] && row[c] >= thr).collect();
        cands.sort_unstable_by(|&a, &b| row[b].total_cmp(&row[a]).then(a.cmp(&b)));
        for &c in cands.iter().take(CLOSURE_MAX_REPLICAS) {
            if members[c].len() < rep_cap {
                members[c].push(i as ObjectId);
            }
        }
    }
    // Id-order iteration already appended each replica tail ascending.
    members.into_iter().zip(counts).collect()
}

/// A shard's routing summary: the mean fused row (`centroid`, padding
/// lanes zero) plus, per modality, the largest L2 distance from any member
/// row's segment to the centroid's (`radii[k]`).  Clustered shards summarise
/// only their **primary** members: closure replicas are described by their
/// own primary shard's summary (see [`ShardSummary::compute`]'s prefix
/// variant), so the bound stays tight enough to tell shards apart.
///
/// Stored **unweighted**: for a query segment `q_k`, Cauchy–Schwarz bounds
/// any member `x`'s inner product by
/// `IP(q_k, x_k) <= IP(q_k, c_k) + ||q_k|| * radii[k]`, and the router
/// applies the active `ω²` weights query-side via
/// [`Weights::weighted_sum`] — exactly where the fused query row applies
/// them — so one summary serves every weight override without rebuilding.
///
/// Summaries are derived from the rows at build/load time and persisted in
/// bundle v6.  After [`ShardedMust::insert_object`] the centroid stays
/// **fixed** and only the target shard's radii grow, which keeps the bound
/// valid (a re-derived centroid would shift every residual); this is why
/// v6 stores summaries verbatim instead of re-deriving them on load.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    centroid: Vec<f32>,
    radii: Vec<f32>,
}

impl ShardSummary {
    /// Derives the summary of a shard's fused rows.
    #[must_use]
    pub fn compute(rows: &FusedRows) -> Self {
        Self::compute_prefix(rows, rows.len())
    }

    /// Derives the summary of the first `count` rows — the build path for
    /// clustered shards, whose rows are laid out primary-members-first:
    /// closure replicas are *excluded* from the summary because each is
    /// already covered by its own primary shard's summary, and folding the
    /// deliberately-borderline replicas in would widen every centroid and
    /// radius until the shards' summaries all look alike and the router
    /// cannot tell them apart.
    fn compute_prefix(rows: &FusedRows, count: usize) -> Self {
        let count = count.min(rows.len()).max(1);
        let mut centroid = vec![0.0f32; rows.stride()];
        for id in 0..count as ObjectId {
            for (dst, src) in centroid.iter_mut().zip(rows.row(id)) {
                *dst += src;
            }
        }
        let inv = 1.0 / count as f32;
        for x in &mut centroid {
            *x *= inv;
        }
        let mut summary = Self { centroid, radii: vec![0.0; rows.num_modalities()] };
        for id in 0..count as ObjectId {
            summary.grow(rows, id);
        }
        summary
    }

    /// Reassembles a summary from persisted parts (the bundle-v6 load
    /// path).
    ///
    /// # Errors
    /// [`MustError::Config`] on non-finite values or negative radii.
    pub fn from_parts(centroid: Vec<f32>, radii: Vec<f32>) -> Result<Self, MustError> {
        if centroid.iter().any(|x| !x.is_finite())
            || radii.iter().any(|r| !r.is_finite() || *r < 0.0)
        {
            return Err(MustError::Config(
                "shard summary holds non-finite or negative values".into(),
            ));
        }
        Ok(Self { centroid, radii })
    }

    /// The mean fused row (stride-length, padding lanes zero).
    #[must_use]
    pub fn centroid(&self) -> &[f32] {
        &self.centroid
    }

    /// Per-modality residual radii (largest member-to-centroid segment L2).
    #[must_use]
    pub fn radii(&self) -> &[f32] {
        &self.radii
    }

    /// Widens the radii to cover row `local` (the centroid stays fixed —
    /// see the type docs for why).
    fn grow(&mut self, rows: &FusedRows, local: ObjectId) {
        for (k, radius) in self.radii.iter_mut().enumerate() {
            let (a, b) = rows.segment_bounds(k);
            let d = kernels::l2_sq(rows.segment(local, k), &self.centroid[a..b]).sqrt();
            *radius = radius.max(d);
        }
    }
}

/// The selective-routing knob: scatter each query to the `fan_out`
/// highest-scoring shards, optionally shrinking the per-shard beam to
/// `l_shard`.
///
/// `fan_out >= S` skips scoring entirely and, with `l_shard: None`,
/// reproduces the full fan-out **bit-identically** — routing then selects
/// every shard in index order, each shard runs the exact same search, and
/// the gather merge is the same total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutePolicy {
    /// Number of shards to search per query (`r`); clamped to at least 1
    /// and at most `S` at use.
    pub fan_out: usize,
    /// Per-shard beam pool override; `None` keeps the caller's `l`.  The
    /// saved budget is where routed QPS comes from: `r` shards at
    /// `l_shard` cost roughly `r * l_shard` beam slots versus the full
    /// fan-out's `S * l`.  Values below `k` are raised to `k` (a pool
    /// smaller than the result list cannot exist).
    pub l_shard: Option<usize>,
}

impl RoutePolicy {
    /// Route to the top-`fan_out` shards, keeping the caller's beam width.
    #[must_use]
    pub fn new(fan_out: usize) -> Self {
        Self { fan_out: fan_out.max(1), l_shard: None }
    }

    /// Route to the top-`fan_out` shards with per-shard beam `l_shard`.
    #[must_use]
    pub fn with_beam(fan_out: usize, l_shard: usize) -> Self {
        Self { fan_out: fan_out.max(1), l_shard: Some(l_shard) }
    }
}

/// The sharded instance: one [`MustServer`] per shard — each frozen where
/// it is built or assembled — plus the local→global id maps and routing
/// summaries.  See the module docs for the full dataflow.
///
/// The instance never hands a shard's `MustServer` out (only `&Must`), so
/// each shard's [`Arc`] has a single owner until [`ShardedServer::freeze`]
/// shares the whole instance; that is what lets
/// [`ShardedMust::insert_object`] still grow a shard.
pub struct ShardedMust {
    shards: Vec<MustServer>,
    global_ids: Vec<Vec<ObjectId>>,
    summaries: Vec<ShardSummary>,
    /// Distinct global objects (≤ the sum of shard sizes: clustered
    /// closure replication stores boundary objects in several shards).
    total: usize,
}

impl ShardedMust {
    /// Splits `objects` into `spec.shards` clustered shards and builds
    /// every shard's fused engine and graph **in parallel**: the
    /// `MUST_BUILD_THREADS` budget is divided between concurrent shard
    /// builds and each build's internal workers, so small shard counts
    /// still saturate the machine while the machine-wide cap holds.
    ///
    /// Each shard derives its build seed from `opts.rng_seed` and the shard
    /// index, so the result is deterministic for a given `(corpus, opts,
    /// spec)` regardless of thread count.  With `spec.shards == 1` the
    /// single shard's build is identical to `Must::build` with the same
    /// options.
    ///
    /// # Errors
    /// [`MustError::Config`] when the spec is degenerate (zero shards, or
    /// more shards than objects, which would leave a shard empty);
    /// [`must_vector::VectorError::WeightArity`] when `weights` does not
    /// cover every modality, checked before clustering runs under them;
    /// propagates per-shard build errors.
    pub fn build(
        objects: MultiVectorSet,
        weights: Weights,
        opts: MustBuildOptions,
        spec: ShardSpec,
    ) -> Result<Self, MustError> {
        if spec.shards == 0 {
            return Err(MustError::Config("shard count must be at least 1".into()));
        }
        if objects.is_empty() {
            return Err(MustError::Config("cannot shard an empty object set".into()));
        }
        if spec.shards > objects.len() {
            return Err(MustError::Config(format!(
                "{} shards over {} objects would leave shards empty",
                spec.shards,
                objects.len()
            )));
        }
        objects.fused().layout().check_weights(&weights)?;
        let pieces = split(&objects, &weights, spec.shards);
        drop(objects);
        let mut global_ids = Vec::with_capacity(pieces.len());
        let mut primaries = Vec::with_capacity(pieces.len());
        let corpora: Vec<std::sync::Mutex<Option<MultiVectorSet>>> = pieces
            .into_iter()
            .map(|(corpus, ids, primary)| {
                if corpus.is_empty() {
                    return Err(MustError::Config(
                        "clustering left a shard empty; use fewer shards".into(),
                    ));
                }
                global_ids.push(ids);
                primaries.push(primary);
                Ok(std::sync::Mutex::new(Some(corpus)))
            })
            .collect::<Result<_, _>>()?;

        // Split the machine budget: `outer` shard builds run concurrently
        // and each gets `inner` workers, so the total never exceeds the
        // `MUST_BUILD_THREADS` cap (graph builds are thread-count
        // invariant, so the split does not affect results).  An explicit
        // `opts.threads` is honoured per shard unchanged.
        let total = par::build_threads();
        let outer = total.min(corpora.len());
        let inner = if opts.threads == 0 { (total / outer).max(1) } else { opts.threads };
        let built = par::par_map(corpora.len(), outer, |s| {
            let corpus = corpora[s]
                .lock()
                .expect("no prior panic")
                .take()
                .expect("each shard corpus is taken once");
            let opts = MustBuildOptions { threads: inner, ..shard_opts(opts, s) };
            Must::build(corpus, weights.clone(), opts)
        });
        let shards = built.into_iter().collect::<Result<Vec<_>, _>>()?;
        let summaries = shards
            .iter()
            .zip(&primaries)
            .map(|(sh, &p)| ShardSummary::compute_prefix(sh.objects().fused(), p))
            .collect();
        Self::assemble(shards, global_ids, Some(summaries))
    }

    /// Reassembles a sharded instance from prebuilt shards and their
    /// local→global maps — the load path for single-shard bundles (v5,
    /// v7), which carry no summaries: routing summaries are **derived**
    /// from the shard rows here.  (Correct only when nothing was inserted
    /// after derivation and before the save; bundle v6 persists summaries
    /// verbatim for that reason — see
    /// [`ShardedMust::from_parts_with_summaries`].)
    ///
    /// # Errors
    /// [`MustError::Config`] when a map's length disagrees with its shard's
    /// corpus, a global id repeats within one shard, the maps' union does
    /// not densely cover `0..total` (ids may repeat *across* shards —
    /// clustered closure replication does), or the shards disagree on
    /// dims or weights (every shard must serve the same joint similarity).
    pub fn from_parts(shards: Vec<Must>, global_ids: Vec<Vec<ObjectId>>) -> Result<Self, MustError> {
        Self::assemble(shards, global_ids, None)
    }

    /// [`ShardedMust::from_parts`] with persisted summaries (the bundle-v6
    /// load path): summaries are adopted verbatim instead of re-derived,
    /// preserving radii grown by pre-save insertions.
    ///
    /// # Errors
    /// Everything [`ShardedMust::from_parts`] rejects, plus summaries
    /// whose count or per-shard shape disagrees with the shards.
    pub fn from_parts_with_summaries(
        shards: Vec<Must>,
        global_ids: Vec<Vec<ObjectId>>,
        summaries: Vec<ShardSummary>,
    ) -> Result<Self, MustError> {
        Self::assemble(shards, global_ids, Some(summaries))
    }

    fn assemble(
        shards: Vec<Must>,
        global_ids: Vec<Vec<ObjectId>>,
        summaries: Option<Vec<ShardSummary>>,
    ) -> Result<Self, MustError> {
        if shards.is_empty() {
            return Err(MustError::Config("a sharded instance needs at least one shard".into()));
        }
        if shards.len() != global_ids.len() {
            return Err(MustError::Config(format!(
                "{} shards but {} id maps",
                shards.len(),
                global_ids.len()
            )));
        }
        // Clustered closure replication stores boundary objects in several
        // shards, so ids may repeat *across* maps; the dense-id invariant
        // insert_object relies on becomes "the union of the maps is
        // exactly 0..total" for the distinct-object count `total`.
        let bound: usize = global_ids.iter().map(Vec::len).sum();
        let mut seen = vec![0u64; bound.div_ceil(64)];
        for (shard, ids) in shards.iter().zip(&global_ids) {
            if shard.objects().len() != ids.len() {
                return Err(MustError::Config(format!(
                    "shard holds {} objects but its id map covers {}",
                    shard.objects().len(),
                    ids.len()
                )));
            }
            // The router slices every summary at the first shard's
            // segment bounds, so the layouts must agree.
            if shard.objects().dims() != shards[0].objects().dims() {
                return Err(MustError::Config("shards disagree on dims".into()));
            }
            if shard.weights() != shards[0].weights() {
                return Err(MustError::Config("shards disagree on weights".into()));
            }
            let mut in_shard = vec![0u64; bound.div_ceil(64)];
            for &id in ids {
                let idx = id as usize;
                let (w, b) = (idx / 64, idx % 64);
                if idx >= bound || in_shard[w] & (1 << b) != 0 {
                    return Err(MustError::Config(format!(
                        "global id {id} out of range or repeated within a shard"
                    )));
                }
                in_shard[w] |= 1 << b;
                seen[w] |= 1 << b;
            }
        }
        let total = global_ids.iter().flatten().map(|&id| id as usize + 1).max().unwrap_or(0);
        if (0..total).any(|idx| seen[idx / 64] & (1 << (idx % 64)) == 0) {
            return Err(MustError::Config(
                "global ids must densely cover 0..total across the shards".into(),
            ));
        }
        let summaries = match summaries {
            Some(sums) => {
                if sums.len() != shards.len() {
                    return Err(MustError::Config(format!(
                        "{} shards but {} routing summaries",
                        shards.len(),
                        sums.len()
                    )));
                }
                for (shard, sum) in shards.iter().zip(&sums) {
                    let rows = shard.objects().fused();
                    if sum.centroid.len() != rows.stride()
                        || sum.radii.len() != rows.num_modalities()
                    {
                        return Err(MustError::Config(format!(
                            "routing summary shape ({} centroid floats, {} radii) does not \
                             match the shard layout ({} stride, {} modalities)",
                            sum.centroid.len(),
                            sum.radii.len(),
                            rows.stride(),
                            rows.num_modalities()
                        )));
                    }
                }
                sums
            }
            None => shards.iter().map(|sh| ShardSummary::compute(sh.objects().fused())).collect(),
        };
        let shards = shards.into_iter().map(MustServer::freeze).collect();
        Ok(Self { shards, global_ids, summaries, total })
    }

    /// Number of shards `S`.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Distinct objects across all shards (closure replicas counted once).
    #[must_use]
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether no shard holds any object.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The instance of shard `s`.
    ///
    /// # Panics
    /// Panics when `s` is out of range.
    #[must_use]
    pub fn shard(&self, s: usize) -> &Must {
        &self.shards[s]
    }

    /// Shard `s`'s local→global id map (`map[local] = global`).
    ///
    /// # Panics
    /// Panics when `s` is out of range.
    #[must_use]
    pub fn global_ids(&self, s: usize) -> &[ObjectId] {
        &self.global_ids[s]
    }

    /// Shard `s`'s routing summary.
    ///
    /// # Panics
    /// Panics when `s` is out of range.
    #[must_use]
    pub fn summary(&self, s: usize) -> &ShardSummary {
        &self.summaries[s]
    }

    /// The weights in force (identical across shards by construction).
    #[must_use]
    pub fn weights(&self) -> &Weights {
        self.shards[0].weights()
    }

    /// Dynamically inserts a new object (Section IX), routing it to the
    /// currently **smallest shard** (ties break toward the lowest index),
    /// which keeps shard sizes balanced as the corpus grows.  Returns the
    /// new *global* id.
    ///
    /// # Errors
    /// [`MustError::Config`] when the chosen shard's backend does not
    /// support dynamic insertion (only HNSW does — flat graphs need
    /// periodic reconstruction); vector errors for malformed rows.
    /// Nothing changes on error:
    ///
    /// ```
    /// use must_core::framework::MustBuildOptions;
    /// use must_core::shard::{ShardSpec, ShardedMust};
    /// use must_core::MustError;
    /// use must_vector::{MultiVectorSet, VectorSetBuilder, Weights};
    ///
    /// let mut m0 = VectorSetBuilder::new(2, 6);
    /// for i in 0..6 {
    ///     m0.push_normalized(&[1.0, i as f32]).unwrap();
    /// }
    /// let objects = MultiVectorSet::new(vec![m0.finish()]).unwrap();
    /// // The default recipe builds flat graphs, which cannot grow online.
    /// let mut sharded = ShardedMust::build(
    ///     objects, Weights::uniform(1), MustBuildOptions::default(), ShardSpec::clustered(2),
    /// ).unwrap();
    /// let err = sharded.insert_object(&[vec![0.6, 0.8]]).unwrap_err();
    /// assert!(matches!(err, MustError::Config(_)));
    /// assert_eq!(sharded.len(), 6, "nothing changed on rejection");
    /// ```
    pub fn insert_object(&mut self, rows: &[Vec<f32>]) -> Result<ObjectId, MustError> {
        let target = (0..self.shards.len())
            .min_by_key(|&s| self.global_ids[s].len())
            .expect("at least one shard");
        let global = self.len() as ObjectId;
        let shard = self.shards[target].sole_mut();
        shard.insert_object(rows)?;
        self.global_ids[target].push(global);
        self.total += 1;
        // Keep the routing bound valid: widen the target's radii around
        // its *fixed* centroid so the new row is covered (re-deriving the
        // centroid would shift every other member's residual).
        let fused = shard.objects().fused();
        let local = fused.len() as ObjectId - 1;
        self.summaries[target].grow(fused, local);
        Ok(global)
    }

    /// The shards to search for `query` under `weights`: the `fan_out`
    /// summaries with the highest weighted upper bound
    /// `Σ_k ω²_k (IP(q_k, c_k) + ‖q_k‖ · radius_k)`, returned in ascending
    /// shard order.  `fan_out >= S` skips scoring (full fan-out).  The
    /// request has passed the shape check ([`ShardedMust::plan`]), so every
    /// slot and weight fits the layout.
    fn route(&self, query: &MultiQuery, weights: &Weights, fan_out: usize) -> Vec<usize> {
        let s = self.shards.len();
        if fan_out >= s {
            return (0..s).collect();
        }
        let layout = self.layout();
        let m = layout.num_modalities();
        // Per-modality query norms, shared across shards.
        let probes: Vec<Option<(&[f32], f32)>> =
            (0..m).map(|k| query.slot(k).map(|q| (q, kernels::ip(q, q).max(0.0).sqrt()))).collect();
        let mut terms = vec![0.0f32; m];
        let mut scored: Vec<(f32, usize)> = (0..s)
            .map(|i| {
                let summary = &self.summaries[i];
                for (k, term) in terms.iter_mut().enumerate() {
                    *term = match probes[k] {
                        Some((q, norm)) => {
                            let (a, _) = layout.segment_bounds(k);
                            kernels::ip(q, &summary.centroid()[a..a + q.len()])
                                + norm * summary.radii()[k]
                        }
                        None => 0.0,
                    };
                }
                (weights.weighted_sum(&terms), i)
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut selected: Vec<usize> =
            scored.into_iter().take(fan_out.max(1)).map(|(_, i)| i).collect();
        selected.sort_unstable();
        selected
    }

    /// Resolves a routing policy to `(shards to search, per-shard search
    /// parameters)` for one query, after the request checks every shard
    /// would make — `k` first, then the shape
    /// ([`must_vector::Layout::check_request`]) — so the router never sees
    /// a malformed query.  `routing: None` and `fan_out >= S`
    /// both yield every shard with the caller's `l` — the bit-identical
    /// full fan-out.  Routed searches keep the standard Algorithm-2
    /// parameters (random pool init included): measured on the committed
    /// sweep, dropping the random fill for shrunk beams loses ~0.8 pt of
    /// recall for no cost win — the fill also primes the Lemma-4 pruning
    /// threshold, so its evaluations pay for themselves.
    fn plan(
        &self,
        routing: Option<RoutePolicy>,
        query: &MultiQuery,
        weights: &Weights,
        k: usize,
        l: usize,
    ) -> Result<(Vec<usize>, SearchParams), MustError> {
        let params = request_params(k, routing.and_then(|p| p.l_shard).unwrap_or(l))?;
        self.layout().check_request(query, weights)?;
        let selected = match routing {
            None => (0..self.shards.len()).collect(),
            Some(policy) => self.route(query, weights, policy.fan_out),
        };
        Ok((selected, params))
    }

    /// The row layout every shard shares (assembly refuses shards that
    /// disagree on dims).
    fn layout(&self) -> &Layout {
        self.shards[0].objects().fused().layout()
    }

    /// Merges `(shard index, outcome)` pairs into the global top-`k`: map
    /// local ids to global, sort by `(similarity desc, global id asc)` — a
    /// total order, so the merge is deterministic — drop closure-replica
    /// duplicates (bit-identical copies of one object score identically in
    /// every shard holding it, so duplicates sort adjacent), and truncate.
    /// Per-shard stats and kernel counts accumulate.
    fn gather(&self, per_shard: Vec<(usize, SearchOutcome)>, k: usize, t0: Instant) -> SearchOutcome {
        let total: usize = per_shard.iter().map(|(_, out)| out.results.len()).sum();
        let mut results: Vec<(ObjectId, f32)> = Vec::with_capacity(total);
        let mut stats = SearchStats::default();
        let mut kernel_evals = 0;
        for (s, out) in per_shard {
            let map = &self.global_ids[s];
            results.extend(out.results.into_iter().map(|(local, sim)| (map[local as usize], sim)));
            stats.hops += out.stats.hops;
            stats.evaluated += out.stats.evaluated;
            stats.pruned += out.stats.pruned;
            kernel_evals += out.kernel_evals;
        }
        results.sort_unstable_by(answer_order);
        results.dedup_by(|a, b| a.0 == b.0);
        results.truncate(k);
        SearchOutcome { results, stats, kernel_evals, secs: t0.elapsed().as_secs_f64() }
    }
}

/// Build options for shard `s`: the caller's options with a
/// shard-decorrelated RNG seed (shard 0 keeps the original seed, so a
/// 1-shard build reproduces the unsharded one exactly).
fn shard_opts(opts: MustBuildOptions, s: usize) -> MustBuildOptions {
    MustBuildOptions {
        rng_seed: opts.rng_seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..opts
    }
}

/// The online sharded serving handle: a frozen [`ShardedMust`] behind an
/// [`Arc`] — every accessor through `Deref` — plus the handle's routing
/// policy.  Cheap to clone, `Send + Sync`, and — like [`MustServer`] —
/// bit-deterministic: a query's merged results are a pure function of the
/// query.  See the module docs for the dataflow.
#[derive(Clone)]
pub struct ShardedServer {
    inner: Arc<ShardedMust>,
    routing: Option<RoutePolicy>,
}

impl Deref for ShardedServer {
    type Target = ShardedMust;

    fn deref(&self) -> &ShardedMust {
        &self.inner
    }
}

impl ShardedServer {
    /// Freezes a built [`ShardedMust`] into a serving snapshot, consuming
    /// it: nothing is converted or copied, the shards were frozen when the
    /// instance was built or assembled.  The snapshot starts with routing
    /// disabled (full fan-out); dial it with
    /// [`ShardedServer::with_routing`].
    #[must_use]
    pub fn freeze(sharded: ShardedMust) -> Self {
        Self { inner: Arc::new(sharded), routing: None }
    }

    /// Loads a persisted bundle straight into a sharded serving snapshot.
    /// Accepts the sharded bundle v6 *and* both single-shard formats
    /// (v5, v7), which load as one shard with the identity id map.
    ///
    /// # Errors
    /// Propagates [`crate::persist::load_sharded`] errors.
    pub fn load(path: &std::path::Path) -> Result<Self, MustError> {
        Ok(Self::freeze(crate::persist::load_sharded(path)?))
    }

    /// A handle over the **same** snapshot that routes every search
    /// through `policy`: queries go to only the `policy.fan_out`
    /// shards whose [`ShardSummary`] scores highest under the active
    /// weights (defaults or per-query overrides alike), searching each
    /// with the policy's per-shard pool.  Cheap (one [`Arc`] clone); the
    /// unrouted handle keeps serving full fan-out.  Workers minted by
    /// [`ShardedServer::worker`] — and therefore every [`ServeEngine`]
    /// entry point — inherit the policy.
    #[must_use]
    pub fn with_routing(&self, policy: RoutePolicy) -> Self {
        Self { inner: Arc::clone(&self.inner), routing: Some(policy) }
    }

    /// The routing policy in force, if any.
    #[must_use]
    pub fn routing(&self) -> Option<RoutePolicy> {
        self.routing
    }

    /// The frozen server of shard `s` (per-shard introspection).
    ///
    /// # Panics
    /// Panics when `s` is out of range.
    #[must_use]
    pub fn shard(&self, s: usize) -> &MustServer {
        &self.inner.shards[s]
    }

    /// One-off top-`k` search with pool size `l` under the default
    /// weights: a transient [`ShardedWorker`] searches the routed shards in
    /// shard order and gathers the per-shard top-`k` into the global
    /// top-`k` by exact joint similarity.  Concurrency comes from running
    /// many queries at once — [`ServeEngine::search_batch`],
    /// [`ServeEngine::serve`] — never from splitting one query over
    /// threads.
    ///
    /// # Errors
    /// Propagates query/corpus arity and dimension mismatches (the first
    /// failing shard's error, by shard order).
    pub fn search(&self, query: &MultiQuery, k: usize, l: usize) -> Result<SearchOutcome, MustError> {
        self.worker().search(query, k, l)
    }

    /// A reusable per-thread scatter-gather handle: one [`ServerWorker`]
    /// (with its own [`must_graph::SearchScratch`]) per shard, so a query
    /// batch's steady state allocates nothing inside any shard's search
    /// loop.  The handle's routing policy is baked in, which is how
    /// routing reaches [`ServeEngine::serve`] and the batch paths.
    #[must_use]
    pub fn worker(&self) -> ShardedWorker<'_> {
        ShardedWorker {
            workers: self.inner.shards.iter().map(|shard| shard.worker()).collect(),
            sharded: &self.inner,
            routing: self.routing,
        }
    }
}

/// Reusable per-thread scatter-gather state bound to a [`ShardedServer`]
/// snapshot: shard `s`'s search always runs on worker `s`, so each shard's
/// scratch (visited stamps + result pool) is reused across the whole query
/// stream.
pub struct ShardedWorker<'a> {
    workers: Vec<ServerWorker<'a>>,
    sharded: &'a ShardedMust,
    routing: Option<RoutePolicy>,
}

impl ShardedWorker<'_> {
    /// Top-`k` search with pool size `l` under the default weights: the
    /// routed shards are searched sequentially on the calling thread, then
    /// gathered.
    ///
    /// # Errors
    /// Propagates query/corpus arity and dimension mismatches.
    pub fn search(&mut self, query: &MultiQuery, k: usize, l: usize) -> Result<SearchOutcome, MustError> {
        self.run_query(query, None, k, l)
    }
}

impl EngineWorker for ShardedWorker<'_> {
    /// The sharded query body: `None` resolves to the frozen weights
    /// (which [`ShardedMust`] validated identical across shards); `k` and
    /// the request's shape are checked once, before routing; the handle's
    /// routing policy picks the shards and the per-shard parameters; each
    /// selected shard runs on its own [`ServerWorker`]; the per-shard
    /// top-`k` lists are gathered.  The router scores summaries under the
    /// same weights the shards search with.
    fn run_query(
        &mut self,
        query: &MultiQuery,
        weights: Option<&Weights>,
        k: usize,
        l: usize,
    ) -> Result<SearchOutcome, MustError> {
        let t0 = Instant::now();
        let sharded = self.sharded;
        let weights = weights.unwrap_or_else(|| sharded.weights());
        let (selected, params) = sharded.plan(self.routing, query, weights, k, l)?;
        let mut per_shard = Vec::with_capacity(selected.len());
        for s in selected {
            per_shard.push((s, self.workers[s].search_weighted_with_params(query, weights, params)?));
        }
        Ok(sharded.gather(per_shard, k, t0))
    }
}

impl ServeEngine for ShardedServer {
    type Worker<'a> = ShardedWorker<'a>;

    fn serve_worker(&self) -> Self::Worker<'_> {
        self.worker()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use must_graph::GraphRecipe;
    use must_vector::VectorSetBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(n: usize) -> MultiVectorSet {
        corpus_of_dims(n, 8, 4)
    }

    fn corpus_of_dims(n: usize, d0: usize, d1: usize) -> MultiVectorSet {
        let mut rng = StdRng::seed_from_u64(99);
        let mut m0 = VectorSetBuilder::new(d0, n);
        let mut m1 = VectorSetBuilder::new(d1, n);
        for _ in 0..n {
            let v0: Vec<f32> = (0..d0).map(|_| rng.random::<f32>() - 0.5).collect();
            let v1: Vec<f32> = (0..d1).map(|_| rng.random::<f32>() - 0.5).collect();
            m0.push_normalized(&v0).unwrap();
            m1.push_normalized(&v1).unwrap();
        }
        MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap()
    }

    fn self_query(set: &MultiVectorSet, id: ObjectId) -> MultiQuery {
        MultiQuery::full(vec![
            set.modality(0).get(id).to_vec(),
            set.modality(1).get(id).to_vec(),
        ])
    }

    // The sharded handle must be shareable and sendable across threads.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedServer>();
    };

    #[test]
    fn underfull_shards_merge_to_the_exact_global_top_k() {
        // k exceeds every shard's cardinality: 24 objects over 8 shards is
        // 3 per shard, and the caller asks for 10.  Each shard can only
        // contribute 3 candidates, so the merged answer is the exact global
        // top-10 by brute force — the capacity hint, dedup, and truncate in
        // `gather` all run on a pool smaller than `k`.
        let set = corpus(24);
        let w = Weights::uniform(2);
        // Clustered closure replication stores boundary objects in several
        // shards, so the merged pool really does hold duplicates that the
        // dedup must collapse *before* the truncate.
        for spec in [ShardSpec::clustered(6), ShardSpec::clustered(8)] {
            let sharded = ShardedMust::build(
                set.clone(),
                Weights::uniform(2),
                MustBuildOptions { gamma: 4, ..Default::default() },
                spec,
            )
            .unwrap();
            let server = ShardedServer::freeze(sharded);
            for id in [0u32, 11, 23] {
                let q = self_query(&set, id);
                let out = server.search(&q, 10, 60).unwrap();
                assert_eq!(out.results.len(), 10, "query {id} ({spec:?})");
                let qe = set.fused().query(&q, &w).unwrap();
                let mut exact: Vec<(ObjectId, f32)> = (0..24).map(|o| (o, qe.ip(o))).collect();
                exact.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                exact.truncate(10);
                let got: Vec<ObjectId> = out.results.iter().map(|r| r.0).collect();
                let want: Vec<ObjectId> = exact.iter().map(|r| r.0).collect();
                assert_eq!(got, want, "query {id} ({spec:?}): merged top-10 must be exact");
                let unique: std::collections::HashSet<ObjectId> = got.iter().copied().collect();
                assert_eq!(unique.len(), 10, "query {id} ({spec:?}): no duplicate survives");
            }
        }
    }

    #[test]
    fn clustered_split_makes_every_object_a_primary_of_exactly_one_shard() {
        let set = corpus(103);
        let pieces = split(&set, &Weights::uniform(2), 4);
        assert_eq!(pieces.len(), 4);
        let mut primary_of = [None; 103];
        for (s, (piece, ids, primaries)) in pieces.iter().enumerate() {
            assert_eq!(piece.len(), ids.len());
            assert!(*primaries >= 1 && *primaries <= ids.len(), "shard {s}");
            for (local, &global) in ids.iter().enumerate() {
                if local < *primaries {
                    let prior = primary_of[global as usize].replace(s);
                    assert_eq!(prior, None, "object {global} is a primary of two shards");
                }
                // Rows, replicas included, must be copied bit-exact.
                for k in 0..2 {
                    assert_eq!(
                        piece.modality(k).get(local as ObjectId),
                        set.modality(k).get(global)
                    );
                }
            }
        }
        assert!(primary_of.iter().all(Option::is_some), "every object has a primary shard");
    }

    #[test]
    fn sharded_self_queries_resolve_to_global_ids() {
        let set = corpus(200);
        let sharded = ShardedMust::build(
            set.clone(),
            Weights::uniform(2),
            MustBuildOptions::default(),
            ShardSpec::clustered(4),
        )
        .unwrap();
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.len(), 200);
        let server = ShardedServer::freeze(sharded);
        for id in [0u32, 3, 77, 199] {
            let q = self_query(&set, id);
            let out = server.search(&q, 1, 60).unwrap();
            assert_eq!(out.results[0].0, id);
        }
    }

    // The one-off path (a transient worker) and a reused worker, whose
    // per-shard scratch carries over between queries, agree bitwise.
    #[test]
    fn one_off_and_reused_worker_search_agree_bitwise() {
        let set = corpus(180);
        let sharded = ShardedMust::build(
            set.clone(),
            Weights::new(vec![0.7, 0.5]).unwrap(),
            MustBuildOptions::default(),
            ShardSpec::clustered(3),
        )
        .unwrap();
        let server = ShardedServer::freeze(sharded);
        let mut worker = server.worker();
        for id in [1u32, 50, 120] {
            let q = self_query(&set, id);
            let a = server.search(&q, 5, 50).unwrap();
            let b = worker.search(&q, 5, 50).unwrap();
            assert_eq!(a.results, b.results);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn batch_is_thread_count_invariant() {
        let set = corpus(160);
        let sharded = ShardedMust::build(
            set.clone(),
            Weights::uniform(2),
            MustBuildOptions::default(),
            ShardSpec::clustered(2),
        )
        .unwrap();
        let server = ShardedServer::freeze(sharded);
        let queries: Vec<MultiQuery> =
            (0..24).map(|i| self_query(&set, i * 6)).collect();
        let serial = server.search_batch(&queries, 5, 40, 1);
        for threads in [2, 5, 16] {
            let batch = server.search_batch(&queries, 5, 40, threads);
            for (a, b) in batch.iter().zip(&serial) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.results, b.results, "threads={threads}");
                assert_eq!(a.stats, b.stats, "threads={threads}");
            }
        }
    }

    #[test]
    fn insertion_routes_to_smallest_shard() {
        let set = corpus(91);
        let mut sharded = ShardedMust::build(
            set,
            Weights::uniform(2),
            MustBuildOptions { recipe: GraphRecipe::Hnsw, ..Default::default() },
            ShardSpec::clustered(3),
        )
        .unwrap();
        // The smallest shard, lowest index on a tie.
        let sizes: Vec<usize> = (0..3).map(|s| sharded.global_ids(s).len()).collect();
        let smallest = (0..3).min_by_key(|&s| sizes[s]).unwrap();
        let new0: Vec<f32> = (0..8).map(|i| if i == 3 { 1.0 } else { 0.01 }).collect();
        let new1: Vec<f32> = (0..4).map(|i| if i == 2 { 1.0 } else { 0.01 }).collect();
        let id = sharded.insert_object(&[new0.clone(), new1.clone()]).unwrap();
        assert_eq!(id, 91, "global ids keep growing densely");
        for (s, size) in sizes.into_iter().enumerate() {
            let grown = usize::from(s == smallest);
            assert_eq!(sharded.global_ids(s).len(), size + grown, "shard {s}");
        }
        assert_eq!(*sharded.global_ids(smallest).last().unwrap(), 91);
        assert_eq!(sharded.len(), 92);
        // The inserted object is findable through the frozen server.
        let server = ShardedServer::freeze(sharded);
        let q = MultiQuery::full(vec![new0, new1]);
        let out = server.search(&q, 1, 80).unwrap();
        assert_eq!(out.results[0].0, 91);
    }

    #[test]
    fn flat_backends_reject_sharded_insertion() {
        let set = corpus(60);
        let mut sharded = ShardedMust::build(
            set,
            Weights::uniform(2),
            MustBuildOptions::default(),
            ShardSpec::clustered(2),
        )
        .unwrap();
        assert!(matches!(
            sharded.insert_object(&[vec![1.0; 8], vec![1.0; 4]]),
            Err(MustError::Config(_))
        ));
        assert_eq!(sharded.len(), 60, "nothing changes on rejection");
    }

    #[test]
    fn degenerate_specs_are_config_errors() {
        let set = corpus(10);
        assert!(matches!(
            ShardedMust::build(
                set.clone(),
                Weights::uniform(2),
                MustBuildOptions::default(),
                ShardSpec::clustered(0)
            ),
            Err(MustError::Config(_))
        ));
        assert!(matches!(
            ShardedMust::build(
                set,
                Weights::uniform(2),
                MustBuildOptions::default(),
                ShardSpec::clustered(11)
            ),
            Err(MustError::Config(_))
        ));
    }

    #[test]
    fn from_parts_validates_maps_and_weights() {
        let a = Must::build(corpus(20), Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let b = Must::build(corpus(20), Weights::uniform(2), MustBuildOptions::default()).unwrap();
        // Cross-shard overlap is legal (clustered closure replication
        // stores boundary objects in several shards): 20 + 20 rows over
        // ids 0..30 assemble into 30 distinct objects.
        let overlapping =
            ShardedMust::from_parts(vec![a, b], vec![(0..20).collect(), (10..30).collect()])
                .expect("overlapping maps with dense union are valid");
        assert_eq!(overlapping.len(), 30, "replicas count once");
        // …but the union must stay dense: a gap breaks the id allocator.
        let a = Must::build(corpus(20), Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let b = Must::build(corpus(20), Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let Err(err) =
            ShardedMust::from_parts(vec![a, b], vec![(0..20).collect(), (21..41).collect()])
        else {
            panic!("a gap in the id union must be rejected");
        };
        assert!(matches!(err, MustError::Config(_)));
        // A duplicate *within* one shard is always corrupt.
        let e = Must::build(corpus(20), Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let mut dup: Vec<u32> = (0..20).collect();
        dup[19] = 0;
        assert!(matches!(
            ShardedMust::from_parts(vec![e], vec![dup]),
            Err(MustError::Config(_))
        ));
        // Mismatched map length must be rejected.
        let c = Must::build(corpus(20), Weights::uniform(2), MustBuildOptions::default()).unwrap();
        assert!(matches!(
            ShardedMust::from_parts(vec![c], vec![(0..19).collect()]),
            Err(MustError::Config(_))
        ));
        // An id past the corpus but inside the last partial bitmap word
        // must be rejected too (10 objects: only ids 0..10 are valid,
        // yet 63 still indexes bitmap word 0).
        let d = Must::build(corpus(10), Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let mut ids: Vec<u32> = (0..10).collect();
        ids[9] = 63;
        assert!(matches!(
            ShardedMust::from_parts(vec![d], vec![ids]),
            Err(MustError::Config(_))
        ));
        // Shards of different dims must be rejected: the router slices
        // every summary at the first shard's segment bounds.
        let opts = MustBuildOptions::default();
        let wide = Must::build(corpus_of_dims(20, 16, 4), Weights::uniform(2), opts).unwrap();
        let narrow = Must::build(corpus_of_dims(20, 4, 4), Weights::uniform(2), opts).unwrap();
        assert!(matches!(
            ShardedMust::from_parts(vec![wide, narrow], vec![(0..20).collect(), (0..20).collect()]),
            Err(MustError::Config(_))
        ));
    }
}
