//! The online serving layer (Fig. 4's offline/online split): a read-only,
//! `Send + Sync` handle over a frozen MUST snapshot that many threads can
//! search concurrently.
//!
//! [`Must`] owns a mutable corpus (tombstones, dynamic insertion) and its
//! searcher advances an RNG counter per query, so neither is shareable
//! across threads nor order-deterministic.  [`MustServer`] freezes the
//! corpus + weights + graph behind an [`Arc`].  The index moves in as it
//! is: flat graphs were frozen to CSR when construction ended, HNSW sits
//! in two fixed-stride slabs, and both are served from the arrays they
//! were built or loaded on.
//! Every search derives its RNG seed from a fixed serving constant, so a
//! query's results are **bit-identical** no matter which worker runs it or
//! in what order — the concurrency tests pin this down.
//!
//! Because the fused storage is unscaled and weighting happens on the
//! query row alone, the frozen weights are merely a **default**: a query
//! may carry a per-query [`Weights`] override, served from the same
//! snapshot with zero extra state — the paper's user-defined-weight
//! scenario (Tab. IX, §VIII-F) as a parameter of one query, not a second
//! API.
//!
//! One query body: [`ServerWorker`]'s
//! [`crate::runtime::EngineWorker::run_query`] resolves the weights and
//! the search parameters and calls
//! [`ServerWorker::search_weighted_with_params`].  [`MustServer::search`]
//! (one-off, transient scratch) and [`ServerWorker::search`] (reusable
//! scratch) are its default-weight shorthands; the weighted one-off, the
//! batch fan-out and the blocking serve loop are the provided methods of
//! [`crate::runtime::ServeEngine`].

use std::sync::Arc;
use std::time::Instant;

use must_graph::search::SearchScratch;
use must_graph::{QueryScorer, SearchParams};
use must_vector::{MultiQuery, MultiVectorSet, QuantizedRows, Weights};

use crate::framework::Must;
use crate::oracle::{MustQueryScorer, QuantizedQueryScorer};
use crate::runtime::{EngineWorker, ServeEngine};
use crate::search::{request_params, SearchOutcome};
use crate::MustError;

/// Fixed RNG seed for the random pool initialisation of every served
/// query.  A *constant* (rather than `Must`'s per-searcher counter) makes
/// serving results a pure function of the query — the property that lets
/// concurrent and serial execution agree bit-for-bit.
const SERVE_RNG_SEED: u64 = 0x5E7E_D05E_ED00;

/// The index a server searches is the index its [`Must`] owned — one
/// enum, [`crate::index::MustIndex`].  The name stays at this path because
/// the repo benchmark matches on `server::ServingIndex::{Csr, Hnsw}`.
pub use crate::index::MustIndex as ServingIndex;

struct ServerCore {
    /// The frozen corpus; its fused rows are the storage engine every
    /// worker scores against, shared via the core's [`Arc`].
    objects: MultiVectorSet,
    /// The default weights (the configuration the index was built under);
    /// any query may override them.
    weights: Weights,
    index: ServingIndex,
    prune: bool,
    /// The SQ8 companion engine, when the frozen [`Must`] carried one.
    /// Its presence flips every search into quantized-scan mode: the
    /// graph walk scores `u8` codes (one pass, pruning only under a
    /// certified margin) and the top `4k` pool is exact-re-ranked on the
    /// retained f32 rows.
    quant: Option<QuantizedRows>,
}

/// A shared, read-only serving handle: cheap to clone, safe to search
/// from any number of threads.
#[derive(Clone)]
pub struct MustServer {
    core: Arc<ServerCore>,
}

/// One request on a [`ServeEngine::serve`] stream or a
/// [`crate::runtime::ServeRuntime`].
pub struct ServeRequest {
    /// Caller-chosen correlation id, echoed in the reply.
    pub id: u64,
    /// The query.
    pub query: MultiQuery,
    /// Number of results wanted.
    pub k: usize,
    /// Result-pool size (`l >= k`).
    pub l: usize,
}

/// The reply to one [`ServeRequest`].
pub struct ServeReply {
    /// The request's correlation id.
    pub id: u64,
    /// The search outcome (or the per-query error).
    pub outcome: Result<SearchOutcome, MustError>,
}

impl MustServer {
    /// Freezes a built [`Must`] into a serving snapshot, consuming it.
    /// Nothing is converted or copied; tombstone state is discarded
    /// (serving snapshots are immutable — rebuild and re-freeze to apply
    /// deletions, as the paper's Section IX prescribes).
    ///
    /// `Must` guarantees its weights cover the corpus, so the snapshot's
    /// default-weight invariant holds by construction and
    /// [`MustServer::worker`] is infallible.
    #[must_use]
    pub fn freeze(must: Must) -> Self {
        let parts = must.into_parts();
        debug_assert_eq!(
            parts.weights.modalities(),
            parts.objects.num_modalities(),
            "Must validates weight arity at build/load time"
        );
        Self {
            core: Arc::new(ServerCore {
                objects: parts.objects,
                weights: parts.weights,
                index: parts.index,
                prune: parts.prune,
                quant: parts.quant,
            }),
        }
    }

    /// Loads a persisted single-shard bundle (v5 or v7 — see
    /// [`crate::persist`]) straight into a serving snapshot — the online
    /// half of the offline/online split.  v7 bundles carry the SQ8 codes,
    /// so the loaded server answers in quantized-scan + re-rank mode.
    ///
    /// # Errors
    /// Propagates [`crate::persist::load`] errors ([`MustError::Io`] /
    /// [`MustError::Config`]).
    pub fn load(path: &std::path::Path) -> Result<Self, MustError> {
        Ok(Self::freeze(crate::persist::load(path)?))
    }

    /// The frozen SQ8 engine, when this snapshot serves in
    /// quantized-scan + re-rank mode.
    #[must_use]
    pub fn quant(&self) -> Option<&QuantizedRows> {
        self.core.quant.as_ref()
    }

    /// The frozen corpus.
    #[must_use]
    pub fn objects(&self) -> &MultiVectorSet {
        &self.core.objects
    }

    /// The default weights (used when a query carries no override).
    #[must_use]
    pub fn weights(&self) -> &Weights {
        &self.core.weights
    }

    /// The frozen index.
    #[must_use]
    pub fn index(&self) -> &ServingIndex {
        &self.core.index
    }

    /// Number of served objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.core.objects.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.core.objects.is_empty()
    }

    /// One-off top-`k` search with pool size `l` under the default
    /// weights.  Deterministic: the same query always yields the same
    /// ranked ids and [`must_graph::SearchStats`], regardless of thread or
    /// arrival order.
    ///
    /// # Errors
    /// Propagates query/corpus arity and dimension mismatches.
    pub fn search(&self, query: &MultiQuery, k: usize, l: usize) -> Result<SearchOutcome, MustError> {
        self.worker().search(query, k, l)
    }

    /// A reusable per-thread search handle (allocation-free steady state:
    /// the search scratch persists across queries; the fused storage is
    /// shared, never copied).  Infallible by construction: the snapshot's
    /// weight/corpus invariant was validated at freeze time, and all
    /// per-query plumbing reports through each search's `Result`.  The
    /// visited stamps are pre-sized to this snapshot's graph here — the
    /// `O(n)` scratch allocation — so a sharded deployment's workers each
    /// carry scratch sized to their own shard.
    #[must_use]
    pub fn worker(&self) -> ServerWorker<'_> {
        let mut scratch = SearchScratch::default();
        scratch.reserve(self.core.index.len());
        ServerWorker { scratch, core: &self.core }
    }
}

/// Reusable per-thread search state bound to a [`MustServer`] snapshot.
/// Holds no per-weight state: the default and override paths share the
/// same scratch, so one worker can serve a weight-churning stream.
pub struct ServerWorker<'a> {
    scratch: SearchScratch,
    core: &'a ServerCore,
}

impl ServerWorker<'_> {
    /// Top-`k` search with pool size `l` under the snapshot's default
    /// weights; see [`MustServer::search`] for the determinism contract.
    ///
    /// # Errors
    /// Propagates query/corpus arity and dimension mismatches;
    /// [`MustError::Config`] for `k = 0`.
    pub fn search(
        &mut self,
        query: &MultiQuery,
        k: usize,
        l: usize,
    ) -> Result<SearchOutcome, MustError> {
        self.run_query(query, None, k, l)
    }

    /// The search under explicit `weights` and [`SearchParams`]: the f32
    /// walk, or — when the snapshot carries SQ8 codes — the quantized
    /// walk plus exact re-rank.
    ///
    /// # Errors
    /// Propagates weight-arity and query/corpus mismatches.
    pub fn search_weighted_with_params(
        &mut self,
        query: &MultiQuery,
        weights: &Weights,
        params: SearchParams,
    ) -> Result<SearchOutcome, MustError> {
        if self.core.quant.is_some() {
            return self.search_quantized_with_params(query, weights, params);
        }
        let scorer =
            MustQueryScorer::from_rows(self.core.objects.fused(), query, weights, self.core.prune)?;
        let t0 = Instant::now();
        let res = self.core.index.search(&scorer, params, &mut self.scratch, SERVE_RNG_SEED);
        Ok(SearchOutcome {
            results: res.results,
            stats: res.stats,
            kernel_evals: scorer.kernel_evals(),
            secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// The quantized-scan + exact-re-rank recipe (DiskANN/SPANN-style,
    /// adapted to multi-vector joint similarity): the graph walk scores
    /// `u8` codes in one pass per candidate with an over-fetched
    /// pool of `rerank_k = 4 * k`, then the pool is re-scored exactly on
    /// the retained f32 rows and the true top `k` returned.  Both stages
    /// weight the query side only, so per-query overrides compose
    /// unchanged.
    fn search_quantized_with_params(
        &mut self,
        query: &MultiQuery,
        weights: &Weights,
        params: SearchParams,
    ) -> Result<SearchOutcome, MustError> {
        let core = self.core;
        let quant = core.quant.as_ref().expect("checked by the caller");
        let qscorer = QuantizedQueryScorer::from_rows(quant, query, weights, core.prune)?;
        // Exact re-rank wants ip() only; the prune flag is irrelevant.
        let exact = MustQueryScorer::from_rows(core.objects.fused(), query, weights, false)?;
        let t0 = Instant::now();
        let n = core.index.len();
        let rerank_k = params.k.saturating_mul(4).min(n).max(params.k.min(n)).max(1);
        let walk = SearchParams {
            k: rerank_k,
            l: params.l.max(rerank_k),
            random_init: params.random_init,
        };
        let res = core.index.search(&qscorer, walk, &mut self.scratch, SERVE_RNG_SEED);
        // The pool's f32 rows are cold (the walk read codes): start all the
        // misses before the first score needs one.
        for &(id, _) in &res.results {
            exact.warm(id);
        }
        let mut pool: Vec<(u32, f32)> =
            res.results.iter().map(|&(id, _)| (id, exact.score(id))).collect();
        pool.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
        });
        pool.truncate(params.k);
        Ok(SearchOutcome {
            results: pool,
            stats: res.stats,
            kernel_evals: qscorer.kernel_evals() + exact.kernel_evals(),
            secs: t0.elapsed().as_secs_f64(),
        })
    }
}

impl EngineWorker for ServerWorker<'_> {
    /// The single-shard query body: `None` resolves to the frozen
    /// weights, `(k, l)` to validated [`SearchParams`].
    fn run_query(
        &mut self,
        query: &MultiQuery,
        weights: Option<&Weights>,
        k: usize,
        l: usize,
    ) -> Result<SearchOutcome, MustError> {
        let params = request_params(k, l)?;
        let core = self.core;
        self.search_weighted_with_params(query, weights.unwrap_or(&core.weights), params)
    }
}

impl ServeEngine for MustServer {
    type Worker<'a> = ServerWorker<'a>;

    fn serve_worker(&self) -> Self::Worker<'_> {
        self.worker()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::MustBuildOptions;
    use must_graph::GraphRecipe;
    use must_vector::VectorSetBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(n: usize) -> MultiVectorSet {
        let mut rng = StdRng::seed_from_u64(21);
        let mut m0 = VectorSetBuilder::new(8, n);
        let mut m1 = VectorSetBuilder::new(4, n);
        for _ in 0..n {
            let v0: Vec<f32> = (0..8).map(|_| rng.random::<f32>() - 0.5).collect();
            let v1: Vec<f32> = (0..4).map(|_| rng.random::<f32>() - 0.5).collect();
            m0.push_normalized(&v0).unwrap();
            m1.push_normalized(&v1).unwrap();
        }
        MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap()
    }

    fn self_query(set: &MultiVectorSet, id: u32) -> MultiQuery {
        MultiQuery::full(vec![
            set.modality(0).get(id).to_vec(),
            set.modality(1).get(id).to_vec(),
        ])
    }

    fn server(n: usize, recipe: GraphRecipe) -> MustServer {
        let set = corpus(n);
        let must = Must::build(
            set,
            Weights::uniform(2),
            MustBuildOptions { recipe, ..Default::default() },
        )
        .unwrap();
        MustServer::freeze(must)
    }

    // The serving handle must be shareable and sendable across threads.
    const _: fn() = || {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MustServer>();
    };

    #[test]
    fn frozen_server_finds_self_queries() {
        for recipe in [GraphRecipe::Fused, GraphRecipe::Hnsw] {
            let srv = server(200, recipe);
            assert_eq!(srv.len(), 200);
            for id in [0u32, 77, 199] {
                let q = self_query(srv.objects(), id);
                let out = srv.search(&q, 1, 60).unwrap();
                assert_eq!(out.results[0].0, id, "{}", srv.index().label());
            }
        }
    }

    #[test]
    fn repeated_searches_are_bit_identical() {
        let srv = server(250, GraphRecipe::Fused);
        let q = self_query(srv.objects(), 123);
        let a = srv.search(&q, 5, 50).unwrap();
        let mut worker = srv.worker();
        for _ in 0..3 {
            let b = worker.search(&q, 5, 50).unwrap();
            assert_eq!(a.results, b.results);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn default_search_equals_weighted_search_with_default_weights() {
        let srv = server(200, GraphRecipe::Fused);
        let default = srv.weights().clone();
        for id in [3u32, 80, 170] {
            let q = self_query(srv.objects(), id);
            let a = srv.search(&q, 5, 50).unwrap();
            let b = srv.search_weighted(&q, &default, 5, 50).unwrap();
            assert_eq!(a.results, b.results);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn weighted_search_overrides_change_the_ranking_criterion() {
        let srv = server(250, GraphRecipe::Fused);
        // A query whose modality-0 part matches object A and whose
        // modality-1 part matches object B: extreme weights must steer
        // the top result toward the favoured modality's anchor.
        let (a, b) = (40u32, 141u32);
        let q = MultiQuery::full(vec![
            srv.objects().modality(0).get(a).to_vec(),
            srv.objects().modality(1).get(b).to_vec(),
        ]);
        let w_img = Weights::from_squared(vec![0.999, 0.001]).unwrap();
        let w_txt = Weights::from_squared(vec![0.001, 0.999]).unwrap();
        let top_img = srv.search_weighted(&q, &w_img, 1, 120).unwrap().results[0].0;
        let top_txt = srv.search_weighted(&q, &w_txt, 1, 120).unwrap().results[0].0;
        assert_eq!(top_img, a, "modality-0-heavy weights favour the image anchor");
        assert_eq!(top_txt, b, "modality-1-heavy weights favour the text anchor");
    }

    #[test]
    fn weighted_search_rejects_bad_arity_per_query() {
        let srv = server(100, GraphRecipe::Fused);
        let q = self_query(srv.objects(), 5);
        assert!(srv.search_weighted(&q, &Weights::uniform(3), 3, 30).is_err());
        // The snapshot is unaffected: the default path still works.
        assert!(srv.search(&q, 3, 30).is_ok());
    }

    #[test]
    fn search_batch_matches_serial_for_any_thread_count() {
        let srv = server(200, GraphRecipe::Fused);
        let queries: Vec<MultiQuery> =
            (0..32).map(|i| self_query(srv.objects(), i * 6)).collect();
        let serial: Vec<_> = queries.iter().map(|q| srv.search(q, 5, 40).unwrap()).collect();
        for threads in [1, 3, 8, 64] {
            let batch = srv.search_batch(&queries, 5, 40, threads);
            assert_eq!(batch.len(), serial.len());
            for (b, s) in batch.into_iter().zip(&serial) {
                let b = b.unwrap();
                assert_eq!(b.results, s.results, "threads={threads}");
                assert_eq!(b.stats, s.stats, "threads={threads}");
            }
        }
    }

    #[test]
    fn weighted_batch_matches_serial_for_any_thread_count() {
        let srv = server(180, GraphRecipe::Fused);
        let w = Weights::from_squared(vec![0.7, 0.3]).unwrap();
        let queries: Vec<MultiQuery> =
            (0..24).map(|i| self_query(srv.objects(), i * 7)).collect();
        let serial: Vec<_> = queries
            .iter()
            .map(|q| srv.search_weighted(q, &w, 5, 40).unwrap())
            .collect();
        for threads in [1, 4, 16] {
            let batch = srv.search_batch_weighted(&queries, &w, 5, 40, threads);
            for (b, s) in batch.into_iter().zip(&serial) {
                let b = b.unwrap();
                assert_eq!(b.results, s.results, "threads={threads}");
                assert_eq!(b.stats, s.stats, "threads={threads}");
            }
        }
    }

    #[test]
    fn serve_loop_answers_every_request() {
        let srv = server(150, GraphRecipe::Fused);
        let (req_tx, req_rx) = std::sync::mpsc::channel();
        let (rep_tx, rep_rx) = std::sync::mpsc::channel();
        for i in 0..20u64 {
            let q = self_query(srv.objects(), (i * 7) as u32);
            req_tx.send(ServeRequest { id: i, query: q, k: 1, l: 40 }).unwrap();
        }
        drop(req_tx);
        let served = srv.serve(req_rx, rep_tx, 4);
        assert_eq!(served, 20);
        let mut replies: Vec<ServeReply> = rep_rx.iter().collect();
        assert_eq!(replies.len(), 20);
        replies.sort_by_key(|r| r.id);
        for (i, rep) in replies.iter().enumerate() {
            assert_eq!(rep.id, i as u64);
            let out = rep.outcome.as_ref().unwrap();
            assert_eq!(out.results[0].0, (i * 7) as u32);
        }
    }

    #[test]
    fn malformed_queries_error_per_request_not_globally() {
        let srv = server(100, GraphRecipe::Fused);
        let good = self_query(srv.objects(), 5);
        let bad = MultiQuery::full(vec![vec![1.0; 3], vec![1.0; 4]]); // wrong dim
        let out = srv.search_batch(&[good, bad], 3, 30, 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn quantized_snapshot_reranks_to_the_f32_answer() {
        // Two identical builds over the same deterministic corpus: one
        // frozen as-is, one with the SQ8 engine attached.  The quantized
        // walk + 4k re-rank must recover the f32 top-1 on self-queries,
        // under default and overridden weights alike.
        let build = || {
            Must::build(corpus(220), Weights::uniform(2), MustBuildOptions::default()).unwrap()
        };
        let plain = MustServer::freeze(build());
        let mut with_codes = build();
        with_codes.quantize();
        let quantized = MustServer::freeze(with_codes);
        assert!(quantized.quant().is_some());
        assert!(plain.quant().is_none());
        let w = Weights::from_squared(vec![0.7, 0.3]).unwrap();
        for id in [1u32, 64, 133, 219] {
            let q = self_query(plain.objects(), id);
            let a = plain.search(&q, 5, 60).unwrap();
            let b = quantized.search(&q, 5, 60).unwrap();
            assert_eq!(a.results[0].0, b.results[0].0, "self-query anchor survives");
            assert!(b.results.len() <= 5);
            // Re-ranked similarities are exact f32 scores.
            for ((ia, sa), (ib, sb)) in a.results.iter().zip(&b.results) {
                if ia == ib {
                    assert!((sa - sb).abs() < 1e-5, "exact re-rank restores f32 scores");
                }
            }
            let aw = plain.search_weighted(&q, &w, 1, 60).unwrap();
            let bw = quantized.search_weighted(&q, &w, 1, 60).unwrap();
            assert_eq!(aw.results[0].0, bw.results[0].0);
        }
    }

    #[test]
    fn server_round_trips_through_binary_bundle() {
        let set = corpus(150);
        let must =
            Must::build(set, Weights::new(vec![0.7, 0.5]).unwrap(), MustBuildOptions::default())
                .unwrap();
        let dir = std::env::temp_dir().join("must-server-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("server-{}.mustb", std::process::id()));
        crate::persist::save(&must, &path).unwrap();
        let direct = MustServer::freeze(must);
        let loaded = MustServer::load(&path).unwrap();
        for id in [2u32, 70, 149] {
            let q = self_query(direct.objects(), id);
            let a = direct.search(&q, 5, 60).unwrap();
            let b = loaded.search(&q, 5, 60).unwrap();
            assert_eq!(a.results, b.results);
            assert_eq!(a.stats, b.stats);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
