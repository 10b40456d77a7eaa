//! The online serving layer (Fig. 4's offline/online split): a read-only,
//! `Send + Sync` handle over a frozen MUST snapshot that many threads can
//! search concurrently.
//!
//! A [`MustServer`] **is** a frozen [`Must`]: [`MustServer::freeze`] moves
//! the instance behind an [`Arc`] — corpus, weights, index, SQ8 codes,
//! prune flag and tombstones, nothing converted or copied — and every
//! accessor comes through `Deref`.  The index moves in as it is: flat
//! graphs were frozen to CSR when construction ended, HNSW sits in two
//! fixed-stride slabs, and both are served from the arrays they were built
//! or loaded on.
//!
//! One query body, offline and online: [`Must::worker`] mints a
//! [`ServerWorker`] that borrows the `Must`, and its
//! [`crate::runtime::EngineWorker::run_query`] resolves the weights and the
//! search parameters and calls [`ServerWorker::search_weighted_with_params`]
//! — the f32 walk or the SQ8 walk + exact re-rank, where a tombstoned
//! vertex (Section IX) routes but never ranks.  [`Must::search`] (one-off,
//! transient scratch) and [`ServerWorker::search`] (reusable scratch) are
//! its default-weight shorthands, so a `Must` and the server frozen from
//! it give one answer to a query.  The weighted one-off, the batch fan-out and
//! the blocking serve loop are the provided methods of
//! [`crate::runtime::ServeEngine`].
//!
//! The flat walk's random pool initialisation draws from one constant
//! seed, so a query's results are **bit-identical** no matter which worker
//! runs it or in what order — the concurrency tests pin this down.
//!
//! Because the fused storage is unscaled and weighting happens on the
//! query row alone, the frozen weights are merely a **default**: a query
//! may carry a per-query [`Weights`] override, served from the same
//! snapshot with zero extra state — the paper's user-defined-weight
//! scenario (Tab. IX, §VIII-F) as a parameter of one query, not a second
//! API.

use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use must_graph::search::SearchScratch;
use must_graph::{answer_order, QueryScorer, SearchParams};
use must_vector::{MultiQuery, QuantizedRows, Weights};

use crate::framework::Must;
use crate::oracle::{MustQueryScorer, QuantizedQueryScorer};
use crate::runtime::{EngineWorker, ServeEngine};
use crate::search::{request_params, SearchOutcome};
use crate::MustError;

/// The index a server searches is the index its [`Must`] owned — one
/// enum, [`crate::index::MustIndex`].  The name stays at this path because
/// the repo benchmark matches on `server::ServingIndex::{Csr, Hnsw}`.
pub use crate::index::MustIndex as ServingIndex;

/// A shared, read-only serving handle: a frozen [`Must`] behind an
/// [`Arc`], cheap to clone, safe to search from any number of threads.
/// Its corpus, weights, index, codes and search entry points are the
/// frozen `Must`'s, through `Deref`; nothing can mutate it.
#[derive(Clone)]
pub struct MustServer(Arc<Must>);

impl Deref for MustServer {
    type Target = Must;

    fn deref(&self) -> &Must {
        &self.0
    }
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
    /// Nothing is converted or copied, and nothing is dropped: SQ8 codes,
    /// the prune flag and tombstones carry over, so the snapshot answers
    /// every query exactly as the `Must` did.  Tombstoned objects stay
    /// filtered until the next rebuild (Section IX);
    /// [`crate::persist::save`] still refuses an instance that has them.
    #[must_use]
    pub fn freeze(must: Must) -> Self {
        Self(Arc::new(must))
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

    /// The frozen `Must` of a snapshot that has one owner — a shard of a
    /// [`crate::shard::ShardedMust`], which never hands its `MustServer`s
    /// out, so insertion can reach the shard it grows.
    ///
    /// # Panics
    /// Panics when the snapshot has been cloned.
    pub(crate) fn sole_mut(&mut self) -> &mut Must {
        Arc::get_mut(&mut self.0).expect("a ShardedMust shard has a single owner")
    }
}

impl Must {
    /// A reusable per-thread search handle (allocation-free steady state:
    /// the search scratch persists across queries; the fused storage is
    /// borrowed, never copied).  Infallible by construction: `Must`
    /// validated its weight/corpus invariant at build or load time, and
    /// all per-query plumbing reports through each search's `Result`.  The
    /// visited stamps are pre-sized to this instance's graph here — the
    /// `O(n)` scratch allocation — so a sharded deployment's workers each
    /// carry scratch sized to their own shard.
    #[must_use]
    pub fn worker(&self) -> ServerWorker<'_> {
        let mut scratch = SearchScratch::default();
        scratch.reserve(self.index().len());
        ServerWorker { scratch, must: self }
    }
}

/// Reusable per-thread search state bound to a [`Must`] (frozen in a
/// [`MustServer`] or not).  Holds no per-weight state: the default and
/// override paths share the same scratch, so one worker can serve a
/// weight-churning stream.
pub struct ServerWorker<'a> {
    scratch: SearchScratch,
    must: &'a Must,
}

impl ServerWorker<'_> {
    /// Top-`k` search with pool size `l` under the default weights.
    /// Deterministic: the same query always yields the same ranked ids and
    /// [`must_graph::SearchStats`], regardless of thread or arrival order.
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
    /// walk, or — when the instance carries SQ8 codes — the quantized
    /// walk plus exact re-rank.  Tombstones are handled inside the walk,
    /// for every entry point: a deleted vertex routes it but never ranks
    /// ([`QueryScorer::is_live`]), so the pool settles `l` live entries.
    ///
    /// # Errors
    /// Propagates weight-arity and query/corpus mismatches.
    pub fn search_weighted_with_params(
        &mut self,
        query: &MultiQuery,
        weights: &Weights,
        params: SearchParams,
    ) -> Result<SearchOutcome, MustError> {
        let must = self.must;
        if let Some(quant) = must.quant() {
            return self.search_quantized_with_params(quant, query, weights, params);
        }
        let scorer =
            MustQueryScorer::from_rows(must.objects().fused(), query, weights, must.prune())?;
        let t0 = Instant::now();
        let res = must.index().search(&Live(&scorer, must), params, &mut self.scratch);
        Ok(SearchOutcome {
            results: res.results,
            stats: res.stats,
            kernel_evals: scorer.kernel_evals(),
            secs: t0.elapsed().as_secs_f64(),
        })
    }

    /// The quantized-scan + exact-re-rank recipe (DiskANN/SPANN-style,
    /// adapted to multi-vector joint similarity): the graph walk scores
    /// `u8` codes in one pass per candidate with an over-fetched pool of
    /// `rerank_k = 4 * k` live ids, then the pool is re-scored exactly on
    /// the f32 rows kept beside the codes, and the true top `k` returned.
    /// Both stages weight the query side only, so per-query overrides
    /// compose unchanged.
    fn search_quantized_with_params(
        &mut self,
        quant: &QuantizedRows,
        query: &MultiQuery,
        weights: &Weights,
        params: SearchParams,
    ) -> Result<SearchOutcome, MustError> {
        let must = self.must;
        let qscorer = QuantizedQueryScorer::from_rows(quant, query, weights, must.prune())?;
        // Exact re-rank wants ip() only; the prune flag is irrelevant.
        let exact = MustQueryScorer::from_rows(must.objects().fused(), query, weights, false)?;
        let t0 = Instant::now();
        let n = must.index().len();
        let rerank_k = params.k.saturating_mul(4).min(n).max(params.k.min(n)).max(1);
        let walk = SearchParams { k: rerank_k, l: params.l.max(rerank_k), ..params };
        let res = must.index().search(&Live(&qscorer, must), walk, &mut self.scratch);
        // The pool's f32 rows are cold (the walk read codes): start all the
        // misses before the first score needs one.
        for &(id, _) in &res.results {
            exact.warm(id);
        }
        let mut pool: Vec<(u32, f32)> =
            res.results.iter().map(|&(id, _)| (id, exact.score(id))).collect();
        pool.sort_by(answer_order);
        pool.truncate(params.k);
        Ok(SearchOutcome {
            results: pool,
            stats: res.stats,
            kernel_evals: qscorer.kernel_evals() + exact.kernel_evals(),
            secs: t0.elapsed().as_secs_f64(),
        })
    }
}

/// A walk's scorer with the instance's tombstones: `is_live` reads
/// [`Must::is_deleted`], everything else is the wrapped scorer's.
struct Live<'s, S>(&'s S, &'s Must);

impl<S: QueryScorer> QueryScorer for Live<'_, S> {
    fn score(&self, id: u32) -> f32 {
        self.0.score(id)
    }

    fn score_pruned(&self, id: u32, threshold: f32) -> Option<f32> {
        self.0.score_pruned(id, threshold)
    }

    fn warm(&self, id: u32) {
        self.0.warm(id);
    }

    fn is_live(&self, id: u32) -> bool {
        !self.1.is_deleted(id)
    }
}

impl EngineWorker for ServerWorker<'_> {
    /// The single-shard query body: `None` resolves to the instance's
    /// weights, `(k, l)` to validated [`SearchParams`].
    fn run_query(
        &mut self,
        query: &MultiQuery,
        weights: Option<&Weights>,
        k: usize,
        l: usize,
    ) -> Result<SearchOutcome, MustError> {
        let params = request_params(k, l)?;
        let must = self.must;
        self.search_weighted_with_params(query, weights.unwrap_or(must.weights()), params)
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
    use must_vector::{MultiVectorSet, VectorSetBuilder};
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
