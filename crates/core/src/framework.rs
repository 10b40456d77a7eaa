//! The user-facing MUST framework (Fig. 4): multi-vector corpus in, learned
//! or user-defined weights, fused index, joint search out.

use must_graph::{GraphRecipe, SearchScratch};
use must_vector::{FusedRows, MultiQuery, ObjectId, QuantizedRows, Weights};

use crate::index::{build_index, BuildReport, MustIndex};
use crate::oracle::JointOracle;
use crate::search::{exact_scan, SearchOutcome};
use crate::weights::{LearnedWeights, WeightLearnConfig, WeightLearner};
use crate::MustError;

/// Build-time options for [`Must::build`].
#[derive(Debug, Clone, Copy)]
pub struct MustBuildOptions {
    /// Neighbour bound `gamma` (Appendix H; default 30).
    pub gamma: usize,
    /// Graph backend (Fig. 10; default the paper's fused pipeline).
    pub recipe: GraphRecipe,
    /// Build RNG seed.
    pub rng_seed: u64,
    /// Worker threads for index construction; `0` (the default) resolves
    /// to `MUST_BUILD_THREADS`-capped available parallelism.  Sharded
    /// builds set an explicit per-shard share so the machine-wide budget
    /// holds across concurrent shard builds.  Every backend — the wave-
    /// scheduled HNSW included — is thread-count invariant, so this knob
    /// only moves wall clock, never the built graph.
    pub threads: usize,
}

impl Default for MustBuildOptions {
    fn default() -> Self {
        Self {
            gamma: 30,
            recipe: GraphRecipe::Fused,
            rng_seed: 0x4D05,
            threads: 0,
        }
    }
}

/// A built MUST instance: owns the corpus, the weights, and the fused
/// index.  The corpus's own unscaled fused rows are the one and only
/// storage engine — weights are applied query-side everywhere.
pub struct Must {
    objects: FusedRows,
    weights: Weights,
    index: MustIndex,
    report: BuildReport,
    prune: bool,
    /// Tombstone bitset (Section IX: deleted points stay in the graph for
    /// connectivity and are filtered from results until reconstruction).
    deleted: Vec<u64>,
    /// Optional SQ8 companion engine (same corpus, `u8` codes): when
    /// present, serving walks the graph on codes and exact-re-ranks the
    /// top pool on the f32 rows.  Kept in lockstep with the corpus by
    /// [`Must::insert_object`].
    quant: Option<QuantizedRows>,
    /// Search scratch reused by every [`Must::insert_object`] call, so a
    /// stream of inserts allocates the `O(n)` visited stamps once.
    insert_scratch: SearchScratch,
}

impl Must {
    /// Builds the fused index over `objects` under `weights`
    /// (either learned via [`Must::learn_weights`] or user-defined —
    /// Fig. 4(g)).
    ///
    /// # Errors
    /// Propagates weight-arity and configuration errors.
    pub fn build(
        objects: FusedRows,
        weights: Weights,
        opts: MustBuildOptions,
    ) -> Result<Self, MustError> {
        let (index, report) = {
            let oracle = JointOracle::new(&objects, &weights)?;
            build_index(&oracle, &opts)?
        };
        let deleted = vec![0u64; objects.len().div_ceil(64)];
        Ok(Self {
            objects,
            weights,
            index,
            report,
            prune: true,
            deleted,
            quant: None,
            insert_scratch: SearchScratch::default(),
        })
    }

    /// Marks object `id` as deleted (Section IX).  The vertex stays in the
    /// graph — it may be essential for connectivity — but is filtered from
    /// all future result sets, frozen serving included, until the index is
    /// rebuilt.  Returns whether the state changed.
    ///
    /// # Errors
    /// [`MustError::Config`] for `id >= len()`; nothing changes.
    pub fn mark_deleted(&mut self, id: ObjectId) -> Result<bool, MustError> {
        self.set_deleted(id, true)
    }

    /// Undoes [`Must::mark_deleted`].  Returns whether the state changed.
    ///
    /// # Errors
    /// [`MustError::Config`] for `id >= len()`; nothing changes.
    pub fn restore(&mut self, id: ObjectId) -> Result<bool, MustError> {
        self.set_deleted(id, false)
    }

    fn set_deleted(&mut self, id: ObjectId, deleted: bool) -> Result<bool, MustError> {
        if id as usize >= self.len() {
            return Err(MustError::Config(format!(
                "object id {id} out of range for {} objects",
                self.len()
            )));
        }
        if self.is_deleted(id) == deleted {
            return Ok(false);
        }
        self.deleted[id as usize / 64] ^= 1 << (id % 64);
        Ok(true)
    }

    /// Whether object `id` is tombstoned.
    #[must_use]
    pub fn is_deleted(&self, id: ObjectId) -> bool {
        self.deleted
            .get(id as usize / 64)
            .is_some_and(|w| w & (1 << (id as usize % 64)) != 0)
    }

    /// Number of tombstoned objects (a popcount of the bitset).
    #[must_use]
    pub fn deleted_count(&self) -> usize {
        self.deleted.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Dynamically inserts a new object (Section IX).  Supported by the
    /// HNSW backend, which handles incremental insertion; flat pipeline
    /// recipes require periodic reconstruction, exactly as the paper
    /// discusses, and return a configuration error.
    ///
    /// # Errors
    /// [`MustError::Config`] for non-HNSW backends; vector errors for
    /// malformed rows.
    pub fn insert_object(&mut self, rows: &[Vec<f32>]) -> Result<ObjectId, MustError> {
        if !matches!(self.index, MustIndex::Hnsw(_)) {
            return Err(MustError::Config(
                "dynamic insertion requires the HNSW backend; flat graphs need periodic \
                 reconstruction (paper Section IX)"
                    .into(),
            ));
        }
        let id = self.objects.push_object(rows)?;
        self.deleted.resize(self.objects.len().div_ceil(64), 0);
        // The corpus's fused storage grew in place; re-entering index
        // construction rebinds to it without copying rows or weights, and
        // without a pass over the corpus: the oracle computes its centroid
        // only for seed preprocessing, which an HNSW insert never runs.
        let Self { objects, weights, index, quant, insert_scratch, .. } = self;
        if let Some(q) = quant {
            // Keep the codes in lockstep, encoding the *normalised* values
            // the corpus actually stored: one more row block, whether the
            // engine was quantized here or loaded from a bundle.
            let normalized: Vec<&[f32]> = objects.object(id).collect();
            q.push_row(&normalized)?;
        }
        let oracle = JointOracle::new(objects, weights)?;
        match index {
            MustIndex::Hnsw(h) => h.insert_new(&oracle, id, 0x1A5E, insert_scratch),
            MustIndex::Csr(_) => unreachable!("checked above"),
        }
        Ok(id)
    }

    /// Reassembles a [`Must`] from a persisted corpus, weights, and a
    /// prebuilt index of either backend shape (CSR graph or layered HNSW)
    /// — the bundle load path (see [`crate::persist`]).
    ///
    /// # Errors
    /// Weight-arity and graph/corpus consistency errors.
    pub fn from_parts(
        objects: FusedRows,
        weights: Weights,
        index: MustIndex,
        opts: MustBuildOptions,
    ) -> Result<Self, MustError> {
        if weights.modalities() != objects.num_modalities() {
            return Err(MustError::Config("weight arity mismatch".into()));
        }
        if index.len() != objects.len() {
            return Err(MustError::Config("graph/corpus cardinality mismatch".into()));
        }
        let report = BuildReport {
            recipe: opts.recipe,
            gamma: opts.gamma,
            build_secs: 0.0,
            index_bytes: index.bytes(),
            pipeline: None,
        };
        let deleted = vec![0u64; objects.len().div_ceil(64)];
        Ok(Self {
            objects,
            weights,
            index,
            report,
            prune: true,
            deleted,
            quant: None,
            insert_scratch: SearchScratch::default(),
        })
    }

    /// Builds and attaches the SQ8 companion engine from the current
    /// corpus (idempotent: re-quantizes in place).  After this,
    /// [`Must::search`] and the frozen server walk the codes, and
    /// [`crate::persist::save_quantized`] persists them as bundle v7.
    pub fn quantize(&mut self) {
        self.quant = Some(self.objects.quantize());
    }

    /// The attached SQ8 engine, if any.
    #[must_use]
    pub fn quant(&self) -> Option<&QuantizedRows> {
        self.quant.as_ref()
    }

    /// Attaches an externally built SQ8 engine (the bundle-v7 load path).
    ///
    /// # Errors
    /// [`MustError::Config`] when the engine does not mirror the corpus
    /// (cardinality or layout mismatch).
    pub fn attach_quant(&mut self, quant: QuantizedRows) -> Result<(), MustError> {
        if quant.len() != self.objects.len() || quant.layout() != self.objects.layout() {
            return Err(MustError::Config(
                "quantized engine does not mirror the corpus".into(),
            ));
        }
        self.quant = Some(quant);
        Ok(())
    }

    /// Runs the vector-weight-learning model on `anchors`
    /// (query, true-object) pairs over `objects`, before building
    /// (Section VI).
    #[must_use]
    pub fn learn_weights(
        objects: &FusedRows,
        anchors: &[(&MultiQuery, ObjectId)],
        config: &WeightLearnConfig,
    ) -> LearnedWeights {
        WeightLearner::new(objects, anchors, config).train(config)
    }

    /// Number of objects in the corpus (tombstoned objects included —
    /// they stay in the graph until reconstruction).
    #[must_use]
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the corpus holds no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// The corpus.
    #[must_use]
    pub fn objects(&self) -> &FusedRows {
        &self.objects
    }

    /// The weights in force.
    #[must_use]
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// The construction report.
    #[must_use]
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// The built index.
    #[must_use]
    pub fn index(&self) -> &MustIndex {
        &self.index
    }

    /// Whether searches use the Lemma-4 multi-vector computation
    /// optimisation (on after [`Must::build`] and [`Must::from_parts`]).
    #[must_use]
    pub fn prune(&self) -> bool {
        self.prune
    }

    /// Toggles the Lemma-4 optimisation (the Fig. 10(c) ablation).
    pub fn set_prune(&mut self, prune: bool) {
        self.prune = prune;
    }

    /// One-off top-`k` search with pool size `l` (Algorithm 2) under the
    /// instance's weights: the serving query body itself, so a `Must` and
    /// the [`crate::server::MustServer`] frozen from it answer alike —
    /// SQ8 codes used when attached, tombstones filtered.  For query
    /// batches prefer [`Must::worker`].
    ///
    /// # Errors
    /// Propagates arity/dimension mismatches; [`MustError::Config`] for
    /// `k = 0`.
    pub fn search(&self, query: &MultiQuery, k: usize, l: usize) -> Result<SearchOutcome, MustError> {
        self.worker().search(query, k, l)
    }

    /// Exact joint top-`k` (`MUST--`) over the live objects: the scan
    /// skips tombstoned rows (neither scored nor counted in the stats).
    ///
    /// # Errors
    /// Propagates arity/dimension mismatches; [`MustError::Config`] for
    /// `k = 0`.
    pub fn brute_force(&self, query: &MultiQuery, k: usize) -> Result<SearchOutcome, MustError> {
        let live = |id| !self.is_deleted(id);
        exact_scan(&self.objects, query, &self.weights, k, self.prune, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::brute_force_search;
    use must_vector::VectorSetBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(n: usize) -> FusedRows {
        let mut rng = StdRng::seed_from_u64(77);
        let mut m0 = VectorSetBuilder::new(8, n);
        let mut m1 = VectorSetBuilder::new(4, n);
        for _ in 0..n {
            let v0: Vec<f32> = (0..8).map(|_| rng.random::<f32>() - 0.5).collect();
            let v1: Vec<f32> = (0..4).map(|_| rng.random::<f32>() - 0.5).collect();
            m0.push_normalized(&v0).unwrap();
            m1.push_normalized(&v1).unwrap();
        }
        FusedRows::new(vec![m0.finish(), m1.finish()]).unwrap()
    }

    fn self_query(set: &FusedRows, id: ObjectId) -> MultiQuery {
        MultiQuery::full(vec![
            set.modality(0).get(id).to_vec(),
            set.modality(1).get(id).to_vec(),
        ])
    }

    #[test]
    fn end_to_end_build_and_search() {
        let set = corpus(300);
        let must = Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let mut worker = must.worker();
        let mut hits = 0;
        for t in 0..20u32 {
            let id = t * 14;
            let q = self_query(must.objects(), id);
            let out = worker.search(&q, 1, 60).unwrap();
            if out.results[0].0 == id {
                hits += 1;
            }
        }
        assert!(hits >= 19, "self-queries must be found: {hits}/20");
        // Zero results asked for is a typed error, not `SearchParams::new`'s panic.
        let q = self_query(must.objects(), 0);
        assert!(matches!(worker.search(&q, 0, 60), Err(MustError::Config(_))));
        assert!(matches!(must.search(&q, 0, 60), Err(MustError::Config(_))));
    }

    #[test]
    fn brute_force_and_index_agree_at_high_l() {
        let set = corpus(250);
        let must = Must::build(set, Weights::new(vec![0.8, 0.4]).unwrap(), MustBuildOptions::default())
            .unwrap();
        let q = self_query(must.objects(), 123);
        let exact = must.brute_force(&q, 5).unwrap();
        let approx = must.search(&q, 5, 120).unwrap();
        assert_eq!(exact.results[0].0, approx.results[0].0);
    }

    #[test]
    fn weight_arity_mismatch_is_an_error() {
        let set = corpus(50);
        assert!(Must::build(set, Weights::uniform(3), MustBuildOptions::default()).is_err());
    }

    #[test]
    fn prune_toggle_preserves_results() {
        let set = corpus(200);
        let mut must =
            Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let q = self_query(must.objects(), 42);
        let with = must.search(&q, 5, 50).unwrap().results;
        must.set_prune(false);
        let without = must.search(&q, 5, 50).unwrap().results;
        let ids = |v: &[(u32, f32)]| v.iter().map(|r| r.0).collect::<Vec<_>>();
        assert_eq!(ids(&with), ids(&without), "Lemma 4 is lossless");
    }

    #[test]
    fn partial_queries_search_with_masked_weights() {
        let set = corpus(150);
        let must = Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let q = MultiQuery::partial(vec![Some(must.objects().modality(0).get(7).to_vec()), None]);
        let res = must.search(&q, 3, 80).unwrap().results;
        assert_eq!(res[0].0, 7, "target-only query still routes to the anchor");
    }

    #[test]
    fn deleted_objects_vanish_from_results_until_restored() {
        let set = corpus(200);
        let mut must = Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let q = self_query(must.objects(), 42);
        assert_eq!(must.search(&q, 1, 60).unwrap().results[0].0, 42);
        assert!(must.mark_deleted(42).unwrap());
        assert!(!must.mark_deleted(42).unwrap(), "double delete is a no-op");
        assert_eq!(must.deleted_count(), 1);
        let res = must.search(&q, 5, 60).unwrap().results;
        assert!(res.iter().all(|(id, _)| *id != 42), "tombstone filtered");
        assert_eq!(res.len(), 5, "the walk routes through the tombstone and keeps k live results");
        let bf = must.brute_force(&q, 5).unwrap();
        assert!(bf.results.iter().all(|(id, _)| *id != 42));
        assert!(must.restore(42).unwrap());
        assert_eq!(must.search(&q, 1, 60).unwrap().results[0].0, 42);
    }

    #[test]
    fn brute_force_skips_half_a_corpus_of_tombstones_exactly() {
        // Half of 2 000 rows tombstoned: the scan skips them in place
        // (no `k + deleted` over-fetch) and still returns the exact top-k
        // of the live rows: the full ranking (k = n prunes nothing, so
        // the similarities are the same float ops), filtered.
        let n = 2_000u32;
        let set = corpus(n as usize);
        let opts = MustBuildOptions { gamma: 8, ..Default::default() };
        let mut must = Must::build(set, Weights::new(vec![0.8, 0.4]).unwrap(), opts).unwrap();
        for id in (0..n).filter(|id| id % 2 == 0 || id % 7 == 0) {
            assert!(must.mark_deleted(id).unwrap());
        }
        assert!(must.deleted_count() >= n as usize / 2);
        let rows = must.objects();
        for (anchor, k) in [(14u32, 10usize), (15, 1), (999, 25)] {
            let q = self_query(must.objects(), anchor);
            let full = brute_force_search(rows, &q, must.weights(), n as usize, must.prune()).unwrap();
            let model: Vec<(ObjectId, f32)> =
                full.results.into_iter().filter(|&(id, _)| !must.is_deleted(id)).take(k).collect();
            let got = must.brute_force(&q, k).unwrap();
            assert!(got.results.iter().all(|&(id, _)| !must.is_deleted(id)), "anchor {anchor}");
            assert_eq!(got.results, model, "anchor {anchor}, k {k}");
            let live = u64::from(n) - must.deleted_count() as u64;
            assert_eq!(got.stats.evaluated, live, "only live rows are scanned");
        }
    }

    #[test]
    fn out_of_range_tombstone_ids_are_typed_errors() {
        // n = 200 leaves ids 200..256 inside the last bitset word and 256
        // just past it: both edges are refused, and nothing changes.
        let mut must =
            Must::build(corpus(200), Weights::uniform(2), MustBuildOptions::default()).unwrap();
        for id in [200u32, 256] {
            assert!(matches!(must.mark_deleted(id), Err(MustError::Config(_))), "delete {id}");
            assert!(matches!(must.restore(id), Err(MustError::Config(_))), "restore {id}");
            assert!(!must.is_deleted(id));
        }
        assert_eq!(must.deleted_count(), 0);
        assert!(must.mark_deleted(199).unwrap() && must.restore(199).unwrap());
    }

    #[test]
    fn hnsw_backend_supports_dynamic_insertion() {
        let set = corpus(150);
        let mut must = Must::build(
            set,
            Weights::uniform(2),
            MustBuildOptions { recipe: GraphRecipe::Hnsw, ..Default::default() },
        )
        .unwrap();
        // Insert a brand-new object and find it immediately.
        let new0: Vec<f32> = (0..8).map(|i| if i == 3 { 1.0 } else { 0.01 }).collect();
        let new1: Vec<f32> = (0..4).map(|i| if i == 2 { 1.0 } else { 0.01 }).collect();
        let id = must.insert_object(&[new0.clone(), new1.clone()]).unwrap();
        assert_eq!(id, 150);
        assert_eq!(must.objects().len(), 151);
        let q = MultiQuery::full(vec![new0, new1]);
        let res = must.search(&q, 1, 80).unwrap().results;
        assert_eq!(res[0].0, id, "freshly inserted object must be findable");
    }

    #[test]
    fn flat_backends_reject_dynamic_insertion() {
        let set = corpus(80);
        let mut must = Must::build(set, Weights::uniform(2), MustBuildOptions::default()).unwrap();
        let err = must.insert_object(&[vec![1.0; 8], vec![1.0; 4]]).unwrap_err();
        assert!(matches!(err, crate::MustError::Config(_)));
        assert_eq!(must.objects().len(), 80, "corpus untouched on rejection");
    }

    #[test]
    fn hnsw_backend_works_through_the_framework() {
        let set = corpus(250);
        let must = Must::build(
            set,
            Weights::uniform(2),
            MustBuildOptions { recipe: GraphRecipe::Hnsw, ..Default::default() },
        )
        .unwrap();
        let q = self_query(must.objects(), 99);
        let res = must.search(&q, 1, 60).unwrap().results;
        assert_eq!(res[0].0, 99);
    }
}
