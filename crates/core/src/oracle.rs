//! Bridges the vector layer to the graph layer: the joint-similarity
//! oracle (Lemma 1) for index construction and the query scorer with the
//! multi-vector pruning optimisation (Lemma 4) for search.
//!
//! Both sides run on the shared **unscaled** fused-row storage engine
//! ([`must_vector::FusedRows`]): the corpus is never copied or rescaled.
//! Pairwise similarities apply the squared weights per segment of the two
//! raw rows ([`FusedRows::weighted_pair_ip`], or
//! [`FusedRows::weighted_pair_ips`] for a batch); a query scorer is built one
//! way, [`MustQueryScorer::from_rows`], which fuses the query into one
//! `omega^2`-scaled padded row up front ([`FusedRows::query`]), so changing
//! weights is a per-query decision — the seam the serving layer's
//! `search_weighted` rides on.

use std::sync::OnceLock;

use must_graph::{QueryScorer, SimilarityOracle};
use must_vector::{
    FusedQueryEvaluator, FusedRows, MultiQuery, MultiVectorSet, PartialIpVerdict,
    QuantizedQueryEvaluator, QuantizedRows, VectorError, Weights,
};

/// Joint-similarity oracle over a multi-vector corpus under fixed weights —
/// what Algorithm 1 builds the fused index on.
pub struct JointOracle<'a> {
    set: &'a MultiVectorSet,
    weights: &'a Weights,
    /// The fused centroid of all virtual points with the oracle's
    /// `omega^2` baked in (component ④ support): `sim_to_centroid` is one
    /// dot product of this row against a raw stored row.  One pass over
    /// the whole corpus, made by the first `sim_to_centroid` call: seed
    /// preprocessing is its only reader, and HNSW build and insert — which
    /// bind an oracle per inserted object — never reach it.
    centroid_row: OnceLock<Vec<f32>>,
    w_total: f32,
}

impl<'a> JointOracle<'a> {
    /// Creates the oracle.  Nothing is copied — the oracle scores against
    /// `set`'s own fused storage under weights the caller keeps, so one per
    /// dynamic insert is free.
    ///
    /// # Errors
    /// [`VectorError::WeightArity`] when `weights` does not cover every
    /// modality of `set`.
    pub fn new(set: &'a MultiVectorSet, weights: &'a Weights) -> Result<Self, VectorError> {
        set.fused().layout().check_weights(weights)?;
        let w_total = weights.squared().iter().sum();
        Ok(Self { set, weights, centroid_row: OnceLock::new(), w_total })
    }

    /// The `omega^2`-baked centroid, computed by whichever caller asks
    /// first; seed preprocessing's workers racing here all read that one
    /// value.
    fn centroid_row(&self) -> &[f32] {
        self.centroid_row.get_or_init(|| {
            let engine = self.set.fused();
            // Bake omega^2 into the centroid once: against unscaled rows the
            // plain fused dot product then yields the Lemma-1 weighted sum.
            let mut centroid_row = engine.centroid_row();
            for (k, &wsq) in self.weights.squared().iter().enumerate() {
                let (start, end) = engine.segment_bounds(k);
                for x in &mut centroid_row[start..end] {
                    *x *= wsq;
                }
            }
            centroid_row
        })
    }

    /// The centroid if some caller has asked for it yet.
    #[cfg(test)]
    fn centroid_cell(&self) -> Option<&[f32]> {
        self.centroid_row.get().map(Vec::as_slice)
    }

    /// The weights in force.
    #[must_use]
    pub fn weights(&self) -> &Weights {
        self.weights
    }

    /// The multi-vector corpus.
    #[must_use]
    pub fn set(&self) -> &'a MultiVectorSet {
        self.set
    }
}

impl SimilarityOracle for JointOracle<'_> {
    fn len(&self) -> usize {
        self.set.len()
    }

    fn sim(&self, a: u32, b: u32) -> f32 {
        self.set.fused().weighted_pair_ip(a, b, self.weights.squared())
    }

    fn sims(&self, a: u32, ids: &[u32], out: &mut [f32]) {
        self.set.fused().weighted_pair_ips(a, ids, self.weights.squared(), out);
    }

    fn self_sim(&self, _a: u32) -> f32 {
        // Per-modality vectors are unit norm, so the virtual point's squared
        // norm is the sum of squared weights for every object.
        self.w_total
    }

    fn sim_to_centroid(&self, a: u32) -> f32 {
        // The centroid row carries omega^2, the stored row is raw, so this
        // is the Lemma-1 weighted sum against the centroid — one dot
        // product.
        must_vector::kernels::ip_prescaled_segments(self.set.fused().row(a), self.centroid_row())
    }
}

/// Query scorer feeding graph search, with the Lemma-4 incremental
/// multi-vector computation toggleable (the Fig. 10(c) ablation).
pub struct MustQueryScorer<'a> {
    eval: FusedQueryEvaluator<'a>,
    prune: bool,
}

impl<'a> MustQueryScorer<'a> {
    /// Prepares a scorer over the shared fused-row engine under explicit
    /// weights: the query is scaled by `omega^2` and fused into one row
    /// here, once, so scoring a candidate costs a single dot product
    /// (exact) or an early-exiting segment walk (pruned).  Each query may
    /// carry its own weights over the one engine.
    ///
    /// # Errors
    /// The request check's errors ([`must_vector::Layout::check_request`]).
    pub fn from_rows(
        rows: &'a FusedRows,
        query: &MultiQuery,
        weights: &Weights,
        prune: bool,
    ) -> Result<Self, VectorError> {
        Ok(Self { eval: rows.query(query, weights)?, prune })
    }

    /// Number of per-modality kernel evaluations performed so far.
    pub fn kernel_evals(&self) -> u64 {
        self.eval.kernel_evals()
    }
}

impl QueryScorer for MustQueryScorer<'_> {
    fn score(&self, id: u32) -> f32 {
        self.eval.ip(id)
    }

    fn score_pruned(&self, id: u32, threshold: f32) -> Option<f32> {
        if !self.prune {
            return Some(self.eval.ip(id));
        }
        match self.eval.ip_pruned(id, threshold) {
            PartialIpVerdict::Exact(v) => Some(v),
            PartialIpVerdict::Pruned => None,
        }
    }

    #[inline]
    fn warm(&self, id: u32) {
        self.eval.warm(id);
    }
}

/// Query scorer over the SQ8 engine: the graph walk scans `u8` codes in
/// one pass, prunes only rows whose certified margin shows the exact
/// similarity clears nothing, and ranks survivors by their decoded
/// approximate similarity.  The serving layer pairs it with
/// an exact re-rank of the top pool on the retained f32 rows — the
/// DiskANN/SPANN recipe adapted to multi-vector joint similarity.
pub struct QuantizedQueryScorer<'a> {
    eval: QuantizedQueryEvaluator<'a>,
    prune: bool,
}

impl<'a> QuantizedQueryScorer<'a> {
    /// Prepares a scorer over a quantized engine under explicit weights —
    /// like [`MustQueryScorer::from_rows`], weights scale the query side
    /// only, so every query may carry its own override over one set of
    /// codes.
    ///
    /// # Errors
    /// The request check's errors ([`must_vector::Layout::check_request`]).
    pub fn from_rows(
        rows: &'a QuantizedRows,
        query: &MultiQuery,
        weights: &Weights,
        prune: bool,
    ) -> Result<Self, VectorError> {
        Ok(Self { eval: rows.query(query, weights)?, prune })
    }

    /// Number of per-modality kernel evaluations performed so far.
    pub fn kernel_evals(&self) -> u64 {
        self.eval.kernel_evals()
    }
}

impl QueryScorer for QuantizedQueryScorer<'_> {
    fn score(&self, id: u32) -> f32 {
        self.eval.ip(id)
    }

    fn score_pruned(&self, id: u32, threshold: f32) -> Option<f32> {
        if !self.prune {
            return Some(self.eval.ip(id));
        }
        match self.eval.ip_pruned(id, threshold) {
            PartialIpVerdict::Exact(v) => Some(v),
            PartialIpVerdict::Pruned => None,
        }
    }

    #[inline]
    fn warm(&self, id: u32) {
        self.eval.warm(id);
    }
}

/// Scorer for one modality's vectors against a single query slot — the
/// baselines' (MR sub-queries, JE composition search) entry into the same
/// [`QueryScorer`] seam the joint search uses, replacing ad-hoc closures.
///
/// Single vectors have no prefix structure, so the default
/// [`QueryScorer::score_pruned`] (exact score, threshold discard) is
/// already optimal; only MUST's multi-vector scorer adds the Lemma-4
/// prefix bound on top.
pub struct SingleModalityScorer<'a> {
    set: must_vector::ModalityView<'a>,
    query: &'a [f32],
}

impl<'a> SingleModalityScorer<'a> {
    /// Binds a modality's corpus-side vectors to one query slot.
    ///
    /// # Errors
    /// Dimension mismatch between the slot and the modality.
    pub fn new(
        set: must_vector::ModalityView<'a>,
        query: &'a [f32],
    ) -> Result<Self, VectorError> {
        if query.len() != set.dim() {
            return Err(VectorError::DimensionMismatch { expected: set.dim(), got: query.len() });
        }
        Ok(Self { set, query })
    }
}

impl QueryScorer for SingleModalityScorer<'_> {
    fn score(&self, id: u32) -> f32 {
        self.set.ip_to(id, self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use must_graph::hnsw::{Hnsw, HnswParams};
    use must_graph::seed::choose_seed;
    use must_graph::SearchScratch;
    use must_vector::VectorSetBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus() -> MultiVectorSet {
        let mut m0 = VectorSetBuilder::new(4, 4);
        let mut m1 = VectorSetBuilder::new(3, 4);
        for (a, b) in [
            ([1.0f32, 0.0, 0.0, 0.0], [1.0f32, 0.0, 0.0]),
            ([0.0, 1.0, 0.0, 0.0], [1.0, 0.2, 0.0]),
            ([0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0]),
            ([0.5, 0.5, 0.0, 0.7], [0.0, 0.0, 1.0]),
        ] {
            m0.push_normalized(&a).unwrap();
            m1.push_normalized(&b).unwrap();
        }
        MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap()
    }

    #[test]
    fn oracle_sim_matches_lemma1() {
        let set = corpus();
        let w = Weights::new(vec![0.8, 0.33]).unwrap();
        let oracle = JointOracle::new(&set, &w).unwrap();
        let want = set.joint_ip(0, 1, &w).unwrap();
        assert!((oracle.sim(0, 1) - want).abs() < 1e-6);
        assert_eq!(oracle.len(), 4);
        let ss = oracle.self_sim(2);
        assert!((ss - (w.sq(0) + w.sq(1))).abs() < 1e-5);
    }

    #[test]
    fn centroid_similarity_prefers_central_objects() {
        let set = corpus();
        let w = Weights::uniform(2);
        let oracle = JointOracle::new(&set, &w).unwrap();
        // sim_to_centroid must be finite and bounded by self_sim.
        for id in 0..4 {
            let s = oracle.sim_to_centroid(id);
            assert!(s.is_finite());
            assert!(s <= oracle.self_sim(id) + 1e-5);
        }
    }

    /// The engine's centroid with `omega^2` applied per segment — what the
    /// oracle's cell must hold, value for value.
    fn scaled_centroid(set: &MultiVectorSet, w: &Weights) -> Vec<f32> {
        let rows = set.fused();
        let mut c = rows.centroid_row();
        for k in 0..rows.num_modalities() {
            let (start, end) = rows.segment_bounds(k);
            c[start..end].iter_mut().for_each(|x| *x *= w.sq(k));
        }
        c
    }

    #[test]
    fn centroid_similarity_matches_per_modality_expansion() {
        let set = corpus();
        let w = Weights::new(vec![0.7, 0.4]).unwrap();
        let oracle = JointOracle::new(&set, &w).unwrap();
        let centroids: Vec<Vec<f32>> = set.modalities().map(|m| m.centroid()).collect();
        let fused_centroid = scaled_centroid(&set, &w);
        for id in 0..4u32 {
            let got = oracle.sim_to_centroid(id);
            // Bit for bit the one dot product over the fused rows ...
            let row = set.fused().row(id);
            let want = must_vector::kernels::ip_prescaled_segments(row, &fused_centroid);
            assert_eq!(got.to_bits(), want.to_bits(), "object {id}");
            // ... which is Lemma 1's weighted sum over the modalities, up
            // to summation order.
            let expanded: f32 = centroids
                .iter()
                .enumerate()
                .map(|(k, c)| w.sq(k) * set.modality(k).ip_to(id, c))
                .sum();
            assert!((got - expanded).abs() < 1e-5);
        }
    }

    fn random_corpus(n: usize) -> MultiVectorSet {
        let mut rng = StdRng::seed_from_u64(29);
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

    #[test]
    fn batched_sims_are_the_per_pair_ones_bit_for_bit() {
        // Id lists of every length 0..=9 (every remainder past a chunk of
        // four), under weights with one modality at zero and with none.
        let set = random_corpus(40);
        for w in [vec![0.0, 0.7], vec![0.9, 0.0], vec![0.8, 0.45]] {
            let w = Weights::new(w).unwrap();
            let oracle = JointOracle::new(&set, &w).unwrap();
            for len in 0..=9u32 {
                let ids: Vec<u32> = (0..len).map(|i| (i * 13 + 2) % 40).collect();
                let mut out = vec![f32::NAN; ids.len()];
                oracle.sims(7, &ids, &mut out);
                for (&b, got) in ids.iter().zip(&out) {
                    assert_eq!(got.to_bits(), oracle.sim(7, b).to_bits(), "{w:?}, len {len}: 7-{b}");
                    // The occlusion tests read sim(v, u) for sim(u, v).
                    assert_eq!(got.to_bits(), oracle.sim(b, 7).to_bits(), "{w:?}: symmetry 7-{b}");
                }
            }
        }
    }

    #[test]
    fn hnsw_build_and_insert_never_compute_the_centroid() {
        // The write path binds an oracle per inserted object; none of it
        // may pay the corpus pass behind `sim_to_centroid`.
        let mut set = random_corpus(200);
        let w = Weights::new(vec![0.8, 0.4]).unwrap();
        let mut hnsw = {
            let oracle = JointOracle::new(&set, &w).unwrap();
            let hnsw = Hnsw::build(&oracle, HnswParams::default());
            assert!(oracle.centroid_cell().is_none(), "Hnsw::build read the centroid");
            hnsw
        };
        for hot in 0..4 {
            let row = |dim: usize| (0..dim).map(|i| if i == hot { 1.0 } else { 0.02 }).collect();
            set.push_object(&[row(8), row(4)]).unwrap();
        }
        let oracle = JointOracle::new(&set, &w).unwrap();
        let mut scratch = SearchScratch::default();
        for id in 200..204 {
            hnsw.insert_new(&oracle, id, 0x1A5E, &mut scratch);
        }
        assert_eq!(hnsw.len(), 204);
        assert!(oracle.centroid_cell().is_none(), "an insert read the centroid");
    }

    #[test]
    fn medoid_seed_is_thread_count_invariant_and_fills_the_centroid_once() {
        let set = random_corpus(300);
        let w = Weights::new(vec![0.8, 0.4]).unwrap();
        let want = scaled_centroid(&set, &w);
        let scan = |oracle: &JointOracle<'_>, threads: usize| {
            let seed = choose_seed(oracle, threads);
            let cell = oracle.centroid_cell().expect("the medoid scan fills the cell");
            assert!(cell.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
            (seed, cell.as_ptr())
        };
        let mut seeds = Vec::new();
        for threads in [1, 2, 4] {
            // A fresh oracle per thread count: its workers race to fill the
            // empty cell; a second scan only reads what the first left.
            let oracle = JointOracle::new(&set, &w).unwrap();
            assert!(oracle.centroid_cell().is_none());
            let first = scan(&oracle, threads);
            assert_eq!(scan(&oracle, 4), first, "refilled or moved at {threads} threads");
            seeds.push(first.0);
        }
        assert!(seeds.iter().all(|&s| s == seeds[0]), "{seeds:?}");
    }

    #[test]
    fn scorer_prune_toggle_changes_counters_not_results() {
        let set = corpus();
        let w = Weights::uniform(2);
        let q = MultiQuery::full(vec![vec![0.0, 1.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]]);
        let pruning = MustQueryScorer::from_rows(set.fused(), &q, &w, true).unwrap();
        let plain = MustQueryScorer::from_rows(set.fused(), &q, &w, false).unwrap();
        for id in 0..4 {
            let a = pruning.score_pruned(id, f32::NEG_INFINITY);
            let b = plain.score_pruned(id, f32::NEG_INFINITY);
            match (a, b) {
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-5),
                other => panic!("unexpected {other:?}"),
            }
        }
        // With an impossible threshold the pruning scorer discards early.
        assert!(pruning.score_pruned(0, 10.0).is_none());
        assert!(plain.score_pruned(0, 10.0).is_some());
    }

    #[test]
    fn warm_is_invisible_to_scores_and_counters() {
        let set = corpus();
        let w = Weights::new(vec![0.9, 0.5]).unwrap();
        let q = MultiQuery::full(vec![vec![0.0, 1.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]]);
        let quant = set.fused().quantize();
        let cold = MustQueryScorer::from_rows(set.fused(), &q, &w, true).unwrap();
        let warm = MustQueryScorer::from_rows(set.fused(), &q, &w, true).unwrap();
        let qcold = QuantizedQueryScorer::from_rows(&quant, &q, &w, true).unwrap();
        let qwarm = QuantizedQueryScorer::from_rows(&quant, &q, &w, true).unwrap();
        for id in 0..4 {
            warm.warm(id);
            qwarm.warm(id);
            assert_eq!(warm.score_pruned(id, 0.1), cold.score_pruned(id, 0.1));
            assert_eq!(qwarm.score_pruned(id, 0.1), qcold.score_pruned(id, 0.1));
        }
        assert_eq!(warm.kernel_evals(), cold.kernel_evals());
        assert_eq!(qwarm.kernel_evals(), qcold.kernel_evals());
    }

    #[test]
    fn rows_backed_scorer_matches_oracle_scorer() {
        // Query-side omega^2 (the scorer) and per-segment omega^2 (the
        // oracle's pair similarity) are the same Lemma-1 sum: a query
        // that is object 1 scores every object as the oracle pairs it
        // with object 1.
        let set = corpus();
        let w = Weights::new(vec![0.9, 0.5]).unwrap();
        let oracle = JointOracle::new(&set, &w).unwrap();
        let q = MultiQuery::full(set.object(1).map(<[f32]>::to_vec).collect());
        let via_rows = MustQueryScorer::from_rows(set.fused(), &q, &w, true).unwrap();
        for id in 0..4 {
            assert!((oracle.sim(1, id) - via_rows.score(id)).abs() < 1e-6);
        }
    }

    #[test]
    fn rows_backed_scorer_accepts_per_query_weight_overrides() {
        // The serving seam: one engine, two scorers, two weight vectors.
        let set = corpus();
        let q = MultiQuery::full(vec![vec![0.0, 1.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]]);
        let wa = Weights::from_squared(vec![0.9, 0.1]).unwrap();
        let wb = Weights::from_squared(vec![0.1, 0.9]).unwrap();
        let sa = MustQueryScorer::from_rows(set.fused(), &q, &wa, true).unwrap();
        let sb = MustQueryScorer::from_rows(set.fused(), &q, &wb, true).unwrap();
        for id in 0..4u32 {
            let want_a = wa.sq(0) * set.modality(0).ip_to(id, &[0.0, 1.0, 0.0, 0.0])
                + wa.sq(1) * set.modality(1).ip_to(id, &[1.0, 0.0, 0.0]);
            let want_b = wb.sq(0) * set.modality(0).ip_to(id, &[0.0, 1.0, 0.0, 0.0])
                + wb.sq(1) * set.modality(1).ip_to(id, &[1.0, 0.0, 0.0]);
            assert!((sa.score(id) - want_a).abs() < 1e-5);
            assert!((sb.score(id) - want_b).abs() < 1e-5);
        }
        // Arity mismatches surface as errors, not panics.
        assert!(MustQueryScorer::from_rows(set.fused(), &q, &Weights::uniform(3), true).is_err());
    }
}
