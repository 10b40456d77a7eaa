//! Joint similarity between multi-vector points, including the incremental
//! multi-vector computation with safe early termination
//! (Section VII-B, Lemma 4, Eqs. 8–9 of the paper).
//!
//! A "virtual point" in the paper is the concatenation
//! `p_hat = [omega_0 * phi_0(p_0), ..., omega_{m-1} * phi_{m-1}(p_{m-1})]`.
//! Since the query-time-weighting refactor we never materialise weighted
//! corpus storage at all: the corpus's own **unscaled** [`FusedRows`]
//! engine is the only copy, and Lemma 1's
//! `IP(q_hat, u_hat) = sum_i omega_i^2 * IP_i` is realised by baking the
//! `omega_i^2` factors into the *query row alone*
//! ([`FusedRows::query`]), so
//!
//! * scoring a candidate stays a single contiguous dot product,
//! * the Lemma-4 prefix bound walks raw segments of the stored row with
//!   `omega_i^2`-scaled per-segment distances, and
//! * changing `omega` costs nothing but a new per-query evaluator — the
//!   paper's user-defined-weight scenario (Tab. IX, Section VIII-F)
//!   becomes a serving-time parameter instead of a storage rebuild.
//!
//! [`JointDistance`] is therefore a cheap binding of a corpus to one
//! weight configuration; [`JointDistance::with_query_weights`] rebinds the
//! same corpus to another configuration without touching storage.

use std::borrow::Cow;

use crate::fused::{FusedQueryEvaluator, FusedRows};
use crate::multi::{MultiQuery, MultiVectorSet};
use crate::{kernels, ObjectId, VectorError, Weights};

/// Per-query joint-similarity evaluator (fused-row backed); see
/// [`FusedQueryEvaluator`] for the full API.
pub type QueryEvaluator<'a> = FusedQueryEvaluator<'a>;

/// Joint-similarity oracle over an object set: all pairwise computations the
/// index construction needs (Algorithm 1 works purely on `IP(o_hat, u_hat)`).
///
/// Construction is **free of corpus copies**: the oracle scores directly
/// against the set's own unscaled [`FusedRows`] engine and applies the
/// weights per computation (pairwise) or per query (evaluator), so any
/// number of weight configurations share one storage engine.
#[derive(Debug, Clone)]
pub struct JointDistance<'a> {
    set: &'a MultiVectorSet,
    weights: Cow<'a, Weights>,
}

impl<'a> JointDistance<'a> {
    /// Binds `set` to `weights`.  No storage is copied or rescaled — the
    /// binding is a handle, so constructing one per weight configuration
    /// (or per query) is free.
    ///
    /// # Errors
    /// [`VectorError::WeightArity`] when `weights` does not cover every
    /// modality of `set`:
    ///
    /// ```
    /// use must_vector::{JointDistance, MultiVectorSet, VectorError, VectorSetBuilder, Weights};
    /// let mut b = VectorSetBuilder::new(2, 1);
    /// b.push_normalized(&[1.0, 0.0]).unwrap();
    /// let set = MultiVectorSet::new(vec![b.finish()]).unwrap();
    /// assert_eq!(
    ///     JointDistance::new(&set, Weights::uniform(2)).unwrap_err(),
    ///     VectorError::WeightArity { modalities: 1, weights: 2 },
    /// );
    /// ```
    pub fn new(set: &'a MultiVectorSet, weights: Weights) -> Result<Self, VectorError> {
        Self::bind(set, Cow::Owned(weights))
    }

    /// [`JointDistance::new`] over weights the caller keeps: nothing is
    /// cloned, so a binding per call (one per dynamic insert) is free.
    ///
    /// # Errors
    /// As [`JointDistance::new`].
    pub fn borrowed(set: &'a MultiVectorSet, weights: &'a Weights) -> Result<Self, VectorError> {
        Self::bind(set, Cow::Borrowed(weights))
    }

    fn bind(set: &'a MultiVectorSet, weights: Cow<'a, Weights>) -> Result<Self, VectorError> {
        if weights.modalities() != set.num_modalities() {
            return Err(VectorError::WeightArity {
                modalities: set.num_modalities(),
                weights: weights.modalities(),
            });
        }
        Ok(Self { set, weights })
    }

    /// The same corpus under a different weight configuration — the
    /// query-time-weighting seam.  Because stored rows are unscaled, this
    /// is a constant-time rebind, not a rebuild:
    ///
    /// ```
    /// use must_vector::{JointDistance, MultiVectorSet, VectorSetBuilder, Weights};
    /// let mut b = VectorSetBuilder::new(2, 2);
    /// b.push_normalized(&[1.0, 0.0]).unwrap();
    /// b.push_normalized(&[0.6, 0.8]).unwrap();
    /// let set = MultiVectorSet::new(vec![b.finish()]).unwrap();
    /// let jd = JointDistance::new(&set, Weights::new(vec![1.0]).unwrap()).unwrap();
    /// let heavier = jd.with_query_weights(Weights::new(vec![2.0]).unwrap()).unwrap();
    /// // Same storage, new omega: the similarity scales by omega^2 = 4.
    /// assert!((heavier.pair_ip(0, 1) - 4.0 * jd.pair_ip(0, 1)).abs() < 1e-6);
    /// ```
    ///
    /// # Errors
    /// [`VectorError::WeightArity`] when `weights` does not cover every
    /// modality.
    pub fn with_query_weights(&self, weights: Weights) -> Result<JointDistance<'a>, VectorError> {
        JointDistance::new(self.set, weights)
    }

    /// The underlying object set.
    #[inline]
    #[must_use]
    pub fn set(&self) -> &'a MultiVectorSet {
        self.set
    }

    /// The weight configuration in force.
    #[inline]
    #[must_use]
    pub fn weights(&self) -> &Weights {
        &self.weights
    }

    /// The shared unscaled fused-row engine similarity is computed over
    /// (the corpus's own storage).
    #[inline]
    #[must_use]
    pub fn engine(&self) -> &'a FusedRows {
        self.set.fused()
    }

    /// Joint similarity `IP(a_hat, b_hat)` between two objects (Lemma 1):
    /// the weighted sum of per-segment dot products over the two raw rows.
    #[inline]
    #[must_use]
    pub fn pair_ip(&self, a: ObjectId, b: ObjectId) -> f32 {
        self.engine().weighted_pair_ip(a, b, self.weights.squared())
    }

    /// Joint similarity between object `a` and an external multi-vector
    /// point given as per-modality slices (used by the weight-learning
    /// model, where anchors are queries rather than corpus objects).
    #[inline]
    #[must_use]
    pub fn ip_to_point(&self, a: ObjectId, point: &[&[f32]]) -> f32 {
        debug_assert_eq!(point.len(), self.set.num_modalities());
        let engine = self.engine();
        let mut sum = 0.0;
        for (k, p) in point.iter().enumerate() {
            let wsq = self.weights.sq(k);
            if wsq > 0.0 {
                sum += wsq * kernels::ip(engine.modality_slice(a, k), p);
            }
        }
        sum
    }

    /// The centroid of all virtual points, reported per modality — used by
    /// seed preprocessing (component 4 of Algorithm 1).  The vertex nearest
    /// to it under the joint similarity is the search seed.
    #[must_use]
    pub fn centroid(&self) -> Vec<Vec<f32>> {
        self.set.modalities().map(|s| s.centroid()).collect()
    }

    /// Prepares a per-query evaluator: the query is scaled by this
    /// binding's `omega^2` and fused into one row up front, so scoring a
    /// candidate is one dot product (exact) or an early-exiting segment
    /// walk (Lemma 4).
    ///
    /// # Errors
    /// [`VectorError::WeightArity`] when the query has a different number of
    /// modality slots than the object set, or
    /// [`VectorError::DimensionMismatch`] when a supplied slot has the wrong
    /// dimensionality.
    pub fn query(&self, query: &MultiQuery) -> Result<QueryEvaluator<'a>, VectorError> {
        self.engine().query(query, &self.weights)
    }
}

/// Verdict of the incremental (pruned) joint-similarity computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartialIpVerdict {
    /// The candidate was discarded after scanning only a prefix of its
    /// modality segments: its joint similarity is provably `<= threshold`.
    Pruned,
    /// All modality segments were scanned; the exact joint similarity.
    Exact(f32),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorSetBuilder;

    fn set3() -> MultiVectorSet {
        // Three objects, two modalities.
        let mut m0 = VectorSetBuilder::new(4, 3);
        m0.push_normalized(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        m0.push_normalized(&[0.6, 0.8, 0.0, 0.0]).unwrap();
        m0.push_normalized(&[0.0, 0.0, 1.0, 0.0]).unwrap();
        let mut m1 = VectorSetBuilder::new(3, 3);
        m1.push_normalized(&[1.0, 0.0, 0.0]).unwrap();
        m1.push_normalized(&[0.0, 1.0, 0.0]).unwrap();
        m1.push_normalized(&[0.5, 0.5, 0.5]).unwrap();
        MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap()
    }

    #[test]
    fn pair_ip_matches_lemma1_expansion() {
        let set = set3();
        let w = Weights::new(vec![0.8, 0.33]).unwrap();
        let jd = JointDistance::new(&set, w.clone()).unwrap();
        let ips: Vec<f32> = set.modality_ips(0, 1).collect();
        let want = w.sq(0) * ips[0] + w.sq(1) * ips[1];
        assert!((jd.pair_ip(0, 1) - want).abs() < 1e-6);
    }

    #[test]
    fn with_query_weights_rebinds_without_copying() {
        let set = set3();
        let jd = JointDistance::new(&set, Weights::uniform(2)).unwrap();
        let w = Weights::new(vec![0.9, 0.2]).unwrap();
        let rebound = jd.with_query_weights(w.clone()).unwrap();
        let ips: Vec<f32> = set.modality_ips(1, 2).collect();
        let want = w.sq(0) * ips[0] + w.sq(1) * ips[1];
        assert!((rebound.pair_ip(1, 2) - want).abs() < 1e-6);
        // The rebind shares the same storage.
        assert!(std::ptr::eq(jd.engine(), rebound.engine()));
        // Arity mismatches are still rejected.
        assert!(matches!(
            jd.with_query_weights(Weights::uniform(3)),
            Err(VectorError::WeightArity { modalities: 2, weights: 3 })
        ));
    }

    #[test]
    fn exact_and_pruned_agree_when_not_pruned() {
        let set = set3();
        let jd = JointDistance::new(&set, Weights::uniform(2)).unwrap();
        let q = MultiQuery::full(vec![vec![1.0, 0.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]]);
        let ev = jd.query(&q).unwrap();
        for id in 0..3u32 {
            let exact = ev.ip(id);
            match ev.ip_pruned(id, f32::NEG_INFINITY) {
                PartialIpVerdict::Exact(v) => assert!((v - exact).abs() < 1e-5),
                PartialIpVerdict::Pruned => panic!("must not prune below -inf threshold"),
            }
        }
    }

    #[test]
    fn pruning_never_discards_better_candidates() {
        // Soundness of Lemma 4: a pruned candidate is truly <= threshold.
        let set = set3();
        let jd = JointDistance::new(&set, Weights::new(vec![0.9, 0.2]).unwrap()).unwrap();
        let q = MultiQuery::full(vec![vec![0.0, 1.0, 0.0, 0.0], vec![0.0, 0.0, 1.0]]);
        let ev = jd.query(&q).unwrap();
        for id in 0..3u32 {
            let exact = ev.ip(id);
            for threshold in [-1.0f32, 0.0, 0.2, 0.5, 0.9] {
                if let PartialIpVerdict::Pruned = ev.ip_pruned(id, threshold) {
                    assert!(
                        exact <= threshold + 1e-5,
                        "pruned id {id} at threshold {threshold} but exact = {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruning_saves_kernel_evaluations() {
        let set = set3();
        let jd = JointDistance::new(&set, Weights::uniform(2)).unwrap();
        let q = MultiQuery::full(vec![vec![0.0, 0.0, 0.0, 1.0], vec![0.0, 0.0, 1.0]]);
        let ev = jd.query(&q).unwrap();
        // With a very high threshold everything prunes after modality 0.
        for id in 0..3u32 {
            assert_eq!(ev.ip_pruned(id, 10.0), PartialIpVerdict::Pruned);
        }
        assert_eq!(ev.kernel_evals(), 3, "each pruned candidate costs one kernel");
    }

    #[test]
    fn masked_query_ignores_missing_modality() {
        let set = set3();
        let jd = JointDistance::new(&set, Weights::uniform(2)).unwrap();
        let q = MultiQuery::partial(vec![Some(vec![1.0, 0.0, 0.0, 0.0]), None]);
        let ev = jd.query(&q).unwrap();
        // Only modality 0 contributes: object 0 has IP 1.0 there.
        let got = ev.ip(0);
        assert!((got - 0.5).abs() < 1e-6, "0.5 * 1.0 expected, got {got}");
        assert!((ev.w_total() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn query_with_wrong_dim_is_rejected() {
        let set = set3();
        let jd = JointDistance::new(&set, Weights::uniform(2)).unwrap();
        let q = MultiQuery::full(vec![vec![1.0, 0.0], vec![1.0, 0.0, 0.0]]);
        assert!(matches!(jd.query(&q), Err(VectorError::DimensionMismatch { .. })));
    }

    #[test]
    fn ip_to_point_matches_pair_semantics() {
        let set = set3();
        let jd = JointDistance::new(&set, Weights::uniform(2)).unwrap();
        let point: Vec<&[f32]> = set.object(1).collect();
        let via_point = jd.ip_to_point(0, &point);
        let via_pair = jd.pair_ip(0, 1);
        assert!((via_point - via_pair).abs() < 1e-6);
    }
}
