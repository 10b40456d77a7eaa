//! The multi-vector representation of a multimodal object set
//! (Section V / Fig. 4(b) of the paper).
//!
//! Since the fused-row refactor, [`MultiVectorSet`] is a thin view over the
//! [`FusedRows`] storage engine: all modalities of one object live in one
//! contiguous, SIMD-padded row.  The per-modality API survives as
//! [`ModalityView`], a zero-cost strided view that offers the same methods
//! the old per-modality `VectorSet` storage did.

use crate::fused::FusedRows;
use crate::{kernels, ObjectId, VectorError, VectorSet, Weights};

/// `m` modalities over `n` objects, stored fused: row `id` holds the whole
/// multi-vector representation of object `id` contiguously.
///
/// Modality `0` is the *target* modality by the paper's convention; the
/// remaining modalities are auxiliary.  Per-modality dimensionalities may
/// differ (e.g. a 128-d image space next to a 64-d text space).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVectorSet {
    rows: FusedRows,
}

impl MultiVectorSet {
    /// Assembles a multi-vector set from per-modality sets, fusing their
    /// rows into the contiguous layout.
    ///
    /// # Errors
    /// [`VectorError::CardinalityMismatch`] when the sets disagree on the
    /// number of objects.
    pub fn new(modalities: Vec<VectorSet>) -> Result<Self, VectorError> {
        Ok(Self { rows: FusedRows::from_sets(&modalities)? })
    }

    /// Wraps an existing fused engine — the binary-bundle load path, which
    /// reads rows already in fused layout.  Fused storage is always
    /// unscaled (weights are a query-time parameter), so any engine is a
    /// valid corpus.
    #[must_use]
    pub fn from_fused(rows: FusedRows) -> Self {
        Self { rows }
    }

    /// The underlying fused-row storage engine.
    #[inline]
    #[must_use]
    pub fn fused(&self) -> &FusedRows {
        &self.rows
    }

    /// Number of modalities `m`.
    #[inline]
    #[must_use]
    pub fn num_modalities(&self) -> usize {
        self.rows.num_modalities()
    }

    /// Number of objects `n`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the set is empty.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A view of modality `i`'s vectors.
    #[inline]
    #[must_use]
    pub fn modality(&self, i: usize) -> ModalityView<'_> {
        assert!(i < self.num_modalities(), "modality out of range");
        ModalityView { rows: &self.rows, k: i }
    }

    /// Views of all modalities, in order.
    #[must_use]
    pub fn modalities(&self) -> impl ExactSizeIterator<Item = ModalityView<'_>> + '_ {
        (0..self.num_modalities()).map(|k| ModalityView { rows: &self.rows, k })
    }

    /// Per-modality dimensionalities.
    #[inline]
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        self.rows.dims()
    }

    /// The multi-vector of object `id`: one slice per modality, borrowed
    /// straight out of the fused row (no allocation).
    #[must_use]
    pub fn object(&self, id: ObjectId) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        (0..self.num_modalities()).map(move |k| self.rows.modality_slice(id, k))
    }

    /// Per-modality inner products between objects `a` and `b` (no
    /// allocation; collect if indexed access is needed).
    #[must_use]
    pub fn modality_ips(&self, a: ObjectId, b: ObjectId) -> impl ExactSizeIterator<Item = f32> + '_ {
        (0..self.num_modalities()).map(move |k| self.rows.modality_ip(a, b, k))
    }

    /// Joint similarity between objects `a` and `b` under `weights`
    /// (Lemma 1: the weighted sum of per-modality inner products).  This is
    /// the reference per-modality path; hot paths go through the shared
    /// [`FusedRows`] engine with the weights applied query-side.
    ///
    /// # Errors
    /// [`VectorError::WeightArity`] when `weights` does not cover every
    /// modality ([`crate::Layout::check_weights`]).
    pub fn joint_ip(&self, a: ObjectId, b: ObjectId, weights: &Weights) -> Result<f32, VectorError> {
        self.rows.layout().check_weights(weights)?;
        Ok(self
            .modality_ips(a, b)
            .zip(weights.squared())
            .map(|(ip, w)| w * ip)
            .sum())
    }

    /// Appends one object given its per-modality raw vectors, normalising
    /// each (dynamic insertion, Section IX of the paper).
    ///
    /// # Errors
    /// [`crate::Layout::check_row`]'s, then
    /// [`VectorError::NotNormalisable`] for a zero or non-finite vector;
    /// on error nothing is appended (validated before mutation).
    pub fn push_object(&mut self, rows: &[Vec<f32>]) -> Result<ObjectId, VectorError> {
        self.rows.layout().check_row(rows)?;
        // Normalise every row first so a failure cannot leave the set torn.
        let mut normalized = Vec::with_capacity(rows.len());
        for row in rows {
            let mut v = row.clone();
            if !kernels::normalize(&mut v) {
                return Err(VectorError::NotNormalisable);
            }
            normalized.push(v);
        }
        self.rows.push_row(&normalized)
    }

    /// Approximate heap footprint of the stored vectors in bytes,
    /// including the SIMD padding lanes of the fused layout
    /// (used by the Fig. 7 index-size accounting).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.rows.bytes()
    }
}

/// A zero-cost view of one modality inside a [`MultiVectorSet`]: the same
/// per-modality API the pre-fused storage offered, reading strided
/// segments of the fused rows.
#[derive(Debug, Clone, Copy)]
pub struct ModalityView<'a> {
    rows: &'a FusedRows,
    k: usize,
}

impl<'a> ModalityView<'a> {
    /// Dimensionality of every vector in this modality.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.rows.dims()[self.k]
    }

    /// Number of vectors.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the modality holds no vectors.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Borrow vector `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, id: ObjectId) -> &'a [f32] {
        self.rows.modality_slice(id, self.k)
    }

    /// Inner product between rows `a` and `b` of this modality.
    #[inline]
    #[must_use]
    pub fn ip(&self, a: ObjectId, b: ObjectId) -> f32 {
        self.rows.modality_ip(a, b, self.k)
    }

    /// [`ModalityView::ip`] of row `a` against every row in `ids`, in
    /// order, into `out` (see [`FusedRows::modality_ips`]).
    ///
    /// # Panics
    /// Panics when `out` and `ids` differ in length.
    #[inline]
    pub fn ips(&self, a: ObjectId, ids: &[ObjectId], out: &mut [f32]) {
        self.rows.modality_ips(a, ids, self.k, out);
    }

    /// Inner product between row `a` and an external query vector.
    #[inline]
    #[must_use]
    pub fn ip_to(&self, a: ObjectId, query: &[f32]) -> f32 {
        kernels::ip(self.get(a), query)
    }

    /// Iterator over `(id, vector)` pairs.
    #[must_use]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (ObjectId, &'a [f32])> + '_ {
        let rows = self.rows;
        let k = self.k;
        (0..rows.len() as ObjectId).map(move |id| (id, rows.modality_slice(id, k)))
    }

    /// Mean of all vectors (the centroid used by the paper's seed
    /// preprocessing, component 4 of Algorithm 1).
    #[must_use]
    pub fn centroid(&self) -> Vec<f32> {
        let mut c = vec![0.0f32; self.dim()];
        if self.is_empty() {
            return c;
        }
        for (_, v) in self.iter() {
            for (ci, vi) in c.iter_mut().zip(v) {
                *ci += vi;
            }
        }
        let inv = 1.0 / self.len() as f32;
        for ci in c.iter_mut() {
            *ci *= inv;
        }
        c
    }
}

/// A query in multi-vector form: up to `m` vectors (one per supplied query
/// modality), laid out in the same modality order as the object set.
///
/// Slots are `None` for modalities the user did not supply (`t < m`); the
/// paper searches such queries by zeroing the corresponding weights
/// (Section VII-B).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiQuery {
    vectors: Vec<Option<Vec<f32>>>,
}

impl MultiQuery {
    /// A query supplying every modality.
    pub fn full(vectors: Vec<Vec<f32>>) -> Self {
        Self { vectors: vectors.into_iter().map(Some).collect() }
    }

    /// A query with explicit per-modality slots.
    pub fn partial(vectors: Vec<Option<Vec<f32>>>) -> Self {
        assert!(
            vectors.iter().any(Option::is_some),
            "a query must supply at least one modality"
        );
        Self { vectors }
    }

    /// Number of modality slots (`m`).
    #[inline]
    #[must_use]
    pub fn num_slots(&self) -> usize {
        self.vectors.len()
    }

    /// The vector for modality `i`, if supplied.
    #[inline]
    #[must_use]
    pub fn slot(&self, i: usize) -> Option<&[f32]> {
        self.vectors.get(i).and_then(|v| v.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorSetBuilder;

    fn two_modality_set() -> MultiVectorSet {
        let mut img = VectorSetBuilder::new(4, 2);
        img.push_normalized(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        img.push_normalized(&[0.0, 1.0, 0.0, 0.0]).unwrap();
        let mut txt = VectorSetBuilder::new(2, 2);
        txt.push_normalized(&[1.0, 0.0]).unwrap();
        txt.push_normalized(&[1.0, 1.0]).unwrap();
        MultiVectorSet::new(vec![img.finish(), txt.finish()]).unwrap()
    }

    #[test]
    fn cardinality_mismatch_is_rejected() {
        let mut a = VectorSetBuilder::new(2, 1);
        a.push_normalized(&[1.0, 0.0]).unwrap();
        let b = VectorSetBuilder::new(2, 0).finish();
        assert!(matches!(
            MultiVectorSet::new(vec![a.finish(), b]),
            Err(VectorError::CardinalityMismatch { expected: 1, got: 0 })
        ));
    }

    #[test]
    fn joint_ip_is_weighted_sum_of_modality_ips() {
        let set = two_modality_set();
        let w = Weights::new(vec![0.8, 0.33]).unwrap();
        let ips: Vec<f32> = set.modality_ips(0, 1).collect();
        let want = 0.64 * ips[0] + 0.1089 * ips[1];
        let got = set.joint_ip(0, 1, &w).unwrap();
        assert!((got - want).abs() < 1e-6);
    }

    #[test]
    fn joint_ip_rejects_wrong_weight_arity() {
        let set = two_modality_set();
        let w = Weights::uniform(3);
        assert!(matches!(
            set.joint_ip(0, 1, &w),
            Err(VectorError::WeightArity { modalities: 2, weights: 3 })
        ));
    }

    #[test]
    fn modality_views_read_the_fused_rows() {
        let set = two_modality_set();
        let img = set.modality(0);
        assert_eq!(img.dim(), 4);
        assert_eq!(img.len(), 2);
        assert_eq!(img.get(0), &[1.0, 0.0, 0.0, 0.0]);
        let txt = set.modality(1);
        assert!((txt.ip(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(set.object(1).count(), 2);
        assert_eq!(set.dims(), &[4, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one modality")]
    fn empty_query_panics() {
        let _ = MultiQuery::partial(vec![None, None]);
    }

    #[test]
    fn bytes_accounts_padded_rows() {
        let set = two_modality_set();
        // dims [4, 2] both pad to 8: stride 16, two objects — plus one
        // stored segment norm per (object, modality).
        assert_eq!(set.bytes(), (2 * 16 + 2 * 2) * 4);
    }
}
