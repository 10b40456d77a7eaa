//! Contiguous storage for a set of equal-dimensional vectors: the build
//! format of one modality.  Reads go through the fused rows it is packed
//! into (`FusedRows::modality`).

use crate::kernels;
use crate::{ObjectId, VectorError};

/// A dense `n x d` matrix of `f32` vectors stored row-major in one
/// allocation.
///
/// This is the corpus-side representation used for one modality of an object
/// set (`{phi_i(o_i) | o in S}` in the paper).  Rows are addressed by
/// [`ObjectId`].  Vectors are expected to be unit-norm (the paper normalises
/// all embeddings); [`VectorSetBuilder::push_normalized`] enforces this.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSet {
    dim: usize,
    data: Vec<f32>,
}

impl VectorSet {
    /// Creates an empty set of dimensionality `dim`.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self { dim, data: Vec::new() }
    }

    /// Creates an empty set with storage reserved for `n` vectors.
    #[must_use]
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self { dim, data: Vec::with_capacity(dim * n) }
    }

    /// Number of vectors in the set.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the set holds no vectors.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of every vector in the set.
    #[inline]
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow vector `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of bounds.
    #[inline]
    #[must_use]
    pub fn get(&self, id: ObjectId) -> &[f32] {
        let start = id as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Appends a vector without normalising it.
    ///
    /// # Errors
    /// Returns [`VectorError::DimensionMismatch`] on wrong length.
    pub fn push(&mut self, v: &[f32]) -> Result<ObjectId, VectorError> {
        if v.len() != self.dim {
            return Err(VectorError::DimensionMismatch { expected: self.dim, got: v.len() });
        }
        let id = self.len() as ObjectId;
        self.data.extend_from_slice(v);
        Ok(id)
    }
}

/// Incremental builder that normalises vectors as they are appended.
#[derive(Debug)]
pub struct VectorSetBuilder {
    set: VectorSet,
}

impl VectorSetBuilder {
    /// Starts a builder for vectors of dimensionality `dim`, reserving room
    /// for `n` of them.
    #[must_use]
    pub fn new(dim: usize, n: usize) -> Self {
        Self { set: VectorSet::with_capacity(dim, n) }
    }

    /// Appends `v` after normalising it to unit L2 norm.
    ///
    /// # Errors
    /// [`VectorError::DimensionMismatch`] on wrong length and
    /// [`VectorError::NotNormalisable`] for zero / non-finite vectors.
    pub fn push_normalized(&mut self, v: &[f32]) -> Result<ObjectId, VectorError> {
        if v.len() != self.set.dim {
            return Err(VectorError::DimensionMismatch { expected: self.set.dim, got: v.len() });
        }
        let mut owned = v.to_vec();
        if !kernels::normalize(&mut owned) {
            return Err(VectorError::NotNormalisable);
        }
        self.set.push(&owned)
    }

    /// Finishes the build.
    #[must_use]
    pub fn finish(self) -> VectorSet {
        self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FusedRows;

    /// `s` as the one modality of a fused set, where reads happen.
    fn fused(s: VectorSet) -> FusedRows {
        FusedRows::new(vec![s]).unwrap()
    }

    fn sample_set() -> VectorSet {
        let mut b = VectorSetBuilder::new(4, 3);
        b.push_normalized(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        b.push_normalized(&[1.0, 1.0, 0.0, 0.0]).unwrap();
        b.push_normalized(&[0.0, 0.0, 3.0, 4.0]).unwrap();
        b.finish()
    }

    #[test]
    fn builder_normalises_rows() {
        let s = sample_set();
        assert_eq!(s.len(), 3);
        for id in 0..s.len() as ObjectId {
            assert!(kernels::is_unit_norm(s.get(id), 1e-5));
        }
    }

    #[test]
    fn push_rejects_wrong_dimension() {
        let mut s = VectorSet::new(4);
        assert!(matches!(
            s.push(&[1.0, 2.0]),
            Err(VectorError::DimensionMismatch { expected: 4, got: 2 })
        ));
    }

    #[test]
    fn builder_rejects_zero_vector() {
        let mut b = VectorSetBuilder::new(3, 1);
        assert!(matches!(b.push_normalized(&[0.0; 3]), Err(VectorError::NotNormalisable)));
    }

    #[test]
    fn centroid_of_identical_vectors_is_that_vector() {
        let mut b = VectorSetBuilder::new(2, 2);
        b.push_normalized(&[0.0, 2.0]).unwrap();
        b.push_normalized(&[0.0, 5.0]).unwrap();
        let c = fused(b.finish()).modality(0).centroid();
        assert!((c[0]).abs() < 1e-6 && (c[1] - 1.0).abs() < 1e-6);
    }
}
