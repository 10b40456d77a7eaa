//! The fused row layout and the two shape checks written on it: what a
//! well-formed row ([`Layout::check_row`]) or request
//! ([`Layout::check_request`]) is, decided once for the f32 engine, its
//! SQ8 companion, their evaluators and the serving layers above them.

use crate::{MultiQuery, VectorError, Weights};

/// Segment alignment in `f32` lanes (32 bytes): every modality segment is
/// zero-padded to a multiple of this, so rows and segments stay on
/// SIMD-friendly boundaries.
pub const FUSED_LANE: usize = 8;

/// Per-modality dims and the padded segment bounds they imply: one
/// segment per modality, each zero-padded to a multiple of [`FUSED_LANE`],
/// laid end to end.  Never empty, and no dimension is zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Unpadded per-modality dimensionalities.
    dims: Vec<usize>,
    /// Padded segment starts within a row; `seg[m]` is the row stride.
    seg: Vec<usize>,
}

impl Layout {
    /// The layout of `dims`: segment `k` spans `dims[k]` rounded up to a
    /// multiple of [`FUSED_LANE`].
    ///
    /// # Errors
    /// [`VectorError::DimensionMismatch`] (`expected: 1, got: 0`) when
    /// `dims` is empty or holds a zero:
    ///
    /// ```
    /// use must_vector::{Layout, VectorError};
    /// let layout = Layout::new(vec![5, 3]).unwrap();
    /// assert_eq!((layout.segment_bounds(1), layout.stride()), ((8, 16), 16));
    /// let zero = VectorError::DimensionMismatch { expected: 1, got: 0 };
    /// assert_eq!(Layout::new(vec![]), Err(zero.clone()));
    /// assert_eq!(Layout::new(vec![4, 0]), Err(zero));
    /// ```
    pub fn new(dims: Vec<usize>) -> Result<Self, VectorError> {
        if dims.is_empty() || dims.contains(&0) {
            return Err(VectorError::DimensionMismatch { expected: 1, got: 0 });
        }
        let mut seg = Vec::with_capacity(dims.len() + 1);
        let mut off = 0;
        seg.push(0);
        for &d in &dims {
            off += d.div_ceil(FUSED_LANE) * FUSED_LANE;
            seg.push(off);
        }
        Ok(Self { dims, seg })
    }

    /// Number of modalities `m`.
    #[inline]
    #[must_use]
    pub fn num_modalities(&self) -> usize {
        self.dims.len()
    }

    /// Unpadded per-modality dimensionalities.
    #[inline]
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row stride (sum of padded segment widths).
    #[inline]
    #[must_use]
    pub fn stride(&self) -> usize {
        self.seg[self.dims.len()]
    }

    /// Padded `[start, end)` of modality `k`'s segment within a row.
    #[inline]
    #[must_use]
    pub fn segment_bounds(&self, k: usize) -> (usize, usize) {
        (self.seg[k], self.seg[k + 1])
    }

    /// Whether `weights` covers every modality.
    ///
    /// # Errors
    /// [`VectorError::WeightArity`] when it does not.
    pub fn check_weights(&self, weights: &Weights) -> Result<(), VectorError> {
        self.check_arity(weights.modalities())
    }

    /// [`VectorError::WeightArity`] unless `count` is `m`.
    fn check_arity(&self, count: usize) -> Result<(), VectorError> {
        let modalities = self.num_modalities();
        if count != modalities {
            return Err(VectorError::WeightArity { modalities, weights: count });
        }
        Ok(())
    }

    /// The row check: one vector per modality, each of its modality's
    /// length.
    ///
    /// # Errors
    /// [`VectorError::CardinalityMismatch`] on the wrong modality count,
    /// then [`VectorError::DimensionMismatch`] for the first vector of the
    /// wrong length.
    pub fn check_row<S: AsRef<[f32]>>(&self, rows: &[S]) -> Result<(), VectorError> {
        let m = self.num_modalities();
        if rows.len() != m {
            return Err(VectorError::CardinalityMismatch { expected: m, got: rows.len() });
        }
        for (&dim, row) in self.dims.iter().zip(rows) {
            let got = row.as_ref().len();
            if got != dim {
                return Err(VectorError::DimensionMismatch { expected: dim, got });
            }
        }
        Ok(())
    }

    /// The request check, in this order: the query's slot count, the
    /// weights' arity, then slot by slot in modality order each supplied
    /// slot's length and the finiteness of its components.  A slot is
    /// checked whatever its weight, zero included.
    ///
    /// # Errors
    /// [`VectorError::WeightArity`] for a slot count or a weight count
    /// other than `m`, [`VectorError::DimensionMismatch`] for a slot of
    /// the wrong length, [`VectorError::NotNormalisable`] for a NaN or
    /// infinite component.
    pub fn check_request(&self, query: &MultiQuery, weights: &Weights) -> Result<(), VectorError> {
        self.check_arity(query.num_slots())?;
        self.check_weights(weights)?;
        for (k, &dim) in self.dims.iter().enumerate() {
            let Some(slot) = query.slot(k) else { continue };
            if slot.len() != dim {
                return Err(VectorError::DimensionMismatch { expected: dim, got: slot.len() });
            }
            // A NaN or infinite component would poison every score and
            // every sort the walk makes; refuse it, weighted or not.
            if slot.iter().any(|x| !x.is_finite()) {
                return Err(VectorError::NotNormalisable);
            }
        }
        Ok(())
    }
}
