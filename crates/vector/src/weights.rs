//! Per-modality vector weights (Section VI of the paper).

use crate::VectorError;

/// The per-modality weight vector `omega = (omega_0 .. omega_{m-1})`.
///
/// Lemma 1 of the paper shows the joint similarity of a pair of objects is
/// `sum_i omega_i^2 * IP_i`, so hot paths consume the *squared* weights; this
/// type caches them.  Weights come from two sources (Fig. 4(g)):
/// learned weights produced by the vector-weight-learning model, or
/// user-defined weights supplied directly.
///
/// Weights are non-negative and not all zero: under all-zero weights every
/// joint similarity is 0, and no ranking or graph walk has anything to go
/// by.  A query with fewer modalities than objects
/// (`t < m`) gets the paper's `omega_i = 0` for the slots it does not
/// supply (Section VII-B): the query evaluators skip those segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Weights {
    omega: Vec<f32>,
    omega_sq: Vec<f32>,
}

impl Weights {
    /// Builds weights from raw `omega` values.
    ///
    /// # Errors
    /// Returns [`VectorError::NotNormalisable`] if any weight is negative or
    /// non-finite, or if every squared weight is zero.
    pub fn new(omega: Vec<f32>) -> Result<Self, VectorError> {
        if omega.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(VectorError::NotNormalisable);
        }
        let omega_sq: Vec<f32> = omega.iter().map(|w| w * w).collect();
        if omega_sq.iter().all(|w| *w == 0.0) {
            return Err(VectorError::NotNormalisable);
        }
        Ok(Self { omega, omega_sq })
    }

    /// Uniform weights `omega_i = sqrt(1/m)` so that the squared weights sum
    /// to one — the natural "no preference" configuration
    /// (`omega_0^2 = omega_1^2 = 0.5` for two modalities, as in Tab. IX).
    #[must_use]
    pub fn uniform(m: usize) -> Self {
        assert!(m > 0, "at least one modality required");
        let w = (1.0 / m as f32).sqrt();
        Self::new(vec![w; m]).expect("uniform weights are valid")
    }

    /// Linear interpolation between two weight configurations in *squared*
    /// space: `omega_i^2 = (1 - t) * a_i^2 + t * b_i^2`, with `t` clamped
    /// to `[0, 1]`.  Interpolating the squared weights keeps the blend
    /// linear in the joint similarity itself (Lemma 1 is linear in
    /// `omega^2`), which makes smooth user-weight transitions — e.g. a
    /// preference slider served via `search_weighted` — behave
    /// predictably.
    ///
    /// # Errors
    /// Returns [`VectorError::WeightArity`] when `a` and `b` cover a
    /// different number of modalities:
    ///
    /// ```
    /// use must_vector::Weights;
    ///
    /// let a = Weights::from_squared(vec![1.0, 0.0]).unwrap();
    /// let b = Weights::from_squared(vec![0.0, 1.0]).unwrap();
    /// let mid = Weights::blend(&a, &b, 0.5).unwrap();
    /// assert!((mid.sq(0) - 0.5).abs() < 1e-6);
    /// assert!((mid.sq(1) - 0.5).abs() < 1e-6);
    /// // Endpoints reproduce the inputs; t is clamped.
    /// assert_eq!(Weights::blend(&a, &b, -3.0).unwrap(), a);
    /// assert_eq!(Weights::blend(&a, &b, 7.0).unwrap(), b);
    /// assert!(Weights::blend(&a, &Weights::uniform(3), 0.5).is_err());
    /// ```
    pub fn blend(a: &Weights, b: &Weights, t: f32) -> Result<Self, crate::VectorError> {
        if a.modalities() != b.modalities() {
            return Err(crate::VectorError::WeightArity {
                modalities: a.modalities(),
                weights: b.modalities(),
            });
        }
        let t = if t.is_finite() { t.clamp(0.0, 1.0) } else { 0.0 };
        Self::from_squared(
            a.omega_sq
                .iter()
                .zip(&b.omega_sq)
                .map(|(x, y)| (1.0 - t) * x + t * y)
                .collect(),
        )
    }

    /// Builds weights directly from *squared* values (the form the paper
    /// reports in Tabs. IX and XIII–XVIII).
    ///
    /// # Errors
    /// Returns [`VectorError::NotNormalisable`] if any squared weight is
    /// negative or non-finite, or if every one is zero.
    pub fn from_squared(omega_sq: Vec<f32>) -> Result<Self, VectorError> {
        let invalid = |w: &f32| !w.is_finite() || *w < 0.0;
        if omega_sq.iter().any(invalid) || omega_sq.iter().all(|w| *w == 0.0) {
            return Err(VectorError::NotNormalisable);
        }
        let omega = omega_sq.iter().map(|w| w.sqrt()).collect();
        Ok(Self { omega, omega_sq })
    }

    /// Number of modalities covered.
    #[inline]
    #[must_use]
    pub fn modalities(&self) -> usize {
        self.omega.len()
    }

    /// Raw weights `omega_i`.
    #[inline]
    #[must_use]
    pub fn raw(&self) -> &[f32] {
        &self.omega
    }

    /// Squared weights `omega_i^2` (the coefficients of Lemma 1).
    #[inline]
    #[must_use]
    pub fn squared(&self) -> &[f32] {
        &self.omega_sq
    }

    /// Squared weight of modality `i`.
    #[inline]
    #[must_use]
    pub fn sq(&self, i: usize) -> f32 {
        self.omega_sq[i]
    }

    /// The Lemma-1 combiner over arbitrary per-modality terms:
    /// `sum_i omega_i^2 * terms[i]`.  This is how *any* per-modality
    /// summary statistic scales under the active weights — shard routing
    /// uses it to collapse per-modality bounds (centroid inner product
    /// plus residual radius) into one comparable score, applying a
    /// query-time override exactly where the query row itself would.
    ///
    /// Terms beyond the modality count are ignored; missing terms
    /// contribute zero (the masked-query convention of Section VII-B).
    ///
    /// ```
    /// use must_vector::Weights;
    ///
    /// let w = Weights::from_squared(vec![0.8, 0.2]).unwrap();
    /// let score = w.weighted_sum(&[0.5, 1.0]);
    /// assert!((score - (0.8 * 0.5 + 0.2 * 1.0)).abs() < 1e-6);
    /// ```
    #[must_use]
    pub fn weighted_sum(&self, terms: &[f32]) -> f32 {
        self.omega_sq.iter().zip(terms).map(|(w, t)| w * t).sum()
    }

    /// A copy rescaled so the squared weights sum to one.  Pure rescaling
    /// does not change similarity *rankings* (it multiplies every joint
    /// similarity by the same constant), but normalised weights make
    /// configurations comparable across datasets.
    #[must_use]
    pub fn normalized(&self) -> Self {
        // Positive: `new` and `from_squared` refuse all-zero weights.  The
        // largest entry divides to 1, so the result is never all zero.
        let total: f32 = self.omega_sq.iter().sum();
        Self::from_squared(self.omega_sq.iter().map(|w| w / total).collect())
            .expect("normalisation preserves validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_weights_track_raw() {
        let w = Weights::new(vec![0.8, 0.33]).unwrap();
        assert!((w.sq(0) - 0.64).abs() < 1e-6);
        assert!((w.sq(1) - 0.1089).abs() < 1e-6);
        assert_eq!(w.modalities(), 2);
    }

    #[test]
    fn from_squared_round_trips() {
        let w = Weights::from_squared(vec![0.5, 0.5]).unwrap();
        assert!((w.raw()[0] - 0.5f32.sqrt()).abs() < 1e-6);
        assert!((w.sq(0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn uniform_squares_sum_to_one() {
        for m in 1..6 {
            let w = Weights::uniform(m);
            let s: f32 = w.squared().iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "m={m}");
        }
    }

    #[test]
    fn negative_weights_rejected() {
        assert!(Weights::new(vec![0.5, -0.1]).is_err());
        assert!(Weights::from_squared(vec![f32::NAN]).is_err());
    }

    #[test]
    fn all_zero_weights_rejected() {
        // Every joint similarity would be 0: nothing to rank or walk by.
        // One positive entry is enough, and so is one whose square is
        // positive; an entry whose square underflows to 0 counts as 0.
        for zeros in [vec![0.0], vec![0.0, 0.0], vec![0.0, 0.0, 0.0], vec![1e-30, 0.0]] {
            assert_eq!(Weights::new(zeros.clone()), Err(VectorError::NotNormalisable), "{zeros:?}");
        }
        for zeros in [vec![0.0], vec![0.0, 0.0, 0.0]] {
            assert_eq!(Weights::from_squared(zeros), Err(VectorError::NotNormalisable));
        }
        assert!(Weights::new(vec![0.0, 0.3]).is_ok());
        assert!(Weights::from_squared(vec![0.0, 1e-30]).is_ok());
        let tiny = Weights::from_squared(vec![1e-40, 3e-40]).unwrap().normalized();
        assert!((tiny.sq(1) - 0.75).abs() < 1e-3, "{tiny:?}");
    }

    #[test]
    fn normalized_sums_to_one_and_preserves_ratio() {
        let w = Weights::from_squared(vec![0.2, 0.6]).unwrap().normalized();
        let s: f32 = w.squared().iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!((w.sq(1) / w.sq(0) - 3.0).abs() < 1e-5);
    }
}
