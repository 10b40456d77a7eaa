//! Dense-vector substrate for the MUST framework.
//!
//! MUST ("Multimodal Search of Target Modality", ICDE 2024) represents every
//! multimodal object as *one high-dimensional unit vector per modality* and
//! measures similarity between objects as the weighted sum of per-modality
//! inner products (Lemma 1 of the paper).  This crate provides the
//! building blocks every other crate in the workspace shares:
//!
//! * [`kernels`] — scalar similarity kernels: inner product, squared
//!   Euclidean distance, prefix (partial) distances for early termination,
//!   and L2 normalisation.
//! * [`VectorSet`] — a contiguous, cache-friendly `n x d` matrix of `f32`
//!   vectors with unit-norm enforcement (the per-modality build format).
//! * [`FusedRows`] — the corpus: the paper's multi-vector object
//!   representation (Fig. 4(b)) as a fused-row storage engine, all `m`
//!   modalities of one object in a single contiguous, SIMD-padded,
//!   **unscaled** row.
//!   Weights are a query-time parameter: the evaluator bakes `omega^2`
//!   into the fused query row, so the Lemma-1 joint similarity is still
//!   one dot product and the Lemma-4 bound walks raw segments of the same
//!   stored row — and the same engine serves any weight configuration.
//!   Joint similarity is computed in two places only:
//!   [`FusedRows::query`] (the per-query [`FusedQueryEvaluator`], exact or
//!   with Lemma 4's safe early termination, Eqs. 8–9) and
//!   [`FusedRows::weighted_pair_ip`] (object against object, for index
//!   construction).
//! * [`Layout`] — the padded per-modality segment layout both engines
//!   share, and the one row check and one request check written on it.
//! * [`ModalityView`] — a zero-cost strided view of one modality of a
//!   [`FusedRows`] corpus, keeping the old per-modality API.
//! * [`quant`] — the SQ8 scalar-quantized companion engine
//!   ([`QuantizedRows`]): per-row per-segment affine `u8` codes in the same
//!   stride-aligned layout, with certified reconstruction radii so a
//!   one-pass scan over the codes prunes only rows whose exact similarity
//!   provably clears nothing.  Codes are weight-free for the same reason
//!   stored rows are unscaled.
//! * [`Weights`] — the per-modality weight vector `omega` learned by the
//!   vector-weight-learning model (Section VI), exposed through its squared
//!   form as required by Lemma 1.
//!
//! All similarities in this crate follow the paper's convention: vectors are
//! unit-norm and similarity is the inner product (`IP`), to be *maximised*;
//! `IP(a, b) = 1 - 0.5 * ||a - b||^2` (Eq. 8) links it to Euclidean
//! distance.

//!
//! See `docs/ARCHITECTURE.md` at the repository root for the crate DAG
//! and a one-paragraph tour of every crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fused;
pub mod kernels;
mod layout;
mod multi;
pub mod quant;
mod set;
mod weights;

pub use fused::{FusedQueryEvaluator, FusedRows, MultiVectorSet, PartialIpVerdict};
pub use layout::{Layout, FUSED_LANE};
pub use quant::{QuantizedQueryEvaluator, QuantizedRows, SegParams};
pub use multi::{ModalityView, MultiQuery};
pub use set::{VectorSet, VectorSetBuilder};
pub use weights::Weights;

/// Identifier of an object (a row) inside a [`VectorSet`] / [`FusedRows`].
///
/// `u32` keeps hot index structures compact (the paper scales to 16 M
/// objects, well within `u32`).
pub type ObjectId = u32;

/// Error type for vector-set construction and joint-similarity plumbing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VectorError {
    /// A vector with a length different from the set's dimensionality was supplied.
    DimensionMismatch {
        /// Dimensionality the set expects.
        expected: usize,
        /// Dimensionality that was provided.
        got: usize,
    },
    /// The per-modality sets of a [`FusedRows`] corpus disagree on cardinality.
    CardinalityMismatch {
        /// Cardinality of modality 0.
        expected: usize,
        /// Offending cardinality.
        got: usize,
    },
    /// A zero (or non-finite) vector cannot be normalised.
    NotNormalisable,
    /// Weight vector length does not match the number of modalities.
    WeightArity {
        /// Number of modalities.
        modalities: usize,
        /// Number of weights provided.
        weights: usize,
    },
    /// Persisted SQ8 parameters the encoder cannot have written (a
    /// non-finite field, a negative step, or a reconstruction radius below
    /// the certified one); trusting them would void the scan's prune
    /// guarantee.
    InvalidSegParams {
        /// Row of the offending parameters.
        row: usize,
        /// Modality of the offending parameters.
        modality: usize,
    },
}

impl std::fmt::Display for VectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            Self::CardinalityMismatch { expected, got } => {
                write!(f, "cardinality mismatch: expected {expected}, got {got}")
            }
            Self::NotNormalisable => write!(f, "zero or non-finite vector cannot be normalised"),
            Self::WeightArity { modalities, weights } => write!(
                f,
                "weight arity mismatch: {modalities} modalities but {weights} weights"
            ),
            Self::InvalidSegParams { row, modality } => write!(
                f,
                "row {row} modality {modality}: SQ8 parameters the encoder cannot have written"
            ),
        }
    }
}

impl std::error::Error for VectorError {}
