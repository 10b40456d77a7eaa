//! The fused-row storage engine: one contiguous, **unscaled** row per
//! object for the joint-similarity hot path, with all modality weighting
//! applied query-side.  It is also the corpus: the paper's multi-vector
//! representation of a multimodal object set (Section V / Fig. 4(b)).
//!
//! The paper reports that vector computation consumes up to 90 % of total
//! search time (Section VII-B).  Storing each object's `m` modality vectors
//! as `m` separate matrices costs one heap indirection and one cache-cold
//! row fetch *per modality per candidate*.  [`FusedRows`] instead lays all
//! modalities of object `i` out contiguously:
//!
//! ```text
//! row i: [ seg 0 (dim_0, padded) | seg 1 (dim_1, padded) | ... | seg m-1 ]
//! ```
//!
//! Each segment is zero-padded to a multiple of [`crate::FUSED_LANE`]
//! floats so every segment (and every row) starts on a SIMD-friendly
//! boundary ([`Layout`] holds the rule and the shape checks); the padding
//! lanes are always zero, so they contribute nothing to inner products or
//! squared distances.
//!
//! **Weights never touch the stored rows.**  Lemma 1 gives the joint
//! similarity as `IP(q_hat, o_hat) = sum_k omega_k^2 * IP_k`, and every
//! `omega_k^2` multiplies the *query side* of each per-modality inner
//! product — so [`FusedRows::query`] bakes `omega_k^2` into the fused
//! query row once per query, and scoring a candidate against the raw
//! stored row is still **one** contiguous dot product.  Changing weights
//! is therefore a per-query decision, not a storage rebuild: the same
//! engine serves any `omega` (the paper's user-defined-weight scenario,
//! Tab. IX and Section VIII-F).
//!
//! For the Lemma-4 early-termination walk the engine additionally stores
//! each row's per-modality squared segment norms (`||o_k||^2`, 1.0 for
//! unit-normalised corpora), so the prefix bound
//! `sum_k 0.5 omega_k^2 (||q_k||^2 + ||o_k||^2) - 0.5 omega_k^2 ||q_k - o_k||^2`
//! needs only the raw per-segment `l2_sq` kernel scaled by `omega_k^2` —
//! factors the evaluator precomputes at construction time.

use crate::kernels;
use crate::multi::{ModalityView, MultiQuery};
use crate::{Layout, ObjectId, VectorError, VectorSet, Weights};

/// Distance between the touches a `warm` makes along a row: one per
/// cache line.  (One per 128 B, trusting the adjacent-line prefetcher for
/// the other half, measured at a third of the gain: `serve_f32` medians
/// 14.3 k ops/s untouched, 15.6 k at 128 B, 19.0 k at 64 B.)
pub(crate) const CACHE_LINE: usize = 64;

/// `m` modalities over `n` objects in contiguous multi-modality rows (see
/// the module docs): row `id` holds the whole multi-vector representation
/// of object `id`.
///
/// Modality `0` is the *target* modality by the paper's convention; the
/// remaining modalities are auxiliary.  Per-modality dimensionalities may
/// differ (e.g. a 128-d image space next to a 64-d text space).
///
/// Rows are stored **unscaled** — weighting happens query-side via
/// [`FusedRows::query`] / [`FusedRows::weighted_pair_ip`] — and each row
/// carries its per-modality squared segment norms for the Lemma-4 bound.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedRows {
    layout: Layout,
    /// Number of rows (objects).
    len: usize,
    /// `len * stride` floats, row-major, padding lanes zero.
    data: Vec<f32>,
    /// `len * m` squared segment norms: `seg_norms[id * m + k] = ||o_k||^2`.
    seg_norms: Vec<f32>,
}

impl FusedRows {
    /// Recomputes every row's per-modality squared segment norms from the
    /// padded data (padding lanes are zero, so padded and unpadded norms
    /// agree).
    fn compute_norms(layout: &Layout, data: &[f32]) -> Vec<f32> {
        let (m, stride) = (layout.num_modalities(), layout.stride());
        let mut norms = Vec::with_capacity((data.len() / stride) * m);
        for row in data.chunks_exact(stride) {
            for k in 0..m {
                let (start, end) = layout.segment_bounds(k);
                let s = &row[start..end];
                norms.push(kernels::ip(s, s));
            }
        }
        norms
    }

    /// Assembles the corpus from per-modality sets, fusing their rows
    /// into the contiguous layout.
    ///
    /// # Errors
    /// [`VectorError::DimensionMismatch`] when `sets` is empty;
    /// [`VectorError::CardinalityMismatch`] when the sets disagree on the
    /// number of objects:
    ///
    /// ```
    /// use must_vector::{FusedRows, VectorError, VectorSet, VectorSetBuilder};
    /// let mut a = VectorSetBuilder::new(2, 1);
    /// a.push_normalized(&[1.0, 0.0]).unwrap();
    /// let b = VectorSet::new(3); // empty: 0 objects vs 1
    /// assert_eq!(
    ///     FusedRows::new(vec![a.finish(), b]).unwrap_err(),
    ///     VectorError::CardinalityMismatch { expected: 1, got: 0 },
    /// );
    /// ```
    pub fn new(sets: Vec<VectorSet>) -> Result<Self, VectorError> {
        let layout = Layout::new(sets.iter().map(VectorSet::dim).collect())?;
        let n = sets[0].len();
        for set in &sets[1..] {
            if set.len() != n {
                return Err(VectorError::CardinalityMismatch { expected: n, got: set.len() });
            }
        }
        let stride = layout.stride();
        let mut data = vec![0.0f32; n * stride];
        for (k, set) in sets.iter().enumerate() {
            let start = layout.segment_bounds(k).0;
            for id in 0..n {
                let row = id * stride + start;
                data[row..row + set.dim()].copy_from_slice(set.get(id as ObjectId));
            }
        }
        let seg_norms = Self::compute_norms(&layout, &data);
        Ok(Self { layout, len: n, data, seg_norms })
    }

    /// Reassembles fused storage from its raw parts (the load path of the
    /// bundle-v6 shard payload, whose rows are already in fused layout, so
    /// no per-modality re-copy happens).  Padding lanes are re-zeroed
    /// defensively and segment norms are recomputed from the data.
    ///
    /// # Errors
    /// [`VectorError::DimensionMismatch`] when `data.len()` is not
    /// `len * stride` for the layout implied by `dims`, or when `dims` is
    /// empty or any dimension is zero:
    ///
    /// ```
    /// use must_vector::{FusedRows, VectorError};
    /// // dims [2, 3] pad to a stride of 16, so 17 floats cannot be rows.
    /// assert!(matches!(
    ///     FusedRows::from_raw_parts(vec![2, 3], vec![0.0; 17]),
    ///     Err(VectorError::DimensionMismatch { .. }),
    /// ));
    /// ```
    pub fn from_raw_parts(dims: Vec<usize>, data: Vec<f32>) -> Result<Self, VectorError> {
        let mut rows = Self::from_raw_parts_unnormed(dims, data)?;
        rows.seg_norms = Self::compute_norms(&rows.layout, &rows.data);
        Ok(rows)
    }

    /// Like [`FusedRows::from_raw_parts`], but adopts pre-computed segment
    /// norms instead of re-deriving them (the load path of bundles v5 and
    /// v7, which persist the norms block alongside the rows).
    ///
    /// # Errors
    /// Everything [`FusedRows::from_raw_parts`] rejects, plus
    /// [`VectorError::CardinalityMismatch`] when `seg_norms` does not hold
    /// exactly one norm per `(row, modality)` pair.
    pub fn from_raw_parts_with_norms(
        dims: Vec<usize>,
        data: Vec<f32>,
        seg_norms: Vec<f32>,
    ) -> Result<Self, VectorError> {
        let mut rows = Self::from_raw_parts_unnormed(dims, data)?;
        let expected = rows.len * rows.num_modalities();
        if seg_norms.len() != expected {
            return Err(VectorError::CardinalityMismatch { expected, got: seg_norms.len() });
        }
        rows.seg_norms = seg_norms;
        Ok(rows)
    }

    fn from_raw_parts_unnormed(dims: Vec<usize>, mut data: Vec<f32>) -> Result<Self, VectorError> {
        let layout = Layout::new(dims)?;
        let stride = layout.stride();
        if !data.len().is_multiple_of(stride) {
            return Err(VectorError::DimensionMismatch {
                expected: stride,
                got: data.len() % stride,
            });
        }
        let len = data.len() / stride;
        // Padding must be zero for fused dot products to be exact; enforce
        // rather than trust the caller (or the bytes on disk).
        for row in data.chunks_exact_mut(stride) {
            for (k, &d) in layout.dims().iter().enumerate() {
                let (start, end) = layout.segment_bounds(k);
                row[start + d..end].fill(0.0);
            }
        }
        Ok(Self { layout, len, data, seg_norms: Vec::new() })
    }

    /// The row layout: dims, padded segment bounds and stride, and the
    /// shape checks every row and request goes through.
    #[inline]
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Number of modalities `m`.
    #[inline]
    #[must_use]
    pub fn num_modalities(&self) -> usize {
        self.layout.num_modalities()
    }

    /// Unpadded per-modality dimensionalities.
    #[inline]
    #[must_use]
    pub fn dims(&self) -> &[usize] {
        self.layout.dims()
    }

    /// Row stride in floats (sum of padded segment widths).
    #[inline]
    #[must_use]
    pub fn stride(&self) -> usize {
        self.layout.stride()
    }

    /// Padded `[start, end)` of modality `k`'s segment within a row.
    #[inline]
    #[must_use]
    pub fn segment_bounds(&self, k: usize) -> (usize, usize) {
        self.layout.segment_bounds(k)
    }

    /// Number of rows (objects).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the engine holds no rows.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The squared norm `||o_k||^2` of modality `k`'s segment in row `id`
    /// (1.0 for unit-normalised corpora).
    #[inline]
    #[must_use]
    pub fn seg_norm(&self, id: ObjectId, k: usize) -> f32 {
        self.seg_norms[id as usize * self.num_modalities() + k]
    }

    /// All squared segment norms, row-major (`len * m` entries) — the
    /// bundle-v5 save path.
    #[inline]
    #[must_use]
    pub fn seg_norms(&self) -> &[f32] {
        &self.seg_norms
    }

    /// The full padded row of object `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of bounds.
    #[inline]
    #[must_use]
    pub fn row(&self, id: ObjectId) -> &[f32] {
        let stride = self.stride();
        let start = id as usize * stride;
        &self.data[start..start + stride]
    }

    /// The padded segment of modality `k` in row `id` (tail lanes zero).
    #[inline]
    #[must_use]
    pub fn segment(&self, id: ObjectId, k: usize) -> &[f32] {
        let row = id as usize * self.stride();
        let (start, end) = self.segment_bounds(k);
        &self.data[row + start..row + end]
    }

    /// The unpadded modality-`k` vector of object `id` (length `dims[k]`).
    #[inline]
    #[must_use]
    pub fn modality_slice(&self, id: ObjectId, k: usize) -> &[f32] {
        let start = id as usize * self.stride() + self.segment_bounds(k).0;
        &self.data[start..start + self.dims()[k]]
    }

    /// The raw row buffer (bundle save path).
    #[inline]
    #[must_use]
    pub fn raw_data(&self) -> &[f32] {
        &self.data
    }

    /// The Lemma-1 joint similarity `sum_k wsq[k] * IP_k` between rows `a`
    /// and `b` under squared weights `wsq` (`omega_k^2`): one per-segment
    /// dot product per positive weight, all walking the same two
    /// contiguous rows.
    ///
    /// # Panics
    /// Panics in debug builds when `wsq` does not cover every modality.
    #[inline]
    #[must_use]
    pub fn weighted_pair_ip(&self, a: ObjectId, b: ObjectId, wsq: &[f32]) -> f32 {
        debug_assert_eq!(wsq.len(), self.num_modalities());
        let (ra, rb) = (self.row(a), self.row(b));
        let mut sum = 0.0;
        for (k, &w) in wsq.iter().enumerate() {
            if w > 0.0 {
                let (start, end) = self.segment_bounds(k);
                sum += w * kernels::ip(&ra[start..end], &rb[start..end]);
            }
        }
        sum
    }

    /// [`FusedRows::weighted_pair_ip`] of row `a` against every row in
    /// `ids`, in order, into `out` — bit for bit the per-pair values.
    /// Four ids at a time share one [`kernels::ip4`] pass per segment;
    /// the last `ids.len() % 4` go pair by pair.
    ///
    /// # Panics
    /// Panics when `out` and `ids` differ in length.
    pub fn weighted_pair_ips(&self, a: ObjectId, ids: &[ObjectId], wsq: &[f32], out: &mut [f32]) {
        debug_assert_eq!(wsq.len(), self.num_modalities());
        assert_eq!(ids.len(), out.len(), "one output slot per id");
        let ra = self.row(a);
        let (quads, rest) = ids.as_chunks::<4>();
        let (out_quads, out_rest) = out.as_chunks_mut::<4>();
        for (quad, sums) in quads.iter().zip(out_quads) {
            let rows = quad.map(|id| self.row(id));
            *sums = [0.0; 4];
            for (k, &w) in wsq.iter().enumerate() {
                if w > 0.0 {
                    let (start, end) = self.segment_bounds(k);
                    let seg = start..end;
                    let ips = kernels::ip4(&ra[seg.clone()], rows.map(|r| &r[seg.clone()]));
                    for (sum, ip) in sums.iter_mut().zip(ips) {
                        *sum += w * ip;
                    }
                }
            }
        }
        for (&b, sum) in rest.iter().zip(out_rest) {
            *sum = self.weighted_pair_ip(a, b, wsq);
        }
    }

    /// Inner product of modality `k` between rows `a` and `b`.
    #[inline]
    #[must_use]
    pub fn modality_ip(&self, a: ObjectId, b: ObjectId, k: usize) -> f32 {
        kernels::ip(self.segment(a, k), self.segment(b, k))
    }

    /// [`FusedRows::modality_ip`] of row `a` against every row in `ids`,
    /// in order, into `out` — bit for bit the per-pair values, four ids
    /// per [`kernels::ip4`] pass.
    ///
    /// # Panics
    /// Panics when `out` and `ids` differ in length.
    pub fn modality_ips(&self, a: ObjectId, ids: &[ObjectId], k: usize, out: &mut [f32]) {
        assert_eq!(ids.len(), out.len(), "one output slot per id");
        let sa = self.segment(a, k);
        let (quads, rest) = ids.as_chunks::<4>();
        let (out_quads, out_rest) = out.as_chunks_mut::<4>();
        for (quad, ips) in quads.iter().zip(out_quads) {
            *ips = kernels::ip4(sa, quad.map(|id| self.segment(id, k)));
        }
        for (&b, ip) in rest.iter().zip(out_rest) {
            *ip = self.modality_ip(a, b, k);
        }
    }

    /// A view of modality `i`'s vectors.
    ///
    /// # Panics
    /// Panics when `i` is not a modality of the layout.
    #[inline]
    #[must_use]
    pub fn modality(&self, i: usize) -> ModalityView<'_> {
        assert!(i < self.num_modalities(), "modality out of range");
        ModalityView { rows: self, k: i }
    }

    /// Views of all modalities, in order.
    #[must_use]
    pub fn modalities(&self) -> impl ExactSizeIterator<Item = ModalityView<'_>> + '_ {
        (0..self.num_modalities()).map(|k| ModalityView { rows: self, k })
    }

    /// The multi-vector of object `id`: one slice per modality, borrowed
    /// straight out of the fused row (no allocation).
    #[must_use]
    pub fn object(&self, id: ObjectId) -> impl ExactSizeIterator<Item = &[f32]> + '_ {
        (0..self.num_modalities()).map(move |k| self.modality_slice(id, k))
    }

    /// Joint similarity between objects `a` and `b` under `weights`
    /// (Lemma 1: the weighted sum of per-modality inner products).  This is
    /// the reference per-modality path the fused paths are tested against;
    /// hot paths use [`FusedRows::weighted_pair_ip`] or a
    /// [`FusedQueryEvaluator`].
    ///
    /// # Errors
    /// [`VectorError::WeightArity`] when `weights` does not cover every
    /// modality ([`Layout::check_weights`]).
    pub fn joint_ip(&self, a: ObjectId, b: ObjectId, weights: &Weights) -> Result<f32, VectorError> {
        self.layout.check_weights(weights)?;
        Ok((0..self.num_modalities())
            .map(|k| self.modality_ip(a, b, k))
            .zip(weights.squared())
            .map(|(ip, w)| w * ip)
            .sum())
    }

    /// Pulls row `id` (and its norm column) towards the cache ahead of a
    /// kernel call on it: one load per cache line, folded into a
    /// `black_box`ed accumulator so the loads are neither elided nor
    /// ordered behind anything.  Safe Rust has no prefetch instruction; a
    /// touched line is the one portable way to put a miss in flight early,
    /// and independent touches of several rows overlap in the memory
    /// system where dependent kernel calls cannot.
    #[inline]
    pub fn warm(&self, id: ObjectId) {
        let mut acc = self.seg_norms[id as usize * self.num_modalities()];
        for x in self.row(id).iter().step_by(CACHE_LINE / std::mem::size_of::<f32>()) {
            acc += x;
        }
        std::hint::black_box(acc);
    }

    /// The mean of all rows — the fused centroid used by seed
    /// preprocessing (component 4 of Algorithm 1); weight it query-side
    /// like any other point.  Padding lanes stay zero.
    #[must_use]
    pub fn centroid_row(&self) -> Vec<f32> {
        let stride = self.stride();
        let mut c = vec![0.0f32; stride];
        if self.len == 0 {
            return c;
        }
        for row in self.data.chunks_exact(stride) {
            for (ci, x) in c.iter_mut().zip(row) {
                *ci += x;
            }
        }
        let inv = 1.0 / self.len as f32;
        for ci in c.iter_mut() {
            *ci *= inv;
        }
        c
    }

    /// Appends one object from its per-modality vectors, stored raw.  The
    /// caller is responsible for normalisation ([`FusedRows::push_object`]
    /// normalises first); segment norms are recorded from the values as
    /// given.
    ///
    /// # Errors
    /// [`Layout::check_row`]'s; the engine is untouched on error.
    pub fn push_row<S: AsRef<[f32]>>(&mut self, rows: &[S]) -> Result<ObjectId, VectorError> {
        self.layout.check_row(rows)?;
        let id = self.len as ObjectId;
        let stride = self.stride();
        self.data.resize((self.len + 1) * stride, 0.0);
        let row = &mut self.data[self.len * stride..];
        for (k, r) in rows.iter().enumerate() {
            let (r, start) = (r.as_ref(), self.layout.segment_bounds(k).0);
            row[start..start + r.len()].copy_from_slice(r);
            self.seg_norms.push(kernels::ip(r, r));
        }
        self.len += 1;
        Ok(id)
    }

    /// Appends one object given its per-modality raw vectors, normalising
    /// each (dynamic insertion, Section IX of the paper).
    ///
    /// # Errors
    /// [`Layout::check_row`]'s, then [`VectorError::NotNormalisable`] for a
    /// zero or non-finite vector; on error nothing is appended (validated
    /// before mutation).
    pub fn push_object(&mut self, rows: &[Vec<f32>]) -> Result<ObjectId, VectorError> {
        self.layout.check_row(rows)?;
        // Normalise every row first so a failure cannot leave the set torn.
        let mut normalized = Vec::with_capacity(rows.len());
        for row in rows {
            let mut v = row.clone();
            if !kernels::normalize(&mut v) {
                return Err(VectorError::NotNormalisable);
            }
            normalized.push(v);
        }
        self.push_row(&normalized)
    }

    /// Heap footprint of the padded row storage in bytes, including the
    /// SIMD padding lanes and the segment norms (the Fig. 7 index-size
    /// accounting).
    #[must_use]
    pub fn bytes(&self) -> usize {
        (self.data.len() + self.seg_norms.len()) * std::mem::size_of::<f32>()
    }

    /// Quantizes the engine into its SQ8 companion
    /// ([`crate::quant::QuantizedRows`]): same layout, `u8` codes, per-row
    /// affine parameters, and the exact segment norms carried over — the
    /// compressed walk the serving layer scans before re-ranking on these
    /// f32 rows.
    #[must_use]
    pub fn quantize(&self) -> crate::quant::QuantizedRows {
        crate::quant::QuantizedRows::from_fused(self)
    }

    /// Prepares a per-query evaluator under `weights`: the query's supplied
    /// slots are scaled by `omega_k^2` and fused into one padded row
    /// *once*, after which every candidate costs a single dot product
    /// against its raw stored row (exact path) or an early-exiting segment
    /// walk (Lemma-4 path).  Because the stored rows are unscaled, every
    /// query may carry **its own** weight vector over the same engine.
    ///
    /// # Errors
    /// [`Layout::check_request`]'s: the wrong slot count or weight arity,
    /// a slot of the wrong length, a non-finite component.
    pub fn query(
        &self,
        query: &MultiQuery,
        weights: &Weights,
    ) -> Result<FusedQueryEvaluator<'_>, VectorError> {
        FusedQueryEvaluator::new(self, query, weights)
    }
}

/// The repo benchmark's name for [`FusedRows`]; deleted by the first
/// `[benchmark]` PR (ROADMAP 1b), with [`FusedRows::from_fused`] and
/// [`FusedRows::fused`].
pub type MultiVectorSet = FusedRows;

impl FusedRows {
    /// Returns `rows`.  The repo benchmark's name; deleted by the first
    /// `[benchmark]` PR (ROADMAP 1b).
    #[must_use]
    pub fn from_fused(rows: FusedRows) -> Self {
        rows
    }

    /// Returns `self`.  The repo benchmark's name; deleted by the first
    /// `[benchmark]` PR (ROADMAP 1b).
    #[inline]
    #[must_use]
    pub fn fused(&self) -> &Self {
        self
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

/// One active (supplied, positive-weight) modality of a fused query, in
/// Lemma-4 prefix order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ActiveSegment {
    /// Modality index (for the stored-norm lookup).
    k: usize,
    /// Padded segment start within a row.
    start: usize,
    /// Padded segment end within a row.
    end: usize,
    /// `0.5 * omega_k^2` — the evaluator-construction-time scaling of the
    /// per-segment `l2_sq` in the Lemma-4 bound.
    half_wsq: f32,
}

/// Per-query evaluator over a [`FusedRows`] engine: the query row carries
/// `omega_k^2`, the stored rows stay raw, and the Lemma-4 early-termination
/// optimisation (Eqs. 8–9 of the paper) runs on `omega^2`-scaled raw
/// per-segment distances.  Also carries the kernel-evaluation
/// instrumentation the Fig. 10(c) ablation counts.
#[derive(Debug)]
pub struct FusedQueryEvaluator<'a> {
    rows: &'a FusedRows,
    /// The query fused into one padded row with `omega_k^2` baked in;
    /// segments of unsupplied (or zero-weight) modalities are zero, so the
    /// exact path is one dot product against the raw stored row.
    qrow: Vec<f32>,
    /// The same query row *unscaled* — the side the Lemma-4 per-segment
    /// `l2_sq` walk compares raw stored segments against.
    qraw: Vec<f32>,
    /// Active modalities in modality order — the Lemma-4 prefix order.
    active: Vec<ActiveSegment>,
    /// `sum of active omega_k^2` (the query's joint self-similarity for a
    /// unit-norm query).
    w_total: f32,
    /// `sum_k 0.5 * omega_k^2 * ||q_k||^2` — the query half of the Eq. 8
    /// norm term; the candidate half comes from the stored segment norms.
    q_half_norm: f32,
    kernel_evals: std::cell::Cell<u64>,
}

impl<'a> FusedQueryEvaluator<'a> {
    fn new(
        rows: &'a FusedRows,
        query: &MultiQuery,
        weights: &Weights,
    ) -> Result<Self, VectorError> {
        rows.layout.check_request(query, weights)?;
        let mut qrow = vec![0.0f32; rows.stride()];
        let mut qraw = vec![0.0f32; rows.stride()];
        let mut active = Vec::with_capacity(rows.num_modalities());
        let mut w_total = 0.0;
        let mut q_half_norm = 0.0;
        for k in 0..rows.num_modalities() {
            let Some(slot) = query.slot(k) else { continue };
            let wsq = weights.sq(k);
            if wsq <= 0.0 {
                continue;
            }
            let (start, end) = rows.segment_bounds(k);
            qraw[start..start + slot.len()].copy_from_slice(slot);
            for (dst, &x) in qrow[start..].iter_mut().zip(slot) {
                *dst = wsq * x;
            }
            active.push(ActiveSegment { k, start, end, half_wsq: 0.5 * wsq });
            w_total += wsq;
            q_half_norm += 0.5 * wsq * kernels::ip(slot, slot);
        }
        Ok(Self {
            rows,
            qrow,
            qraw,
            active,
            w_total,
            q_half_norm,
            kernel_evals: std::cell::Cell::new(0),
        })
    }

    /// Number of modality kernels evaluated so far (the multi-vector
    /// computation ablation counter).
    #[inline]
    pub fn kernel_evals(&self) -> u64 {
        self.kernel_evals.get()
    }

    /// Sum of active squared weights — the joint similarity of a unit-norm
    /// query with itself and the starting value of the Lemma-4 upper bound.
    #[inline]
    pub fn w_total(&self) -> f32 {
        self.w_total
    }

    #[inline]
    fn bump(&self, by: u64) {
        self.kernel_evals.set(self.kernel_evals.get() + by);
    }

    /// Exact joint similarity of object `id` to the query: one contiguous
    /// dot product of the raw stored row against the `omega^2`-scaled
    /// query row (inactive segments of the query row are zero and
    /// contribute nothing).
    #[inline]
    pub fn ip(&self, id: ObjectId) -> f32 {
        self.bump(self.active.len() as u64);
        kernels::ip_prescaled_segments(self.rows.row(id), &self.qrow)
    }

    /// [`FusedRows::warm`] for the row [`Self::ip`] / [`Self::ip_pruned`]
    /// is about to be called on.
    #[inline]
    pub fn warm(&self, id: ObjectId) {
        self.rows.warm(id);
    }

    /// Incremental joint similarity with safe early termination (Lemma 4):
    /// starts from the norm term
    /// `sum_k 0.5 omega_k^2 (||q_k||^2 + ||o_k||^2)` (query half
    /// precomputed, candidate half from the stored segment norms) and
    /// walks the active raw segments, shrinking the bound by
    /// `0.5 omega_k^2 ||q_k - o_k||^2` per segment.  Returns
    /// [`PartialIpVerdict::Pruned`] as soon as the bound falls to
    /// `threshold` with segments still unscanned; the exact similarity
    /// otherwise.
    pub fn ip_pruned(&self, id: ObjectId, threshold: f32) -> PartialIpVerdict {
        let row = self.rows.row(id);
        let mut bound = self.q_half_norm;
        for seg in &self.active {
            bound += seg.half_wsq * self.rows.seg_norm(id, seg.k);
        }
        let last = self.active.len().saturating_sub(1);
        for (scanned, seg) in self.active.iter().enumerate() {
            bound -= seg.half_wsq
                * kernels::l2_sq(&row[seg.start..seg.end], &self.qraw[seg.start..seg.end]);
            self.bump(1);
            if bound <= threshold && scanned < last {
                return PartialIpVerdict::Pruned;
            }
        }
        PartialIpVerdict::Exact(bound)
    }

    /// Whether `other` walks the same engine's active segments under the
    /// same weights — the condition for [`Self::ip_pruned4`] to run the
    /// two in one block.
    #[must_use]
    pub fn same_layout(&self, other: &Self) -> bool {
        std::ptr::eq(self.rows, other.rows) && self.active == other.active
    }

    /// [`Self::ip_pruned`] of row `id` for four queries of one layout
    /// ([`Self::same_layout`]) in one pass over the row: each segment is
    /// one [`kernels::l2_sq4`] call, bit-identical to the four `l2_sq`
    /// calls.  Per query the bound arithmetic, its order, the prune test
    /// and the kernel count are `ip_pruned`'s, so verdict `j` equals
    /// `quad[j].ip_pruned(id, thresholds[j])` bit for bit.  A pruned
    /// query's later distances are computed and discarded (the live ones
    /// need the pass anyway); the row is left once all four are pruned.
    pub fn ip_pruned4(quad: &[Self; 4], id: ObjectId, thresholds: [f32; 4]) -> [PartialIpVerdict; 4] {
        let lead = &quad[0];
        debug_assert!(quad.iter().all(|e| lead.same_layout(e)));
        let row = lead.rows.row(id);
        let mut bounds = quad.each_ref().map(|e| e.q_half_norm);
        for seg in &lead.active {
            let norm = lead.rows.seg_norm(id, seg.k);
            for bound in &mut bounds {
                *bound += seg.half_wsq * norm;
            }
        }
        let last = lead.active.len().saturating_sub(1);
        let mut live = [true; 4];
        for (scanned, seg) in lead.active.iter().enumerate() {
            let span = seg.start..seg.end;
            let dists = kernels::l2_sq4(&row[span.clone()], quad.each_ref().map(|e| &e.qraw[span.clone()]));
            for j in 0..4 {
                if live[j] {
                    bounds[j] -= seg.half_wsq * dists[j];
                    quad[j].bump(1);
                    if bounds[j] <= thresholds[j] && scanned < last {
                        live[j] = false;
                    }
                }
            }
            if live == [false; 4] {
                break;
            }
        }
        std::array::from_fn(|j| {
            if live[j] {
                PartialIpVerdict::Exact(bounds[j])
            } else {
                PartialIpVerdict::Pruned
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FusedRows, VectorSetBuilder};

    fn sets() -> Vec<VectorSet> {
        let mut m0 = VectorSetBuilder::new(5, 3);
        m0.push_normalized(&[1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        m0.push_normalized(&[0.0, 1.0, 0.0, 0.0, 1.0]).unwrap();
        m0.push_normalized(&[0.2, 0.4, 0.1, 0.7, 0.3]).unwrap();
        let mut m1 = VectorSetBuilder::new(3, 3);
        m1.push_normalized(&[1.0, 0.0, 0.0]).unwrap();
        m1.push_normalized(&[0.0, 1.0, 1.0]).unwrap();
        m1.push_normalized(&[0.5, 0.5, 0.5]).unwrap();
        vec![m0.finish(), m1.finish()]
    }

    #[test]
    fn layout_pads_segments_to_lane_multiples() {
        let rows = FusedRows::new(sets()).unwrap();
        assert_eq!(rows.dims(), &[5, 3]);
        assert_eq!(rows.segment_bounds(0), (0, 8));
        assert_eq!(rows.segment_bounds(1), (8, 16));
        assert_eq!(rows.stride(), 16);
        assert_eq!(rows.len(), 3);
        // Padding lanes are zero.
        for id in 0..3 {
            let row = rows.row(id);
            assert!(row[5..8].iter().all(|&x| x == 0.0));
            assert!(row[8 + 3..16].iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn modality_slices_match_source_sets() {
        let src = sets();
        let rows = FusedRows::new(src.clone()).unwrap();
        for id in 0..3u32 {
            assert_eq!(rows.modality_slice(id, 0), src[0].get(id));
            assert_eq!(rows.modality_slice(id, 1), src[1].get(id));
        }
    }

    #[test]
    fn segment_norms_are_one_for_normalized_rows() {
        let rows = FusedRows::new(sets()).unwrap();
        assert_eq!(rows.seg_norms().len(), 3 * 2);
        for id in 0..3u32 {
            for k in 0..2 {
                assert!((rows.seg_norm(id, k) - 1.0).abs() < 1e-5, "id {id} k {k}");
            }
        }
    }

    #[test]
    fn weighted_pair_ip_matches_lemma1() {
        let src = sets();
        let w = Weights::new(vec![0.8, 0.33]).unwrap();
        let rows = FusedRows::new(src.clone()).unwrap();
        for (a, b) in [(0u32, 1u32), (1, 2), (0, 2)] {
            let want = w.sq(0) * kernels::ip(src[0].get(a), src[0].get(b))
                + w.sq(1) * kernels::ip(src[1].get(a), src[1].get(b));
            assert!((rows.weighted_pair_ip(a, b, w.squared()) - want).abs() < 1e-5);
        }
    }

    #[test]
    fn raw_parts_round_trip_rezeroes_padding() {
        let rows = FusedRows::new(sets()).unwrap();
        let mut data = rows.raw_data().to_vec();
        data[6] = 99.0; // corrupt a padding lane
        let back = FusedRows::from_raw_parts(vec![5, 3], data).unwrap();
        assert_eq!(&back, &rows, "padding must be re-zeroed on load");
    }

    #[test]
    fn raw_parts_with_norms_validates_norm_count() {
        let rows = FusedRows::new(sets()).unwrap();
        let back = FusedRows::from_raw_parts_with_norms(
            vec![5, 3],
            rows.raw_data().to_vec(),
            rows.seg_norms().to_vec(),
        )
        .unwrap();
        assert_eq!(&back, &rows);
        assert!(matches!(
            FusedRows::from_raw_parts_with_norms(
                vec![5, 3],
                rows.raw_data().to_vec(),
                vec![1.0; 5],
            ),
            Err(VectorError::CardinalityMismatch { expected: 6, got: 5 })
        ));
    }

    #[test]
    fn query_evaluator_exact_matches_weighted_sum() {
        let src = sets();
        let w = Weights::new(vec![0.9, 0.4]).unwrap();
        let engine = FusedRows::new(src.clone()).unwrap();
        let q = MultiQuery::full(vec![src[0].get(1).to_vec(), src[1].get(2).to_vec()]);
        let ev = engine.query(&q, &w).unwrap();
        for id in 0..3u32 {
            let want = w.sq(0) * kernels::ip(src[0].get(id), src[0].get(1))
                + w.sq(1) * kernels::ip(src[1].get(id), src[1].get(2));
            assert!((ev.ip(id) - want).abs() < 1e-5);
        }
        assert!((ev.w_total() - (w.sq(0) + w.sq(1))).abs() < 1e-6);
    }

    #[test]
    fn same_engine_serves_different_weights_per_query() {
        // The whole point of unscaled storage: two evaluators with
        // different weights over one engine, each matching its own
        // reference weighted sum.
        let src = sets();
        let engine = FusedRows::new(src.clone()).unwrap();
        let q = MultiQuery::full(vec![src[0].get(0).to_vec(), src[1].get(1).to_vec()]);
        for w in [
            Weights::uniform(2),
            Weights::from_squared(vec![0.9, 0.1]).unwrap(),
            Weights::from_squared(vec![0.2, 0.8]).unwrap(),
        ] {
            let ev = engine.query(&q, &w).unwrap();
            for id in 0..3u32 {
                let want = w.sq(0) * kernels::ip(src[0].get(id), src[0].get(0))
                    + w.sq(1) * kernels::ip(src[1].get(id), src[1].get(1));
                assert!((ev.ip(id) - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn pruned_walk_is_sound_and_exact() {
        let src = sets();
        let w = Weights::new(vec![0.7, 0.6]).unwrap();
        let engine = FusedRows::new(src.clone()).unwrap();
        let q = MultiQuery::full(vec![src[0].get(0).to_vec(), src[1].get(1).to_vec()]);
        let ev = engine.query(&q, &w).unwrap();
        for id in 0..3u32 {
            let exact = ev.ip(id);
            match ev.ip_pruned(id, f32::NEG_INFINITY) {
                PartialIpVerdict::Exact(v) => assert!((v - exact).abs() < 1e-5),
                PartialIpVerdict::Pruned => panic!("must not prune at -inf"),
            }
            for threshold in [-0.5f32, 0.0, 0.3, 0.9] {
                if let PartialIpVerdict::Pruned = ev.ip_pruned(id, threshold) {
                    assert!(exact <= threshold + 1e-5);
                }
            }
        }
    }

    #[test]
    fn partial_query_zeroes_missing_segments() {
        let src = sets();
        let engine = FusedRows::new(src.clone()).unwrap();
        let q = MultiQuery::partial(vec![Some(src[0].get(0).to_vec()), None]);
        let ev = engine.query(&q, &Weights::uniform(2)).unwrap();
        assert!((ev.w_total() - 0.5).abs() < 1e-6);
        let want = 0.5 * kernels::ip(src[0].get(0), src[0].get(0));
        assert!((ev.ip(0) - want).abs() < 1e-6);
    }

    #[test]
    fn zero_weight_modalities_are_inactive() {
        let src = sets();
        let engine = FusedRows::new(src.clone()).unwrap();
        let q = MultiQuery::full(vec![src[0].get(0).to_vec(), src[1].get(1).to_vec()]);
        let w = Weights::new(vec![0.8, 0.0]).unwrap();
        let ev = engine.query(&q, &w).unwrap();
        assert!((ev.w_total() - w.sq(0)).abs() < 1e-6);
        for id in 0..3u32 {
            let want = w.sq(0) * kernels::ip(src[0].get(id), src[0].get(0));
            assert!((ev.ip(id) - want).abs() < 1e-5);
        }
        // One active modality means one kernel per pruned evaluation.
        let before = ev.kernel_evals();
        let _ = ev.ip_pruned(0, f32::NEG_INFINITY);
        assert_eq!(ev.kernel_evals() - before, 1);
    }

    fn set3() -> FusedRows {
        // Three objects, two modalities.
        let mut m0 = VectorSetBuilder::new(4, 3);
        m0.push_normalized(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        m0.push_normalized(&[0.6, 0.8, 0.0, 0.0]).unwrap();
        m0.push_normalized(&[0.0, 0.0, 1.0, 0.0]).unwrap();
        let mut m1 = VectorSetBuilder::new(3, 3);
        m1.push_normalized(&[1.0, 0.0, 0.0]).unwrap();
        m1.push_normalized(&[0.0, 1.0, 0.0]).unwrap();
        m1.push_normalized(&[0.5, 0.5, 0.5]).unwrap();
        FusedRows::new(vec![m0.finish(), m1.finish()]).unwrap()
    }

    #[test]
    fn pruning_saves_kernel_evaluations() {
        let set = set3();
        let q = MultiQuery::full(vec![vec![0.0, 0.0, 0.0, 1.0], vec![0.0, 0.0, 1.0]]);
        let ev = set.query(&q, &Weights::uniform(2)).unwrap();
        // With a very high threshold everything prunes after modality 0.
        for id in 0..3u32 {
            assert_eq!(ev.ip_pruned(id, 10.0), PartialIpVerdict::Pruned);
        }
        assert_eq!(ev.kernel_evals(), 3, "each pruned candidate costs one kernel");
    }

    #[test]
    fn query_with_wrong_dim_is_rejected() {
        let set = set3();
        let q = MultiQuery::full(vec![vec![1.0, 0.0], vec![1.0, 0.0, 0.0]]);
        assert!(matches!(
            set.query(&q, &Weights::uniform(2)),
            Err(VectorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn push_row_stores_raw_values_and_norms() {
        let src = sets();
        let mut engine = FusedRows::new(src.clone()).unwrap();
        let id = engine
            .push_row(&[vec![0.0, 0.0, 0.0, 0.0, 1.0], vec![0.6, 0.8, 0.0]])
            .unwrap();
        assert_eq!(id, 3);
        assert_eq!(engine.len(), 4);
        assert!((engine.modality_slice(3, 0)[4] - 1.0).abs() < 1e-6);
        assert!((engine.modality_slice(3, 1)[0] - 0.6).abs() < 1e-6);
        assert!((engine.seg_norm(3, 0) - 1.0).abs() < 1e-6);
        assert!((engine.seg_norm(3, 1) - 1.0).abs() < 1e-6);
        // Errors leave the engine untouched.
        assert!(engine.push_row(&[vec![1.0; 5]]).is_err());
        assert!(engine.push_row(&[vec![1.0; 4], vec![1.0; 3]]).is_err());
        assert_eq!(engine.len(), 4);
        assert_eq!(engine.seg_norms().len(), 4 * 2);
    }

    #[test]
    fn centroid_row_is_mean_of_rows() {
        let rows = FusedRows::new(sets()).unwrap();
        let c = rows.centroid_row();
        let mut want = vec![0.0f32; rows.stride()];
        for id in 0..3u32 {
            for (w, x) in want.iter_mut().zip(rows.row(id)) {
                *w += x / 3.0;
            }
        }
        for (a, b) in c.iter().zip(&want) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn multi_vector_set_view_exposes_the_engine() {
        // The benchmark's compatibility names are identities on the engine.
        let rows = FusedRows::new(sets()).unwrap();
        assert!(std::ptr::eq(rows.fused(), &rows));
        let set: MultiVectorSet = FusedRows::from_fused(rows.clone());
        assert_eq!(set, rows);
    }
}
