//! SQ8 scalar-quantized companion to the fused-row storage engine.
//!
//! A [`QuantizedRows`] engine mirrors a [`FusedRows`] engine row for row:
//! the same stride-aligned segment layout, but each component stored as a
//! `u8` code under a **per-row per-segment** affine map
//! `value = min + step * code` (`step = (max - min) / 255`, the classic
//! scalar-quantization recipe).  That cuts the per-object row storage 4x
//! — the difference between a 16 M-object deployment fitting in RAM or
//! not — at the price of a bounded reconstruction error of at most half a
//! quantization step per component.
//!
//! **Codes are weight-free.**  Lemma 1 puts every `omega_k^2` on the
//! *query* side of each per-modality inner product, and the f32 engine
//! already exploits that by never scaling stored rows.  The quantized
//! engine inherits the property wholesale: codes encode the raw
//! (unscaled, unit-norm) vectors, and [`QuantizedRows::query`] applies
//! `omega_k^2` per segment at evaluation time — so one set of codes
//! serves every weight configuration, exactly like the f32 rows.
//!
//! **One pass, one verdict.**  The scan scores every active segment of a
//! candidate with one dot product over its raw codes ([`kernels::ip_u8`])
//! and never decodes; there is no Lemma-4 prefix walk on codes.
//! [`QuantizedQueryEvaluator::ip_pruned`] prunes a row only when its
//! approximate similarity plus a certified *margin* clears nothing:
//!
//! ```text
//! dot_k  = min_rk * sum(q_k) + step_rk * <q_k, c>   (<q_k, o_hat_k>, rounded)
//! approx = sum_k omega_k^2 * dot_k                   (= ip(id), bit for bit)
//! margin = sum_k a_k * eps_rk + b_k * (|min_rk| + 255 step_rk)
//! Pruned  iff  approx + margin <= threshold
//! ```
//!
//! The per-query coefficients, rounded up to f32, are
//! `a_k = omega_k^2 ||q_k|| (1 + r)` and
//! `b_k = omega_k^2 ||q_k||_1 (c_k + r) (1 + r)`, with
//! `c_k = (d_k/8 + 8) EPSILON` (`d_k` the padded width) and
//! `r = (m + 4) EPSILON` (`m` modalities, at least the active segments
//! the sums run over).  Cauchy–Schwarz with the
//! per-row-segment radius `eps_rk >= ||o_k - o_hat_k||` (stored at encode
//! time) bounds what quantization moved,
//! `|<q_k, o_k> - <q_k, o_hat_k>| <= ||q_k|| eps_rk`; `c_k` bounds the
//! rounding of `dot_k`; `r` every other f32 rounding (approx's sum, the
//! margin's own arithmetic, the final add).  So `Pruned` implies the exact
//! similarity `sum_k omega_k^2 <q_k, o_k>` is `<= threshold`.  And since
//! the margin is non-negative, `Pruned` implies `approx <= threshold`: the
//! walk's approx-ranked pool would have refused the row anyway, so pruning
//! changes what the walk counts, never what it returns.  Survivors come
//! back with the decoded similarity, which is why the serving layer
//! re-ranks the top pool on the retained f32 rows.
//!
//! **The rounding of `dot_k`.**  Let `u = EPSILON / 2`, `d` the padded
//! width and `B = ||q_k||_1 (|min| + 255 step)`, which dominates
//! `|min| sum|q_i|`, `step sum|q_i| c_i` and `|<q_k, o_hat_k>|`.  Each
//! product in `ip_u8` meets at most `n = d/8 + 3` roundings (a multiply,
//! `d/8 - 1` lane adds, three reduction adds) and the affine map two more
//! (`sum(q_k)` is accumulated in f64 and rounded once), so
//! `|dot_k - <q_k, o_hat_k>| <= gamma_{n+2} B ~ (d/8 + 5) u B`, inside
//! `c_k B = (d/4 + 16) u B`.  DESIGN.md §11 has the whole argument.
//!
//! **Row blocks.**  Everything the scan reads of a candidate sits in one
//! record of `stride + 12 m` bytes at `id * (stride + 12 m)` of a single
//! `Vec<u8>`: the row's `stride` codes, then per modality `min`, `step`,
//! `eps` as little-endian `f32`, read with `f32::from_le_bytes` (no
//! alignment is assumed or arranged).  The walk visits candidates in graph
//! order, so each one is a cache miss, and what it costs is the number of
//! *places* touched: one 120-byte record (dims `[64, 32]`) sits on two or
//! three consecutive lines, which [`QuantizedQueryEvaluator::warm`] puts in
//! flight together.  `eps` stays stored although `eps_for(step, d)` could
//! recompute it: a bundle carries `eps`, and
//! [`QuantizedRows::from_parts`] refuses any triple the encoder cannot
//! have written (non-finite, `step < 0`, `eps < eps_for(step, d)`), so a
//! corrupt bundle cannot shrink the margin.  Bundles keep their sectioned
//! layout ([`QuantizedRows::from_parts`] interleaves on load,
//! [`QuantizedRows::row_codes`] / [`QuantizedRows::seg_params`] take a
//! block apart on save).

use crate::fused::{FusedRows, PartialIpVerdict, CACHE_LINE};
use crate::multi::MultiQuery;
use crate::{kernels, Layout, ObjectId, VectorError, Weights};

/// Per-(row, segment) affine dequantization parameters plus the certified
/// reconstruction radius the scan's margin is built on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegParams {
    /// Segment minimum: the decoded value of code 0.
    pub min: f32,
    /// Quantization step: `(max - min) / 255`; `0.0` for constant
    /// segments, which therefore decode exactly.
    pub step: f32,
    /// Certified reconstruction radius: `||o_k - o_hat_k|| <= eps`, with a
    /// float-rounding safety margin baked in.
    pub eps: f32,
}

/// Bytes of per-modality constants behind a block's codes: `min`, `step`,
/// `eps`, each a little-endian `f32`.
const TAIL: usize = 12;

impl SegParams {
    /// Reads the `TAIL` bytes at `at` in `block`.
    #[inline]
    fn read(block: &[u8], at: usize) -> Self {
        let t: &[u8; TAIL] = block[at..at + TAIL].try_into().expect("TAIL bytes sliced");
        let f = |i: usize| f32::from_le_bytes([t[i], t[i + 1], t[i + 2], t[i + 3]]);
        Self { min: f(0), step: f(4), eps: f(8) }
    }

    /// Writes the `TAIL` bytes at `at` in `block`.
    fn write(self, block: &mut [u8], at: usize) {
        let words = [self.min, self.step, self.eps];
        for (out, w) in block[at..at + TAIL].chunks_exact_mut(4).zip(words) {
            out.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Whether the encoder can have written these parameters for a
    /// segment of `d` real components: every field finite, `step >= 0`,
    /// and a radius no smaller than [`eps_for`] gives.
    fn encodable(self, d: usize) -> bool {
        [self.min, self.step, self.eps].iter().all(|x| x.is_finite())
            && self.step >= 0.0
            && self.eps >= eps_for(self.step, d)
    }
}

/// Encodes one f32 segment of `d` real components into `u8` codes,
/// returning the affine parameters (with the certified radius).  `out`
/// receives exactly `d` codes.
fn encode_segment(values: &[f32], out: &mut [u8]) -> SegParams {
    debug_assert_eq!(values.len(), out.len());
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if values.is_empty() || !(lo.is_finite() && hi.is_finite()) {
        // Degenerate input: encode as constant zero.  (Non-finite values
        // cannot occur through the normalised public entry points.)
        out.fill(0);
        return SegParams { min: 0.0, step: 0.0, eps: eps_for(0.0, values.len()) };
    }
    let step = (hi - lo) / 255.0;
    if step <= 0.0 {
        // Constant segment: every value equals `lo`, decoded exactly.
        out.fill(0);
        return SegParams { min: lo, step: 0.0, eps: eps_for(0.0, values.len()) };
    }
    let inv = 1.0 / step;
    for (o, &v) in out.iter_mut().zip(values) {
        let code = ((v - lo) * inv).round();
        *o = code.clamp(0.0, 255.0) as u8;
    }
    SegParams { min: lo, step, eps: eps_for(step, values.len()) }
}

/// The certified per-segment reconstruction radius: half a step per
/// component, `sqrt(d)` components worst case, widened by a relative and
/// an absolute float-rounding margin for the encoder's own rounding.
fn eps_for(step: f32, d: usize) -> f32 {
    0.5 * step * (d as f32).sqrt() * (1.0 + 1e-4) + 1e-6
}

/// `x` rounded up to the next f32: never below the f64 value.
fn round_up(x: f64) -> f32 {
    let y = x as f32;
    if f64::from(y) < x {
        y.next_up()
    } else {
        y
    }
}

/// SQ8 scalar-quantized row storage mirroring a [`FusedRows`] layout:
/// the same [`Layout`] (dims, [`crate::FUSED_LANE`]-aligned stride), one
/// `u8` code per component (padding positions zero and never scored) and one
/// [`SegParams`] per (row, modality) — all of a row in one block (module
/// docs, "Row blocks").
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRows {
    layout: Layout,
    /// One block of `stride + TAIL * m` bytes per row: its codes, then
    /// modality by modality the [`SegParams`].
    blocks: Vec<u8>,
}

impl QuantizedRows {
    /// Quantizes every row of an f32 engine.  The segment layout carries
    /// over unchanged.
    #[must_use]
    pub fn from_fused(rows: &FusedRows) -> Self {
        let mut q = Self { layout: rows.layout().clone(), blocks: Vec::new() };
        q.blocks = vec![0u8; rows.len() * q.block_len()];
        for id in 0..rows.len() as ObjectId {
            for k in 0..q.layout.num_modalities() {
                q.encode(id, k, rows.modality_slice(id, k));
            }
        }
        q
    }

    /// Encodes `values` as modality `k` of the (already allocated, zeroed)
    /// block `id`: codes, then the segment's parameters.
    fn encode(&mut self, id: ObjectId, k: usize, values: &[f32]) {
        let start = self.layout.segment_bounds(k).0;
        let (codes, tail) = (start..start + self.layout.dims()[k], self.tail_at(k));
        let at = id as usize * self.block_len();
        let block = &mut self.blocks[at..];
        encode_segment(values, &mut block[codes]).write(block, tail);
    }

    /// Reassembles a quantized engine from persisted parts (the bundle-v7
    /// load path), interleaving them into row blocks: `codes` row-major,
    /// `stride` bytes a row; `params` one entry per (row, modality),
    /// row-major.
    ///
    /// # Errors
    /// [`VectorError::DimensionMismatch`] for empty/zero dims or a code
    /// buffer that is not a whole number of rows;
    /// [`VectorError::CardinalityMismatch`] when `params` does not hold
    /// exactly one entry per (row, modality) pair;
    /// [`VectorError::InvalidSegParams`] for a triple the encoder cannot
    /// have written — a non-finite field, `step < 0`, or a radius below
    /// the one it certifies for the segment's width.
    pub fn from_parts(
        dims: Vec<usize>,
        codes: &[u8],
        params: &[SegParams],
    ) -> Result<Self, VectorError> {
        let mut q = Self { layout: Layout::new(dims)?, blocks: Vec::new() };
        let (m, stride) = (q.layout.num_modalities(), q.layout.stride());
        if !codes.len().is_multiple_of(stride) {
            return Err(VectorError::DimensionMismatch {
                expected: stride,
                got: codes.len() % stride,
            });
        }
        let len = codes.len() / stride;
        if params.len() != len * m {
            return Err(VectorError::CardinalityMismatch { expected: len * m, got: params.len() });
        }
        let dims = q.layout.dims();
        if let Some(i) = (0..params.len()).find(|&i| !params[i].encodable(dims[i % m])) {
            return Err(VectorError::InvalidSegParams { row: i / m, modality: i % m });
        }
        let mut blocks = vec![0u8; len * q.block_len()];
        let rows = blocks.chunks_exact_mut(q.block_len()).zip(codes.chunks_exact(stride));
        for (id, (block, row)) in rows.enumerate() {
            block[..stride].copy_from_slice(row);
            for k in 0..m {
                params[id * m + k].write(block, q.tail_at(k));
            }
        }
        q.blocks = blocks;
        Ok(q)
    }

    /// The row layout, the f32 engine's (see [`FusedRows::layout`]); its
    /// stride counts code bytes here.
    #[inline]
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Bytes of one row block: the codes, then `TAIL` bytes a modality.
    #[inline]
    fn block_len(&self) -> usize {
        self.layout.stride() + TAIL * self.layout.num_modalities()
    }

    /// Offset of modality `k`'s parameters within a block.
    #[inline]
    fn tail_at(&self, k: usize) -> usize {
        self.layout.stride() + TAIL * k
    }

    /// Row `id`'s block.
    #[inline]
    fn block(&self, id: ObjectId) -> &[u8] {
        let len = self.block_len();
        &self.blocks[id as usize * len..][..len]
    }

    /// Number of rows (objects).
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len() / self.block_len()
    }

    /// Whether the engine holds no rows.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The `stride` codes of row `id`, padding positions included — one
    /// row of a bundle's code section.
    #[inline]
    #[must_use]
    pub fn row_codes(&self, id: ObjectId) -> &[u8] {
        &self.block(id)[..self.layout.stride()]
    }

    /// The affine parameters of modality `k` in row `id`.
    #[inline]
    #[must_use]
    pub fn seg_params(&self, id: ObjectId, k: usize) -> SegParams {
        SegParams::read(self.block(id), self.tail_at(k))
    }

    /// The `u8` codes of modality `k`'s real components in row `id`
    /// (length `dims[k]`; padding positions excluded).
    #[inline]
    #[must_use]
    pub fn modality_codes(&self, id: ObjectId, k: usize) -> &[u8] {
        let start = self.layout.segment_bounds(k).0;
        &self.block(id)[start..start + self.layout.dims()[k]]
    }

    /// Decodes modality `k` of row `id` back to f32 (test/diagnostic
    /// path; the hot path scores codes directly).
    #[must_use]
    pub fn decode_modality(&self, id: ObjectId, k: usize) -> Vec<f32> {
        let p = self.seg_params(id, k);
        self.modality_codes(id, k)
            .iter()
            .map(|&c| p.min + p.step * f32::from(c))
            .collect()
    }

    /// Appends one object from its per-modality (already normalised)
    /// vectors, quantizing each segment into a new block.
    ///
    /// # Errors
    /// [`Layout::check_row`]'s; the engine is untouched on error.
    pub fn push_row<S: AsRef<[f32]>>(&mut self, rows: &[S]) -> Result<ObjectId, VectorError> {
        self.layout.check_row(rows)?;
        let id = self.len() as ObjectId;
        self.blocks.resize(self.blocks.len() + self.block_len(), 0);
        for (k, r) in rows.iter().enumerate() {
            self.encode(id, k, r.as_ref());
        }
        Ok(id)
    }

    /// Heap footprint in bytes: per row its codes and affine parameters —
    /// the blocks.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.blocks.len()
    }

    /// Prepares a per-query evaluator under `weights`, mirroring
    /// [`FusedRows::query`]: weights scale the query side only, codes
    /// stay weight-free, and every query may carry its own weights.
    ///
    /// # Errors
    /// As [`FusedRows::query`]: [`Layout::check_request`]'s.
    pub fn query(
        &self,
        query: &MultiQuery,
        weights: &Weights,
    ) -> Result<QuantizedQueryEvaluator<'_>, VectorError> {
        QuantizedQueryEvaluator::new(self, query, weights)
    }
}

/// One active (supplied, positive-weight) modality of a quantized query,
/// with its per-query terms (module docs).
#[derive(Debug, Clone, Copy)]
struct ActiveSegment {
    /// Padded segment bounds within a row (the query's padding is zero).
    start: usize,
    end: usize,
    /// Offset of the modality's [`SegParams`] within a row block.
    tail: usize,
    /// `omega_k^2`.
    wsq: f32,
    /// `sum(q_k)`.
    sum: f32,
    /// `a_k`: margin per unit of `eps_rk`.
    eps_coef: f32,
    /// `b_k`: margin per unit of `|min_rk| + 255 step_rk`.
    code_coef: f32,
}

/// Per-query evaluator over a [`QuantizedRows`] engine: the approximate
/// (decoded) joint similarity for pool ranking, and a prune verdict that
/// certifies the exact f32 similarity — see the module docs.
#[derive(Debug)]
pub struct QuantizedQueryEvaluator<'a> {
    /// The engine's row blocks and their length, bound once per query.
    blocks: &'a [u8],
    block_len: usize,
    /// The raw (unscaled) query laid out in fused-row geometry; the
    /// per-segment `omega_k^2` lives in `active`, matching the f32
    /// evaluator's query-side weighting.
    qraw: Vec<f32>,
    /// Active modalities in modality order.
    active: Vec<ActiveSegment>,
    /// `sum of active omega_k^2`.
    w_total: f32,
    kernel_evals: std::cell::Cell<u64>,
}

impl<'a> QuantizedQueryEvaluator<'a> {
    fn new(
        rows: &'a QuantizedRows,
        query: &MultiQuery,
        weights: &Weights,
    ) -> Result<Self, VectorError> {
        rows.layout.check_request(query, weights)?;
        let m = rows.layout.num_modalities();
        let mut qraw = vec![0.0f32; rows.layout.stride()];
        let mut active = Vec::with_capacity(m);
        let mut w_total = 0.0;
        // `r` for up to `m` active segments: more is never unsound.
        let eps = f64::from(f32::EPSILON);
        let r = (m + 4) as f64 * eps;
        for k in 0..m {
            let Some(slot) = query.slot(k) else { continue };
            let wsq = weights.sq(k);
            if wsq <= 0.0 {
                continue;
            }
            let (start, end) = rows.layout.segment_bounds(k);
            qraw[start..start + slot.len()].copy_from_slice(slot);
            // f64 accumulation, one rounding for `sum`; the norms go into
            // the margin coefficients, rounded up (module docs).
            let (mut sum, mut norm_sq, mut l1) = (0.0f64, 0.0f64, 0.0f64);
            for &x in slot {
                let x = f64::from(x);
                sum += x;
                norm_sq += x * x;
                l1 += x.abs();
            }
            let c = ((end - start) / 8 + 8) as f64 * eps;
            let w = f64::from(wsq) * (1.0 + r);
            active.push(ActiveSegment {
                start,
                end,
                tail: rows.tail_at(k),
                wsq,
                sum: sum as f32,
                eps_coef: round_up(w * norm_sq.sqrt()),
                code_coef: round_up(w * l1 * (c + r)),
            });
            w_total += wsq;
        }
        Ok(Self {
            blocks: &rows.blocks,
            block_len: rows.block_len(),
            qraw,
            active,
            w_total,
            kernel_evals: std::cell::Cell::new(0),
        })
    }

    /// Number of modality kernels evaluated so far.
    #[inline]
    pub fn kernel_evals(&self) -> u64 {
        self.kernel_evals.get()
    }

    /// Sum of active squared weights.
    #[inline]
    pub fn w_total(&self) -> f32 {
        self.w_total
    }

    /// Row `id`'s block.
    #[inline]
    fn block(&self, id: ObjectId) -> &'a [u8] {
        &self.blocks[id as usize * self.block_len..][..self.block_len]
    }

    /// `<q_k, o_hat_k> = min * sum(q_k) + step * <q_k, c>` over the codes
    /// of `block`.
    #[inline]
    fn seg_dot(&self, seg: &ActiveSegment, block: &[u8], p: SegParams) -> f32 {
        let codes = &block[seg.start..seg.end];
        p.min * seg.sum + p.step * kernels::ip_u8(&self.qraw[seg.start..seg.end], codes)
    }

    /// `(approx, margin)` of row `id`, one pass over its block: the
    /// decoded joint similarity and the bound on its distance from the
    /// exact one (module docs).
    #[inline]
    fn scan(&self, id: ObjectId) -> (f32, f32) {
        self.kernel_evals.set(self.kernel_evals.get() + self.active.len() as u64);
        let block = self.block(id);
        let (mut approx, mut margin) = (0.0, 0.0);
        for seg in &self.active {
            let p = SegParams::read(block, seg.tail);
            approx += seg.wsq * self.seg_dot(seg, block, p);
            margin += seg.eps_coef * p.eps + seg.code_coef * (p.min.abs() + 255.0 * p.step);
        }
        (approx, margin)
    }

    /// Approximate joint similarity of object `id` to the query:
    /// `sum_k omega_k^2 * <q_k, o_hat_k>` over the decoded codes.  Used
    /// for pool ranking; exact answers come from re-ranking on the f32
    /// rows.
    pub fn ip(&self, id: ObjectId) -> f32 {
        self.scan(id).0
    }

    /// Pulls row `id`'s block towards the cache ahead of [`Self::ip`] /
    /// [`Self::ip_pruned`]: one byte per cache line's worth and the last
    /// byte (a block need not start on a line) — the SQ8 twin of
    /// [`crate::FusedQueryEvaluator::warm`].
    #[inline]
    pub fn warm(&self, id: ObjectId) {
        let block = self.block(id);
        let mut acc = 0u32;
        for &b in block.iter().step_by(CACHE_LINE).chain(block.last()) {
            acc += u32::from(b);
        }
        std::hint::black_box(acc);
    }

    /// [`Self::ip`] with a verdict: [`PartialIpVerdict::Pruned`] iff
    /// `approx + margin <= threshold`, which certifies that the exact f32
    /// similarity is `<= threshold` too; otherwise the approximate
    /// similarity, bit for bit [`Self::ip`]'s.  Every active segment is
    /// scanned either way.
    pub fn ip_pruned(&self, id: ObjectId, threshold: f32) -> PartialIpVerdict {
        let (approx, margin) = self.scan(id);
        if approx + margin <= threshold {
            PartialIpVerdict::Pruned
        } else {
            PartialIpVerdict::Exact(approx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MultiVectorSet, VectorSetBuilder};

    fn engine() -> FusedRows {
        let mut m0 = VectorSetBuilder::new(5, 4);
        m0.push_normalized(&[1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        m0.push_normalized(&[0.0, 1.0, 0.0, 0.0, 1.0]).unwrap();
        m0.push_normalized(&[0.2, 0.4, 0.1, 0.7, 0.3]).unwrap();
        m0.push_normalized(&[-0.5, 0.1, 0.6, -0.2, 0.4]).unwrap();
        let mut m1 = VectorSetBuilder::new(3, 4);
        m1.push_normalized(&[1.0, 0.0, 0.0]).unwrap();
        m1.push_normalized(&[0.0, 1.0, 1.0]).unwrap();
        m1.push_normalized(&[0.5, 0.5, 0.5]).unwrap();
        m1.push_normalized(&[0.3, -0.8, 0.5]).unwrap();
        FusedRows::from_sets(&[m0.finish(), m1.finish()]).unwrap()
    }

    /// What a bundle saves of `q`: the code section and the quantization
    /// parameters, each row-major.
    fn saved_sections(q: &QuantizedRows) -> (Vec<u8>, Vec<SegParams>) {
        let ids = || 0..q.len() as ObjectId;
        (
            ids().flat_map(|id| q.row_codes(id).iter().copied()).collect(),
            ids()
                .flat_map(|id| (0..q.layout().num_modalities()).map(move |k| q.seg_params(id, k)))
                .collect(),
        )
    }

    #[test]
    fn layout_mirrors_the_f32_engine() {
        let rows = engine();
        let q = QuantizedRows::from_fused(&rows);
        assert_eq!(q.layout(), rows.layout());
        assert_eq!(q.len(), rows.len());
        for id in 0..rows.len() as ObjectId {
            assert_eq!(q.row_codes(id).len(), rows.stride());
            for k in 0..rows.num_modalities() {
                let (start, end) = rows.segment_bounds(k);
                let real = start + rows.dims()[k];
                assert_eq!(&q.row_codes(id)[start..real], q.modality_codes(id, k));
                let padding = &q.row_codes(id)[real..end];
                assert!(padding.iter().all(|&c| c == 0), "padding codes stay zero");
            }
        }
    }

    #[test]
    fn decode_error_is_at_most_half_a_step() {
        let rows = engine();
        let q = QuantizedRows::from_fused(&rows);
        for id in 0..rows.len() as ObjectId {
            for k in 0..rows.num_modalities() {
                let p = q.seg_params(id, k);
                let decoded = q.decode_modality(id, k);
                for (d, &orig) in decoded.iter().zip(rows.modality_slice(id, k)) {
                    assert!(
                        (d - orig).abs() <= 0.5 * p.step + 1e-6,
                        "id {id} k {k}: |{d} - {orig}| > step/2 = {}",
                        0.5 * p.step
                    );
                }
            }
        }
    }

    #[test]
    fn constant_segments_decode_exactly() {
        // A constant (and a zero) segment: step must be 0 and decoding
        // exact.
        let mut m0 = VectorSetBuilder::new(4, 2);
        m0.push_normalized(&[0.5, 0.5, 0.5, 0.5]).unwrap();
        m0.push_normalized(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        let rows = FusedRows::from_sets(&[m0.finish()]).unwrap();
        let q = QuantizedRows::from_fused(&rows);
        let p = q.seg_params(0, 0);
        assert_eq!(p.step, 0.0);
        assert_eq!(q.decode_modality(0, 0), rows.modality_slice(0, 0));
    }

    #[test]
    fn approximate_ip_tracks_the_exact_ip() {
        let rows = engine();
        let q = QuantizedRows::from_fused(&rows);
        let w = Weights::new(vec![0.8, 0.5]).unwrap();
        let query = MultiQuery::full(vec![
            rows.modality_slice(1, 0).to_vec(),
            rows.modality_slice(2, 1).to_vec(),
        ]);
        let qe = q.query(&query, &w).unwrap();
        let fe = rows.query(&query, &w).unwrap();
        for id in 0..rows.len() as ObjectId {
            let approx = qe.ip(id);
            let exact = fe.ip(id);
            // 8-bit codes over unit-norm segments: plenty for 1e-2.
            assert!((approx - exact).abs() < 1e-2, "id {id}: {approx} vs {exact}");
        }
        assert!((qe.w_total() - fe.w_total()).abs() < 1e-6);
    }

    #[test]
    fn widened_bound_never_under_prunes() {
        let rows = engine();
        let q = QuantizedRows::from_fused(&rows);
        let w = Weights::new(vec![0.9, 0.3]).unwrap();
        let query = MultiQuery::full(vec![
            rows.modality_slice(0, 0).to_vec(),
            rows.modality_slice(3, 1).to_vec(),
        ]);
        let qe = q.query(&query, &w).unwrap();
        let fe = rows.query(&query, &w).unwrap();
        for id in 0..rows.len() as ObjectId {
            let exact = fe.ip(id);
            for threshold in [-1.0f32, -0.2, 0.0, 0.1, 0.3, 0.6, 0.9] {
                if let PartialIpVerdict::Pruned = qe.ip_pruned(id, threshold) {
                    // Quantized prune implies the exact walk would prune:
                    // in particular the exact similarity clears nothing.
                    assert!(
                        exact <= threshold + 1e-5,
                        "id {id} pruned at {threshold} but exact = {exact}"
                    );
                }
            }
            // At -inf nothing prunes and the survivor is the decoded
            // approximation.
            match qe.ip_pruned(id, f32::NEG_INFINITY) {
                PartialIpVerdict::Exact(v) => assert!((v - qe.ip(id)).abs() < 1e-6),
                PartialIpVerdict::Pruned => panic!("must not prune at -inf"),
            }
        }
    }

    /// What the margin certifies, checked against f64 truth with no
    /// tolerance: `|sum omega^2 <q, o> - approx| <= margin`, `o` the row as
    /// pushed.  Rows are spread, constant (step = 0, eps = 1e-6: rounding
    /// is nearly all the margin covers) and all-zero; queries sit at
    /// `o_hat + delta` for `||delta||` from 0 to ~1e-3 and at unrelated
    /// points, under a unit and a fractional weight.
    #[test]
    fn scan_margin_bounds_the_error_against_f64_truth() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut unit = move || rng.random::<f32>() * 2.0 - 1.0;
        for d in [1usize, 3, 8, 32, 64, 130] {
            let mut q = QuantizedRows::from_parts(vec![d], &[], &[]).unwrap();
            let mut spread: Vec<f32> = (0..d).map(|_| unit()).collect();
            let _ = kernels::normalize(&mut spread);
            let rows = [spread, vec![(d as f32).sqrt().recip(); d], vec![0.0; d]];
            for row in &rows {
                q.push_row(&[row]).unwrap();
            }
            for (id, row) in (0..).zip(&rows) {
                let p = q.seg_params(id, 0);
                let decoded: Vec<f64> = q
                    .modality_codes(id, 0)
                    .iter()
                    .map(|&c| f64::from(p.min) + f64::from(p.step) * f64::from(c))
                    .collect();
                for w in [Weights::uniform(1), Weights::from_squared(vec![0.37]).unwrap()] {
                    for scale in [0.0f32, 1e-7, 1e-5, 1e-4, 1e-3, 1.0] {
                        for _ in 0..50 {
                            let query: Vec<f32> =
                                decoded.iter().map(|&v| v as f32 + scale * unit()).collect();
                            let qe = q.query(&MultiQuery::full(vec![query.clone()]), &w).unwrap();
                            let (approx, margin) = qe.scan(id);
                            let ip: f64 =
                                query.iter().zip(row).map(|(&x, &o)| f64::from(x) * f64::from(o)).sum();
                            let err = (f64::from(w.sq(0)) * ip - f64::from(approx)).abs();
                            assert!(
                                err <= f64::from(margin),
                                "d {d} id {id} scale {scale}: error {err} > margin {margin}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn weights_scale_the_query_side_only() {
        // Same codes, two weight configurations: the decoded similarity
        // must track each configuration's exact value.
        let rows = engine();
        let q = QuantizedRows::from_fused(&rows);
        let query = MultiQuery::full(vec![
            rows.modality_slice(2, 0).to_vec(),
            rows.modality_slice(2, 1).to_vec(),
        ]);
        for w in [
            Weights::uniform(2),
            Weights::from_squared(vec![0.9, 0.1]).unwrap(),
            Weights::from_squared(vec![0.1, 0.9]).unwrap(),
        ] {
            let qe = q.query(&query, &w).unwrap();
            let fe = rows.query(&query, &w).unwrap();
            for id in 0..rows.len() as ObjectId {
                assert!((qe.ip(id) - fe.ip(id)).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn partial_queries_and_zero_weights_deactivate_segments() {
        let rows = engine();
        let q = QuantizedRows::from_fused(&rows);
        let query = MultiQuery::partial(vec![Some(rows.modality_slice(0, 0).to_vec()), None]);
        let qe = q.query(&query, &Weights::uniform(2)).unwrap();
        assert!((qe.w_total() - 0.5).abs() < 1e-6);
        let before = qe.kernel_evals();
        let _ = qe.ip_pruned(0, f32::NEG_INFINITY);
        assert_eq!(qe.kernel_evals() - before, 1, "one active segment, one kernel");
        // Zero-weight modality likewise deactivates.
        let full = MultiQuery::full(vec![
            rows.modality_slice(0, 0).to_vec(),
            rows.modality_slice(0, 1).to_vec(),
        ]);
        let qz = q.query(&full, &Weights::new(vec![0.7, 0.0]).unwrap()).unwrap();
        assert!((qz.w_total() - 0.49).abs() < 1e-5);
    }

    #[test]
    fn arity_and_dimension_mismatches_are_rejected() {
        let q = QuantizedRows::from_fused(&engine());
        let query = MultiQuery::full(vec![vec![1.0; 5], vec![1.0; 3]]);
        assert!(matches!(
            q.query(&query, &Weights::uniform(3)),
            Err(VectorError::WeightArity { .. })
        ));
        let bad = MultiQuery::full(vec![vec![1.0; 4], vec![1.0; 3]]);
        assert!(matches!(
            q.query(&bad, &Weights::uniform(2)),
            Err(VectorError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn push_row_quantizes_and_promotes_shared_codes() {
        let rows = engine();
        let owned = QuantizedRows::from_fused(&rows);
        // Rebuild from the sections a bundle carries.
        let (codes, params) = saved_sections(&owned);
        let dims = owned.layout().dims().to_vec();
        let mut q = QuantizedRows::from_parts(dims, &codes, &params).unwrap();
        assert_eq!(q, owned);
        let new0 = {
            let mut v = vec![0.1f32, -0.4, 0.2, 0.8, 0.3];
            let _ = kernels::normalize(&mut v);
            v
        };
        let new1 = {
            let mut v = vec![0.6f32, 0.0, 0.8];
            let _ = kernels::normalize(&mut v);
            v
        };
        let id = q.push_row(&[new0.clone(), new1.clone()]).unwrap();
        assert_eq!(id, 4);
        assert_eq!(q.len(), 5);
        let p = q.seg_params(4, 0);
        for (d, orig) in q.decode_modality(4, 0).iter().zip(&new0) {
            assert!((d - orig).abs() <= 0.5 * p.step + 1e-6);
        }
        // Errors leave the engine untouched.
        assert!(q.push_row(&[vec![1.0f32; 5]]).is_err());
        assert!(q.push_row(&[vec![1.0f32; 4], vec![1.0f32; 3]]).is_err());
        assert_eq!(q.len(), 5);
        // The rows that were there are untouched by the append.
        let (grown, _) = saved_sections(&q);
        assert_eq!(grown[..codes.len()], codes[..]);
    }

    #[test]
    fn from_parts_validates_shapes() {
        let q = QuantizedRows::from_fused(&engine());
        let (codes, params) = saved_sections(&q);
        let dims = || q.layout().dims().to_vec();
        assert_eq!(QuantizedRows::from_parts(dims(), &codes, &params).unwrap(), q);
        assert!(matches!(
            QuantizedRows::from_parts(vec![], &[], &[]),
            Err(VectorError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            QuantizedRows::from_parts(vec![5, 0], &[], &[]),
            Err(VectorError::DimensionMismatch { .. })
        ));
        // A code section that is not a whole number of rows, either way.
        for bad in [&codes[..codes.len() - 1], &vec![0u8; q.layout().stride() + 1][..]] {
            assert!(matches!(
                QuantizedRows::from_parts(dims(), bad, &params),
                Err(VectorError::DimensionMismatch { .. })
            ));
        }
        // One entry per (row, modality), no fewer and no more.
        let extra_param = [&params[..], &params[..1]].concat();
        for bad in [&params[..3], &extra_param[..]] {
            assert!(matches!(
                QuantizedRows::from_parts(dims(), &codes, bad),
                Err(VectorError::CardinalityMismatch { .. })
            ));
        }
    }

    #[test]
    fn from_parts_refuses_parameters_the_encoder_cannot_write() {
        let q = QuantizedRows::from_fused(&engine());
        let (codes, params) = saved_sections(&q);
        // Row 3, modality 1 is spread (step > 0), so eps = eps_for(step, 3)
        // sits well above the 1e-6 floor.
        let at = 3 * q.layout().num_modalities() + 1;
        let p = params[at];
        assert!(p.step > 0.0);
        let shrunk = f32::from_bits(p.eps.to_bits() - 1);
        let bad = [
            SegParams { eps: shrunk, ..p },
            SegParams { eps: 0.0, ..p },
            SegParams { step: -p.step, ..p },
            SegParams { min: f32::NAN, ..p },
            SegParams { step: f32::INFINITY, ..p },
            SegParams { eps: f32::NAN, ..p },
        ];
        for corrupt in bad {
            let mut edited = params.clone();
            edited[at] = corrupt;
            assert_eq!(
                QuantizedRows::from_parts(q.layout().dims().to_vec(), &codes, &edited),
                Err(VectorError::InvalidSegParams { row: 3, modality: 1 }),
                "{corrupt:?}"
            );
        }
        // A radius above the encoder's is merely conservative.
        let mut wider = params.clone();
        wider[at].eps *= 2.0;
        assert!(QuantizedRows::from_parts(q.layout().dims().to_vec(), &codes, &wider).is_ok());
    }

    /// FNV-1a (64-bit) over every `ip` bit pattern, every `ip_pruned`
    /// verdict and the final `kernel_evals` of `q`, under default and
    /// override weights, full and partial queries, thresholds at -inf,
    /// mid-range and +inf.
    fn scan_hash(q: &QuantizedRows, queries: &[MultiQuery]) -> u64 {
        const PRUNED: u32 = 0xFFFF_FFFF; // a NaN pattern no score takes
        let m = q.layout().num_modalities();
        let mut override_sq = vec![0.1f32; m];
        override_sq[0] = 0.9;
        let mut words: Vec<u64> = Vec::new();
        for w in [Weights::uniform(m), Weights::from_squared(override_sq).unwrap()] {
            for query in queries {
                let e = q.query(query, &w).unwrap();
                for id in 0..q.len() as ObjectId {
                    words.push(u64::from(e.ip(id).to_bits()));
                    for threshold in [f32::NEG_INFINITY, 0.05, 0.3, f32::INFINITY] {
                        words.push(match e.ip_pruned(id, threshold) {
                            PartialIpVerdict::Exact(v) => u64::from(v.to_bits()),
                            PartialIpVerdict::Pruned => u64::from(PRUNED),
                        });
                    }
                }
                words.push(e.kernel_evals());
            }
        }
        words.iter().flat_map(|w| w.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The scan's every bit (debug and release), re-pinned when the
    /// one-pass margin replaced the widened prefix walk: `ip` bits held,
    /// verdicts and `kernel_evals` moved.  The widened walk's hashes,
    /// pinned on 2c37e38, were `0x03F8_726D_CFF7_46BC`,
    /// `0x1FC2_28E2_855C_3AF3` and `0x62A3_4F61_0D7D_C6A6`.  A seeded
    /// corpus whose segments cycle through spread / spread / constant /
    /// all-zero, at a
    /// lane-aligned, a padded and a single-modality layout, built three
    /// ways — `from_fused`, `from_parts` over what a bundle saves, and
    /// `push_row` one row at a time — which must agree with each other and
    /// with the committed hash.
    #[test]
    fn scan_bits_match_the_golden_hash_on_every_construction_path() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let cases: [(&[usize], u64); 3] = [
            (&[64, 32], 0x744D_F30C_21A4_C55C),
            (&[5, 3], 0x1810_3F01_C830_F453),
            (&[130], 0xED19_021E_B691_5391),
        ];
        for (dims, want) in cases {
            let mut rng = StdRng::seed_from_u64(0x5108 + dims[0] as u64);
            let mut unit = |d: usize| {
                let mut v: Vec<f32> = (0..d).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
                let _ = kernels::normalize(&mut v);
                v
            };
            let (n, m) = (12usize, dims.len());
            let corpus: Vec<Vec<Vec<f32>>> = (0..n)
                .map(|i| {
                    (0..m)
                        .map(|k| match (i + k) % 4 {
                            2 => vec![(dims[k] as f32).sqrt().recip(); dims[k]],
                            3 => vec![0.0; dims[k]],
                            _ => unit(dims[k]),
                        })
                        .collect()
                })
                .collect();
            let full: Vec<Vec<f32>> = dims.iter().map(|&d| unit(d)).collect();
            let mut partial: Vec<Option<Vec<f32>>> = dims.iter().map(|&d| Some(unit(d))).collect();
            if m > 1 {
                partial[m - 1] = None;
            }
            let queries = [MultiQuery::full(full), MultiQuery::partial(partial)];

            let mut rows = FusedRows::from_raw_parts(dims.to_vec(), Vec::new()).unwrap();
            let mut pushed = QuantizedRows::from_fused(&rows);
            for object in &corpus {
                rows.push_row(object).unwrap();
                pushed.push_row(object).unwrap();
            }
            let fused = QuantizedRows::from_fused(&rows);
            let (codes, params) = saved_sections(&fused);
            let parts = QuantizedRows::from_parts(dims.to_vec(), &codes, &params).unwrap();
            assert_eq!(fused, parts, "dims {dims:?}");
            assert_eq!(fused, pushed, "dims {dims:?}");
            for (how, q) in [("from_fused", &fused), ("from_parts", &parts), ("push_row", &pushed)] {
                let got = scan_hash(q, &queries);
                assert_eq!(got, want, "dims {dims:?}, {how}: scan bits drifted: {got:#018X}");
            }
        }
    }

    #[test]
    fn bytes_counts_codes_and_per_row_constants() {
        let q = QuantizedRows::from_fused(&engine());
        // Per row: its codes, then per modality three affine parameters.
        let per_row = q.layout().stride() + q.layout().num_modalities() * 3 * 4;
        assert_eq!(q.bytes(), q.len() * per_row);
    }

    #[test]
    fn multi_vector_set_round_trips_through_quantization() {
        let set = MultiVectorSet::new(vec![
            {
                let mut b = VectorSetBuilder::new(6, 2);
                b.push_normalized(&[1.0, 2.0, -1.0, 0.5, 0.0, 0.25]).unwrap();
                b.push_normalized(&[0.0, 0.0, 1.0, 0.0, 0.0, 0.0]).unwrap();
                b.finish()
            },
        ])
        .unwrap();
        let q = set.fused().quantize();
        for id in 0..2u32 {
            let p = q.seg_params(id, 0);
            for (d, &orig) in q.decode_modality(id, 0).iter().zip(set.fused().modality_slice(id, 0))
            {
                assert!((d - orig).abs() <= 0.5 * p.step + 1e-6);
            }
        }
    }
}
