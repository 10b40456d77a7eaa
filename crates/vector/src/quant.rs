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
//! **The widened Lemma-4 bound never under-prunes.**  The exact walk
//! shrinks the Eq. 8 bound by `0.5 omega_k^2 ||q_k - o_k||^2` per segment.
//! The quantized walk only knows the decoded point `o_hat_k`, but the
//! per-row-segment radius `eps_rk >= ||o_k - o_hat_k||` (stored at encode
//! time) turns the triangle inequality into a certified lower bound:
//!
//! ```text
//! ||q_k - o_k|| >= max(0, ||q_k - o_hat_k|| - eps_rk)
//! ```
//!
//! so subtracting `0.5 omega_k^2 * max(0, ||q_k - o_hat_k|| - eps_rk)^2`
//! keeps the quantized prefix bound at or above the exact f32 prefix
//! bound at *every* prefix: any candidate the quantized walk prunes, the
//! exact walk would have pruned too.  `eps_rk` additionally carries a
//! small multiplicative + absolute float-rounding margin for the encoder's
//! own rounding.  Survivors come back with the *decoded* joint similarity
//! — an approximation — which is why the serving layer re-ranks the top
//! pool on the retained f32 rows before answering.
//!
//! **One dot product per segment.**  The scan never decodes: its only
//! per-candidate pass is `<q_k, c>` over the raw codes
//! ([`kernels::ip_u8`]), from which both statistics follow, `sum(q_k)`,
//! `||q_k||^2`, `||q_k||_1` being per-query terms and `||o_hat_k||^2` per
//! (row, segment) — derived in-memory state, rebuilt by every constructor
//! and never persisted:
//!
//! ```text
//! <q_k, o_hat_k>      = min * sum(q_k) + step * <q_k, c>
//! ||q_k - o_hat_k||^2 = ||q_k||^2 - 2 <q_k, o_hat_k> + ||o_hat_k||^2
//! ```
//!
//! **The rounding slack.**  The difference form cancels when
//! `q_k ~ o_hat_k`, so its error is certified here, not left to `eps_rk`.
//! Let `u = EPSILON / 2`, `d` the padded width, `n = d/8 + 3` and
//! `B = ||q_k||_1 (|min| + 255 step)`, which dominates `|min| sum|q_i|`,
//! `step sum|q_i| c_i` and `|<q_k, o_hat_k>|`.  Per-query and per-row
//! terms are accumulated in f64 and rounded once; each product in `ip_u8`
//! meets at most `n` roundings, so `|dot - <q_k, o_hat_k>| <= gamma_{n+2} B`
//! and, with `T = ||q_k||^2 + ||o_hat_k||^2 + 2 B >= ||q_k - o_hat_k||^2`,
//! `|d2 - ||q_k - o_hat_k||^2| <= gamma_{n+3} T`; a further `4 u T` absorbs
//! the roundings of the `sqrt` and the `- eps_rk`.  The evaluator subtracts
//! `(d/8 + 8) EPSILON T`, i.e. `(d/4 + 16) u T` against the
//! `(d/8 + 10) u T` needed, so the computed
//! `max(0, sqrt(max(0, d2 - slack)) - eps_rk)` never exceeds
//! `max(0, ||q_k - o_hat_k|| - eps_rk) <= ||q_k - o_k||`.  DESIGN.md §11
//! has the step-by-step; a NaN `d2` widens to 0 and prunes nothing.
//!
//! **Row blocks.**  Everything the scan reads of a candidate sits in one
//! record of `stride + 20 m` bytes at `id * (stride + 20 m)` of a single
//! `Vec<u8>`: the row's `stride` codes, then per modality `min`, `step`,
//! `eps`, `||o_k||^2`, `||o_hat_k||^2` as little-endian `f32`, read with
//! `f32::from_le_bytes` (no alignment is assumed or arranged).  The walk
//! visits candidates in graph order, so each one is a cache miss, and what
//! it costs is the number of *places* touched: four columns put a 136-byte
//! candidate (dims `[64, 32]`) on five to seven lines in four places; one
//! record puts it on three consecutive lines, which
//! [`QuantizedQueryEvaluator::warm`] puts in flight together.  `eps` stays
//! stored although `eps_for(step, d)` could recompute it: a bundle carries
//! `eps`, and a loader that recomputed it would have to either trust or
//! reject the persisted value — the four bytes buy not having that
//! question.  Bundles keep their sectioned layout
//! ([`QuantizedRows::from_parts`] interleaves on load,
//! [`QuantizedRows::row_codes`] / [`QuantizedRows::seg_params`] take a
//! block apart on save).

use crate::fused::{FusedRows, PartialIpVerdict, FUSED_LANE, CACHE_LINE};
use crate::multi::MultiQuery;
use crate::{kernels, ObjectId, VectorError, Weights};

/// Per-(row, segment) affine dequantization parameters plus the certified
/// reconstruction radius used by the widened Lemma-4 bound.
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

/// `||o_hat||^2` of one encoded segment (`codes` = its real components),
/// accumulated in f64 and rounded once, as the slack proof assumes.
fn code_norm_sq(codes: &[u8], p: SegParams) -> f32 {
    let (min, step) = (f64::from(p.min), f64::from(p.step));
    codes.iter().map(|&c| (min + step * f64::from(c)).powi(2)).sum::<f64>() as f32
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
/// an absolute float-rounding margin so the never-under-prune guarantee
/// holds under f32 accumulation-order differences.
fn eps_for(step: f32, d: usize) -> f32 {
    0.5 * step * (d as f32).sqrt() * (1.0 + 1e-4) + 1e-6
}

/// Bytes of per-modality constants behind a block's codes: `min`, `step`,
/// `eps`, `||o_k||^2`, `||o_hat_k||^2`, each a little-endian `f32`.
const TAIL: usize = 20;

/// The per-(row, modality) constants of one block, decoded.
#[derive(Debug, Clone, Copy)]
struct SegTail {
    p: SegParams,
    /// `||o_k||^2` of the original f32 segment — the candidate half of the
    /// Eq. 8 norm term must stay exact for the bound proof.
    seg_norm: f32,
    /// `||o_hat_k||^2` of the decoded segment.  Derived from the codes and
    /// `p` by every constructor and never persisted.
    code_norm: f32,
}

impl SegTail {
    /// Reads the `TAIL` bytes at `at` in `block`.
    #[inline]
    fn read(block: &[u8], at: usize) -> Self {
        let t: &[u8; TAIL] = block[at..at + TAIL].try_into().expect("TAIL bytes sliced");
        let f = |i: usize| f32::from_le_bytes([t[i], t[i + 1], t[i + 2], t[i + 3]]);
        Self {
            p: SegParams { min: f(0), step: f(4), eps: f(8) },
            seg_norm: f(12),
            code_norm: f(16),
        }
    }

    /// Writes the `TAIL` bytes at `at` in `block`.
    fn write(self, block: &mut [u8], at: usize) {
        let words = [self.p.min, self.p.step, self.p.eps, self.seg_norm, self.code_norm];
        for (out, w) in block[at..at + TAIL].chunks_exact_mut(4).zip(words) {
            out.copy_from_slice(&w.to_le_bytes());
        }
    }
}

/// SQ8 scalar-quantized row storage mirroring a [`FusedRows`] layout:
/// same dims, same [`FUSED_LANE`]-aligned stride, one `u8` code per
/// component (padding positions zero and never scored), one
/// [`SegParams`] per (row, modality), and the f32 squared segment norms
/// of the *original* rows for the exact side of the Eq. 8 norm term —
/// all of a row in one block (module docs, "Row blocks").
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRows {
    /// Unpadded per-modality dimensionalities.
    dims: Vec<usize>,
    /// Padded segment starts within a row; `seg[m]` is the row stride.
    seg: Vec<usize>,
    /// One block of `stride + TAIL * m` bytes per row: its codes, then
    /// modality by modality the [`SegTail`] constants.
    blocks: Vec<u8>,
}

impl QuantizedRows {
    /// Quantizes every row of an f32 engine.  The segment layout (and the
    /// exact segment norms) carry over unchanged.
    #[must_use]
    pub fn from_fused(rows: &FusedRows) -> Self {
        let mut q = Self::empty(rows.dims().to_vec()).expect("an f32 engine's dims are valid");
        q.blocks = vec![0u8; rows.len() * q.block_len()];
        for id in 0..rows.len() as ObjectId {
            for k in 0..q.dims.len() {
                q.encode(id, k, rows.modality_slice(id, k), rows.seg_norm(id, k));
            }
        }
        q
    }

    /// An engine of `dims` holding no rows.
    fn empty(dims: Vec<usize>) -> Result<Self, VectorError> {
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
        Ok(Self { dims, seg, blocks: Vec::new() })
    }

    /// Encodes `values` as modality `k` of the (already allocated, zeroed)
    /// block `id`: codes, then the segment's constants.
    fn encode(&mut self, id: ObjectId, k: usize, values: &[f32], seg_norm: f32) {
        let (codes, tail) = (self.seg[k]..self.seg[k] + self.dims[k], self.tail_at(k));
        let at = id as usize * self.block_len();
        let block = &mut self.blocks[at..];
        let p = encode_segment(values, &mut block[codes.clone()]);
        let code_norm = code_norm_sq(&block[codes], p);
        SegTail { p, seg_norm, code_norm }.write(block, tail);
    }

    /// Reassembles a quantized engine from persisted parts (the bundle-v7
    /// load path), interleaving them into row blocks: `codes` row-major,
    /// `stride` bytes a row; `params` and `seg_norms` one entry per
    /// (row, modality), row-major.
    ///
    /// # Errors
    /// [`VectorError::DimensionMismatch`] for empty/zero dims or a code
    /// buffer that is not a whole number of rows;
    /// [`VectorError::CardinalityMismatch`] when `params` or `seg_norms`
    /// do not hold exactly one entry per (row, modality) pair.
    pub fn from_parts(
        dims: Vec<usize>,
        codes: &[u8],
        params: &[SegParams],
        seg_norms: &[f32],
    ) -> Result<Self, VectorError> {
        let mut q = Self::empty(dims)?;
        let (m, stride) = (q.dims.len(), q.stride());
        if !codes.len().is_multiple_of(stride) {
            return Err(VectorError::DimensionMismatch {
                expected: stride,
                got: codes.len() % stride,
            });
        }
        let len = codes.len() / stride;
        for got in [params.len(), seg_norms.len()] {
            if got != len * m {
                return Err(VectorError::CardinalityMismatch { expected: len * m, got });
            }
        }
        let mut blocks = vec![0u8; len * q.block_len()];
        let rows = blocks.chunks_exact_mut(q.block_len()).zip(codes.chunks_exact(stride));
        for (id, (block, row)) in rows.enumerate() {
            block[..stride].copy_from_slice(row);
            for k in 0..m {
                let p = params[id * m + k];
                let code_norm = code_norm_sq(&row[q.seg[k]..q.seg[k] + q.dims[k]], p);
                let tail = SegTail { p, seg_norm: seg_norms[id * m + k], code_norm };
                tail.write(block, q.tail_at(k));
            }
        }
        q.blocks = blocks;
        Ok(q)
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

    /// Row stride in code bytes (identical to the f32 engine's stride in
    /// floats).
    #[inline]
    #[must_use]
    pub fn stride(&self) -> usize {
        self.seg[self.dims.len()]
    }

    /// Bytes of one row block: the codes, then `TAIL` bytes a modality.
    #[inline]
    fn block_len(&self) -> usize {
        self.stride() + TAIL * self.dims.len()
    }

    /// Offset of modality `k`'s constants within a block.
    #[inline]
    fn tail_at(&self, k: usize) -> usize {
        self.stride() + TAIL * k
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
        &self.block(id)[..self.stride()]
    }

    /// The affine parameters of modality `k` in row `id`.
    #[inline]
    #[must_use]
    pub fn seg_params(&self, id: ObjectId, k: usize) -> SegParams {
        SegTail::read(self.block(id), self.tail_at(k)).p
    }

    /// The squared f32 norm `||o_k||^2` of modality `k`'s original
    /// segment in row `id`.
    #[inline]
    #[must_use]
    pub fn seg_norm(&self, id: ObjectId, k: usize) -> f32 {
        SegTail::read(self.block(id), self.tail_at(k)).seg_norm
    }

    /// The `u8` codes of modality `k`'s real components in row `id`
    /// (length `dims[k]`; padding positions excluded).
    #[inline]
    #[must_use]
    pub fn modality_codes(&self, id: ObjectId, k: usize) -> &[u8] {
        &self.block(id)[self.seg[k]..self.seg[k] + self.dims[k]]
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
    /// [`VectorError::CardinalityMismatch`] on wrong modality count,
    /// [`VectorError::DimensionMismatch`] on wrong slot length; the
    /// engine is untouched on error.
    pub fn push_row<S: AsRef<[f32]>>(&mut self, rows: &[S]) -> Result<ObjectId, VectorError> {
        if rows.len() != self.num_modalities() {
            return Err(VectorError::CardinalityMismatch {
                expected: self.num_modalities(),
                got: rows.len(),
            });
        }
        for (k, r) in rows.iter().enumerate() {
            if r.as_ref().len() != self.dims[k] {
                return Err(VectorError::DimensionMismatch {
                    expected: self.dims[k],
                    got: r.as_ref().len(),
                });
            }
        }
        let id = self.len() as ObjectId;
        self.blocks.resize(self.blocks.len() + self.block_len(), 0);
        for (k, r) in rows.iter().enumerate() {
            let r = r.as_ref();
            self.encode(id, k, r, kernels::ip(r, r));
        }
        Ok(id)
    }

    /// Heap footprint in bytes: per row its codes, affine parameters,
    /// segment norms and derived decoded-segment norms — the blocks.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.blocks.len()
    }

    /// Prepares a per-query evaluator under `weights`, mirroring
    /// [`FusedRows::query`]: weights scale the query side only, codes
    /// stay weight-free, and every query may carry its own weights.
    ///
    /// # Errors
    /// As [`FusedRows::query`]: weight-arity, slot-arity, and dimension
    /// mismatches.
    pub fn query(
        &self,
        query: &MultiQuery,
        weights: &Weights,
    ) -> Result<QuantizedQueryEvaluator<'_>, VectorError> {
        QuantizedQueryEvaluator::new(self, query, weights)
    }
}

/// One active (supplied, positive-weight) modality of a quantized query,
/// in Lemma-4 prefix order, with the per-query terms of the two
/// identities in the module docs.
#[derive(Debug, Clone, Copy)]
struct ActiveSegment {
    /// Padded segment bounds within a row (the query's padding is zero).
    start: usize,
    end: usize,
    /// Offset of the modality's [`SegTail`] within a row block.
    tail: usize,
    /// `omega_k^2`.
    wsq: f32,
    /// `0.5 * omega_k^2`.
    half_wsq: f32,
    /// `sum(q_k)`.
    sum: f32,
    /// `||q_k||^2`.
    norm_sq: f32,
    /// `2 * ||q_k||_1`.
    l1_x2: f32,
    /// `(d/8 + 8) * EPSILON`, `d` the padded width: the slack multiple.
    slack_coef: f32,
}

impl ActiveSegment {
    /// `max(0, ||q_k - o_hat_k|| - eps_rk)` from the difference form less its
    /// slack, given the row's `||o_hat_k||^2` and `dot = <q_k, o_hat_k>`:
    /// certified never to exceed `||q_k - o_k||` (module docs).
    #[inline]
    fn widened(&self, code_norm: f32, p: SegParams, dot: f32) -> f32 {
        let norms = self.norm_sq + code_norm;
        let d2 = norms - 2.0 * dot;
        let slack = self.slack_coef * (norms + self.l1_x2 * (p.min.abs() + 255.0 * p.step));
        ((d2 - slack).max(0.0).sqrt() - p.eps).max(0.0)
    }
}

/// Per-query evaluator over a [`QuantizedRows`] engine: the approximate
/// (decoded) joint similarity for pool ranking, and the widened Lemma-4
/// walk whose prefix bound provably dominates the exact f32 bound — see
/// the module docs for the derivation.
#[derive(Debug)]
pub struct QuantizedQueryEvaluator<'a> {
    /// The engine's row blocks and their length, bound once per query.
    blocks: &'a [u8],
    block_len: usize,
    /// The raw (unscaled) query laid out in fused-row geometry; the
    /// per-segment `omega_k^2` lives in `active`, matching the f32
    /// evaluator's query-side weighting.
    qraw: Vec<f32>,
    /// Active modalities in modality order — the Lemma-4 prefix order.
    active: Vec<ActiveSegment>,
    /// `sum of active omega_k^2`.
    w_total: f32,
    /// `sum_k 0.5 * omega_k^2 * ||q_k||^2` — the query half of the Eq. 8
    /// norm term.
    q_half_norm: f32,
    kernel_evals: std::cell::Cell<u64>,
}

impl<'a> QuantizedQueryEvaluator<'a> {
    fn new(
        rows: &'a QuantizedRows,
        query: &MultiQuery,
        weights: &Weights,
    ) -> Result<Self, VectorError> {
        let m = rows.num_modalities();
        if query.num_slots() != m {
            return Err(VectorError::WeightArity { modalities: m, weights: query.num_slots() });
        }
        if weights.modalities() != m {
            return Err(VectorError::WeightArity { modalities: m, weights: weights.modalities() });
        }
        let mut qraw = vec![0.0f32; rows.stride()];
        let mut active = Vec::with_capacity(m);
        let mut w_total = 0.0;
        let mut q_half_norm = 0.0;
        for k in 0..m {
            let Some(slot) = query.slot(k) else { continue };
            if slot.len() != rows.dims[k] {
                return Err(VectorError::DimensionMismatch {
                    expected: rows.dims[k],
                    got: slot.len(),
                });
            }
            // A NaN or infinite component would poison every score and
            // every sort the walk makes; refuse it, weighted or not.
            if slot.iter().any(|x| !x.is_finite()) {
                return Err(VectorError::NotNormalisable);
            }
            let wsq = weights.sq(k);
            if wsq <= 0.0 {
                continue;
            }
            let (start, end) = (rows.seg[k], rows.seg[k + 1]);
            qraw[start..start + slot.len()].copy_from_slice(slot);
            // f64 accumulation, one rounding each (the slack proof's input).
            let (mut sum, mut norm_sq, mut l1) = (0.0f64, 0.0f64, 0.0f64);
            for &x in slot {
                let x = f64::from(x);
                sum += x;
                norm_sq += x * x;
                l1 += x.abs();
            }
            active.push(ActiveSegment {
                start,
                end,
                tail: rows.tail_at(k),
                wsq,
                half_wsq: 0.5 * wsq,
                sum: sum as f32,
                norm_sq: norm_sq as f32,
                l1_x2: (2.0 * l1) as f32,
                slack_coef: ((end - start) / 8 + 8) as f32 * f32::EPSILON,
            });
            w_total += wsq;
            q_half_norm += 0.5 * wsq * kernels::ip(slot, slot);
        }
        Ok(Self {
            blocks: &rows.blocks,
            block_len: rows.block_len(),
            qraw,
            active,
            w_total,
            q_half_norm,
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

    #[inline]
    fn bump(&self, by: u64) {
        self.kernel_evals.set(self.kernel_evals.get() + by);
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

    /// Approximate joint similarity of object `id` to the query:
    /// `sum_k omega_k^2 * <q_k, o_hat_k>` over the decoded codes.  Used
    /// for pool ranking; exact answers come from re-ranking on the f32
    /// rows.
    pub fn ip(&self, id: ObjectId) -> f32 {
        self.bump(self.active.len() as u64);
        let block = self.block(id);
        let mut sum = 0.0;
        for seg in &self.active {
            sum += seg.wsq * self.seg_dot(seg, block, SegTail::read(block, seg.tail).p);
        }
        sum
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

    /// The widened Lemma-4 walk: starts from the exact norm term (query
    /// half precomputed, candidate half from the stored **f32** segment
    /// norms) and shrinks the bound by
    /// `0.5 omega_k^2 * max(0, ||q_k - o_hat_k|| - eps_rk)^2` per
    /// segment.  By the triangle inequality this never subtracts more
    /// than the exact walk would, so [`PartialIpVerdict::Pruned`] implies
    /// the exact f32 walk would also have pruned at `threshold`.  The
    /// surviving value is the *approximate* decoded similarity (for pool
    /// ranking), not the widened bound.
    pub fn ip_pruned(&self, id: ObjectId, threshold: f32) -> PartialIpVerdict {
        let block = self.block(id);
        let mut bound = self.q_half_norm;
        for seg in &self.active {
            bound += seg.half_wsq * SegTail::read(block, seg.tail).seg_norm;
        }
        let mut approx = 0.0;
        for seg in &self.active {
            let SegTail { p, code_norm, .. } = SegTail::read(block, seg.tail);
            let dot = self.seg_dot(seg, block, p);
            self.bump(1);
            let widened = seg.widened(code_norm, p, dot);
            bound -= seg.half_wsq * widened * widened;
            approx += seg.wsq * dot;
            if bound <= threshold {
                // Even the widened bound clears nothing (after the last
                // segment too): the exact walk would have discarded it.
                return PartialIpVerdict::Pruned;
            }
        }
        PartialIpVerdict::Exact(approx)
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

    /// What a bundle saves of `q`: the code section, the quantization
    /// parameters and the segment norms, each row-major.
    fn saved_sections(q: &QuantizedRows) -> (Vec<u8>, Vec<SegParams>, Vec<f32>) {
        let ids = || 0..q.len() as ObjectId;
        let per_segment = || ids().flat_map(|id| (0..q.num_modalities()).map(move |k| (id, k)));
        (
            ids().flat_map(|id| q.row_codes(id).iter().copied()).collect(),
            per_segment().map(|(id, k)| q.seg_params(id, k)).collect(),
            per_segment().map(|(id, k)| q.seg_norm(id, k)).collect(),
        )
    }

    #[test]
    fn layout_mirrors_the_f32_engine() {
        let rows = engine();
        let q = QuantizedRows::from_fused(&rows);
        assert_eq!(q.dims(), rows.dims());
        assert_eq!(q.stride(), rows.stride());
        assert_eq!(q.len(), rows.len());
        for id in 0..rows.len() as ObjectId {
            assert_eq!(q.row_codes(id).len(), rows.stride());
            for k in 0..rows.num_modalities() {
                let (start, end) = rows.segment_bounds(k);
                assert_eq!(&q.row_codes(id)[start..start + q.dims()[k]], q.modality_codes(id, k));
                let padding = &q.row_codes(id)[start + q.dims()[k]..end];
                assert!(padding.iter().all(|&c| c == 0), "padding codes stay zero");
                assert_eq!(q.seg_norm(id, k), rows.seg_norm(id, k));
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

    /// The claim the slack proof certifies, checked against f64 truth with
    /// no tolerance: the computed widened distance never exceeds
    /// `max(0, ||q - o_hat|| - eps)`.  Queries sit at `o_hat + delta` for
    /// `||delta||` from 0 to ~1e-3 — the cancellation regime, where the
    /// un-slacked difference form overshoots — and at unrelated points.
    #[test]
    fn widened_distance_never_exceeds_the_true_distance() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut unit = move || rng.random::<f32>() * 2.0 - 1.0;
        for d in [1usize, 3, 8, 32, 64, 130] {
            let mut q = QuantizedRows::from_parts(vec![d], &[], &[], &[]).unwrap();
            // A spread segment, a constant one (step = 0, eps = 1e-6: the
            // slack is all that stands between rounding and a prune) and
            // an all-zero one.
            let mut spread: Vec<f32> = (0..d).map(|_| unit()).collect();
            let _ = kernels::normalize(&mut spread);
            for row in [spread, vec![(d as f32).sqrt().recip(); d], vec![0.0; d]] {
                q.push_row(&[row]).unwrap();
            }
            for id in 0..3u32 {
                let p = q.seg_params(id, 0);
                let decoded: Vec<f64> = q
                    .modality_codes(id, 0)
                    .iter()
                    .map(|&c| f64::from(p.min) + f64::from(p.step) * f64::from(c))
                    .collect();
                for scale in [0.0f32, 1e-7, 1e-5, 1e-4, 1e-3, 1.0] {
                    for _ in 0..50 {
                        let query: Vec<f32> =
                            decoded.iter().map(|&v| v as f32 + scale * unit()).collect();
                        let mq = MultiQuery::full(vec![query.clone()]);
                        let qe = q.query(&mq, &Weights::uniform(1)).unwrap();
                        let Some(seg) = qe.active.first() else { continue };
                        let block = qe.block(id);
                        let dot = qe.seg_dot(seg, block, p);
                        let widened =
                            seg.widened(SegTail::read(block, seg.tail).code_norm, p, dot);
                        let dist = query
                            .iter()
                            .zip(&decoded)
                            .map(|(&x, &v)| (f64::from(x) - v).powi(2))
                            .sum::<f64>()
                            .sqrt();
                        assert!(
                            f64::from(widened) <= (dist - f64::from(p.eps)).max(0.0),
                            "d {d} id {id} scale {scale}: widened {widened} > {dist} - {}",
                            p.eps
                        );
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
        let (codes, params, norms) = saved_sections(&owned);
        let mut q =
            QuantizedRows::from_parts(owned.dims().to_vec(), &codes, &params, &norms).unwrap();
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
        let (grown, _, _) = saved_sections(&q);
        assert_eq!(grown[..codes.len()], codes[..]);
    }

    #[test]
    fn from_parts_validates_shapes() {
        let q = QuantizedRows::from_fused(&engine());
        let (codes, params, norms) = saved_sections(&q);
        let dims = || q.dims().to_vec();
        assert_eq!(QuantizedRows::from_parts(dims(), &codes, &params, &norms).unwrap(), q);
        assert!(matches!(
            QuantizedRows::from_parts(vec![], &[], &[], &[]),
            Err(VectorError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            QuantizedRows::from_parts(vec![5, 0], &[], &[], &[]),
            Err(VectorError::DimensionMismatch { .. })
        ));
        // A code section that is not a whole number of rows, either way.
        for bad in [&codes[..codes.len() - 1], &vec![0u8; q.stride() + 1][..]] {
            assert!(matches!(
                QuantizedRows::from_parts(dims(), bad, &params, &norms),
                Err(VectorError::DimensionMismatch { .. })
            ));
        }
        // One entry per (row, modality), no fewer and no more.
        let extra_param = [&params[..], &params[..1]].concat();
        for bad in [&params[..3], &extra_param[..]] {
            assert!(matches!(
                QuantizedRows::from_parts(dims(), &codes, bad, &norms),
                Err(VectorError::CardinalityMismatch { .. })
            ));
        }
        let extra_norm = [&norms[..], &[1.0][..]].concat();
        for bad in [&norms[..3], &extra_norm[..]] {
            assert!(matches!(
                QuantizedRows::from_parts(dims(), &codes, &params, bad),
                Err(VectorError::CardinalityMismatch { .. })
            ));
        }
    }

    /// FNV-1a (64-bit) over every `ip` bit pattern, every `ip_pruned`
    /// verdict and the final `kernel_evals` of `q`, under default and
    /// override weights, full and partial queries, thresholds at -inf,
    /// mid-range and +inf.
    fn scan_hash(q: &QuantizedRows, queries: &[MultiQuery]) -> u64 {
        const PRUNED: u32 = 0xFFFF_FFFF; // a NaN pattern no score takes
        let m = q.num_modalities();
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

    /// The scan's every bit, pinned on 2c37e38, the last commit with four
    /// columns in place of one row block (debug and release): a seeded corpus whose
    /// segments cycle through spread / spread / constant / all-zero, at a
    /// lane-aligned, a padded and a single-modality layout, built three
    /// ways — `from_fused`, `from_parts` over what a bundle saves, and
    /// `push_row` one row at a time — which must agree with each other and
    /// with the committed hash.
    #[test]
    fn scan_bits_match_the_golden_hash_on_every_construction_path() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let cases: [(&[usize], u64); 3] = [
            (&[64, 32], 0x03F8_726D_CFF7_46BC),
            (&[5, 3], 0x1FC2_28E2_855C_3AF3),
            (&[130], 0x62A3_4F61_0D7D_C6A6),
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
            let (codes, params, norms) = saved_sections(&fused);
            let parts = QuantizedRows::from_parts(dims.to_vec(), &codes, &params, &norms).unwrap();
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
        // Per row: its codes, then per modality three affine parameters,
        // the f32 segment norm and the derived decoded-segment norm.
        let per_row = q.stride() + q.num_modalities() * (3 + 2) * 4;
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
