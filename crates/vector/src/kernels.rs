//! Scalar similarity kernels.
//!
//! These are the innermost loops of the whole system: the paper reports that
//! vector computation can consume up to 90 % of total search time
//! (Section VII-B).  The kernels are written so that LLVM auto-vectorises
//! them: independent accumulators over exact chunks (four in [`ip`], eight
//! — the `FUSED_LANE` width — in [`ip_u8`]), with a scalar tail.  [`ip4`]
//! runs four of `ip`'s chains side by side for batches of pairs, and
//! [`l2_sq4`] four of `l2_sq`'s for a row against four queries.

/// Inner product of two equal-length slices.
///
/// For unit-norm vectors this is the paper's similarity measure
/// (`IP`, Eq. 2) and lies in `[-1, 1]`.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
#[must_use]
pub fn ip(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    let (a_head, a_tail) = a.split_at(chunks * 4);
    let (b_head, b_tail) = b.split_at(chunks * 4);
    for (ca, cb) in a_head.chunks_exact(4).zip(b_head.chunks_exact(4)) {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// Four inner products `ip(a, b[j])` in one pass over `a` — for callers
/// with a batch of pairs and no threshold between them (graph
/// construction).  Each result is bit-identical to [`ip`]: four
/// independent chains, each running `ip`'s four accumulators over the
/// same exact chunks, the same final reduction tree and the same scalar
/// tail.  What changes is only the schedule: one chain's adds wait on
/// each other, four chains' do not, and every load of `a` feeds four
/// multiplies.
///
/// # Panics
/// Panics if any `b[j]` is shorter than `a`.
#[inline]
#[must_use]
pub fn ip4(a: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
    let n = a.len();
    let (a_head, a_tail) = a.as_chunks::<4>();
    let [b0, b1, b2, b3] = b.map(|bj| bj[..n].as_chunks::<4>().0);
    let mut acc = [[0.0f32; 4]; 4];
    for ((((ca, c0), c1), c2), c3) in a_head.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
        for lane in 0..4 {
            acc[0][lane] += ca[lane] * c0[lane];
            acc[1][lane] += ca[lane] * c1[lane];
            acc[2][lane] += ca[lane] * c2[lane];
            acc[3][lane] += ca[lane] * c3[lane];
        }
    }
    let mut sums = sum_chains(&acc);
    let head = n - a_tail.len();
    for (sum, bj) in sums.iter_mut().zip(b) {
        for (x, y) in a_tail.iter().zip(&bj[head..n]) {
            *sum += x * y;
        }
    }
    sums
}

/// `ip4`'s and `l2_sq4`'s final reductions, `(a0+a1)+(a2+a3)` per chain
/// — [`ip`]'s and [`l2_sq`]'s tree.
/// Out of line for the reason [`sum_lanes`] is: inlined next to the loop,
/// LLVM transposes the four chains into shuffles to share the tree across
/// them, and the independent-chain gain is gone.
#[inline(never)]
fn sum_chains(acc: &[[f32; 4]; 4]) -> [f32; 4] {
    acc.map(|c| (c[0] + c[1]) + (c[2] + c[3]))
}

/// Inner product of an f32 slice with `u8` codes read as `0.0..=255.0`:
/// `sum_i q[i] * codes[i]` — the one per-candidate pass of the SQ8 scan
/// (see `quant.rs` for how both scan statistics are recovered from it).
///
/// Eight accumulators over exact chunks of eight, the `FUSED_LANE` width:
/// SQ8 segments are padded to it (zero codes against zero query lanes), so
/// on the scan path the tail loop runs zero times.
///
/// # Panics
/// Panics in debug builds if the slices have different lengths.
#[inline]
#[must_use]
pub fn ip_u8(q: &[f32], codes: &[u8]) -> f32 {
    debug_assert_eq!(q.len(), codes.len());
    let mut acc = [0.0f32; 8];
    let (qs, cs) = (q.chunks_exact(8), codes.chunks_exact(8));
    let (q_tail, c_tail) = (qs.remainder(), cs.remainder());
    for (cq, cc) in qs.zip(cs) {
        for lane in 0..8 {
            acc[lane] += cq[lane] * f32::from(cc[lane]);
        }
    }
    let mut sum = sum_lanes(&acc);
    for (x, &c) in q_tail.iter().zip(c_tail) {
        sum += x * f32::from(c);
    }
    sum
}

/// `ip_u8`'s final reduction, `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))`.
/// Kept out of line on purpose: when LLVM sees this tree next to the
/// accumulation loop it arranges the loop's vectors around the tree's
/// pairing — two useful lanes per four-lane register, twice the converts,
/// multiplies and adds, and shuffles on every load.  Behind a call the
/// loop vectorises lane for lane (unpack, convert, multiply, add over
/// `acc[0..4]` and `acc[4..8]`), ~1.6x faster at d = 64 on the baseline
/// target, for the same operations on the same values in the same order.
#[inline(never)]
fn sum_lanes(acc: &[f32; 8]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Joint inner product over a fused row pair (the hot-path kernel of the
/// [`crate::FusedRows`] engine).
///
/// Both slices are the concatenation of `m` per-modality segments with
/// zero padding between them; one side (in serving, the *query* row)
/// carries the `omega_k^2` weight factors baked into its values, so the
/// Lemma-1 joint similarity `sum_k omega_k^2 * IP_k` collapses to **one**
/// contiguous dot product — no per-modality dispatch, no per-candidate
/// weight multiplies.  Compare with the per-modality loop in
/// `benches/kernels.rs`.
#[inline]
#[must_use]
pub fn ip_prescaled_segments(row: &[f32], query: &[f32]) -> f32 {
    ip(row, query)
}

/// Squared Euclidean distance of two equal-length slices.
#[inline]
#[must_use]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    let (a_head, a_tail) = a.split_at(chunks * 4);
    let (b_head, b_tail) = b.split_at(chunks * 4);
    for (ca, cb) in a_head.chunks_exact(4).zip(b_head.chunks_exact(4)) {
        let d0 = ca[0] - cb[0];
        let d1 = ca[1] - cb[1];
        let d2 = ca[2] - cb[2];
        let d3 = ca[3] - cb[3];
        acc[0] += d0 * d0;
        acc[1] += d1 * d1;
        acc[2] += d2 * d2;
        acc[3] += d3 * d3;
    }
    let mut sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (x, y) in a_tail.iter().zip(b_tail) {
        let d = x - y;
        sum += d * d;
    }
    sum
}

/// Four squared distances `l2_sq(a, b[j])` in one pass over `a` — the
/// exact scan's row against a block of four queries.  Each result is
/// bit-identical to [`l2_sq`], by [`ip4`]'s argument: four independent
/// chains, each running `l2_sq`'s four accumulators over the same exact
/// chunks (`a - b[j]` per lane, then its square), the same final
/// reduction tree (`sum_chains`) and the same scalar tail.
///
/// # Panics
/// Panics if any `b[j]` is shorter than `a`.
#[inline]
#[must_use]
pub fn l2_sq4(a: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
    let n = a.len();
    let (a_head, a_tail) = a.as_chunks::<4>();
    let [b0, b1, b2, b3] = b.map(|bj| bj[..n].as_chunks::<4>().0);
    let mut acc = [[0.0f32; 4]; 4];
    for ((((ca, c0), c1), c2), c3) in a_head.iter().zip(b0).zip(b1).zip(b2).zip(b3) {
        for (acc, c) in acc.iter_mut().zip([c0, c1, c2, c3]) {
            for lane in 0..4 {
                let d = ca[lane] - c[lane];
                acc[lane] += d * d;
            }
        }
    }
    let mut sums = sum_chains(&acc);
    let head = n - a_tail.len();
    for (sum, bj) in sums.iter_mut().zip(b) {
        for (x, y) in a_tail.iter().zip(&bj[head..n]) {
            let d = x - y;
            *sum += d * d;
        }
    }
    sums
}

/// Converts a squared Euclidean distance between two *unit-norm* vectors into
/// their inner product via Eq. 8 of the paper:
/// `IP(q, u) = 1 - 0.5 * ||q - u||^2`.
#[inline]
#[must_use]
pub fn ip_from_l2_sq(l2_sq: f32) -> f32 {
    1.0 - 0.5 * l2_sq
}

/// Euclidean norm of a slice.
#[inline]
#[must_use]
pub fn norm(a: &[f32]) -> f32 {
    ip(a, a).sqrt()
}

/// Normalises `a` to unit L2 norm in place.
///
/// Returns `false` (leaving `a` untouched) when the norm is zero or not
/// finite, in which case the caller must decide how to handle the degenerate
/// vector.
#[inline]
pub fn normalize(a: &mut [f32]) -> bool {
    let n = norm(a);
    if n <= f32::EPSILON || !n.is_finite() {
        return false;
    }
    let inv = 1.0 / n;
    for x in a.iter_mut() {
        *x *= inv;
    }
    true
}

/// Whether a slice is unit-norm within `tol`.
#[inline]
#[must_use]
pub fn is_unit_norm(a: &[f32], tol: f32) -> bool {
    (norm(a) - 1.0).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_ip(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn ip_matches_naive_on_awkward_lengths() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 13, 64, 65] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).cos()).collect();
            let got = ip(&a, &b);
            let want = naive_ip(&a, &b);
            assert!((got - want).abs() < 1e-4, "len={len}: {got} vs {want}");
        }
    }

    #[test]
    fn ip_u8_matches_the_widened_f32_product_on_awkward_lengths() {
        for len in [0usize, 1, 7, 8, 9, 16, 33, 64, 130] {
            let q: Vec<f32> = (0..len).map(|i| (i as f32).sin()).collect();
            let codes: Vec<u8> = (0..len).map(|i| (i * 89 + 31) as u8).collect();
            let widened: Vec<f32> = codes.iter().map(|&c| f32::from(c)).collect();
            let (got, want) = (ip_u8(&q, &codes), naive_ip(&q, &widened));
            assert!(
                (got - want).abs() <= 1e-5 * want.abs().max(255.0),
                "len={len}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn l2_and_ip_identity_for_unit_vectors() {
        let mut a: Vec<f32> = (0..33).map(|i| (i as f32 + 1.0).recip()).collect();
        let mut b: Vec<f32> = (0..33).map(|i| ((i * i) as f32 + 2.0).recip()).collect();
        assert!(normalize(&mut a));
        assert!(normalize(&mut b));
        let via_l2 = ip_from_l2_sq(l2_sq(&a, &b));
        let direct = ip(&a, &b);
        assert!((via_l2 - direct).abs() < 1e-5);
    }

    #[test]
    fn normalize_rejects_zero_vector() {
        let mut z = vec![0.0f32; 8];
        assert!(!normalize(&mut z));
        assert_eq!(z, vec![0.0f32; 8]);
    }

    #[test]
    fn normalize_produces_unit_norm() {
        let mut v = vec![3.0f32, 4.0];
        assert!(normalize(&mut v));
        assert!(is_unit_norm(&v, 1e-6));
        assert!((v[0] - 0.6).abs() < 1e-6 && (v[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn identical_unit_vectors_have_ip_one() {
        let mut v: Vec<f32> = (0..16).map(|i| i as f32 + 1.0).collect();
        assert!(normalize(&mut v));
        assert!((ip(&v, &v) - 1.0).abs() < 1e-5);
        assert!(l2_sq(&v, &v) < 1e-10);
    }
}
