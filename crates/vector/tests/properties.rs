//! Property-based tests for the vector substrate.
//!
//! These pin the algebraic identities the rest of the system relies on:
//! the IP <-> L2 identity (Eq. 8), Lemma 1 (joint similarity is the weighted
//! sum of per-modality similarities) and Lemma 4 (prefix pruning is safe and
//! exact when it completes).

use must_vector::kernels;
use must_vector::{
    MultiQuery, MultiVectorSet, PartialIpVerdict, QuantizedRows,
    VectorSetBuilder, Weights,
};
use proptest::prelude::*;

/// A non-degenerate raw vector of dimension `dim`.
fn raw_vector(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, dim).prop_filter("non-zero", |v| {
        v.iter().map(|x| x * x).sum::<f32>() > 1e-3
    })
}

fn multi_set(
    n: usize,
    dims: &'static [usize],
) -> impl Strategy<Value = MultiVectorSet> {
    let per_modality: Vec<_> = dims
        .iter()
        .map(|&d| proptest::collection::vec(raw_vector(d), n))
        .collect();
    per_modality.prop_map(move |mods| {
        let sets = mods
            .into_iter()
            .zip(dims)
            .map(|(rows, &d)| {
                let mut b = VectorSetBuilder::new(d, rows.len());
                for r in &rows {
                    b.push_normalized(r).expect("filtered non-zero");
                }
                b.finish()
            })
            .collect();
        MultiVectorSet::new(sets).expect("equal cardinality by construction")
    })
}

fn weights(m: usize) -> impl Strategy<Value = Weights> {
    proptest::collection::vec(0.01f32..2.0, m)
        .prop_map(|w| Weights::new(w).expect("positive finite"))
}

/// One quantizable segment: arbitrary values, a constant segment, or an
/// all-zero segment — the degenerate kinds get explicit probability mass
/// so `step = 0` encoding is exercised, not just sampled by luck.
fn quant_segment(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop_oneof![
        proptest::collection::vec(-8.0f32..8.0, dim),
        (-8.0f32..8.0).prop_map(move |c| vec![c; dim]),
        Just(vec![0.0f32; dim]),
    ]
}

/// One raw corpus segment: arbitrary, or constant — which normalises to a
/// `step = 0` encoding whose radius is the bare `1e-6`, so the rounding
/// slack is all that stands between the difference form and a prune.
fn raw_or_constant(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop_oneof![raw_vector(dim), (0.1f32..8.0).prop_map(move |c| vec![c; dim])]
}

/// `ip_u8`-based `ip` / `ip_pruned(-inf)` against decode-then-`kernels::ip`
/// at every segment width up to 130: non-multiples of the 8-wide kernel
/// chunk, constant and all-zero segments (`step = 0`) included.
#[test]
fn sq8_scores_match_a_decode_then_ip_reference() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(23);
    let mut unit_vector = move |d: usize| {
        let mut v: Vec<f32> = (0..d).map(|_| rng.random::<f32>() - 0.5).collect();
        assert!(kernels::normalize(&mut v));
        v
    };
    let w = Weights::new(vec![0.8, 0.5]).unwrap();
    for d in 1..=130usize {
        let mut quant = QuantizedRows::from_parts(vec![d, d], &[], &[]).unwrap();
        quant.push_row(&[unit_vector(d), unit_vector(d)]).unwrap();
        quant.push_row(&[vec![(d as f32).sqrt().recip(); d], vec![0.0; d]]).unwrap();
        quant.push_row(&[vec![0.0; d], unit_vector(d)]).unwrap();
        assert_eq!(quant.seg_params(1, 0).step, 0.0);
        assert_eq!(quant.seg_params(1, 1).step, 0.0);
        let (q0, q1) = (unit_vector(d), unit_vector(d));
        for query in [
            MultiQuery::full(vec![q0.clone(), q1.clone()]),
            MultiQuery::partial(vec![None, Some(q1.clone())]),
        ] {
            let ev = quant.query(&query, &w).unwrap();
            for id in 0..3u32 {
                let want: f32 = (0..2)
                    .filter_map(|k| Some((k, query.slot(k)?)))
                    .map(|(k, slot)| w.sq(k) * kernels::ip(slot, &quant.decode_modality(id, k)))
                    .sum();
                let got = ev.ip(id);
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "d {d} id {id}: {got} vs {want}"
                );
                assert_eq!(ev.ip_pruned(id, f32::NEG_INFINITY), PartialIpVerdict::Exact(got));
            }
        }
    }
}

/// Deterministic values in `[-1, 1)` for the bit-identity pins: a
/// 64-bit LCG, so a length's vectors do not depend on the other lengths.
fn lcg_values(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0
        })
        .collect()
}

#[test]
fn ip4_is_ip_bit_for_bit_on_every_length() {
    // Lengths 0..=130 run every tail (0-3 lanes past the last chunk of
    // four) against short and long heads; the four right-hand sides
    // differ, so a chain that read a neighbour's lanes would show.
    for len in 0..=130usize {
        let a = lcg_values(len, len as u64);
        let bs: Vec<Vec<f32>> = (0..4u64).map(|j| lcg_values(len, 1_000 + 4 * len as u64 + j)).collect();
        let got = kernels::ip4(&a, [&bs[0], &bs[1], &bs[2], &bs[3]]);
        for (j, b) in bs.iter().enumerate() {
            let want = kernels::ip(&a, b);
            assert_eq!(got[j].to_bits(), want.to_bits(), "len {len}, chain {j}: {} vs {want}", got[j]);
        }
    }
}

#[test]
fn l2_sq4_is_l2_sq_bit_for_bit_on_every_length() {
    // ip4's lengths and right-hand sides: every tail against short and
    // long heads, four different queries per row.
    for len in 0..=130usize {
        let a = lcg_values(len, 7 + len as u64);
        let bs: Vec<Vec<f32>> = (0..4u64).map(|j| lcg_values(len, 3_000 + 4 * len as u64 + j)).collect();
        let got = kernels::l2_sq4(&a, [&bs[0], &bs[1], &bs[2], &bs[3]]);
        for (j, b) in bs.iter().enumerate() {
            let want = kernels::l2_sq(&a, b);
            assert_eq!(got[j].to_bits(), want.to_bits(), "len {len}, chain {j}: {} vs {want}", got[j]);
        }
    }
}

#[test]
fn batched_pair_similarities_are_the_per_pair_ones_bit_for_bit() {
    // Three modalities (one padded segment of each width class), 40 rows;
    // id lists of every length 0..=9 cover every remainder past a chunk
    // of four, repeats and the owner itself included.  Modality 1 carries
    // weight 0, which the batched path must skip exactly as the per-pair
    // one does.
    let dims = [12usize, 5, 16];
    let n = 40u32;
    let sets = dims
        .iter()
        .enumerate()
        .map(|(k, &d)| {
            let mut b = VectorSetBuilder::new(d, n as usize);
            for i in 0..n {
                let mut v = lcg_values(d, u64::from(i) * 7 + k as u64);
                v[0] += 2.5; // keep the norm away from zero
                b.push_normalized(&v).unwrap();
            }
            b.finish()
        })
        .collect();
    let set = MultiVectorSet::new(sets).unwrap();
    let rows = set.fused();
    let wsq = [0.64f32, 0.0, 0.3];
    for len in 0..=9usize {
        for a in [0u32, 17, 39] {
            let ids: Vec<u32> = (0..len as u32).map(|i| (a + i * 11) % n).collect();
            let mut out = vec![f32::NAN; len];
            rows.weighted_pair_ips(a, &ids, &wsq, &mut out);
            for (&b, got) in ids.iter().zip(&out) {
                let want = rows.weighted_pair_ip(a, b, &wsq);
                assert_eq!(got.to_bits(), want.to_bits(), "weighted, len {len}: {a}-{b}");
            }
            for k in 0..dims.len() {
                rows.modality_ips(a, &ids, k, &mut out);
                for (&b, got) in ids.iter().zip(&out) {
                    let want = rows.modality_ip(a, b, k);
                    assert_eq!(got.to_bits(), want.to_bits(), "modality {k}, len {len}: {a}-{b}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ip_l2_identity_holds_for_unit_vectors(a in raw_vector(24), b in raw_vector(24)) {
        let mut a = a;
        let mut b = b;
        prop_assume!(kernels::normalize(&mut a));
        prop_assume!(kernels::normalize(&mut b));
        let lhs = kernels::ip(&a, &b);
        let rhs = kernels::ip_from_l2_sq(kernels::l2_sq(&a, &b));
        prop_assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn ip_is_symmetric_and_bounded(a in raw_vector(17), b in raw_vector(17)) {
        let mut a = a;
        let mut b = b;
        prop_assume!(kernels::normalize(&mut a));
        prop_assume!(kernels::normalize(&mut b));
        let ab = kernels::ip(&a, &b);
        let ba = kernels::ip(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((-1.0 - 1e-4..=1.0 + 1e-4).contains(&ab));
    }

    #[test]
    fn lemma1_joint_similarity_is_weighted_sum(
        set in multi_set(5, &[8, 5, 3]),
        w in weights(3),
        a in 0u32..5,
        b in 0u32..5,
    ) {
        let want: f32 = set.modality_ips(a, b).zip(w.squared()).map(|(s, q)| s * q).sum();
        prop_assert!((set.fused().weighted_pair_ip(a, b, w.squared()) - want).abs() < 1e-4);
    }

    #[test]
    fn lemma4_pruning_is_sound_and_exact(
        set in multi_set(6, &[6, 4]),
        w in weights(2),
        q0 in raw_vector(6),
        q1 in raw_vector(4),
        threshold in -1.5f32..1.5,
    ) {
        let mut q0 = q0;
        let mut q1 = q1;
        prop_assume!(kernels::normalize(&mut q0));
        prop_assume!(kernels::normalize(&mut q1));
        let query = MultiQuery::full(vec![q0, q1]);
        let ev = set.fused().query(&query, &w).unwrap();
        for id in 0..6u32 {
            let exact = ev.ip(id);
            match ev.ip_pruned(id, threshold) {
                PartialIpVerdict::Exact(v) => prop_assert!((v - exact).abs() < 1e-4),
                PartialIpVerdict::Pruned => prop_assert!(exact <= threshold + 1e-4),
            }
        }
    }

    #[test]
    fn sq8_decode_error_is_at_most_half_a_step(
        s0 in quant_segment(7),
        s1 in quant_segment(4),
        s2 in quant_segment(1),
    ) {
        let mut q = QuantizedRows::from_parts(vec![7, 4, 1], &[], &[])
            .expect("an empty engine is valid");
        let segs = [s0, s1, s2];
        let id = q.push_row(&segs).expect("matching arity and dims");
        for (k, seg) in segs.iter().enumerate() {
            let p = q.seg_params(id, k);
            prop_assert!(p.step >= 0.0);
            // Constant (and all-zero) segments must encode with step 0
            // and decode exactly.
            let spread = seg.iter().fold(f32::NEG_INFINITY, |a, &v| a.max(v))
                - seg.iter().fold(f32::INFINITY, |a, &v| a.min(v));
            if spread == 0.0 {
                prop_assert_eq!(p.step, 0.0);
            }
            let decoded = q.decode_modality(id, k);
            for (got, want) in decoded.iter().zip(seg) {
                prop_assert!(
                    (got - want).abs() <= 0.5 * p.step + 1e-5,
                    "modality {}: decode error {} exceeds half-step {}",
                    k,
                    (got - want).abs(),
                    0.5 * p.step
                );
            }
        }
    }

    #[test]
    fn sq8_widened_bound_never_under_prunes(
        set in multi_set(6, &[6, 4]),
        w in weights(2),
        w_override in weights(2),
        q0 in raw_vector(6),
        q1 in raw_vector(4),
        threshold in -1.5f32..1.5,
    ) {
        let mut q0 = q0;
        let mut q1 = q1;
        prop_assume!(kernels::normalize(&mut q0));
        prop_assume!(kernels::normalize(&mut q1));
        // Codes are weight-free, so one engine must serve the build-time
        // weights and any per-query override identically.
        let quant = set.fused().quantize();
        for w in [w, w_override] {
                for query in [
                MultiQuery::full(vec![q0.clone(), q1.clone()]),
                MultiQuery::partial(vec![Some(q0.clone()), None]),
            ] {
                let exact_ev = set.fused().query(&query, &w).unwrap();
                let qev = quant.query(&query, &w).unwrap();
                for id in 0..6u32 {
                    let exact = exact_ev.ip(id);
                    // Soundness: a widened-bound prune may only discard
                    // rows the exact f32 walk could also discard.
                    if let PartialIpVerdict::Pruned = qev.ip_pruned(id, threshold) {
                        prop_assert!(
                            exact <= threshold + 1e-4,
                            "id {}: pruned at threshold {} but exact ip is {}",
                            id,
                            threshold,
                            exact
                        );
                    }
                }
            }
        }
    }

    /// The adversarial companion of the test above: the cancellation
    /// regime of the difference form.  The query sits within 1e-3 of a
    /// stored row and every threshold within 1e-4 of the row's exact
    /// similarity (taken in f64), so a prune that rounding alone produced
    /// would show.
    #[test]
    fn sq8_widened_bound_never_under_prunes_next_to_a_stored_row(
        m0 in proptest::collection::vec(raw_or_constant(6), 6),
        m1 in proptest::collection::vec(raw_or_constant(4), 6),
        w in weights(2),
        w_override in weights(2),
        target in 0u32..6,
        delta in proptest::collection::vec(-1.0f32..1.0, 10),
        delta_norm in 0.0f32..1e-3,
        offset in -1e-4f32..1e-4,
    ) {
        let sets = [(6, m0), (4, m1)]
            .into_iter()
            .map(|(d, rows)| {
                let mut b = VectorSetBuilder::new(d, rows.len());
                for r in &rows {
                    b.push_normalized(r).expect("non-zero by construction");
                }
                b.finish()
            })
            .collect();
        let set = MultiVectorSet::new(sets).unwrap();
        let quant = set.fused().quantize();
        let scale = delta_norm / kernels::norm(&delta).max(f32::MIN_POSITIVE);
        let near = |k: usize, d: &[f32]| -> Vec<f32> {
            let stored = set.fused().modality_slice(target, k);
            stored.iter().zip(d).map(|(o, x)| o + scale * x).collect()
        };
        let (q0, q1) = (near(0, &delta[..6]), near(1, &delta[6..]));
        for w in [w, w_override] {
            for query in [
                MultiQuery::full(vec![q0.clone(), q1.clone()]),
                MultiQuery::partial(vec![Some(q0.clone()), None]),
            ] {
                let qev = quant.query(&query, &w).unwrap();
                for id in 0..6u32 {
                    let exact: f64 = (0..2)
                        .filter_map(|k| Some((k, query.slot(k)?)))
                        .map(|(k, slot)| {
                            let row = set.fused().modality_slice(id, k);
                            let pairs = slot.iter().zip(row);
                            let ip: f64 = pairs.map(|(&a, &b)| f64::from(a) * f64::from(b)).sum();
                            f64::from(w.sq(k)) * ip
                        })
                        .sum();
                    let threshold = (exact + f64::from(offset)) as f32;
                    if let PartialIpVerdict::Pruned = qev.ip_pruned(id, threshold) {
                        // The f32 arithmetic of the bound itself (norm
                        // term, prefix subtractions) is good to ~2e-7 of
                        // the weight mass; below that floor the slack is
                        // pinned against f64 truth by the unit test
                        // `widened_distance_never_exceeds_the_true_distance`.
                        prop_assert!(
                            exact <= f64::from(threshold) + 1e-6 * f64::from(1.0 + qev.w_total()),
                            "id {}: pruned at threshold {} but exact ip is {}",
                            id,
                            threshold,
                            exact
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weight_masking_equals_partial_query(
        set in multi_set(5, &[6, 4]),
        w in weights(2),
        q0 in raw_vector(6),
    ) {
        let mut q0 = q0;
        prop_assume!(kernels::normalize(&mut q0));
        // A t=1 query must score exactly like scaling modality 0 alone.
        let partial = MultiQuery::partial(vec![Some(q0.clone()), None]);
        let ev = set.fused().query(&partial, &w).unwrap();
        for id in 0..5u32 {
            let want = w.sq(0) * set.modality(0).ip_to(id, &q0);
            prop_assert!((ev.ip(id) - want).abs() < 1e-4);
        }
    }
}
