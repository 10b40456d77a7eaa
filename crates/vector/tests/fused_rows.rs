//! Property-based equivalence suite for the fused-row storage engine:
//! arbitrary corpora × weights × dimensionalities, asserting that the
//! fused path (one unscaled contiguous row per object, weights baked into
//! the query row) agrees with the reference per-modality path everywhere
//! the system relies on it — including the pruned-early cases, where the
//! Lemma-4 bound must never under-prune.

use must_vector::{
    kernels, FusedRows, MultiQuery, PartialIpVerdict, VectorSetBuilder, Weights, FUSED_LANE,
};
use proptest::prelude::*;

/// A non-degenerate raw vector of dimension `dim`.
fn raw_vector(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, dim).prop_filter("non-zero", |v| {
        v.iter().map(|x| x * x).sum::<f32>() > 1e-3
    })
}

/// Corpora over deliberately awkward dims: none is a multiple of the SIMD
/// lane, so every segment exercises the zero-padding tail.
fn multi_set(n: usize, dims: &'static [usize]) -> impl Strategy<Value = FusedRows> {
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
        FusedRows::new(sets).expect("equal cardinality by construction")
    })
}

fn weights(m: usize) -> impl Strategy<Value = Weights> {
    proptest::collection::vec(0.01f32..2.0, m)
        .prop_map(|w| Weights::new(w).expect("positive finite"))
}

/// The reference per-modality Lemma-4 walk the old storage performed:
/// per-modality `l2_sq` against the raw slices, explicitly weighted.
fn reference_pruned(
    set: &FusedRows,
    w: &Weights,
    query: &MultiQuery,
    id: u32,
    threshold: f32,
) -> PartialIpVerdict {
    let active: Vec<usize> = (0..set.num_modalities())
        .filter(|&k| query.slot(k).is_some() && w.sq(k) > 0.0)
        .collect();
    let mut bound: f32 = active.iter().map(|&k| w.sq(k)).sum();
    for (scanned, &k) in active.iter().enumerate() {
        let slot = query.slot(k).expect("active");
        bound -= 0.5 * w.sq(k) * kernels::l2_sq(set.modality(k).get(id), slot);
        if bound <= threshold && scanned + 1 < active.len() {
            return PartialIpVerdict::Pruned;
        }
    }
    PartialIpVerdict::Exact(bound)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_pair_ip_matches_per_modality_path(
        set in multi_set(6, &[7, 5, 3]),
        w in weights(3),
        a in 0u32..6,
        b in 0u32..6,
    ) {
        let fused = set.weighted_pair_ip(a, b, w.squared());
        let reference = set.joint_ip(a, b, &w).unwrap();
        prop_assert!((fused - reference).abs() < 1e-5,
            "fused {} vs per-modality {}", fused, reference);
    }

    #[test]
    fn fused_query_ip_matches_weighted_sum(
        set in multi_set(5, &[9, 4]),
        w in weights(2),
        q0 in raw_vector(9),
        q1 in raw_vector(4),
    ) {
        let mut q0 = q0;
        let mut q1 = q1;
        prop_assume!(kernels::normalize(&mut q0));
        prop_assume!(kernels::normalize(&mut q1));
        let query = MultiQuery::full(vec![q0.clone(), q1.clone()]);
        let ev = set.query(&query, &w).unwrap();
        for id in 0..5u32 {
            let reference = w.sq(0) * set.modality(0).ip_to(id, &q0)
                + w.sq(1) * set.modality(1).ip_to(id, &q1);
            prop_assert!((ev.ip(id) - reference).abs() < 1e-5);
        }
    }

    #[test]
    fn fused_score_pruned_agrees_with_reference_walk(
        set in multi_set(6, &[6, 10, 2]),
        w in weights(3),
        q0 in raw_vector(6),
        q1 in raw_vector(10),
        q2 in raw_vector(2),
        threshold in -2.0f32..2.0,
    ) {
        let mut q0 = q0;
        let mut q1 = q1;
        let mut q2 = q2;
        prop_assume!(kernels::normalize(&mut q0));
        prop_assume!(kernels::normalize(&mut q1));
        prop_assume!(kernels::normalize(&mut q2));
        let query = MultiQuery::full(vec![q0, q1, q2]);
        let ev = set.query(&query, &w).unwrap();
        for id in 0..6u32 {
            let exact = ev.ip(id);
            let fused = ev.ip_pruned(id, threshold);
            let reference = reference_pruned(&set, &w, &query, id, threshold);
            match (fused, reference) {
                (PartialIpVerdict::Exact(f), PartialIpVerdict::Exact(r)) => {
                    prop_assert!((f - r).abs() < 1e-5, "exact {f} vs reference {r}");
                    prop_assert!((f - exact).abs() < 1e-5, "bound not tight: {f} vs {exact}");
                }
                // A pruned verdict (on either path) must be *sound*: the
                // true similarity really is at or below the threshold.
                // Fused and reference may legitimately disagree on
                // whether they pruned (float rounding at the boundary),
                // but neither may ever discard a better candidate.
                (PartialIpVerdict::Pruned, _) | (_, PartialIpVerdict::Pruned) => {
                    prop_assert!(exact <= threshold + 1e-4,
                        "under-pruned: exact {exact} > threshold {threshold}");
                }
            }
        }
    }

    #[test]
    fn fused_partial_queries_match_masked_weights(
        set in multi_set(5, &[8, 3]),
        w in weights(2),
        q1 in raw_vector(3),
    ) {
        let mut q1 = q1;
        prop_assume!(kernels::normalize(&mut q1));
        // Auxiliary-only query: modality 0 unsupplied.
        let query = MultiQuery::partial(vec![None, Some(q1.clone())]);
        let ev = set.query(&query, &w).unwrap();
        prop_assert!((ev.w_total() - w.sq(1)).abs() < 1e-5);
        for id in 0..5u32 {
            let reference = w.sq(1) * set.modality(1).ip_to(id, &q1);
            prop_assert!((ev.ip(id) - reference).abs() < 1e-5);
            match ev.ip_pruned(id, f32::NEG_INFINITY) {
                PartialIpVerdict::Exact(v) => prop_assert!((v - reference).abs() < 1e-5),
                PartialIpVerdict::Pruned => prop_assert!(false, "cannot prune at -inf"),
            }
        }
    }

    #[test]
    fn raw_parts_round_trip_preserves_the_engine(
        set in multi_set(4, &[5, 6]),
        w in weights(2),
    ) {
        // The binary-bundle path: raw buffer out, engine back — must be
        // byte-identical, norms included, whether the norms travel with
        // the buffer (v5) or are re-derived from it (v3).
        let back = FusedRows::from_raw_parts(
            set.dims().to_vec(),
            set.raw_data().to_vec(),
        )
        .unwrap();
        prop_assert_eq!(&set, &back);
        let with_norms = FusedRows::from_raw_parts_with_norms(
            set.dims().to_vec(),
            set.raw_data().to_vec(),
            set.seg_norms().to_vec(),
        )
        .unwrap();
        prop_assert_eq!(&set, &with_norms);
        // Weighted similarities over the round-tripped engine are
        // bit-identical to the original's.
        for a in 0..4u32 {
            for b in 0..4u32 {
                prop_assert_eq!(
                    set.weighted_pair_ip(a, b, w.squared()),
                    back.weighted_pair_ip(a, b, w.squared())
                );
            }
        }
    }

    #[test]
    fn segments_stay_lane_aligned(set in multi_set(3, &[1, 11, 16])) {
        prop_assert_eq!(set.stride() % FUSED_LANE, 0);
        for k in 0..set.num_modalities() {
            let (start, end) = set.segment_bounds(k);
            prop_assert_eq!(start % FUSED_LANE, 0);
            prop_assert_eq!(end % FUSED_LANE, 0);
            prop_assert!(end - start >= set.dims()[k]);
        }
    }
}
