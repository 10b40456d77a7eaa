//! The Section III baselines, pinned: every MR, MR-- and JE answer over a
//! fixed corpus hashes to one constant, and a caller's mistake (`k = 0`,
//! `l < k`, `l_candidates = 0`, a wrong-dimension slot) is a typed error
//! or a clamp — as on `Must::search` — never a panic.

use must::core::baselines::{mr_brute_force, JointEmbedding, MultiStreamedRetrieval};
use must::core::MustError;
use must::graph::search::SearchScratch;
use must::prelude::*;

/// Deterministic pseudo-random corpus: `n` objects, two modalities.
fn corpus(n: usize, d0: usize, d1: usize, seed: u64) -> MultiVectorSet {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    };
    let mut m0 = VectorSetBuilder::new(d0, n);
    let mut m1 = VectorSetBuilder::new(d1, n);
    for _ in 0..n {
        let v0: Vec<f32> = (0..d0).map(|_| next()).collect();
        let v1: Vec<f32> = (0..d1).map(|_| next()).collect();
        m0.push_normalized(&v0).unwrap();
        m1.push_normalized(&v1).unwrap();
    }
    MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap()
}

/// Query `q`: one object's image row beside another object's text row.
fn query(set: &MultiVectorSet, q: u32) -> MultiQuery {
    let n = set.len() as u32;
    MultiQuery::full(vec![
        set.modality(0).get((q * 19) % n).to_vec(),
        set.modality(1).get((q * 19 + 7) % n).to_vec(),
    ])
}

/// FNV-1a over a word stream, each word as 8 little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn baseline_answers_match_the_golden_hashes() {
    // 1 000 objects, 50 queries: MR over its per-modality graphs at two
    // candidate sizes, the exact MR--, and JE over the target graph.
    let set = corpus(1_000, 16, 12, 0xBA5E);
    let mr = MultiStreamedRetrieval::build(&set, 12);
    let je = JointEmbedding::build(&set, 12);
    let mut scratch = SearchScratch::default();
    let (mut mr_words, mut exact_words, mut je_words) = (Vec::new(), Vec::new(), Vec::new());
    for q in 0..50 {
        let q = query(&set, q);
        for l in [20, 60] {
            let out = mr.search(&q, 10, l, &mut scratch).unwrap();
            mr_words.push(out.intersection_size as u64);
            mr_words.extend(out.results.iter().map(|&id| u64::from(id)));
        }
        let (results, intersection_size) = mr_brute_force(&set, &q, 10, 60);
        exact_words.push(intersection_size as u64);
        exact_words.extend(results.iter().map(|&id| u64::from(id)));
        let res = je.search(&q, 10, 40, &mut scratch).unwrap();
        je_words.extend(res.iter().flat_map(|&(id, s)| [u64::from(id), u64::from(s.to_bits())]));
    }
    let got = (fnv1a(mr_words), fnv1a(exact_words), fnv1a(je_words));
    assert_eq!(
        got,
        (0x8FEA_48EF_E356_7976, 0xD164_10BB_49C2_C405, 0x0B74_BC95_A6E9_96F1),
        "MR, MR--, JE: {:#018X} {:#018X} {:#018X}",
        got.0,
        got.1,
        got.2
    );
}

#[test]
fn je_refuses_k_zero_and_clamps_l_below_k() {
    let set = corpus(200, 16, 12, 0x1E);
    let je = JointEmbedding::build(&set, 8);
    let mut scratch = SearchScratch::default();
    let q = query(&set, 3);
    assert!(matches!(je.search(&q, 0, 10, &mut scratch), Err(MustError::Config(_))));
    let clamped = je.search(&q, 10, 5, &mut scratch).unwrap();
    assert_eq!(clamped, je.search(&q, 10, 10, &mut scratch).unwrap(), "l < k searches at l = k");
}

#[test]
fn mr_refuses_zero_candidates_and_wrong_dimension_slots() {
    let set = corpus(200, 16, 12, 0x3E);
    let mr = MultiStreamedRetrieval::build(&set, 8);
    let q = query(&set, 5);
    let wrong_dim = MultiQuery::full(vec![set.modality(0).get(0).to_vec(), vec![1.0, 0.0]]);
    let mut scratch = SearchScratch::default();
    assert!(matches!(mr.search(&q, 5, 0, &mut scratch), Err(MustError::Config(_))));
    assert!(matches!(mr.search(&wrong_dim, 5, 20, &mut scratch), Err(MustError::Vector(_))));
    assert!(mr.search(&q, 5, 20, &mut scratch).is_ok());
}
