//! Evaluation metrics: `Recall@k(k')` (Eq. 1) and the similarity
//! measurement error `SME` (Eq. 4).

use must_vector::{FusedRows, ObjectId};

/// `Recall@k(k') = |R ∩ G| / k'` where `R` is the top-`k` result ids and
/// `G` the ground-truth ids (Eq. 1).
///
/// Passing more than `k` results is allowed; only the first `k` count.
#[must_use]
pub fn recall_at(results: &[ObjectId], ground_truth: &[ObjectId], k: usize) -> f64 {
    if ground_truth.is_empty() {
        return 0.0;
    }
    let hits = results
        .iter()
        .take(k)
        .filter(|id| ground_truth.contains(id))
        .count();
    hits as f64 / ground_truth.len() as f64
}

/// `SME(a, r) = 1 - IP(phi_0(a_0), phi_0(r_0))` (Eq. 4): how far the
/// returned object's target-modality content is from the ground truth's.
#[must_use]
pub fn sme(objects: &FusedRows, truth: ObjectId, returned: ObjectId) -> f64 {
    1.0 - objects.modality(0).ip(truth, returned) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use must_vector::VectorSetBuilder;

    fn objects() -> FusedRows {
        let mut m0 = VectorSetBuilder::new(3, 3);
        m0.push_normalized(&[1.0, 0.0, 0.0]).unwrap();
        m0.push_normalized(&[0.6, 0.8, 0.0]).unwrap();
        m0.push_normalized(&[0.0, 0.0, 1.0]).unwrap();
        FusedRows::new(vec![m0.finish()]).unwrap()
    }

    #[test]
    fn recall_counts_hits_within_k() {
        assert_eq!(recall_at(&[1, 2, 3], &[2], 1), 0.0);
        assert_eq!(recall_at(&[1, 2, 3], &[2], 2), 1.0);
        assert_eq!(recall_at(&[1, 2, 3], &[2, 9], 3), 0.5);
        assert_eq!(recall_at(&[], &[1], 5), 0.0);
        assert_eq!(recall_at(&[1], &[], 5), 0.0, "no ground truth yields 0");
    }

    #[test]
    fn recall_at_10_of_10_truths_all_found() {
        let truths: Vec<u32> = (0..10).collect();
        let results: Vec<u32> = (0..10).rev().collect();
        assert_eq!(recall_at(&results, &truths, 10), 1.0);
    }

    #[test]
    fn sme_is_zero_for_exact_hit_and_positive_otherwise() {
        let objs = objects();
        assert!(sme(&objs, 0, 0) < 1e-6);
        let e = sme(&objs, 0, 1);
        assert!((e - 0.4).abs() < 1e-5, "1 - 0.6 expected, got {e}");
        assert!((sme(&objs, 0, 2) - 1.0).abs() < 1e-5);
    }
}
