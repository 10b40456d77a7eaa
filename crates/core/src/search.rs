//! The search outcome every searcher returns, the request-parameter
//! check, the brute-force searcher (`MUST--`), and exact ground-truth
//! computation for the semi-synthetic workloads.  Algorithm 2 over the
//! fused index runs in one place, [`crate::server::ServerWorker`], for an
//! offline [`crate::Must`] and a frozen [`crate::MustServer`] alike.  The
//! exact scan scores through the same [`MustQueryScorer::from_rows`] the
//! graph walk does, taking its arguments in that order.

use std::time::Instant;

use must_graph::{QueryScorer, SearchParams, SearchStats};
use must_vector::{FusedRows, MultiQuery, MultiVectorSet, ObjectId, Weights};

use crate::oracle::MustQueryScorer;
use crate::MustError;

/// `SearchParams::new(k, max(l, k))` for a caller-supplied `(k, l)`.  A
/// request for zero results is the caller's mistake, not a broken
/// invariant: it is refused here with a typed error and never reaches
/// [`SearchParams::new`]'s panic — which, on a serve-runtime worker, would
/// take the worker and then `shutdown()` down with it.
pub(crate) fn request_params(k: usize, l: usize) -> Result<SearchParams, MustError> {
    positive_k(k)?;
    Ok(SearchParams::new(k, l.max(k)))
}

/// Refuses `k = 0` for every searcher, graph walk and exact scan alike.
pub(crate) fn positive_k(k: usize) -> Result<(), MustError> {
    if k == 0 {
        return Err(MustError::Config("k must be positive: a search returns at least one result".into()));
    }
    Ok(())
}

/// One search outcome with instrumentation.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Top-`k` `(id, joint similarity)`, best first.
    pub results: Vec<(ObjectId, f32)>,
    /// Graph-search statistics.
    pub stats: SearchStats,
    /// Per-modality kernel evaluations (the Lemma-4 ablation counter).
    pub kernel_evals: u64,
    /// Wall-clock seconds.
    pub secs: f64,
}

/// Brute-force joint top-`k` (the `MUST--` baseline) of `query` under
/// `weights`: scans every row, still benefiting from the Lemma-4 pruning
/// against the running top-`k` threshold.
///
/// # Errors
/// Propagates weight/query/corpus arity mismatches;
/// [`MustError::Config`] for `k = 0`.
pub fn brute_force_search(
    rows: &FusedRows,
    query: &MultiQuery,
    weights: &Weights,
    k: usize,
    prune: bool,
) -> Result<SearchOutcome, MustError> {
    positive_k(k)?;
    let scorer = MustQueryScorer::from_rows(rows, query, weights, prune)?;
    let t0 = Instant::now();
    let n = rows.len();
    let mut top: Vec<(ObjectId, f32)> = Vec::with_capacity(k + 1);
    let mut stats = SearchStats::default();
    for id in 0..n as u32 {
        stats.evaluated += 1;
        let threshold = if top.len() == k {
            top[k - 1].1
        } else {
            f32::NEG_INFINITY
        };
        match scorer.score_pruned(id, threshold) {
            Some(s) => {
                if top.len() < k || s > threshold {
                    let pos = top.partition_point(|t| t.1 >= s);
                    top.insert(pos, (id, s));
                    if top.len() > k {
                        top.pop();
                    }
                }
            }
            None => stats.pruned += 1,
        }
    }
    Ok(SearchOutcome {
        results: top,
        stats,
        kernel_evals: scorer.kernel_evals(),
        secs: t0.elapsed().as_secs_f64(),
    })
}

/// Exact top-`k` ground truth for a batch of queries under `weights`
/// (the protocol of the efficiency experiments: Figs. 6–8, Tab. VII).
/// Parallel over queries.
pub fn exact_ground_truth(
    set: &MultiVectorSet,
    weights: &Weights,
    queries: &[MultiQuery],
    k: usize,
) -> Result<Vec<Vec<ObjectId>>, MustError> {
    let threads = must_graph::par::build_threads();
    let out = must_graph::par::par_map(queries.len(), threads, |qi| {
        brute_force_search(set.fused(), &queries[qi], weights, k, true)
            .map(|o| o.results.into_iter().map(|(id, _)| id).collect::<Vec<_>>())
    });
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{Must, MustBuildOptions};
    use crate::index::build_index;
    use crate::oracle::JointOracle;
    use must_vector::VectorSetBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(n: usize) -> MultiVectorSet {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m0 = VectorSetBuilder::new(8, n);
        let mut m1 = VectorSetBuilder::new(4, n);
        for _ in 0..n {
            let v0: Vec<f32> = (0..8).map(|_| rng.random::<f32>() - 0.5).collect();
            let v1: Vec<f32> = (0..4).map(|_| rng.random::<f32>() - 0.5).collect();
            m0.push_normalized(&v0).unwrap();
            m1.push_normalized(&v1).unwrap();
        }
        MultiVectorSet::new(vec![m0.finish(), m1.finish()]).unwrap()
    }

    fn query_for(set: &MultiVectorSet, id: ObjectId) -> MultiQuery {
        MultiQuery::full(vec![
            set.modality(0).get(id).to_vec(),
            set.modality(1).get(id).to_vec(),
        ])
    }

    #[test]
    fn brute_force_finds_self_as_top1() {
        let set = corpus(200);
        let w = Weights::uniform(2);
        for id in [0u32, 57, 199] {
            let q = query_for(&set, id);
            let out = brute_force_search(set.fused(), &q, &w, 3, true).unwrap();
            assert_eq!(out.results[0].0, id);
        }
    }

    #[test]
    fn pruned_and_unpruned_brute_force_agree() {
        let set = corpus(150);
        let w = Weights::new(vec![0.9, 0.3]).unwrap();
        for id in [5u32, 99] {
            let q = query_for(&set, id);
            let a = brute_force_search(set.fused(), &q, &w, 10, true).unwrap();
            let b = brute_force_search(set.fused(), &q, &w, 10, false).unwrap();
            let ids_a: Vec<u32> = a.results.iter().map(|r| r.0).collect();
            let ids_b: Vec<u32> = b.results.iter().map(|r| r.0).collect();
            assert_eq!(ids_a, ids_b, "Lemma 4 must be lossless");
            assert!(a.kernel_evals <= b.kernel_evals, "pruning must save kernels");
        }
    }

    #[test]
    fn graph_search_reaches_brute_force_at_large_l() {
        let set = corpus(400);
        let weights = Weights::uniform(2);
        let oracle = JointOracle::new(&set, &weights).unwrap();
        let (index, _) =
            build_index(&oracle, &MustBuildOptions { gamma: 12, ..Default::default() }).unwrap();
        let must = Must::from_parts(set.clone(), weights.clone(), index, MustBuildOptions::default()).unwrap();
        let mut worker = must.worker();
        let mut hits = 0;
        let total = 25;
        for t in 0..total {
            let id = (t * 16) as u32 % 400;
            let q = query_for(&set, id);
            let exact = brute_force_search(set.fused(), &q, &weights, 1, true).unwrap();
            let approx = worker.search(&q, 1, 100).unwrap();
            if approx.results[0].0 == exact.results[0].0 {
                hits += 1;
            }
        }
        assert!(hits >= total - 1, "recall {hits}/{total}");
        // k = 0 is the caller's mistake on the exact scan as on the graph.
        let q = query_for(&set, 0);
        assert!(matches!(must.search(&q, 0, 100), Err(MustError::Config(_))));
        assert!(matches!(must.brute_force(&q, 0), Err(MustError::Config(_))));
    }

    #[test]
    fn exact_ground_truth_is_consistent_with_brute_force() {
        let set = corpus(120);
        let w = Weights::uniform(2);
        let queries: Vec<MultiQuery> = (0..6).map(|i| query_for(&set, i * 17)).collect();
        let gt = exact_ground_truth(&set, &w, &queries, 5).unwrap();
        assert_eq!(gt.len(), 6);
        for (q, g) in queries.iter().zip(&gt) {
            let bf = brute_force_search(set.fused(), q, &w, 5, false).unwrap();
            let ids: Vec<u32> = bf.results.iter().map(|r| r.0).collect();
            assert_eq!(&ids, g);
        }
        // k = 0 is refused as the graph walk refuses it, never a panic.
        let zero = brute_force_search(set.fused(), &queries[0], &w, 0, true);
        assert!(matches!(zero, Err(MustError::Config(_))));
        assert!(matches!(exact_ground_truth(&set, &w, &queries, 0), Err(MustError::Config(_))));
    }

    #[test]
    fn partial_query_searches_with_masked_weights() {
        let set = corpus(200);
        let w = Weights::uniform(2);
        // Text-only query (t = 1, auxiliary only).
        let q = MultiQuery::partial(vec![None, Some(set.modality(1).get(42).to_vec())]);
        let out = brute_force_search(set.fused(), &q, &w, 1, true).unwrap();
        assert_eq!(out.results[0].0, 42);
    }
}
