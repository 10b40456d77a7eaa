//! The search outcome every searcher returns, the request-parameter
//! check, the brute-force searcher (`MUST--`), and exact ground-truth
//! computation for the semi-synthetic workloads.  Algorithm 2 over the
//! fused index runs in one place, [`crate::server::ServerWorker`], for an
//! offline [`crate::Must`] and a frozen [`crate::MustServer`] alike.  The
//! exact scan is one body, `scan`: `MUST--` ([`brute_force_search`],
//! [`crate::Must::brute_force`]) runs it one query at a time, and
//! [`exact_ground_truth`] four queries per pass over the rows.  It scores
//! through the [`FusedQueryEvaluator`] that
//! [`crate::MustQueryScorer::from_rows`] wraps for the graph walk.  The
//! per-modality exact top-`k` of the `MR--` and JE baselines,
//! [`modality_top_k`], lives here too.  Every exact ranking fills a
//! [`must_graph::Pool`], the walk's own bounded top-`k`, with ids in
//! ascending order, so it answers in [`must_graph::answer_order`].

use std::time::Instant;

use must_graph::{Pool, SearchParams, SearchStats};
use must_vector::{
    kernels, FusedQueryEvaluator, FusedRows, ModalityView, MultiQuery, MultiVectorSet, ObjectId,
    PartialIpVerdict, Weights,
};

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
/// against the running top-`k` threshold.  The one scan body at width 1.
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
    exact_scan(rows, query, weights, k, prune, |_| true)
}

/// [`brute_force_search`] over the rows `live` accepts: the others are
/// skipped inside the scan (neither scored nor counted), so the top-`k`
/// is exact over the live rows with no over-fetch.
pub(crate) fn exact_scan(
    rows: &FusedRows,
    query: &MultiQuery,
    weights: &Weights,
    k: usize,
    prune: bool,
    live: impl Fn(ObjectId) -> bool,
) -> Result<SearchOutcome, MustError> {
    positive_k(k)?;
    let eval = rows.query(query, weights)?;
    let t0 = Instant::now();
    let (pool, stats) = scan(std::slice::from_ref(&eval), rows.len(), k, prune, live)
        .pop()
        .expect("one query, one top list");
    Ok(SearchOutcome {
        results: pool.top_k(k),
        stats,
        kernel_evals: eval.kernel_evals(),
        secs: t0.elapsed().as_secs_f64(),
    })
}

/// Exact top-`k` ground truth for a batch of queries under `weights`
/// (the protocol of the efficiency experiments: Figs. 6–8, Tab. VII).
/// Queries go in order in blocks of four, one block per
/// [`must_graph::par::par_map`] item, each block one pass over the rows.
///
/// # Errors
/// As [`brute_force_search`].
pub fn exact_ground_truth(
    set: &MultiVectorSet,
    weights: &Weights,
    queries: &[MultiQuery],
    k: usize,
) -> Result<Vec<Vec<ObjectId>>, MustError> {
    ground_truth_on(set.fused(), weights, queries, k, must_graph::par::build_threads())
}

/// [`exact_ground_truth`] on `threads` workers.
fn ground_truth_on(
    rows: &FusedRows,
    weights: &Weights,
    queries: &[MultiQuery],
    k: usize,
    threads: usize,
) -> Result<Vec<Vec<ObjectId>>, MustError> {
    positive_k(k)?;
    let blocks = queries.chunks(BLOCK).collect::<Vec<_>>();
    let out = must_graph::par::par_map(blocks.len(), threads, |b| {
        let evals = blocks[b]
            .iter()
            .map(|q| rows.query(q, weights))
            .collect::<Result<Vec<_>, _>>()?;
        let tops = scan(&evals, rows.len(), k, true, |_| true);
        Ok(tops.into_iter().map(|(pool, _)| pool.entries().iter().map(|e| e.id).collect()).collect())
    });
    let blocks: Vec<Vec<Vec<ObjectId>>> = out.into_iter().collect::<Result<_, MustError>>()?;
    Ok(blocks.into_iter().flatten().collect())
}

/// Queries per pass of the exact scan: [`kernels::l2_sq4`]'s width.
///
/// [`kernels::l2_sq4`]: must_vector::kernels::l2_sq4
const BLOCK: usize = 4;

/// The one exact scan body: rows `0..n` in order, those `live` accepts,
/// for a block of one to [`BLOCK`] queries over one `n`-row engine.  A
/// full block of one layout ([`FusedQueryEvaluator::same_layout`]) under
/// pruning shares each row pass across its four queries
/// ([`FusedQueryEvaluator::ip_pruned4`]); any other block runs query by
/// query through the width-1 calls, `ip_pruned` (or `ip` unpruned).
/// Either way each query's scores, verdicts, top list and counters are
/// those of its own width-1 scan, bit for bit.  Each query's top list is a
/// [`Pool`] of capacity `k`: rows arrive in id order and a tie files
/// behind its equals, so the pool is ranked by [`must_graph::answer_order`].
fn scan(
    evals: &[FusedQueryEvaluator<'_>],
    n: usize,
    k: usize,
    prune: bool,
    live: impl Fn(ObjectId) -> bool,
) -> Vec<(Pool, SearchStats)> {
    let mut tops: Vec<(Pool, SearchStats)> =
        evals.iter().map(|_| (Pool::new(k, n), SearchStats::default())).collect();
    let n = n as ObjectId;
    match <&[FusedQueryEvaluator<'_>; BLOCK]>::try_from(evals) {
        Ok(quad) if prune && quad.iter().all(|e| quad[0].same_layout(e)) => {
            for id in (0..n).filter(|&id| live(id)) {
                let thresholds: [f32; BLOCK] = std::array::from_fn(|j| tops[j].0.threshold());
                let verdicts = FusedQueryEvaluator::ip_pruned4(quad, id, thresholds);
                for ((top, threshold), verdict) in tops.iter_mut().zip(thresholds).zip(verdicts) {
                    offer(top, id, threshold, verdict);
                }
            }
        }
        _ => {
            for (eval, top) in evals.iter().zip(&mut tops) {
                for id in (0..n).filter(|&id| live(id)) {
                    let threshold = top.0.threshold();
                    let verdict = if prune {
                        eval.ip_pruned(id, threshold)
                    } else {
                        PartialIpVerdict::Exact(eval.ip(id))
                    };
                    offer(top, id, threshold, verdict);
                }
            }
        }
    }
    tops
}

/// Files row `id`'s verdict, scored against the pool's `threshold`: a
/// score above it, or any while the pool has room, goes in.
#[inline]
fn offer(top: &mut (Pool, SearchStats), id: ObjectId, threshold: f32, verdict: PartialIpVerdict) {
    let (pool, stats) = top;
    stats.evaluated += 1;
    match verdict {
        PartialIpVerdict::Exact(s) => {
            if s > threshold || !pool.is_full() {
                pool.insert(id, s);
            }
        }
        PartialIpVerdict::Pruned => stats.pruned += 1,
    }
}

/// Exact top-`k` `(id, inner product)` of one modality's rows to `query`,
/// ranked by [`must_graph::answer_order`]: the single-modality scan behind
/// the `MR--` and JE baselines and the single-modality tables.  `k = 0`
/// returns nothing.
#[must_use]
pub fn modality_top_k(view: ModalityView<'_>, query: &[f32], k: usize) -> Vec<(ObjectId, f32)> {
    if k == 0 {
        return Vec::new();
    }
    let mut pool = Pool::new(k, view.len());
    for (id, v) in view.iter() {
        let s = kernels::ip(v, query);
        if s > pool.threshold() || !pool.is_full() {
            pool.insert(id, s);
        }
    }
    pool.top_k(k)
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

    /// `corpus(n)` with rows `3, 40, 41, 77` copied bit for bit into
    /// rows `4, 90, 42, n - 1`: ties the scan must break by id.
    fn corpus_with_duplicates(n: usize) -> MultiVectorSet {
        let set = corpus(n);
        let mut data = set.fused().raw_data().to_vec();
        let stride = set.fused().stride();
        for (from, to) in [(3usize, 4usize), (40, 90), (41, 42), (77, n - 1)] {
            data.copy_within(from * stride..(from + 1) * stride, to * stride);
        }
        MultiVectorSet::from_fused(FusedRows::from_raw_parts(set.fused().dims().to_vec(), data).unwrap())
    }

    /// A full self-query of `id`, or one with modality `drop` left out.
    fn query_of(set: &MultiVectorSet, id: ObjectId, drop: Option<usize>) -> MultiQuery {
        MultiQuery::partial(
            (0..2).map(|m| (drop != Some(m)).then(|| set.modality(m).get(id).to_vec())).collect(),
        )
    }

    #[test]
    fn a_block_of_four_is_four_width_one_scans_bit_for_bit() {
        let set = corpus_with_duplicates(300);
        let rows = set.fused();
        let w = Weights::new(vec![0.9, 0.3]).unwrap();
        let queries: Vec<MultiQuery> = [3u32, 41, 77, 150].map(|id| query_of(&set, id, None)).into();
        for k in [1usize, 7, 300, 305] {
            let quad: Vec<_> = queries.iter().map(|q| rows.query(q, &w).unwrap()).collect();
            let block = scan(&quad, rows.len(), k, true, |_| true);
            for ((q, eval), (pool, stats)) in queries.iter().zip(&quad).zip(block) {
                let want = brute_force_search(rows, q, &w, k, true).unwrap();
                let got = pool.top_k(k);
                assert_eq!(got.len(), k.min(rows.len()));
                let bits = |r: &[(ObjectId, f32)]| {
                    r.iter().map(|&(id, s)| (id, s.to_bits())).collect::<Vec<_>>()
                };
                assert_eq!(bits(&got), bits(&want.results), "k {k}");
                assert_eq!(stats, want.stats, "k {k}");
                assert_eq!(eval.kernel_evals(), want.kernel_evals, "k {k}");
            }
        }
    }

    #[test]
    fn ground_truth_is_brute_force_for_every_block_shape_and_thread_count() {
        let set = corpus_with_duplicates(240);
        let rows = set.fused();
        let w = Weights::new(vec![0.8, 0.5]).unwrap();
        // Blocks: four full queries (one pass), two with partial queries
        // mixed in (layouts differ), and a remainder of one.
        let plan = [
            (3u32, None),
            (40, None),
            (41, None),
            (77, None),
            (4, Some(1)),
            (90, None),
            (120, Some(0)),
            (42, None),
            (200, None),
            (77, Some(1)),
            (5, Some(1)),
            (6, Some(1)),
            (239, None),
        ];
        let queries: Vec<MultiQuery> = plan.iter().map(|&(id, drop)| query_of(&set, id, drop)).collect();
        for k in [1usize, 10, 240, 250] {
            let want: Vec<Vec<ObjectId>> = queries
                .iter()
                .map(|q| {
                    let out = brute_force_search(rows, q, &w, k, true).unwrap();
                    out.results.into_iter().map(|(id, _)| id).collect()
                })
                .collect();
            for threads in [1usize, 2, 3] {
                for count in [1, 4, 5, 8, 9, queries.len()] {
                    let got = ground_truth_on(rows, &w, &queries[..count], k, threads).unwrap();
                    assert_eq!(got, want[..count], "k {k}, T {threads}, {count} queries");
                }
            }
        }
    }

    /// Rows `[1, 0, 0, 0]`, `[1, 1, 0, 0]` and `[0, 0, 3, 4]`, normalised,
    /// as the one modality.
    fn three_rows() -> MultiVectorSet {
        let mut b = VectorSetBuilder::new(4, 3);
        b.push_normalized(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        b.push_normalized(&[1.0, 1.0, 0.0, 0.0]).unwrap();
        b.push_normalized(&[0.0, 0.0, 3.0, 4.0]).unwrap();
        MultiVectorSet::new(vec![b.finish()]).unwrap()
    }

    #[test]
    fn modality_top_k_is_sorted_and_exact() {
        let set = three_rows();
        let top = modality_top_k(set.modality(0), &[1.0, 0.0, 0.0, 0.0], 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 0);
        assert!((top[0].1 - 1.0).abs() < 1e-5);
        assert_eq!(top[1].0, 1);
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn modality_top_k_handles_k_larger_than_n() {
        let set = three_rows();
        let top = modality_top_k(set.modality(0), &[0.0, 0.0, 0.0, 1.0], 10);
        assert_eq!(top.len(), 3);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert!(modality_top_k(set.modality(0), &[0.0; 4], 0).is_empty());
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
