//! The joint search procedure (Algorithm 2 of the paper): best-first
//! routing over a fixed-size result pool.  One hop loop, `expand`, walks
//! the one serving layout of a flat graph — a [`CsrGraph`], through
//! [`beam_search_csr`] — and one layer of an HNSW.  Construction's
//! adjacency lists are never searched: NSG / Vamana candidate acquisition
//! freezes the current lists with [`CsrGraph::from_lists`] first.

use std::cell::RefCell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::CsrGraph;
use crate::nndescent::Neighbor;
use crate::pool::Pool;
use crate::{QueryScorer, SimilarityOracle};

/// Tuning parameters of Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Number of results to return.
    pub k: usize,
    /// Result-pool size `l >= k` — the accuracy/efficiency knob
    /// (Appendix I, Tab. XII).
    pub l: usize,
    /// Whether to fill the initial pool with `l - 1` random vertices as in
    /// the paper's Line 2 (in addition to the seed).  Disabling starts from
    /// the seed alone, which is cheaper at small `l`.
    pub random_init: bool,
}

impl SearchParams {
    /// Standard parameters: pool size `l`, `k` results, random
    /// initialisation on (faithful to Algorithm 2).
    ///
    /// # Panics
    /// When `l < k` (the result pool must hold all `k` results) or
    /// `k == 0`.
    ///
    /// ```should_panic
    /// must_graph::SearchParams::new(5, 3); // l < k
    /// ```
    #[must_use]
    pub fn new(k: usize, l: usize) -> Self {
        assert!(l >= k, "pool size l must be at least k");
        assert!(k > 0, "k must be positive");
        Self { k, l, random_init: true }
    }

    /// Same but starting from the seed only.
    ///
    /// # Panics
    /// As [`SearchParams::new`]: when `l < k` or `k == 0`.
    #[must_use]
    pub fn seed_only(k: usize, l: usize) -> Self {
        Self { random_init: false, ..Self::new(k, l) }
    }
}

/// Instrumentation of one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Vertices expanded (greedy-routing iterations, `eta` in Lemma 3).
    pub hops: u64,
    /// Candidates whose similarity was evaluated (incl. pruned ones).
    pub evaluated: u64,
    /// Candidates discarded early by [`QueryScorer::score_pruned`]
    /// (the Lemma-4 optimisation; 0 when the scorer does not prune).
    pub pruned: u64,
}

/// The outcome of a search: top-`k` `(id, similarity)` pairs (descending)
/// plus instrumentation.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Approximate top-`k`, best first.
    pub results: Vec<(u32, f32)>,
    /// Run statistics.
    pub stats: SearchStats,
}

/// Marker array tracking visited/scored vertices across one search.
///
/// Generation-stamped so it can be reused across many queries without
/// clearing (allocation-free steady state, as the perf guide recommends).
#[derive(Debug, Default)]
pub struct VisitedSet {
    stamps: Vec<u32>,
    generation: u32,
}

impl VisitedSet {
    /// Grows the stamp array to cover `n` vertices without starting a new
    /// generation (allocation-only warm-up; [`VisitedSet::reset`] still
    /// runs per query).
    pub fn reserve(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
    }

    /// Prepares the set for a graph of `n` vertices and a fresh query.
    pub fn reset(&mut self, n: usize) {
        self.reserve(n);
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: clear everything once and restart at generation 1.
            self.stamps.fill(0);
            self.generation = 1;
        }
    }

    /// Marks `id`; returns `true` if it was not marked before.
    #[inline]
    pub fn mark(&mut self, id: u32) -> bool {
        let slot = &mut self.stamps[id as usize];
        if *slot == self.generation {
            false
        } else {
            *slot = self.generation;
            true
        }
    }
}

/// Reusable per-thread search state: the visited stamps *and* the result
/// pool survive across queries, so a query batch's steady state performs
/// no heap allocation inside the search loop (the returned top-`k` vector
/// is the only per-query allocation).
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Generation-stamped visited markers.
    pub visited: VisitedSet,
    /// The fixed-size result pool `R` of Algorithm 2, re-sized per query.
    pub pool: Pool,
    /// The current hop's not-yet-seen neighbours, gathered before any is
    /// scored (see [`expand`]); HNSW construction also gathers a
    /// re-pruned list's ids here.
    pub(crate) fresh: Vec<u32>,
    /// Their scores, when the scorer batches them (see
    /// [`QueryScorer::score_batch`]), or the re-pruned list's.
    pub(crate) scores: Vec<f32>,
}

impl SearchScratch {
    /// Pre-sizes the scratch for a graph of `n` vertices, moving the
    /// `O(n)` visited-stamp allocation from the first query to worker
    /// construction.  Serving workers call this up front — one scratch
    /// per shard, each sized to *its* graph.  (The pool is sized per
    /// query by [`Pool::reset`], which reuses its entry allocation
    /// across queries.)
    pub fn reserve(&mut self, n: usize) {
        self.visited.reserve(n);
    }
}

/// Runs Algorithm 2 on `graph` for the query represented by `scorer`.
///
/// `scratch` is reusable per-thread state; `rng_seed` controls the random
/// pool initialisation (Line 2).  The scorer's `score_pruned` receives the
/// pool threshold, enabling the Lemma-4 multi-vector pruning when the
/// scorer supports it.
pub fn beam_search_csr<S: QueryScorer + ?Sized>(
    graph: &CsrGraph,
    scorer: &S,
    params: SearchParams,
    scratch: &mut SearchScratch,
    rng_seed: u64,
) -> SearchResult {
    let n = graph.len();
    let mut stats = SearchStats::default();
    let SearchScratch { visited, pool, .. } = &mut *scratch;
    pool.reset(params.l, n);
    visited.reset(n);

    // Line 1-3: R = {seed} + (l-1) random vertices, scored exactly.
    let random = if params.random_init && n > 1 { (params.l - 1).min(n - 1) } else { 0 };
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let picks = (0..random).map(|_| rng.random_range(0..n as u32));
    for id in std::iter::once(graph.seed()).chain(picks) {
        if visited.mark(id) {
            offer(id, scorer, pool, &mut stats);
        }
    }

    expand(|v| graph.neighbors(v), scorer, scratch, &mut stats);
    SearchResult { results: scratch.pool.ranked(params.k), stats }
}

/// The hop loop (Lines 4-10 of Algorithm 2) every search in this crate
/// runs — CSR queries, HNSW queries, HNSW construction and NSG / Vamana
/// candidate acquisition alike:
/// expand the best unvisited pool entry until none remain.  Per hop:
/// gather the newly seen neighbours, [`QueryScorer::warm`] each, then
/// score them in the same order against the evolving pool threshold —
/// marking never depended on scoring, so the `(id, threshold)` sequence
/// is that of a mark-and-score loop, with every candidate's row fetch in
/// flight before the first kernel runs.  A scorer that batches
/// ([`QueryScorer::score_batch`]) scores the whole gather in one call
/// instead, and each score is filed in the same order against the same
/// evolving threshold.
pub(crate) fn expand<'g, S: QueryScorer + ?Sized>(
    neighbors: impl Fn(u32) -> &'g [u32],
    scorer: &S,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) {
    let SearchScratch { visited, pool, fresh, scores } = scratch;
    while let Some(idx) = pool.best_unvisited() {
        let v = pool.visit(idx);
        stats.hops += 1;
        fresh.clear();
        fresh.extend(neighbors(v).iter().copied().filter(|&u| visited.mark(u)));
        if scorer.score_batch(fresh, scores) {
            for (&u, &s) in fresh.iter().zip(scores.iter()) {
                stats.evaluated += 1;
                file(u, (s > pool.threshold()).then_some(s), scorer.is_live(u), pool, stats);
            }
            continue;
        }
        for &u in fresh.iter() {
            scorer.warm(u);
        }
        for &u in fresh.iter() {
            offer(u, scorer, pool, stats);
        }
    }
}

/// Construction's query: `sim(node, ·)`.  It never prunes, so [`expand`]
/// scores each hop's fresh neighbours as one batch
/// ([`QueryScorer::score_batch`]).  With `scored` set, every batch is also
/// appended there as it is scored: NSG / Vamana candidate acquisition keeps
/// every vertex its walk scored.
pub(crate) struct NodeScorer<'o, O> {
    pub(crate) oracle: &'o O,
    pub(crate) node: u32,
    pub(crate) scored: Option<&'o RefCell<Vec<Neighbor>>>,
}

impl<O: SimilarityOracle> QueryScorer for NodeScorer<'_, O> {
    fn score(&self, id: u32) -> f32 {
        self.oracle.sim(self.node, id)
    }

    fn score_batch(&self, ids: &[u32], out: &mut Vec<f32>) -> bool {
        out.resize(ids.len(), 0.0);
        self.oracle.sims(self.node, ids, out);
        if let Some(scored) = self.scored {
            let batch = ids.iter().zip(out.iter()).map(|(&id, &sim)| Neighbor { id, sim });
            scored.borrow_mut().extend(batch);
        }
        true
    }
}

/// Scores `id` against the pool's current threshold (the Lemma-4 hook) and
/// files the verdict: into the pool, or counted as pruned.
#[inline]
fn offer<S: QueryScorer + ?Sized>(id: u32, scorer: &S, pool: &mut Pool, stats: &mut SearchStats) {
    stats.evaluated += 1;
    file(id, scorer.score_pruned(id, pool.threshold()), scorer.is_live(id), pool, stats);
}

/// Files one verdict: a score goes into the pool, `None` counts as pruned.
#[inline]
fn file(id: u32, verdict: Option<f32>, live: bool, pool: &mut Pool, stats: &mut SearchStats) {
    match verdict {
        Some(s) => {
            pool.admit(id, s, live);
        }
        None => stats.pruned += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::LineOracle;
    use crate::{FnScorer, SimilarityOracle};

    /// A simple path graph 0-1-2-...-n-1 seeded in the middle.
    fn line_graph(n: usize) -> CsrGraph {
        let neighbors: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push((i - 1) as u32);
                }
                if i + 1 < n {
                    v.push((i + 1) as u32);
                }
                v
            })
            .collect();
        CsrGraph::from_lists(&neighbors, (n / 2) as u32)
    }

    #[test]
    fn finds_exact_nearest_on_line() {
        let n = 200;
        let g = line_graph(n);
        let oracle = LineOracle(n);
        for target in [0u32, 37, 120, 199] {
            let scorer = FnScorer(|id| oracle.sim(id, target));
            let res = beam_search_csr(&g, &scorer, SearchParams::seed_only(1, 8), &mut SearchScratch::default(), 1);
            assert_eq!(res.results[0].0, target, "target {target}");
        }
    }

    #[test]
    fn results_are_sorted_descending() {
        let n = 100;
        let g = line_graph(n);
        let scorer = FnScorer(|id| -(id as f32 - 42.0).abs());
        let res = beam_search_csr(&g, &scorer, SearchParams::new(10, 32), &mut SearchScratch::default(), 7);
        for w in res.results.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(res.results.len(), 10);
    }

    #[test]
    fn larger_l_never_reduces_top1_quality() {
        let n = 300;
        let g = line_graph(n);
        let scorer = FnScorer(|id| -(id as f32 - 7.0).abs());
        let small = beam_search_csr(&g, &scorer, SearchParams::seed_only(1, 2), &mut SearchScratch::default(), 3);
        let large = beam_search_csr(&g, &scorer, SearchParams::seed_only(1, 64), &mut SearchScratch::default(), 3);
        assert!(large.results[0].1 >= small.results[0].1);
    }

    #[test]
    fn stats_count_work() {
        let n = 50;
        let g = line_graph(n);
        let scorer = FnScorer(|id| -(id as f32));
        let res = beam_search_csr(&g, &scorer, SearchParams::new(1, 4), &mut SearchScratch::default(), 9);
        assert!(res.stats.hops >= 1);
        assert!(res.stats.evaluated >= res.stats.hops);
    }

    #[test]
    fn visited_set_generations_do_not_leak() {
        let mut v = VisitedSet::default();
        v.reset(4);
        assert!(v.mark(2));
        assert!(!v.mark(2));
        v.reset(4);
        assert!(v.mark(2), "new generation must forget old marks");
    }

    #[test]
    fn pruning_scorer_matches_exact_scorer_results() {
        // A scorer whose score_pruned discards exactly-below-threshold
        // candidates must return the same top-k as the plain scorer
        // (Lemma 4: pruning is lossless).
        struct Pruning;
        impl QueryScorer for Pruning {
            fn score(&self, id: u32) -> f32 {
                -((id as f32) - 33.0).abs()
            }
        }
        let n = 120;
        let g = line_graph(n);
        let exact = FnScorer(|id| -((id as f32) - 33.0).abs());
        let a = beam_search_csr(&g, &exact, SearchParams::seed_only(5, 16), &mut SearchScratch::default(), 1);
        let b = beam_search_csr(&g, &Pruning, SearchParams::seed_only(5, 16), &mut SearchScratch::default(), 1);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn lemma3_pool_similarity_sum_is_monotone() {
        // Instrumented re-run of the search loop checking f(eta) directly.
        let n = 400;
        let g = line_graph(n);
        let oracle = LineOracle(n);
        let target = 311u32;
        let scorer = FnScorer(|id| oracle.sim(id, target));
        let params = SearchParams::seed_only(1, 12);
        let mut visited = VisitedSet::default();
        visited.reset(n);
        let mut pool = Pool::new(params.l, n);
        let s0 = scorer.score(g.seed());
        pool.insert(g.seed(), s0);
        visited.mark(g.seed());
        let mut last_sum = f64::NEG_INFINITY;
        while let Some(idx) = pool.best_unvisited() {
            let v = pool.visit(idx);
            for &u in g.neighbors(v) {
                if visited.mark(u) {
                    let s = scorer.score(u);
                    if s > pool.threshold() {
                        pool.insert(u, s);
                    }
                }
            }
            let sum = pool.sim_sum();
            // Only comparable once the pool is full (fixed cardinality).
            if pool.is_full() {
                assert!(sum >= last_sum - 1e-9, "f(eta) decreased: {sum} < {last_sum}");
                last_sum = sum;
            }
        }
    }

    /// Records every scorer call as `(id, threshold bits)`; plain `score`
    /// calls record `u64::MAX` in the threshold slot.
    struct Recording<F: Fn(u32) -> f32> {
        f: F,
        calls: std::cell::RefCell<Vec<u64>>,
    }

    impl<F: Fn(u32) -> f32> QueryScorer for Recording<F> {
        fn score(&self, id: u32) -> f32 {
            self.calls.borrow_mut().extend([u64::from(id), u64::MAX]);
            (self.f)(id)
        }
        fn score_pruned(&self, id: u32, threshold: f32) -> Option<f32> {
            self.calls.borrow_mut().extend([u64::from(id), u64::from(threshold.to_bits())]);
            let s = (self.f)(id);
            (s > threshold).then_some(s)
        }
    }

    /// FNV-1a over 16 queries' scorer-call sequences, results and stats.
    fn walk_hash(
        mut walk: impl FnMut(&dyn QueryScorer, u32) -> SearchResult,
        oracle: &crate::testutil::RandOracle,
    ) -> u64 {
        let mut words = Vec::new();
        for q in 0..16u32 {
            let target = (q * 37) % oracle.len() as u32;
            let rec = Recording { f: |id| oracle.sim(id, target), calls: Default::default() };
            let res = walk(&rec, q);
            words.append(&mut rec.calls.borrow_mut());
            words.extend(res.results.iter().flat_map(|&(id, s)| [u64::from(id), u64::from(s.to_bits())]));
            words.extend([res.stats.hops, res.stats.evaluated, res.stats.pruned]);
        }
        crate::testutil::fnv1a(words)
    }

    #[test]
    fn every_walk_makes_the_golden_scorer_call_sequence() {
        // Hashes taken on the last commit with three hand-copied
        // mark-and-score hop loops (7c10633): the shared gather-warm-score
        // `expand` must present every scorer with the same `(id, threshold)`
        // sequence, results and stats, bit for bit.
        let oracle = crate::testutil::RandOracle::new(1_500, 8, 0xFACE);
        let hnsw = crate::hnsw::Hnsw::build_with_threads(
            &oracle,
            crate::hnsw::HnswParams { m: 8, ef_construction: 48, rng_seed: 5 },
            2,
        );
        let (csr, _) =
            crate::PipelineBuilder { gamma: 10, threads: 2, ..Default::default() }.build(&oracle);
        let mut scratch = SearchScratch::default();
        let seed_only = SearchParams::seed_only(10, 40);
        let random = SearchParams::new(10, 40);
        let rng = |q: u32| 0x5E7E + u64::from(q);
        let h = walk_hash(|s, _| hnsw.search_with_scratch(s, seed_only, &mut scratch), &oracle);
        assert_eq!(h, 0xf41b_619f_527b_6cc4, "HNSW");
        let h = walk_hash(|s, q| beam_search_csr(&csr, s, random, &mut scratch, rng(q)), &oracle);
        assert_eq!(h, 0x39c3_9ff5_56c6_2a58, "CSR, random_init");
        let h = walk_hash(|s, q| beam_search_csr(&csr, s, seed_only, &mut scratch, rng(q)), &oracle);
        assert_eq!(h, 0xdd02_5d57_f47a_3e9a, "CSR, seed only");
    }
}

