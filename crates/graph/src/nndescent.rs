//! Component ① — initialisation: random neighbours refined by NNDescent
//! (Lines 2–8 of Algorithm 1).
//!
//! This is the synchronous variant: every iteration reads a snapshot of the
//! current graph (forward + reverse + two-hop neighbours) and rebuilds each
//! vertex's list in parallel.  The paper reports that three iterations reach
//! >= 99 % graph quality (Tab. XI); our evaluation reproduces that.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::par::{par_map, par_map_with};
use crate::search::VisitedSet;
use crate::SimilarityOracle;

/// A scored neighbour candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Vertex id.
    pub id: u32,
    /// Similarity to the owning vertex.
    pub sim: f32,
}

/// A bounded neighbour list kept sorted by descending similarity.
pub type NeighborList = Vec<Neighbor>;

/// Inserts `cand` into the sorted `list`, keeping at most `cap` entries.
/// Returns `true` if the candidate was kept.  Duplicates (same id) are
/// rejected.
pub fn insert_bounded(list: &mut NeighborList, cand: Neighbor, cap: usize) -> bool {
    if list.len() == cap && cand.sim <= list[cap - 1].sim {
        return false;
    }
    if list.iter().any(|n| n.id == cand.id) {
        return false;
    }
    let pos = list.partition_point(|n| n.sim >= cand.sim);
    list.insert(pos, cand);
    if list.len() > cap {
        list.pop();
    }
    true
}

/// Per-worker scratch for scoring a vertex's candidates as one batch:
/// visited stamps (membership in O(1)), the ids gathered since the last
/// [`Gather::drain_scored`] in first-seen order, and their similarities.
/// Marking never depends on a score, so gathering first and scoring the
/// batch offers every candidate in the order a mark-and-score loop did,
/// with the same similarity bits ([`SimilarityOracle::sims`]).
#[derive(Debug, Default)]
pub(crate) struct Gather {
    visited: VisitedSet,
    ids: Vec<u32>,
    sims: Vec<f32>,
}

impl Gather {
    /// Forgets every mark and gathered id, for a walk over `n` vertices.
    pub(crate) fn reset(&mut self, n: usize) {
        self.visited.reset(n);
        self.ids.clear();
    }

    /// Marks `id` seen without gathering it.
    pub(crate) fn mark(&mut self, id: u32) {
        self.visited.mark(id);
    }

    /// Gathers `id` the first time it is offered.
    pub(crate) fn offer(&mut self, id: u32) {
        if self.visited.mark(id) {
            self.ids.push(id);
        }
    }

    /// Scores the gathered ids against `a` in one batch and hands them
    /// out, scored, in gather order.
    pub(crate) fn drain_scored<O: SimilarityOracle>(
        &mut self,
        oracle: &O,
        a: u32,
    ) -> impl Iterator<Item = Neighbor> + '_ {
        self.sims.resize(self.ids.len(), 0.0);
        oracle.sims(a, &self.ids, &mut self.sims);
        self.ids.drain(..).zip(&self.sims).map(|(id, &sim)| Neighbor { id, sim })
    }
}

/// Random initial neighbour lists (Line 3 of Algorithm 1): `gamma` distinct
/// random neighbours per vertex, scored.
pub fn random_init<O: SimilarityOracle>(
    oracle: &O,
    gamma: usize,
    seed: u64,
    threads: usize,
) -> Vec<NeighborList> {
    let n = oracle.len();
    par_map(n, threads, |o| {
        let mut rng = StdRng::seed_from_u64(seed ^ (o as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut list = NeighborList::with_capacity(gamma);
        let mut tries = 0;
        while list.len() < gamma.min(n.saturating_sub(1)) && tries < gamma * 8 {
            tries += 1;
            let id = rng.random_range(0..n as u32);
            if id as usize == o {
                continue;
            }
            let sim = oracle.sim(o as u32, id);
            insert_bounded(&mut list, Neighbor { id, sim }, gamma);
        }
        list
    })
}

/// One synchronous NNDescent iteration: for every vertex, examine forward,
/// reverse, and two-hop neighbours from the snapshot and keep the best
/// `gamma`.  Returns the updated lists and the number of list changes
/// (useful for convergence checks).
pub fn nndescent_iteration<O: SimilarityOracle>(
    oracle: &O,
    lists: &[NeighborList],
    gamma: usize,
    threads: usize,
) -> (Vec<NeighborList>, usize) {
    let n = lists.len();
    // Reverse edges, capped at gamma per vertex to bound hub cost.
    let reverse = {
        let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (o, list) in lists.iter().enumerate() {
            for nb in list {
                let r = &mut rev[nb.id as usize];
                if r.len() < gamma {
                    r.push(o as u32);
                }
            }
        }
        rev
    };

    // One gather per worker, re-stamped per vertex: membership is O(1),
    // the candidates are offered in the order a sorted list saw them, and
    // all of a vertex's new candidates are scored as one batch.
    let updated = par_map_with(n, threads, Gather::default, |gather, o| {
        let me = o as u32;
        gather.reset(n);
        gather.mark(me);
        for nb in &lists[o] {
            gather.mark(nb.id);
        }
        // Reverse neighbours join the pool directly.
        for &r in &reverse[o] {
            gather.offer(r);
        }
        // Two-hop: neighbours of (forward + reverse) neighbours.
        for v in lists[o].iter().map(|nb| nb.id).chain(reverse[o].iter().copied()) {
            for nb in &lists[v as usize] {
                gather.offer(nb.id);
            }
        }
        let mut list = lists[o].clone();
        let mut changed = false;
        for cand in gather.drain_scored(oracle, me) {
            changed |= insert_bounded(&mut list, cand, gamma);
        }
        (list, changed)
    });

    let changes = updated.iter().filter(|(_, c)| *c).count();
    (updated.into_iter().map(|(l, _)| l).collect(), changes)
}

/// Full component ①: random init + `iterations` NNDescent passes.
pub fn build_init_graph<O: SimilarityOracle>(
    oracle: &O,
    gamma: usize,
    iterations: usize,
    seed: u64,
    threads: usize,
) -> Vec<NeighborList> {
    let mut lists = random_init(oracle, gamma, seed, threads);
    for _ in 0..iterations {
        let (next, changes) = nndescent_iteration(oracle, &lists, gamma, threads);
        lists = next;
        if changes == 0 {
            break;
        }
    }
    lists
}

/// Exact top-`gamma` neighbour lists by brute force (ground truth for the
/// graph-quality metric of Tab. XI); parallel over vertices.
pub fn exact_knn_sample<O: SimilarityOracle>(
    oracle: &O,
    vertices: &[u32],
    gamma: usize,
    threads: usize,
) -> Vec<NeighborList> {
    par_map(vertices.len(), threads, |i| {
        let o = vertices[i];
        let mut list = NeighborList::with_capacity(gamma);
        for id in 0..oracle.len() as u32 {
            if id == o {
                continue;
            }
            let sim = oracle.sim(o, id);
            insert_bounded(&mut list, Neighbor { id, sim }, gamma);
        }
        list
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{GridOracle, LineOracle};

    #[test]
    fn insert_bounded_keeps_sorted_unique() {
        let mut l = NeighborList::new();
        assert!(insert_bounded(&mut l, Neighbor { id: 1, sim: 0.5 }, 3));
        assert!(insert_bounded(&mut l, Neighbor { id: 2, sim: 0.9 }, 3));
        assert!(!insert_bounded(&mut l, Neighbor { id: 2, sim: 0.9 }, 3), "duplicate id");
        assert!(insert_bounded(&mut l, Neighbor { id: 3, sim: 0.1 }, 3));
        assert!(!insert_bounded(&mut l, Neighbor { id: 4, sim: 0.05 }, 3), "worse than tail");
        assert!(insert_bounded(&mut l, Neighbor { id: 5, sim: 0.7 }, 3));
        let ids: Vec<u32> = l.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![2, 5, 1]);
    }

    #[test]
    fn random_init_produces_distinct_scored_neighbors() {
        let oracle = LineOracle(64);
        let lists = random_init(&oracle, 8, 42, 2);
        assert_eq!(lists.len(), 64);
        for (o, l) in lists.iter().enumerate() {
            assert!(!l.is_empty());
            let mut ids: Vec<u32> = l.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), l.len(), "distinct neighbours");
            for nb in l {
                assert_ne!(nb.id as usize, o, "no self loop");
                assert!((nb.sim - oracle.sim(o as u32, nb.id)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn nndescent_converges_to_true_neighbors_on_grid() {
        let oracle = GridOracle::new(12); // 144 points
        let gamma = 6;
        let lists = build_init_graph(&oracle, gamma, 4, 7, 2);
        // Ground truth and measured overlap.
        let ids: Vec<u32> = (0..oracle.len() as u32).collect();
        let truth = exact_knn_sample(&oracle, &ids, gamma, 2);
        let mut overlap = 0usize;
        let mut total = 0usize;
        for (got, want) in lists.iter().zip(&truth) {
            // Tie-tolerant: a neighbour counts if it is at least as similar
            // as the gamma-th true neighbour (the grid has many exact ties).
            let kth = want.last().map_or(f32::NEG_INFINITY, |n| n.sim);
            overlap += got.iter().filter(|n| n.sim >= kth - 1e-6).count().min(want.len());
            total += want.len();
        }
        let quality = overlap as f64 / total as f64;
        assert!(quality > 0.9, "NNDescent quality too low: {quality}");
    }

    #[test]
    fn nndescent_iteration_reports_convergence() {
        let oracle = LineOracle(40);
        let mut lists = random_init(&oracle, 4, 3, 1);
        let mut last_changes = usize::MAX;
        for _ in 0..6 {
            let (next, changes) = nndescent_iteration(&oracle, &lists, 4, 1);
            lists = next;
            if changes == 0 {
                break;
            }
            last_changes = changes;
        }
        let (_, final_changes) = nndescent_iteration(&oracle, &lists, 4, 1);
        assert!(final_changes <= last_changes, "must trend towards convergence");
    }

    #[test]
    fn exact_knn_sample_matches_manual_ground_truth() {
        let oracle = LineOracle(10);
        let truth = exact_knn_sample(&oracle, &[0, 5], 2, 1);
        let ids0: Vec<u32> = truth[0].iter().map(|n| n.id).collect();
        assert_eq!(ids0, vec![1, 2]);
        let ids5: Vec<u32> = truth[1].iter().map(|n| n.id).collect();
        assert!(ids5 == vec![4, 6] || ids5 == vec![6, 4]);
    }
}
