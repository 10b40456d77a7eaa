//! Component ⑤ — connectivity (Line 19 of Algorithm 1): a BFS from the
//! seed, bridging every unreached region back into the graph so all
//! vertices are reachable.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::CsrGraph;
use crate::SimilarityOracle;

/// Statistics of a connectivity pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectivityStats {
    /// Vertices reachable from the seed before patching.
    pub reachable_before: usize,
    /// Bridge edges added.
    pub bridges_added: usize,
}

/// BFS over the out-neighbours `neighbors(v)` from `start`, marking
/// `visited`; returns how many new vertices were reached.
fn bfs<'g>(neighbors: impl Fn(u32) -> &'g [u32], start: u32, visited: &mut [bool]) -> usize {
    let mut reached = 0;
    let mut queue = VecDeque::new();
    if !visited[start as usize] {
        visited[start as usize] = true;
        reached += 1;
        queue.push_back(start);
    }
    while let Some(v) = queue.pop_front() {
        for &u in neighbors(v) {
            if !visited[u as usize] {
                visited[u as usize] = true;
                reached += 1;
                queue.push_back(u);
            }
        }
    }
    reached
}

/// Ensures every vertex of the adjacency lists is reachable from `seed`:
/// repeatedly finds an unreached vertex, appends it to the list of the
/// most similar vertex among a random sample of reached ones (plus the
/// seed), and resumes the BFS.
pub(crate) fn ensure_connectivity<O: SimilarityOracle>(
    lists: &mut [Vec<u32>],
    seed: u32,
    oracle: &O,
    sample: usize,
    rng_seed: u64,
) -> ConnectivityStats {
    let n = lists.len();
    let mut visited = vec![false; n];
    let mut stats = ConnectivityStats::default();
    let mut total = bfs(|v| &lists[v as usize], seed, &mut visited);
    stats.reachable_before = total;
    if total == n {
        return stats;
    }
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut reached_pool: Vec<u32> =
        visited.iter().enumerate().filter(|(_, v)| **v).map(|(i, _)| i as u32).collect();
    let mut cursor = 0usize;
    while total < n {
        // Next unreached vertex.
        while cursor < n && visited[cursor] {
            cursor += 1;
        }
        let orphan = cursor as u32;
        // Best bridge head: most similar among sampled reached vertices.
        // A sample budget covering the whole pool degrades to an exact
        // scan — sampling with replacement would otherwise miss vertices.
        let mut best = seed;
        let mut best_sim = oracle.sim(best, orphan);
        let consider = |cand: u32, best: &mut u32, best_sim: &mut f32| {
            let s = oracle.sim(cand, orphan);
            if s > *best_sim {
                *best_sim = s;
                *best = cand;
            }
        };
        if sample >= reached_pool.len() {
            for &cand in &reached_pool {
                consider(cand, &mut best, &mut best_sim);
            }
        } else {
            for _ in 0..sample {
                let cand = reached_pool[rng.random_range(0..reached_pool.len())];
                consider(cand, &mut best, &mut best_sim);
            }
        }
        lists[best as usize].push(orphan);
        stats.bridges_added += 1;
        total += bfs(|v| &lists[v as usize], orphan, &mut visited);
        // Keeping the sample pool slightly stale is fine: it only biases
        // which reached vertex hosts the next bridge.
        reached_pool.push(orphan);
    }
    stats
}

/// Number of vertices reachable from the seed (diagnostic used by tests and
/// the index audit).
#[must_use]
pub fn reachable_from_seed(graph: &CsrGraph) -> usize {
    let mut visited = vec![false; graph.len()];
    bfs(|v| graph.neighbors(v), graph.seed(), &mut visited)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::LineOracle;

    /// Two components: {0,1,2} chained and {3,4} chained; seed = 0.
    fn disconnected_lists() -> Vec<Vec<u32>> {
        vec![vec![1], vec![0, 2], vec![1], vec![4], vec![3]]
    }

    fn reachable(lists: &[Vec<u32>], seed: u32) -> usize {
        reachable_from_seed(&CsrGraph::from_lists(lists, seed))
    }

    #[test]
    fn detects_full_connectivity() {
        let mut g = vec![vec![1], vec![0]];
        let oracle = LineOracle(2);
        let stats = ensure_connectivity(&mut g, 0, &oracle, 4, 1);
        assert_eq!(stats.reachable_before, 2);
        assert_eq!(stats.bridges_added, 0);
    }

    #[test]
    fn bridges_disconnected_components() {
        let mut g = disconnected_lists();
        let oracle = LineOracle(5);
        assert_eq!(reachable(&g, 0), 3);
        let stats = ensure_connectivity(&mut g, 0, &oracle, 4, 1);
        assert_eq!(stats.reachable_before, 3);
        assert!(stats.bridges_added >= 1);
        assert_eq!(reachable(&g, 0), 5);
    }

    #[test]
    fn bridge_head_prefers_similar_vertices() {
        // Orphan 3 is most similar to reached vertex 2 on the line; with a
        // generous sample the bridge should come from vertex 2.
        let mut g = disconnected_lists();
        let oracle = LineOracle(5);
        ensure_connectivity(&mut g, 0, &oracle, 64, 9);
        let from2 = g[2].contains(&3);
        let from1 = g[1].contains(&3);
        let from0 = g[0].contains(&3);
        assert!(from2 || from1 || from0);
        assert!(from2, "nearest reached vertex should host the bridge");
    }

    #[test]
    fn handles_fully_isolated_vertices() {
        let mut g = vec![vec![], vec![], vec![]];
        let oracle = LineOracle(3);
        let stats = ensure_connectivity(&mut g, 1, &oracle, 2, 3);
        assert_eq!(stats.reachable_before, 1);
        assert_eq!(reachable(&g, 1), 3);
        assert_eq!(stats.bridges_added, 2);
    }
}
