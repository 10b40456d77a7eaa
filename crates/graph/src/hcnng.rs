//! HCNNG (Muñoz et al., Pattern Recognition 2019): hierarchical-clustering
//! graphs built from minimum spanning trees over random divisive partitions
//! — one of the pluggable backends of the paper's Fig. 10 ablation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::connect::ensure_connectivity;
use crate::csr::CsrGraph;
use crate::par::par_map;
use crate::seed::choose_seed;
use crate::SimilarityOracle;

/// Number of random clusterings whose MST edges are unioned.
const ROUNDS: usize = 8;
/// Maximum leaf size of the divisive partition.
const LEAF_SIZE: usize = 128;
/// Per-vertex degree cap inside one MST (the original uses 3).
const MST_DEGREE: usize = 3;

/// Recursively partitions `items` with two random pivots until leaves are
/// at most `leaf_size`, collecting the leaves.
fn partition<O: SimilarityOracle>(
    oracle: &O,
    items: Vec<u32>,
    leaf_size: usize,
    rng: &mut StdRng,
    leaves: &mut Vec<Vec<u32>>,
) {
    if items.len() <= leaf_size {
        leaves.push(items);
        return;
    }
    let a = items[rng.random_range(0..items.len())];
    let mut b = a;
    while b == a {
        b = items[rng.random_range(0..items.len())];
    }
    let mut left = Vec::with_capacity(items.len() / 2 + 1);
    let mut right = Vec::with_capacity(items.len() / 2 + 1);
    for id in items {
        if oracle.sim(id, a) >= oracle.sim(id, b) {
            left.push(id);
        } else {
            right.push(id);
        }
    }
    // Degenerate split (coincident pivots): fall back to halving.
    if left.is_empty() || right.is_empty() {
        let mut all = left;
        all.append(&mut right);
        let mid = all.len() / 2;
        right = all.split_off(mid);
        left = all;
    }
    partition(oracle, left, leaf_size, rng, leaves);
    partition(oracle, right, leaf_size, rng, leaves);
}

/// Prim's MST over one leaf (similarities maximised = distances minimised),
/// respecting the per-vertex degree cap; returns the tree edges.
fn leaf_mst<O: SimilarityOracle>(
    oracle: &O,
    leaf: &[u32],
    degree_cap: usize,
) -> Vec<(u32, u32)> {
    let s = leaf.len();
    if s < 2 {
        return Vec::new();
    }
    let mut in_tree = vec![false; s];
    let mut degree = vec![0usize; s];
    // best[i] = (similarity to tree, tree vertex index)
    let mut best: Vec<(f32, usize)> = vec![(f32::NEG_INFINITY, 0); s];
    let mut edges = Vec::with_capacity(s - 1);
    in_tree[0] = true;
    for i in 1..s {
        best[i] = (oracle.sim(leaf[i], leaf[0]), 0);
    }
    for _ in 1..s {
        // Pick the best attachable vertex (its tree endpoint must have
        // spare degree; recompute when saturated).
        let mut pick = None;
        for i in 0..s {
            if in_tree[i] {
                continue;
            }
            if degree[best[i].1] >= degree_cap {
                // Recompute against tree vertices with spare degree.
                let mut nb = (f32::NEG_INFINITY, usize::MAX);
                for j in 0..s {
                    if in_tree[j] && degree[j] < degree_cap {
                        let sim = oracle.sim(leaf[i], leaf[j]);
                        if sim > nb.0 {
                            nb = (sim, j);
                        }
                    }
                }
                if nb.1 == usize::MAX {
                    // Every tree vertex saturated: relax the cap for this
                    // edge (keeps the tree spanning).
                    nb = (oracle.sim(leaf[i], leaf[best[i].1]), best[i].1);
                }
                best[i] = nb;
            }
            match pick {
                None => pick = Some(i),
                Some(p) if best[i].0 > best[p].0 => pick = Some(i),
                _ => {}
            }
        }
        let i = pick.expect("non-tree vertex exists");
        let j = best[i].1;
        edges.push((leaf[i], leaf[j]));
        degree[i] += 1;
        degree[j] += 1;
        in_tree[i] = true;
        // Refresh best similarities with the new tree vertex.
        for x in 0..s {
            if !in_tree[x] {
                let sim = oracle.sim(leaf[x], leaf[i]);
                if sim > best[x].0 && degree[i] < degree_cap {
                    best[x] = (sim, i);
                }
            }
        }
    }
    edges
}

/// Builds the HCNNG graph on `threads` workers: union of per-round MST
/// edges + medoid seed + connectivity patching.
pub fn build_hcnng<O: SimilarityOracle>(oracle: &O, rng_seed: u64, threads: usize) -> CsrGraph {
    let n = oracle.len();
    assert!(n > 0, "cannot index an empty object set");
    // Rounds are independent: run them in parallel.
    let round_edges: Vec<Vec<(u32, u32)>> = par_map(ROUNDS, threads, |r| {
        let mut rng = StdRng::seed_from_u64(rng_seed ^ (r as u64).wrapping_mul(0x9E37));
        let mut leaves = Vec::new();
        partition(oracle, (0..n as u32).collect(), LEAF_SIZE, &mut rng, &mut leaves);
        let mut edges = Vec::with_capacity(n);
        for leaf in &leaves {
            edges.extend(leaf_mst(oracle, leaf, MST_DEGREE));
        }
        edges
    });
    let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
    for edges in round_edges {
        for (a, b) in edges {
            if !neighbors[a as usize].contains(&b) {
                neighbors[a as usize].push(b);
            }
            if !neighbors[b as usize].contains(&a) {
                neighbors[b as usize].push(a);
            }
        }
    }
    let seed = choose_seed(oracle, threads);
    ensure_connectivity(&mut neighbors, seed, oracle, 64, rng_seed ^ 0xCC);
    CsrGraph::from_lists(&neighbors, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connect::reachable_from_seed;
    use crate::search::{beam_search_csr, SearchParams, SearchScratch};
    use crate::testutil::GridOracle;
    use crate::FnScorer;

    #[test]
    fn mst_spans_the_leaf() {
        let oracle = GridOracle::new(6);
        let leaf: Vec<u32> = (0..36).collect();
        let edges = leaf_mst(&oracle, &leaf, 3);
        assert_eq!(edges.len(), 35, "a spanning tree has |V| - 1 edges");
        // Union-find check that it is in fact spanning.
        let mut parent: Vec<usize> = (0..36).collect();
        fn find(p: &mut [usize], mut x: usize) -> usize {
            while p[x] != x {
                p[x] = p[p[x]];
                x = p[x];
            }
            x
        }
        for (a, b) in &edges {
            let (ra, rb) = (find(&mut parent, *a as usize), find(&mut parent, *b as usize));
            assert_ne!(ra, rb, "MST must not contain cycles");
            parent[ra] = rb;
        }
    }

    #[test]
    fn mst_respects_degree_cap_mostly() {
        let oracle = GridOracle::new(8);
        let leaf: Vec<u32> = (0..64).collect();
        let edges = leaf_mst(&oracle, &leaf, 3);
        let mut degree = vec![0usize; 64];
        for (a, b) in &edges {
            degree[*a as usize] += 1;
            degree[*b as usize] += 1;
        }
        let over = degree.iter().filter(|&&d| d > 3).count();
        assert!(over <= 2, "degree cap violated {over} times");
    }

    #[test]
    fn hcnng_is_connected_and_navigable() {
        let oracle = GridOracle::new(12);
        let csr = build_hcnng(&oracle, 5, 2);
        assert_eq!(reachable_from_seed(&csr), oracle.len());
        let mut hits = 0;
        let mut visited = SearchScratch::default();
        let total = 24;
        for t in 0..total {
            let target = (t * 6) as u32 % oracle.len() as u32;
            let scorer = FnScorer(|id| oracle.sim(id, target));
            let res = beam_search_csr(&csr, &scorer, SearchParams::seed_only(1, 16), &mut visited, 1);
            if res.results[0].0 == target {
                hits += 1;
            }
        }
        assert!(hits * 10 >= total * 9, "recall {hits}/{total}");
    }

    #[test]
    fn partition_leaves_cover_all_points() {
        let oracle = GridOracle::new(10);
        let mut rng = StdRng::seed_from_u64(1);
        let mut leaves = Vec::new();
        partition(&oracle, (0..100).collect(), 16, &mut rng, &mut leaves);
        let mut all: Vec<u32> = leaves.concat();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<u32>>());
        assert!(leaves.iter().all(|l| l.len() <= 16));
    }
}
