//! Property-based tests for the proximity-graph substrate: pool
//! invariants, search invariants (Lemma 3), selection invariants
//! (Lemma 2), and pipeline guarantees on random geometric instances.

use must_graph::connect::reachable_from_seed;
use must_graph::nndescent::{exact_knn_sample, insert_bounded, Neighbor};
use must_graph::pipeline::PipelineBuilder;
use must_graph::pool::Pool;
use must_graph::search::{beam_search_csr, SearchParams, SearchScratch};
use must_graph::select::{select_neighbors, SelectionStrategy};
use must_graph::{FnScorer, SimilarityOracle};
use proptest::prelude::*;

/// Random 2-D points, similarity = negative squared distance.
#[derive(Debug, Clone)]
struct PointOracle {
    pts: Vec<(f32, f32)>,
}

impl SimilarityOracle for PointOracle {
    fn len(&self) -> usize {
        self.pts.len()
    }
    fn sim(&self, a: u32, b: u32) -> f32 {
        let (ax, ay) = self.pts[a as usize];
        let (bx, by) = self.pts[b as usize];
        -((ax - bx).powi(2) + (ay - by).powi(2))
    }
    fn self_sim(&self, _a: u32) -> f32 {
        0.0
    }
    fn sim_to_centroid(&self, a: u32) -> f32 {
        let n = self.pts.len() as f32;
        let (cx, cy) = self
            .pts
            .iter()
            .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x / n, sy + y / n));
        let (ax, ay) = self.pts[a as usize];
        -((ax - cx).powi(2) + (ay - cy).powi(2))
    }
}

fn points(n: usize) -> impl Strategy<Value = PointOracle> {
    proptest::collection::vec((-50.0f32..50.0, -50.0f32..50.0), n)
        .prop_map(|pts| PointOracle { pts })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pool_cursor_matches_a_linear_scan(
        ops in proptest::collection::vec((0u8..16, 0usize..64, -1.0f32..1.0), 1..200),
        cap in 1usize..10,
    ) {
        // Random insert / best_unvisited / visit / reset interleavings,
        // including visits of entries that are *not* the first unvisited;
        // similarities are quantised so ties are common.
        let mut pool = Pool::new(cap, 200);
        let mut next_id = 0u32;
        for (op, pick, sim) in ops {
            match op {
                0..=8 => {
                    pool.insert(next_id, (sim * 4.0).round() / 4.0);
                    next_id += 1;
                }
                9..=11 => {
                    if let Some(idx) = pool.best_unvisited() {
                        pool.visit(idx);
                    }
                }
                12..=14 => {
                    if !pool.is_empty() {
                        pool.visit(pick % pool.len());
                    }
                }
                _ => pool.reset(1 + pick % 9, 200),
            }
            let scan = pool.entries().iter().position(|e| !e.visited);
            prop_assert_eq!(pool.best_unvisited(), scan);
        }
    }

    #[test]
    fn pool_is_always_sorted_and_bounded(
        ops in proptest::collection::vec((0u32..64, -1.0f32..1.0), 1..80),
        cap in 1usize..12,
    ) {
        let mut pool = Pool::new(cap, 64);
        let mut inserted = std::collections::HashSet::new();
        for (id, sim) in ops {
            if inserted.insert(id) {
                pool.insert(id, sim);
            }
        }
        prop_assert!(pool.len() <= cap);
        let entries = pool.entries();
        for w in entries.windows(2) {
            prop_assert!(w[0].sim >= w[1].sim);
        }
        // Threshold is the worst entry iff full.
        if pool.is_full() {
            prop_assert_eq!(pool.threshold(), entries[entries.len() - 1].sim);
        } else {
            prop_assert_eq!(pool.threshold(), f32::NEG_INFINITY);
        }
    }

    #[test]
    fn routing_entries_take_no_capacity_and_never_rank(
        ops in proptest::collection::vec((-1.0f32..1.0, any::<bool>()), 1..80),
        cap in 1usize..12,
    ) {
        // Random live / routing inserts, the routing ones also expanded
        // as a walk would: at most `cap` live entries, sorted, and once
        // full the tail is the `cap`-th live entry and the threshold.
        let mut pool = Pool::new(cap, 80);
        for (id, (sim, live)) in (0u32..).zip(ops) {
            pool.admit(id, (sim * 4.0).round() / 4.0, live);
            if let Some(idx) = pool.best_unvisited().filter(|&i| !pool.entries()[i].live) {
                pool.visit(idx);
            }
        }
        let entries = pool.entries();
        let live = entries.iter().filter(|e| e.live).count();
        prop_assert!(live <= cap);
        prop_assert_eq!(pool.is_full(), live == cap);
        for w in entries.windows(2) {
            prop_assert!(w[0].sim >= w[1].sim);
        }
        if pool.is_full() {
            prop_assert!(entries[entries.len() - 1].live, "a full pool ends on a live entry");
            prop_assert_eq!(pool.threshold(), entries[entries.len() - 1].sim);
        }
        let ranked = pool.ranked(cap);
        prop_assert_eq!(ranked.len(), live);
        prop_assert!(ranked.iter().all(|r| entries.iter().any(|e| e.id == r.0 && e.live)));
    }

    #[test]
    fn insert_bounded_maintains_invariants(
        cands in proptest::collection::vec((0u32..48, -1.0f32..1.0), 1..64),
        cap in 1usize..10,
    ) {
        let mut list = Vec::new();
        for (id, sim) in cands {
            insert_bounded(&mut list, Neighbor { id, sim }, cap);
        }
        prop_assert!(list.len() <= cap);
        for w in list.windows(2) {
            prop_assert!(w[0].sim >= w[1].sim);
        }
        let mut ids: Vec<u32> = list.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), list.len(), "no duplicate neighbours");
    }

    #[test]
    fn pipeline_graph_is_connected_and_degree_bounded(
        oracle in points(60),
        gamma in 3usize..10,
    ) {
        let (graph, stats) = PipelineBuilder {
            gamma,
            threads: 1,
            rng_seed: 7,
            ..PipelineBuilder::default()
        }
        .build(&oracle);
        prop_assert_eq!(graph.len(), 60);
        prop_assert_eq!(reachable_from_seed(&graph), 60);
        prop_assert!(graph.max_degree() <= gamma + stats.connectivity.bridges_added);
    }

    #[test]
    fn beam_search_with_huge_pool_is_exact(oracle in points(50), target in 0u32..50) {
        let (graph, _) = PipelineBuilder { gamma: 6, threads: 1, ..Default::default() }
            .build(&oracle);
        let scorer = FnScorer(|id| oracle.sim(id, target));
        let res = beam_search_csr(
            &graph,
            &scorer,
            SearchParams::seed_only(1, 50),
            &mut SearchScratch::default(),
            3,
        );
        // A pool covering the whole graph must find the exact nearest
        // (the target itself at similarity 0).
        prop_assert_eq!(res.results[0].0, target);
    }

    #[test]
    fn mrng_keeps_nearest_and_respects_occlusion(oracle in points(40), o in 0u32..40) {
        let cands = exact_knn_sample(&oracle, &[o], 15, 1).pop().unwrap();
        prop_assume!(!cands.is_empty());
        let sel = select_neighbors(&oracle, o, &cands, 15, SelectionStrategy::Mrng);
        prop_assert_eq!(sel[0], cands[0].id);
        // Lemma 2 equivalent: every kept v is closer to o than to any
        // earlier-kept u.
        for (i, &v) in sel.iter().enumerate() {
            let sim_ov = oracle.sim(o, v);
            for &u in &sel[..i] {
                prop_assert!(sim_ov > oracle.sim(u, v) - 1e-6);
            }
        }
    }

    #[test]
    fn search_stats_are_coherent(oracle in points(64), target in 0u32..64) {
        let (graph, _) = PipelineBuilder { gamma: 5, threads: 1, ..Default::default() }
            .build(&oracle);
        let scorer = FnScorer(|id| oracle.sim(id, target));
        let res = beam_search_csr(
            &graph,
            &scorer,
            SearchParams::new(3, 12),
            &mut SearchScratch::default(),
            9,
        );
        prop_assert!(res.results.len() <= 3);
        prop_assert!(res.stats.hops >= 1);
        prop_assert!(res.stats.evaluated >= res.results.len() as u64);
        prop_assert!(res.stats.pruned <= res.stats.evaluated);
    }
}
