//! The component-based index-construction pipeline (Algorithm 1,
//! Section VII-A): ① initialisation → ② candidate acquisition →
//! ③ neighbour selection → ④ seed preprocessing → ⑤ connectivity.
//!
//! Existing proximity graphs decompose into these components; the paper's
//! fused index re-assembles the best of them (NNDescent initialisation,
//! neighbour expansion, MRNG selection, centroid seed, BFS connectivity).
//! [`GraphRecipe`] captures the paper's assemblies, including the ones used
//! in the Fig. 10 backend ablation.

use std::cell::RefCell;
use std::time::Instant;

use crate::connect::{ensure_connectivity, ConnectivityStats};
use crate::csr::CsrGraph;
use crate::nndescent::{build_init_graph, insert_bounded, random_init, Gather, Neighbor, NeighborList};
use crate::par::{build_threads, par_map, par_map_with};
use crate::seed::choose_seed;
use crate::search::{expand, NodeScorer, SearchScratch, SearchStats};
use crate::select::{select_neighbors, SelectionStrategy};
use crate::SimilarityOracle;

/// Component ② — how candidate neighbours are acquired from the initial
/// graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CandidateStrategy {
    /// Use the initial neighbours as-is.
    InitOnly,
    /// Neighbours plus neighbours-of-neighbours (Lines 9–10 of
    /// Algorithm 1; also NSSG's two-hop expansion).
    Expand,
    /// Search-based: greedy-search the initial graph for each vertex and
    /// use every scored vertex as a candidate (NSG / Vamana style).
    Search {
        /// Pool size of the per-vertex candidate search.
        l: usize,
    },
}

/// Builder for the five-component pipeline.
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    /// Maximum number of neighbours per vertex (the paper's `gamma`,
    /// default 30 — Appendix H).
    pub gamma: usize,
    /// NNDescent iterations in component ① (the paper's `epsilon`,
    /// default 3 — Tab. XI).
    pub init_iterations: usize,
    /// Whether component ① refines random neighbours with NNDescent
    /// (`false` = plain random initialisation, Vamana style).
    pub nndescent_init: bool,
    /// Component ② strategy.
    pub candidates: CandidateStrategy,
    /// Component ③ strategy.
    pub selection: SelectionStrategy,
    /// Whether component ⑤ runs.
    pub connectivity: bool,
    /// Number of refinement rounds over components ②–③ (Vamana uses 2).
    pub rounds: usize,
    /// RNG seed for the whole build.
    pub rng_seed: u64,
    /// Worker threads (defaults to available parallelism).
    pub threads: usize,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self {
            gamma: 30,
            init_iterations: 3,
            nndescent_init: true,
            candidates: CandidateStrategy::Expand,
            selection: SelectionStrategy::Mrng,
            connectivity: true,
            rounds: 1,
            rng_seed: 0x5EED,
            threads: build_threads(),
        }
    }
}

/// Instrumentation of one pipeline run (feeds Figs. 7, 10(a), 14).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Wall-clock seconds spent in component ①.
    pub init_secs: f64,
    /// Wall-clock seconds spent in components ②+③ (all rounds).
    pub refine_secs: f64,
    /// Wall-clock seconds spent in components ④+⑤.
    pub finalize_secs: f64,
    /// Connectivity outcome.
    pub connectivity: ConnectivityStats,
}

impl PipelineBuilder {
    /// Runs the pipeline over `oracle`, producing the frozen graph and
    /// stats.
    pub fn build<O: SimilarityOracle>(&self, oracle: &O) -> (CsrGraph, PipelineStats) {
        assert!(oracle.len() > 0, "cannot index an empty object set");
        assert!(self.gamma > 0, "gamma must be positive");
        let mut stats = PipelineStats::default();
        let threads = self.threads.max(1);

        // Component 1: initialisation.
        let t0 = Instant::now();
        let mut lists: Vec<NeighborList> = if self.nndescent_init {
            build_init_graph(oracle, self.gamma, self.init_iterations, self.rng_seed, threads)
        } else {
            random_init(oracle, self.gamma, self.rng_seed, threads)
        };
        stats.init_secs = t0.elapsed().as_secs_f64();

        // Components 2 + 3, possibly over several rounds.
        let t1 = Instant::now();
        for _ in 0..self.rounds.max(1) {
            lists = self.refine_round(oracle, &lists, threads);
        }
        stats.refine_secs = t1.elapsed().as_secs_f64();

        // Components 4 + 5.
        let t2 = Instant::now();
        let seed = choose_seed(oracle, threads);
        let mut neighbors: Vec<Vec<u32>> =
            lists.into_iter().map(|l| l.into_iter().map(|n| n.id).collect()).collect();
        if self.connectivity {
            stats.connectivity =
                ensure_connectivity(&mut neighbors, seed, oracle, 64, self.rng_seed ^ 0xC0);
        }
        let graph = CsrGraph::from_lists(&neighbors, seed);
        stats.finalize_secs = t2.elapsed().as_secs_f64();
        (graph, stats)
    }

    /// One round of components ② + ③ over a snapshot of the lists.
    fn refine_round<O: SimilarityOracle>(
        &self,
        oracle: &O,
        lists: &[NeighborList],
        threads: usize,
    ) -> Vec<NeighborList> {
        let n = lists.len();
        // Component 2: candidate acquisition.
        let candidate_lists: Vec<Vec<Neighbor>> = match self.candidates {
            CandidateStrategy::InitOnly => lists.to_vec(),
            CandidateStrategy::Expand => par_map_with(n, threads, Gather::default, |gather, o| {
                let me = o as u32;
                // Candidate cap: keep the pool bounded like the paper's
                // implementation (expansion would otherwise be gamma^2).
                let cap = (self.gamma * 4).max(8);
                gather.reset(n);
                gather.mark(me);
                for nb in &lists[o] {
                    gather.mark(nb.id);
                }
                for nb in &lists[o] {
                    for hop in &lists[nb.id as usize] {
                        gather.offer(hop.id);
                    }
                }
                let mut pool: NeighborList = lists[o].clone();
                for cand in gather.drain_scored(oracle, me) {
                    insert_bounded(&mut pool, cand, cap);
                }
                pool
            }),
            CandidateStrategy::Search { l } => {
                // Freeze the current lists to walk them.
                let neighbors: Vec<Vec<u32>> =
                    lists.iter().map(|l| l.iter().map(|n| n.id).collect()).collect();
                let seed = choose_seed(oracle, threads);
                let frozen = CsrGraph::from_lists(&neighbors, seed);
                par_map_with(n, threads, SearchScratch::default, |scratch, o| {
                    search_candidates(&frozen, oracle, o as u32, l, scratch)
                })
            }
        };

        // Component 3: neighbour selection (parallel over vertices).
        let selected: Vec<Vec<u32>> = par_map(n, threads, |o| {
            select_neighbors(oracle, o as u32, &candidate_lists[o], self.gamma, self.selection)
        });

        // Reverse-edge insertion: selections are directed; adding pruned
        // reverse edges (as NSG/Vamana do) keeps the graph navigable in both
        // directions.  Serial pass (cheap relative to selection).
        let mut out: Vec<NeighborList> = selected
            .iter()
            .enumerate()
            .map(|(o, sel)| {
                sel.iter()
                    .map(|&id| Neighbor { id, sim: candidate_sim(&candidate_lists[o], id) })
                    .collect()
            })
            .collect();
        for o in 0..n {
            for &id in &selected[o] {
                let sim = candidate_sim(&candidate_lists[o], id);
                insert_bounded(&mut out[id as usize], Neighbor { id: o as u32, sim }, self.gamma);
            }
        }
        out
    }
}

fn candidate_sim(cands: &[Neighbor], id: u32) -> f32 {
    cands
        .iter()
        .find(|n| n.id == id)
        .map(|n| n.sim)
        .expect("selected id comes from the candidate list")
}

/// Greedy-search `graph` for the vertex most similar to `o` and keep every
/// vertex the walk scored but `o`, best first, at most `2l` — NSG's
/// candidate acquisition.  The walk is [`expand`] from the seed with a
/// pool of size `l`; each hop's unseen neighbours are scored as one batch.
fn search_candidates<O: SimilarityOracle>(
    graph: &CsrGraph,
    oracle: &O,
    o: u32,
    l: usize,
    scratch: &mut SearchScratch,
) -> Vec<Neighbor> {
    let seed = graph.seed();
    let seed_sim = oracle.sim(o, seed);
    let scored = RefCell::new(vec![Neighbor { id: seed, sim: seed_sim }]);
    let scorer = NodeScorer { oracle, node: o, scored: Some(&scored) };
    scratch.pool.reset(l, graph.len());
    scratch.visited.reset(graph.len());
    scratch.visited.mark(seed);
    scratch.pool.insert(seed, seed_sim);
    expand(|v| graph.neighbors(v), &scorer, scratch, &mut SearchStats::default());
    let mut scored = scored.into_inner();
    scored.retain(|nb| nb.id != o);
    scored.sort_unstable_by(|a, b| b.sim.total_cmp(&a.sim));
    scored.truncate(l * 2);
    scored
}

/// Named graph assemblies: the paper's fused index plus the six existing
/// proximity graphs it compares against (Fig. 10, Section VIII-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphRecipe {
    /// The paper's re-assembled pipeline ("Ours"): NNDescent init +
    /// neighbour expansion + MRNG selection + centroid seed + BFS
    /// connectivity.
    Fused,
    /// KGraph: NNDescent only, top-gamma neighbours.
    KGraph,
    /// NSG: NNDescent init + search-based candidates + MRNG + medoid seed
    /// + connectivity.
    Nsg,
    /// NSSG: NNDescent init + two-hop expansion + angle-based selection.
    Nssg,
    /// Vamana (DiskANN): random init + two search-based refinement rounds
    /// with alpha-relaxed pruning.
    Vamana,
    /// HCNNG: hierarchical-clustering MSTs (see [`crate::hcnng`]).
    Hcnng,
    /// HNSW: layered small-world graph (see [`crate::hnsw`]).
    Hnsw,
}

impl GraphRecipe {
    /// Display label (as in Fig. 10).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Fused => "Ours",
            Self::KGraph => "KGraph",
            Self::Nsg => "NSG",
            Self::Nssg => "NSSG",
            Self::Vamana => "Vamana",
            Self::Hcnng => "HCNNG",
            Self::Hnsw => "HNSW",
        }
    }

    /// All recipes in the Fig. 10 comparison order.
    #[must_use]
    pub fn all() -> [GraphRecipe; 7] {
        [Self::Fused, Self::Nssg, Self::Nsg, Self::KGraph, Self::Hnsw, Self::Vamana, Self::Hcnng]
    }

    /// The pipeline configuration for pipeline-expressible recipes;
    /// `None` for HCNNG and HNSW, which have dedicated builders.
    #[must_use]
    pub fn pipeline(self, gamma: usize, rng_seed: u64) -> Option<PipelineBuilder> {
        let base = PipelineBuilder { gamma, rng_seed, ..PipelineBuilder::default() };
        match self {
            Self::Fused => Some(base),
            Self::KGraph => Some(PipelineBuilder {
                candidates: CandidateStrategy::InitOnly,
                selection: SelectionStrategy::TopGamma,
                connectivity: false,
                ..base
            }),
            Self::Nsg => Some(PipelineBuilder {
                candidates: CandidateStrategy::Search { l: gamma.max(16) },
                selection: SelectionStrategy::Mrng,
                ..base
            }),
            Self::Nssg => Some(PipelineBuilder {
                candidates: CandidateStrategy::Expand,
                selection: SelectionStrategy::Nssg { min_angle_deg: 60.0 },
                ..base
            }),
            Self::Vamana => Some(PipelineBuilder {
                nndescent_init: false,
                candidates: CandidateStrategy::Search { l: gamma.max(16) },
                selection: SelectionStrategy::Vamana { alpha: 1.2 },
                rounds: 2,
                ..base
            }),
            Self::Hcnng | Self::Hnsw => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connect::reachable_from_seed;
    use crate::search::{beam_search_csr, SearchParams};
    use crate::testutil::GridOracle;
    use crate::FnScorer;

    fn grid() -> GridOracle {
        GridOracle::new(14) // 196 points
    }

    fn recall_at_1(oracle: &GridOracle, csr: &CsrGraph) -> f64 {
        let mut hits = 0;
        let mut visited = SearchScratch::default();
        let n = oracle.len();
        for target in (0..n as u32).step_by(7) {
            let scorer = FnScorer(|id| crate::SimilarityOracle::sim(oracle, id, target));
            let res = beam_search_csr(csr, &scorer, SearchParams::seed_only(1, 10), &mut visited, 1);
            if res.results[0].0 == target {
                hits += 1;
            }
        }
        hits as f64 / (n as f64 / 7.0).ceil()
    }

    #[test]
    fn fused_pipeline_builds_navigable_connected_graph() {
        let oracle = grid();
        let builder = PipelineBuilder { gamma: 8, threads: 2, ..PipelineBuilder::default() };
        let (graph, stats) = builder.build(&oracle);
        assert_eq!(graph.len(), oracle.len());
        assert_eq!(reachable_from_seed(&graph), oracle.len(), "component 5 guarantees reach");
        assert!(graph.max_degree() <= 8 + stats.connectivity.bridges_added);
        let r = recall_at_1(&oracle, &graph);
        assert!(r > 0.95, "fused graph recall@1 too low: {r}");
    }

    #[test]
    fn every_pipeline_recipe_builds_and_searches() {
        let oracle = grid();
        for recipe in [GraphRecipe::Fused, GraphRecipe::KGraph, GraphRecipe::Nsg, GraphRecipe::Nssg, GraphRecipe::Vamana] {
            let builder = PipelineBuilder { threads: 2, ..recipe.pipeline(8, 11).unwrap() };
            let (graph, _) = builder.build(&oracle);
            assert_eq!(graph.len(), oracle.len(), "{}", recipe.label());
            let r = recall_at_1(&oracle, &graph);
            assert!(r > 0.8, "{} recall@1 too low: {r}", recipe.label());
        }
    }

    #[test]
    fn degree_bound_is_respected_before_bridging() {
        let oracle = grid();
        let builder = PipelineBuilder {
            gamma: 5,
            connectivity: false,
            threads: 2,
            ..PipelineBuilder::default()
        };
        let (graph, _) = builder.build(&oracle);
        assert!(graph.max_degree() <= 5, "max degree {}", graph.max_degree());
    }

    #[test]
    fn stats_cover_all_phases() {
        let oracle = GridOracle::new(6);
        let (_, stats) = PipelineBuilder { gamma: 4, threads: 1, ..PipelineBuilder::default() }
            .build(&oracle);
        assert!(stats.init_secs >= 0.0 && stats.refine_secs >= 0.0);
        assert!(stats.init_secs + stats.refine_secs + stats.finalize_secs > 0.0);
    }

    #[test]
    fn algorithm_1_output_is_the_golden_one() {
        // Hashes taken on c251044, whose components ① and ② kept a sorted
        // `Vec<u32>` of seen ids per vertex: a stamped `VisitedSet` per
        // worker must offer every candidate in the same order, so each
        // neighbour list, adjacency block and seed is that commit's.
        use crate::testutil::{fnv1a, RandOracle};
        let oracle = RandOracle::new(1_500, 8, 0xFACE);
        let golden = [
            (GraphRecipe::Fused, 0x989d_d631_53ac_6cc6u64),
            (GraphRecipe::Nsg, 0xf5cf_8c92_1e48_68d6),
            (GraphRecipe::Vamana, 0x583d_d7e5_9c10_e302),
        ];
        for threads in [1, 2] {
            let init = build_init_graph(&oracle, 10, 3, 0x5EED, threads);
            let h = fnv1a(init.iter().flat_map(|l| {
                std::iter::once(l.len() as u64)
                    .chain(l.iter().flat_map(|nb| [u64::from(nb.id), u64::from(nb.sim.to_bits())]))
            }));
            assert_eq!(h, 0xd674_3933_9d6d_8ca7, "build_init_graph, T={threads}");
            for (recipe, want) in golden {
                let builder = PipelineBuilder { threads, ..recipe.pipeline(10, 11).unwrap() };
                let (graph, _) = builder.build(&oracle);
                let h = fnv1a((0..graph.len() as u32).flat_map(|v| {
                    let nbrs = graph.neighbors(v);
                    std::iter::once(nbrs.len() as u64).chain(nbrs.iter().map(|&u| u64::from(u)))
                }).chain([u64::from(graph.seed())]));
                assert_eq!(h, want, "{}, T={threads}", recipe.label());
            }
        }
    }

    #[test]
    fn recipes_expose_labels_and_builders() {
        assert_eq!(GraphRecipe::all().len(), 7);
        for r in GraphRecipe::all() {
            assert!(!r.label().is_empty());
            match r {
                GraphRecipe::Hcnng | GraphRecipe::Hnsw => assert!(r.pipeline(8, 1).is_none()),
                _ => assert!(r.pipeline(8, 1).is_some()),
            }
        }
    }
}
