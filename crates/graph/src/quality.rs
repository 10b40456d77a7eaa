//! Graph-quality diagnostics (the metric of Tab. XI and the degree /
//! connectivity audits used across the experiments).
//!
//! Graph quality is "the mean ratio of a vertex's neighbours that belong to
//! its true top-`gamma` nearest neighbours under joint similarity"
//! (Appendix H of the paper).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::connect::reachable_from_seed;
use crate::csr::CsrGraph;
use crate::nndescent::exact_knn_sample;
use crate::par::build_threads;
use crate::SimilarityOracle;

/// Computes graph quality over a random sample of `sample` vertices.
///
/// For each sampled vertex the exact top-`gamma` neighbours (brute force)
/// are compared against the graph's stored neighbours; quality is the mean
/// overlap fraction.
pub fn graph_quality<O: SimilarityOracle>(
    oracle: &O,
    graph: &CsrGraph,
    gamma: usize,
    sample: usize,
    rng_seed: u64,
) -> f64 {
    let n = graph.len();
    assert_eq!(n, oracle.len(), "graph and oracle must agree");
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut vertices: Vec<u32> = if sample >= n {
        (0..n as u32).collect()
    } else {
        let mut v: Vec<u32> = (0..sample).map(|_| rng.random_range(0..n as u32)).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    vertices.truncate(sample.max(1));
    let truth = exact_knn_sample(oracle, &vertices, gamma, build_threads());
    let mut total = 0.0;
    for (v, t) in vertices.iter().zip(&truth) {
        let true_ids: Vec<u32> = t.iter().map(|nb| nb.id).collect();
        let stored = graph.neighbors(*v);
        let denom = gamma.min(true_ids.len()).max(1);
        let hits = stored.iter().take(gamma).filter(|id| true_ids.contains(id)).count();
        total += hits as f64 / denom as f64;
    }
    total / vertices.len() as f64
}

/// Structural audit of a built index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphAudit {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Mean out-degree.
    pub mean_degree: f64,
    /// Maximum out-degree.
    pub max_degree: usize,
    /// Fraction of vertices reachable from the seed (1.0 after
    /// component ⑤).
    pub reachability: f64,
}

/// Audits the structure of `graph`.
#[must_use]
pub fn audit(graph: &CsrGraph) -> GraphAudit {
    GraphAudit {
        vertices: graph.len(),
        edges: graph.num_edges(),
        mean_degree: graph.num_edges() as f64 / graph.len() as f64,
        max_degree: graph.max_degree(),
        reachability: reachable_from_seed(graph) as f64 / graph.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineBuilder;
    use crate::testutil::GridOracle;

    #[test]
    fn quality_of_exact_graph_is_one() {
        let oracle = GridOracle::new(7);
        // Build adjacency from exact knn.
        let ids: Vec<u32> = (0..oracle.len() as u32).collect();
        let truth = exact_knn_sample(&oracle, &ids, 5, 1);
        let neighbors: Vec<Vec<u32>> = truth
            .into_iter()
            .map(|l| l.into_iter().map(|n| n.id).collect())
            .collect();
        let graph = CsrGraph::from_lists(&neighbors, 0);
        let q = graph_quality(&oracle, &graph, 5, oracle.len(), 1);
        assert!(q > 0.999, "exact graph quality must be 1, got {q}");
    }

    #[test]
    fn quality_of_random_graph_is_low() {
        let oracle = GridOracle::new(10);
        let n = oracle.len();
        let neighbors: Vec<Vec<u32>> = (0..n)
            .map(|i| (0..5).map(|j| ((i + 17 * (j + 1)) % n) as u32).collect())
            .collect();
        let graph = CsrGraph::from_lists(&neighbors, 0);
        let q = graph_quality(&oracle, &graph, 5, 50, 2);
        assert!(q < 0.5, "random graph quality should be low, got {q}");
    }

    #[test]
    fn pipeline_graph_scores_high_quality() {
        let oracle = GridOracle::new(10);
        let (graph, _) = PipelineBuilder { gamma: 6, threads: 2, ..PipelineBuilder::default() }
            .build(&oracle);
        // MRNG prunes some true top-gamma neighbours by design, so quality
        // is below 1 but far above random.
        let q = graph_quality(&oracle, &graph, 6, 60, 3);
        assert!(q > 0.5, "pipeline quality too low: {q}");
        let a = audit(&graph);
        assert_eq!(a.vertices, oracle.len());
        assert!((a.reachability - 1.0).abs() < 1e-9);
        assert!(a.mean_degree > 1.0);
    }
}
