//! The fused index (Algorithm 1): a proximity graph over joint similarity,
//! built through `must-graph`'s component pipeline with pluggable backends
//! (Section VIII-G, Fig. 10).

use std::time::Instant;

use must_graph::csr::CsrGraph;
use must_graph::hcnng::build_hcnng;
use must_graph::hnsw::{Hnsw, HnswParams};
use must_graph::pipeline::PipelineStats;
use must_graph::search::{beam_search_csr, SearchScratch};
use must_graph::{GraphRecipe, QueryScorer, SearchParams, SearchResult};

use crate::framework::MustBuildOptions;
use crate::oracle::JointOracle;
use crate::MustError;

/// A built index — the one a [`crate::Must`] owns, a bundle stores and a
/// server serves: flat graphs (all pipeline recipes + HCNNG) in CSR
/// layout, frozen once when construction ends, or the layered HNSW on the
/// fixed-stride slabs it was built on.  Cloneable so one built index can
/// be re-wrapped under a different weight configuration (the
/// query-time-weighting tests pin that a weight override over a shared
/// index equals a re-freeze).
#[derive(Clone)]
pub enum MustIndex {
    /// A flat graph in compressed sparse rows, with its fixed seed.
    Csr(CsrGraph),
    /// Hierarchical navigable small-world graph.
    Hnsw(Hnsw),
}

/// Fixed RNG seed for the flat walk's random pool initialisation.  A
/// constant makes a query's results a pure function of the query — the
/// property that lets concurrent and serial execution, and an offline
/// `Must` and the server frozen from it, agree bit-for-bit.  The repo
/// benchmark's layer probes replicate this value.
const SERVE_RNG_SEED: u64 = 0x5E7E_D05E_ED00;

impl MustIndex {
    /// Runs Algorithm 2 for `scorer`.  The flat walk seeds its random pool
    /// initialisation with one constant for every query, so results do
    /// not depend on arrival order; HNSW descends from its entry point and
    /// draws nothing.
    pub(crate) fn search<S: QueryScorer>(
        &self,
        scorer: &S,
        params: SearchParams,
        scratch: &mut SearchScratch,
    ) -> SearchResult {
        match self {
            Self::Csr(csr) => beam_search_csr(csr, scorer, params, scratch, SERVE_RNG_SEED),
            Self::Hnsw(h) => h.search_with_scratch(scorer, params, scratch),
        }
    }

    /// The flat graph, when applicable (case studies inspect neighbours).
    #[must_use]
    pub fn graph(&self) -> Option<&CsrGraph> {
        match self {
            Self::Csr(csr) => Some(csr),
            Self::Hnsw(_) => None,
        }
    }

    /// Number of indexed objects.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Csr(csr) => csr.len(),
            Self::Hnsw(h) => h.len(),
        }
    }

    /// Whether the index is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Display label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Csr(_) => "CSR",
            Self::Hnsw(_) => "HNSW",
        }
    }

    /// Index memory footprint in bytes: `4·(n+1) + 4·edges` for a flat
    /// graph, the two slabs for HNSW.
    #[must_use]
    pub fn bytes(&self) -> usize {
        match self {
            Self::Csr(csr) => csr.bytes(),
            Self::Hnsw(h) => h.bytes(),
        }
    }
}

/// Construction report (feeds Figs. 7, 10(a), 14).
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Recipe used.
    pub recipe: GraphRecipe,
    /// Neighbour bound `gamma`.
    pub gamma: usize,
    /// Total wall-clock build seconds.
    pub build_secs: f64,
    /// Adjacency memory footprint in bytes.
    pub index_bytes: usize,
    /// Pipeline phase breakdown, when a pipeline recipe was used.
    pub pipeline: Option<PipelineStats>,
}

/// Builds the fused index over `oracle` (Algorithm 1 / the chosen backend)
/// from the graph fields of `opts`.
///
/// # Errors
/// Returns [`MustError::Config`] for degenerate options.
pub fn build_index(
    oracle: &JointOracle<'_>,
    opts: &MustBuildOptions,
) -> Result<(MustIndex, BuildReport), MustError> {
    if opts.gamma == 0 {
        return Err(MustError::Config("gamma must be positive".into()));
    }
    use must_graph::SimilarityOracle as _;
    if oracle.len() == 0 {
        return Err(MustError::Config("cannot index an empty object set".into()));
    }
    let t0 = Instant::now();
    let threads = if opts.threads == 0 { must_graph::par::build_threads() } else { opts.threads };
    let (index, pipeline) = match opts.recipe {
        GraphRecipe::Hnsw => {
            // Wave-scheduled parallel insertion: thread-count invariant,
            // so the budget is purely a wall-clock knob.
            let h = Hnsw::build_with_threads(
                oracle,
                HnswParams {
                    m: (opts.gamma / 2).max(4),
                    ef_construction: (opts.gamma * 4).max(64),
                    rng_seed: opts.rng_seed,
                },
                threads,
            );
            (MustIndex::Hnsw(h), None)
        }
        GraphRecipe::Hcnng => (MustIndex::Csr(build_hcnng(oracle, opts.rng_seed, threads)), None),
        recipe => {
            let mut builder = recipe
                .pipeline(opts.gamma, opts.rng_seed)
                .expect("pipeline recipe");
            builder.threads = threads;
            let (g, stats) = builder.build(oracle);
            (MustIndex::Csr(g), Some(stats))
        }
    };
    let report = BuildReport {
        recipe: opts.recipe,
        gamma: opts.gamma,
        build_secs: t0.elapsed().as_secs_f64(),
        index_bytes: index.bytes(),
        pipeline,
    };
    Ok((index, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use must_vector::{MultiVectorSet, VectorSetBuilder, Weights};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(n: usize) -> MultiVectorSet {
        let mut rng = StdRng::seed_from_u64(11);
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

    #[test]
    fn builds_all_backends() {
        let set = corpus(300);
        let w = Weights::uniform(2);
        let oracle = JointOracle::new(&set, &w).unwrap();
        for recipe in GraphRecipe::all() {
            let (index, report) = build_index(
                &oracle,
                &MustBuildOptions { gamma: 10, recipe, ..Default::default() },
            )
            .unwrap();
            assert_eq!(index.len(), 300, "{}", recipe.label());
            assert!(report.build_secs > 0.0);
            assert!(report.index_bytes > 0);
            match recipe {
                GraphRecipe::Hnsw => assert!(index.graph().is_none()),
                _ => assert!(index.graph().is_some()),
            }
        }
    }

    #[test]
    fn rejects_zero_gamma_and_empty_sets() {
        let set = corpus(10);
        let w = Weights::uniform(2);
        let oracle = JointOracle::new(&set, &w).unwrap();
        assert!(build_index(&oracle, &MustBuildOptions { gamma: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn larger_gamma_means_larger_index() {
        let set = corpus(400);
        let w = Weights::uniform(2);
        let oracle = JointOracle::new(&set, &w).unwrap();
        let (_, small) =
            build_index(&oracle, &MustBuildOptions { gamma: 6, ..Default::default() }).unwrap();
        let (_, large) =
            build_index(&oracle, &MustBuildOptions { gamma: 20, ..Default::default() }).unwrap();
        assert!(
            large.index_bytes > small.index_bytes,
            "{} vs {}",
            large.index_bytes,
            small.index_bytes
        );
    }
}
