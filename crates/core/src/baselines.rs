//! The Section III baselines: Multi-streamed Retrieval (MR) and Joint
//! Embedding (JE), plus their brute-force variants (`MR--`).
//!
//! MR builds one proximity graph per modality, runs one sub-query per
//! supplied modality, and merges candidate sets by intersection — the
//! paper's diagnosis is that the unknown modality importance makes this
//! merge both slow and inaccurate (Section VIII-D).  JE embeds the whole
//! query into one composition vector and searches the target-modality
//! index alone.

use std::time::Instant;

use must_graph::csr::CsrGraph;
use must_graph::search::{beam_search_csr, SearchScratch};
use must_graph::{PipelineBuilder, SimilarityOracle};
use must_vector::{FusedRows, ModalityView, MultiQuery, ObjectId};

use crate::oracle::SingleModalityScorer;
use crate::search::{modality_top_k, request_params};
use crate::MustError;

/// Similarity oracle over a single modality (unit-norm IP).
pub struct SingleModalityOracle<'a> {
    set: ModalityView<'a>,
    centroid: Vec<f32>,
}

impl<'a> SingleModalityOracle<'a> {
    /// Creates the oracle for one modality's vectors.
    #[must_use]
    pub fn new(set: ModalityView<'a>) -> Self {
        Self { centroid: set.centroid(), set }
    }
}

impl SimilarityOracle for SingleModalityOracle<'_> {
    fn len(&self) -> usize {
        self.set.len()
    }
    fn sim(&self, a: u32, b: u32) -> f32 {
        self.set.ip(a, b)
    }
    fn sims(&self, a: u32, ids: &[u32], out: &mut [f32]) {
        self.set.ips(a, ids, out);
    }
    fn sim_to_centroid(&self, a: u32) -> f32 {
        self.set.ip_to(a, &self.centroid)
    }
}

/// Build RNG seed of every baseline graph.
const BASELINE_RNG_SEED: u64 = 0xBA5E;

/// Builds one modality's graph with MUST's fused pipeline (the paper's
/// "same index and search strategy in all competitors" rule) at neighbour
/// bound `gamma`.
fn build_single_modality_graph(set: ModalityView<'_>, gamma: usize) -> CsrGraph {
    let oracle = SingleModalityOracle::new(set);
    PipelineBuilder { gamma, rng_seed: BASELINE_RNG_SEED, ..PipelineBuilder::default() }
        .build(&oracle)
        .0
}

// ---------------------------------------------------------------------------
// Multi-streamed Retrieval (MR)
// ---------------------------------------------------------------------------

/// MR: one graph per modality, merged candidates.
pub struct MultiStreamedRetrieval<'a> {
    set: &'a FusedRows,
    graphs: Vec<CsrGraph>,
    /// Total build seconds (sum over the per-modality indexes).
    pub build_secs: f64,
}

/// One MR search outcome.
#[derive(Debug, Clone)]
pub struct MrOutcome {
    /// Merged top-`k` ids.
    pub results: Vec<ObjectId>,
    /// Size of the candidate intersection before truncation.
    pub intersection_size: usize,
    /// Wall-clock seconds (sub-queries + merge).
    pub secs: f64,
}

impl<'a> MultiStreamedRetrieval<'a> {
    /// Builds one index per modality, each with neighbour bound `gamma`.
    ///
    /// # Panics
    /// When `gamma` is 0 or `set` is empty.
    #[must_use]
    pub fn build(set: &'a FusedRows, gamma: usize) -> Self {
        let t0 = Instant::now();
        let graphs = set.modalities().map(|m| build_single_modality_graph(m, gamma)).collect();
        Self { set, graphs, build_secs: t0.elapsed().as_secs_f64() }
    }

    /// Total index bytes across all per-modality graphs (Fig. 7), counted
    /// as [`crate::index::MustIndex::bytes`] counts a flat graph.
    pub fn index_bytes(&self) -> usize {
        self.graphs.iter().map(CsrGraph::bytes).sum()
    }

    /// Runs one sub-query per supplied modality with candidate-set size
    /// `l_candidates`, then merges (Section III / VIII-D).
    ///
    /// Merge rule: candidates present in *every* sub-query's set form the
    /// intersection, ranked by their unweighted similarity sum (modality
    /// importance is unknown to MR); if the intersection is smaller than
    /// `k`, remaining slots are filled by presence count, then similarity.
    ///
    /// # Errors
    /// [`MustError::Config`] for `l_candidates = 0`; [`MustError::Vector`]
    /// when a supplied slot's dimensionality does not match its modality.
    pub fn search(
        &self,
        query: &MultiQuery,
        k: usize,
        l_candidates: usize,
        scratch: &mut SearchScratch,
    ) -> Result<MrOutcome, MustError> {
        let t0 = Instant::now();
        let params = request_params(l_candidates, l_candidates.max(k))?;
        let mut per_modality: Vec<Vec<(ObjectId, f32)>> = Vec::new();
        for (mi, graph) in self.graphs.iter().enumerate() {
            let Some(slot) = query.slot(mi) else { continue };
            let scorer = SingleModalityScorer::new(self.set.modality(mi), slot)?;
            let res = beam_search_csr(graph, &scorer, params, scratch, 0x111 + mi as u64);
            per_modality.push(res.results);
        }
        let (results, intersection_size) = merge_candidates(&per_modality, k);
        Ok(MrOutcome { results, intersection_size, secs: t0.elapsed().as_secs_f64() })
    }
}

/// `MR--`: the exact top-`l_candidates` of every supplied modality (a
/// brute-force scan, no graph), then [`merge_candidates`].  Returns the
/// merged top-`k` ids and the intersection size.
#[must_use]
pub fn mr_brute_force(
    objects: &FusedRows,
    query: &MultiQuery,
    k: usize,
    l_candidates: usize,
) -> (Vec<ObjectId>, usize) {
    let per_modality: Vec<Vec<(ObjectId, f32)>> = (0..objects.num_modalities())
        .filter_map(|mi| {
            let slot = query.slot(mi)?;
            Some(modality_top_k(objects.modality(mi), slot, l_candidates))
        })
        .collect();
    merge_candidates(&per_modality, k)
}

/// The MR merge: intersection first (ranked by similarity sum), then by
/// presence count.  Exposed for direct unit testing.
#[must_use]
pub fn merge_candidates(
    per_modality: &[Vec<(ObjectId, f32)>],
    k: usize,
) -> (Vec<ObjectId>, usize) {
    if per_modality.is_empty() {
        return (Vec::new(), 0);
    }
    use std::collections::HashMap;
    let mut tally: HashMap<ObjectId, (usize, f32)> = HashMap::new();
    for cands in per_modality {
        for &(id, sim) in cands {
            let e = tally.entry(id).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += sim;
        }
    }
    let channels = per_modality.len();
    let mut scored: Vec<(ObjectId, usize, f32)> =
        tally.into_iter().map(|(id, (cnt, sum))| (id, cnt, sum)).collect();
    let intersection_size = scored.iter().filter(|(_, cnt, _)| *cnt == channels).count();
    // Presence count first (intersection dominates), then similarity sum,
    // then id: the tally's hash order is per-process random, and the id
    // key is what makes tied candidates come out the same every run.
    scored.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(b.2.total_cmp(&a.2)).then(a.0.cmp(&b.0)));
    (scored.into_iter().take(k).map(|(id, _, _)| id).collect(), intersection_size)
}

// ---------------------------------------------------------------------------
// Joint Embedding (JE)
// ---------------------------------------------------------------------------

/// JE: a single graph over the target modality; queries must carry a
/// composition vector in slot 0 (Option 2 encoding).
pub struct JointEmbedding<'a> {
    set: ModalityView<'a>,
    graph: CsrGraph,
    /// Build seconds.
    pub build_secs: f64,
}

impl<'a> JointEmbedding<'a> {
    /// Builds the target-modality index with neighbour bound `gamma`.
    ///
    /// # Panics
    /// When `gamma` is 0 or `objects` is empty.
    #[must_use]
    pub fn build(objects: &'a FusedRows, gamma: usize) -> Self {
        let t0 = Instant::now();
        let set = objects.modality(0);
        let graph = build_single_modality_graph(set, gamma);
        Self { set, graph, build_secs: t0.elapsed().as_secs_f64() }
    }

    /// Searches with the query's composition vector (slot 0); `l < k`
    /// searches at `l = k`, as [`crate::Must::search`] does.
    ///
    /// # Errors
    /// [`MustError::Config`] for `k = 0` and when slot 0 is missing;
    /// [`MustError::Vector`] when its dimensionality is not the target
    /// modality's.
    pub fn search(
        &self,
        query: &MultiQuery,
        k: usize,
        l: usize,
        scratch: &mut SearchScratch,
    ) -> Result<Vec<(ObjectId, f32)>, MustError> {
        let params = request_params(k, l)?;
        let slot = query
            .slot(0)
            .ok_or_else(|| MustError::Config("JE requires the composed target slot".into()))?;
        let scorer = SingleModalityScorer::new(self.set, slot)?;
        Ok(beam_search_csr(&self.graph, &scorer, params, scratch, 0x7E).results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use must_vector::{VectorSetBuilder, Weights};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn corpus(n: usize) -> FusedRows {
        let mut rng = StdRng::seed_from_u64(21);
        let mut m0 = VectorSetBuilder::new(8, n);
        let mut m1 = VectorSetBuilder::new(4, n);
        for _ in 0..n {
            let v0: Vec<f32> = (0..8).map(|_| rng.random::<f32>() - 0.5).collect();
            let v1: Vec<f32> = (0..4).map(|_| rng.random::<f32>() - 0.5).collect();
            m0.push_normalized(&v0).unwrap();
            m1.push_normalized(&v1).unwrap();
        }
        FusedRows::new(vec![m0.finish(), m1.finish()]).unwrap()
    }

    #[test]
    fn batched_single_modality_sims_are_the_per_pair_ones() {
        // Every id-list length 0..=9: every remainder past a chunk of four.
        let set = corpus(30);
        for k in 0..set.num_modalities() {
            let oracle = SingleModalityOracle::new(set.modality(k));
            for len in 0..=9u32 {
                let ids: Vec<u32> = (0..len).map(|i| (i * 7 + 3) % 30).collect();
                let mut out = vec![f32::NAN; ids.len()];
                oracle.sims(5, &ids, &mut out);
                for (&b, got) in ids.iter().zip(&out) {
                    assert_eq!(got.to_bits(), oracle.sim(5, b).to_bits(), "modality {k}, len {len}");
                }
            }
        }
    }

    #[test]
    fn merge_prefers_full_intersection() {
        let a = vec![(1, 0.9), (2, 0.8), (3, 0.7)];
        let b = vec![(4, 0.95), (2, 0.6), (5, 0.5)];
        let (merged, isect) = merge_candidates(&[a, b], 2);
        assert_eq!(isect, 1);
        assert_eq!(merged[0], 2, "the only intersected id must rank first");
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn merge_of_disjoint_sets_falls_back_to_similarity() {
        let a = vec![(1, 0.9)];
        let b = vec![(2, 0.95)];
        let (merged, isect) = merge_candidates(&[a, b], 2);
        assert_eq!(isect, 0);
        assert_eq!(merged, vec![2, 1]);
    }

    #[test]
    fn merge_breaks_ties_by_ascending_id() {
        // 200 ids with identical presence and similarity sum: only the id
        // can order them, whatever order the hash tally yields them in.
        let ids: Vec<ObjectId> = (0..200).map(|i| (i * 7919) % 1000).collect();
        let a: Vec<(ObjectId, f32)> = ids.iter().map(|&id| (id, 0.5)).collect();
        let b: Vec<(ObjectId, f32)> = ids.iter().rev().map(|&id| (id, 0.25)).collect();
        let (merged, isect) = merge_candidates(&[a, b], 50);
        assert_eq!(isect, 200);
        let mut want = ids;
        want.sort_unstable();
        want.truncate(50);
        assert_eq!(merged, want);
    }

    #[test]
    fn merge_handles_empty_input() {
        let (merged, isect) = merge_candidates(&[], 5);
        assert!(merged.is_empty());
        assert_eq!(isect, 0);
    }

    #[test]
    fn mr_finds_objects_matching_both_modalities() {
        let set = corpus(300);
        let mr = MultiStreamedRetrieval::build(&set, 10);
        assert!(mr.index_bytes() > 0);
        let mut visited = SearchScratch::default();
        // Query = object 37's own vectors: it is in both top candidate
        // sets, so the intersection must surface it.
        let q = MultiQuery::full(vec![
            set.modality(0).get(37).to_vec(),
            set.modality(1).get(37).to_vec(),
        ]);
        let out = mr.search(&q, 5, 50, &mut visited).unwrap();
        assert!(out.results.contains(&37), "results: {:?}", out.results);
        assert!(out.intersection_size >= 1);
    }

    #[test]
    fn mr_brute_force_agrees_with_graph_version_at_high_l() {
        let set = corpus(200);
        let mr = MultiStreamedRetrieval::build(&set, 12);
        let q = MultiQuery::full(vec![
            set.modality(0).get(11).to_vec(),
            set.modality(1).get(11).to_vec(),
        ]);
        let (exact, _) = mr_brute_force(&set, &q, 3, 80);
        let mut visited = SearchScratch::default();
        let approx = mr.search(&q, 3, 80, &mut visited).unwrap();
        assert_eq!(exact[0], approx.results[0]);
    }

    #[test]
    fn je_searches_target_modality_only() {
        let set = corpus(250);
        let je = JointEmbedding::build(&set, 10);
        let mut visited = SearchScratch::default();
        let q = MultiQuery::full(vec![set.modality(0).get(9).to_vec(), set.modality(1).get(200).to_vec()]);
        let res = je.search(&q, 1, 40, &mut visited).unwrap();
        // JE ignores modality 1 entirely: the top hit follows slot 0.
        assert_eq!(res[0].0, 9);
    }

    #[test]
    fn je_rejects_missing_or_misshapen_slot0() {
        let set = corpus(50);
        let je = JointEmbedding::build(&set, 8);
        let mut visited = SearchScratch::default();
        let no_slot = MultiQuery::partial(vec![None, Some(set.modality(1).get(0).to_vec())]);
        assert!(je.search(&no_slot, 1, 10, &mut visited).is_err());
        let wrong_dim = MultiQuery::full(vec![vec![1.0, 0.0], set.modality(1).get(0).to_vec()]);
        assert!(je.search(&wrong_dim, 1, 10, &mut visited).is_err());
    }

    #[test]
    fn mr_uses_uniform_importance_not_learned_weights() {
        // Build a set where a weighted metric would rank differently from
        // the unweighted sum; MR must follow the unweighted sum.
        let set = corpus(100);
        let _unused = Weights::new(vec![0.9, 0.1]).unwrap();
        let a = vec![(1u32, 0.9f32), (2, 0.2)];
        let b = vec![(1, 0.1), (2, 0.85)];
        let (merged, _) = merge_candidates(&[a, b], 2);
        // Sum(1) = 1.0, Sum(2) = 1.05 -> 2 first under uniform importance.
        assert_eq!(merged[0], 2);
        let _ = set;
    }
}
