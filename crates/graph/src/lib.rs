//! Proximity-graph indexes for the MUST reproduction.
//!
//! The paper (Section VII-A) builds its *fused index* through a general
//! pipeline of five components — ① initialisation, ② candidate acquisition,
//! ③ neighbour selection, ④ seed preprocessing, ⑤ connectivity — and shows
//! that components of existing proximity graphs (KGraph, NSG, NSSG, HNSW,
//! Vamana, HCNNG) can be re-assembled inside it.  This crate implements the
//! pipeline and all of those algorithms, fully generic over an abstract
//! [`SimilarityOracle`], so the same code indexes unimodal vectors *and*
//! MUST's weighted multi-vector (joint-similarity) points.
//!
//! Conventions:
//! * Similarity is *maximised* (inner product of virtual points, Lemma 1).
//! * Vertices are `u32` ids, `0..oracle.len()`.
//! * Search follows Algorithm 2 of the paper (best-first routing over a
//!   fixed-size result pool of size `l`), with a hook for the incremental
//!   multi-vector pruning of Lemma 4 via [`QueryScorer::score_pruned`].
//!   One hop loop runs every search, and it walks one of two layouts: a
//!   [`csr::CsrGraph`] ([`search::beam_search_csr`]) or one layer of an
//!   [`hnsw::Hnsw`].
//! * A flat builder ([`PipelineBuilder::build`], [`hcnng::build_hcnng`])
//!   returns the [`csr::CsrGraph`] it is searched in: adjacency lists are
//!   construction's private scratch, frozen once with
//!   [`csr::CsrGraph::from_lists`] after component ⑤.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the crate DAG
//! and a one-paragraph tour of every crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod connect;
pub mod csr;
pub mod hcnng;
pub mod hnsw;
pub mod nndescent;
pub mod par;
pub mod pipeline;
pub mod pool;
pub mod quality;
pub mod search;
pub mod seed;
pub mod select;

pub use pipeline::{GraphRecipe, PipelineBuilder, PipelineStats};
pub use pool::{answer_order, Pool};
pub use search::{SearchParams, SearchResult, SearchScratch, SearchStats};

/// A similarity oracle over `len()` objects: everything graph construction
/// needs.  Similarities are *higher means closer* and symmetric bit for
/// bit: the occlusion tests score `sim(v, u)` for `sim(u, v)`.
pub trait SimilarityOracle: Sync {
    /// Number of objects.
    fn len(&self) -> usize;

    /// Whether the oracle is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Similarity between objects `a` and `b`.
    fn sim(&self, a: u32, b: u32) -> f32;

    /// `sim(a, b)` for every `b` in `ids`, in order, into `out` — how
    /// construction scores a batch of candidates with no threshold
    /// between them.  Must equal the per-pair values bit for bit; an
    /// oracle with a multi-pair kernel overrides it.
    ///
    /// # Panics
    /// Panics when `out` and `ids` differ in length.
    fn sims(&self, a: u32, ids: &[u32], out: &mut [f32]) {
        assert_eq!(ids.len(), out.len(), "one output slot per id");
        for (&b, s) in ids.iter().zip(out) {
            *s = self.sim(a, b);
        }
    }

    /// Self-similarity `sim(a, a)` — the squared norm of the virtual point.
    ///
    /// For unit-norm single vectors this is 1; for MUST's concatenated
    /// points it is the sum of squared weights.  Needed by the angle-based
    /// (NSSG) selection, which converts similarities to Euclidean side
    /// lengths via `d^2(a, b) = sim(a,a) + sim(b,b) - 2 sim(a,b)`.
    fn self_sim(&self, _a: u32) -> f32 {
        1.0
    }

    /// Similarity of object `a` to the centroid of all objects — used by
    /// seed preprocessing (component ④): the vertex maximising this is the
    /// fixed search seed.
    fn sim_to_centroid(&self, a: u32) -> f32;
}

/// Scoring interface a query presents to the search routine.
///
/// `score_pruned` is the hook for the paper's multi-vector computation
/// optimisation (Lemma 4): return `None` when the candidate is provably
/// `<= threshold`, else the exact score.  The default implementation simply
/// computes the exact score (no pruning).
pub trait QueryScorer {
    /// Exact similarity of object `id` to the query.
    fn score(&self, id: u32) -> f32;

    /// Similarity with a prune threshold; `None` means "provably not better
    /// than `threshold`, discarded early".
    fn score_pruned(&self, id: u32, threshold: f32) -> Option<f32> {
        let s = self.score(id);
        if s <= threshold {
            None
        } else {
            Some(s)
        }
    }

    /// Hint that `id` is about to be scored: an implementation backed by
    /// rows larger than the cache touches the candidate's storage here so
    /// the fetch overlaps the scoring of earlier candidates.  Must not
    /// change any later `score` / `score_pruned` result.  Default: no-op.
    #[inline]
    fn warm(&self, _id: u32) {}

    /// Exact scores of a hop's freshly seen neighbours `ids`, in order,
    /// into `out` (resized to fit); returns whether it wrote them.  For a
    /// scorer with a multi-pair kernel and nothing to prune — HNSW
    /// construction's `sim(node, ·)` — one batch beats `ids.len()` single
    /// calls, and the hop loop then files each score against the evolving
    /// pool threshold exactly as the default [`QueryScorer::score_pruned`]
    /// would, so only a scorer that keeps that default may return `true`.
    /// Default: `false`, and the hop loop warms and scores one id at a
    /// time, which is what a pruning scorer needs.
    #[inline]
    fn score_batch(&self, _ids: &[u32], _out: &mut Vec<f32>) -> bool {
        false
    }

    /// Whether `id` may rank.  A vertex that may not (a tombstone) still
    /// routes the walk as a [`Pool`] routing entry.  Default: `true`.
    #[inline]
    fn is_live(&self, _id: u32) -> bool {
        true
    }
}

/// Blanket scorer for ad-hoc closures (used heavily in tests).
pub struct FnScorer<F: Fn(u32) -> f32>(pub F);

impl<F: Fn(u32) -> f32> QueryScorer for FnScorer<F> {
    fn score(&self, id: u32) -> f32 {
        (self.0)(id)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::SimilarityOracle;

    /// FNV-1a over a word stream (each word hashed as 8 little-endian
    /// bytes) — the golden-hash function of the layout and hop-loop pins.
    pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// A 1-D line of points at positions `0, 1, 2, ...` with similarity
    /// `-|a - b|` — handy because nearest neighbours are obvious.
    pub struct LineOracle(pub usize);

    impl SimilarityOracle for LineOracle {
        fn len(&self) -> usize {
            self.0
        }
        fn sim(&self, a: u32, b: u32) -> f32 {
            -((a as f32) - (b as f32)).abs()
        }
        fn self_sim(&self, _a: u32) -> f32 {
            0.0
        }
        fn sim_to_centroid(&self, a: u32) -> f32 {
            let c = (self.0 as f32 - 1.0) / 2.0;
            -((a as f32) - c).abs()
        }
    }

    /// Points on a 2-D grid embedded via coordinates, similarity = -L2^2.
    pub struct GridOracle {
        pub pts: Vec<(f32, f32)>,
    }

    impl GridOracle {
        pub fn new(side: usize) -> Self {
            let mut pts = Vec::with_capacity(side * side);
            for i in 0..side {
                for j in 0..side {
                    pts.push((i as f32, j as f32));
                }
            }
            Self { pts }
        }
        pub fn centroid(&self) -> (f32, f32) {
            let n = self.pts.len() as f32;
            let (sx, sy) = self
                .pts
                .iter()
                .fold((0.0, 0.0), |(sx, sy), (x, y)| (sx + x, sy + y));
            (sx / n, sy / n)
        }
    }

    impl SimilarityOracle for GridOracle {
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
            let (cx, cy) = self.centroid();
            let (ax, ay) = self.pts[a as usize];
            -((ax - cx).powi(2) + (ay - cy).powi(2))
        }
    }

    /// Random unit vectors with dot-product similarity: ties are
    /// measure-zero (unlike the integer grids above) and exact top-k
    /// ground truth is one linear scan away — the oracle recall tests use.
    pub struct RandOracle {
        pub vecs: Vec<Vec<f32>>,
        centroid: Vec<f32>,
    }

    impl RandOracle {
        pub fn new(n: usize, dim: usize, seed: u64) -> Self {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let vecs: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    let mut v: Vec<f32> =
                        (0..dim).map(|_| rng.random::<f32>() * 2.0 - 1.0).collect();
                    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
                    for x in &mut v {
                        *x /= norm;
                    }
                    v
                })
                .collect();
            let mut centroid = vec![0.0f32; dim];
            for v in &vecs {
                for (c, x) in centroid.iter_mut().zip(v) {
                    *c += x / n as f32;
                }
            }
            Self { vecs, centroid }
        }

        /// Exact top-`k` ids for the query "most similar to `target`",
        /// including `target` itself, by brute-force scan.
        pub fn exact_top_k(&self, target: u32, k: usize) -> Vec<u32> {
            let mut scored: Vec<(u32, f32)> =
                (0..self.len() as u32).map(|id| (id, self.sim(id, target))).collect();
            scored.sort_unstable_by(crate::answer_order);
            scored.truncate(k);
            scored.into_iter().map(|(id, _)| id).collect()
        }
    }

    impl SimilarityOracle for RandOracle {
        fn len(&self) -> usize {
            self.vecs.len()
        }
        fn sim(&self, a: u32, b: u32) -> f32 {
            self.vecs[a as usize].iter().zip(&self.vecs[b as usize]).map(|(x, y)| x * y).sum()
        }
        fn self_sim(&self, a: u32) -> f32 {
            self.sim(a, a)
        }
        fn sim_to_centroid(&self, a: u32) -> f32 {
            self.vecs[a as usize].iter().zip(&self.centroid).map(|(x, c)| x * c).sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::csr::CsrGraph;

    #[test]
    fn graph_accessors() {
        let g = CsrGraph::from_lists(&[vec![1], vec![0, 2], vec![1]], 1);
        assert_eq!(g.len(), 3);
        assert_eq!(g.seed(), 1);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.max_degree(), 2);
        let a = quality::audit(&g);
        assert!((a.mean_degree - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "seed out of range")]
    fn bad_seed_panics() {
        let _ = CsrGraph::from_lists(&[vec![]], 3);
    }

    #[test]
    #[should_panic(expected = "graph must not be empty")]
    fn empty_lists_panic() {
        let _ = CsrGraph::from_lists(&[], 0);
    }

    #[test]
    fn default_score_pruned_thresholds() {
        let s = FnScorer(|id| id as f32);
        assert_eq!(s.score_pruned(5, 10.0), None);
        assert_eq!(s.score_pruned(5, 1.0), Some(5.0));
    }
}
