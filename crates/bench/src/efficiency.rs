//! Shared efficiency-experiment machinery for Figs. 6–8, 10 and Tabs. VII,
//! XI, XII: real indexes, single-threaded search, QPS vs recall sweeps.

use std::time::Instant;

use must_core::baselines::{mr_brute_force, MultiStreamedRetrieval};
use must_core::metrics::recall_at;
use must_core::runtime::EngineWorker;
use must_core::search::exact_ground_truth;
use must_core::weights::WeightLearnConfig;
use must_core::{Must, MustBuildOptions};
use must_data::embed::embed_dataset;
use must_data::LatentDataset;
use must_encoders::{EncoderConfig, TargetEncoding, UnimodalKind};
use must_graph::search::SearchScratch;
use must_vector::{MultiQuery, ObjectId, Weights};

/// The default encoder configuration for semi-synthetic datasets
/// (multi-vector: ResNet50 target + LSTM text, as in the paper's
/// million-scale runs).
#[must_use]
pub fn semisynthetic_config() -> EncoderConfig {
    EncoderConfig::new(
        TargetEncoding::Independent(UnimodalKind::ResNet50),
        vec![UnimodalKind::Lstm],
    )
}

/// A fully prepared efficiency setup: built MUST index, built MR indexes,
/// evaluation queries with exact top-`k` ground truth under MUST's weights.
pub struct EffSetup {
    /// Built MUST instance.
    pub must: Must,
    /// Evaluation queries.
    pub queries: Vec<MultiQuery>,
    /// Exact top-`k` ground truth per query.
    pub ground_truth: Vec<Vec<ObjectId>>,
    /// `k` the ground truth was computed for.
    pub k: usize,
    /// Weights in force.
    pub weights: Weights,
}

/// Prepares an efficiency setup from a semi-synthetic latent dataset.
///
/// Weights are learned on a training slice of the workload; ground truth
/// is the exact joint top-`k` under those weights (the protocol of
/// Figs. 6–8).
#[must_use]
pub fn prepare(dataset: &LatentDataset, k: usize, build: MustBuildOptions) -> EffSetup {
    let registry = crate::registry();
    let config = semisynthetic_config();
    let embedded = embed_dataset(dataset, &config, &registry);
    let n_q = embedded.queries.len();
    let n_train = (n_q / 2).clamp(1, 256);

    let anchors: Vec<(&MultiQuery, ObjectId)> = embedded.queries[..n_train]
        .iter()
        .map(|q| (&q.query, q.anchor))
        .collect();
    let learned = Must::learn_weights(
        &embedded.objects,
        &anchors,
        &WeightLearnConfig { epochs: 150, ..Default::default() },
    );
    let weights = learned.weights;

    let queries: Vec<MultiQuery> =
        embedded.queries[n_train..].iter().map(|q| q.query.clone()).collect();
    let ground_truth =
        exact_ground_truth(&embedded.objects, &weights, &queries, k).expect("valid workload");

    let must = Must::build(embedded.objects, weights.clone(), build).expect("build");
    EffSetup { must, queries, ground_truth, k, weights }
}

/// One point of a QPS–recall curve.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Pool size (or candidate size) that produced the point.
    pub l: usize,
    /// Mean `Recall@k(k)`.
    pub recall: f64,
    /// Queries per second (single-threaded).
    pub qps: f64,
}

/// One pass of `search` over the setup's workload, timed: the sweep point
/// labelled `l`.  Recall scoring sits inside the clock, as it always has.
fn timed_point(
    setup: &EffSetup,
    l: usize,
    mut search: impl FnMut(&MultiQuery) -> Vec<ObjectId>,
) -> SweepPoint {
    let t0 = Instant::now();
    let mut recall_sum = 0.0;
    for (q, gt) in setup.queries.iter().zip(&setup.ground_truth) {
        recall_sum += recall_at(&search(q), gt, setup.k);
    }
    let secs = t0.elapsed().as_secs_f64();
    SweepPoint {
        l,
        recall: recall_sum / setup.queries.len() as f64,
        qps: setup.queries.len() as f64 / secs,
    }
}

/// Sweeps pool size `l` for MUST's joint search (Fig. 6 "MUST" curve).
#[must_use]
pub fn must_sweep(setup: &EffSetup, ls: &[usize]) -> Vec<SweepPoint> {
    let mut worker = setup.must.worker();
    ls.iter()
        .map(|&l| {
            timed_point(setup, l, |q| {
                let out = worker.run_query(q, None, setup.k, l).expect("valid query");
                out.results.iter().map(|r| r.0).collect()
            })
        })
        .collect()
}

/// The `MUST--` brute-force point (recall 1.0 by construction).
#[must_use]
pub fn must_brute_point(setup: &EffSetup) -> SweepPoint {
    timed_point(setup, 0, |q| {
        let out = setup.must.brute_force(q, setup.k).expect("valid query");
        out.results.iter().map(|r| r.0).collect()
    })
}

/// Builds MR over the same corpus (per-modality indexes) at MUST's `gamma`.
#[must_use]
pub fn build_mr(setup: &EffSetup) -> MultiStreamedRetrieval<'_> {
    MultiStreamedRetrieval::build(setup.must.objects(), setup.must.report().gamma)
}

/// Sweeps MR's per-modality candidate size (Fig. 6 "MR" curve).
#[must_use]
pub fn mr_sweep(
    setup: &EffSetup,
    mr: &MultiStreamedRetrieval<'_>,
    candidate_sizes: &[usize],
) -> Vec<SweepPoint> {
    let mut visited = SearchScratch::default();
    candidate_sizes
        .iter()
        .map(|&c| {
            timed_point(setup, c, |q| {
                mr.search(q, setup.k, c, &mut visited).expect("valid query").results
            })
        })
        .collect()
}

/// The `MR--` brute-force point.
#[must_use]
pub fn mr_brute_point(setup: &EffSetup, candidates: usize) -> SweepPoint {
    timed_point(setup, candidates, |q| {
        mr_brute_force(setup.must.objects(), q, setup.k, candidates).0
    })
}

/// Converts sweep points to `(recall, qps)` series points.
#[must_use]
pub fn to_series(points: &[SweepPoint]) -> Vec<(f64, f64)> {
    points.iter().map(|p| (p.recall, p.qps)).collect()
}

/// Default pool-size sweep for MUST curves.
pub const MUST_LS: &[usize] = &[10, 20, 40, 80, 160, 320, 640, 1280];

/// Default candidate-size sweep for MR curves.
pub const MR_LS: &[usize] = &[10, 30, 100, 300, 1000, 3000];
