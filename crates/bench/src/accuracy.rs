//! Shared accuracy-experiment machinery for Tabs. III–VI, VIII–X,
//! XIX–XXI: embed a latent dataset under an encoder configuration, learn
//! weights on a training split, and evaluate each framework's recall and
//! SME on the evaluation split.
//!
//! Accuracy tables use exact (brute-force) search for every framework:
//! they measure the *fusion* quality of each framework, independent of
//! index approximation (the paper's index error at the operating points of
//! Tabs. III–VI is negligible; index effects are measured separately in
//! Figs. 6–10).

use must_core::baselines::mr_brute_force;
use must_core::metrics::{recall_at, sme};
use must_core::search::{brute_force_search, modality_top_k};
use must_core::weights::{LearnedWeights, WeightLearnConfig};
use must_core::Must;
use must_data::embed::{embed_dataset, EmbeddedDataset, EmbeddedQuery};
use must_data::LatentDataset;
use must_encoders::{EncoderConfig, EncoderRegistry};
use must_vector::{MultiQuery, ObjectId, Weights};

/// The three frameworks of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    /// Joint Embedding (single composition vector over the target index).
    Je,
    /// Multi-streamed Retrieval (per-modality search + merge).
    Mr,
    /// The MUST framework (weighted joint similarity).
    Must,
}

impl Framework {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Je => "JE",
            Self::Mr => "MR",
            Self::Must => "MUST",
        }
    }
}

/// A dataset embedded under one encoder configuration, with a train/eval
/// query split.
pub struct Prepared {
    /// The embedded corpus and workload.
    pub embedded: EmbeddedDataset,
    /// Indices of training queries (weight-learning anchors).
    pub train: Vec<usize>,
    /// Indices of evaluation queries.
    pub eval: Vec<usize>,
}

/// Embeds and splits (first 30 % of queries, capped at 512, train).
pub fn prepare(
    dataset: &LatentDataset,
    config: &EncoderConfig,
    registry: &EncoderRegistry,
) -> Prepared {
    let embedded = embed_dataset(dataset, config, registry);
    let n_q = embedded.queries.len();
    let n_train = (n_q * 3 / 10).clamp(1.min(n_q), 512);
    Prepared {
        embedded,
        train: (0..n_train).collect(),
        eval: (n_train..n_q).collect(),
    }
}

impl Prepared {
    /// Weight-learning anchors from the training split.
    #[must_use]
    pub fn anchors(&self) -> Vec<(&MultiQuery, ObjectId)> {
        self.train
            .iter()
            .map(|&i| {
                let q = &self.embedded.queries[i];
                (&q.query, q.anchor)
            })
            .collect()
    }

    /// Evaluation queries.
    pub fn eval_queries(&self) -> impl Iterator<Item = &EmbeddedQuery> {
        self.eval.iter().map(|&i| &self.embedded.queries[i])
    }

    /// Learns weights on the training anchors.
    #[must_use]
    pub fn learn(&self, config: &WeightLearnConfig) -> LearnedWeights {
        Must::learn_weights(&self.embedded.objects, &self.anchors(), config)
    }
}

/// Result of one accuracy run.
#[derive(Debug, Clone)]
pub struct AccuracyRun {
    /// Mean `Recall@k(k')` per requested `k`.
    pub recalls: Vec<f64>,
    /// Mean SME of the top-1 result.
    pub sme: f64,
}

fn eval_results<F>(prepared: &Prepared, ks: &[usize], mut run_query: F) -> AccuracyRun
where
    F: FnMut(&EmbeddedQuery) -> Vec<ObjectId>,
{
    let max_k = ks.iter().copied().max().unwrap_or(1);
    let mut recall_sums = vec![0.0f64; ks.len()];
    let mut sme_sum = 0.0f64;
    let mut n = 0usize;
    for q in prepared.eval_queries() {
        let results = run_query(q);
        debug_assert!(results.len() <= max_k.max(results.len()));
        for (slot, &k) in recall_sums.iter_mut().zip(ks) {
            *slot += recall_at(&results, &q.ground_truth, k);
        }
        if let (Some(&top), Some(&truth)) = (results.first(), q.ground_truth.first()) {
            sme_sum += sme(&prepared.embedded.objects, truth, top);
        } else {
            sme_sum += 1.0;
        }
        n += 1;
    }
    let n = n.max(1) as f64;
    AccuracyRun {
        recalls: recall_sums.into_iter().map(|s| s / n).collect(),
        sme: sme_sum / n,
    }
}

/// Runs the JE framework (exact search over the target modality with the
/// composed slot-0 vector).
#[must_use]
pub fn run_je(prepared: &Prepared, ks: &[usize]) -> AccuracyRun {
    let max_k = ks.iter().copied().max().unwrap_or(1);
    let target = prepared.embedded.objects.modality(0);
    eval_results(prepared, ks, |q| {
        let slot = q.query.slot(0).expect("JE rows use composed configs");
        modality_top_k(target, slot, max_k)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    })
}

/// Runs the MR framework (exact per-modality top-`l_candidates` + merge).
#[must_use]
pub fn run_mr(prepared: &Prepared, ks: &[usize], l_candidates: usize) -> AccuracyRun {
    let max_k = ks.iter().copied().max().unwrap_or(1);
    let objects = &prepared.embedded.objects;
    eval_results(prepared, ks, |q| mr_brute_force(objects, &q.query, max_k, l_candidates).0)
}

/// Runs the MUST framework under `weights` (exact joint search).
#[must_use]
pub fn run_must(prepared: &Prepared, ks: &[usize], weights: &Weights) -> AccuracyRun {
    let max_k = ks.iter().copied().max().unwrap_or(1);
    let rows = prepared.embedded.objects.fused();
    eval_results(prepared, ks, |q| {
        brute_force_search(rows, &q.query, weights, max_k, true)
            .expect("valid query")
            .results
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    })
}

/// Runs MUST end-to-end: learn weights then evaluate.
#[must_use]
pub fn run_must_learned(
    prepared: &Prepared,
    ks: &[usize],
    learn_config: &WeightLearnConfig,
) -> AccuracyRun {
    let learned = prepared.learn(learn_config);
    run_must(prepared, ks, &learned.weights)
}

/// One row spec of an accuracy table: framework + encoder configuration.
pub struct RowSpec {
    /// Framework to run.
    pub framework: Framework,
    /// Encoder configuration.
    pub config: EncoderConfig,
    /// Row label override (JE rows show the composer alone).
    pub label: String,
}

impl RowSpec {
    /// Creates a row with the default label.
    #[must_use]
    pub fn new(framework: Framework, config: EncoderConfig) -> Self {
        let label = match framework {
            Framework::Je => match config.target {
                must_encoders::TargetEncoding::Composed(c) => c.label().to_string(),
                must_encoders::TargetEncoding::Independent(k) => k.label().to_string(),
            },
            _ => config.label(),
        };
        Self { framework, config, label }
    }
}

/// Runs a full accuracy table (Tabs. III–VI, XXI): one row per
/// framework × encoder configuration, columns `Recall@k(1)` per `k` plus
/// SME; MR merges `mr_candidates` per modality, MUST learns its weights
/// under the default configuration.
pub fn accuracy_table(
    id: &str,
    title: &str,
    dataset: &LatentDataset,
    rows: &[RowSpec],
    ks: &[usize],
    mr_candidates: usize,
) -> crate::report::Table {
    crate::banner(dataset);
    let registry = crate::registry();
    let mut headers: Vec<String> = vec!["Framework".into(), "Encoder".into()];
    headers.extend(ks.iter().map(|k| format!("Recall@{k}(1)")));
    headers.push("SME".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = crate::report::Table::new(id, title, &header_refs);
    for row in rows {
        let prepared = prepare(dataset, &row.config, &registry);
        let run = match row.framework {
            Framework::Je => run_je(&prepared, ks),
            Framework::Mr => run_mr(&prepared, ks, mr_candidates),
            Framework::Must => run_must_learned(&prepared, ks, &WeightLearnConfig::default()),
        };
        let mut cells = vec![row.framework.label().to_string(), row.label.clone()];
        cells.extend(run.recalls.iter().map(|r| crate::report::f4(*r)));
        cells.push(crate::report::f4(run.sme));
        table.push_row(cells);
    }
    table
}

/// Evaluates a single-modality workload: queries masked to supply only
/// modality `modality` (Tabs. X, XIX, XX).
#[must_use]
pub fn run_single_modality(prepared: &Prepared, ks: &[usize], modality: usize) -> AccuracyRun {
    let max_k = ks.iter().copied().max().unwrap_or(1);
    let objects = &prepared.embedded.objects;
    eval_results(prepared, ks, |q| {
        match q.query.slot(modality) {
            Some(slot) => modality_top_k(objects.modality(modality), slot, max_k)
                .into_iter()
                .map(|(id, _)| id)
                .collect(),
            None => Vec::new(),
        }
    })
}
