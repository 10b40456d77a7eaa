//! # MUST — Multimodal Search of Target Modality
//!
//! A from-scratch Rust implementation of the MUST framework
//! (Wang et al., ICDE 2024): answering multimodal queries whose results are
//! rendered in one *target* modality, guided by auxiliary modalities.
//!
//! The framework's pieces, mapped to the paper:
//!
//! * [`metrics`] — `Recall@k(k')` (Eq. 1) and the similarity-measurement
//!   error `SME` (Eq. 4).
//! * [`oracle`] — the joint-similarity oracle over a
//!   [`must_vector::FusedRows`] + [`must_vector::Weights`] (Lemma 1),
//!   and the query scorer wiring the Lemma-4 multi-vector pruning into
//!   graph search.
//! * [`weights`] — the vector-weight-learning model (Section VI):
//!   contrastive loss over hard negatives mined by exact search under the
//!   current weights, optimised by analytic gradient descent.
//! * [`index`] — the fused index (Algorithm 1) built through
//!   `must-graph`'s component pipeline, with pluggable graph backends
//!   (Section VIII-G).
//! * [`search`] — the joint search (Algorithm 2) plus the brute-force
//!   searcher (`MUST--`).
//! * [`baselines`] — Multi-streamed Retrieval (MR) and Joint Embedding
//!   (JE), the Section III baselines, plus their brute-force variants.
//! * [`framework`] — the user-facing [`Must`] API: embed → weigh → index →
//!   search.
//! * [`persist`] — the offline/online seam (Fig. 4): bundle v5 binary
//!   persistence (unscaled fused rows + segment norms + default weights,
//!   all backends incl. HNSW), its quantized (v7) and sharded (v6)
//!   siblings, and loaders for exactly those three.
//! * [`server`] — the online serving layer: a `Send + Sync`
//!   [`MustServer`] handle (a frozen [`Must`] behind an `Arc`, searched by
//!   the same query body as [`Must::search`]) answering queries from many
//!   threads with results bit-identical to serial execution, and
//!   per-query weight overrides (`search_weighted`) served from the same
//!   frozen snapshot.
//! * [`shard`] — sharded scatter-gather serving: [`ShardedMust`] builds
//!   `S` clustered shards in parallel,
//!   [`ShardedServer`] fans each query out — or **routes** it to only
//!   the best-scoring shards via per-shard summaries ([`RoutePolicy`])
//!   — and merges the per-shard top-`k` by exact joint similarity;
//!   bundle v6 persists the whole deployment, summaries included, in
//!   one file.
//! * [`runtime`] — the one serving interface: each engine's worker
//!   writes one query body ([`runtime::EngineWorker::run_query`]) and the
//!   weighted one-off, batch and `serve` entry points are provided
//!   methods of [`runtime::ServeEngine`]; plus the runtime behind
//!   `serve` — one shared queue, batch affinity, panic isolation,
//!   drain-on-shutdown.
//!
//! See `docs/ARCHITECTURE.md` at the repository root for the crate DAG
//! and a one-paragraph tour of every crate.
//!
//! ## Quick example
//!
//! ```
//! use must_core::framework::{Must, MustBuildOptions};
//! use must_vector::{FusedRows, MultiQuery, VectorSetBuilder, Weights};
//!
//! // A toy corpus: 4 objects x 2 modalities.
//! let mut m0 = VectorSetBuilder::new(4, 4);
//! let mut m1 = VectorSetBuilder::new(2, 4);
//! for (img, txt) in [([1.0f32, 0., 0., 0.], [1.0f32, 0.]),
//!                    ([0., 1., 0., 0.], [1., 0.]),
//!                    ([0., 0., 1., 0.], [0., 1.]),
//!                    ([0., 0., 0., 1.], [0., 1.])] {
//!     m0.push_normalized(&img).unwrap();
//!     m1.push_normalized(&txt).unwrap();
//! }
//! let objects = FusedRows::new(vec![m0.finish(), m1.finish()]).unwrap();
//! let must = Must::build(objects, Weights::uniform(2), MustBuildOptions::default()).unwrap();
//! let query = MultiQuery::full(vec![vec![0., 0., 0.9, 0.1], vec![0., 1.]]);
//! let hits = must.search(&query, 1, 8).unwrap();
//! assert_eq!(hits.results[0].0, 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod framework;
pub mod index;
pub mod metrics;
pub mod oracle;
pub mod persist;
pub mod runtime;
pub mod search;
pub mod server;
pub mod shard;
pub mod weights;

pub use framework::{Must, MustBuildOptions};
pub use metrics::{recall_at, sme};
pub use oracle::{JointOracle, MustQueryScorer};
pub use runtime::{RuntimeCounters, ServeRuntime};
pub use server::{MustServer, ServeReply, ServeRequest};
pub use shard::{RoutePolicy, ShardSpec, ShardSummary, ShardedMust, ShardedServer};
pub use weights::{LearnedWeights, TrainingCurve, WeightLearnConfig, WeightLearner};

/// Crate-level error type.
#[derive(Debug)]
pub enum MustError {
    /// Underlying vector-layer error.
    Vector(must_vector::VectorError),
    /// Invalid configuration.
    Config(String),
    /// I/O or (de)serialisation failure while persisting or loading an
    /// index bundle.
    ///
    /// ```
    /// use must_core::MustError;
    ///
    /// let missing = std::path::Path::new("/definitely/not/here.mustb");
    /// let Err(err) = must_core::persist::load(missing) else {
    ///     panic!("loading a missing bundle must fail");
    /// };
    /// assert!(matches!(err, MustError::Io(_)));
    /// assert!(err.to_string().contains("i/o error"));
    /// ```
    Io(String),
    /// The engine panicked while running this one query; the string is
    /// the panic message.  [`runtime::ServeRuntime`] and
    /// [`runtime::ServeEngine::search_batch`] answer such a query with
    /// this error and keep serving every other one.
    Panicked(String),
}

impl std::fmt::Display for MustError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Vector(e) => write!(f, "vector error: {e}"),
            Self::Config(msg) => write!(f, "configuration error: {msg}"),
            Self::Io(msg) => write!(f, "i/o error: {msg}"),
            Self::Panicked(msg) => write!(f, "query panicked: {msg}"),
        }
    }
}

impl std::error::Error for MustError {}

impl From<must_vector::VectorError> for MustError {
    fn from(e: must_vector::VectorError) -> Self {
        Self::Vector(e)
    }
}
