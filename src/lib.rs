//! # must — Multimodal Search of Target Modality
//!
//! Facade crate re-exporting the whole MUST workspace (a from-scratch
//! reproduction of "MUST: An Effective and Scalable Framework for
//! Multimodal Search of Target Modality", ICDE 2024):
//!
//! * [`vector`] — vector storage, similarity kernels, multi-vector
//!   representation, weighted joint similarity (Lemmas 1 & 4).
//! * [`encoders`] — simulated unimodal/multimodal encoders behind the
//!   pluggable `Embedder`/`Composer` traits.
//! * [`data`] — synthetic multimodal dataset generators with MSTM query
//!   workloads and ground truth.
//! * [`graph`] — the component-based proximity-graph pipeline
//!   (Algorithm 1) and the KGraph/NSG/NSSG/Vamana/HCNNG/HNSW backends.
//! * [`core`] — the MUST framework itself: weight learning, fused index,
//!   joint search (Algorithm 2), the MR/JE baselines, persistence, and
//!   the single-shard + sharded scatter-gather serving layers.
//!
//! See `examples/quickstart.rs` for the 60-second tour,
//! `docs/ARCHITECTURE.md` for the crate DAG and a one-paragraph tour of
//! every crate, and `DESIGN.md` for the system inventory.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use must_core as core;
pub use must_data as data;
pub use must_encoders as encoders;
pub use must_graph as graph;
pub use must_vector as vector;

/// Convenience prelude: the types most applications need.
pub mod prelude {
    pub use must_core::framework::{Must, MustBuildOptions};
    pub use must_core::metrics::recall_at;
    pub use must_core::persist;
    pub use must_core::runtime::{EngineWorker, RuntimeCounters, ServeEngine, ServeRuntime};
    pub use must_core::server::{MustServer, ServeReply, ServeRequest, ServerWorker};
    pub use must_core::shard::{
        RoutePolicy, ShardSpec, ShardSummary, ShardedMust, ShardedServer, ShardedWorker,
    };
    pub use must_core::weights::{WeightLearnConfig, WeightLearner};
    pub use must_vector::{
        FusedRows, ModalityView, MultiQuery, MultiVectorSet, VectorSet, VectorSetBuilder, Weights,
    };
}
