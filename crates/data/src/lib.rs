//! Dataset generators for the MUST reproduction.
//!
//! The paper evaluates on four real-world multimodal datasets (CelebA,
//! MIT-States, Shopping, MS-COCO), one extended dataset (CelebA+), and four
//! semi-synthetic large-scale ones (ImageText1M, AudioText1M, VideoText1M,
//! ImageText16M).  We cannot ship those corpora, so this crate generates
//! *attribute-structured* synthetic equivalents that preserve the structure
//! the paper's measurements depend on (DESIGN.md §1):
//!
//! * every object is a `(class, attribute)` pair plus individual variation —
//!   a noun in a state (MIT-States), an identity with facial attributes
//!   (CelebA), a garment with fabric/colour/pattern (Shopping);
//! * the corpus text for an object *describes its attribute*, so many
//!   objects share (near-)identical auxiliary content — the source of MR's
//!   merge ambiguity;
//! * an MSTM query supplies a *reference* object of the desired class but a
//!   different attribute, plus a description of the desired attribute; its
//!   ground truth is every object matching `(class, desired attribute)` —
//!   exactly the protocol of the paper's Figs. 3 and 5.
//!
//! Generators emit [`LatentDataset`]s (pure semantics); the [`embed`] module
//! materialises them into vector corpora and query workloads for a chosen
//! [`must_encoders::EncoderConfig`].

//!
//! See `docs/ARCHITECTURE.md` at the repository root for the crate DAG
//! and a one-paragraph tour of every crate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod embed;
pub mod semisynthetic;
pub mod structured;
pub mod universe;

use must_encoders::{Latent, LatentSpace};

/// The role a modality plays in a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModalityRole {
    /// The target modality (always index 0): grounded content the search
    /// results are rendered in.
    Target,
    /// An auxiliary grounded modality (a second reference image, audio…).
    GroundedAux,
    /// An auxiliary descriptive modality (text, structured attributes).
    DescriptiveAux,
}

/// Ground-truth labels of one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectLabels {
    /// Class id (noun / identity / garment).
    pub class: u32,
    /// Attribute id (state / facial attributes / fabric-colour-pattern).
    pub attr: u32,
}

/// One MSTM query in latent form.
#[derive(Debug, Clone)]
pub struct LatentQuery {
    /// Per-modality latents; `None` for unsupplied modalities (`t < m`).
    pub latents: Vec<Option<Latent>>,
    /// Label-based ground truth: ids of all matching objects (`G` in
    /// Eq. 1).  Empty for semi-synthetic datasets, whose ground truth is
    /// computed by exact joint search downstream.
    pub ground_truth: Vec<u32>,
    /// The object this query was generated around — the positive example
    /// for the vector-weight-learning model (Section VI-A).
    pub anchor: u32,
    /// Labels the query asks for (desired class and attribute).
    pub want: ObjectLabels,
}

/// A generated dataset in latent (pre-embedding) form.
#[derive(Debug, Clone)]
pub struct LatentDataset {
    /// Dataset name (paper's Tab. II).
    pub name: String,
    /// The latent space all contents live in.
    pub space: LatentSpace,
    /// Modality roles; `roles[0]` is always [`ModalityRole::Target`].
    pub roles: Vec<ModalityRole>,
    /// `object_latents[o][i]` — latent of object `o` in modality `i`.
    pub object_latents: Vec<Vec<Latent>>,
    /// Labels of every object.
    pub labels: Vec<ObjectLabels>,
    /// The query workload.
    pub queries: Vec<LatentQuery>,
}

impl LatentDataset {
    /// Number of objects.
    #[must_use]
    pub fn len(&self) -> usize {
        self.object_latents.len()
    }

    /// Whether the dataset has no objects.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.object_latents.is_empty()
    }

    /// Number of modalities `m`.
    #[must_use]
    pub fn num_modalities(&self) -> usize {
        self.roles.len()
    }

    /// One-line statistics row (Tab. II style).
    #[must_use]
    pub fn stats_row(&self) -> String {
        format!(
            "{:<16} m={} n={} queries={}",
            self.name,
            self.num_modalities(),
            self.len(),
            self.queries.len()
        )
    }

    /// Validates internal consistency (used by tests and debug builds).
    pub fn validate(&self) -> Result<(), String> {
        if self.roles.first() != Some(&ModalityRole::Target) {
            return Err("modality 0 must be the target".into());
        }
        if self.labels.len() != self.len() {
            return Err("labels/objects length mismatch".into());
        }
        for (o, mods) in self.object_latents.iter().enumerate() {
            if mods.len() != self.num_modalities() {
                return Err(format!("object {o} has {} modalities", mods.len()));
            }
        }
        for (qi, q) in self.queries.iter().enumerate() {
            if q.latents.len() != self.num_modalities() {
                return Err(format!("query {qi} has {} slots", q.latents.len()));
            }
            if q.latents[0].is_none() && q.latents.iter().all(Option::is_none) {
                return Err(format!("query {qi} supplies no modality"));
            }
            if q.anchor as usize >= self.len() {
                return Err(format!("query {qi} anchor out of range"));
            }
            for &g in &q.ground_truth {
                if g as usize >= self.len() {
                    return Err(format!("query {qi} ground truth out of range"));
                }
            }
        }
        Ok(())
    }
}
