//! Materialises a [`LatentDataset`] into vector corpora and query workloads
//! under a chosen encoder configuration (the embedding stage of Fig. 4).

use must_encoders::{Composer, Embedder, EncoderConfig, EncoderRegistry, TargetEncoding};
use must_vector::{FusedRows, MultiQuery, VectorSet, VectorSetBuilder};

use crate::{LatentDataset, ObjectLabels};

/// One embedded query: vectors, ground truth, anchor.
#[derive(Debug, Clone)]
pub struct EmbeddedQuery {
    /// Per-modality query vectors (slot 0 is Option-1 or Option-2 encoded
    /// per the configuration).
    pub query: MultiQuery,
    /// Label-based ground truth (empty for semi-synthetic datasets).
    pub ground_truth: Vec<u32>,
    /// The generating anchor object (weight-learning positive example).
    pub anchor: u32,
    /// Wanted labels.
    pub want: ObjectLabels,
}

/// A fully materialised dataset: the multi-vector corpus plus the workload.
#[derive(Debug, Clone)]
pub struct EmbeddedDataset {
    /// Dataset name.
    pub name: String,
    /// Encoder configuration label (paper's table rows).
    pub config_label: String,
    /// The multi-vector object corpus.
    pub objects: FusedRows,
    /// The query workload.
    pub queries: Vec<EmbeddedQuery>,
    /// Object labels (for case studies and label-based recall).
    pub labels: Vec<ObjectLabels>,
}

/// Small scoped-thread parallel map (the data crate does not depend on
/// `must-graph`, so it carries its own 15-line helper).
fn par_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from).min(n.max(1));
    if threads <= 1 || n < 256 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slot) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            scope.spawn(move || {
                for (off, s) in slot.iter_mut().enumerate() {
                    *s = Some(f(t * chunk + off));
                }
            });
        }
    });
    out.into_iter().map(|x| x.expect("filled")).collect()
}

/// Embeds `dataset` under `config` using `registry`'s encoders.
///
/// # Panics
/// Panics when the configuration arity does not match the dataset's
/// modality count (programmer error at the experiment level).
pub fn embed_dataset(
    dataset: &LatentDataset,
    config: &EncoderConfig,
    registry: &EncoderRegistry,
) -> EmbeddedDataset {
    assert_eq!(
        config.modalities(),
        dataset.num_modalities(),
        "encoder config covers {} modalities but dataset {} has {}",
        config.modalities(),
        dataset.name,
        dataset.num_modalities()
    );
    let n = dataset.len();
    let m = dataset.num_modalities();

    // Corpus-side embedders: target first, then auxiliaries.
    let target_embedder = registry.target_embedder(config);
    let aux_embedders: Vec<_> =
        config.auxiliary.iter().map(|&k| registry.unimodal(k)).collect();

    let mut modality_sets: Vec<VectorSet> = Vec::with_capacity(m);
    for mi in 0..m {
        let embedder: &dyn Embedder = if mi == 0 {
            target_embedder.as_ref()
        } else {
            aux_embedders[mi - 1].as_ref()
        };
        let rows = par_map(n, |o| embedder.embed(&dataset.object_latents[o][mi]));
        let mut builder = VectorSetBuilder::new(embedder.dim(), n);
        for row in &rows {
            builder.push_normalized(row).expect("encoders emit valid vectors");
        }
        modality_sets.push(builder.finish());
    }
    let objects = FusedRows::new(modality_sets).expect("equal cardinality");

    // Query-side embedding.
    let composer = match config.target {
        TargetEncoding::Composed(kind) => Some(registry.composer(kind)),
        TargetEncoding::Independent(_) => None,
    };
    let queries = par_map(dataset.queries.len(), |qi| {
        let q = &dataset.queries[qi];
        let mut slots: Vec<Option<Vec<f32>>> = Vec::with_capacity(m);
        // Slot 0: Option 1 (independent) or Option 2 (composed).
        let slot0 = match (&composer, &q.latents[0]) {
            (Some(c), Some(_)) => {
                let supplied: Vec<&must_encoders::Latent> =
                    q.latents.iter().flatten().collect();
                Some(c.compose(&supplied))
            }
            (None, Some(l)) => Some(target_embedder.embed(l)),
            (_, None) => None,
        };
        slots.push(slot0);
        for mi in 1..m {
            slots.push(q.latents[mi].as_ref().map(|l| aux_embedders[mi - 1].embed(l)));
        }
        EmbeddedQuery {
            query: MultiQuery::partial(slots),
            ground_truth: q.ground_truth.clone(),
            anchor: q.anchor,
            want: q.want,
        }
    });

    EmbeddedDataset {
        name: dataset.name.clone(),
        config_label: config.label(),
        objects,
        queries,
        labels: dataset.labels.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::{generate, StructuredSpec};
    use crate::ModalityRole;
    use must_encoders::{ComposerKind, LatentSpace, UnimodalKind};

    fn dataset() -> LatentDataset {
        generate(&StructuredSpec {
            name: "embed-test".into(),
            n_objects: 120,
            n_queries: 15,
            n_classes: 10,
            n_attrs: 8,
            attrs_per_class: 3,
            jitter: 0.15,
            text_variation: 0.0,
            reference_noise: 0.08,
            roles: vec![ModalityRole::Target, ModalityRole::DescriptiveAux],
            grounded_aux_shares_content: false,
            seed: 9,
        })
    }

    #[test]
    fn option1_embeds_target_independently() {
        let ds = dataset();
        let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 9);
        let config = EncoderConfig::new(
            must_encoders::TargetEncoding::Independent(UnimodalKind::ResNet50),
            vec![UnimodalKind::Lstm],
        );
        let e = embed_dataset(&ds, &config, &registry);
        assert_eq!(e.objects.len(), 120);
        assert_eq!(e.objects.num_modalities(), 2);
        assert_eq!(e.objects.modality(0).dim(), 64);
        assert_eq!(e.objects.modality(1).dim(), 32);
        assert_eq!(e.queries.len(), 15);
        assert_eq!(e.config_label, "ResNet50+LSTM");
    }

    #[test]
    fn option2_composes_the_target_slot() {
        let ds = dataset();
        let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 9);
        let composed = EncoderConfig::new(
            must_encoders::TargetEncoding::Composed(ComposerKind::Clip),
            vec![UnimodalKind::Lstm],
        );
        let independent = EncoderConfig::new(
            must_encoders::TargetEncoding::Independent(UnimodalKind::ResNet50),
            vec![UnimodalKind::Lstm],
        );
        let a = embed_dataset(&ds, &composed, &registry);
        let b = embed_dataset(&ds, &independent, &registry);
        // Composed slot-0 differs from independent slot-0.
        let qa = a.queries[0].query.slot(0).unwrap();
        let qb = b.queries[0].query.slot(0).unwrap();
        assert_ne!(qa, qb);
        // But the auxiliary slot is identical (same LSTM encoder).
        assert_eq!(a.queries[0].query.slot(1), b.queries[0].query.slot(1));
    }

    #[test]
    fn composed_query_is_closer_to_anchor_than_raw_reference() {
        // The whole point of Option 2: the composition moves the query
        // towards the (class, wanted-attr) target.
        let ds = dataset();
        let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 9);
        let composed = EncoderConfig::new(
            must_encoders::TargetEncoding::Composed(ComposerKind::Clip),
            vec![UnimodalKind::Lstm],
        );
        let raw = EncoderConfig::new(
            must_encoders::TargetEncoding::Independent(UnimodalKind::ClipVisual),
            vec![UnimodalKind::Lstm],
        );
        let a = embed_dataset(&ds, &composed, &registry);
        let b = embed_dataset(&ds, &raw, &registry);
        let mut composed_better = 0;
        for (qa, qb) in a.queries.iter().zip(&b.queries) {
            let anchor_vec = a.objects.modality(0).get(qa.anchor);
            let s_comp = must_vector::kernels::ip(qa.query.slot(0).unwrap(), anchor_vec);
            let s_raw = must_vector::kernels::ip(qb.query.slot(0).unwrap(), anchor_vec);
            if s_comp > s_raw {
                composed_better += 1;
            }
        }
        assert!(
            composed_better * 3 >= a.queries.len() * 2,
            "composition should usually help: {composed_better}/{}",
            a.queries.len()
        );
    }

    #[test]
    #[should_panic(expected = "encoder config covers")]
    fn arity_mismatch_panics() {
        let ds = dataset();
        let registry = EncoderRegistry::new(LatentSpace::DEFAULT, 9);
        let config = EncoderConfig::new(
            must_encoders::TargetEncoding::Independent(UnimodalKind::ResNet50),
            vec![UnimodalKind::Lstm, UnimodalKind::Gru],
        );
        let _ = embed_dataset(&ds, &config, &registry);
    }
}
