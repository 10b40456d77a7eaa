//! Encoder configuration and registry: how an experiment names the encoder
//! stack used for each modality (the rows of Tabs. III–VI).

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{ComposerKind, Embedder, LatentSpace, MultimodalEncoder, UnimodalEncoder, UnimodalKind};

/// How modality 0 (the target) of a query is embedded (Fig. 4(f)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetEncoding {
    /// Option 1: encode the target input independently with a unimodal
    /// encoder.
    Independent(UnimodalKind),
    /// Option 2: fuse the target with the auxiliary inputs into a
    /// composition vector using a multimodal encoder.
    Composed(ComposerKind),
}

/// A complete encoder stack for one experiment: the target-modality choice
/// plus one unimodal encoder per auxiliary modality.
///
/// The `label()` matches the paper's row names, e.g. `"CLIP+LSTM"` means
/// target embedded by the CLIP composer (Option 2) and the text modality by
/// LSTM.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EncoderConfig {
    /// Target-modality encoding choice.
    pub target: TargetEncoding,
    /// Unimodal encoders for modalities `1..m`.
    pub auxiliary: Vec<UnimodalKind>,
}

impl EncoderConfig {
    /// Convenience constructor.
    #[must_use]
    pub fn new(target: TargetEncoding, auxiliary: Vec<UnimodalKind>) -> Self {
        Self { target, auxiliary }
    }

    /// Row label as in the paper's tables.
    #[must_use]
    pub fn label(&self) -> String {
        let head = match self.target {
            TargetEncoding::Independent(k) => k.label().to_string(),
            TargetEncoding::Composed(k) => k.label().to_string(),
        };
        let mut parts = vec![head];
        parts.extend(self.auxiliary.iter().map(|k| k.label().to_string()));
        parts.join("+")
    }

    /// Number of modalities covered (target + auxiliaries).
    #[must_use]
    pub fn modalities(&self) -> usize {
        1 + self.auxiliary.len()
    }
}

/// Instantiated encoders for one dataset: shares projections across
/// experiments through interior `Arc`s and hands out trait objects, making
/// the embedding component pluggable as the paper requires (§V).
pub struct EncoderRegistry {
    space: LatentSpace,
    seed: u64,
    unimodal: std::sync::Mutex<BTreeMap<UnimodalKind, Arc<UnimodalEncoder>>>,
    composers: std::sync::Mutex<BTreeMap<ComposerKind, Arc<MultimodalEncoder>>>,
}

impl EncoderRegistry {
    /// Creates a registry for one dataset (`seed` namespaces all encoders).
    #[must_use]
    pub fn new(space: LatentSpace, seed: u64) -> Self {
        Self {
            space,
            seed,
            unimodal: std::sync::Mutex::new(BTreeMap::new()),
            composers: std::sync::Mutex::new(BTreeMap::new()),
        }
    }

    /// The latent space in force.
    pub fn space(&self) -> LatentSpace {
        self.space
    }

    /// Returns (building on first use) the unimodal encoder of `kind`.
    pub fn unimodal(&self, kind: UnimodalKind) -> Arc<UnimodalEncoder> {
        self.unimodal
            .lock()
            .expect("registry lock not poisoned")
            .entry(kind)
            .or_insert_with(|| Arc::new(UnimodalEncoder::new(kind, self.space, self.seed)))
            .clone()
    }

    /// Returns (building on first use) the multimodal composer of `kind`.
    pub fn composer(&self, kind: ComposerKind) -> Arc<MultimodalEncoder> {
        self.composers
            .lock()
            .expect("registry lock not poisoned")
            .entry(kind)
            .or_insert_with(|| Arc::new(MultimodalEncoder::new(kind, self.space, self.seed)))
            .clone()
    }

    /// The unimodal embedder used for corpus-side target vectors under
    /// `config` — `Independent`'s own encoder, or the composer's backbone.
    pub fn target_embedder(&self, config: &EncoderConfig) -> Arc<dyn Embedder> {
        match config.target {
            TargetEncoding::Independent(k) => self.unimodal(k),
            TargetEncoding::Composed(k) => self.unimodal(k.backbone()),
        }
    }
}

// BTreeMap keys need Ord.
impl Ord for UnimodalKind {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as usize).cmp(&(*other as usize))
    }
}
impl PartialOrd for UnimodalKind {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ComposerKind {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as usize).cmp(&(*other as usize))
    }
}
impl PartialOrd for ComposerKind {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_rows() {
        let c = EncoderConfig::new(
            TargetEncoding::Composed(ComposerKind::Clip),
            vec![UnimodalKind::Lstm],
        );
        assert_eq!(c.label(), "CLIP+LSTM");
        let c = EncoderConfig::new(
            TargetEncoding::Independent(UnimodalKind::ResNet50),
            vec![UnimodalKind::Gru, UnimodalKind::ResNet50],
        );
        assert_eq!(c.label(), "ResNet50+GRU+ResNet50");
        assert_eq!(c.modalities(), 3);
    }

    #[test]
    fn registry_caches_encoders() {
        let r = EncoderRegistry::new(LatentSpace::DEFAULT, 5);
        let a = r.unimodal(UnimodalKind::Lstm);
        let b = r.unimodal(UnimodalKind::Lstm);
        assert!(Arc::ptr_eq(&a, &b));
        let c = r.composer(ComposerKind::Clip);
        let d = r.composer(ComposerKind::Clip);
        assert!(Arc::ptr_eq(&c, &d));
    }

    #[test]
    fn target_embedder_uses_composer_backbone_for_option2() {
        let r = EncoderRegistry::new(LatentSpace::DEFAULT, 5);
        let cfg = EncoderConfig::new(TargetEncoding::Composed(ComposerKind::Tirg), vec![]);
        let e = r.target_embedder(&cfg);
        assert_eq!(e.name(), "TIRG-visual");
    }
}
