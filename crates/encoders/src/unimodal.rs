//! Simulated unimodal encoders (the paper's `phi_i`, Appendix B).

use must_vector::kernels;

use crate::noise::{content_hash, projection_matrix, GaussianStream};
use crate::{Embedder, Latent, LatentSpace};

/// The unimodal encoder families used in the paper's experiments
/// (Appendix B), with the output dimensionality and noise level we
/// calibrated for each (higher noise = worse encoder = higher SME).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnimodalKind {
    /// 17-layer ResNet image encoder — weaker visual backbone.
    ResNet17,
    /// 50-layer ResNet image encoder — stronger visual backbone.
    ResNet50,
    /// LSTM text encoder — the stronger free-text encoder on
    /// attribute-style descriptions (Tab. III).
    Lstm,
    /// Transformer (BERT-style) text encoder — noisier than LSTM on the
    /// paper's short state descriptions (Tab. III).
    Transformer,
    /// GRU text encoder (used on MS-COCO).
    Gru,
    /// Ordinal/structured attribute encoding — near-noiseless but
    /// inherently ambiguous (many objects share identical attribute text).
    Encoding,
    /// CLIP's visual tower used as a unimodal image encoder
    /// (the corpus-side backbone of the CLIP composer).
    ClipVisual,
    /// TIRG's visual backbone.
    TirgVisual,
    /// MPC's visual backbone.
    MpcVisual,
}

impl UnimodalKind {
    /// Display name matching the paper's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::ResNet17 => "ResNet17",
            Self::ResNet50 => "ResNet50",
            Self::Lstm => "LSTM",
            Self::Transformer => "Transformer",
            Self::Gru => "GRU",
            Self::Encoding => "Encoding",
            Self::ClipVisual => "CLIP-visual",
            Self::TirgVisual => "TIRG-visual",
            Self::MpcVisual => "MPC-visual",
        }
    }

    /// Output dimensionality of the simulated encoder.
    #[must_use]
    pub fn dim(self) -> usize {
        match self {
            Self::ResNet17 | Self::ResNet50 | Self::ClipVisual | Self::TirgVisual | Self::MpcVisual => 64,
            Self::Lstm | Self::Transformer | Self::Gru | Self::Encoding => 32,
        }
    }

    /// Calibrated encoder-noise standard deviation (relative to the
    /// unit-norm signal).  Chosen so the paper's encoder ordering holds.
    #[must_use]
    pub fn sigma(self) -> f32 {
        match self {
            Self::ResNet17 => 0.90,
            Self::ResNet50 => 0.60,
            Self::ClipVisual => 0.50,
            Self::TirgVisual => 0.70,
            Self::MpcVisual => 0.70,
            Self::Lstm => 0.40,
            Self::Transformer => 0.80,
            Self::Gru => 0.55,
            Self::Encoding => 0.05,
        }
    }

    /// A stable per-kind seed component, so two encoders of the same kind
    /// built with the same dataset seed share their projection.
    fn seed_tag(self) -> u64 {
        match self {
            Self::ResNet17 => 0x11,
            Self::ResNet50 => 0x22,
            Self::Lstm => 0x33,
            Self::Transformer => 0x44,
            Self::Gru => 0x55,
            Self::Encoding => 0x66,
            Self::ClipVisual => 0x77,
            Self::TirgVisual => 0x88,
            Self::MpcVisual => 0x99,
        }
    }
}

/// A simulated unimodal encoder: seeded random projection + per-content
/// deterministic Gaussian noise + L2 normalisation.
#[derive(Debug, Clone)]
pub struct UnimodalEncoder {
    kind: UnimodalKind,
    space: LatentSpace,
    /// Row-major `dim x space.total()` projection.
    projection: Vec<f32>,
    seed: u64,
    /// Noise override (defaults to `kind.sigma()`); dataset generators may
    /// scale it to model harder corpora.
    sigma: f32,
}

impl UnimodalEncoder {
    /// Builds the encoder for `kind` over `space`; `seed` namespaces the
    /// projection and the per-content noise (one seed per dataset).
    #[must_use]
    pub fn new(kind: UnimodalKind, space: LatentSpace, seed: u64) -> Self {
        let seed = seed ^ kind.seed_tag().wrapping_mul(0x2545_F491_4F6C_DD1D);
        Self {
            kind,
            space,
            projection: projection_matrix(kind.dim(), space.total(), seed),
            seed,
            sigma: kind.sigma(),
        }
    }

    /// Same encoder with a different noise level (dataset difficulty knob).
    #[must_use]
    pub fn with_sigma(mut self, sigma: f32) -> Self {
        self.sigma = sigma;
        self
    }

    /// The encoder family.
    #[must_use]
    pub fn kind(&self) -> UnimodalKind {
        self.kind
    }

    /// The latent space this encoder reads.
    #[must_use]
    pub fn space(&self) -> LatentSpace {
        self.space
    }

    /// Noise level in force.
    #[must_use]
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// Projects a raw latent-value slice (no noise, no normalisation).
    /// Shared with the multimodal composers that reuse this backbone.
    pub(crate) fn project(&self, values: &[f32]) -> Vec<f32> {
        debug_assert_eq!(values.len(), self.space.total());
        let d = self.kind.dim();
        let l = self.space.total();
        let mut out = vec![0.0f32; d];
        for (r, o) in out.iter_mut().enumerate() {
            *o = kernels::ip(&self.projection[r * l..(r + 1) * l], values);
        }
        out
    }

    /// Adds deterministic per-content noise and normalises.
    ///
    /// `extra_sigma` stacks additional noise on top of the encoder's own
    /// (the composers' modality-gap term); `salt` separates noise streams
    /// of different consumers of the same backbone.
    pub(crate) fn finish_embedding(
        &self,
        mut projected: Vec<f32>,
        content: &[f32],
        extra_sigma: f32,
        salt: u64,
    ) -> Vec<f32> {
        let sigma = (self.sigma * self.sigma + extra_sigma * extra_sigma).sqrt();
        if sigma > 0.0 {
            let h = content_hash(content, self.seed ^ salt);
            let mut g = GaussianStream::new(h);
            // Noise scaled relative to the projected signal's norm so sigma
            // is a signal-to-noise knob independent of dimensionality.
            let signal = kernels::norm(&projected).max(1e-6);
            let per_coord = sigma * signal / (projected.len() as f32).sqrt();
            for x in projected.iter_mut() {
                *x += (g.next_standard() as f32) * per_coord;
            }
        }
        if !kernels::normalize(&mut projected) {
            // Degenerate (zero) latent: fall back to a deterministic unit
            // vector so downstream code never sees NaNs.
            projected = vec![0.0; self.kind.dim()];
            projected[0] = 1.0;
        }
        projected
    }
}

impl Embedder for UnimodalEncoder {
    fn name(&self) -> &str {
        self.kind.label()
    }

    fn dim(&self) -> usize {
        self.kind.dim()
    }

    fn embed(&self, latent: &Latent) -> Vec<f32> {
        let projected = self.project(latent.values());
        self.finish_embedding(projected, latent.values(), 0.0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatentKind;

    fn latent(seed: f32) -> Latent {
        let vals: Vec<f32> = (0..LatentSpace::DEFAULT.total())
            .map(|i| ((i as f32 + seed) * 0.37).sin())
            .collect();
        Latent::new(vals, LatentKind::Grounded)
    }

    #[test]
    fn embedding_is_unit_norm_and_deterministic() {
        let e = UnimodalEncoder::new(UnimodalKind::ResNet50, LatentSpace::DEFAULT, 7);
        let a = e.embed(&latent(1.0));
        let b = e.embed(&latent(1.0));
        assert_eq!(a, b);
        assert!(kernels::is_unit_norm(&a, 1e-5));
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn different_contents_embed_differently() {
        let e = UnimodalEncoder::new(UnimodalKind::Lstm, LatentSpace::DEFAULT, 7);
        let a = e.embed(&latent(1.0));
        let b = e.embed(&latent(2.0));
        assert!(kernels::ip(&a, &b) < 0.999);
    }

    #[test]
    fn similar_latents_embed_similarly_under_low_noise() {
        let e = UnimodalEncoder::new(UnimodalKind::Encoding, LatentSpace::DEFAULT, 7);
        let base = latent(1.0);
        let mut close_vals = base.values().to_vec();
        close_vals[0] += 0.01;
        let close = Latent::new(close_vals, LatentKind::Grounded);
        let far = latent(9.0);
        let e_base = e.embed(&base);
        let sim_close = kernels::ip(&e_base, &e.embed(&close));
        let sim_far = kernels::ip(&e_base, &e.embed(&far));
        assert!(
            sim_close > sim_far,
            "geometry must be preserved: close {sim_close} vs far {sim_far}"
        );
    }

    #[test]
    fn noisier_encoder_distorts_geometry_more() {
        // Measure how much each encoder perturbs the similarity of a fixed
        // latent pair, averaged over several pairs.
        let space = LatentSpace::DEFAULT;
        let mut err17 = 0.0f32;
        let mut err50 = 0.0f32;
        for trial in 0..20 {
            let a = latent(trial as f32);
            let b = latent(trial as f32 + 0.3);
            let true_sim = {
                let mut av = a.values().to_vec();
                let mut bv = b.values().to_vec();
                kernels::normalize(&mut av);
                kernels::normalize(&mut bv);
                kernels::ip(&av, &bv)
            };
            let e17 = UnimodalEncoder::new(UnimodalKind::ResNet17, space, trial);
            let e50 = UnimodalEncoder::new(UnimodalKind::ResNet50, space, trial);
            err17 += (kernels::ip(&e17.embed(&a), &e17.embed(&b)) - true_sim).abs();
            err50 += (kernels::ip(&e50.embed(&a), &e50.embed(&b)) - true_sim).abs();
        }
        assert!(err17 > err50, "ResNet17 ({err17}) must be noisier than ResNet50 ({err50})");
    }

    #[test]
    fn seeds_namespace_projections() {
        let a = UnimodalEncoder::new(UnimodalKind::Gru, LatentSpace::DEFAULT, 1);
        let b = UnimodalEncoder::new(UnimodalKind::Gru, LatentSpace::DEFAULT, 2);
        assert_ne!(a.embed(&latent(0.0)), b.embed(&latent(0.0)));
    }

    #[test]
    fn zero_latent_yields_fallback_unit_vector() {
        let e = UnimodalEncoder::new(UnimodalKind::Encoding, LatentSpace::DEFAULT, 1).with_sigma(0.0);
        let z = Latent::new(vec![0.0; LatentSpace::DEFAULT.total()], LatentKind::Descriptive);
        let v = e.embed(&z);
        assert!(kernels::is_unit_norm(&v, 1e-6));
    }
}
