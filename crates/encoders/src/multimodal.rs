//! Simulated multimodal composers (the paper's `Phi`, Appendix B:
//! TIRG, CLIP combiner, MPC).

use crate::{Composer, Embedder, Latent, LatentKind, LatentSpace, UnimodalEncoder, UnimodalKind};

/// The multimodal encoder families of the paper, with our calibrated
/// composition parameters.
///
/// * `fidelity` — the fraction of the grounded inputs' attribute semantics
///   the composer successfully *replaces* with the descriptive inputs'
///   attributes.  Real composed encoders do this imperfectly; the residue of
///   the reference's old state is the dominant JE error mode in the paper's
///   case studies (Figs. 3, 5, 16–21).
/// * `gap_sigma` — extra "modality gap" noise added on top of the visual
///   backbone's own noise (the joint-embedding error the paper quantifies
///   via SME).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComposerKind {
    /// Text-Image Residual Gating (Vo et al., CVPR 2019).
    Tirg,
    /// CLIP-based combiner (Baldrati et al., CVPR 2022) — the strongest
    /// composer in the paper.
    Clip,
    /// Multimodal Probabilistic Composer (Neculai et al., CVPR 2022) —
    /// fuses three or more modalities, with the largest embedding error
    /// (the paper's MS-COCO experiments, Tab. VI).
    Mpc,
}

impl ComposerKind {
    /// Display name matching the paper's tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Tirg => "TIRG",
            Self::Clip => "CLIP",
            Self::Mpc => "MPC",
        }
    }

    /// Composition fidelity `rho` (attribute-replacement success fraction).
    #[must_use]
    pub fn fidelity(self) -> f32 {
        match self {
            Self::Tirg => 0.45,
            Self::Clip => 0.60,
            Self::Mpc => 0.35,
        }
    }

    /// Modality-gap noise standard deviation.
    #[must_use]
    pub fn gap_sigma(self) -> f32 {
        match self {
            Self::Tirg => 0.65,
            Self::Clip => 0.50,
            Self::Mpc => 0.80,
        }
    }

    /// The visual backbone the composer shares with its corpus-side
    /// embedding (so `Phi(q)` and `phi_0(o_0)` live in one space, Eq. 3).
    #[must_use]
    pub fn backbone(self) -> UnimodalKind {
        match self {
            Self::Tirg => UnimodalKind::TirgVisual,
            Self::Clip => UnimodalKind::ClipVisual,
            Self::Mpc => UnimodalKind::MpcVisual,
        }
    }

    fn salt(self) -> u64 {
        match self {
            Self::Tirg => 0xA1,
            Self::Clip => 0xB2,
            Self::Mpc => 0xC3,
        }
    }
}

/// A simulated multimodal encoder: composes a pseudo-latent from the query
/// latents and projects it with its visual backbone plus modality-gap noise.
#[derive(Debug, Clone)]
pub struct MultimodalEncoder {
    kind: ComposerKind,
    backbone: UnimodalEncoder,
    space: LatentSpace,
}

impl MultimodalEncoder {
    /// Builds the composer for `kind` over `space` with dataset seed `seed`.
    #[must_use]
    pub fn new(kind: ComposerKind, space: LatentSpace, seed: u64) -> Self {
        Self { kind, backbone: UnimodalEncoder::new(kind.backbone(), space, seed), space }
    }

    /// The composer family.
    #[must_use]
    pub fn kind(&self) -> ComposerKind {
        self.kind
    }

    /// The shared visual backbone.
    #[must_use]
    pub fn backbone(&self) -> &UnimodalEncoder {
        &self.backbone
    }

    /// Builds the composed pseudo-latent: grounded class + fidelity-blended
    /// attributes.  Pure function of the inputs; exposed for tests.
    fn pseudo_latent(&self, latents: &[&Latent]) -> Vec<f32> {
        assert!(!latents.is_empty(), "composition needs at least one latent");
        let space = &self.space;
        let mut class = vec![0.0f32; space.class_dims];
        let mut attr_grounded = vec![0.0f32; space.attr_dims];
        let mut attr_desc = vec![0.0f32; space.attr_dims];
        let (mut n_grounded, mut n_desc) = (0usize, 0usize);
        for l in latents {
            match l.kind() {
                LatentKind::Grounded => {
                    for (c, v) in class.iter_mut().zip(l.class_part(space)) {
                        *c += v;
                    }
                    for (a, v) in attr_grounded.iter_mut().zip(l.attr_part(space)) {
                        *a += v;
                    }
                    n_grounded += 1;
                }
                LatentKind::Descriptive => {
                    for (a, v) in attr_desc.iter_mut().zip(l.attr_part(space)) {
                        *a += v;
                    }
                    n_desc += 1;
                }
            }
        }
        if n_grounded > 0 {
            let inv = 1.0 / n_grounded as f32;
            class.iter_mut().for_each(|c| *c *= inv);
            attr_grounded.iter_mut().for_each(|a| *a *= inv);
        }
        if n_desc > 0 {
            let inv = 1.0 / n_desc as f32;
            attr_desc.iter_mut().for_each(|a| *a *= inv);
        }
        let rho = if n_desc > 0 { self.kind.fidelity() } else { 0.0 };
        let mut out = Vec::with_capacity(space.total());
        out.extend_from_slice(&class);
        out.extend(
            attr_grounded
                .iter()
                .zip(&attr_desc)
                .map(|(g, d)| (1.0 - rho) * g + rho * d),
        );
        out
    }
}

impl Composer for MultimodalEncoder {
    fn name(&self) -> &str {
        self.kind.label()
    }

    fn dim(&self) -> usize {
        self.backbone.dim()
    }

    fn compose(&self, latents: &[&Latent]) -> Vec<f32> {
        let pseudo = self.pseudo_latent(latents);
        let projected = self.backbone.project(&pseudo);
        self.backbone
            .finish_embedding(projected, &pseudo, self.kind.gap_sigma(), self.kind.salt())
    }

    fn embed_single(&self, latent: &Latent) -> Vec<f32> {
        self.backbone.embed(latent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use must_vector::kernels;

    fn space() -> LatentSpace {
        LatentSpace::DEFAULT
    }

    fn img(class_seed: f32, attr_seed: f32) -> Latent {
        let s = space();
        let class: Vec<f32> = (0..s.class_dims).map(|i| ((i as f32 + class_seed) * 0.53).sin()).collect();
        let attr: Vec<f32> = (0..s.attr_dims).map(|i| ((i as f32 + attr_seed) * 0.71).cos()).collect();
        Latent::grounded(&class, &attr)
    }

    fn txt(attr_seed: f32) -> Latent {
        let s = space();
        let attr: Vec<f32> = (0..s.attr_dims).map(|i| ((i as f32 + attr_seed) * 0.71).cos()).collect();
        Latent::descriptive(s.class_dims, &attr)
    }

    #[test]
    fn composition_lives_in_backbone_space_and_is_unit_norm() {
        let c = MultimodalEncoder::new(ComposerKind::Clip, space(), 3);
        let a = img(1.0, 2.0);
        let t = txt(5.0);
        let v = c.compose(&[&a, &t]);
        assert_eq!(v.len(), c.dim());
        assert!(kernels::is_unit_norm(&v, 1e-5));
    }

    #[test]
    fn composition_moves_towards_described_attribute() {
        // Reference image has attr A1; text asks for attr A2.  The composed
        // vector must be closer to an image with (same class, A2) than the
        // raw reference embedding is.
        let c = MultimodalEncoder::new(ComposerKind::Clip, space(), 11);
        let reference = img(1.0, 2.0);
        let desired = img(1.0, 5.0); // same class, new attribute
        let text = txt(5.0);
        let composed = c.compose(&[&reference, &text]);
        let raw_ref = c.embed_single(&reference);
        let target_vec = c.embed_single(&desired);
        let sim_composed = kernels::ip(&composed, &target_vec);
        let sim_raw = kernels::ip(&raw_ref, &target_vec);
        assert!(
            sim_composed > sim_raw,
            "composition must help: composed {sim_composed} vs raw {sim_raw}"
        );
    }

    #[test]
    fn composition_keeps_reference_class() {
        // Composed query must stay closer to the same-class target than to a
        // different-class object with the described attribute.
        let c = MultimodalEncoder::new(ComposerKind::Clip, space(), 13);
        let reference = img(1.0, 2.0);
        let text = txt(5.0);
        let same_class_new_attr = img(1.0, 5.0);
        let other_class_new_attr = img(9.0, 5.0);
        let composed = c.compose(&[&reference, &text]);
        let s_same = kernels::ip(&composed, &c.embed_single(&same_class_new_attr));
        let s_other = kernels::ip(&composed, &c.embed_single(&other_class_new_attr));
        assert!(s_same > s_other, "class must dominate: {s_same} vs {s_other}");
    }

    #[test]
    fn clip_is_higher_fidelity_than_mpc() {
        assert!(ComposerKind::Clip.fidelity() > ComposerKind::Mpc.fidelity());
        assert!(ComposerKind::Clip.gap_sigma() < ComposerKind::Mpc.gap_sigma());
    }

    #[test]
    fn grounded_only_composition_averages_classes() {
        // MS-COCO style: two grounded images, no text.
        let c = MultimodalEncoder::new(ComposerKind::Mpc, space(), 17);
        let a = img(1.0, 2.0);
        let b = img(3.0, 4.0);
        let v = c.compose(&[&a, &b]);
        assert!(kernels::is_unit_norm(&v, 1e-5));
        // Deterministic for the same inputs.
        assert_eq!(v, c.compose(&[&a, &b]));
    }

    #[test]
    fn composition_is_deterministic_but_input_sensitive() {
        let c = MultimodalEncoder::new(ComposerKind::Tirg, space(), 19);
        let a = img(1.0, 2.0);
        let t1 = txt(5.0);
        let t2 = txt(6.0);
        assert_eq!(c.compose(&[&a, &t1]), c.compose(&[&a, &t1]));
        assert_ne!(c.compose(&[&a, &t1]), c.compose(&[&a, &t2]));
    }
}
