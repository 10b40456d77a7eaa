//! Generator for the large-scale semi-synthetic datasets (ImageText1M,
//! AudioText1M, VideoText1M, ImageText16M — scaled per DESIGN.md §1).
//!
//! Following the paper (Appendix J), these take a single-modal vector
//! corpus and attach a text modality.  Here every object gets a unique
//! grounded latent (no class structure — SIFT/MSONG/UQ-V/DEEP vectors are
//! individual items) plus an attribute drawn from a shared vocabulary that
//! the text modality describes.  Ground truth is *not* label-based: the
//! efficiency experiments (Figs. 6–8, Tab. VII) define it as the exact
//! top-k under joint similarity, computed downstream by brute force.

use must_encoders::noise::GaussianStream;
use must_encoders::{Latent, LatentSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::universe::Universe;
use crate::{LatentDataset, LatentQuery, ModalityRole, ObjectLabels};

/// Parameters of a semi-synthetic dataset.
#[derive(Debug, Clone)]
pub struct SemiSyntheticSpec {
    /// Dataset name.
    pub name: String,
    /// Number of objects.
    pub n_objects: usize,
    /// Number of queries.
    pub n_queries: usize,
    /// Attribute vocabulary size shared by the text modality.
    pub n_attrs: usize,
    /// Noise between a query's grounded content and its anchor object
    /// (how far the query vector sits from its nearest corpus vector).
    pub query_perturbation: f32,
    /// RNG seed.
    pub seed: u64,
}

fn unique_grounded(space: &LatentSpace, universe: &Universe, attr: u32, id: u64, seed: u64) -> Latent {
    // Unique class latent per object: a fresh unit Gaussian direction.
    let mut g = GaussianStream::new(seed ^ id.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut class = vec![0.0f32; space.class_dims];
    g.fill(&mut class, 1.0);
    let _ = must_vector::kernels::normalize(&mut class);
    let (_, attr_part) = universe.instance_parts(0, attr, id);
    Latent::grounded(&class, &attr_part)
}

/// Generates the dataset: modalities are `[Target, DescriptiveAux]`.
#[must_use]
pub fn generate(spec: &SemiSyntheticSpec) -> LatentDataset {
    assert!(spec.n_objects > 0 && spec.n_queries > 0 && spec.n_attrs > 0);
    let space = LatentSpace::DEFAULT;
    // One dummy class (unused for grounded parts), full attribute vocab.
    let universe = Universe::new(space, 1, spec.n_attrs, 0.1, spec.seed);
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5E51);

    let mut labels = Vec::with_capacity(spec.n_objects);
    let mut object_latents = Vec::with_capacity(spec.n_objects);
    for o in 0..spec.n_objects {
        let attr = rng.random_range(0..spec.n_attrs as u32);
        let grounded = unique_grounded(&space, &universe, attr, o as u64, spec.seed);
        let text = Latent::descriptive(space.class_dims, &universe.describe_attr(attr));
        labels.push(ObjectLabels { class: o as u32, attr });
        object_latents.push(vec![grounded, text]);
    }

    let mut queries = Vec::with_capacity(spec.n_queries);
    for qi in 0..spec.n_queries {
        let anchor = rng.random_range(0..spec.n_objects as u32);
        let attr = labels[anchor as usize].attr;
        // Query content: the anchor's grounded latent, perturbed.
        let base = &object_latents[anchor as usize][0];
        let mut g = GaussianStream::new(spec.seed ^ 0x9E ^ ((qi as u64) << 3));
        let perturbed: Vec<f32> = base
            .values()
            .iter()
            .map(|v| v + (g.next_standard() as f32) * spec.query_perturbation)
            .collect();
        let target = Latent::new(perturbed, must_encoders::LatentKind::Grounded);
        let text = Latent::descriptive(space.class_dims, &universe.describe_attr(attr));
        queries.push(LatentQuery {
            latents: vec![Some(target), Some(text)],
            ground_truth: Vec::new(), // exact top-k computed downstream
            anchor,
            want: ObjectLabels { class: anchor, attr },
        });
    }

    let ds = LatentDataset {
        name: spec.name.clone(),
        space,
        roles: vec![ModalityRole::Target, ModalityRole::DescriptiveAux],
        object_latents,
        labels,
        queries,
    };
    debug_assert_eq!(ds.validate(), Ok(()));
    ds
}

/// SplitMix64: a one-shot hash from a 64-bit key to a 64-bit value, used
/// to derive per-id attributes and per-query anchors without a sequential
/// RNG pass — what makes [`SemiSyntheticStream`] O(1) per object.
fn splitmix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streaming variant of [`generate`] for corpora too large to hold as
/// latents (the 1M scale tier): every object is a *pure function* of
/// `(spec.seed, id)`, so callers materialise any chunk in any order —
/// embed it, fold it into the index, and drop it — in O(chunk) memory.
///
/// Unlike [`generate`], which draws attributes and query anchors from one
/// sequential RNG, the stream derives both by hashing the id
/// (splitmix64), so `object(i)` never needs objects `0..i`.  The two
/// generators therefore produce *different* (equally distributed) corpora
/// for the same spec; benchmarks pick one and stay with it.
pub struct SemiSyntheticStream {
    spec: SemiSyntheticSpec,
    space: LatentSpace,
    universe: Universe,
}

impl SemiSyntheticStream {
    /// Builds the stream head: the shared latent space and attribute
    /// universe (O(`n_attrs`), independent of `n_objects`).
    ///
    /// # Panics
    /// When the spec asks for zero objects, queries, or attributes.
    #[must_use]
    pub fn new(spec: SemiSyntheticSpec) -> Self {
        assert!(spec.n_objects > 0 && spec.n_queries > 0 && spec.n_attrs > 0);
        let space = LatentSpace::DEFAULT;
        let universe = Universe::new(space, 1, spec.n_attrs, 0.1, spec.seed);
        Self { spec, space, universe }
    }

    /// Number of objects in the corpus.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spec.n_objects
    }

    /// Whether the corpus is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spec.n_objects == 0
    }

    /// The generating spec.
    #[must_use]
    pub fn spec(&self) -> &SemiSyntheticSpec {
        &self.spec
    }

    /// Modality roles, identical to [`generate`]'s.
    #[must_use]
    pub fn roles(&self) -> Vec<ModalityRole> {
        vec![ModalityRole::Target, ModalityRole::DescriptiveAux]
    }

    /// The latent space every latent lives in.
    #[must_use]
    pub fn space(&self) -> LatentSpace {
        self.space
    }

    /// The attribute of object `id`, hash-derived (no sequential state).
    #[must_use]
    pub fn attr_of(&self, id: u64) -> u32 {
        (splitmix64(self.spec.seed ^ 0x5E51 ^ id) % self.spec.n_attrs as u64) as u32
    }

    /// Materialises object `id`'s latents (`[grounded target, text]`).
    /// Pure in `(seed, id)`: the same id always yields the same latents.
    ///
    /// # Panics
    /// When `id` is out of range.
    #[must_use]
    pub fn object(&self, id: u64) -> Vec<Latent> {
        assert!((id as usize) < self.spec.n_objects, "object {id} out of range");
        let attr = self.attr_of(id);
        let grounded = unique_grounded(&self.space, &self.universe, attr, id, self.spec.seed);
        let text = Latent::descriptive(self.space.class_dims, &self.universe.describe_attr(attr));
        vec![grounded, text]
    }

    /// Materialises the query set (`n_queries` is small; this is the one
    /// non-streaming piece).  Anchors are hash-derived per query index;
    /// each query perturbs its anchor's grounded latent exactly as
    /// [`generate`] does.
    #[must_use]
    pub fn queries(&self) -> Vec<LatentQuery> {
        (0..self.spec.n_queries)
            .map(|qi| {
                let anchor = (splitmix64(self.spec.seed ^ 0xA17C ^ qi as u64)
                    % self.spec.n_objects as u64) as u32;
                let attr = self.attr_of(u64::from(anchor));
                let base = self.object(u64::from(anchor));
                let mut g = GaussianStream::new(self.spec.seed ^ 0x9E ^ ((qi as u64) << 3));
                let perturbed: Vec<f32> = base[0]
                    .values()
                    .iter()
                    .map(|v| v + (g.next_standard() as f32) * self.spec.query_perturbation)
                    .collect();
                let target = Latent::new(perturbed, must_encoders::LatentKind::Grounded);
                let text = Latent::descriptive(
                    self.space.class_dims,
                    &self.universe.describe_attr(attr),
                );
                LatentQuery {
                    latents: vec![Some(target), Some(text)],
                    ground_truth: Vec::new(),
                    anchor,
                    want: ObjectLabels { class: anchor, attr },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SemiSyntheticSpec {
        SemiSyntheticSpec {
            name: "ImageTextTest".into(),
            n_objects: 500,
            n_queries: 20,
            n_attrs: 40,
            query_perturbation: 0.25,
            seed: 3,
        }
    }

    #[test]
    fn generates_consistent_two_modality_dataset() {
        let ds = generate(&spec());
        assert_eq!(ds.validate(), Ok(()));
        assert_eq!(ds.len(), 500);
        assert_eq!(ds.num_modalities(), 2);
        assert!(ds.queries.iter().all(|q| q.ground_truth.is_empty()));
    }

    #[test]
    fn grounded_latents_are_unique_per_object() {
        let ds = generate(&spec());
        let a = ds.object_latents[0][0].values();
        let b = ds.object_latents[1][0].values();
        assert_ne!(a, b);
    }

    #[test]
    fn query_content_is_near_its_anchor() {
        let ds = generate(&spec());
        for q in &ds.queries {
            let qv = q.latents[0].as_ref().unwrap().values();
            let anchor = ds.object_latents[q.anchor as usize][0].values();
            let d_anchor: f32 = qv.iter().zip(anchor).map(|(a, b)| (a - b) * (a - b)).sum();
            // Distance to a random other object should typically be larger.
            let other = ds.object_latents[(q.anchor as usize + 7) % ds.len()][0].values();
            let d_other: f32 = qv.iter().zip(other).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!(d_anchor < d_other, "{d_anchor} vs {d_other}");
        }
    }

    #[test]
    fn stream_objects_are_pure_and_order_free() {
        let stream = SemiSyntheticStream::new(spec());
        assert_eq!(stream.len(), 500);
        // Same id twice — and out of order — yields bit-identical latents.
        let late = stream.object(499);
        let early = stream.object(3);
        assert_eq!(stream.object(3), early);
        assert_eq!(stream.object(499), late);
        assert_ne!(early[0].values(), late[0].values(), "objects stay unique");
        for id in [0u64, 7, 499] {
            let attr = stream.attr_of(id);
            assert!((attr as usize) < stream.spec().n_attrs);
            // The text latent describes exactly the hashed attribute.
            let o = stream.object(id);
            let want = Latent::descriptive(
                stream.space().class_dims,
                &Universe::new(stream.space(), 1, 40, 0.1, 3).describe_attr(attr),
            );
            assert_eq!(o[1].values(), want.values());
        }
    }

    #[test]
    fn stream_queries_perturb_their_hashed_anchors() {
        let stream = SemiSyntheticStream::new(spec());
        let queries = stream.queries();
        assert_eq!(queries.len(), 20);
        for q in &queries {
            let anchor = stream.object(u64::from(q.anchor));
            let qv = q.latents[0].as_ref().unwrap().values();
            let av = anchor[0].values();
            let d_anchor: f32 = qv.iter().zip(av).map(|(a, b)| (a - b) * (a - b)).sum();
            let other = stream.object(u64::from((q.anchor + 11) % 500));
            let d_other: f32 =
                qv.iter().zip(other[0].values()).map(|(a, b)| (a - b) * (a - b)).sum();
            assert!(d_anchor < d_other, "{d_anchor} vs {d_other}");
            assert_eq!(q.latents[1].as_ref().unwrap().values(), anchor[1].values());
        }
    }

    #[test]
    fn text_modality_matches_anchor_attribute() {
        let ds = generate(&spec());
        for q in &ds.queries {
            let qt = q.latents[1].as_ref().unwrap().values();
            let at = ds.object_latents[q.anchor as usize][1].values();
            assert_eq!(qt, at, "query text must describe the anchor's attribute");
        }
    }
}
