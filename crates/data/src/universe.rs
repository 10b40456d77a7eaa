//! The class/attribute vocabulary from which structured corpora are drawn.

use must_encoders::noise::GaussianStream;
use must_encoders::LatentSpace;

/// A vocabulary of class and attribute prototype latents.
///
/// Classes are unit vectors in the class subspace; attributes are unit
/// vectors in the attribute subspace.  Objects are drawn as
/// `[class + jitter ; attr + jitter]`.
#[derive(Debug, Clone)]
pub struct Universe {
    space: LatentSpace,
    classes: Vec<Vec<f32>>,
    attrs: Vec<Vec<f32>>,
    /// Standard deviation of per-object individual variation.
    pub jitter: f32,
    stream_seed: u64,
}

fn unit_gaussian(g: &mut GaussianStream, dim: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; dim];
    loop {
        g.fill(&mut v, 1.0);
        if must_vector::kernels::normalize(&mut v) {
            return v;
        }
    }
}

impl Universe {
    /// Samples a vocabulary of `n_classes` x `n_attrs` prototypes.
    #[must_use]
    pub fn new(space: LatentSpace, n_classes: usize, n_attrs: usize, jitter: f32, seed: u64) -> Self {
        assert!(n_classes > 0 && n_attrs > 0);
        let mut g = GaussianStream::new(seed ^ 0xC1A5);
        let classes = (0..n_classes).map(|_| unit_gaussian(&mut g, space.class_dims)).collect();
        let mut g = GaussianStream::new(seed ^ 0xA77);
        let attrs = (0..n_attrs).map(|_| unit_gaussian(&mut g, space.attr_dims)).collect();
        Self { space, classes, attrs, jitter, stream_seed: seed }
    }

    /// The latent space.
    #[must_use]
    pub fn space(&self) -> LatentSpace {
        self.space
    }

    /// Class prototype `c`.
    #[must_use]
    pub fn class(&self, c: u32) -> &[f32] {
        &self.classes[c as usize]
    }

    /// Attribute prototype `a`.
    #[must_use]
    pub fn attr(&self, a: u32) -> &[f32] {
        &self.attrs[a as usize]
    }

    /// The grounded latent parts of an object instance `(c, a, instance)` —
    /// prototypes plus deterministic per-instance jitter.  Returns
    /// `(class_part, attr_part)`.
    #[must_use]
    pub fn instance_parts(&self, c: u32, a: u32, instance: u64) -> (Vec<f32>, Vec<f32>) {
        let mut class = self.classes[c as usize].clone();
        let mut attr = self.attrs[a as usize].clone();
        if self.jitter > 0.0 {
            let seed = self
                .stream_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ instance.wrapping_mul(0xD1B5_4A32_D192_ED03)
                ^ ((c as u64) << 32 | a as u64);
            let mut g = GaussianStream::new(seed);
            for x in class.iter_mut() {
                *x += (g.next_standard() as f32) * self.jitter;
            }
            for x in attr.iter_mut() {
                *x += (g.next_standard() as f32) * self.jitter;
            }
        }
        (class, attr)
    }

    /// The descriptive attribute part for attribute `a` (no jitter: a text
    /// description of "moldy" is the same string for every object).
    #[must_use]
    pub fn describe_attr(&self, a: u32) -> Vec<f32> {
        self.attrs[a as usize].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use must_vector::kernels;

    fn universe() -> Universe {
        Universe::new(LatentSpace::DEFAULT, 10, 6, 0.15, 42)
    }

    #[test]
    fn prototypes_are_unit_norm_and_distinct() {
        let u = universe();
        for c in 0..u.classes.len() as u32 {
            assert!(kernels::is_unit_norm(u.class(c), 1e-5));
        }
        assert!(kernels::ip(u.class(0), u.class(1)) < 0.99);
        assert!(kernels::ip(u.attr(0), u.attr(1)) < 0.99);
    }

    #[test]
    fn instances_are_deterministic() {
        let u = universe();
        assert_eq!(u.instance_parts(3, 2, 77), u.instance_parts(3, 2, 77));
        assert_ne!(u.instance_parts(3, 2, 77), u.instance_parts(3, 2, 78));
    }

    #[test]
    fn instances_stay_near_their_prototype() {
        let u = universe();
        let (class, _) = u.instance_parts(4, 1, 5);
        let mut c = class.clone();
        kernels::normalize(&mut c);
        let own = kernels::ip(&c, u.class(4));
        let other = kernels::ip(&c, u.class(5));
        assert!(own > other, "instance must resemble its class: {own} vs {other}");
    }

    #[test]
    fn descriptions_have_no_jitter() {
        let u = universe();
        assert_eq!(u.describe_attr(2), u.describe_attr(2));
        assert_eq!(u.describe_attr(2), u.attr(2).to_vec());
    }
}
