//! The latent-semantics model underlying the simulated encoders.

/// The shared latent space every content latent lives in.
///
/// The space is split into a *class* subspace (identity of the thing — noun,
/// face identity, garment category) and an *attribute* subspace (its state —
/// adjective, facial attributes, fabric/colour/pattern).  The split is what
/// lets multimodal composition "replace the state": real composed encoders
/// are trained to do precisely this semantically; the simulator does it
/// geometrically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatentSpace {
    /// Dimensionality of the class subspace (first `class_dims` components).
    pub class_dims: usize,
    /// Dimensionality of the attribute subspace (remaining components).
    pub attr_dims: usize,
}

impl LatentSpace {
    /// The default space used across the reproduction.
    pub const DEFAULT: Self = Self { class_dims: 16, attr_dims: 16 };

    /// Total latent dimensionality.
    #[inline]
    #[must_use]
    pub fn total(&self) -> usize {
        self.class_dims + self.attr_dims
    }
}

/// How a content latent grounds its semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatentKind {
    /// Depicts a full object: class *and* attribute information
    /// (images, audio clips, video).
    Grounded,
    /// Describes attributes only; the class part is empty
    /// (text descriptions, structured attribute encodings).
    Descriptive,
}

/// One content's ground-truth semantics: a vector in the [`LatentSpace`].
#[derive(Debug, Clone, PartialEq)]
pub struct Latent {
    values: Vec<f32>,
    kind: LatentKind,
}

impl Latent {
    /// Creates a latent; `values.len()` must equal `space.total()` — the
    /// caller (the dataset generator) guarantees this.
    #[must_use]
    pub fn new(values: Vec<f32>, kind: LatentKind) -> Self {
        Self { values, kind }
    }

    /// Builds a grounded latent from class and attribute parts.
    #[must_use]
    pub fn grounded(class: &[f32], attr: &[f32]) -> Self {
        let mut values = Vec::with_capacity(class.len() + attr.len());
        values.extend_from_slice(class);
        values.extend_from_slice(attr);
        Self::new(values, LatentKind::Grounded)
    }

    /// Builds a descriptive latent: zero class part, given attribute part.
    #[must_use]
    pub fn descriptive(class_dims: usize, attr: &[f32]) -> Self {
        let mut values = vec![0.0; class_dims];
        values.extend_from_slice(attr);
        Self::new(values, LatentKind::Descriptive)
    }

    /// Raw latent values.
    #[inline]
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Grounding kind.
    #[inline]
    #[must_use]
    pub fn kind(&self) -> LatentKind {
        self.kind
    }

    /// The class part under `space`.
    #[inline]
    #[must_use]
    pub fn class_part<'a>(&'a self, space: &LatentSpace) -> &'a [f32] {
        &self.values[..space.class_dims]
    }

    /// The attribute part under `space`.
    #[inline]
    #[must_use]
    pub fn attr_part<'a>(&'a self, space: &LatentSpace) -> &'a [f32] {
        &self.values[space.class_dims..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grounded_concatenates_parts() {
        let l = Latent::grounded(&[1.0, 2.0], &[3.0]);
        assert_eq!(l.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(l.kind(), LatentKind::Grounded);
        let space = LatentSpace { class_dims: 2, attr_dims: 1 };
        assert_eq!(l.class_part(&space), &[1.0, 2.0]);
        assert_eq!(l.attr_part(&space), &[3.0]);
    }

    #[test]
    fn descriptive_zeroes_class_part() {
        let l = Latent::descriptive(3, &[5.0, 6.0]);
        assert_eq!(l.values(), &[0.0, 0.0, 0.0, 5.0, 6.0]);
        assert_eq!(l.kind(), LatentKind::Descriptive);
    }

    #[test]
    fn default_space_total() {
        assert_eq!(LatentSpace::DEFAULT.total(), 32);
    }
}
