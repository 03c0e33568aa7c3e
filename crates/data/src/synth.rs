//! SynthImageNet: a seeded, procedural image-classification dataset.
//!
//! The EDD paper searches on a 100-class subset of ImageNet and finally
//! trains on the full 1000-class set. ImageNet is not available offline, so
//! this module generates a deterministic synthetic stand-in: each class is
//! defined by a procedural *prototype* (an oriented sinusoidal grating
//! superimposed with a Gaussian blob and a class-specific channel balance),
//! and samples are prototypes under random translation, horizontal flip,
//! per-channel gain and additive Gaussian noise. Difficulty scales with the
//! class count and noise level, which preserves the property the co-search
//! needs: a non-trivial, learnable accuracy-loss signal.

use edd_tensor::Array;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a [`SynthDataset`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthConfig {
    /// Number of classes.
    pub num_classes: usize,
    /// Square image side length.
    pub image_size: usize,
    /// Number of channels (3 for the RGB-like default).
    pub channels: usize,
    /// Standard deviation of the additive sample noise.
    pub noise_std: f32,
    /// Maximum absolute translation (pixels) applied per sample.
    pub max_shift: usize,
    /// Whether samples are randomly mirrored horizontally.
    pub hflip: bool,
    /// Master seed defining the class prototypes.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            num_classes: 10,
            image_size: 32,
            channels: 3,
            noise_std: 0.25,
            max_shift: 3,
            hflip: true,
            seed: 0xEDD,
        }
    }
}

impl SynthConfig {
    /// A small configuration for fast unit tests (4 classes, 16×16).
    #[must_use]
    pub fn tiny() -> Self {
        SynthConfig {
            num_classes: 4,
            image_size: 16,
            channels: 3,
            noise_std: 0.2,
            max_shift: 2,
            hflip: true,
            seed: 7,
        }
    }
}

/// Per-class generative parameters.
#[derive(Debug, Clone)]
struct ClassProto {
    /// Grating frequency (cycles across the image).
    freq: f32,
    /// Grating orientation in radians.
    angle: f32,
    /// Grating phase.
    phase: f32,
    /// Blob center (normalized 0..1).
    cx: f32,
    cy: f32,
    /// Blob radius (normalized).
    radius: f32,
    /// Blob amplitude.
    amp: f32,
    /// Per-channel gains.
    gains: Vec<f32>,
}

/// A deterministic synthetic image-classification dataset.
///
/// Two datasets constructed with the same [`SynthConfig`] produce identical
/// class prototypes; sampling takes an explicit RNG so callers control the
/// randomness of draws independently of the class definitions.
#[derive(Debug, Clone)]
pub struct SynthDataset {
    config: SynthConfig,
    protos: Vec<ClassProto>,
}

impl SynthDataset {
    /// Creates the dataset, deriving all class prototypes from
    /// `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes`, `image_size` or `channels` is zero.
    #[must_use]
    pub fn new(config: SynthConfig) -> Self {
        assert!(config.num_classes > 0, "num_classes must be positive");
        assert!(config.image_size > 0, "image_size must be positive");
        assert!(config.channels > 0, "channels must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let protos = (0..config.num_classes)
            .map(|_| ClassProto {
                freq: rng.gen_range(1.5..6.0),
                angle: rng.gen_range(0.0..std::f32::consts::PI),
                phase: rng.gen_range(0.0..std::f32::consts::TAU),
                cx: rng.gen_range(0.25..0.75),
                cy: rng.gen_range(0.25..0.75),
                radius: rng.gen_range(0.1..0.3),
                amp: rng.gen_range(0.8..1.6),
                gains: (0..config.channels)
                    .map(|_| rng.gen_range(0.5..1.5))
                    .collect(),
            })
            .collect();
        SynthDataset { config, protos }
    }

    /// The dataset configuration.
    #[must_use]
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Renders the noiseless prototype image of `class` as `[c, h, w]`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= num_classes`.
    #[must_use]
    pub fn prototype(&self, class: usize) -> Array {
        self.render(class, 0, 0, false, &[])
    }

    /// Renders class `class` with integer translation `(dx, dy)`, optional
    /// horizontal flip and per-channel gain jitter.
    fn render(&self, class: usize, dx: isize, dy: isize, flip: bool, gain_jitter: &[f32]) -> Array {
        let p = &self.protos[class];
        let s = self.config.image_size;
        let c = self.config.channels;
        let mut img = Array::zeros(&[c, s, s]);
        let (sin_a, cos_a) = p.angle.sin_cos();
        let inv = 1.0 / s as f32;
        for y in 0..s {
            for x in 0..s {
                // Source coordinates after translation / flip.
                let sx = if flip {
                    s as isize - 1 - x as isize
                } else {
                    x as isize
                } - dx;
                let sy = y as isize - dy;
                let u = sx as f32 * inv;
                let v = sy as f32 * inv;
                // Oriented grating.
                let t = (u * cos_a + v * sin_a) * p.freq * std::f32::consts::TAU + p.phase;
                let grating = t.sin();
                // Gaussian blob.
                let du = u - p.cx;
                let dv = v - p.cy;
                let blob = p.amp * (-(du * du + dv * dv) / (2.0 * p.radius * p.radius)).exp();
                let base = grating * 0.5 + blob;
                for ch in 0..c {
                    let jitter = gain_jitter.get(ch).copied().unwrap_or(1.0);
                    img.data_mut()[ch * s * s + y * s + x] = base * p.gains[ch] * jitter;
                }
            }
        }
        img
    }

    /// Draws one labeled sample: a randomly-augmented rendering of a random
    /// class. Returns `(image [c,h,w], label)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Array, usize) {
        let class = rng.gen_range(0..self.config.num_classes);
        (self.sample_class(class, rng), class)
    }

    /// Draws one augmented sample of a specific `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class >= num_classes`.
    pub fn sample_class<R: Rng + ?Sized>(&self, class: usize, rng: &mut R) -> Array {
        let m = self.config.max_shift as isize;
        let dx = rng.gen_range(-m..=m);
        let dy = rng.gen_range(-m..=m);
        let flip = self.config.hflip && rng.gen_bool(0.5);
        let jitter: Vec<f32> = (0..self.config.channels)
            .map(|_| rng.gen_range(0.9..1.1))
            .collect();
        let mut img = self.render(class, dx, dy, flip, &jitter);
        if self.config.noise_std > 0.0 {
            let noise = Array::randn(img.shape(), self.config.noise_std, rng);
            img = img.add(&noise).expect("same shape");
        }
        img
    }

    /// Draws a batch of `batch_size` labeled samples as
    /// `(images [b,c,h,w], labels)`.
    pub fn sample_batch<R: Rng + ?Sized>(
        &self,
        batch_size: usize,
        rng: &mut R,
    ) -> (Array, Vec<usize>) {
        let s = self.config.image_size;
        let c = self.config.channels;
        let mut data = Vec::with_capacity(batch_size * c * s * s);
        let mut labels = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            let (img, label) = self.sample(rng);
            data.extend_from_slice(img.data());
            labels.push(label);
        }
        (
            Array::from_vec(data, &[batch_size, c, s, s]).expect("sized correctly"),
            labels,
        )
    }

    /// Materializes a deterministic split of `num_batches` batches of
    /// `batch_size`, seeded independently of other splits by `split_seed`.
    #[must_use]
    pub fn split(
        &self,
        num_batches: usize,
        batch_size: usize,
        split_seed: u64,
    ) -> Vec<edd_nn::Batch> {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ split_seed);
        (0..num_batches)
            .map(|_| {
                let (images, labels) = self.sample_batch(batch_size, &mut rng);
                edd_nn::Batch { images, labels }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_prototypes() {
        let a = SynthDataset::new(SynthConfig::tiny());
        let b = SynthDataset::new(SynthConfig::tiny());
        assert_eq!(a.prototype(0).data(), b.prototype(0).data());
        assert_eq!(a.prototype(3).data(), b.prototype(3).data());
    }

    #[test]
    fn different_classes_have_different_prototypes() {
        let d = SynthDataset::new(SynthConfig::tiny());
        let p0 = d.prototype(0);
        let p1 = d.prototype(1);
        let diff: f32 = p0
            .data()
            .iter()
            .zip(p1.data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1.0, "prototypes too similar: {diff}");
    }

    #[test]
    fn sample_shapes() {
        let d = SynthDataset::new(SynthConfig::tiny());
        let mut rng = StdRng::seed_from_u64(1);
        let (img, label) = d.sample(&mut rng);
        assert_eq!(img.shape(), &[3, 16, 16]);
        assert!(label < 4);
        let (batch, labels) = d.sample_batch(8, &mut rng);
        assert_eq!(batch.shape(), &[8, 3, 16, 16]);
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn split_is_deterministic_and_split_seeded() {
        let d = SynthDataset::new(SynthConfig::tiny());
        let s1 = d.split(2, 4, 100);
        let s2 = d.split(2, 4, 100);
        assert_eq!(s1[0].images.data(), s2[0].images.data());
        assert_eq!(s1[0].labels, s2[0].labels);
        let s3 = d.split(2, 4, 200);
        assert_ne!(s1[0].images.data(), s3[0].images.data());
    }

    #[test]
    fn augmentation_produces_variation_within_class() {
        let d = SynthDataset::new(SynthConfig::tiny());
        let mut rng = StdRng::seed_from_u64(2);
        let a = d.sample_class(0, &mut rng);
        let b = d.sample_class(0, &mut rng);
        let diff: f32 = a
            .data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        assert!(diff > 0.5, "augmented samples identical");
    }

    #[test]
    fn noiseless_sample_close_to_prototype() {
        let mut cfg = SynthConfig::tiny();
        cfg.noise_std = 0.0;
        cfg.max_shift = 0;
        let d = SynthDataset::new(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        // With no shift/noise, only flip and gain jitter vary; sample several
        // and expect at least one unflipped draw close to the prototype.
        let proto = d.prototype(1);
        let mut best = f32::INFINITY;
        for _ in 0..8 {
            let s = d.sample_class(1, &mut rng);
            let err: f32 = s
                .data()
                .iter()
                .zip(proto.data())
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / s.len() as f32;
            best = best.min(err);
        }
        assert!(best < 0.2, "best mean abs err {best}");
    }

    #[test]
    fn labels_cover_all_classes() {
        let d = SynthDataset::new(SynthConfig::tiny());
        let mut rng = StdRng::seed_from_u64(4);
        let (_, labels) = d.sample_batch(200, &mut rng);
        for class in 0..4 {
            assert!(labels.contains(&class), "class {class} never sampled");
        }
    }

    #[test]
    #[should_panic(expected = "num_classes")]
    fn zero_classes_rejected() {
        let mut cfg = SynthConfig::tiny();
        cfg.num_classes = 0;
        let _ = SynthDataset::new(cfg);
    }
}
