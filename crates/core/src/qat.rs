//! The float network of a derived architecture, with quantization-aware
//! final training.
//!
//! The paper's §5 final step trains the searched DNN from scratch with its
//! searched implementation — including the per-block weight bit-widths the
//! co-search chose. [`QatModel::new`] builds the derived network with each
//! block's convolutions running through the straight-through fake
//! quantizer at its searched precision, so the trained weights adapt to
//! their quantization grids (true QAT). [`DerivedArch::build_model`] builds
//! the same network, from the same random draws, with no block quantized:
//! the full-precision training that post-training quantization starts from.

use crate::derive::DerivedArch;
use edd_nn::{BatchNorm2d, Conv2d, Linear, MbConv, Module, QuantSpec, QuantizableModule};
use edd_tensor::{Result, Tensor};
use rand::Rng;

/// A derived network: stem, MBConv blocks, head and classifier. Built by
/// [`QatModel::new`], its blocks train under their searched per-block
/// weight precisions (stem, head and classifier stay full precision, as is
/// standard for first/last layers); built by [`DerivedArch::build_model`],
/// every block runs full precision.
pub struct QatModel {
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    blocks: Vec<(MbConv, Option<QuantSpec>)>,
    head: Conv2d,
    head_bn: BatchNorm2d,
    classifier: Linear,
}

impl std::fmt::Debug for QatModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QatModel")
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl QatModel {
    /// Builds the QAT model for `arch` with fresh weights. Blocks whose
    /// searched precision is 32-bit (or wider) run full precision.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(arch: &DerivedArch, rng: &mut R) -> Self {
        Self::build(arch, true, rng)
    }

    /// The network of `arch` with fresh weights, drawn in the same order
    /// whether or not `quantize` is set; without it no block carries a
    /// [`QuantSpec`] ([`DerivedArch::build_model`]).
    pub(crate) fn build<R: Rng + ?Sized>(arch: &DerivedArch, quantize: bool, rng: &mut R) -> Self {
        let s = &arch.space;
        let stem = Conv2d::same(s.input_channels, s.stem_channels, 3, s.stem_stride, rng);
        let stem_bn = BatchNorm2d::new(s.stem_channels);
        let mut blocks = Vec::with_capacity(arch.blocks.len());
        for (i, b) in arch.blocks.iter().enumerate() {
            let cin = s.block_in_channels(i);
            let mb = MbConv::new(cin, b.out_channels, b.kernel, b.expansion, b.stride, rng);
            let spec = (quantize && b.quant_bits < 32).then(|| QuantSpec::bits(b.quant_bits));
            blocks.push((mb, spec));
        }
        let last_c = s.blocks.last().map_or(s.stem_channels, |b| b.out_channels);
        QatModel {
            stem,
            stem_bn,
            blocks,
            head: Conv2d::new(last_c, s.head_channels, 1, 1, 0, false, rng),
            head_bn: BatchNorm2d::new(s.head_channels),
            classifier: Linear::new(s.head_channels, s.num_classes, rng),
        }
    }

    /// The stem convolution. Exposed (with the other stage accessors) so
    /// calibration ([`crate::quantize`]) and the IR lowering
    /// ([`crate::lower`]) can walk the network stage by stage.
    #[must_use]
    pub fn stem(&self) -> &Conv2d {
        &self.stem
    }

    /// Batch norm after the stem.
    #[must_use]
    pub fn stem_bn(&self) -> &BatchNorm2d {
        &self.stem_bn
    }

    /// The MBConv blocks with their searched quantization specs.
    #[must_use]
    pub fn blocks(&self) -> &[(MbConv, Option<QuantSpec>)] {
        &self.blocks
    }

    /// The head 1×1 convolution.
    #[must_use]
    pub fn head(&self) -> &Conv2d {
        &self.head
    }

    /// Batch norm after the head.
    #[must_use]
    pub fn head_bn(&self) -> &BatchNorm2d {
        &self.head_bn
    }

    /// The final classifier.
    #[must_use]
    pub fn classifier(&self) -> &Linear {
        &self.classifier
    }
}

impl Module for QatModel {
    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut h = self.stem.forward(x)?;
        h = self.stem_bn.forward_relu6(&h)?;
        for (mb, spec) in &self.blocks {
            h = mb.forward_quantized(&h, *spec)?;
        }
        let h = self.head.forward(&h)?;
        let h = self.head_bn.forward_relu6(&h)?;
        let h = h.global_avg_pool()?;
        self.classifier.forward(&h)
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.stem.parameters();
        p.extend(self.stem_bn.parameters());
        for (mb, _) in &self.blocks {
            p.extend(mb.parameters());
        }
        p.extend(self.head.parameters());
        p.extend(self.head_bn.parameters());
        p.extend(self.classifier.parameters());
        p
    }

    fn set_training(&self, training: bool) {
        self.stem_bn.set_training(training);
        for (mb, _) in &self.blocks {
            mb.set_training(training);
        }
        self.head_bn.set_training(training);
    }

    fn num_parameters(&self) -> usize {
        self.parameters().iter().map(|p| p.value().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch_params::ArchParams;
    use crate::space::SearchSpace;
    use crate::target::DeviceTarget;
    use edd_hw::FpgaDevice;
    use edd_tensor::Array;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn derived() -> DerivedArch {
        let mut rng = StdRng::seed_from_u64(31);
        let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
        let target = DeviceTarget::FpgaPipelined(FpgaDevice::zc706());
        let arch = ArchParams::init(&space, &target, &mut rng);
        DerivedArch::from_params(&space, &target, &arch)
    }

    #[test]
    fn forward_shape_and_specs() {
        let arch = derived();
        let mut rng = StdRng::seed_from_u64(32);
        let model = QatModel::new(&arch, &mut rng);
        assert!(format!("{model:?}").contains("QatModel"));
        let x = Tensor::constant(Array::randn(&[2, 3, 16, 16], 1.0, &mut rng));
        let y = model.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![2, 4]);
    }

    #[test]
    fn build_model_is_the_same_network_with_no_block_quantized() {
        let arch = derived();
        let qat = QatModel::new(&arch, &mut StdRng::seed_from_u64(35));
        let float = arch.build_model(&mut StdRng::seed_from_u64(35));
        assert!(qat.blocks().iter().any(|(_, spec)| spec.is_some()));
        assert!(float.blocks().iter().all(|(_, spec)| spec.is_none()));
        assert_eq!(qat.num_parameters(), float.num_parameters());
        for (a, b) in qat.parameters().iter().zip(float.parameters()) {
            assert_eq!(a.value().data(), b.value().data());
        }
    }

    #[test]
    fn qat_trains_on_synthetic_data() {
        use edd_data::{SynthConfig, SynthDataset};
        use edd_tensor::optim::Sgd;

        let arch = derived();
        let mut rng = StdRng::seed_from_u64(33);
        let model = QatModel::new(&arch, &mut rng);
        let data = SynthDataset::new(SynthConfig::tiny());
        let train = data.split(4, 16, 1);
        let test = data.split(2, 16, 2);
        let mut opt = Sgd::new(model.parameters(), 0.05, 0.9, 1e-4);
        let first = edd_nn::train_epoch(&model, &mut opt, &train).unwrap();
        let mut last = first;
        for _ in 0..5 {
            last = edd_nn::train_epoch(&model, &mut opt, &train).unwrap();
        }
        assert!(
            last.loss < first.loss,
            "QAT loss should fall: {} -> {}",
            first.loss,
            last.loss
        );
        let stats = edd_nn::evaluate(&model, &test).unwrap();
        assert!(stats.top1 > 0.3, "top1 {}", stats.top1);
    }

    #[test]
    fn quantization_actually_applies_during_forward() {
        // A 4-bit block's output must differ from the same weights run at
        // full precision.
        let arch = derived();
        let mut rng = StdRng::seed_from_u64(34);
        let model = QatModel::new(&arch, &mut rng);
        model.set_training(false);
        let x = Tensor::constant(Array::randn(&[1, 3, 16, 16], 1.0, &mut rng));
        let quantized = model.forward(&x).unwrap();
        // Full-precision pass over the same weights.
        let mut h = model.stem.forward(&x).unwrap();
        h = model.stem_bn.forward(&h).unwrap().relu6();
        for (mb, _) in &model.blocks {
            h = mb.forward(&h).unwrap();
        }
        let h = model.head.forward(&h).unwrap();
        let h = model.head_bn.forward(&h).unwrap().relu6();
        let h = h.global_avg_pool().unwrap();
        let full = model.classifier.forward(&h).unwrap();
        let diff: f32 = quantized
            .value()
            .data()
            .iter()
            .zip(full.value().data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-5, "quantization had no effect ({diff})");
    }
}
