//! The MBConv inverted-residual block — the candidate operation of the EDD
//! search space (paper §3.1): `conv-1×1` expand → `dwconv-k×k` → `conv-1×1`
//! project, with batch norm + ReLU6 between layers and a residual connection
//! when shapes allow.

use crate::bn::BatchNorm2d;
use crate::conv::{Conv2d, DwConv2d};
use crate::module::{Module, QuantSpec, QuantizableModule};
use edd_tensor::{Result, Tensor};
use rand::Rng;

/// Inverted-residual MBConv block with kernel size `k` and channel expansion
/// ratio `e` (the paper searches `k ∈ {3,5,7}` and `e ∈ {4,5,6}`).
#[derive(Debug)]
pub struct MbConv {
    expand: Option<(Conv2d, BatchNorm2d)>,
    depthwise: DwConv2d,
    dw_bn: BatchNorm2d,
    project: Conv2d,
    proj_bn: BatchNorm2d,
    residual: bool,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    expansion: usize,
    stride: usize,
}

impl MbConv {
    /// Creates an MBConv block.
    ///
    /// `expansion = 1` omits the expand convolution (MobileNetV2-style).
    /// The residual connection is used when `stride == 1` and
    /// `in_c == out_c`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        in_c: usize,
        out_c: usize,
        kernel: usize,
        expansion: usize,
        stride: usize,
        rng: &mut R,
    ) -> Self {
        let mid = in_c * expansion;
        let expand = (expansion > 1).then(|| {
            (
                Conv2d::new(in_c, mid, 1, 1, 0, false, rng),
                BatchNorm2d::new(mid),
            )
        });
        MbConv {
            expand,
            depthwise: DwConv2d::same(mid, kernel, stride, rng),
            dw_bn: BatchNorm2d::new(mid),
            project: Conv2d::new(mid, out_c, 1, 1, 0, false, rng),
            proj_bn: BatchNorm2d::new(out_c),
            residual: stride == 1 && in_c == out_c,
            in_channels: in_c,
            out_channels: out_c,
            kernel,
            expansion,
            stride,
        }
    }

    /// Input channel count.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Depthwise kernel size.
    #[must_use]
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Channel expansion ratio.
    #[must_use]
    pub fn expansion(&self) -> usize {
        self.expansion
    }

    /// Stride of the depthwise stage.
    #[must_use]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Whether the block uses a residual connection.
    #[must_use]
    pub fn has_residual(&self) -> bool {
        self.residual
    }

    /// The expand stage (1×1 conv + BN), absent when `expansion == 1`.
    /// Exposed so post-training compilers (the integer inference engine's
    /// calibration pass) can replay the block stage by stage.
    #[must_use]
    pub fn expand(&self) -> Option<&(Conv2d, BatchNorm2d)> {
        self.expand.as_ref()
    }

    /// The depthwise convolution stage.
    #[must_use]
    pub fn depthwise(&self) -> &DwConv2d {
        &self.depthwise
    }

    /// Batch norm after the depthwise stage.
    #[must_use]
    pub fn dw_bn(&self) -> &BatchNorm2d {
        &self.dw_bn
    }

    /// The projection 1×1 convolution.
    #[must_use]
    pub fn project(&self) -> &Conv2d {
        &self.project
    }

    /// Batch norm after the projection stage.
    #[must_use]
    pub fn proj_bn(&self) -> &BatchNorm2d {
        &self.proj_bn
    }

    /// The block's batch-norm layers in forward order (expand BN when
    /// present, depthwise BN, projection BN). Running statistics are state
    /// outside `parameters()`, so checkpointing walks them through this.
    #[must_use]
    pub fn batch_norms(&self) -> Vec<&BatchNorm2d> {
        let mut bns = Vec::with_capacity(3);
        if let Some((_, bn)) = &self.expand {
            bns.push(bn);
        }
        bns.push(&self.dw_bn);
        bns.push(&self.proj_bn);
        bns
    }

    fn forward_impl(&self, x: &Tensor, quant: Option<QuantSpec>) -> Result<Tensor> {
        let mut h = x.clone();
        if let Some((conv, bn)) = &self.expand {
            h = conv.forward_quantized(&h, quant)?;
            h = bn.forward_relu6(&h)?;
        }
        h = self.depthwise.forward_quantized(&h, quant)?;
        h = self.dw_bn.forward_relu6(&h)?;
        h = self.project.forward_quantized(&h, quant)?;
        h = self.proj_bn.forward(&h)?;
        if self.residual {
            h = h.add(x)?;
        }
        Ok(h)
    }
}

impl Module for MbConv {
    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        self.forward_impl(x, None)
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        if let Some((conv, bn)) = &self.expand {
            p.extend(conv.parameters());
            p.extend(bn.parameters());
        }
        p.extend(self.depthwise.parameters());
        p.extend(self.dw_bn.parameters());
        p.extend(self.project.parameters());
        p.extend(self.proj_bn.parameters());
        p
    }

    fn set_training(&self, training: bool) {
        if let Some((_, bn)) = &self.expand {
            bn.set_training(training);
        }
        self.dw_bn.set_training(training);
        self.proj_bn.set_training(training);
    }
}

impl QuantizableModule for MbConv {
    fn forward_quantized(&self, x: &Tensor, quant: Option<QuantSpec>) -> Result<Tensor> {
        self.forward_impl(x, quant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edd_tensor::Array;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mbconv_shape_stride1() {
        let mut rng = StdRng::seed_from_u64(1);
        let mb = MbConv::new(8, 8, 3, 4, 1, &mut rng);
        assert!(mb.has_residual());
        let x = Tensor::constant(Array::randn(&[2, 8, 8, 8], 1.0, &mut rng));
        let y = mb.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![2, 8, 8, 8]);
    }

    #[test]
    fn mbconv_shape_stride2_changes_channels() {
        let mut rng = StdRng::seed_from_u64(2);
        let mb = MbConv::new(8, 16, 5, 6, 2, &mut rng);
        assert!(!mb.has_residual());
        let x = Tensor::constant(Array::randn(&[1, 8, 16, 16], 1.0, &mut rng));
        let y = mb.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![1, 16, 8, 8]);
    }

    #[test]
    fn mbconv_expansion1_has_no_expand_conv() {
        let mut rng = StdRng::seed_from_u64(3);
        let mb1 = MbConv::new(8, 8, 3, 1, 1, &mut rng);
        let mb4 = MbConv::new(8, 8, 3, 4, 1, &mut rng);
        assert!(mb1.num_parameters() < mb4.num_parameters());
        let x = Tensor::constant(Array::randn(&[1, 8, 4, 4], 1.0, &mut rng));
        assert_eq!(mb1.forward(&x).unwrap().shape(), vec![1, 8, 4, 4]);
    }

    #[test]
    fn mbconv_gradients_reach_all_params() {
        let mut rng = StdRng::seed_from_u64(4);
        let mb = MbConv::new(4, 4, 3, 4, 1, &mut rng);
        let x = Tensor::constant(Array::randn(&[2, 4, 6, 6], 1.0, &mut rng));
        let y = mb.forward(&x).unwrap();
        y.square().sum().backward();
        for (i, p) in mb.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }

    #[test]
    fn mbconv_quantized_path_differs_from_full() {
        let mut rng = StdRng::seed_from_u64(5);
        let mb = MbConv::new(4, 4, 3, 4, 1, &mut rng);
        mb.set_training(false);
        let x = Tensor::constant(Array::randn(&[1, 4, 6, 6], 1.0, &mut rng));
        let full = mb.forward(&x).unwrap();
        let q = mb.forward_quantized(&x, Some(QuantSpec::bits(3))).unwrap();
        let diff: f32 = full
            .value()
            .data()
            .iter()
            .zip(q.value().data())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-4, "3-bit quantization should perturb outputs");
    }

    #[test]
    fn getters_report_config() {
        let mut rng = StdRng::seed_from_u64(7);
        let mb = MbConv::new(8, 16, 5, 6, 2, &mut rng);
        assert_eq!(mb.in_channels(), 8);
        assert_eq!(mb.out_channels(), 16);
        assert_eq!(mb.kernel(), 5);
        assert_eq!(mb.expansion(), 6);
        assert_eq!(mb.stride(), 2);
    }
}
