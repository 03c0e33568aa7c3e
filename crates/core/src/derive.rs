//! Deriving a concrete architecture from trained search variables
//! (paper §5: keep the branches with the largest architecture weights).

use crate::arch_params::ArchParams;
use crate::space::SearchSpace;
use crate::target::DeviceTarget;
use edd_hw::shapes::{LayerKind, LayerShape, NetworkShape, OpShape};
use edd_nn::{Activation, Conv2d, Flatten, GlobalAvgPool, Linear, MbConv, Sequential};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The choice made for one block of the derived network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockChoice {
    /// Depthwise kernel size.
    pub kernel: usize,
    /// Channel expansion ratio.
    pub expansion: usize,
    /// Output channels (from the fixed plan).
    pub out_channels: usize,
    /// Stride (from the fixed plan).
    pub stride: usize,
    /// Chosen weight bit-width.
    pub quant_bits: u32,
    /// Chosen parallel factor (`log₂` parallelism), if the target has one.
    pub parallel_factor: Option<f32>,
}

/// A searched architecture: the output artifact of an EDD run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DerivedArch {
    /// Name (derived from the space and target).
    pub name: String,
    /// Target label the architecture was searched for.
    pub target: String,
    /// Per-block choices.
    pub blocks: Vec<BlockChoice>,
    /// The search space skeleton (channels, stem/head, classes).
    pub space: SearchSpace,
}

impl DerivedArch {
    /// Extracts the argmax architecture from `arch` (paper §5: keep the
    /// branch with the largest architecture weight, and its quantization).
    #[must_use]
    pub fn from_params(
        space: &SearchSpace,
        target: &DeviceTarget,
        arch: &ArchParams,
    ) -> DerivedArch {
        let ops = arch.argmax_ops();
        let blocks = ops
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let (kernel, expansion) = space.op_choice(m);
                let qi = arch.argmax_quant(i, m);
                BlockChoice {
                    kernel,
                    expansion,
                    out_channels: space.blocks[i].out_channels,
                    stride: space.blocks[i].stride,
                    quant_bits: space.quant_bits[qi],
                    parallel_factor: arch.pf(i, m).map(edd_tensor::Tensor::item),
                }
            })
            .collect();
        DerivedArch {
            name: format!("edd-derived-{}", space.name),
            target: target.label(),
            blocks,
            space: space.clone(),
        }
    }

    /// Converts to the hardware-model network description (stem and head
    /// included) for latency/throughput/resource evaluation.
    #[must_use]
    pub fn to_network_shape(&self) -> NetworkShape {
        let s = &self.space;
        let mut ops = Vec::with_capacity(self.blocks.len() + 2);
        // Stem 3×3 convolution.
        let stem_hw = s.image_size.div_ceil(s.stem_stride);
        ops.push(OpShape {
            name: "stem_conv3x3".into(),
            ip_class: "stem".into(),
            layers: vec![
                LayerShape {
                    kind: LayerKind::Conv {
                        k: 3,
                        cin: s.input_channels,
                        cout: s.stem_channels,
                    },
                    h: stem_hw,
                    w: stem_hw,
                },
                LayerShape {
                    kind: LayerKind::Other { c: s.stem_channels },
                    h: stem_hw,
                    w: stem_hw,
                },
            ],
        });
        for (i, b) in self.blocks.iter().enumerate() {
            let cin = s.block_in_channels(i);
            let hw = s.spatial_at_block(i);
            ops.push(OpShape::mbconv(
                cin,
                b.out_channels,
                b.kernel,
                b.expansion,
                hw,
                hw,
                b.stride,
            ));
        }
        // Head: 1×1 conv + classifier.
        let last_c = s.blocks.last().map_or(s.stem_channels, |b| b.out_channels);
        let final_hw = s.spatial_at_block(s.num_blocks());
        ops.push(OpShape {
            name: "head".into(),
            ip_class: "head".into(),
            layers: vec![
                LayerShape {
                    kind: LayerKind::Conv {
                        k: 1,
                        cin: last_c,
                        cout: s.head_channels,
                    },
                    h: final_hw,
                    w: final_hw,
                },
                LayerShape {
                    kind: LayerKind::Linear {
                        cin: s.head_channels,
                        cout: s.num_classes,
                    },
                    h: 1,
                    w: 1,
                },
            ],
        });
        NetworkShape {
            name: self.name.clone(),
            ops,
        }
    }

    /// Builds a trainable model of this architecture (for the paper's
    /// train-from-scratch final stage).
    #[must_use]
    pub fn build_model<R: Rng + ?Sized>(&self, rng: &mut R) -> Sequential {
        let s = &self.space;
        let mut net = Sequential::new()
            .push(Conv2d::same(
                s.input_channels,
                s.stem_channels,
                3,
                s.stem_stride,
                rng,
            ))
            .push(edd_nn::BatchNorm2d::new(s.stem_channels))
            .push(Activation::Relu6);
        for (i, b) in self.blocks.iter().enumerate() {
            let cin = s.block_in_channels(i);
            net = net.push(MbConv::new(
                cin,
                b.out_channels,
                b.kernel,
                b.expansion,
                b.stride,
                rng,
            ));
        }
        let last_c = s.blocks.last().map_or(s.stem_channels, |b| b.out_channels);
        net.push(Conv2d::new(last_c, s.head_channels, 1, 1, 0, false, rng))
            .push(edd_nn::BatchNorm2d::new(s.head_channels))
            .push(Activation::Relu6)
            .push(GlobalAvgPool)
            .push(Flatten)
            .push(Linear::new(s.head_channels, s.num_classes, rng))
    }

    /// One-line-per-block description in the style of paper Fig. 4
    /// (`MB e4 k5x5 c80 s2 @16b`).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!("{} [{}]\n", self.name, self.target);
        for (i, b) in self.blocks.iter().enumerate() {
            out.push_str(&format!(
                "  block{:<2} MB e{} k{}x{} c{:<4} s{} @{}b",
                i, b.expansion, b.kernel, b.kernel, b.out_channels, b.stride, b.quant_bits
            ));
            if let Some(pf) = b.parallel_factor {
                out.push_str(&format!(" pf={pf:.2}"));
            }
            out.push('\n');
        }
        out
    }

    /// Serializes to pretty JSON (the exchange artifact of a search run).
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error if serialization fails (practically
    /// impossible for this type).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes from JSON and checks the result against its own
    /// space, so a hand-edited or corrupted file fails here, naming the
    /// field, rather than panicking in the shape or training code later.
    ///
    /// # Errors
    ///
    /// Returns a `serde_json` error for malformed input, or for an
    /// architecture its space cannot describe: a block count other than the
    /// plan's, a block choice off the space's menus or plan, a zero size or
    /// menu entry, an even kernel on the menu, or a quantization menu entry
    /// below 2 bits (the narrowest symmetric grid with a nonzero level).
    pub fn from_json(s: &str) -> serde_json::Result<DerivedArch> {
        let arch: DerivedArch = serde_json::from_str(s)?;
        arch.check().map_err(serde::DeError::custom)?;
        Ok(arch)
    }

    fn check(&self) -> Result<(), String> {
        let s = &self.space;
        let sizes = [
            ("input_channels", s.input_channels),
            ("image_size", s.image_size),
            ("num_classes", s.num_classes),
            ("stem_channels", s.stem_channels),
            ("stem_stride", s.stem_stride),
            ("head_channels", s.head_channels),
        ];
        if let Some((field, _)) = sizes.iter().find(|(_, v)| *v == 0) {
            return Err(format!("space.{field} must be positive"));
        }
        if let Some(i) = s
            .blocks
            .iter()
            .position(|p| p.out_channels == 0 || p.stride == 0)
        {
            return Err(format!(
                "space.blocks[{i}]: out_channels and stride must be positive"
            ));
        }
        if s.kernel_choices.iter().any(|k| k % 2 == 0) {
            // A same-padded even kernel changes the plane size, so the
            // block's residual add no longer fits.
            return Err(format!(
                "space.kernel_choices {:?} must be odd",
                s.kernel_choices
            ));
        }
        if s.expansion_choices.contains(&0) {
            return Err("space.expansion_choices must be positive".into());
        }
        if s.quant_bits.iter().any(|&q| q < 2) {
            return Err(format!(
                "space.quant_bits {:?} must be at least 2",
                s.quant_bits
            ));
        }
        if self.blocks.len() != s.blocks.len() {
            return Err(format!(
                "{} blocks, but the space plans {}",
                self.blocks.len(),
                s.blocks.len()
            ));
        }
        for (i, (b, p)) in self.blocks.iter().zip(&s.blocks).enumerate() {
            let on_menu = [
                ("kernel", s.kernel_choices.contains(&b.kernel)),
                ("expansion", s.expansion_choices.contains(&b.expansion)),
                ("quant_bits", s.quant_bits.contains(&b.quant_bits)),
            ];
            if let Some((field, _)) = on_menu.iter().find(|(_, ok)| !ok) {
                return Err(format!(
                    "blocks[{i}].{field} is off the space's menu: {b:?}"
                ));
            }
            if (b.out_channels, b.stride) != (p.out_channels, p.stride) {
                return Err(format!(
                    "blocks[{i}]: out_channels {} and stride {} differ from the plan's {} and {}",
                    b.out_channels, b.stride, p.out_channels, p.stride
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch_params::ArchParams;
    use edd_hw::FpgaDevice;
    use edd_nn::Module;
    use edd_tensor::{Array, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn derived() -> DerivedArch {
        let mut rng = StdRng::seed_from_u64(9);
        let space = SearchSpace::tiny(4, 16, 4, vec![4, 8, 16]);
        let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
        let arch = ArchParams::init(&space, &target, &mut rng);
        DerivedArch::from_params(&space, &target, &arch)
    }

    #[test]
    fn block_choices_within_menus() {
        let d = derived();
        assert_eq!(d.blocks.len(), 4);
        for b in &d.blocks {
            assert!([3, 5, 7].contains(&b.kernel));
            assert!([4, 5, 6].contains(&b.expansion));
            assert!([4u32, 8, 16].contains(&b.quant_bits));
            assert!(b.parallel_factor.is_some());
        }
    }

    #[test]
    fn network_shape_has_stem_blocks_head() {
        let d = derived();
        let net = d.to_network_shape();
        assert_eq!(net.ops.len(), 4 + 2);
        assert_eq!(net.ops[0].ip_class, "stem");
        assert_eq!(net.ops.last().unwrap().ip_class, "head");
        assert!(net.total_work() > 0.0);
    }

    #[test]
    fn built_model_runs_and_trains() {
        let d = derived();
        let mut rng = StdRng::seed_from_u64(10);
        let model = d.build_model(&mut rng);
        let x = Tensor::constant(Array::randn(&[2, 3, 16, 16], 1.0, &mut rng));
        let y = model.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![2, 4]);
        let loss = y.cross_entropy(&[0, 1]).unwrap();
        loss.backward();
        assert!(model.parameters()[0].grad().is_some());
    }

    #[test]
    fn summary_mentions_every_block() {
        let d = derived();
        let s = d.summary();
        for i in 0..4 {
            assert!(s.contains(&format!("block{i}")), "missing block{i} in {s}");
        }
        assert!(s.contains("@"));
        assert!(s.contains("pf="));
    }

    #[test]
    fn json_roundtrip() {
        let d = derived();
        let j = d.to_json().unwrap();
        let back = DerivedArch::from_json(&j).unwrap();
        assert_eq!(d, back);
    }

    /// Each of these files would panic in the shape or data code, or be
    /// evaluated as a network its space cannot build, if `from_json`
    /// accepted it.
    #[test]
    fn from_json_rejects_archs_their_space_cannot_describe() {
        type Edit = fn(&mut DerivedArch);
        let cases: [(&str, Edit); 14] = [
            ("blocks[1].kernel", |a| a.blocks[1].kernel = 0),
            ("blocks[0].kernel", |a| a.blocks[0].kernel = 2),
            ("blocks[2].expansion", |a| a.blocks[2].expansion = 0),
            ("blocks[0]: out_channels", |a| a.blocks[0].out_channels = 0),
            ("blocks[3]: out_channels", |a| a.blocks[3].stride = 0),
            ("blocks[1].quant_bits", |a| a.blocks[1].quant_bits = 0),
            ("blocks[1].quant_bits", |a| a.blocks[1].quant_bits = 1),
            ("3 blocks, but the space plans 4", |a| {
                a.blocks.pop();
            }),
            ("space.image_size", |a| a.space.image_size = 0),
            ("space.stem_stride", |a| a.space.stem_stride = 0),
            ("space.num_classes", |a| a.space.num_classes = 0),
            ("space.blocks[2]", |a| a.space.blocks[2].stride = 0),
            ("space.quant_bits", |a| a.space.quant_bits[0] = 1),
            ("space.kernel_choices", |a| a.space.kernel_choices.push(2)),
        ];
        for (want, mutate) in cases {
            let mut arch = derived();
            mutate(&mut arch);
            let err = DerivedArch::from_json(&arch.to_json().unwrap()).expect_err(want);
            assert!(err.to_string().contains(want), "want `{want}` in: {err}");
        }
    }
}
