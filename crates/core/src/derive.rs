//! Deriving a concrete architecture from trained search variables
//! (paper §5: keep the branches with the largest architecture weights).

use crate::arch_params::ArchParams;
use crate::qat::QatModel;
use crate::space::SearchSpace;
use crate::target::DeviceTarget;
use edd_hw::shapes::{LayerKind, LayerShape, NetworkShape, OpShape};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The most `f32` values the parameters of a network built from a derived
/// architecture may hold in total (so also any one weight tensor), and the
/// most one of its input images may hold. DESIGN §7 says why 2^26.
const MAX_ELEMENTS: usize = 1 << 26;

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

    /// Builds the network of this architecture with fresh weights and every
    /// block at full precision, for the paper's train-from-scratch final
    /// stage. [`QatModel::new`] builds the same network from the same draws
    /// with each block under its searched precision.
    #[must_use]
    pub fn build_model<R: Rng + ?Sized>(&self, rng: &mut R) -> QatModel {
        QatModel::build(self, false, rng)
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
    /// menu entry, a kernel on the menu other than 3, 5 and 7 or a block
    /// stride other than 1 and 2 (the depthwise stencils `Tensor::dwconv2d`
    /// runs), a quantization menu entry
    /// below 2 bits (the narrowest symmetric grid with a nonzero level), or
    /// a network whose parameters, or one of whose input images, would hold
    /// more than 2^26 values.
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
            .position(|p| p.out_channels == 0 || !matches!(p.stride, 1 | 2))
        {
            // A block's stride is its depthwise conv's, and the f32
            // depthwise stencils run strides 1 and 2.
            return Err(format!(
                "space.blocks[{i}]: out_channels must be positive and stride 1 or 2"
            ));
        }
        if s.kernel_choices.iter().any(|k| !matches!(k, 3 | 5 | 7)) {
            // The f32 depthwise conv runs only its 3, 5 and 7 stencils.
            return Err(format!(
                "space.kernel_choices {:?} must be drawn from 3, 5 and 7",
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
        // Sizes multiply unchecked in the shape and allocation code, so
        // bound them here, before anything is built.
        let elements = |dims: &[usize]| dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        let image = [s.input_channels, s.image_size, s.image_size];
        if elements(&image).is_none_or(|n| n > MAX_ELEMENTS) {
            return Err(format!(
                "space.image_size and space.input_channels: one input image would hold more \
                 than {MAX_ELEMENTS} values"
            ));
        }
        let mut total = 0usize;
        for (field, dims) in self.parameter_shapes() {
            total = elements(&dims)
                .and_then(|n| total.checked_add(n))
                .filter(|&t| t <= MAX_ELEMENTS)
                .ok_or_else(|| {
                    format!("{field}: the network would hold more than {MAX_ELEMENTS} parameters")
                })?;
        }
        Ok(())
    }

    /// The shape of every parameter tensor of the network that
    /// [`build_model`](Self::build_model) builds, with the fields that size
    /// it; each batch norm's γ and β are one `[2, c]` entry.
    fn parameter_shapes(&self) -> Vec<(String, Vec<usize>)> {
        let s = &self.space;
        let mut shapes = vec![
            (
                "space.stem_channels × space.input_channels".to_string(),
                vec![s.stem_channels, s.input_channels, 3, 3],
            ),
            ("space.stem_channels".into(), vec![2, s.stem_channels]),
        ];
        for (i, b) in self.blocks.iter().enumerate() {
            let cin = s.block_in_channels(i);
            let field = |name: &str| format!("blocks[{i}].{name}");
            if b.expansion > 1 {
                shapes.push((field("expansion"), vec![cin, b.expansion, cin]));
                shapes.push((field("expansion"), vec![2, cin, b.expansion]));
            }
            shapes.push((field("kernel"), vec![cin, b.expansion, b.kernel, b.kernel]));
            shapes.push((field("expansion"), vec![2, cin, b.expansion]));
            shapes.push((
                field("out_channels"),
                vec![b.out_channels, cin, b.expansion],
            ));
            shapes.push((field("out_channels"), vec![2, b.out_channels]));
        }
        let last_c = s.blocks.last().map_or(s.stem_channels, |b| b.out_channels);
        shapes.extend([
            ("space.head_channels".into(), vec![s.head_channels, last_c]),
            ("space.head_channels".into(), vec![2, s.head_channels]),
            (
                "space.num_classes".into(),
                vec![s.head_channels, s.num_classes],
            ),
            ("space.num_classes".into(), vec![s.num_classes]),
        ]);
        shapes
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
        let cases: [(&str, Edit); 15] = [
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
            ("space.blocks[1]", |a| a.space.blocks[1].stride = 3),
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

    /// Sizes multiply unchecked in the shape and allocation code, where
    /// 2^40 would abort on a failed allocation or wrap; each such size is
    /// rejected, naming its field, before anything is built.
    #[test]
    fn from_json_rejects_sizes_past_the_cap() {
        const HUGE: usize = 1 << 40;
        type Edit = fn(&mut DerivedArch);
        let cases: [(&str, Edit); 8] = [
            ("space.head_channels", |a| a.space.head_channels = HUGE),
            ("space.num_classes", |a| a.space.num_classes = HUGE),
            ("space.stem_channels", |a| a.space.stem_channels = HUGE),
            ("space.input_channels", |a| a.space.input_channels = HUGE),
            ("space.image_size", |a| a.space.image_size = HUGE),
            ("blocks[1].expansion", |a| {
                a.space.expansion_choices.push(HUGE);
                a.blocks[1].expansion = HUGE;
            }),
            ("space.kernel_choices", |a| {
                a.space.kernel_choices.push(HUGE + 1);
                a.blocks[2].kernel = HUGE + 1;
            }),
            ("blocks[0].out_channels", |a| {
                a.space.blocks[0].out_channels = HUGE;
                a.blocks[0].out_channels = HUGE;
            }),
        ];
        for (want, mutate) in cases {
            let mut arch = derived();
            mutate(&mut arch);
            let err = DerivedArch::from_json(&arch.to_json().unwrap()).expect_err(want);
            assert!(err.to_string().contains(want), "want `{want}` in: {err}");
        }
    }

    /// The widest network the paper's ImageNet space can derive (k7, e6 in
    /// every block) stays well under the cap.
    #[test]
    fn paper_scale_archs_fit_under_the_cap() {
        let mut rng = StdRng::seed_from_u64(11);
        let space = SearchSpace::paper_imagenet(vec![4, 8, 16]);
        let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
        let params = ArchParams::init(&space, &target, &mut rng);
        let mut arch = DerivedArch::from_params(&space, &target, &params);
        assert_eq!(
            DerivedArch::from_json(&arch.to_json().unwrap()).unwrap(),
            arch
        );
        for b in &mut arch.blocks {
            (b.kernel, b.expansion) = (7, 6);
        }
        let total: usize = arch
            .parameter_shapes()
            .iter()
            .map(|(_, dims)| dims.iter().product::<usize>())
            .sum();
        assert!(total < MAX_ELEMENTS / 8, "{total} parameters");
        assert_eq!(
            DerivedArch::from_json(&arch.to_json().unwrap()).unwrap(),
            arch
        );
    }

    /// The cap counts exactly the parameters the built network holds.
    #[test]
    fn parameter_shapes_count_every_parameter() {
        let d = derived();
        let counted: usize = d
            .parameter_shapes()
            .iter()
            .map(|(_, dims)| dims.iter().product::<usize>())
            .sum();
        let model = d.build_model(&mut StdRng::seed_from_u64(12));
        assert_eq!(counted, model.num_parameters());
    }
}
