//! Laptop-scale trainable counterparts used by the SynthImageNet
//! experiments: a tiny MobileNet-V2-style baseline and random-architecture
//! sampling from an EDD search space (the random-search control).

use edd_core::{
    calibrate, lower_to_graph, BlockChoice, BlockPlan, Calibration, DerivedArch, DeviceTarget,
    QatModel, SearchSpace,
};
use edd_ir::{CompiledModel, PassConfig, PassReport};
use edd_tensor::Array;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small MobileNet-V2-style classifier for `image_size²` RGB inputs:
/// stem 3×3 → five MBConv blocks (k3; e1, then e6) → 1×1 head → GAP →
/// linear, built at full precision by [`DerivedArch::build_model`].
#[must_use]
pub fn tiny_mobilenet_v2<R: Rng + ?Sized>(
    image_size: usize,
    num_classes: usize,
    rng: &mut R,
) -> QatModel {
    // (out_channels, expansion, stride) per block.
    let plan = [(16, 1, 1), (24, 6, 2), (24, 6, 1), (32, 6, 2), (32, 6, 1)];
    let space = SearchSpace {
        name: "tiny-mnv2".into(),
        input_channels: 3,
        image_size,
        num_classes,
        stem_channels: 16,
        stem_stride: 1,
        blocks: plan
            .iter()
            .map(|&(out_channels, _, stride)| BlockPlan {
                out_channels,
                stride,
            })
            .collect(),
        kernel_choices: vec![3],
        expansion_choices: vec![1, 6],
        quant_bits: vec![32],
        head_channels: 64,
    };
    let blocks = plan
        .iter()
        .map(|&(out_channels, expansion, stride)| BlockChoice {
            kernel: 3,
            expansion,
            out_channels,
            stride,
            quant_bits: 32,
            parallel_factor: None,
        })
        .collect();
    DerivedArch {
        name: space.name.clone(),
        target: "hand-crafted".into(),
        blocks,
        space,
    }
    .build_model(rng)
}

/// A fixed, deterministic derived architecture for exercising the integer
/// quantized-inference engine end to end (examples, `edd qinfer`, the
/// golden pins): three MBConv blocks over 16×16 RGB inputs with
/// mixed searched precisions Φ = {4, 8, 8} bits, so the compiled
/// [`CompiledModel`] gets both the bit-packed int4 path and the int8
/// path.
#[must_use]
pub fn tiny_derived_arch() -> DerivedArch {
    tiny_quant_arch("edd-tiny-quant-demo", [3, 5, 3], [4, 4, 4], [4, 8, 8])
}

/// Builds a fixed three-block derived architecture over the tiny search
/// space with per-block kernel sizes, expansion ratios, and quantization
/// bit-widths. All choices must come from the tiny space's menus
/// (kernels {3, 5, 7}, expansions {4, 5, 6}, bits {4, 8, 16}).
#[must_use]
pub fn tiny_quant_arch(
    name: &str,
    kernels: [usize; 3],
    expansions: [usize; 3],
    bits: [u32; 3],
) -> DerivedArch {
    let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
    let blocks = space
        .blocks
        .iter()
        .enumerate()
        .map(|(i, plan)| BlockChoice {
            kernel: kernels[i],
            expansion: expansions[i],
            out_channels: plan.out_channels,
            stride: plan.stride,
            quant_bits: bits[i],
            parallel_factor: None,
        })
        .collect();
    DerivedArch {
        name: name.into(),
        target: DeviceTarget::Dedicated(edd_hw::AccelDevice::loom_like()).label(),
        blocks,
        space,
    }
}

/// A small fleet of distinct derived architectures for multi-tenant
/// serving tests and benches: the mixed-precision demo net plus a pure
/// int8 variant and a pure int4 variant, each with different kernel and
/// expansion choices so their compiled engines genuinely differ.
#[must_use]
pub fn tiny_model_zoo() -> Vec<DerivedArch> {
    vec![
        tiny_derived_arch(),
        tiny_quant_arch("edd-tiny-int8", [5, 7, 3], [5, 6, 4], [8, 8, 8]),
        tiny_quant_arch("edd-tiny-int4", [7, 3, 5], [6, 4, 5], [4, 4, 4]),
    ]
}

/// The deterministic front half of the tiny-zoo deploy pipeline — random
/// QAT weights and activation calibration per architecture — for callers
/// that lower the models themselves (the benchmark). [`compile_tiny_zoo`]
/// runs the back half. Deterministic in `seed`.
#[must_use]
pub fn prepare_tiny_zoo(seed: u64) -> Vec<(DerivedArch, QatModel, Calibration)> {
    tiny_model_zoo()
        .into_iter()
        .enumerate()
        .map(|(i, arch)| {
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let model = QatModel::new(&arch, &mut rng);
            let batches: Vec<Array> = (0..2)
                .map(|_| Array::randn(&[2, 3, 16, 16], 1.0, &mut rng))
                .collect();
            let calib = calibrate(&model, &batches).expect("calibration of tiny zoo model");
            (arch, model, calib)
        })
        .collect()
}

/// Trains nothing, but runs the full deploy pipeline for each
/// architecture in [`tiny_model_zoo`]: random QAT weights, activation
/// calibration ([`prepare_tiny_zoo`]), lowering to the annotated float
/// graph, the configured passes, and the executable [`CompiledModel`].
/// Returns `(name, engine, report)` triples ready to serve; deterministic
/// in `seed`.
#[must_use]
pub fn compile_tiny_zoo(seed: u64, cfg: &PassConfig) -> Vec<(String, CompiledModel, PassReport)> {
    prepare_tiny_zoo(seed)
        .iter()
        .map(|(arch, model, calib)| {
            let graph = lower_to_graph(model, arch, calib).expect("lower tiny zoo model");
            let (compiled, report) = edd_ir::compile(&graph, cfg).expect("compile tiny zoo graph");
            (arch.name.clone(), compiled, report)
        })
        .collect()
}

/// Samples a uniformly random architecture from `space` — the
/// random-search control against which the co-search's Pareto front is
/// compared.
#[must_use]
pub fn random_arch<R: Rng + ?Sized>(
    space: &SearchSpace,
    target: &DeviceTarget,
    rng: &mut R,
) -> DerivedArch {
    let blocks = space
        .blocks
        .iter()
        .map(|plan| {
            let m = rng.gen_range(0..space.num_ops());
            let (kernel, expansion) = space.op_choice(m);
            let q = space.quant_bits[rng.gen_range(0..space.num_quant())];
            BlockChoice {
                kernel,
                expansion,
                out_channels: plan.out_channels,
                stride: plan.stride,
                quant_bits: q,
                parallel_factor: None,
            }
        })
        .collect();
    DerivedArch {
        name: format!("random-{}", space.name),
        target: target.label(),
        blocks,
        space: space.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edd_hw::FpgaDevice;
    use edd_nn::Module;
    use edd_tensor::{Array, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tiny_mobilenet_classifies_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = tiny_mobilenet_v2(16, 4, &mut rng);
        let x = Tensor::constant(Array::randn(&[2, 3, 16, 16], 1.0, &mut rng));
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![2, 4]);
    }

    #[test]
    fn random_arch_within_space() {
        let mut rng = StdRng::seed_from_u64(2);
        let space = SearchSpace::tiny(5, 16, 4, vec![4, 8, 16]);
        let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
        let arch = random_arch(&space, &target, &mut rng);
        assert_eq!(arch.blocks.len(), 5);
        for b in &arch.blocks {
            assert!(space.kernel_choices.contains(&b.kernel));
            assert!(space.expansion_choices.contains(&b.expansion));
            assert!(space.quant_bits.contains(&b.quant_bits));
        }
        // Buildable and evaluable.
        let net = arch.to_network_shape();
        assert!(net.total_work() > 0.0);
    }

    #[test]
    fn tiny_derived_arch_is_buildable_and_mixed_precision() {
        let arch = tiny_derived_arch();
        assert_eq!(arch.blocks.len(), 3);
        assert!(arch.blocks.iter().any(|b| b.quant_bits <= 4));
        assert!(arch.blocks.iter().any(|b| b.quant_bits == 8));
        for b in &arch.blocks {
            assert!(arch.space.kernel_choices.contains(&b.kernel));
            assert!(arch.space.expansion_choices.contains(&b.expansion));
            assert!(arch.space.quant_bits.contains(&b.quant_bits));
        }
        assert!(arch.to_network_shape().total_work() > 0.0);
    }

    #[test]
    fn tiny_model_zoo_compiles_distinct_engines() {
        let zoo = tiny_model_zoo();
        assert_eq!(zoo.len(), 3);
        let names: Vec<_> = zoo.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(
            names,
            ["edd-tiny-quant-demo", "edd-tiny-int8", "edd-tiny-int4"]
        );
        for arch in &zoo {
            for b in &arch.blocks {
                assert!(arch.space.kernel_choices.contains(&b.kernel));
                assert!(arch.space.expansion_choices.contains(&b.expansion));
                assert!(arch.space.quant_bits.contains(&b.quant_bits));
            }
        }
        let compiled = compile_tiny_zoo(7, &PassConfig::all());
        assert_eq!(compiled.len(), 3);
        // Same seed → same engines (bitwise); the pipeline is deterministic.
        let again = compile_tiny_zoo(7, &PassConfig::all());
        let mut rng = StdRng::seed_from_u64(40);
        let x = Array::randn(&[1, 3, 16, 16], 1.0, &mut rng);
        for ((name, q, _), (_, q2, _)) in compiled.iter().zip(&again) {
            let a = q.forward(&x).unwrap();
            let b = q2.forward(&x).unwrap();
            assert_eq!(a.data(), b.data(), "{name} not reproducible");
            assert_eq!(a.shape(), vec![1, 4]);
        }
    }

    #[test]
    fn random_archs_differ() {
        let mut rng = StdRng::seed_from_u64(3);
        let space = SearchSpace::tiny(8, 16, 4, vec![4, 8, 16]);
        let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
        let a = random_arch(&space, &target, &mut rng);
        let b = random_arch(&space, &target, &mut rng);
        assert_ne!(a.blocks, b.blocks);
    }
}
