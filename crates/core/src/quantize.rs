//! Post-training calibration of a derived network for the integer
//! inference engine.
//!
//! The co-search picks a per-block weight precision Φ; [`QatModel`] trains
//! the derived network under those precisions with straight-through fake
//! quantization, but still executes in f32. [`calibrate`] replays the float
//! network over sample data to fix every activation scale. The model, its
//! arch and the [`Calibration`] then lower to an `edd-ir` graph
//! ([`lower_to_graph`](crate::lower_to_graph)), and `edd_ir::compile` folds
//! batch norms, quantizes weights per output channel at each block's
//! searched bits (bit-packing int4 for low-Φ blocks) and builds an
//! `edd_ir::CompiledModel` whose forward pass runs entirely in int8/int4 ×
//! int8 → i32 arithmetic with fixed-point requantization — the arithmetic
//! the paper's FPGA/GPU implementations actually perform.

use crate::qat::QatModel;
use edd_nn::{Module, QuantizableModule};
use edd_tensor::qkernel;
use edd_tensor::{Array, Result, Tensor, TensorError};

/// Weight precision ceiling of the integer engine: searched widths above
/// 8 bits execute as int8 (activations are always int8).
pub const ENGINE_MAX_BITS: u32 = 8;

/// Calibrated activation scales for one MBConv block.
#[derive(Debug, Clone, Copy)]
pub struct MbConvScales {
    /// Scale after the expand conv + BN + ReLU6 (when the block expands).
    pub expand_out: Option<f32>,
    /// Scale after the depthwise conv + BN + ReLU6.
    pub dw_out: f32,
    /// Scale of the block output (after the projection BN and, when the
    /// block has one, the residual add).
    pub block_out: f32,
}

/// Calibrated activation scales for every boundary of a derived network.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Scale of the quantized input image.
    pub input: f32,
    /// Scale after stem conv + BN + ReLU6.
    pub stem_out: f32,
    /// Per-block stage scales.
    pub blocks: Vec<MbConvScales>,
    /// Scale after head conv + BN + ReLU6 (also the pooled feature scale).
    pub head_out: f32,
}

/// Tracks the running max-|x| of one activation boundary.
#[derive(Debug, Clone, Copy, Default)]
struct RangeTracker(f32);

impl RangeTracker {
    fn observe(&mut self, t: &Tensor) {
        self.0 = self.0.max(qkernel::max_abs(t.value().data()));
    }

    fn scale(self) -> f32 {
        qkernel::scale_for(self.0, ENGINE_MAX_BITS)
    }
}

/// Replays the float network (eval mode, fake-quantized weights — the same
/// arithmetic QAT trained under) over `batches` and records the max-|x|
/// activation range at every stage boundary, returning per-stage int8
/// scales.
///
/// # Errors
///
/// Propagates forward-pass errors; rejects an empty batch list.
pub fn calibrate(model: &QatModel, batches: &[Array]) -> Result<Calibration> {
    if batches.is_empty() {
        return Err(TensorError::InvalidArgument(
            "calibrate: need at least one calibration batch".into(),
        ));
    }
    model.set_training(false);
    let nblocks = model.blocks().len();
    let mut r_input = RangeTracker::default();
    let mut r_stem = RangeTracker::default();
    let mut r_expand = vec![RangeTracker::default(); nblocks];
    let mut r_dw = vec![RangeTracker::default(); nblocks];
    let mut r_block = vec![RangeTracker::default(); nblocks];
    let mut r_head = RangeTracker::default();
    for x in batches {
        let xt = Tensor::constant(x.clone());
        r_input.observe(&xt);
        let mut h = model.stem().forward(&xt)?;
        h = model.stem_bn().forward_relu6(&h)?;
        r_stem.observe(&h);
        for (i, (mb, spec)) in model.blocks().iter().enumerate() {
            let block_in = h.clone();
            if let Some((conv, bn)) = mb.expand() {
                h = conv.forward_quantized(&h, *spec)?;
                h = bn.forward_relu6(&h)?;
                r_expand[i].observe(&h);
            }
            h = mb.depthwise().forward_quantized(&h, *spec)?;
            h = mb.dw_bn().forward_relu6(&h)?;
            r_dw[i].observe(&h);
            h = mb.project().forward_quantized(&h, *spec)?;
            h = mb.proj_bn().forward(&h)?;
            if mb.has_residual() {
                h = h.add(&block_in)?;
            }
            r_block[i].observe(&h);
        }
        h = model.head().forward(&h)?;
        h = model.head_bn().forward_relu6(&h)?;
        r_head.observe(&h);
    }
    let blocks = (0..nblocks)
        .map(|i| MbConvScales {
            expand_out: model.blocks()[i].0.expand().map(|_| r_expand[i].scale()),
            dw_out: r_dw[i].scale(),
            block_out: r_block[i].scale(),
        })
        .collect();
    Ok(Calibration {
        input: r_input.scale(),
        stem_out: r_stem.scale(),
        blocks,
        head_out: r_head.scale(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch_params::ArchParams;
    use crate::derive::DerivedArch;
    use crate::lower::lower_to_graph;
    use crate::space::SearchSpace;
    use crate::target::DeviceTarget;
    use edd_hw::FpgaDevice;
    use edd_ir::{Graph, Op, PassConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn derived() -> DerivedArch {
        let mut rng = StdRng::seed_from_u64(61);
        let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
        let target = DeviceTarget::FpgaPipelined(FpgaDevice::zc706());
        let arch = ArchParams::init(&space, &target, &mut rng);
        DerivedArch::from_params(&space, &target, &arch)
    }

    fn calib_batches(rng: &mut StdRng, n: usize) -> Vec<Array> {
        (0..n)
            .map(|_| Array::randn(&[2, 3, 16, 16], 1.0, rng))
            .collect()
    }

    /// The quantized graph the integer engine executes.
    fn lowered(model: &QatModel, arch: &DerivedArch, calib: &Calibration) -> Graph {
        let float = lower_to_graph(model, arch, calib).unwrap();
        edd_ir::lower(&float, &PassConfig::all()).unwrap().0
    }

    /// Float reference: the QAT model's own (fake-quantized) eval forward.
    fn float_logits(model: &QatModel, x: &Array) -> Array {
        model
            .forward(&Tensor::constant(x.clone()))
            .unwrap()
            .value()
            .clone()
    }

    #[test]
    fn compiled_model_tracks_float_network() {
        let arch = derived();
        let mut rng = StdRng::seed_from_u64(62);
        let model = QatModel::new(&arch, &mut rng);
        model.set_training(false);
        let calib = calibrate(&model, &calib_batches(&mut rng, 3)).unwrap();
        let q = edd_ir::CompiledModel::from_graph(lowered(&model, &arch, &calib)).unwrap();
        let x = Array::randn(&[2, 3, 16, 16], 1.0, &mut rng);
        let got = q.forward(&x).unwrap();
        let want = float_logits(&model, &x);
        assert_eq!(got.shape(), [2, 4]);
        let scale = qkernel::max_abs(want.data()).max(0.1);
        let mut worst = 0.0f32;
        for (g, w) in got.data().iter().zip(want.data()) {
            worst = worst.max((g - w).abs());
        }
        assert!(
            worst <= scale * 0.35,
            "integer engine drifted: worst |Δ| {worst}, float magnitude {scale}"
        );
    }

    #[test]
    fn calibration_is_deterministic_and_positive() {
        let arch = derived();
        let mut rng = StdRng::seed_from_u64(63);
        let model = QatModel::new(&arch, &mut rng);
        let batches = calib_batches(&mut rng, 2);
        let a = calibrate(&model, &batches).unwrap();
        let b = calibrate(&model, &batches).unwrap();
        assert_eq!(a.input, b.input);
        assert_eq!(a.head_out, b.head_out);
        assert!(a.input > 0.0 && a.stem_out > 0.0 && a.head_out > 0.0);
        for s in &a.blocks {
            assert!(s.dw_out > 0.0 && s.block_out > 0.0);
        }
        assert!(calibrate(&model, &[]).is_err());
    }

    #[test]
    fn engine_clamps_searched_bits_to_int8() {
        let mut arch = derived();
        for b in &mut arch.blocks {
            b.quant_bits = 16;
        }
        let mut rng = StdRng::seed_from_u64(64);
        let model = QatModel::new(&arch, &mut rng);
        let calib = calibrate(&model, &calib_batches(&mut rng, 1)).unwrap();
        let g = lowered(&model, &arch, &calib);
        let bits: Vec<u32> = g.nodes().iter().filter_map(|n| n.bits).collect();
        assert!(!bits.is_empty());
        assert!(bits.iter().all(|&b| b == 8), "{bits:?}");
    }

    #[test]
    fn int4_blocks_halve_block_weight_storage() {
        let mut rng = StdRng::seed_from_u64(65);
        let mut arch8 = derived();
        for b in &mut arch8.blocks {
            b.quant_bits = 8;
        }
        let mut arch4 = arch8.clone();
        for b in &mut arch4.blocks {
            b.quant_bits = 4;
        }
        let m8 = QatModel::new(&arch8, &mut StdRng::seed_from_u64(66));
        let m4 = QatModel::new(&arch4, &mut StdRng::seed_from_u64(66));
        let batches = calib_batches(&mut rng, 1);
        let g8 = lowered(&m8, &arch8, &calibrate(&m8, &batches).unwrap());
        let g4 = lowered(&m4, &arch4, &calibrate(&m4, &batches).unwrap());
        // Stem/head/classifier stay int8 in both, so the total shrinks by
        // exactly the bytes the int4 block layers save: `len − ⌈len/2⌉`.
        let saved: usize = g4
            .nodes()
            .iter()
            .filter(|n| n.bits == Some(4))
            .map(|n| match &n.op {
                Op::QConv(s) => s.weights.len() / 2,
                Op::QDwConv(s) => s.weights.len() / 2,
                _ => 0,
            })
            .sum();
        assert!(saved > 0);
        assert_eq!(g8.weight_bytes() - g4.weight_bytes(), saved);
    }
}
