//! Post-training compilation of a derived network into a true integer
//! inference engine.
//!
//! The co-search picks a per-block weight precision Φ; [`QatModel`] trains
//! the derived network under those precisions with straight-through fake
//! quantization, but still executes in f32. This module closes the loop:
//! [`calibrate`] replays the float network over sample data to fix every
//! activation scale, and [`QuantizedModel::compile`] folds batch norms,
//! quantizes weights per output channel at each block's searched bits
//! (bit-packing int4 for low-Φ blocks), and assembles the
//! `edd_nn::qlayers` graph so a forward pass runs entirely in int8/int4 ×
//! int8 → i32 arithmetic with fixed-point requantization — the arithmetic
//! the paper's FPGA/GPU implementations actually perform.
//!
//! [`QuantizedModel`] implements [`edd_runtime::BatchModel`], so it drops
//! into an [`edd_runtime::InferServer`] for batched serving with
//! request/latency telemetry.

use crate::derive::DerivedArch;
use crate::qat::QatModel;
use edd_nn::qlayers::{q_global_avg_pool, MbConvScales, QConv2d, QLinear, QMbConv, QTensor};
use edd_nn::{Module, QuantizableModule};
use edd_tensor::qkernel;
use edd_tensor::{Array, Result, Tensor, TensorError};

/// Weight precision ceiling of the integer engine: searched widths above
/// 8 bits execute as int8 (activations are always int8).
pub const ENGINE_MAX_BITS: u32 = 8;

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
        h = model.stem_bn().forward(&h)?.relu6();
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
        h = model.head_bn().forward(&h)?.relu6();
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

/// A derived network compiled to integer arithmetic: int8 activations
/// throughout, weights at each block's Φ-searched precision (int4
/// bit-packed when ≤ 4 bits), i32 accumulators, fixed-point
/// requantization. Stem, head and classifier run at 8-bit weights,
/// mirroring [`QatModel`]'s full-precision first/last-layer convention.
#[derive(Debug)]
pub struct QuantizedModel {
    stem: QConv2d,
    blocks: Vec<QMbConv>,
    head: QConv2d,
    classifier: QLinear,
    input_scale: f32,
    block_bits: Vec<u32>,
    input_channels: usize,
    image_size: usize,
    num_classes: usize,
}

impl QuantizedModel {
    /// Compiles a trained [`QatModel`] at the precisions searched in
    /// `arch`, with activation scales from `calib`.
    ///
    /// # Panics
    ///
    /// Panics if `calib` has a different block count than the model
    /// (calibrated against a different architecture).
    #[must_use]
    pub fn compile(model: &QatModel, arch: &DerivedArch, calib: &Calibration) -> Self {
        assert_eq!(
            calib.blocks.len(),
            model.blocks().len(),
            "QuantizedModel::compile: calibration/model block count mismatch"
        );
        let stem = QConv2d::compile(
            model.stem(),
            Some(model.stem_bn()),
            ENGINE_MAX_BITS,
            calib.input,
            calib.stem_out,
            true,
        );
        let mut in_scale = calib.stem_out;
        let mut blocks = Vec::with_capacity(model.blocks().len());
        let mut block_bits = Vec::with_capacity(model.blocks().len());
        for ((mb, spec), scales) in model.blocks().iter().zip(&calib.blocks) {
            let bits = spec.map_or(ENGINE_MAX_BITS, |s| s.bits.min(ENGINE_MAX_BITS));
            blocks.push(QMbConv::compile(mb, bits, in_scale, scales));
            block_bits.push(bits);
            in_scale = scales.block_out;
        }
        let head = QConv2d::compile(
            model.head(),
            Some(model.head_bn()),
            ENGINE_MAX_BITS,
            in_scale,
            calib.head_out,
            true,
        );
        let classifier = QLinear::compile(model.classifier(), ENGINE_MAX_BITS, calib.head_out);
        let s = &arch.space;
        QuantizedModel {
            stem,
            blocks,
            head,
            classifier,
            input_scale: calib.input,
            block_bits,
            input_channels: s.input_channels,
            image_size: s.image_size,
            num_classes: s.num_classes,
        }
    }

    /// Runs the integer network on a float NCHW batch, returning f32
    /// logits `[batch, num_classes]`. The input is quantized once at the
    /// calibrated scale; everything between that and the classifier's
    /// final dequantization is int8/int4 × int8 → i32 arithmetic.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the quantized layers.
    pub fn forward(&self, x: &Array) -> Result<Array> {
        let mut h = self.stem.forward(&QTensor::quantize(x, self.input_scale))?;
        for b in &self.blocks {
            h = b.forward(&h)?;
        }
        let h = self.head.forward(&h)?;
        let h = q_global_avg_pool(&h)?;
        self.classifier.forward(&h)
    }

    /// Scale the input image is quantized at.
    #[must_use]
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Effective per-block weight precisions (searched bits clamped to the
    /// engine ceiling).
    #[must_use]
    pub fn block_bits(&self) -> &[u32] {
        &self.block_bits
    }

    /// Rebuilds the compiled engine as a lowered `edd-ir` graph — the
    /// exact specs this model executes, node for node, so downstream
    /// consumers (the pulsed executor, artifacts) run bit-identically to
    /// [`QuantizedModel::forward`] without retracing the float frontend.
    ///
    /// The residual adds follow the engine's operand convention: the
    /// projection output arrives already on the block-output grid
    /// (`rq_a: None`), the block input is rescaled onto it (`rq_b` = the
    /// compiled residual requantizer).
    ///
    /// # Errors
    ///
    /// Propagates graph-construction errors (unreachable for a model
    /// compiled by [`QuantizedModel::compile`]).
    pub fn to_graph(&self, name: &str) -> Result<edd_ir::Graph> {
        use edd_ir::{Graph, GraphMeta, Node, Op, QAddOp};
        let mut g = Graph::new(GraphMeta {
            name: name.to_string(),
            input_shape: [self.input_channels, self.image_size, self.image_size],
            num_classes: self.num_classes,
        });
        let node = |name: String, op: Op, inputs: Vec<usize>| Node {
            name,
            op,
            inputs,
            scale: None,
            bits: None,
        };
        let input = g.add(node("input".into(), Op::Input, vec![]))?;
        let q = g.add(node(
            "quantize".into(),
            Op::Quantize {
                scale: self.input_scale,
            },
            vec![input],
        ))?;
        let mut h = g.add(node(
            "stem.conv".into(),
            Op::QConv(Box::new(self.stem.spec().clone())),
            vec![q],
        ))?;
        for (i, b) in self.blocks.iter().enumerate() {
            let block_in = h;
            if let Some(e) = b.expand() {
                h = g.add(node(
                    format!("block{i}.expand"),
                    Op::QConv(Box::new(e.spec().clone())),
                    vec![h],
                ))?;
            }
            h = g.add(node(
                format!("block{i}.dw"),
                Op::QDwConv(Box::new(b.depthwise().spec().clone())),
                vec![h],
            ))?;
            h = g.add(node(
                format!("block{i}.project"),
                Op::QConv(Box::new(b.project().spec().clone())),
                vec![h],
            ))?;
            if let Some(rq) = b.residual() {
                h = g.add(node(
                    format!("block{i}.residual"),
                    Op::QAdd(Box::new(QAddOp {
                        rq_a: None,
                        rq_b: Some(*rq),
                        out_scale: b.out_scale(),
                    })),
                    vec![h, block_in],
                ))?;
            }
        }
        let head = g.add(node(
            "head.conv".into(),
            Op::QConv(Box::new(self.head.spec().clone())),
            vec![h],
        ))?;
        let gap = g.add(node("gap".into(), Op::QGlobalAvgPool, vec![head]))?;
        let fc = g.add(node(
            "classifier".into(),
            Op::QLinear(Box::new(self.classifier.spec().clone())),
            vec![gap],
        ))?;
        g.set_output(fc)?;
        Ok(g)
    }

    /// Total bytes of quantized weight storage (int4 blocks count packed).
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.stem.weight_bytes()
            + self.blocks.iter().map(QMbConv::weight_bytes).sum::<usize>()
            + self.head.weight_bytes()
            + self.classifier.weight_bytes()
    }
}

/// The multi-tenant serving front end (`edd_runtime::serve`) shares one
/// compiled engine immutably across worker shards, so `QuantizedModel`
/// must stay `Send + Sync` — plain owned buffers, no interior mutability.
/// This assertion turns any future `Rc`/`RefCell`/raw-pointer regression
/// into a compile error at the crate boundary that relies on it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QuantizedModel>();
};

impl edd_runtime::BatchModel for QuantizedModel {
    type Error = TensorError;

    fn image_len(&self) -> usize {
        self.input_channels * self.image_size * self.image_size
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>> {
        let expect = batch * self.image_len();
        if images.len() != expect {
            return Err(TensorError::InvalidArgument(format!(
                "infer_batch: expected {expect} values for batch {batch}, got {}",
                images.len()
            )));
        }
        let x = Array::from_slice(
            images,
            &[batch, self.input_channels, self.image_size, self.image_size],
        )?;
        let logits = self.forward(&x)?.data().to_vec();
        // Mirror the kernel-selection and panel-cache counters into the
        // `infer.*` telemetry namespace so serving traces show which GEMM
        // paths the engine took, next to the latency the server records.
        // The snapshot is cumulative across the process, so gauges (latest
        // value wins) are the right shape — not counters, which would
        // double-add on every request.
        let ks = edd_tensor::stats::snapshot();
        edd_runtime::telemetry::gauge("infer.select_vecmat", ks.select_vecmat);
        edd_runtime::telemetry::gauge("infer.select_skinny_n", ks.select_skinny_n);
        edd_runtime::telemetry::gauge("infer.select_square", ks.select_square);
        edd_runtime::telemetry::gauge("infer.select_conv", ks.select_conv);
        edd_runtime::telemetry::gauge("infer.select_generic", ks.select_generic);
        edd_runtime::telemetry::gauge("infer.pack_panels_built", ks.pack_panels_built);
        edd_runtime::telemetry::gauge("infer.pack_panel_hits", ks.pack_panel_hits);
        edd_runtime::telemetry::gauge("infer.pack_panel_misses", ks.pack_panel_misses);
        Ok(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch_params::ArchParams;
    use crate::space::SearchSpace;
    use crate::target::DeviceTarget;
    use edd_hw::FpgaDevice;
    use edd_runtime::{BatchModel, InferServer};
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
        let q = QuantizedModel::compile(&model, &arch, &calib);
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
        let q = QuantizedModel::compile(&model, &arch, &calib);
        assert!(q.block_bits().iter().all(|&b| b == 8));
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
        let c8 = calibrate(&m8, &batches).unwrap();
        let c4 = calibrate(&m4, &batches).unwrap();
        let q8 = QuantizedModel::compile(&m8, &arch8, &c8);
        let q4 = QuantizedModel::compile(&m4, &arch4, &c4);
        assert_eq!(q4.block_bits(), &[4, 4, 4]);
        // Stem/head/classifier stay int8 in both, so the total shrinks by
        // exactly half the block weight bytes.
        let block8: usize = q8.blocks.iter().map(QMbConv::weight_bytes).sum();
        let block4: usize = q4.blocks.iter().map(QMbConv::weight_bytes).sum();
        assert_eq!(block4 * 2, block8 + block8 % 2);
        assert!(q4.weight_bytes() < q8.weight_bytes());
    }

    #[test]
    fn infer_batch_leaves_the_buffer_pool_steady() {
        let arch = derived();
        let mut rng = StdRng::seed_from_u64(68);
        let model = QatModel::new(&arch, &mut rng);
        let calib = calibrate(&model, &calib_batches(&mut rng, 1)).unwrap();
        let q = QuantizedModel::compile(&model, &arch, &calib);
        let images = Array::randn(&[32, 3, 16, 16], 1.0, &mut rng);
        // Warm-up fills the pool's bins for this batch's buffer lengths.
        for _ in 0..3 {
            q.infer_batch(images.data(), 32).unwrap();
        }
        let before = edd_tensor::recycle::retained_bytes();
        for _ in 0..100 {
            q.infer_batch(images.data(), 32).unwrap();
        }
        assert_eq!(edd_tensor::recycle::retained_bytes(), before);
    }

    #[test]
    fn serves_through_infer_server_with_telemetry_counters() {
        let arch = derived();
        let mut rng = StdRng::seed_from_u64(67);
        let model = QatModel::new(&arch, &mut rng);
        let calib = calibrate(&model, &calib_batches(&mut rng, 1)).unwrap();
        let q = QuantizedModel::compile(&model, &arch, &calib);
        assert_eq!(q.image_len(), 3 * 16 * 16);
        assert_eq!(BatchModel::num_classes(&q), 4);
        let server = InferServer::new(q);
        let images: Vec<f32> = Array::randn(&[2, 3, 16, 16], 1.0, &mut rng).data().to_vec();
        let logits = server.infer(&images, 2).unwrap();
        assert_eq!(logits.len(), 2 * 4);
        // A second, different batch size through the same server.
        server.infer(&images[..3 * 16 * 16], 1).unwrap();
        let stats = server.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.images, 3);
        assert!(server.infer(&images[..10], 1).is_err());
    }
}
