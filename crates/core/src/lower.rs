//! Lowering a trained, calibrated model into the `edd-ir` graph.
//!
//! This is the frontend of the integer compiler: it walks a [`QatModel`]
//! in stem → blocks → head → pool → classifier order and emits *annotated
//! float graph nodes*. Each quantization boundary carries its calibrated
//! activation scale and each parameterized op its Φ-searched weight
//! precision, which `edd_ir::passes::lower` consumes to quantize the
//! graph. Every integer engine in the workspace comes out of this
//! function followed by `edd_ir::compile` (or `edd_ir::lower` plus
//! `CompiledModel::from_graph`).
//!
//! Keeping this in `edd-core` (not `edd-ir`) preserves the layering: the
//! IR crate knows nothing about search, QAT, or calibration; this module
//! knows nothing about passes or artifacts.

use crate::derive::DerivedArch;
use crate::qat::QatModel;
use crate::quantize::{Calibration, ENGINE_MAX_BITS};
use edd_ir::{BatchNormOp, ConvOp, DwConvOp, Graph, GraphMeta, LinearOp, Node, Op};
use edd_nn::{bn_fold_factors, BatchNorm2d, Conv2d, DwConv2d};
use edd_tensor::{Result, TensorError};

fn node(name: String, op: Op, inputs: Vec<usize>, scale: f32, bits: Option<u32>) -> Node {
    Node {
        name,
        op,
        inputs,
        scale: Some(scale),
        bits,
    }
}

/// Adds a conv + BN (+ optional ReLU6) stage, all annotated with the
/// stage's calibrated output scale, returning the last node id.
fn conv_stage(
    g: &mut Graph,
    name: &str,
    (conv, bn): (&Conv2d, &BatchNorm2d),
    input: usize,
    out_scale: f32,
    bits: u32,
    relu6: bool,
) -> Result<usize> {
    let w = conv.weight().value();
    let shape = w.shape().to_vec();
    let c = g.add(node(
        format!("{name}.conv"),
        Op::Conv2d(Box::new(ConvOp {
            w: w.data().to_vec(),
            out_channels: shape[0],
            in_channels: shape[1],
            kernel: shape[2],
            stride: conv.stride(),
            padding: conv.padding(),
            bias: conv.bias().map(|b| b.value().data().to_vec()),
            relu6: false,
        })),
        vec![input],
        out_scale,
        Some(bits),
    ))?;
    let (mul, add) = bn_fold_factors(bn);
    let b = g.add(node(
        format!("{name}.bn"),
        Op::BatchNorm(Box::new(BatchNormOp { mul, add })),
        vec![c],
        out_scale,
        None,
    ))?;
    if !relu6 {
        return Ok(b);
    }
    g.add(node(
        format!("{name}.relu6"),
        Op::Relu6,
        vec![b],
        out_scale,
        None,
    ))
}

/// Depthwise analogue of [`conv_stage`].
fn dw_stage(
    g: &mut Graph,
    name: &str,
    dw: &DwConv2d,
    bn: &BatchNorm2d,
    input: usize,
    out_scale: f32,
    bits: u32,
) -> Result<usize> {
    let w = dw.weight().value();
    let shape = w.shape().to_vec();
    let c = g.add(node(
        format!("{name}.conv"),
        Op::DwConv2d(Box::new(DwConvOp {
            w: w.data().to_vec(),
            channels: shape[0],
            kernel: shape[1],
            stride: dw.stride(),
            padding: dw.padding(),
            bias: dw.bias().map(|b| b.value().data().to_vec()),
            relu6: false,
        })),
        vec![input],
        out_scale,
        Some(bits),
    ))?;
    let (mul, add) = bn_fold_factors(bn);
    let b = g.add(node(
        format!("{name}.bn"),
        Op::BatchNorm(Box::new(BatchNormOp { mul, add })),
        vec![c],
        out_scale,
        None,
    ))?;
    g.add(node(
        format!("{name}.relu6"),
        Op::Relu6,
        vec![b],
        out_scale,
        None,
    ))
}

/// Lowers a trained [`QatModel`] into an annotated float [`Graph`].
/// Weights are copied out of the model, activation scales come from
/// `calib`, and per-block weight precisions from the arch's searched Φ
/// (clamped to [`ENGINE_MAX_BITS`]; stem, head and classifier run at the
/// ceiling, mirroring [`QatModel`]'s full-precision first/last layers).
///
/// # Errors
///
/// Errors when `calib` has a different block count than the model, or
/// when a block that expands is missing its expand-stage scale.
pub fn lower_to_graph(model: &QatModel, arch: &DerivedArch, calib: &Calibration) -> Result<Graph> {
    if calib.blocks.len() != model.blocks().len() {
        return Err(TensorError::InvalidArgument(format!(
            "lower_to_graph: calibration covers {} blocks, model has {}",
            calib.blocks.len(),
            model.blocks().len()
        )));
    }
    let s = &arch.space;
    let mut g = Graph::new(GraphMeta {
        name: arch.name.clone(),
        input_shape: [s.input_channels, s.image_size, s.image_size],
        num_classes: s.num_classes,
    });
    let input = g.add(node("input".into(), Op::Input, vec![], calib.input, None))?;
    let mut prev = conv_stage(
        &mut g,
        "stem",
        (model.stem(), model.stem_bn()),
        input,
        calib.stem_out,
        ENGINE_MAX_BITS,
        true,
    )?;
    for (i, ((mb, spec), scales)) in model.blocks().iter().zip(&calib.blocks).enumerate() {
        let bits = spec.map_or(ENGINE_MAX_BITS, |sp| sp.bits.min(ENGINE_MAX_BITS));
        let block_in = prev;
        let mut h = block_in;
        if let Some((conv, bn)) = mb.expand() {
            let expand_out = scales.expand_out.ok_or_else(|| {
                TensorError::InvalidArgument(format!(
                    "lower_to_graph: block {i} expands but has no expand-stage scale"
                ))
            })?;
            h = conv_stage(
                &mut g,
                &format!("block{i}.expand"),
                (conv, bn),
                h,
                expand_out,
                bits,
                true,
            )?;
        }
        h = dw_stage(
            &mut g,
            &format!("block{i}.dw"),
            mb.depthwise(),
            mb.dw_bn(),
            h,
            scales.dw_out,
            bits,
        )?;
        h = conv_stage(
            &mut g,
            &format!("block{i}.project"),
            (mb.project(), mb.proj_bn()),
            h,
            scales.block_out,
            bits,
            false,
        )?;
        if mb.has_residual() {
            // Operand order fixes the bits: the projection output already
            // lives on the block-output grid (passes through raw), the
            // block input is requantized onto it (see `edd_ir::lower`).
            h = g.add(node(
                format!("block{i}.residual"),
                Op::Add,
                vec![h, block_in],
                scales.block_out,
                None,
            ))?;
        }
        prev = h;
    }
    let head = conv_stage(
        &mut g,
        "head",
        (model.head(), model.head_bn()),
        prev,
        calib.head_out,
        ENGINE_MAX_BITS,
        true,
    )?;
    let pool = g.add(node(
        "gap".into(),
        Op::GlobalAvgPool,
        vec![head],
        calib.head_out,
        None,
    ))?;
    let lin = model.classifier();
    let w = lin.weight().value();
    let shape = w.shape().to_vec();
    let fc = g.add(node(
        "classifier".into(),
        Op::Linear(Box::new(LinearOp {
            w: w.data().to_vec(),
            in_features: shape[0],
            out_features: shape[1],
            bias: lin.bias().value().data().to_vec(),
        })),
        vec![pool],
        calib.head_out,
        Some(ENGINE_MAX_BITS),
    ))?;
    g.set_output(fc)?;
    Ok(g)
}
