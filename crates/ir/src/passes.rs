//! The lowering pipeline: BN folding, optional ReLU6 fusion, then the
//! quantize lowering, which converts the graph to integer ops at the
//! frontend's annotated scales and bits and emits only the nodes the
//! output reaches.
//!
//! # Bitwise equivalence
//!
//! ReLU6 fusion, the one optional pass, preserves the quantized output
//! bit-for-bit by construction rather than by tolerance: it replaces
//! `clamp(v, -127, 127)` followed by `clamp(·, 0, q6)` with the fused
//! `clamp(v, 0, min(q6, 127))`, and the two compositions are pointwise
//! identical for every i32 `v` because `0 ≤ min(q6, 127) ≤ 127`.
//!
//! BN folding always runs. It folds a batch norm into its producer conv
//! only when that conv has no fused ReLU6: a clamp between the two would
//! make the fold compute `bn(clamp(x))` as `clamp(bn(x))`. Such a batch
//! norm stays in the graph, and the lowering rejects it.

use crate::exec::CompiledModel;
use crate::graph::{Graph, Node, Op, QAddOp};
use crate::patch::Patch;
use edd_nn::{
    clamp_bounds, fold_bn, QConvSource, QConvSpec, QDwConvSource, QDwConvSpec, QLinearSpec,
};
use edd_tensor::qkernel::Requant;
use edd_tensor::{Result, TensorError};

/// Which optional pass to run. BN folding and the quantize lowering always
/// run; ReLU6 fusion is the one pass that changes which nodes execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassConfig {
    /// Fuse ReLU6 activations into their producer convs' clamp bounds.
    pub relu6_fuse: bool,
}

impl Default for PassConfig {
    fn default() -> Self {
        PassConfig::all()
    }
}

impl PassConfig {
    /// Every optional pass enabled (the default).
    #[must_use]
    pub fn all() -> Self {
        PassConfig { relu6_fuse: true }
    }

    /// Every optional pass disabled: BN folding and the quantize lowering
    /// only. Reference configuration for equivalence tests.
    #[must_use]
    pub fn none() -> Self {
        PassConfig { relu6_fuse: false }
    }
}

/// True when node `id` is the only *reachable* consumer of `p`. Bypassed
/// orphans keep their input edges (nothing removes them; the lowering
/// skips them), so raw consumer counts would spuriously block fusions;
/// dead readers cannot observe a value and are ignored.
fn sole_reachable_consumer(
    consumers: &[Vec<usize>],
    reachable: &[bool],
    p: usize,
    id: usize,
) -> bool {
    let mut live = consumers[p].iter().filter(|&&c| reachable[c]);
    live.next() == Some(&id) && live.next().is_none()
}

/// What the pipeline did, for `edd compile` reporting and test assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassReport {
    /// Batch norms folded into a producer convolution.
    pub bn_folded: usize,
    /// ReLU6 activations fused into a producer's clamp bounds.
    pub relu6_fused: usize,
}

/// Folds every eval-mode [`Op::BatchNorm`] whose producer is a conv or
/// depthwise conv that nothing else consumes and that has no fused ReLU6.
/// The producer's weights and bias absorb the affine factors via
/// [`fold_bn`], the producer inherits the BN's output scale, and the BN
/// node is bypassed. Returns the fold count.
fn bn_fold_pass(g: &mut Graph) -> Result<usize> {
    let consumers = g.consumers();
    let reachable = g.reachable()?;
    let mut patch = Patch::new();
    let mut count = 0usize;
    for id in 0..g.len() {
        let Op::BatchNorm(bn) = &g.node(id).op else {
            continue;
        };
        if !reachable[id] {
            continue;
        }
        let p = g.node(id).inputs[0];
        if !sole_reachable_consumer(&consumers, &reachable, p, id) {
            continue;
        }
        let folded = match &g.node(p).op {
            Op::Conv2d(c) if !c.relu6 => {
                let mut c2 = c.as_ref().clone();
                let mut bias = c2.bias.take().unwrap_or_else(|| vec![0.0; c2.out_channels]);
                fold_bn(
                    &mut c2.w,
                    &mut bias,
                    &bn.mul,
                    &bn.add,
                    c2.in_channels * c2.kernel * c2.kernel,
                );
                c2.bias = Some(bias);
                Op::Conv2d(Box::new(c2))
            }
            Op::DwConv2d(c) if !c.relu6 => {
                let mut c2 = c.as_ref().clone();
                let mut bias = c2.bias.take().unwrap_or_else(|| vec![0.0; c2.channels]);
                fold_bn(
                    &mut c2.w,
                    &mut bias,
                    &bn.mul,
                    &bn.add,
                    c2.kernel * c2.kernel,
                );
                c2.bias = Some(bias);
                Op::DwConv2d(Box::new(c2))
            }
            _ => continue,
        };
        patch.set_op(p, folded);
        if let Some(s) = g.node(id).scale {
            patch.set_scale(p, s);
        }
        patch.bypass(id);
        count += 1;
    }
    patch.apply(g)?;
    Ok(count)
}

/// Fuses every [`Op::Relu6`] into its producer conv / depthwise conv when
/// that producer has no other consumer: the producer's `relu6` flag turns
/// its requantization clamp into `[0, min(q6, 127)]` and the activation
/// node is bypassed. Returns the fusion count.
fn relu6_fuse_pass(g: &mut Graph) -> Result<usize> {
    let consumers = g.consumers();
    let reachable = g.reachable()?;
    let mut patch = Patch::new();
    let mut count = 0usize;
    for id in 0..g.len() {
        if !matches!(g.node(id).op, Op::Relu6) || !reachable[id] {
            continue;
        }
        let p = g.node(id).inputs[0];
        if !sole_reachable_consumer(&consumers, &reachable, p, id) {
            continue;
        }
        let fused = match &g.node(p).op {
            Op::Conv2d(c) => {
                let mut c2 = c.as_ref().clone();
                c2.relu6 = true;
                Op::Conv2d(Box::new(c2))
            }
            Op::DwConv2d(c) => {
                let mut c2 = c.as_ref().clone();
                c2.relu6 = true;
                Op::DwConv2d(Box::new(c2))
            }
            _ => continue,
        };
        patch.set_op(p, fused);
        if let Some(s) = g.node(id).scale {
            patch.set_scale(p, s);
        }
        patch.bypass(id);
        count += 1;
    }
    patch.apply(g)?;
    Ok(count)
}

/// Reads the annotated activation scale of `id`, erroring with the node
/// name when the frontend did not provide one.
fn scale_of(g: &Graph, id: usize) -> Result<f32> {
    g.node(id).scale.ok_or_else(|| {
        TensorError::InvalidArgument(format!(
            "quantize lowering: node `{}` has no calibrated scale",
            g.node(id).name
        ))
    })
}

/// Requant bringing an operand at `s_in` onto the `s_out` grid, or `None`
/// when the scales are bit-identical (the operand already lives there).
/// The scale ratio is formed in f64, like every other requantizer.
fn operand_requant(s_in: f32, s_out: f32) -> Option<Requant> {
    if s_in.to_bits() == s_out.to_bits() {
        None
    } else {
        Some(Requant::from_scale(f64::from(s_in) / f64::from(s_out)))
    }
}

/// Lowers an annotated float graph into the quantized op set. This is the
/// mandatory compilation step: every float op the output reaches becomes
/// its integer counterpart at the scales/bits the frontend annotated, and
/// unreachable nodes are left out:
///
/// * the input gains an explicit [`Op::Quantize`] boundary at the
///   calibrated input scale;
/// * a conv/dw-conv (batch norm already folded in) compiles through
///   `QConvSpec::quantize` / `QDwConvSpec::quantize`;
/// * a standalone ReLU6 becomes a [`Op::QRelu6`] clamp on its producer's
///   grid;
/// * a residual [`Op::Add`] becomes a [`Op::QAdd`] in the output grid,
///   first operand raw when already on that grid, second requantized via
///   the f64 scale ratio `s_b / s_out`;
/// * the classifier lowers through `QLinearSpec::quantize`.
///
/// Errors on missing scale annotations, on a batch norm the fold could
/// not absorb, and on graphs that already contain quantized ops.
fn lower_quantized(g: &Graph) -> Result<Graph> {
    let reachable = g.reachable()?;
    let mut out = Graph::new(g.meta.clone());
    let mut map = vec![usize::MAX; g.len()];
    for id in 0..g.len() {
        if !reachable[id] {
            continue;
        }
        let n = g.node(id);
        let (op, scale, bits) = match &n.op {
            Op::Input => {
                let s = scale_of(g, id)?;
                let ni = out.add(Node {
                    name: n.name.clone(),
                    op: Op::Input,
                    inputs: vec![],
                    scale: Some(s),
                    bits: None,
                })?;
                map[id] = out.add(Node {
                    name: format!("{}.quantize", n.name),
                    op: Op::Quantize { scale: s },
                    inputs: vec![ni],
                    scale: Some(s),
                    bits: None,
                })?;
                continue;
            }
            Op::Conv2d(c) => {
                let bits = n.bits.unwrap_or(8);
                let out_scale = scale_of(g, id)?;
                let spec = QConvSpec::quantize(
                    &QConvSource {
                        w: &c.w,
                        out_channels: c.out_channels,
                        in_channels: c.in_channels,
                        kernel: c.kernel,
                        stride: c.stride,
                        padding: c.padding,
                        bias: c.bias.as_deref(),
                    },
                    bits,
                    scale_of(g, n.inputs[0])?,
                    out_scale,
                    c.relu6,
                );
                (Op::QConv(Box::new(spec)), Some(out_scale), Some(bits))
            }
            Op::DwConv2d(c) => {
                let bits = n.bits.unwrap_or(8);
                let out_scale = scale_of(g, id)?;
                let spec = QDwConvSpec::quantize(
                    &QDwConvSource {
                        w: &c.w,
                        channels: c.channels,
                        kernel: c.kernel,
                        stride: c.stride,
                        padding: c.padding,
                        bias: c.bias.as_deref(),
                    },
                    bits,
                    scale_of(g, n.inputs[0])?,
                    out_scale,
                    c.relu6,
                );
                (Op::QDwConv(Box::new(spec)), Some(out_scale), Some(bits))
            }
            Op::BatchNorm(_) => {
                return Err(TensorError::InvalidArgument(format!(
                    "quantize lowering: standalone batchnorm `{}` (its producer is not a conv \
                     it alone consumes, or that conv already clamps with a fused ReLU6)",
                    n.name
                )));
            }
            Op::Relu6 => {
                let s = scale_of(g, n.inputs[0])?;
                let (_, hi) = clamp_bounds(true, s);
                (Op::QRelu6 { hi: hi as i8 }, Some(s), None)
            }
            Op::Add => {
                let out_scale = scale_of(g, id)?;
                let s_a = scale_of(g, n.inputs[0])?;
                let s_b = scale_of(g, n.inputs[1])?;
                // The second operand (the block input of an MBConv
                // residual) is always requantized; the first passes
                // through raw when it already lives on the output grid.
                // The golden hashes pin this arithmetic.
                let add = QAddOp {
                    rq_a: operand_requant(s_a, out_scale),
                    rq_b: Some(Requant::from_scale(f64::from(s_b) / f64::from(out_scale))),
                    out_scale,
                };
                (Op::QAdd(Box::new(add)), Some(out_scale), None)
            }
            Op::GlobalAvgPool => (Op::QGlobalAvgPool, Some(scale_of(g, n.inputs[0])?), None),
            Op::Linear(l) => {
                let bits = n.bits.unwrap_or(8);
                let spec = QLinearSpec::quantize(
                    &l.w,
                    l.in_features,
                    l.out_features,
                    &l.bias,
                    bits,
                    scale_of(g, n.inputs[0])?,
                );
                (Op::QLinear(Box::new(spec)), None, Some(bits))
            }
            other => {
                return Err(TensorError::InvalidArgument(format!(
                    "quantize lowering: node `{}` is already quantized ({})",
                    n.name,
                    other.mnemonic()
                )));
            }
        };
        let inputs = n
            .inputs
            .iter()
            .map(|&i| mapped(g, &map, i))
            .collect::<Result<Vec<_>>>()?;
        map[id] = out.add(Node {
            name: n.name.clone(),
            op,
            inputs,
            scale,
            bits,
        })?;
    }
    out.set_output(mapped(g, &map, g.output()?)?)?;
    Ok(out)
}

/// The lowered id of float node `id`.
fn mapped(g: &Graph, map: &[usize], id: usize) -> Result<usize> {
    if map[id] == usize::MAX {
        return Err(TensorError::InvalidArgument(format!(
            "quantize lowering: node `{}` consumed before being lowered",
            g.node(id).name
        )));
    }
    Ok(map[id])
}

/// Runs the full pipeline on a float graph and builds the executable
/// model: [`lower`] → [`CompiledModel::from_graph`].
///
/// # Errors
///
/// Propagates pass, lowering, and validation failures.
pub fn compile(g: &Graph, cfg: &PassConfig) -> Result<(CompiledModel, PassReport)> {
    let (q, report) = lower(g, cfg)?;
    Ok((CompiledModel::from_graph(q)?, report))
}

/// Like [`compile`] but stops at the quantized graph — what `edd compile`
/// serializes into an artifact. BN folding runs first, then ReLU6 fusion
/// when `cfg` asks for it, then the quantize lowering.
///
/// # Errors
///
/// Propagates pass and lowering failures, among them a batch norm the
/// fold could not absorb ("standalone batchnorm").
pub fn lower(g: &Graph, cfg: &PassConfig) -> Result<(Graph, PassReport)> {
    let mut f = g.clone();
    let bn_folded = bn_fold_pass(&mut f)?;
    let relu6_fused = if cfg.relu6_fuse {
        relu6_fuse_pass(&mut f)?
    } else {
        0
    };
    let report = PassReport {
        bn_folded,
        relu6_fused,
    };
    Ok((lower_quantized(&f)?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BatchNormOp, ConvOp, GraphMeta, LinearOp};

    fn node(name: &str, op: Op, inputs: Vec<usize>, scale: f32) -> Node {
        Node {
            name: name.into(),
            op,
            inputs,
            scale: Some(scale),
            bits: None,
        }
    }

    /// input → conv → bn(+stats) → relu6 → gap → linear, deterministic
    /// pseudo-random weights.
    fn float_graph() -> Graph {
        let mut g = Graph::new(GraphMeta {
            name: "pass-test".into(),
            input_shape: [2, 6, 6],
            num_classes: 3,
        });
        let mut state = 0x2545_F491u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / f64::from(1u32 << 21) - 16.0) as f32 * 0.05
        };
        let i = g.add(node("in", Op::Input, vec![], 0.04)).unwrap();
        let c = g
            .add(node(
                "conv",
                Op::Conv2d(Box::new(ConvOp {
                    w: (0..4 * 2 * 9).map(|_| next()).collect(),
                    out_channels: 4,
                    in_channels: 2,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    bias: None,
                    relu6: false,
                })),
                vec![i],
                0.03,
            ))
            .unwrap();
        let b = g
            .add(node(
                "bn",
                Op::BatchNorm(Box::new(BatchNormOp {
                    mul: (0..4).map(|_| 1.0 + next().abs()).collect(),
                    add: (0..4).map(|_| next()).collect(),
                })),
                vec![c],
                0.03,
            ))
            .unwrap();
        let r = g.add(node("act", Op::Relu6, vec![b], 0.03)).unwrap();
        let p = g
            .add(node("gap", Op::GlobalAvgPool, vec![r], 0.03))
            .unwrap();
        g.add(node(
            "fc",
            Op::Linear(Box::new(LinearOp {
                w: (0..4 * 3).map(|_| next()).collect(),
                in_features: 4,
                out_features: 3,
                bias: vec![0.01, -0.02, 0.03],
            })),
            vec![p],
            0.03,
        ))
        .unwrap();
        g
    }

    fn position(g: &Graph, name: &str) -> usize {
        g.nodes().iter().position(|n| n.name == name).unwrap()
    }

    fn unreachable_count(g: &Graph) -> usize {
        g.reachable().unwrap().iter().filter(|&&r| !r).count()
    }

    #[test]
    fn bn_fold_absorbs_bn_and_rewires() {
        let mut g = float_graph();
        assert_eq!(bn_fold_pass(&mut g).unwrap(), 1);
        // The relu now reads the conv directly; bn is an orphan.
        let conv = position(&g, "conv");
        assert_eq!(g.node(position(&g, "act")).inputs, vec![conv]);
        let Op::Conv2d(c) = &g.node(conv).op else {
            panic!("conv survived as {:?}", g.node(conv).op.mnemonic());
        };
        assert!(c.bias.is_some(), "fold materializes a bias");
        assert!(!g.reachable().unwrap()[position(&g, "bn")]);
        assert_eq!(unreachable_count(&g), 1);
        g.facts().unwrap();
    }

    #[test]
    fn relu6_fuses_into_folded_conv() {
        let mut g = float_graph();
        bn_fold_pass(&mut g).unwrap();
        assert_eq!(relu6_fuse_pass(&mut g).unwrap(), 1);
        let Op::Conv2d(c) = &g.node(position(&g, "conv")).op else {
            panic!("expected conv");
        };
        assert!(c.relu6);
        assert_eq!(unreachable_count(&g), 2);
        g.facts().unwrap();
    }

    #[test]
    fn lowering_produces_a_valid_quantized_graph() {
        for cfg in [PassConfig::none(), PassConfig::all()] {
            let (q, report) = lower(&float_graph(), &cfg).unwrap();
            assert!(q.nodes().iter().all(|n| n.op.is_quantized()), "{cfg:?}");
            q.facts().unwrap();
            // The orphaned BN and ReLU6 nodes are not emitted.
            assert_eq!(unreachable_count(&q), 0, "{cfg:?}");
            assert_eq!(report.bn_folded, 1);
            if cfg == PassConfig::all() {
                assert_eq!(report.relu6_fused, 1);
                // Node count shrinks: in+quant+conv+gap+fc vs the
                // unfused in+quant+conv+relu+gap+fc.
                assert_eq!(q.len(), 5);
            } else {
                assert_eq!(report.relu6_fused, 0);
                assert_eq!(q.len(), 6);
            }
        }
    }

    #[test]
    fn lowering_requires_scale_annotations() {
        let mut g = float_graph();
        let input = position(&g, "in");
        g.node_mut(input).scale = None;
        let err = lower(&g, &PassConfig::none()).unwrap_err().to_string();
        assert!(err.contains("no calibrated scale"), "{err}");
    }

    /// input → conv (weights 0.05, ReLU6 fused when `conv_relu6`) →
    /// [ReLU6 when `relu6_node`] → BN (`mul = -1`, `add = 0`) → gap →
    /// linear (weights 0.1, zero bias). On an input of 0.5 the float
    /// function has negative logits. Folding the BN into the conv in front
    /// of its clamp gives `relu6(-conv(x))`, whose logits are all 0.
    fn clamp_then_bn_graph(conv_relu6: bool, relu6_node: bool) -> Graph {
        let mut g = Graph::new(GraphMeta {
            name: "clamp-then-bn".into(),
            input_shape: [2, 4, 4],
            num_classes: 3,
        });
        let i = g.add(node("in", Op::Input, vec![], 0.01)).unwrap();
        let mut last = g
            .add(node(
                "conv",
                Op::Conv2d(Box::new(ConvOp {
                    w: vec![0.05; 3 * 2 * 9],
                    out_channels: 3,
                    in_channels: 2,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    bias: None,
                    relu6: conv_relu6,
                })),
                vec![i],
                0.01,
            ))
            .unwrap();
        if relu6_node {
            last = g.add(node("act", Op::Relu6, vec![last], 0.01)).unwrap();
        }
        let bn = g
            .add(node(
                "bn",
                Op::BatchNorm(Box::new(BatchNormOp {
                    mul: vec![-1.0; 3],
                    add: vec![0.0; 3],
                })),
                vec![last],
                0.01,
            ))
            .unwrap();
        let p = g
            .add(node("gap", Op::GlobalAvgPool, vec![bn], 0.01))
            .unwrap();
        g.add(node(
            "fc",
            Op::Linear(Box::new(LinearOp {
                w: vec![0.1; 3 * 3],
                in_features: 3,
                out_features: 3,
                bias: vec![0.0; 3],
            })),
            vec![p],
            0.01,
        ))
        .unwrap();
        g
    }

    /// Both settings must refuse `g` rather than compile a wrong function.
    fn assert_standalone_bn(g: &Graph) {
        for cfg in [PassConfig::none(), PassConfig::all()] {
            let err = lower(g, &cfg).unwrap_err().to_string();
            assert!(err.contains("standalone batchnorm `bn`"), "{cfg:?}: {err}");
        }
    }

    #[test]
    fn bn_after_a_relu6_node_is_not_folded_across_it() {
        // With ReLU6 fusion on, the clamp lands on the conv and the BN
        // then reads the conv directly: still not a fold across it.
        assert_standalone_bn(&clamp_then_bn_graph(false, true));
    }

    #[test]
    fn bn_after_a_conv_with_fused_relu6_is_not_folded() {
        assert_standalone_bn(&clamp_then_bn_graph(true, false));
    }
}
