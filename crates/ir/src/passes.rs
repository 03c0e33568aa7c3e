//! The optimization/lowering pass pipeline.
//!
//! Float-graph rewrites run first (BN folding, BN/conv + ReLU6 fusion,
//! dead-code elimination), then the mandatory quantize lowering converts
//! the graph to integer ops at the frontend's annotated scales and bits,
//! and finally quantized-graph rewrites run (1×1 direct-conv bypass, a
//! second DCE sweep).
//!
//! # Bitwise equivalence
//!
//! Every optional pass preserves the quantized output bit-for-bit, by
//! construction rather than by tolerance:
//!
//! * **bn-fold** performs the *same float fold* ([`edd_nn::fold_bn`]) the
//!   quantize lowering would perform when it pairs a conv with its BN, so
//!   the weights reaching `QConvSpec::quantize` are identical floats
//!   either way.
//! * **relu6-fuse** replaces `clamp(v, -127, 127)` followed by
//!   `clamp(·, 0, q6)` with the fused `clamp(v, 0, min(q6, 127))`; the
//!   two compositions are pointwise identical for every i32 `v` because
//!   `0 ≤ min(q6, 127) ≤ 127`.
//! * **bypass-1x1** only flips `QConvSpec::direct`, selecting the im2col
//!   bypass path that is already bitwise-verified against the GEMM path
//!   by the engine's determinism suite.
//! * **dce** removes nodes that cannot influence the output.

use crate::exec::CompiledModel;
use crate::graph::{Graph, Node, Op, QAddOp};
use crate::patch::Patch;
use edd_nn::{
    clamp_bounds, fold_bn, QConvSource, QConvSpec, QDwConvSource, QDwConvSpec, QLinearSpec,
};
use edd_tensor::qkernel::Requant;
use edd_tensor::{Result, TensorError};

/// Names of the optional passes, in pipeline order. `--passes` on the CLI
/// accepts exactly these.
pub const PASS_NAMES: [&str; 4] = ["bn-fold", "relu6-fuse", "bypass-1x1", "dce"];

/// Which optional passes to run. Quantize lowering itself is not optional
/// — it is the compilation step — so it has no flag here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassConfig {
    /// Fold eval-mode batch norms into their producer convolutions.
    pub bn_fold: bool,
    /// Fuse ReLU6 activations into their producer conv/BN clamp bounds.
    pub relu6_fuse: bool,
    /// Flip eligible 1×1/s1/p0 quantized convolutions to the direct
    /// (im2col-bypass) path.
    pub bypass_1x1: bool,
    /// Sweep nodes unreachable from the output.
    pub dce: bool,
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
        PassConfig {
            bn_fold: true,
            relu6_fuse: true,
            bypass_1x1: true,
            dce: true,
        }
    }

    /// Every optional pass disabled: the pipeline reduces to the bare
    /// quantize lowering. Reference configuration for equivalence tests.
    #[must_use]
    pub fn none() -> Self {
        PassConfig {
            bn_fold: false,
            relu6_fuse: false,
            bypass_1x1: false,
            dce: false,
        }
    }

    /// Enables or disables one pass by its [`PASS_NAMES`] name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name (callers render the valid list).
    pub fn set(&mut self, name: &str, on: bool) -> std::result::Result<(), String> {
        match name {
            "bn-fold" => self.bn_fold = on,
            "relu6-fuse" => self.relu6_fuse = on,
            "bypass-1x1" => self.bypass_1x1 = on,
            "dce" => self.dce = on,
            other => return Err(other.to_string()),
        }
        Ok(())
    }
}

/// True when node `id` is the only *reachable* consumer of `p`. Bypassed
/// orphans keep their input edges until a DCE sweep, so raw consumer
/// counts would spuriously block fusions; dead readers cannot observe a
/// value and are ignored.
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
    /// Quantized 1×1 convolutions flipped to the direct path.
    pub bypassed_1x1: usize,
    /// Nodes removed by the two dead-code sweeps.
    pub dce_removed: usize,
}

/// Folds every eval-mode [`Op::BatchNorm`] whose producer is a conv or
/// depthwise conv consumed by nothing else. The producer's weights and
/// bias absorb the affine factors via the same [`fold_bn`] the quantize
/// lowering uses, the producer inherits the BN's output scale and fused
/// ReLU6 flag, and the BN node is bypassed (swept by a later DCE).
/// Returns the fold count.
///
/// # Errors
///
/// Propagates patch-application failures (graph invariant violations).
pub fn bn_fold_pass(g: &mut Graph) -> Result<usize> {
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
            Op::Conv2d(c) => {
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
                c2.relu6 |= bn.relu6;
                Op::Conv2d(Box::new(c2))
            }
            Op::DwConv2d(c) => {
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
                c2.relu6 |= bn.relu6;
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

/// Fuses every [`Op::Relu6`] into its producer conv / depthwise conv /
/// batch norm when that producer has no other consumer: the producer's
/// `relu6` flag turns its requantization clamp into `[0, min(q6, 127)]`
/// and the activation node is bypassed. Returns the fusion count.
///
/// # Errors
///
/// Propagates patch-application failures.
pub fn relu6_fuse_pass(g: &mut Graph) -> Result<usize> {
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
            Op::BatchNorm(b) => {
                let mut b2 = b.as_ref().clone();
                b2.relu6 = true;
                Op::BatchNorm(Box::new(b2))
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

/// Flips eligible quantized 1×1/stride-1/pad-0 convolutions onto the
/// direct path (`QConvSpec::direct`), skipping im2col at runtime. Runs on
/// the lowered graph. Returns the flip count.
///
/// # Errors
///
/// Propagates patch-application failures.
pub fn bypass_1x1_pass(g: &mut Graph) -> Result<usize> {
    let mut patch = Patch::new();
    let mut count = 0usize;
    for id in 0..g.len() {
        let Op::QConv(spec) = &g.node(id).op else {
            continue;
        };
        if spec.direct || !spec.direct_eligible() {
            continue;
        }
        let mut s2 = spec.as_ref().clone();
        s2.direct = true;
        patch.set_op(id, Op::QConv(Box::new(s2)));
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
/// mandatory compilation step: every float op becomes its integer
/// counterpart at the scales/bits the frontend annotated:
///
/// * the input gains an explicit [`Op::Quantize`] boundary at the
///   calibrated input scale;
/// * a conv/dw-conv whose sole consumer is a batch norm is compiled
///   *together with it* through `QConvSpec::quantize`'s BN-fold path;
/// * a standalone ReLU6 becomes a [`Op::QRelu6`] clamp on its producer's
///   grid;
/// * a residual [`Op::Add`] becomes a [`Op::QAdd`] in the output grid,
///   first operand raw when already on that grid, second requantized via
///   the f64 scale ratio `s_b / s_out`;
/// * the classifier lowers through `QLinearSpec::quantize`.
///
/// All `QConv` nodes are emitted with `direct = false`; the bypass pass
/// opts eligible ones in afterwards.
///
/// # Errors
///
/// Errors on missing scale annotations, on standalone batch norms (no
/// producer conv to fold into), and on graphs that already contain
/// quantized ops.
pub fn lower_quantized(g: &Graph) -> Result<Graph> {
    let consumers = g.consumers();
    let reachable = g.reachable()?;
    let mut out = Graph::new(g.meta.clone());
    let mut map = vec![usize::MAX; g.len()];
    let mapped = |map: &[usize], id: usize| -> Result<usize> {
        if map[id] == usize::MAX {
            return Err(TensorError::InvalidArgument(format!(
                "quantize lowering: node `{}` consumed before being lowered",
                g.node(id).name
            )));
        }
        Ok(map[id])
    };

    for id in 0..g.len() {
        if !reachable[id] {
            continue;
        }
        let n = g.node(id);
        match &n.op {
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
            }
            Op::Conv2d(_) | Op::DwConv2d(_) => {
                // Deferred: a conv whose sole consumer is a BN compiles
                // together with it at the BN node (the BN-fold quantize
                // path). Handled below when the BN comes up.
                let mut live = consumers[id].iter().filter(|&&c| reachable[c]);
                let fused_bn = match (live.next(), live.next()) {
                    (Some(&c), None) => matches!(g.node(c).op, Op::BatchNorm(_)),
                    _ => false,
                };
                if fused_bn {
                    continue;
                }
                let in_scale = scale_of(g, n.inputs[0])?;
                let out_scale = scale_of(g, id)?;
                let bits = n.bits.unwrap_or(8);
                let op = match &n.op {
                    Op::Conv2d(c) => Op::QConv(Box::new(QConvSpec::quantize(
                        &QConvSource {
                            w: &c.w,
                            out_channels: c.out_channels,
                            in_channels: c.in_channels,
                            kernel: c.kernel,
                            stride: c.stride,
                            padding: c.padding,
                            bias: c.bias.as_deref(),
                            bn: None,
                        },
                        bits,
                        in_scale,
                        out_scale,
                        c.relu6,
                        false,
                    ))),
                    Op::DwConv2d(c) => Op::QDwConv(Box::new(QDwConvSpec::quantize(
                        &QDwConvSource {
                            w: &c.w,
                            channels: c.channels,
                            kernel: c.kernel,
                            stride: c.stride,
                            padding: c.padding,
                            bias: c.bias.as_deref(),
                            bn: None,
                        },
                        bits,
                        in_scale,
                        out_scale,
                        c.relu6,
                    ))),
                    _ => unreachable!(),
                };
                map[id] = out.add(Node {
                    name: n.name.clone(),
                    op,
                    inputs: vec![mapped(&map, n.inputs[0])?],
                    scale: Some(out_scale),
                    bits: Some(bits),
                })?;
            }
            Op::BatchNorm(bn) => {
                let p = n.inputs[0];
                let paired = sole_reachable_consumer(&consumers, &reachable, p, id)
                    && matches!(g.node(p).op, Op::Conv2d(_) | Op::DwConv2d(_));
                if !paired {
                    return Err(TensorError::InvalidArgument(format!(
                        "quantize lowering: standalone batchnorm `{}` (producer is not an \
                         exclusively-consumed conv); run bn-fold or restructure the graph",
                        n.name
                    )));
                }
                let conv = g.node(p);
                let in_scale = scale_of(g, conv.inputs[0])?;
                let out_scale = scale_of(g, id)?;
                let bits = conv.bits.unwrap_or(8);
                let op = match &conv.op {
                    Op::Conv2d(c) => Op::QConv(Box::new(QConvSpec::quantize(
                        &QConvSource {
                            w: &c.w,
                            out_channels: c.out_channels,
                            in_channels: c.in_channels,
                            kernel: c.kernel,
                            stride: c.stride,
                            padding: c.padding,
                            bias: c.bias.as_deref(),
                            bn: Some((&bn.mul, &bn.add)),
                        },
                        bits,
                        in_scale,
                        out_scale,
                        c.relu6 || bn.relu6,
                        false,
                    ))),
                    Op::DwConv2d(c) => Op::QDwConv(Box::new(QDwConvSpec::quantize(
                        &QDwConvSource {
                            w: &c.w,
                            channels: c.channels,
                            kernel: c.kernel,
                            stride: c.stride,
                            padding: c.padding,
                            bias: c.bias.as_deref(),
                            bn: Some((&bn.mul, &bn.add)),
                        },
                        bits,
                        in_scale,
                        out_scale,
                        c.relu6 || bn.relu6,
                    ))),
                    _ => unreachable!(),
                };
                let nid = out.add(Node {
                    name: conv.name.clone(),
                    op,
                    inputs: vec![mapped(&map, conv.inputs[0])?],
                    scale: Some(out_scale),
                    bits: Some(bits),
                })?;
                map[id] = nid;
                map[p] = nid;
            }
            Op::Relu6 => {
                let s = scale_of(g, n.inputs[0])?;
                let (_, hi) = clamp_bounds(true, s);
                map[id] = out.add(Node {
                    name: n.name.clone(),
                    op: Op::QRelu6 { hi: hi as i8 },
                    inputs: vec![mapped(&map, n.inputs[0])?],
                    scale: Some(s),
                    bits: None,
                })?;
            }
            Op::Add => {
                let out_scale = scale_of(g, id)?;
                let s_a = scale_of(g, n.inputs[0])?;
                let s_b = scale_of(g, n.inputs[1])?;
                // The second operand (the block input of an MBConv
                // residual) is always requantized; the first passes
                // through raw when it already lives on the output grid.
                // The golden hashes pin this arithmetic.
                let rq_b = Some(Requant::from_scale(f64::from(s_b) / f64::from(out_scale)));
                map[id] = out.add(Node {
                    name: n.name.clone(),
                    op: Op::QAdd(Box::new(QAddOp {
                        rq_a: operand_requant(s_a, out_scale),
                        rq_b,
                        out_scale,
                    })),
                    inputs: vec![mapped(&map, n.inputs[0])?, mapped(&map, n.inputs[1])?],
                    scale: Some(out_scale),
                    bits: None,
                })?;
            }
            Op::GlobalAvgPool => {
                let s = scale_of(g, n.inputs[0])?;
                map[id] = out.add(Node {
                    name: n.name.clone(),
                    op: Op::QGlobalAvgPool,
                    inputs: vec![mapped(&map, n.inputs[0])?],
                    scale: Some(s),
                    bits: None,
                })?;
            }
            Op::Linear(l) => {
                let in_scale = scale_of(g, n.inputs[0])?;
                let bits = n.bits.unwrap_or(8);
                map[id] = out.add(Node {
                    name: n.name.clone(),
                    op: Op::QLinear(Box::new(QLinearSpec::quantize(
                        &l.w,
                        l.in_features,
                        l.out_features,
                        &l.bias,
                        bits,
                        in_scale,
                    ))),
                    inputs: vec![mapped(&map, n.inputs[0])?],
                    scale: None,
                    bits: Some(bits),
                })?;
            }
            other => {
                return Err(TensorError::InvalidArgument(format!(
                    "quantize lowering: node `{}` is already quantized ({})",
                    n.name,
                    other.mnemonic()
                )));
            }
        }
    }
    out.set_output(mapped(&map, g.output()?)?)?;
    Ok(out)
}

/// Runs the full pipeline on a float graph and builds the executable
/// model: optional float passes → quantize lowering → optional quantized
/// passes → [`CompiledModel::from_graph`].
///
/// # Errors
///
/// Propagates pass, lowering, and validation failures.
pub fn compile(g: &Graph, cfg: &PassConfig) -> Result<(CompiledModel, PassReport)> {
    let (q, report) = lower(g, cfg)?;
    Ok((CompiledModel::from_graph(q)?, report))
}

/// Like [`compile`] but stops at the optimized quantized graph — what
/// `edd compile` serializes into an artifact.
///
/// # Errors
///
/// Propagates pass and lowering failures.
pub fn lower(g: &Graph, cfg: &PassConfig) -> Result<(Graph, PassReport)> {
    let mut f = g.clone();
    let mut report = PassReport::default();
    if cfg.bn_fold {
        report.bn_folded = bn_fold_pass(&mut f)?;
    }
    if cfg.relu6_fuse {
        report.relu6_fused = relu6_fuse_pass(&mut f)?;
    }
    if cfg.dce {
        report.dce_removed += f.eliminate_dead()?;
    }
    let mut q = lower_quantized(&f)?;
    if cfg.bypass_1x1 {
        report.bypassed_1x1 = bypass_1x1_pass(&mut q)?;
    }
    if cfg.dce {
        report.dce_removed += q.eliminate_dead()?;
    }
    Ok((q, report))
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
                    relu6: false,
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

    #[test]
    fn bn_fold_absorbs_bn_and_rewires() {
        let mut g = float_graph();
        assert_eq!(bn_fold_pass(&mut g).unwrap(), 1);
        // The relu now reads the conv directly; bn is an orphan.
        let relu = g.nodes().iter().position(|n| n.name == "act").unwrap();
        let conv = g.nodes().iter().position(|n| n.name == "conv").unwrap();
        assert_eq!(g.node(relu).inputs, vec![conv]);
        let Op::Conv2d(c) = &g.node(conv).op else {
            panic!("conv survived as {:?}", g.node(conv).op.mnemonic());
        };
        assert!(c.bias.is_some(), "fold materializes a bias");
        assert_eq!(g.eliminate_dead().unwrap(), 1);
        g.facts().unwrap();
    }

    #[test]
    fn relu6_fuses_into_folded_conv() {
        let mut g = float_graph();
        bn_fold_pass(&mut g).unwrap();
        assert_eq!(relu6_fuse_pass(&mut g).unwrap(), 1);
        let conv = g.nodes().iter().position(|n| n.name == "conv").unwrap();
        let Op::Conv2d(c) = &g.node(conv).op else {
            panic!("expected conv");
        };
        assert!(c.relu6);
        assert_eq!(g.eliminate_dead().unwrap(), 2);
        g.facts().unwrap();
    }

    #[test]
    fn relu6_fuses_into_bn_when_fold_disabled() {
        let mut g = float_graph();
        assert_eq!(relu6_fuse_pass(&mut g).unwrap(), 1);
        let bn = g.nodes().iter().position(|n| n.name == "bn").unwrap();
        let Op::BatchNorm(b) = &g.node(bn).op else {
            panic!("expected batchnorm");
        };
        assert!(b.relu6);
    }

    #[test]
    fn lowering_produces_a_valid_quantized_graph() {
        for cfg in [PassConfig::none(), PassConfig::all()] {
            let (q, report) = lower(&float_graph(), &cfg).unwrap();
            assert!(q.nodes().iter().all(|n| n.op.is_quantized()), "{cfg:?}");
            q.facts().unwrap();
            if cfg == PassConfig::all() {
                assert_eq!(report.bn_folded, 1);
                assert_eq!(report.relu6_fused, 1);
                // Node count shrinks: in+quant+conv+gap+fc vs the
                // unfused in+quant+conv+relu+gap+fc.
                assert_eq!(q.len(), 5);
            } else {
                assert_eq!(q.len(), 6);
            }
        }
    }

    #[test]
    fn lowering_requires_scale_annotations() {
        let mut g = float_graph();
        let input = g.nodes().iter().position(|n| n.name == "in").unwrap();
        g.node_mut(input).scale = None;
        let err = lower_quantized(&g).unwrap_err().to_string();
        assert!(err.contains("no calibrated scale"), "{err}");
    }

    #[test]
    fn pass_config_parses_names() {
        let mut cfg = PassConfig::none();
        for name in PASS_NAMES {
            cfg.set(name, true).unwrap();
        }
        assert_eq!(cfg, PassConfig::all());
        assert_eq!(
            cfg.set("fuse-everything", true),
            Err("fuse-everything".into())
        );
    }
}
