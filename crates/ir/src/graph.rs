//! The typed model graph: single-output op nodes over implicit tensor
//! edges, with shape/dtype *facts* inferred per node for validation.
//!
//! # Invariants
//!
//! * **Forward edges only.** [`Graph::add`] rejects inputs that do not
//!   already exist, and every patch operation rewires consumers to an
//!   *earlier* node, so edges always point from lower to higher ids. The
//!   graph is a DAG by construction and ascending id order is a valid
//!   (and deterministic) execution order — no topological sort ever runs
//!   on the hot path.
//! * **One input node.** Exactly one [`Op::Input`] per graph, recorded at
//!   add time.
//! * **Single output per node.** Every op produces one tensor; fan-out is
//!   expressed by several consumers listing the same producer id.
//!
//! Nodes carry two annotations from the lowering frontend (`edd-core`):
//! the calibrated activation `scale` of the value they produce and the
//! Φ-searched weight `bits` for parameterized ops. The quantize-lowering
//! pass consumes both.

use edd_nn::{QConvSpec, QDwConvSpec, QLinearSpec};
use edd_tensor::qkernel::Requant;
use edd_tensor::{Conv2dGeometry, Result, TensorError};

/// Element type of a tensor edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DType {
    /// 32-bit float (the training/calibration domain, and final logits).
    F32,
    /// Quantized int8 activations.
    I8,
}

/// Inferred type information for the value one node produces: dtype plus
/// the per-image shape (batch dimension implicit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fact {
    /// Element type.
    pub dtype: DType,
    /// Per-image shape, e.g. `[c, h, w]` for feature maps, `[c]` after
    /// global pooling.
    pub shape: Vec<usize>,
}

/// A float 2-D convolution awaiting quantize lowering.
#[derive(Clone, Debug)]
pub struct ConvOp {
    /// Row-major OIHW weights.
    pub w: Vec<f32>,
    /// Output channels.
    pub out_channels: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Optional per-output-channel bias (BN folding materializes one).
    pub bias: Option<Vec<f32>>,
    /// ReLU6 fused into this op (set by the fusion pass).
    pub relu6: bool,
}

/// A float depthwise convolution awaiting quantize lowering.
#[derive(Clone, Debug)]
pub struct DwConvOp {
    /// Row-major `[channels, kernel, kernel]` weights.
    pub w: Vec<f32>,
    /// Channel count.
    pub channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Optional per-channel bias.
    pub bias: Option<Vec<f32>>,
    /// ReLU6 fused into this op.
    pub relu6: bool,
}

/// Eval-mode batch norm reduced to its per-channel affine factors
/// (`y = x·mul + add`, see [`edd_nn::bn_fold_factors`]).
#[derive(Clone, Debug)]
pub struct BatchNormOp {
    /// Per-channel multiplier `γ/√(σ²+ε)`.
    pub mul: Vec<f32>,
    /// Per-channel offset `β − μ·mul`.
    pub add: Vec<f32>,
    /// ReLU6 fused into this op.
    pub relu6: bool,
}

/// An integer residual add in a fixed output grid.
///
/// Each operand is brought onto the output grid by an optional q31
/// [`Requant`]; `None` means the operand already lives on that grid and
/// its raw int8 value is used directly. In an MBConv residual the
/// projection output (same grid) passes through raw and the block input
/// is requantized by `in_scale/out_scale`.
#[derive(Clone, Copy, Debug)]
pub struct QAddOp {
    /// Requant for the first operand (`None` = same grid, raw value).
    pub rq_a: Option<Requant>,
    /// Requant for the second operand.
    pub rq_b: Option<Requant>,
    /// Activation scale of the output grid.
    pub out_scale: f32,
}

/// A float linear classifier head awaiting quantize lowering.
#[derive(Clone, Debug)]
pub struct LinearOp {
    /// Row-major `[in, out]` weights.
    pub w: Vec<f32>,
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Per-output bias.
    pub bias: Vec<f32>,
}

/// One graph operation. Float ops come out of the `DerivedArch` lowering;
/// the `Q*` ops are what the quantize-lowering pass rewrites them into and
/// are the only ops an artifact may contain.
#[derive(Clone, Debug)]
pub enum Op {
    /// The graph input (float NCHW batch).
    Input,
    /// Float convolution.
    Conv2d(Box<ConvOp>),
    /// Float depthwise convolution.
    DwConv2d(Box<DwConvOp>),
    /// Eval-mode batch norm (per-channel affine).
    BatchNorm(Box<BatchNormOp>),
    /// Float ReLU6 activation.
    Relu6,
    /// Float elementwise add (residual connections).
    Add,
    /// Float global average pooling `[c,h,w] → [c]`.
    GlobalAvgPool,
    /// Float linear classifier.
    Linear(Box<LinearOp>),
    /// Float → int8 quantization boundary at a fixed scale.
    Quantize {
        /// Activation scale of the int8 grid.
        scale: f32,
    },
    /// Compiled quantized convolution.
    QConv(Box<QConvSpec>),
    /// Compiled quantized depthwise convolution.
    QDwConv(Box<QDwConvSpec>),
    /// Standalone integer ReLU6: clamp to `[0, hi]` on the producer's grid.
    QRelu6 {
        /// Upper clamp bound `min(127, round(6/scale))`.
        hi: i8,
    },
    /// Integer residual add in a fixed output grid.
    QAdd(Box<QAddOp>),
    /// Integer global average pooling (scale passthrough).
    QGlobalAvgPool,
    /// Compiled quantized linear head (int8 in, f32 logits out).
    QLinear(Box<QLinearSpec>),
}

impl Op {
    /// Short stable mnemonic for display and artifact listings.
    #[must_use]
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Input => "input",
            Op::Conv2d(_) => "conv2d",
            Op::DwConv2d(_) => "dwconv2d",
            Op::BatchNorm(_) => "batchnorm",
            Op::Relu6 => "relu6",
            Op::Add => "add",
            Op::GlobalAvgPool => "gap",
            Op::Linear(_) => "linear",
            Op::Quantize { .. } => "quantize",
            Op::QConv(_) => "qconv",
            Op::QDwConv(_) => "qdwconv",
            Op::QRelu6 { .. } => "qrelu6",
            Op::QAdd(_) => "qadd",
            Op::QGlobalAvgPool => "qgap",
            Op::QLinear(_) => "qlinear",
        }
    }

    /// True for ops the quantize lowering has already produced (the only
    /// ops an artifact may contain).
    #[must_use]
    pub fn is_quantized(&self) -> bool {
        matches!(
            self,
            Op::Input
                | Op::Quantize { .. }
                | Op::QConv(_)
                | Op::QDwConv(_)
                | Op::QRelu6 { .. }
                | Op::QAdd(_)
                | Op::QGlobalAvgPool
                | Op::QLinear(_)
        )
    }

    /// Arity check: how many inputs this op consumes.
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            Op::Input => 0,
            Op::Add | Op::QAdd(_) => 2,
            _ => 1,
        }
    }
}

/// One node: a named op applied to earlier nodes' outputs, with the
/// frontend's calibration annotations.
#[derive(Clone, Debug)]
pub struct Node {
    /// Human-readable name (`stem.conv`, `block1.dw`, …).
    pub name: String,
    /// The operation.
    pub op: Op,
    /// Producer node ids (all `< ` this node's id).
    pub inputs: Vec<usize>,
    /// Calibrated activation scale of the value this node produces
    /// (annotated by the frontend on quantization boundaries).
    pub scale: Option<f32>,
    /// Φ-searched weight precision for parameterized ops.
    pub bits: Option<u32>,
}

/// Model-level metadata carried alongside the node list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphMeta {
    /// Model name (mirrors the derived-arch name).
    pub name: String,
    /// Input per-image shape `[c, h, w]`.
    pub input_shape: [usize; 3],
    /// Classifier output width.
    pub num_classes: usize,
}

/// The typed model graph. See the module docs for invariants.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Model metadata.
    pub meta: GraphMeta,
    nodes: Vec<Node>,
    input: Option<usize>,
    output: Option<usize>,
}

fn invalid(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new(meta: GraphMeta) -> Self {
        Graph {
            meta,
            nodes: Vec::new(),
            input: None,
            output: None,
        }
    }

    /// Appends a node, returning its id. The last-added node becomes the
    /// default output.
    ///
    /// # Errors
    ///
    /// Rejects inputs referring to nodes that do not exist yet (forward
    /// edges only), arity mismatches, and a second [`Op::Input`].
    pub fn add(&mut self, node: Node) -> Result<usize> {
        let id = self.nodes.len();
        if node.inputs.len() != node.op.arity() {
            return Err(invalid(format!(
                "node `{}` ({}): expected {} inputs, got {}",
                node.name,
                node.op.mnemonic(),
                node.op.arity(),
                node.inputs.len()
            )));
        }
        for &i in &node.inputs {
            if i >= id {
                return Err(invalid(format!(
                    "node `{}`: input {i} is not an earlier node (id {id})",
                    node.name
                )));
            }
        }
        if matches!(node.op, Op::Input) {
            if self.input.is_some() {
                return Err(invalid("graph already has an input node"));
            }
            self.input = Some(id);
        }
        self.nodes.push(node);
        self.output = Some(id);
        Ok(id)
    }

    /// Marks `id` as the graph output.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range ids.
    pub fn set_output(&mut self, id: usize) -> Result<()> {
        if id >= self.nodes.len() {
            return Err(invalid(format!("output id {id} out of range")));
        }
        self.output = Some(id);
        Ok(())
    }

    /// The graph input node id.
    ///
    /// # Errors
    ///
    /// Errors when no [`Op::Input`] node was added.
    pub fn input(&self) -> Result<usize> {
        self.input.ok_or_else(|| invalid("graph has no input node"))
    }

    /// The graph output node id.
    ///
    /// # Errors
    ///
    /// Errors on an empty graph.
    pub fn output(&self) -> Result<usize> {
        self.output.ok_or_else(|| invalid("graph has no nodes"))
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids (a caller bug; every public mutation
    /// validates ids).
    #[must_use]
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// All nodes, in id (= execution) order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Bytes of quantized weight storage held by the `QConv`, `QDwConv`
    /// and `QLinear` nodes ([`edd_nn::QWeights::storage_bytes`]: int4
    /// layers count packed). Zero for a graph not yet lowered.
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.op {
                Op::QConv(s) => s.weights.storage_bytes(),
                Op::QDwConv(s) => s.weights.storage_bytes(),
                Op::QLinear(s) => s.weights.storage_bytes(),
                _ => 0,
            })
            .sum()
    }

    pub(crate) fn node_mut(&mut self, id: usize) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Consumer lists: `consumers()[p]` holds every node id reading `p`'s
    /// output, ascending.
    #[must_use]
    pub fn consumers(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            for &i in &n.inputs {
                out[i].push(id);
            }
        }
        out
    }

    /// Reachability from the output, walking producer edges backwards.
    ///
    /// # Errors
    ///
    /// Errors on an empty graph.
    pub fn reachable(&self) -> Result<Vec<bool>> {
        let out = self.output()?;
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![out];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id], true) {
                continue;
            }
            stack.extend_from_slice(&self.nodes[id].inputs);
        }
        Ok(seen)
    }

    /// Removes every node unreachable from the output, renumbering the
    /// survivors (relative order preserved, so edges stay forward).
    /// Returns the number of nodes removed.
    ///
    /// # Errors
    ///
    /// Errors when the input node would be eliminated (a graph whose
    /// output does not depend on its input is malformed).
    pub fn eliminate_dead(&mut self) -> Result<usize> {
        let keep = self.reachable()?;
        let removed = keep.iter().filter(|&&k| !k).count();
        if removed == 0 {
            return Ok(0);
        }
        if let Some(inp) = self.input {
            if !keep[inp] {
                return Err(invalid("dead-code elimination would remove the input node"));
            }
        }
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut next = 0usize;
        for (id, &k) in keep.iter().enumerate() {
            if k {
                remap[id] = next;
                next += 1;
            }
        }
        let old = std::mem::take(&mut self.nodes);
        for (id, mut n) in old.into_iter().enumerate() {
            if !keep[id] {
                continue;
            }
            for i in &mut n.inputs {
                *i = remap[*i];
            }
            self.nodes.push(n);
        }
        self.input = self.input.map(|i| remap[i]);
        self.output = self.output.map(|o| remap[o]);
        Ok(removed)
    }

    /// Infers the output [`Fact`] of every node from the input shape,
    /// validating op/shape/dtype consistency along the way. This is the
    /// graph type-checker: artifact loading and compilation both run it.
    /// Zero sizes are rejected here (class count, input dimensions, channel
    /// and feature counts), so no executor sees an empty dimension.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error for the first inconsistency found.
    pub fn facts(&self) -> Result<Vec<Fact>> {
        let meta = &self.meta;
        if meta.num_classes == 0 || meta.input_shape.contains(&0) {
            return Err(invalid(format!(
                "graph `{}`: zero size in input shape {:?} or class count {}",
                meta.name, meta.input_shape, meta.num_classes
            )));
        }
        let mut facts: Vec<Fact> = Vec::with_capacity(self.nodes.len());
        let _ = self.input()?;
        for (id, n) in self.nodes.iter().enumerate() {
            let get = |i: usize| -> &Fact { &facts[i] };
            let ctx = |msg: String| invalid(format!("node {id} `{}`: {msg}", n.name));
            let fact = match &n.op {
                Op::Input => Fact {
                    dtype: DType::F32,
                    shape: self.meta.input_shape.to_vec(),
                },
                Op::Quantize { .. } => {
                    let f = get(n.inputs[0]);
                    if f.dtype != DType::F32 {
                        return Err(ctx("quantize expects an f32 input".into()));
                    }
                    Fact {
                        dtype: DType::I8,
                        shape: f.shape.clone(),
                    }
                }
                Op::Conv2d(c) => conv_fact(
                    get(n.inputs[0]),
                    DType::F32,
                    c.in_channels,
                    c.out_channels,
                    c.kernel,
                    c.stride,
                    c.padding,
                )
                .map_err(&ctx)?,
                Op::QConv(c) => conv_fact(
                    get(n.inputs[0]),
                    DType::I8,
                    c.in_channels,
                    c.out_channels,
                    c.kernel,
                    c.stride,
                    c.padding,
                )
                .map_err(&ctx)?,
                Op::DwConv2d(c) => conv_fact(
                    get(n.inputs[0]),
                    DType::F32,
                    c.channels,
                    c.channels,
                    c.kernel,
                    c.stride,
                    c.padding,
                )
                .map_err(&ctx)?,
                Op::QDwConv(c) => conv_fact(
                    get(n.inputs[0]),
                    DType::I8,
                    c.channels,
                    c.channels,
                    c.kernel,
                    c.stride,
                    c.padding,
                )
                .map_err(&ctx)?,
                Op::BatchNorm(b) => {
                    let f = get(n.inputs[0]);
                    if f.dtype != DType::F32 {
                        return Err(ctx("batchnorm expects an f32 input".into()));
                    }
                    if f.shape.len() != 3 || f.shape[0] != b.mul.len() {
                        return Err(ctx(format!(
                            "batchnorm over {} channels applied to shape {:?}",
                            b.mul.len(),
                            f.shape
                        )));
                    }
                    f.clone()
                }
                Op::Relu6 => {
                    let f = get(n.inputs[0]);
                    if f.dtype != DType::F32 {
                        return Err(ctx("relu6 expects an f32 input".into()));
                    }
                    f.clone()
                }
                Op::QRelu6 { .. } => {
                    let f = get(n.inputs[0]);
                    if f.dtype != DType::I8 {
                        return Err(ctx("qrelu6 expects an i8 input".into()));
                    }
                    f.clone()
                }
                Op::Add | Op::QAdd(_) => {
                    let (a, b) = (get(n.inputs[0]), get(n.inputs[1]));
                    let want = if matches!(n.op, Op::Add) {
                        DType::F32
                    } else {
                        DType::I8
                    };
                    if a.dtype != want || b.dtype != want {
                        return Err(ctx("add operands have the wrong dtype".into()));
                    }
                    if a.shape != b.shape {
                        return Err(ctx(format!(
                            "add operand shapes differ: {:?} vs {:?}",
                            a.shape, b.shape
                        )));
                    }
                    a.clone()
                }
                Op::GlobalAvgPool | Op::QGlobalAvgPool => {
                    let f = get(n.inputs[0]);
                    let want = if matches!(n.op, Op::GlobalAvgPool) {
                        DType::F32
                    } else {
                        DType::I8
                    };
                    if f.dtype != want || f.shape.len() != 3 {
                        return Err(ctx(format!(
                            "global pool expects a 3-d {want:?} input, got {:?}",
                            f.shape
                        )));
                    }
                    Fact {
                        dtype: want,
                        shape: vec![f.shape[0]],
                    }
                }
                Op::Linear(l) => {
                    let f = get(n.inputs[0]);
                    linear_sizes(l.in_features, l.out_features).map_err(&ctx)?;
                    if f.dtype != DType::F32 || f.shape != vec![l.in_features] {
                        return Err(ctx(format!(
                            "linear over {} features applied to {:?}",
                            l.in_features, f.shape
                        )));
                    }
                    Fact {
                        dtype: DType::F32,
                        shape: vec![l.out_features],
                    }
                }
                Op::QLinear(l) => {
                    let f = get(n.inputs[0]);
                    linear_sizes(l.in_features, l.out_features).map_err(&ctx)?;
                    if f.dtype != DType::I8 || f.shape != vec![l.in_features] {
                        return Err(ctx(format!(
                            "qlinear over {} features applied to {:?}",
                            l.in_features, f.shape
                        )));
                    }
                    Fact {
                        dtype: DType::F32,
                        shape: vec![l.out_features],
                    }
                }
            };
            // Executors multiply a value's shape out into buffer lengths.
            if fact
                .shape
                .iter()
                .try_fold(1usize, |v, &d| v.checked_mul(d))
                .is_none()
            {
                return Err(ctx(format!(
                    "shape {:?} has more elements than the address space",
                    fact.shape
                )));
            }
            facts.push(fact);
        }
        Ok(facts)
    }
}

/// Rejects a linear layer with no input or no output features.
fn linear_sizes(in_features: usize, out_features: usize) -> std::result::Result<(), String> {
    if in_features == 0 || out_features == 0 {
        return Err(format!(
            "linear feature counts must be positive, got {in_features} in and {out_features} out"
        ));
    }
    Ok(())
}

/// Shape/dtype inference shared by the four convolution ops.
fn conv_fact(
    f: &Fact,
    want: DType,
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> std::result::Result<Fact, String> {
    if f.dtype != want {
        return Err(format!("conv expects a {want:?} input, got {:?}", f.dtype));
    }
    if in_c == 0 || out_c == 0 {
        return Err(format!(
            "conv channel counts must be positive, got {in_c} in and {out_c} out"
        ));
    }
    if f.shape.len() != 3 || f.shape[0] != in_c {
        return Err(format!(
            "conv over {in_c} input channels applied to shape {:?}",
            f.shape
        ));
    }
    if kernel == 0 || stride == 0 {
        return Err("conv kernel and stride must be positive".into());
    }
    let padded = |d: usize| padding.checked_mul(2).and_then(|p| d.checked_add(p));
    let (Some(ph), Some(pw)) = (padded(f.shape[1]), padded(f.shape[2])) else {
        return Err(format!(
            "padding {padding} overflows the {}x{} input",
            f.shape[1], f.shape[2]
        ));
    };
    if ph < kernel || pw < kernel {
        return Err(format!(
            "kernel {kernel} does not fit the padded {}x{} input",
            f.shape[1], f.shape[2]
        ));
    }
    let geom = Conv2dGeometry {
        in_channels: in_c,
        in_h: f.shape[1],
        in_w: f.shape[2],
        kernel,
        stride,
        padding,
    };
    Ok(Fact {
        dtype: want,
        shape: vec![out_c, geom.out_h(), geom.out_w()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> GraphMeta {
        GraphMeta {
            name: "t".into(),
            input_shape: [3, 8, 8],
            num_classes: 4,
        }
    }

    fn conv(out_c: usize, in_c: usize, k: usize, stride: usize, padding: usize) -> Op {
        Op::Conv2d(Box::new(ConvOp {
            w: vec![0.1; out_c * in_c * k * k],
            out_channels: out_c,
            in_channels: in_c,
            kernel: k,
            stride,
            padding,
            bias: None,
            relu6: false,
        }))
    }

    fn node(name: &str, op: Op, inputs: Vec<usize>) -> Node {
        Node {
            name: name.into(),
            op,
            inputs,
            scale: None,
            bits: None,
        }
    }

    #[test]
    fn forward_edges_and_single_input_enforced() {
        let mut g = Graph::new(meta());
        let i = g.add(node("in", Op::Input, vec![])).unwrap();
        assert_eq!(i, 0);
        // Input referencing a future node is rejected.
        assert!(g.add(node("c", conv(4, 3, 3, 1, 1), vec![5])).is_err());
        // Wrong arity is rejected.
        assert!(g.add(node("c", conv(4, 3, 3, 1, 1), vec![])).is_err());
        // Second input node is rejected.
        assert!(g.add(node("in2", Op::Input, vec![])).is_err());
        let c = g.add(node("c", conv(4, 3, 3, 1, 1), vec![i])).unwrap();
        assert_eq!(g.output().unwrap(), c);
    }

    #[test]
    fn facts_infer_conv_shapes_and_catch_mismatches() {
        let mut g = Graph::new(meta());
        let i = g.add(node("in", Op::Input, vec![])).unwrap();
        let c = g.add(node("c", conv(8, 3, 3, 2, 1), vec![i])).unwrap();
        let facts = g.facts().unwrap();
        assert_eq!(facts[i].shape, vec![3, 8, 8]);
        assert_eq!(facts[c].shape, vec![8, 4, 4]);
        assert_eq!(facts[c].dtype, DType::F32);
        // Channel mismatch is caught.
        let bad = g.add(node("bad", conv(8, 5, 3, 1, 1), vec![c])).unwrap();
        let err = g.facts().unwrap_err().to_string();
        assert!(err.contains("5 input channels"), "{err}");
        let _ = bad;
    }

    #[test]
    fn facts_reject_overflowing_padding() {
        let mut g = Graph::new(meta());
        let i = g.add(node("in", Op::Input, vec![])).unwrap();
        g.add(node("c", conv(4, 3, 3, 1, usize::MAX / 2), vec![i]))
            .unwrap();
        let err = g.facts().unwrap_err().to_string();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn dce_drops_orphans_and_renumbers() {
        let mut g = Graph::new(meta());
        let i = g.add(node("in", Op::Input, vec![])).unwrap();
        let keep = g.add(node("keep", conv(4, 3, 3, 1, 1), vec![i])).unwrap();
        let dead = g
            .add(node("dead", conv(2, 4, 1, 1, 0), vec![keep]))
            .unwrap();
        let tail = g
            .add(node("tail", conv(5, 4, 1, 1, 0), vec![keep]))
            .unwrap();
        g.set_output(tail).unwrap();
        let _ = dead;
        assert_eq!(g.eliminate_dead().unwrap(), 1);
        assert_eq!(g.len(), 3);
        assert_eq!(g.output().unwrap(), 2);
        assert_eq!(g.node(2).name, "tail");
        assert_eq!(g.node(2).inputs, vec![1]);
        g.facts().unwrap();
        // Second run is a no-op.
        assert_eq!(g.eliminate_dead().unwrap(), 0);
    }
}
