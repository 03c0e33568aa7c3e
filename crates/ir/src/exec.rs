//! Executable form of a lowered graph.
//!
//! `NodeTable::new` validates a quantized graph once for both executors:
//! it infers the facts, checks every producer/consumer scale pair, and
//! rebuilds each reachable spec's microkernel-native caches through the
//! `from_spec` constructors (`QConv2d`, `QDwConv2d`, `QLinear`), one
//! `Kernel` per node. [`CompiledModel::from_graph`] adds the logits check
//! and plans the int8 activations: every value gets a fixed offset in one
//! per-image buffer, reused once its last consumer has run
//! (`plan_activations`). Execution order is ascending node id — valid by
//! the graph's forward-edges invariant — so the forward pass is a plain
//! loop with no scheduling, inside one scratch-arena buffer of
//! `plan_bytes() × batch` bytes. The pulsed executor
//! ([`crate::pulse::PulsedProgram`]) runs the same table on rows and
//! strips.
//!
//! The model implements [`edd_runtime::BatchModel`], which is all the
//! serving layer needs: a model compiled in process and one hot-loaded
//! from an artifact both run synchronously through
//! [`BatchModel::infer_batch`] and drop into the sharded `serve::Server`.

use crate::graph::{DType, Fact, Graph, Op};
use edd_nn::{q_global_avg_pool_into, QAddTables, QConv2d, QDwConv2d, QLinear, ACT_QMAX};
use edd_runtime::BatchModel;
use edd_tensor::qkernel::quantize_i8_into;
use edd_tensor::{scratch, Array, Result, TensorError};
use std::ops::Range;

/// Largest int8 activation plan one image may need: 256 MiB. A graph
/// whose plan is larger (or overflows) is rejected when it is compiled or
/// loaded, so a hostile artifact cannot make a forward pass over-allocate
/// (DESIGN §11).
pub const MAX_PLAN_BYTES_PER_IMAGE: usize = 1 << 28;

/// Alignment of every planned region, in bytes per image: 32, the AVX2
/// vector width (a region then starts 32-byte aligned at every batch
/// size, as the arena's buffers do).
const PLAN_ALIGN: usize = 32;

/// The executable kernel of one node.
pub(crate) enum Kernel {
    /// Unreachable node: nothing to run.
    Skip,
    /// The graph input: the caller's f32 values, which only a quantize
    /// reads.
    Input,
    /// Float → int8 boundary.
    Quantize { scale: f32 },
    /// Quantized convolution with rebuilt weight panels.
    Conv(QConv2d),
    /// Quantized depthwise convolution with rebuilt taps.
    Dw(QDwConv2d),
    /// Standalone integer ReLU6 clamp.
    Relu6 { hi: i8 },
    /// Integer residual add with its operand tables.
    Add(QAddTables),
    /// Integer global average pool.
    Gap,
    /// Quantized classifier head with rebuilt panels: the one f32 output.
    Linear(QLinear),
}

/// A validated lowered graph as one kernel per node: the node table both
/// executors run.
pub(crate) struct NodeTable {
    /// Kernel of every node, by id.
    pub(crate) kernels: Vec<Kernel>,
    /// Input ids of every node, by id.
    pub(crate) inputs: Vec<Vec<usize>>,
    /// Per-image fact of every node's value.
    pub(crate) facts: Vec<Fact>,
    /// Id of the graph output.
    pub(crate) output: usize,
}

impl NodeTable {
    /// Validates `graph` and builds a kernel for each node the output
    /// reaches. This is the one place a lowered op becomes an executable
    /// layer.
    ///
    /// # Errors
    ///
    /// Errors when fact inference fails, when producer/consumer activation
    /// scales disagree, when a reachable op is still a float op, and when
    /// a quantize reads anything but the graph input (the only f32 values
    /// in an engine are the caller's input and the logits).
    pub(crate) fn new(graph: &Graph) -> Result<Self> {
        let facts = graph.facts()?;
        let input = graph.input()?;
        let output = graph.output()?;
        let reachable = graph.reachable()?;
        graph.check_scales(&reachable)?;
        let mut kernels = Vec::with_capacity(graph.len());
        for (id, n) in graph.nodes().iter().enumerate() {
            let kernel = match &n.op {
                _ if !reachable[id] => Kernel::Skip,
                Op::Input => Kernel::Input,
                Op::Quantize { .. } if n.inputs[0] != input => {
                    return Err(TensorError::InvalidArgument(format!(
                        "quantize node `{}` reads node {}, not the graph input",
                        n.name, n.inputs[0]
                    )));
                }
                Op::Quantize { scale } => Kernel::Quantize { scale: *scale },
                Op::QConv(s) => Kernel::Conv(QConv2d::from_spec(s.as_ref().clone())),
                Op::QDwConv(s) => Kernel::Dw(QDwConv2d::from_spec(s.as_ref().clone())),
                Op::QRelu6 { hi } => Kernel::Relu6 { hi: *hi },
                Op::QAdd(a) => Kernel::Add(QAddTables::new(a.rq_a, a.rq_b)),
                Op::QGlobalAvgPool => Kernel::Gap,
                Op::QLinear(s) => Kernel::Linear(QLinear::from_spec(s.as_ref().clone())),
                float => {
                    return Err(TensorError::InvalidArgument(format!(
                        "cannot execute unlowered op `{}` at node `{}`; run the quantize \
                         lowering first",
                        float.mnemonic(),
                        n.name
                    )));
                }
            };
            kernels.push(kernel);
        }
        Ok(NodeTable {
            kernels,
            inputs: graph.nodes().iter().map(|n| n.inputs.clone()).collect(),
            facts,
            output,
        })
    }
}

/// Where one int8 value lives in a forward pass's buffer, per image: its
/// batch-major `[b, …]` region is `off · b .. (off + len) · b`.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    off: usize,
    len: usize,
}

impl Slot {
    fn at(self, batch: usize) -> Range<usize> {
        self.off * batch..(self.off + self.len) * batch
    }
}

/// A lowered graph compiled into runnable layers and an activation plan.
pub struct CompiledModel {
    graph: Graph,
    table: NodeTable,
    /// Planned region of every int8 value (unused for the others).
    slots: Vec<Slot>,
    /// Bytes of the activation buffer per image.
    plan_bytes: usize,
    input_shape: [usize; 3],
    num_classes: usize,
}

impl std::fmt::Debug for CompiledModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledModel")
            .field("name", &self.graph.meta.name)
            .field("nodes", &self.graph.len())
            .field("input_shape", &self.input_shape)
            .field("num_classes", &self.num_classes)
            .field("plan_bytes", &self.plan_bytes)
            .finish_non_exhaustive()
    }
}

impl CompiledModel {
    /// Builds the executable model from a lowered graph: the node table
    /// (`NodeTable::new`), a check that the output is the logits, and
    /// the int8 activation plan.
    ///
    /// # Errors
    ///
    /// Errors as `NodeTable::new` does (fact inference, disagreeing
    /// activation scales, float ops, a quantize that reads anything but
    /// the graph input), when the output is not
    /// `[num_classes]` f32 logits, and when the activation plan overflows
    /// or exceeds [`MAX_PLAN_BYTES_PER_IMAGE`] (a
    /// [`TensorError::InvalidShape`]).
    pub fn from_graph(graph: Graph) -> Result<Self> {
        let table = NodeTable::new(&graph)?;
        let out = &table.facts[table.output];
        if out.dtype != DType::F32 || out.shape != vec![graph.meta.num_classes] {
            return Err(TensorError::InvalidArgument(format!(
                "compiled graph output is {:?} {:?}, expected [{}] f32 logits",
                out.dtype, out.shape, graph.meta.num_classes
            )));
        }
        let (slots, plan_bytes) = plan_activations(&graph, &table)?;
        let input_shape = graph.meta.input_shape;
        let num_classes = graph.meta.num_classes;
        Ok(CompiledModel {
            graph,
            table,
            slots,
            plan_bytes,
            input_shape,
            num_classes,
        })
    }

    /// The lowered graph this model executes (what artifacts serialize).
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Model name from the graph metadata.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.graph.meta.name
    }

    /// Bytes of int8 activations one image needs: a forward pass over `b`
    /// images takes one buffer of `b` times this from the scratch arena.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        self.plan_bytes
    }

    /// Runs the model on an NCHW float batch, returning
    /// `[batch, num_classes]` logits: every int8 value is computed into
    /// its planned region of one arena buffer, and the logits `Array` is
    /// the only allocation. It comes from the thread's buffer pool like any
    /// `Array`, so repeated calls reuse one buffer once the logits reach the
    /// pool's smallest length.
    ///
    /// # Errors
    ///
    /// Rejects inputs whose shape does not match the compiled
    /// `[b, c, h, w]` or whose activation buffer would overflow, and
    /// propagates layer errors.
    pub fn forward(&self, x: &Array) -> Result<Array> {
        let [c, h, w] = self.input_shape;
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != c || shape[2] != h || shape[3] != w {
            return Err(TensorError::InvalidArgument(format!(
                "compiled model expects [b, {c}, {h}, {w}] input, got {shape:?}"
            )));
        }
        let batch = shape[0];
        let mut logits = Array::zeros(&[batch, self.num_classes]);
        self.run(x.data(), batch, logits.data_mut())?;
        Ok(logits)
    }

    /// The forward pass over `batch` images of `images` (checked by the
    /// callers), writing the row-major `batch × num_classes` logits into
    /// `logits`.
    fn run(&self, images: &[f32], batch: usize, logits: &mut [f32]) -> Result<()> {
        let Some(len) = self.plan_bytes.checked_mul(batch) else {
            let [c, h, w] = self.input_shape;
            return Err(TensorError::InvalidShape {
                shape: vec![batch, c, h, w],
                reason: format!("{} activation bytes per image overflow", self.plan_bytes),
            });
        };
        let mut buf = scratch::alloc_i8(len);
        let mut wrote_logits = false;
        for (id, kernel) in self.table.kernels.iter().enumerate() {
            let inputs = &self.table.inputs[id];
            let out = self.slots[id].at(batch);
            let src = |port: usize| self.slots[inputs[port]].at(batch);
            let nchw = |port: usize| {
                let f = &self.table.facts[inputs[port]].shape;
                [batch, f[0], f[1], f[2]]
            };
            match kernel {
                Kernel::Skip | Kernel::Input => {}
                Kernel::Quantize { scale } => {
                    quantize_i8_into(&mut buf[out], images, *scale, ACT_QMAX);
                }
                Kernel::Conv(l) => {
                    let (x, y) = split(&mut buf, src(0), out)?;
                    l.forward_into(x, nchw(0), y)?;
                }
                Kernel::Dw(l) => {
                    let (x, y) = split(&mut buf, src(0), out)?;
                    l.forward_into(x, nchw(0), y)?;
                }
                Kernel::Relu6 { hi } => {
                    copy_unless_in_place(&mut buf, src(0), out.clone())?;
                    for v in &mut buf[out] {
                        *v = (*v).clamp(0, *hi);
                    }
                }
                Kernel::Add(add) => {
                    copy_unless_in_place(&mut buf, src(0), out.clone())?;
                    let (b, a) = split(&mut buf, src(1), out)?;
                    add.add_assign(a, b);
                }
                Kernel::Gap => {
                    let [_, _, h, w] = nchw(0);
                    let (x, y) = split(&mut buf, src(0), out)?;
                    q_global_avg_pool_into(x, h * w, y)?;
                }
                Kernel::Linear(l) => {
                    l.logits(&buf[src(0)], batch, logits)?;
                    wrote_logits = true;
                }
            }
        }
        if !wrote_logits {
            return Err(TensorError::InvalidArgument(
                "the logits were never computed".into(),
            ));
        }
        Ok(())
    }
}

/// Borrows `src` shared and `dst` mutably from one buffer.
///
/// # Errors
///
/// Errors when the two regions overlap, which the plan rules out for every
/// operand that is not run in place.
fn split(buf: &mut [i8], src: Range<usize>, dst: Range<usize>) -> Result<(&[i8], &mut [i8])> {
    if src.end <= dst.start {
        let (head, tail) = buf.split_at_mut(dst.start);
        Ok((&head[src], &mut tail[..dst.len()]))
    } else if dst.end <= src.start {
        let (head, tail) = buf.split_at_mut(src.start);
        Ok((&tail[..src.len()], &mut head[dst]))
    } else {
        Err(TensorError::InvalidArgument(format!(
            "activation plan overlaps operand {src:?} with output {dst:?}"
        )))
    }
}

/// Copies an operand into its consumer's output region, unless the plan
/// runs the consumer in place on it (same region).
fn copy_unless_in_place(buf: &mut [i8], src: Range<usize>, dst: Range<usize>) -> Result<()> {
    if src != dst {
        let (x, y) = split(buf, src, dst)?;
        y.copy_from_slice(x);
    }
    Ok(())
}

/// Plans every reachable int8 value's region in one per-image buffer,
/// returning the slots (indexed by node id) and the buffer's bytes per
/// image.
///
/// Each value needs its shape's product of bytes, rounded up to
/// [`PLAN_ALIGN`]; the arithmetic is checked. In ascending id order (the
/// execution order), a value is live from its producer to its last
/// consumer. A ReLU6, and a residual add on its first operand, run in
/// place when this node is the operand's last consumer (and the add's two
/// operands differ); every other value takes the lowest offset that fits
/// between the regions still live (first fit).
///
/// # Errors
///
/// A [`TensorError::InvalidShape`] when the plan's bytes per image
/// overflow or exceed [`MAX_PLAN_BYTES_PER_IMAGE`].
fn plan_activations(graph: &Graph, table: &NodeTable) -> Result<(Vec<Slot>, usize)> {
    let facts = &table.facts;
    let too_big = |shape: &[usize], what: &str| TensorError::InvalidShape {
        shape: shape.to_vec(),
        reason: format!(
            "{what}: the int8 activation plan exceeds {MAX_PLAN_BYTES_PER_IMAGE} bytes per image"
        ),
    };
    let mut last_use: Vec<usize> = (0..graph.len()).collect();
    for (id, kernel) in table.kernels.iter().enumerate() {
        if !matches!(kernel, Kernel::Skip) {
            for &i in &table.inputs[id] {
                last_use[i] = last_use[i].max(id);
            }
        }
    }
    let mut slots = vec![Slot::default(); graph.len()];
    // Live regions, by offset: (offset, reserved bytes, id of the last
    // node reading it).
    let mut live: Vec<(usize, usize, usize)> = Vec::new();
    let mut plan = 0usize;
    for (id, kernel) in table.kernels.iter().enumerate() {
        if matches!(kernel, Kernel::Skip) || facts[id].dtype != DType::I8 {
            continue;
        }
        live.retain(|&(_, _, dies)| dies >= id);
        let inputs = &table.inputs[id];
        let in_place = match kernel {
            Kernel::Relu6 { .. } => Some(inputs[0]),
            Kernel::Add(_) if inputs[0] != inputs[1] => Some(inputs[0]),
            _ => None,
        }
        .filter(|&i| last_use[i] == id);
        if let Some(i) = in_place {
            slots[id] = slots[i];
            for (off, _, dies) in &mut live {
                if *off == slots[i].off {
                    *dies = last_use[id];
                }
            }
            continue;
        }
        let len = facts[id]
            .shape
            .iter()
            .try_fold(1usize, |v, &d| v.checked_mul(d))
            .filter(|&v| v <= MAX_PLAN_BYTES_PER_IMAGE)
            .ok_or_else(|| too_big(&facts[id].shape, &graph.node(id).name))?;
        let reserved = len.next_multiple_of(PLAN_ALIGN);
        let mut off = 0;
        for &(o, r, _) in &live {
            if o >= off + reserved {
                break;
            }
            off = off.max(o + r);
        }
        slots[id] = Slot { off, len };
        plan = plan.max(off + reserved);
        if plan > MAX_PLAN_BYTES_PER_IMAGE {
            return Err(too_big(&facts[id].shape, &graph.node(id).name));
        }
        let at = live.partition_point(|&(o, _, _)| o < off);
        live.insert(at, (off, reserved, last_use[id]));
    }
    Ok((slots, plan))
}

impl BatchModel for CompiledModel {
    type Error = TensorError;

    fn image_len(&self) -> usize {
        let [c, h, w] = self.input_shape;
        c * h * w
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
        let mut logits = vec![0.0; batch * self.num_classes];
        self.run(images, batch, &mut logits)?;
        Ok(logits)
    }
}

// Compiled models are shared immutably across serving shards, so they
// must stay `Send + Sync` — plain owned buffers, no interior mutability;
// keep that property checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledModel>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ConvOp, GraphMeta, LinearOp, Node, QAddOp};
    use crate::passes::{compile, PassConfig};
    use crate::pulse::PulsedProgram;
    use edd_nn::{QConvSource, QConvSpec, QDwConvSource, QDwConvSpec, QLinearSpec};

    /// Small annotated float graph exercising every executable op
    /// (conv, relu6, residual add, gap, linear).
    fn float_graph() -> Graph {
        let mut g = Graph::new(GraphMeta {
            name: "exec-test".into(),
            input_shape: [2, 5, 5],
            num_classes: 3,
        });
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / f64::from(1u32 << 21) - 16.0) as f32 * 0.04
        };
        let conv =
            |out_c: usize, in_c: usize, k: usize, pad: usize, next: &mut dyn FnMut() -> f32| {
                Op::Conv2d(Box::new(ConvOp {
                    w: (0..out_c * in_c * k * k).map(|_| next()).collect(),
                    out_channels: out_c,
                    in_channels: in_c,
                    kernel: k,
                    stride: 1,
                    padding: pad,
                    bias: None,
                    relu6: false,
                }))
            };
        let add = |g: &mut Graph, name: &str, op: Op, inputs: Vec<usize>, scale: f32| {
            g.add(Node {
                name: name.into(),
                op,
                inputs,
                scale: Some(scale),
                bits: None,
            })
            .unwrap()
        };
        let i = add(&mut g, "in", Op::Input, vec![], 0.05);
        let c1 = add(&mut g, "c1", conv(4, 2, 3, 1, &mut next), vec![i], 0.04);
        let r1 = add(&mut g, "r1", Op::Relu6, vec![c1], 0.04);
        let c2 = add(&mut g, "c2", conv(4, 4, 1, 0, &mut next), vec![r1], 0.04);
        let res = add(&mut g, "res", Op::Add, vec![c2, r1], 0.05);
        let p = add(&mut g, "gap", Op::GlobalAvgPool, vec![res], 0.05);
        let fc = add(
            &mut g,
            "fc",
            Op::Linear(Box::new(LinearOp {
                w: (0..4 * 3).map(|_| next()).collect(),
                in_features: 4,
                out_features: 3,
                bias: vec![0.05, -0.1, 0.0],
            })),
            vec![p],
            0.05,
        );
        g.set_output(fc).unwrap();
        g
    }

    fn input(batch: usize) -> Array {
        let n = batch * 2 * 5 * 5;
        let data: Vec<f32> = (0..n)
            .map(|i| ((i * 37 % 113) as f32 - 56.0) * 0.01)
            .collect();
        Array::from_vec(data, &[batch, 2, 5, 5]).unwrap()
    }

    #[test]
    fn pass_configs_agree_bitwise() {
        let g = float_graph();
        let x = input(3);
        let bits = |cfg: &PassConfig| {
            let (m, _) = compile(&g, cfg).unwrap();
            let y = m.forward(&x).unwrap();
            y.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&PassConfig::none()), bits(&PassConfig::all()));
    }

    #[test]
    fn batch_model_contract() {
        let (m, _) = compile(&float_graph(), &PassConfig::all()).unwrap();
        assert_eq!(m.image_len(), 2 * 5 * 5);
        assert_eq!(m.num_classes(), 3);
        let x = input(2);
        let logits = m.infer_batch(x.data(), 2).unwrap();
        assert_eq!(logits.len(), 6);
        assert!(m.infer_batch(x.data(), 3).is_err());
        // Per-image results match the batched forward (batch invariance).
        let one = m.infer_batch(&x.data()[..m.image_len()], 1).unwrap();
        assert_eq!(
            one.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            logits[..3].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn infer_batch_leaves_the_buffer_pool_steady() {
        let (m, _) = compile(&float_graph(), &PassConfig::all()).unwrap();
        // At 342 images the 3-class logits reach the pool's smallest
        // recycled length, so a forward that parked a buffer it never
        // takes back would grow the pool on every call.
        let recycled = edd_tensor::recycle::MIN_RECYCLE_ELEMS.div_ceil(3);
        for batch in [32, recycled] {
            let x = input(batch);
            let serve = || {
                m.infer_batch(x.data(), batch).unwrap();
                m.forward(&x).unwrap();
            };
            // Warm-up fills the pool's bins for this batch's buffer lengths.
            for _ in 0..3 {
                serve();
            }
            let before = edd_tensor::recycle::retained_bytes();
            for _ in 0..100 {
                serve();
            }
            assert_eq!(
                edd_tensor::recycle::retained_bytes(),
                before,
                "batch {batch}"
            );
        }
    }

    #[test]
    fn activation_plan_reuses_regions_and_runs_the_add_in_place() {
        for cfg in [PassConfig::none(), PassConfig::all()] {
            let (m, _) = compile(&float_graph(), &cfg).unwrap();
            let nodes = m.graph().nodes();
            let mut sum = 0;
            for (id, n) in nodes.iter().enumerate() {
                if m.table.facts[id].dtype != DType::I8 {
                    continue;
                }
                sum += m.slots[id].len.next_multiple_of(PLAN_ALIGN);
                if matches!(n.op, Op::QAdd(_) | Op::QRelu6 { .. }) {
                    let a = m.slots[n.inputs[0]];
                    assert_eq!(
                        (m.slots[id].off, m.slots[id].len),
                        (a.off, a.len),
                        "{}",
                        n.name
                    );
                }
            }
            assert!(m.plan_bytes() < sum, "{} vs {sum}", m.plan_bytes());
        }
    }

    /// A lowered graph over `[2, 5, 5]` inputs and 3 classes: the input,
    /// a quantize at scale 0.1, then the nodes `body` adds after them; the
    /// id `body` returns is the output.
    fn lowered(body: impl FnOnce(&mut Graph, usize) -> usize) -> Graph {
        let mut g = Graph::new(GraphMeta {
            name: "lowered".into(),
            input_shape: [2, 5, 5],
            num_classes: 3,
        });
        let i = add_node(&mut g, "in", Op::Input, vec![]);
        let q = add_node(&mut g, "q", Op::Quantize { scale: 0.1 }, vec![i]);
        let out = body(&mut g, q);
        g.set_output(out).unwrap();
        g
    }

    fn add_node(g: &mut Graph, name: &str, op: Op, inputs: Vec<usize>) -> usize {
        g.add(Node {
            name: name.into(),
            op,
            inputs,
            scale: None,
            bits: None,
        })
        .unwrap()
    }

    /// A 2 → 2 channel 3×3 conv at padding 1, reading scale `in_scale`
    /// and writing scale 0.1.
    fn qconv(stride: usize, in_scale: f32) -> Op {
        let src = QConvSource {
            w: &[0.1; 2 * 2 * 9],
            out_channels: 2,
            in_channels: 2,
            kernel: 3,
            stride,
            padding: 1,
            bias: None,
        };
        Op::QConv(Box::new(QConvSpec::quantize(&src, 8, in_scale, 0.1, false)))
    }

    /// Pools `x` (2 channels at scale 0.1) into a 3-class head.
    fn pooled_head(g: &mut Graph, x: usize) -> usize {
        let p = add_node(g, "gap", Op::QGlobalAvgPool, vec![x]);
        let spec = QLinearSpec::quantize(&[0.1; 6], 2, 3, &[0.0; 3], 8, 0.1);
        add_node(g, "fc", Op::QLinear(Box::new(spec)), vec![p])
    }

    /// Both executors' errors for `g`.
    fn both_errors(g: &Graph) -> [String; 2] {
        [
            CompiledModel::from_graph(g.clone())
                .unwrap_err()
                .to_string(),
            PulsedProgram::from_graph(g).unwrap_err().to_string(),
        ]
    }

    #[test]
    fn add_operand_shapes_that_differ_are_rejected_by_both_executors() {
        // The residual add sums a conv output and the quantized input:
        // `[2, 5, 5]` both at stride 1, `[2, 3, 3]` against `[2, 5, 5]` at
        // stride 2.
        let residual = |stride: usize| {
            lowered(|g, q| {
                let c = add_node(g, "conv", qconv(stride, 0.1), vec![q]);
                let sum = QAddOp {
                    rq_a: None,
                    rq_b: None,
                    out_scale: 0.1,
                };
                let s = add_node(g, "sum", Op::QAdd(Box::new(sum)), vec![c, q]);
                pooled_head(g, s)
            })
        };
        let same = residual(1);
        assert!(CompiledModel::from_graph(same.clone()).is_ok());
        assert!(PulsedProgram::from_graph(&same).is_ok());
        for err in both_errors(&residual(2)) {
            assert!(
                err.contains("add operand shapes differ: [2, 3, 3] vs [2, 5, 5]"),
                "{err}"
            );
        }
    }

    #[test]
    fn a_zero_depthwise_kernel_is_rejected_by_both_executors() {
        // `Graph::facts` is the check that keeps a zero kernel away from
        // `qkernel::dw_tap_pairs`.
        let src = QDwConvSource {
            w: &[0.1; 2 * 9],
            channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
            bias: None,
        };
        let mut spec = QDwConvSpec::quantize(&src, 8, 0.1, 0.1, false);
        spec.kernel = 0;
        let g = lowered(|g, q| {
            let dw = add_node(g, "dw", Op::QDwConv(Box::new(spec)), vec![q]);
            pooled_head(g, dw)
        });
        for err in both_errors(&g) {
            assert!(
                err.contains("conv kernel and stride must be positive"),
                "{err}"
            );
        }
    }

    #[test]
    fn inputs_of_the_wrong_length_are_rejected_before_the_quantize() {
        // The checks that keep `quantize_i8_into`'s two slices one length:
        // the batch input's shape and element count, and a pushed row's
        // length.
        let (m, _) = compile(&float_graph(), &PassConfig::all()).unwrap();
        let x = Array::zeros(&[1, 2, 5, 4]);
        let err = m.forward(&x).unwrap_err().to_string();
        assert!(err.contains("expects [b, 2, 5, 5] input"), "{err}");
        let err = m.infer_batch(&[0.0; 49], 1).unwrap_err().to_string();
        assert!(err.contains("expected 50 values"), "{err}");
        let program = PulsedProgram::from_graph(m.graph()).unwrap();
        let mut state = crate::pulse::PulsedState::new(&program);
        assert!(state.push_row(&program, &[0.0; 9]).is_err());
        assert!(state.push_row(&program, &[0.0; 11]).is_err());
    }

    #[test]
    fn a_quantize_of_anything_but_the_input_is_rejected_by_both_executors() {
        // The first head's logits quantized again and fed to a second head.
        let g = lowered(|g, q| {
            let logits = pooled_head(g, q);
            let again = add_node(g, "q2", Op::Quantize { scale: 0.1 }, vec![logits]);
            let spec = QLinearSpec::quantize(&[0.1; 9], 3, 3, &[0.0; 3], 8, 0.1);
            add_node(g, "fc2", Op::QLinear(Box::new(spec)), vec![again])
        });
        for err in both_errors(&g) {
            assert!(err.contains("not the graph input"), "{err}");
        }
    }

    #[test]
    fn a_consumer_scale_that_differs_from_its_producer_is_rejected_by_both_executors() {
        // The conv was compiled for inputs at scale 0.5; the quantize
        // writes 0.1.
        let g = lowered(|g, q| {
            let c = add_node(g, "conv", qconv(1, 0.5), vec![q]);
            pooled_head(g, c)
        });
        for err in both_errors(&g) {
            assert!(
                err.contains("conv: producer scale 0.1 does not match consumer scale 0.5"),
                "{err}"
            );
        }
    }

    #[test]
    fn oversized_activation_plan_is_rejected() {
        // One quantized value of 5 · 8192² bytes per image, past the cap.
        let mut g = Graph::new(GraphMeta {
            name: "huge".into(),
            input_shape: [5, 8192, 8192],
            num_classes: 3,
        });
        let node = |name: &str, op: Op, inputs: Vec<usize>| Node {
            name: name.into(),
            op,
            inputs,
            scale: None,
            bits: None,
        };
        let i = g.add(node("in", Op::Input, vec![])).unwrap();
        let q = g
            .add(node("q", Op::Quantize { scale: 0.1 }, vec![i]))
            .unwrap();
        let p = g.add(node("gap", Op::QGlobalAvgPool, vec![q])).unwrap();
        let spec = edd_nn::QLinearSpec::quantize(&[0.1; 15], 5, 3, &[0.0; 3], 8, 0.1);
        let fc = g
            .add(node("fc", Op::QLinear(Box::new(spec)), vec![p]))
            .unwrap();
        g.set_output(fc).unwrap();
        let err = CompiledModel::from_graph(g).unwrap_err();
        assert!(
            matches!(&err, TensorError::InvalidShape { shape, .. } if shape == &[5, 8192, 8192]),
            "{err}"
        );
        assert!(
            err.to_string().contains(&format!(
                "exceeds {MAX_PLAN_BYTES_PER_IMAGE} bytes per image"
            )),
            "{err}"
        );
    }

    #[test]
    fn unlowered_graph_is_rejected() {
        let err = CompiledModel::from_graph(float_graph())
            .unwrap_err()
            .to_string();
        assert!(err.contains("unlowered"), "{err}");
    }
}
