//! Executable form of a lowered graph.
//!
//! [`CompiledModel::from_graph`] type-checks a quantized graph, rebuilds
//! each spec's microkernel-native caches via the `from_spec` constructors
//! (`QConv2d`, `QDwConv2d`, `QLinear`), and precomputes a liveness plan so
//! intermediate activations are dropped at their last use. Execution order
//! is ascending node id — valid by the graph's forward-edges invariant —
//! so the forward pass is a plain loop with no scheduling.
//!
//! The model implements [`edd_runtime::BatchModel`], which is all the
//! serving layer needs: a model compiled in process and one hot-loaded
//! from an artifact both run synchronously through
//! [`BatchModel::infer_batch`] and drop into the sharded `serve::Server`.

use crate::graph::{DType, Graph, Op};
use edd_nn::{q_global_avg_pool, QAddTables, QConv2d, QDwConv2d, QLinear, QTensor};
use edd_runtime::BatchModel;
use edd_tensor::{Array, Result, TensorError};

/// Per-node executor, parallel to the graph's node list.
enum Layer {
    /// Unreachable node (or the input placeholder) — nothing to run.
    Skip,
    /// The graph input: seeds the value table with the float batch.
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
    Add { add: QAddTables, out_scale: f32 },
    /// Integer global average pool.
    Gap,
    /// Quantized classifier head with rebuilt panels.
    Linear(QLinear),
}

/// An intermediate value during a forward pass.
enum Value {
    F(Array),
    Q(QTensor),
}

impl Value {
    fn as_f(&self) -> Result<&Array> {
        match self {
            Value::F(a) => Ok(a),
            Value::Q(_) => Err(TensorError::InvalidArgument(
                "expected a float value, found a quantized one".into(),
            )),
        }
    }

    fn as_q(&self) -> Result<&QTensor> {
        match self {
            Value::Q(q) => Ok(q),
            Value::F(_) => Err(TensorError::InvalidArgument(
                "expected a quantized value, found a float one".into(),
            )),
        }
    }
}

/// A lowered graph compiled into runnable layers.
pub struct CompiledModel {
    graph: Graph,
    layers: Vec<Layer>,
    /// `last_use[i]` = id of the last node reading `i`'s value (or `i`
    /// itself when nothing does); the value is freed right after.
    last_use: Vec<usize>,
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
            .finish_non_exhaustive()
    }
}

impl CompiledModel {
    /// Builds the executable model from a lowered graph, validating facts
    /// and rebuilding every layer's execution caches from its spec.
    ///
    /// # Errors
    ///
    /// Errors when the graph still contains float ops, when fact
    /// inference fails, or when the output is not `[num_classes]` f32
    /// logits.
    pub fn from_graph(graph: Graph) -> Result<Self> {
        let facts = graph.facts()?;
        let out = graph.output()?;
        if facts[out].dtype != DType::F32 || facts[out].shape != vec![graph.meta.num_classes] {
            return Err(TensorError::InvalidArgument(format!(
                "compiled graph output is {:?} {:?}, expected [{}] f32 logits",
                facts[out].dtype, facts[out].shape, graph.meta.num_classes
            )));
        }
        let reachable = graph.reachable()?;
        let mut layers = Vec::with_capacity(graph.len());
        for (id, n) in graph.nodes().iter().enumerate() {
            if !reachable[id] {
                layers.push(Layer::Skip);
                continue;
            }
            let layer = match &n.op {
                Op::Input => Layer::Input,
                Op::Quantize { scale } => Layer::Quantize { scale: *scale },
                Op::QConv(s) => Layer::Conv(QConv2d::from_spec(s.as_ref().clone())),
                Op::QDwConv(s) => Layer::Dw(QDwConv2d::from_spec(s.as_ref().clone())),
                Op::QRelu6 { hi } => Layer::Relu6 { hi: *hi },
                Op::QAdd(a) => Layer::Add {
                    add: QAddTables::new(a.rq_a, a.rq_b),
                    out_scale: a.out_scale,
                },
                Op::QGlobalAvgPool => Layer::Gap,
                Op::QLinear(s) => Layer::Linear(QLinear::from_spec(s.as_ref().clone())),
                float => {
                    return Err(TensorError::InvalidArgument(format!(
                        "cannot execute unlowered op `{}` at node `{}`; run the quantize \
                         lowering first",
                        float.mnemonic(),
                        n.name
                    )));
                }
            };
            layers.push(layer);
        }
        let mut last_use: Vec<usize> = (0..graph.len()).collect();
        for (id, n) in graph.nodes().iter().enumerate() {
            if !reachable[id] {
                continue;
            }
            for &i in &n.inputs {
                last_use[i] = last_use[i].max(id);
            }
        }
        // The output must survive the whole loop.
        last_use[out] = graph.len();
        let input_shape = graph.meta.input_shape;
        let num_classes = graph.meta.num_classes;
        Ok(CompiledModel {
            graph,
            layers,
            last_use,
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

    /// Runs the model on an NCHW float batch, returning
    /// `[batch, num_classes]` logits.
    ///
    /// # Errors
    ///
    /// Rejects inputs whose shape does not match the compiled
    /// `[b, c, h, w]` and propagates layer errors.
    pub fn forward(&self, x: &Array) -> Result<Array> {
        let [c, h, w] = self.input_shape;
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != c || shape[2] != h || shape[3] != w {
            return Err(TensorError::InvalidArgument(format!(
                "compiled model expects [b, {c}, {h}, {w}] input, got {shape:?}"
            )));
        }
        let batch = shape[0];
        let mut values: Vec<Option<Value>> = (0..self.graph.len()).map(|_| None).collect();
        for (id, layer) in self.layers.iter().enumerate() {
            let node = self.graph.node(id);
            let produced = match layer {
                Layer::Skip => continue,
                Layer::Input => Value::F(x.clone()),
                Layer::Quantize { scale } => {
                    let f = value(&values, node.inputs[0])?.as_f()?;
                    Value::Q(QTensor::quantize(f, *scale))
                }
                Layer::Conv(l) => Value::Q(l.forward(value(&values, node.inputs[0])?.as_q()?)?),
                Layer::Dw(l) => Value::Q(l.forward(value(&values, node.inputs[0])?.as_q()?)?),
                Layer::Relu6 { hi } => {
                    let q = value(&values, node.inputs[0])?.as_q()?;
                    let data = q.data.iter().map(|&v| v.clamp(0, *hi)).collect();
                    Value::Q(QTensor {
                        data,
                        shape: q.shape.clone(),
                        scale: q.scale,
                    })
                }
                Layer::Add { add, out_scale } => {
                    let a = value(&values, node.inputs[0])?.as_q()?;
                    let b = value(&values, node.inputs[1])?.as_q()?;
                    Value::Q(qadd(add, *out_scale, a, b)?)
                }
                Layer::Gap => Value::Q(q_global_avg_pool(value(&values, node.inputs[0])?.as_q()?)?),
                Layer::Linear(l) => Value::F(l.forward(value(&values, node.inputs[0])?.as_q()?)?),
            };
            // Free operands whose last consumer was this node.
            for &i in &node.inputs {
                if self.last_use[i] == id {
                    values[i] = None;
                }
            }
            if self.last_use[id] >= id {
                values[id] = Some(produced);
            }
        }
        let out = self.graph.output()?;
        let logits = values[out]
            .take()
            .ok_or_else(|| TensorError::InvalidArgument("output was never computed".into()))?;
        let logits = logits.as_f()?;
        debug_assert_eq!(logits.shape(), &[batch, self.num_classes]);
        Ok(logits.clone())
    }
}

/// Reads a live value from the table (errors on a liveness-plan bug
/// rather than panicking).
fn value(values: &[Option<Value>], id: usize) -> Result<&Value> {
    values[id].as_ref().ok_or_else(|| {
        TensorError::InvalidArgument(format!("value of node {id} was freed before its last use"))
    })
}

/// The integer residual add on two equally shaped operands.
fn qadd(add: &QAddTables, out_scale: f32, a: &QTensor, b: &QTensor) -> Result<QTensor> {
    if a.shape != b.shape {
        return Err(TensorError::InvalidArgument(format!(
            "qadd operand shapes differ: {:?} vs {:?}",
            a.shape, b.shape
        )));
    }
    let mut data = a.data.clone();
    add.add_assign(&mut data, &b.data);
    Ok(QTensor {
        data,
        shape: a.shape.clone(),
        scale: out_scale,
    })
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
        let [c, h, w] = self.input_shape;
        let x = Array::from_slice(images, &[batch, c, h, w])?;
        Ok(self.forward(&x)?.data().to_vec())
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
    use crate::graph::{ConvOp, GraphMeta, LinearOp, Node};
    use crate::passes::{compile, PassConfig};

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
        let x = input(32);
        // Warm-up fills the pool's bins for this batch's buffer lengths.
        for _ in 0..3 {
            m.infer_batch(x.data(), 32).unwrap();
        }
        let before = edd_tensor::recycle::retained_bytes();
        for _ in 0..100 {
            m.infer_batch(x.data(), 32).unwrap();
        }
        assert_eq!(edd_tensor::recycle::retained_bytes(), before);
    }

    #[test]
    fn unlowered_graph_is_rejected() {
        let err = CompiledModel::from_graph(float_graph())
            .unwrap_err()
            .to_string();
        assert!(err.contains("unlowered"), "{err}");
    }
}
