//! Patch-based graph rewriting.
//!
//! Passes never mutate a [`Graph`] directly while scanning it; they record
//! intended edits in a [`Patch`] and apply the batch afterwards. This keeps
//! match logic readable (it sees a frozen graph), makes each rewrite
//! auditable, and lets [`Patch::apply`] enforce the graph invariants in one
//! place.
//!
//! Three primitive edits cover every pass in this crate:
//!
//! * **set-op** — replace a node's operation in place (same inputs), e.g.
//!   swapping a `Conv2d` for its BN-folded version.
//! * **set-scale** — move a quantization-boundary annotation onto a node,
//!   e.g. a fused producer inherits the ReLU6's output scale.
//! * **bypass** — splice a single-input node out of the graph: every
//!   consumer (and the graph output, if applicable) is rewired to the
//!   node's producer. The node itself becomes an unreachable orphan, which
//!   the quantize lowering leaves out. Because the producer id is always
//!   smaller than the bypassed node's id, rewiring preserves the
//!   forward-edges invariant.

use crate::graph::{Graph, Op};
use edd_tensor::{Result, TensorError};

#[derive(Debug)]
enum Edit {
    SetOp { node: usize, op: Op },
    SetScale { node: usize, scale: f32 },
    Bypass { node: usize },
}

/// An ordered batch of graph edits. Build with the recording methods, then
/// [`apply`](Patch::apply) once.
#[derive(Debug, Default)]
pub struct Patch {
    edits: Vec<Edit>,
}

impl Patch {
    /// Creates an empty patch.
    #[must_use]
    pub fn new() -> Self {
        Patch::default()
    }

    /// Records replacing `node`'s operation (inputs unchanged).
    pub fn set_op(&mut self, node: usize, op: Op) {
        self.edits.push(Edit::SetOp { node, op });
    }

    /// Records setting `node`'s activation-scale annotation.
    pub fn set_scale(&mut self, node: usize, scale: f32) {
        self.edits.push(Edit::SetScale { node, scale });
    }

    /// Records splicing single-input `node` out: its consumers read the
    /// node's producer instead.
    pub fn bypass(&mut self, node: usize) {
        self.edits.push(Edit::Bypass { node });
    }

    /// Applies all recorded edits to `g` in order.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range node ids, a set-op that changes arity, and a
    /// bypass of a node without exactly one input. On error the graph may
    /// hold a prefix of the edits; callers treat that as fatal (passes
    /// bail out of compilation).
    pub fn apply(self, g: &mut Graph) -> Result<()> {
        for edit in self.edits {
            match edit {
                Edit::SetOp { node, op } => {
                    let n = checked(g, node)?;
                    if g.node(n).inputs.len() != op.arity() {
                        return Err(TensorError::InvalidArgument(format!(
                            "patch set-op on node {n}: new op `{}` wants {} inputs, node has {}",
                            op.mnemonic(),
                            op.arity(),
                            g.node(n).inputs.len()
                        )));
                    }
                    g.node_mut(n).op = op;
                }
                Edit::SetScale { node, scale } => {
                    let n = checked(g, node)?;
                    g.node_mut(n).scale = Some(scale);
                }
                Edit::Bypass { node } => {
                    let n = checked(g, node)?;
                    let inputs = &g.node(n).inputs;
                    if inputs.len() != 1 {
                        return Err(TensorError::InvalidArgument(format!(
                            "patch bypass on node {n}: needs exactly one input, has {}",
                            inputs.len()
                        )));
                    }
                    let producer = inputs[0];
                    for id in n + 1..g.len() {
                        let node = g.node_mut(id);
                        for i in &mut node.inputs {
                            if *i == n {
                                *i = producer;
                            }
                        }
                    }
                    if g.output()? == n {
                        g.set_output(producer)?;
                    }
                }
            }
        }
        Ok(())
    }
}

fn checked(g: &Graph, node: usize) -> Result<usize> {
    if node >= g.len() {
        return Err(TensorError::InvalidArgument(format!(
            "patch edit targets node {node}, graph has {} nodes",
            g.len()
        )));
    }
    Ok(node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphMeta, Node};

    fn tiny() -> Graph {
        let mut g = Graph::new(GraphMeta {
            name: "t".into(),
            input_shape: [2, 4, 4],
            num_classes: 2,
        });
        let i = g
            .add(Node {
                name: "in".into(),
                op: Op::Input,
                inputs: vec![],
                scale: Some(0.05),
                bits: None,
            })
            .unwrap();
        let r = g
            .add(Node {
                name: "act".into(),
                op: Op::Relu6,
                inputs: vec![i],
                scale: Some(0.05),
                bits: None,
            })
            .unwrap();
        g.add(Node {
            name: "pool".into(),
            op: Op::GlobalAvgPool,
            inputs: vec![r],
            scale: Some(0.05),
            bits: None,
        })
        .unwrap();
        g
    }

    #[test]
    fn bypass_rewires_consumers_and_output() {
        let mut g = tiny();
        let mut p = Patch::new();
        p.bypass(1);
        p.apply(&mut g).unwrap();
        // pool now reads the input directly; relu node is an orphan.
        assert_eq!(g.node(2).inputs, vec![0]);
        assert_eq!(g.reachable().unwrap(), vec![true, false, true]);

        // Bypassing the output node moves the output to its producer.
        let mut g = tiny();
        let mut p = Patch::new();
        p.bypass(2);
        p.apply(&mut g).unwrap();
        assert_eq!(g.output().unwrap(), 1);
    }

    #[test]
    fn invalid_edits_are_rejected() {
        let mut g = tiny();
        let mut p = Patch::new();
        p.set_scale(99, 1.0);
        assert!(p.apply(&mut g).is_err());

        // Arity-changing set-op is rejected (Add wants two inputs).
        let mut g = tiny();
        let mut p = Patch::new();
        p.set_op(1, Op::Add);
        assert!(p.apply(&mut g).is_err());

        // Bypass of the zero-input node is rejected.
        let mut g = tiny();
        let mut p = Patch::new();
        p.bypass(0);
        assert!(p.apply(&mut g).is_err());
    }

    #[test]
    fn set_op_and_scale_apply_in_order() {
        let mut g = tiny();
        let mut p = Patch::new();
        p.set_scale(1, 0.125);
        p.set_op(1, Op::QRelu6 { hi: 48 });
        p.apply(&mut g).unwrap();
        assert_eq!(g.node(1).scale, Some(0.125));
        assert!(matches!(g.node(1).op, Op::QRelu6 { hi: 48 }));
    }
}
