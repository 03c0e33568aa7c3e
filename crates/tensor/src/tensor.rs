//! Reverse-mode automatic differentiation core.
//!
//! A [`Tensor`] is a shared handle to a node in a dynamically-built compute
//! graph. Operations eagerly compute their value ([`Array`]) and record a
//! backward closure; [`Tensor::backward`] runs a reverse topological sweep
//! that accumulates gradients into every node with `requires_grad`.

use crate::array::Array;
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// Backward closure: receives the gradient of the loss with respect to this
/// node's output **by value** (moved out of the node's grad slot, so the
/// sweep never clones gradients) and accumulates into the node's parents —
/// the final contribution can be moved straight into an empty parent slot
/// via [`Tensor::accumulate_grad_owned`]. `Send + Sync` so graph nodes can
/// be built concurrently on pool workers (supernet branch fan-out); the
/// backward sweep itself stays single-threaded.
///
/// The closure runs while the *own* node's write lock is held: it must only
/// lock parents (distinct nodes; graphs are acyclic) and must never read its
/// own output through the tensor handle — ops that need their forward output
/// in backward (softmax, batch norm) capture a saved copy instead.
pub(crate) type BackwardFn = Box<dyn Fn(Array) + Send + Sync>;

struct Inner {
    value: Array,
    grad: Option<Array>,
    requires_grad: bool,
    parents: Vec<Tensor>,
    backward: Option<BackwardFn>,
}

/// A node in the autodiff graph: a value plus (optionally) the recipe for
/// propagating gradients to its parents.
///
/// `Tensor` is a cheap reference-counted handle; cloning it aliases the same
/// node. Graphs are rebuilt each forward pass (define-by-run), so leaf
/// parameters persist across iterations while intermediate nodes are freed
/// when the loss handle is dropped.
///
/// Handles are `Send + Sync`: independent subgraphs (e.g. the M candidate
/// branches of a supernet block) may be built concurrently on pool workers.
/// Mutation of a single node (`set_value`, `accumulate_grad`) takes its
/// write lock; the optimizer and backward sweep run single-threaded.
///
/// # Examples
///
/// ```
/// use edd_tensor::{Array, Tensor};
/// let x = Tensor::param(Array::from_vec(vec![2.0], &[1]).unwrap());
/// let y = x.mul(&x).unwrap().sum(); // y = x^2
/// y.backward();
/// assert_eq!(x.grad().unwrap().data(), &[4.0]); // dy/dx = 2x
/// ```
#[derive(Clone)]
pub struct Tensor {
    inner: Arc<RwLock<Inner>>,
}

/// A read guard over a node's value, dereferencing to [`Array`].
///
/// Returned by [`Tensor::value`]; holding it blocks in-place mutation of
/// the same node (`set_value` / `update_value`) from other threads.
pub struct ValueRef<'a>(RwLockReadGuard<'a, Inner>);

impl std::ops::Deref for ValueRef<'_> {
    type Target = Array;

    fn deref(&self) -> &Array {
        &self.0.value
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.read();
        f.debug_struct("Tensor")
            .field("shape", &inner.value.shape())
            .field("requires_grad", &inner.requires_grad)
            .field("has_grad", &inner.grad.is_some())
            .finish()
    }
}

impl Tensor {
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().expect("tensor lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().expect("tensor lock poisoned")
    }

    /// Creates a trainable leaf (a parameter) from `value`.
    #[must_use]
    pub fn param(value: Array) -> Tensor {
        Tensor {
            inner: Arc::new(RwLock::new(Inner {
                value,
                grad: None,
                requires_grad: true,
                parents: Vec::new(),
                backward: None,
            })),
        }
    }

    /// Creates a non-trainable leaf (a constant input) from `value`.
    #[must_use]
    pub fn constant(value: Array) -> Tensor {
        Tensor {
            inner: Arc::new(RwLock::new(Inner {
                value,
                grad: None,
                requires_grad: false,
                parents: Vec::new(),
                backward: None,
            })),
        }
    }

    /// Creates a constant rank-0 tensor.
    #[must_use]
    pub fn scalar(v: f32) -> Tensor {
        Tensor::constant(Array::scalar(v))
    }

    /// Internal constructor for op results.
    ///
    /// The backward closure is kept only when at least one parent requires
    /// gradients; otherwise the node is a dead end for backprop.
    pub(crate) fn from_op(value: Array, parents: Vec<Tensor>, backward: BackwardFn) -> Tensor {
        let requires_grad = parents.iter().any(Tensor::requires_grad);
        Tensor {
            inner: Arc::new(RwLock::new(Inner {
                value,
                grad: None,
                requires_grad,
                parents: if requires_grad { parents } else { Vec::new() },
                backward: if requires_grad { Some(backward) } else { None },
            })),
        }
    }

    /// Whether gradients flow into this node.
    #[must_use]
    pub fn requires_grad(&self) -> bool {
        self.read().requires_grad
    }

    /// Freezes (`false`) or thaws (`true`) a leaf. An op whose parents are
    /// all frozen keeps no backward, and a backward computes no gradient
    /// for a frozen parent. Ops read the flag both when they are built and
    /// when their backward runs, so flip it only between a backward and
    /// the next forward. A frozen leaf keeps whatever gradient it holds.
    ///
    /// # Panics
    ///
    /// Panics if this node is an op result that has a backward.
    pub fn set_requires_grad(&self, requires_grad: bool) {
        let mut inner = self.write();
        assert!(
            inner.backward.is_none(),
            "set_requires_grad freezes leaves, not op results"
        );
        inner.requires_grad = requires_grad;
    }

    /// A stable identity for this graph node (two handles compare equal iff
    /// they alias the same node).
    #[must_use]
    pub fn node_id(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    /// Read-locks the node and borrows its value.
    ///
    /// # Panics
    ///
    /// Panics if the node's lock is poisoned (a panic while mutating, only
    /// possible from inside optimizer update closures).
    #[must_use]
    pub fn value(&self) -> ValueRef<'_> {
        ValueRef(self.read())
    }

    /// Clones the node's value out of the graph.
    #[must_use]
    pub fn value_clone(&self) -> Array {
        self.read().value.clone()
    }

    /// The node's shape.
    #[must_use]
    pub fn shape(&self) -> Vec<usize> {
        self.read().value.shape().to_vec()
    }

    /// The single element of a scalar node.
    ///
    /// # Panics
    ///
    /// Panics if the node holds more than one element.
    #[must_use]
    pub fn item(&self) -> f32 {
        self.read().value.item()
    }

    /// Clones the accumulated gradient, if any.
    #[must_use]
    pub fn grad(&self) -> Option<Array> {
        self.read().grad.clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.write().grad = None;
    }

    /// Overwrites the node's value in place (used by optimizers and
    /// running-statistic updates). Does not touch the graph.
    ///
    /// # Panics
    ///
    /// Panics if `new_value` has a different shape than the current value.
    pub fn set_value(&self, new_value: Array) {
        let mut inner = self.write();
        assert_eq!(
            inner.value.shape(),
            new_value.shape(),
            "set_value must preserve shape"
        );
        inner.value = new_value;
    }

    /// Applies `f` to the value in place (optimizer hot path).
    pub fn update_value(&self, f: impl FnOnce(&mut Array)) {
        let mut inner = self.write();
        f(&mut inner.value);
    }

    /// Returns a new constant leaf sharing a copy of this node's value;
    /// gradients do not flow through the result.
    #[must_use]
    pub fn detach(&self) -> Tensor {
        Tensor::constant(self.value_clone())
    }

    /// Accumulates `g` into this node's gradient buffer.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s shape differs from the node's value shape.
    pub fn accumulate_grad(&self, g: &Array) {
        let mut inner = self.write();
        assert_eq!(
            inner.value.shape(),
            g.shape(),
            "gradient shape must match value shape"
        );
        match &mut inner.grad {
            Some(acc) => acc.add_scaled_assign(g, 1.0),
            slot @ None => *slot = Some(g.clone()),
        }
    }

    /// Accumulates an owned gradient into this node: the first contribution
    /// moves `g` straight into the empty slot (no copy), later ones add in
    /// place. The backward hot path — closures hand their last (often only)
    /// per-parent gradient here instead of cloning it.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s shape differs from the node's value shape.
    pub fn accumulate_grad_owned(&self, g: Array) {
        let mut inner = self.write();
        assert_eq!(
            inner.value.shape(),
            g.shape(),
            "gradient shape must match value shape"
        );
        match &mut inner.grad {
            Some(acc) => acc.add_scaled_assign(&g, 1.0),
            slot @ None => *slot = Some(g),
        }
    }

    /// Moves the accumulated gradient out of the node (leaving none), if
    /// any. Lets optimizers consume gradients without cloning; the returned
    /// buffer feeds the recycling pool when dropped.
    #[must_use]
    pub fn take_grad(&self) -> Option<Array> {
        self.write().grad.take()
    }

    /// Applies `f` to the accumulated gradient in place, if present
    /// (gradient clipping without clone-and-rewrite).
    pub fn update_grad(&self, f: impl FnOnce(&mut Array)) {
        if let Some(g) = self.write().grad.as_mut() {
            f(g);
        }
    }

    /// Applies `f` to a borrow of the accumulated gradient, if present —
    /// read-only gradient inspection without cloning.
    #[must_use]
    pub fn map_grad<R>(&self, f: impl FnOnce(&Array) -> R) -> Option<R> {
        self.read().grad.as_ref().map(f)
    }

    /// Runs reverse-mode differentiation from this node, seeding with a
    /// gradient of all-ones (so for a scalar loss this computes `dL/dx` for
    /// every reachable parameter).
    ///
    /// Gradients accumulate across calls; call [`Tensor::zero_grad`] (or an
    /// optimizer's `zero_grad`) between steps.
    pub fn backward(&self) {
        let shape = self.shape();
        self.backward_with(Array::ones(&shape));
    }

    /// Runs reverse-mode differentiation seeding this node's gradient with
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `seed`'s shape differs from this node's shape.
    pub fn backward_with(&self, seed: Array) {
        self.accumulate_grad_owned(seed);
        let order = self.topo_order();
        for node in order.iter().rev() {
            let mut inner = node.write();
            if inner.backward.is_none() {
                // Leaves (and dead ends) keep their accumulated gradients.
                continue;
            }
            // Move the gradient out instead of cloning it; op-node grad
            // slots are left empty, which also subsumes the old post-sweep
            // clearing pass.
            let Some(grad) = inner.grad.take() else {
                continue;
            };
            // Call the closure while holding this node's write lock (so no
            // other take can race the move): the closure locks *parents*
            // only, which are distinct nodes (graphs are acyclic), and the
            // sweep is single-threaded.
            if let Some(bw) = &inner.backward {
                bw(grad);
            }
        }
    }

    /// Iterative DFS topological order (parents before children).
    fn topo_order(&self) -> Vec<Tensor> {
        let mut order = Vec::new();
        let mut visited: HashSet<usize> = HashSet::new();
        // Stack of (node, parents_pushed) frames.
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((node, expanded)) = stack.pop() {
            let key = Arc::as_ptr(&node.inner) as usize;
            if expanded {
                order.push(node);
                continue;
            }
            if visited.contains(&key) {
                continue;
            }
            visited.insert(key);
            stack.push((node.clone(), true));
            for p in &node.read().parents {
                let pk = Arc::as_ptr(&p.inner) as usize;
                if !visited.contains(&pk) {
                    stack.push((p.clone(), false));
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_requires_grad_constant_does_not() {
        let p = Tensor::param(Array::scalar(1.0));
        let c = Tensor::constant(Array::scalar(1.0));
        assert!(p.requires_grad());
        assert!(!c.requires_grad());
    }

    #[test]
    fn clone_aliases_same_node() {
        let p = Tensor::param(Array::scalar(5.0));
        let q = p.clone();
        p.update_value(|a| a.data_mut()[0] = 9.0);
        assert_eq!(q.item(), 9.0);
    }

    #[test]
    fn accumulate_grad_adds() {
        let p = Tensor::param(Array::zeros(&[2]));
        p.accumulate_grad(&Array::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        p.accumulate_grad(&Array::from_vec(vec![10.0, 20.0], &[2]).unwrap());
        assert_eq!(p.grad().unwrap().data(), &[11.0, 22.0]);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    #[should_panic(expected = "gradient shape")]
    fn accumulate_grad_shape_checked() {
        let p = Tensor::param(Array::zeros(&[2]));
        p.accumulate_grad(&Array::zeros(&[3]));
    }

    #[test]
    fn detach_blocks_gradient() {
        let p = Tensor::param(Array::scalar(3.0));
        let d = p.detach();
        assert!(!d.requires_grad());
        assert_eq!(d.item(), 3.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let p = Tensor::param(Array::zeros(&[2, 2]));
        let s = format!("{p:?}");
        assert!(s.contains("Tensor"));
        assert!(s.contains("shape"));
    }

    #[test]
    fn backward_through_diamond_graph() {
        // y = (x + x) uses x twice; dy/dx = 2.
        let x = Tensor::param(Array::scalar(1.5));
        let y = x.add(&x).unwrap();
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn gradients_accumulate_across_backwards() {
        let x = Tensor::param(Array::scalar(1.0));
        let y = x.mul_scalar(3.0);
        y.backward();
        let y2 = x.mul_scalar(3.0);
        y2.backward();
        assert_eq!(x.grad().unwrap().item(), 6.0);
    }

    #[test]
    fn an_op_of_frozen_leaves_has_no_backward() {
        let w = Tensor::param(Array::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let x = Tensor::param(Array::from_vec(vec![5.0, 7.0], &[2]).unwrap());
        w.set_requires_grad(false);
        // Built only from a frozen leaf and a constant: a dead end.
        let dead = w.mul_scalar(3.0).add(&Tensor::scalar(1.0)).unwrap();
        assert!(!dead.requires_grad());
        assert!(dead.read().backward.is_none() && dead.read().parents.is_empty());
        // Mixed with a live leaf: gradient reaches only the live one.
        w.mul(&x).unwrap().sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0, 3.0]);
        assert!(w.grad().is_none());
        w.set_requires_grad(true);
        w.mul(&x).unwrap().sum().backward();
        assert_eq!(w.grad().unwrap().data(), &[5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "not op results")]
    fn set_requires_grad_rejects_op_results() {
        let x = Tensor::param(Array::scalar(1.0));
        x.mul_scalar(2.0).set_requires_grad(false);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 20k-deep chain exercises the iterative topo sort.
        let x = Tensor::param(Array::scalar(0.0));
        let mut y = x.clone();
        for _ in 0..20_000 {
            y = y.add_scalar(1.0);
        }
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 1.0);
        assert_eq!(y.item(), 20_000.0);
    }
}
