//! Elementwise arithmetic ops (broadcasting) and their gradients.

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::kernel;
use crate::kernel::pool::{self, SendPtr};
use crate::tensor::Tensor;

impl Tensor {
    /// Elementwise addition with NumPy broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when the operand shapes do not broadcast.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        let value = self.value().add(&other.value())?;
        let (a, b) = (self.clone(), other.clone());
        let (sa, sb) = (self.shape(), other.shape());
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                let (need_a, need_b) = (a.requires_grad(), b.requires_grad());
                if need_a && need_b {
                    a.accumulate_grad_owned(g.reduce_to(&sa).expect("broadcast-checked"));
                    b.accumulate_grad_owned(g.reduce_to_owned(&sb).expect("broadcast-checked"));
                } else if need_a {
                    a.accumulate_grad_owned(g.reduce_to_owned(&sa).expect("broadcast-checked"));
                } else if need_b {
                    b.accumulate_grad_owned(g.reduce_to_owned(&sb).expect("broadcast-checked"));
                }
            }),
        ))
    }

    /// Fused sum of `terms`, all of the same shape: one output allocation
    /// and one traversal instead of the `M − 1` intermediate tensors a
    /// chained `add` would build. Elements accumulate in ascending term
    /// order, so the result is bitwise identical to the sequential chain
    /// for any thread count. Backward is the identity into every parent.
    ///
    /// This is the combine step of the DARTS-style all-branch mixture:
    /// `M` candidate outputs blended into one activation.
    ///
    /// # Errors
    ///
    /// Returns an error when `terms` is empty or the shapes differ.
    pub fn add_n(terms: &[Tensor]) -> Result<Tensor> {
        let Some(first) = terms.first() else {
            return Err(TensorError::InvalidArgument(
                "add_n requires at least one term".into(),
            ));
        };
        let shape = first.shape();
        for t in &terms[1..] {
            if t.shape() != shape {
                return Err(TensorError::ShapeMismatch {
                    lhs: shape,
                    rhs: t.shape(),
                    op: "add_n",
                });
            }
        }
        let guards: Vec<_> = terms.iter().map(Tensor::value).collect();
        let slices: Vec<&[f32]> = guards.iter().map(|g| g.data()).collect();
        let n = slices[0].len();
        // Recycled output storage; every element is written by sum_range.
        let mut out = crate::recycle::take(n);
        let threads = if n < kernel::PAR_MIN_ELEMS {
            1
        } else {
            kernel::num_threads()
        };
        let ranges = kernel::partition(n, threads);
        let sum_range = |dst: &mut [f32], lo: usize| {
            for (i, d) in dst.iter_mut().enumerate() {
                let mut acc = slices[0][lo + i];
                for s in &slices[1..] {
                    acc += s[lo + i];
                }
                *d = acc;
            }
        };
        if ranges.len() <= 1 {
            sum_range(&mut out, 0);
        } else {
            let base = SendPtr::new(out.as_mut_ptr());
            pool::run(ranges.len(), &|t| {
                let r = &ranges[t];
                // SAFETY: disjoint partition ranges → disjoint windows.
                sum_range(unsafe { base.slice(r.start, r.len()) }, r.start);
            });
        }
        drop(slices);
        drop(guards);
        let value = Array::from_vec(out, &shape)?;
        let parents: Vec<Tensor> = terms.to_vec();
        Ok(Tensor::from_op(
            value,
            parents.clone(),
            Box::new(move |g| {
                // Borrow for all but the last grad-requiring parent, which
                // takes the incoming gradient by move.
                let last = parents.iter().rposition(Tensor::requires_grad);
                for (i, p) in parents.iter().enumerate() {
                    if Some(i) != last && p.requires_grad() {
                        p.accumulate_grad(&g);
                    }
                }
                if let Some(i) = last {
                    parents[i].accumulate_grad_owned(g);
                }
            }),
        ))
    }

    /// Fused weighted combine `Σ_m weights[m] · terms[m]` of same-shape
    /// `terms` with a rank-1 `weights` tensor of length `terms.len()` — the
    /// DARTS-style mixture in one pass, without materializing the `M`
    /// scaled branch tensors a per-branch `mul` + [`Tensor::add_n`] chain
    /// would allocate.
    ///
    /// The forward value is **bitwise identical** to that unfused chain:
    /// per element the fused kernel forms each product and accumulates in
    /// ascending branch order, exactly the FP sequence of scalar-`mul`
    /// followed by `add_n` (see `kernel::weighted_sum_into`).
    ///
    /// Backward fans the `M` independent branch gradients out over the
    /// worker pool: task `m` computes `d terms[m] = g · weights[m]` and the
    /// weight gradient `d weights[m] = ⟨g, terms[m]⟩` into its own slot,
    /// and the slots are combined in ascending branch order — bitwise
    /// identical for any thread count.
    ///
    /// # Errors
    ///
    /// Returns an error when `terms` is empty, the term shapes differ, or
    /// `weights` is not rank-1 of length `terms.len()`.
    pub fn weighted_add_n(terms: &[Tensor], weights: &Tensor) -> Result<Tensor> {
        let Some(first) = terms.first() else {
            return Err(TensorError::InvalidArgument(
                "weighted_add_n requires at least one term".into(),
            ));
        };
        let shape = first.shape();
        for t in &terms[1..] {
            if t.shape() != shape {
                return Err(TensorError::ShapeMismatch {
                    lhs: shape,
                    rhs: t.shape(),
                    op: "weighted_add_n",
                });
            }
        }
        let m_count = terms.len();
        if weights.shape() != [m_count] {
            return Err(TensorError::InvalidShape {
                shape: weights.shape(),
                reason: format!("weighted_add_n weights must be rank-1 of length {m_count}"),
            });
        }
        let guards: Vec<_> = terms.iter().map(Tensor::value).collect();
        let slices: Vec<&[f32]> = guards.iter().map(|g| g.data()).collect();
        let wguard = weights.value();
        let ws = wguard.data();
        let n = slices[0].len();
        // Recycled output storage; weighted_sum_into overwrites everything.
        let mut out = crate::recycle::take(n);
        let threads = if n < kernel::PAR_MIN_ELEMS {
            1
        } else {
            kernel::num_threads()
        };
        let ranges = kernel::partition(n, threads);
        if ranges.len() <= 1 {
            kernel::weighted_sum_into(&mut out, &slices, ws);
        } else {
            let base = SendPtr::new(out.as_mut_ptr());
            pool::run(ranges.len(), &|t| {
                let r = &ranges[t];
                let sub: Vec<&[f32]> = slices.iter().map(|s| &s[r.start..r.end]).collect();
                // SAFETY: disjoint partition ranges → disjoint windows.
                kernel::weighted_sum_into(unsafe { base.slice(r.start, r.len()) }, &sub, ws);
            });
        }
        drop(slices);
        drop(guards);
        drop(wguard);
        let value = Array::from_vec(out, &shape)?;
        let branch_parents: Vec<Tensor> = terms.to_vec();
        let w_parent = weights.clone();
        let mut parents = branch_parents.clone();
        parents.push(weights.clone());
        Ok(Tensor::from_op(
            value,
            parents,
            Box::new(move |g| {
                let need_w = w_parent.requires_grad();
                let wvals: Vec<f32> = w_parent.value().data().to_vec();
                // Branch gradients are independent: fan them out over the
                // pool, each task writing only its own slot, then combine
                // in ascending branch order (thread-count invariant). Tasks
                // only *read* shared state, so aliased parents are safe —
                // all accumulation happens in the sequential combine.
                // Per-branch result slot: the term gradient (when the
                // branch requires one) and the scalar weight gradient.
                type BranchSlot = std::sync::Mutex<Option<(Option<Array>, f32)>>;
                let slots: Vec<BranchSlot> =
                    (0..m_count).map(|_| std::sync::Mutex::new(None)).collect();
                let gref = &g;
                let branches = &branch_parents;
                pool::run(m_count, &|mi| {
                    let p = &branches[mi];
                    let dt = p.requires_grad().then(|| gref.map(|v| v * wvals[mi]));
                    let dw = if need_w {
                        let tv = p.value();
                        kernel::dot8(gref.data(), tv.data())
                    } else {
                        0.0
                    };
                    *slots[mi].lock().expect("slot lock") = Some((dt, dw));
                });
                let mut dwv = Vec::with_capacity(m_count);
                for (mi, slot) in slots.into_iter().enumerate() {
                    let (dt, dw) = slot
                        .into_inner()
                        .expect("slot lock")
                        .expect("branch slot filled");
                    if let Some(dt) = dt {
                        branch_parents[mi].accumulate_grad_owned(dt);
                    }
                    dwv.push(dw);
                }
                if need_w {
                    w_parent.accumulate_grad_owned(
                        Array::from_vec(dwv, &[m_count]).expect("weights grad shape"),
                    );
                }
            }),
        ))
    }

    /// Elementwise subtraction with NumPy broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when the operand shapes do not broadcast.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        let value = self.value().sub(&other.value())?;
        let (a, b) = (self.clone(), other.clone());
        let (sa, sb) = (self.shape(), other.shape());
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    if b.requires_grad() {
                        a.accumulate_grad_owned(g.reduce_to(&sa).expect("broadcast-checked"));
                    } else {
                        a.accumulate_grad_owned(g.reduce_to_owned(&sa).expect("broadcast-checked"));
                        return;
                    }
                }
                if b.requires_grad() {
                    let mut neg = g;
                    neg.map_inplace(|v| -v);
                    b.accumulate_grad_owned(neg.reduce_to_owned(&sb).expect("broadcast-checked"));
                }
            }),
        ))
    }

    /// Elementwise multiplication with NumPy broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when the operand shapes do not broadcast.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        let value = self.value().mul(&other.value())?;
        let (a, b) = (self.clone(), other.clone());
        let (sa, sb) = (self.shape(), other.shape());
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            // Operand values are read back through the parent handles at
            // backward time instead of cloning them into the closure at
            // forward time (value guards are dropped before accumulating,
            // since either parent may alias the other, e.g. `x.mul(&x)`).
            Box::new(move |g| {
                if a.requires_grad() {
                    let ga = {
                        let vb = b.value();
                        g.mul(&vb).expect("broadcast-checked")
                    };
                    a.accumulate_grad_owned(ga.reduce_to_owned(&sa).expect("broadcast-checked"));
                }
                if b.requires_grad() {
                    let gb = {
                        let va = a.value();
                        g.mul(&va).expect("broadcast-checked")
                    };
                    b.accumulate_grad_owned(gb.reduce_to_owned(&sb).expect("broadcast-checked"));
                }
            }),
        ))
    }

    /// Elementwise division with NumPy broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when the operand shapes do not broadcast.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        let value = self.value().div(&other.value())?;
        let (a, b) = (self.clone(), other.clone());
        let (sa, sb) = (self.shape(), other.shape());
        Ok(Tensor::from_op(
            value,
            vec![self.clone(), other.clone()],
            // Values read back through the parent handles (guards dropped
            // before any accumulate; the parents may alias each other).
            Box::new(move |g| {
                if a.requires_grad() {
                    let ga = {
                        let vb = b.value();
                        g.div(&vb).expect("broadcast-checked")
                    };
                    a.accumulate_grad_owned(ga.reduce_to_owned(&sa).expect("broadcast-checked"));
                }
                if b.requires_grad() {
                    // d/db (a/b) = -a / b^2
                    let b2 = {
                        let vb = b.value();
                        vb.mul(&vb).expect("same-shape")
                    };
                    let mut gb = {
                        let va = a.value();
                        g.mul(&va)
                            .expect("broadcast-checked")
                            .div(&b2)
                            .expect("broadcast-checked")
                    };
                    gb.map_inplace(|v| -v);
                    b.accumulate_grad_owned(gb.reduce_to_owned(&sb).expect("broadcast-checked"));
                }
            }),
        ))
    }

    /// Adds a scalar constant to every element.
    #[must_use]
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let value = self.value().map(|v| v + s);
        let a = self.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    a.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// Multiplies every element by a scalar constant.
    #[must_use]
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        let value = self.value().map(|v| v * s);
        let a = self.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    let mut g = g;
                    g.map_inplace(|v| v * s);
                    a.accumulate_grad_owned(g);
                }
            }),
        )
    }

    /// Raises every element to the power `p` (elementwise `v^p`).
    ///
    /// Gradients use `p * v^(p-1)`; for non-integer `p` the input should be
    /// positive.
    #[must_use]
    pub fn powf(&self, p: f32) -> Tensor {
        let value = self.value().map(|v| v.powf(p));
        let a = self.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    let gd = {
                        let va = a.value();
                        g.zip_same(&va, |gv, v| gv * (p * v.powf(p - 1.0)))
                    };
                    a.accumulate_grad_owned(gd);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::param(Array::from_vec(v, s).unwrap())
    }

    #[test]
    fn add_n_matches_chained_add_and_grads_every_parent() {
        let terms: Vec<Tensor> = (0..5)
            .map(|m| t(vec![m as f32, 1.0 + m as f32, -0.5 * m as f32], &[3]))
            .collect();
        let fused = Tensor::add_n(&terms).unwrap();
        let mut chained = terms[0].clone();
        for term in &terms[1..] {
            chained = chained.add(term).unwrap();
        }
        assert_eq!(fused.value().data(), chained.value().data());
        fused.sum().backward();
        for term in &terms {
            assert_eq!(term.grad().unwrap().data(), &[1.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn add_n_single_term_is_identity_with_grad() {
        let a = t(vec![2.0, -3.0], &[2]);
        let y = Tensor::add_n(std::slice::from_ref(&a)).unwrap();
        assert_eq!(y.value().data(), &[2.0, -3.0]);
        y.sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn add_n_validates() {
        assert!(Tensor::add_n(&[]).is_err());
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.0, 3.0], &[3]);
        assert!(Tensor::add_n(&[a, b]).is_err());
    }

    /// Deterministic pseudo-random branch values for the mixture tests.
    fn mixture_terms(m_count: usize, n: usize) -> Vec<Tensor> {
        (0..m_count)
            .map(|m| {
                let v: Vec<f32> = (0..n)
                    .map(|i| ((i * 37 + m * 11) as f32 * 0.3).sin())
                    .collect();
                t(v, &[n])
            })
            .collect()
    }

    #[test]
    fn weighted_add_n_forward_is_bitwise_identical_to_unfused() {
        let terms = mixture_terms(4, 13);
        let weights = t(vec![0.37, 0.21, 0.15, 0.27], &[4]);
        let fused = Tensor::weighted_add_n(&terms, &weights).unwrap();
        // Unfused reference: per-branch scalar mul, then the add_n chain.
        let scaled: Vec<Tensor> = terms
            .iter()
            .enumerate()
            .map(|(m, term)| term.mul(&weights.select(m).unwrap()).unwrap())
            .collect();
        let unfused = Tensor::add_n(&scaled).unwrap();
        assert_eq!(fused.value().data(), unfused.value().data());
    }

    #[test]
    fn weighted_add_n_branch_grads_are_bitwise_identical_to_unfused() {
        let terms_f = mixture_terms(3, 9);
        let terms_u = mixture_terms(3, 9);
        let wv = vec![0.5, 0.3, 0.2];
        let weights_f = t(wv.clone(), &[3]);
        let weights_u = t(wv, &[3]);
        Tensor::weighted_add_n(&terms_f, &weights_f)
            .unwrap()
            .sum()
            .backward();
        let scaled: Vec<Tensor> = terms_u
            .iter()
            .enumerate()
            .map(|(m, term)| term.mul(&weights_u.select(m).unwrap()).unwrap())
            .collect();
        Tensor::add_n(&scaled).unwrap().sum().backward();
        for (tf, tu) in terms_f.iter().zip(&terms_u) {
            assert_eq!(tf.grad().unwrap().data(), tu.grad().unwrap().data());
        }
        // Weight gradients agree numerically (the fused kernel uses the
        // fixed 8-lane dot, the unfused path a broadcast-reduce).
        let gf = weights_f.grad().unwrap();
        let gu = weights_u.grad().unwrap();
        for (a, b) in gf.data().iter().zip(gu.data()) {
            assert!((a - b).abs() < 1e-5, "weight grad {a} vs {b}");
        }
    }

    #[test]
    fn weighted_add_n_gradients_match_finite_difference() {
        let m_count = 3;
        let n = 5;
        let base_w = [0.6, 0.25, 0.15];
        let loss_at = |wv: &[f32]| -> f32 {
            let terms = mixture_terms(m_count, n);
            let w = t(wv.to_vec(), &[m_count]);
            Tensor::weighted_add_n(&terms, &w)
                .unwrap()
                .square()
                .sum()
                .item()
        };
        let terms = mixture_terms(m_count, n);
        let w = t(base_w.to_vec(), &[m_count]);
        Tensor::weighted_add_n(&terms, &w)
            .unwrap()
            .square()
            .sum()
            .backward();
        let analytic = w.grad().unwrap();
        let eps = 1e-3;
        for m in 0..m_count {
            let mut hi = base_w.to_vec();
            let mut lo = base_w.to_vec();
            hi[m] += eps;
            lo[m] -= eps;
            let numeric = (loss_at(&hi) - loss_at(&lo)) / (2.0 * eps);
            let a = analytic.data()[m];
            assert!(
                (a - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "weight {m}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn weighted_add_n_validates() {
        let w = t(vec![1.0], &[1]);
        assert!(Tensor::weighted_add_n(&[], &w).is_err());
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![1.0, 2.0, 3.0], &[3]);
        assert!(Tensor::weighted_add_n(&[a.clone(), b], &w).is_err());
        // Weights must be rank-1 of length M.
        let w2 = t(vec![1.0, 0.0], &[2]);
        assert!(Tensor::weighted_add_n(std::slice::from_ref(&a), &w2).is_err());
        let wmat = t(vec![1.0], &[1, 1]);
        assert!(Tensor::weighted_add_n(std::slice::from_ref(&a), &wmat).is_err());
    }

    #[test]
    fn add_grad_both_sides() {
        let a = t(vec![1.0, 2.0], &[2]);
        let b = t(vec![3.0, 4.0], &[2]);
        let y = a.add(&b).unwrap().sum();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0, 1.0]);
        assert_eq!(b.grad().unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn add_broadcast_grad_reduces() {
        // [2,3] + [3]: bias grad sums over the batch axis.
        let a = t(vec![0.0; 6], &[2, 3]);
        let b = t(vec![0.0; 3], &[3]);
        let y = a.add(&b).unwrap().sum();
        y.backward();
        assert_eq!(b.grad().unwrap().data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn sub_grad_signs() {
        let a = t(vec![5.0], &[1]);
        let b = t(vec![3.0], &[1]);
        let y = a.sub(&b).unwrap().sum();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0]);
        assert_eq!(b.grad().unwrap().data(), &[-1.0]);
    }

    #[test]
    fn mul_grad_cross() {
        let a = t(vec![2.0], &[1]);
        let b = t(vec![7.0], &[1]);
        let y = a.mul(&b).unwrap().sum();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[7.0]);
        assert_eq!(b.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn div_grad() {
        let a = t(vec![6.0], &[1]);
        let b = t(vec![3.0], &[1]);
        let y = a.div(&b).unwrap().sum();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0 / 3.0]);
        assert!((b.grad().unwrap().data()[0] - (-6.0 / 9.0)).abs() < 1e-6);
    }

    #[test]
    fn scalar_ops_grad() {
        let a = t(vec![3.0], &[1]);
        let y = a.mul_scalar(5.0).add_scalar(1.0).sum();
        y.backward();
        assert_eq!(y.item(), 16.0);
        assert_eq!(a.grad().unwrap().data(), &[5.0]);
    }

    #[test]
    fn powf_grad() {
        let a = t(vec![2.0], &[1]);
        let y = a.powf(3.0).sum();
        y.backward();
        assert_eq!(y.item(), 8.0);
        assert_eq!(a.grad().unwrap().data(), &[12.0]); // 3 * 2^2
    }

    #[test]
    fn constant_branch_gets_no_grad() {
        let a = t(vec![1.0], &[1]);
        let c = Tensor::scalar(2.0);
        let y = a.mul(&c).unwrap().sum();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[2.0]);
        assert!(c.grad().is_none());
    }
}
