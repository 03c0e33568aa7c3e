//! Softmax-family ops: softmax and fused softmax cross-entropy, each with a
//! hand-derived backward pass.

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::kernel;
use crate::tensor::Tensor;

/// Computes a numerically-stable softmax along the last axis of `x`,
/// returning a new array of the same shape. Rows are independent, so they
/// fan out over the worker pool for large inputs with bitwise-identical
/// results at any thread count.
#[must_use]
pub fn softmax_last_axis(x: &Array) -> Array {
    let shape = x.shape().to_vec();
    let c = (*shape.last().unwrap_or(&1)).max(1);
    let mut out = x.clone();
    kernel::par_rows(out.data_mut(), c, |_, row| {
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut s = 0.0;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            s += *v;
        }
        for v in row.iter_mut() {
            *v /= s;
        }
    });
    out
}

impl Tensor {
    /// Softmax along the last axis (requires rank >= 1).
    ///
    /// Backward uses the Jacobian-vector product
    /// `dx = s ⊙ (g − ⟨g, s⟩)` per row.
    ///
    /// # Errors
    ///
    /// Returns an error for rank-0 input.
    pub fn softmax(&self) -> Result<Tensor> {
        let shape = self.shape();
        if shape.is_empty() {
            return Err(TensorError::InvalidShape {
                shape,
                reason: "softmax requires rank >= 1".into(),
            });
        }
        let s = softmax_last_axis(&self.value());
        let a = self.clone();
        let s_saved = s.clone();
        Ok(Tensor::from_op(
            s,
            vec![self.clone()],
            Box::new(move |g| {
                if !a.requires_grad() {
                    return;
                }
                let shape = s_saved.shape().to_vec();
                let c = *shape.last().unwrap();
                // Every element of every row is written below, so the
                // buffer can start uninitialized (pool-recycled).
                let mut dx = Array::uninit(&shape);
                kernel::par_rows(dx.data_mut(), c, |r, drow| {
                    let srow = &s_saved.data()[r * c..(r + 1) * c];
                    let grow = &g.data()[r * c..(r + 1) * c];
                    let dot: f32 = srow.iter().zip(grow).map(|(&s, &g)| s * g).sum();
                    for i in 0..c {
                        drow[i] = srow[i] * (grow[i] - dot);
                    }
                });
                a.accumulate_grad_owned(dx);
            }),
        ))
    }

    /// Fused mean softmax cross-entropy between logits `[batch, classes]`
    /// and integer class `labels` (one per row); returns a scalar loss.
    ///
    /// Backward is the classic `(softmax − one-hot) / batch`.
    ///
    /// # Errors
    ///
    /// Returns an error unless the tensor is rank-2 with `labels.len()`
    /// equal to the batch dimension and every label in range.
    pub fn cross_entropy(&self, labels: &[usize]) -> Result<Tensor> {
        let shape = self.shape();
        if shape.len() != 2 {
            return Err(TensorError::InvalidShape {
                shape,
                reason: "cross_entropy expects [batch, classes] logits".into(),
            });
        }
        let (b, c) = (shape[0], shape[1]);
        if labels.len() != b {
            return Err(TensorError::InvalidArgument(format!(
                "labels length {} != batch {b}",
                labels.len()
            )));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= c) {
            return Err(TensorError::InvalidArgument(format!(
                "label {bad} out of range for {c} classes"
            )));
        }
        let probs = softmax_last_axis(&self.value());
        let mut loss = 0.0f32;
        for (r, &lab) in labels.iter().enumerate() {
            loss -= probs.data()[r * c + lab].max(1e-30).ln();
        }
        loss /= b as f32;
        let a = self.clone();
        let labels = labels.to_vec();
        Ok(Tensor::from_op(
            Array::scalar(loss),
            vec![self.clone()],
            Box::new(move |g| {
                if !a.requires_grad() {
                    return;
                }
                let scale = g.item() / b as f32;
                let mut dx = probs.clone();
                kernel::par_rows(dx.data_mut(), c, |r, row| {
                    let lab = labels[r];
                    for (k, v) in row.iter_mut().enumerate() {
                        let t = if k == lab { 1.0 } else { 0.0 };
                        *v = (*v - t) * scale;
                    }
                });
                a.accumulate_grad_owned(dx);
            }),
        ))
    }
}

/// Top-1 accuracy of logits `[batch, classes]` against integer labels.
///
/// # Panics
///
/// Panics if `logits` is not rank-2 or `labels.len()` differs from the batch.
#[must_use]
pub fn accuracy(logits: &Array, labels: &[usize]) -> f32 {
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "accuracy expects [batch, classes]");
    let (b, c) = (shape[0], shape[1]);
    assert_eq!(labels.len(), b);
    let mut correct = 0usize;
    #[allow(clippy::needless_range_loop)] // lockstep multi-array indexing
    for r in 0..b {
        let row = &logits.data()[r * c..(r + 1) * c];
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        if best == labels[r] {
            correct += 1;
        }
    }
    correct as f32 / b as f32
}

/// Top-k accuracy of logits `[batch, classes]` against integer labels.
///
/// # Panics
///
/// Panics if `logits` is not rank-2 or `labels.len()` differs from the batch.
#[must_use]
pub fn top_k_accuracy(logits: &Array, labels: &[usize], k: usize) -> f32 {
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "top_k_accuracy expects [batch, classes]");
    let (b, c) = (shape[0], shape[1]);
    assert_eq!(labels.len(), b);
    let k = k.min(c);
    let mut correct = 0usize;
    for r in 0..b {
        let row = &logits.data()[r * c..(r + 1) * c];
        let target = row[labels[r]];
        // Count entries strictly greater than the target's score.
        let higher = row.iter().filter(|&&v| v > target).count();
        if higher < k {
            correct += 1;
        }
    }
    correct as f32 / b as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let x =
            Tensor::param(Array::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap());
        let s = x.softmax().unwrap();
        let v = s.value();
        let r0: f32 = v.data()[..3].iter().sum();
        let r1: f32 = v.data()[3..].iter().sum();
        assert!((r0 - 1.0).abs() < 1e-6 && (r1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_invariant_to_shift() {
        let a = Array::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = a.map(|v| v + 1000.0);
        let sa = softmax_last_axis(&a);
        let sb = softmax_last_axis(&b);
        for (x, y) in sa.data().iter().zip(sb.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        // Because softmax output sums to 1, row gradients sum to 0 when
        // seeded with any g.
        let x = Tensor::param(Array::from_vec(vec![0.3, -0.7, 1.1], &[1, 3]).unwrap());
        let s = x.softmax().unwrap();
        let w = Tensor::constant(Array::from_vec(vec![1.0, 5.0, -2.0], &[1, 3]).unwrap());
        s.mul(&w).unwrap().sum().backward();
        let g = x.grad().unwrap();
        let total: f32 = g.data().iter().sum();
        assert!(total.abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_perfect_prediction_small() {
        let logits = Tensor::param(
            Array::from_vec(vec![100.0, 0.0, 0.0, 0.0, 100.0, 0.0], &[2, 3]).unwrap(),
        );
        let loss = logits.cross_entropy(&[0, 1]).unwrap();
        assert!(loss.item() < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let logits = Tensor::param(Array::zeros(&[4, 10]));
        let loss = logits.cross_entropy(&[0, 1, 2, 3]).unwrap();
        assert!((loss.item() - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_formula() {
        let logits = Tensor::param(Array::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
        let loss = logits.cross_entropy(&[0]).unwrap();
        loss.backward();
        let g = logits.grad().unwrap();
        let p = softmax_last_axis(&logits.value());
        assert!((g.data()[0] - (p.data()[0] - 1.0)).abs() < 1e-6);
        assert!((g.data()[1] - p.data()[1]).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_validates() {
        let logits = Tensor::param(Array::zeros(&[2, 3]));
        assert!(logits.cross_entropy(&[0]).is_err()); // wrong batch
        assert!(logits.cross_entropy(&[0, 3]).is_err()); // label out of range
        let bad = Tensor::param(Array::zeros(&[6]));
        assert!(bad.cross_entropy(&[0]).is_err()); // wrong rank
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Array::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2]).unwrap();
        assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(accuracy(&logits, &[1, 1]), 0.5);
    }

    #[test]
    fn top_k_accuracy_wider_is_easier() {
        let logits = Array::from_vec(
            vec![0.5, 0.4, 0.3, 0.2, 0.1, 0.0, 0.1, 0.2, 0.3, 0.4],
            &[2, 5],
        )
        .unwrap();
        let labels = [1usize, 2];
        let t1 = top_k_accuracy(&logits, &labels, 1);
        let t3 = top_k_accuracy(&logits, &labels, 3);
        assert!(t3 >= t1);
        assert_eq!(top_k_accuracy(&logits, &labels, 5), 1.0);
    }
}
