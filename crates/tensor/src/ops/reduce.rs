//! Reduction ops (sum / mean, whole-tensor and per-axis) and shape ops
//! (reshape, transpose) with gradients.

use crate::array::Array;
use crate::error::Result;
use crate::tensor::Tensor;

impl Tensor {
    /// Sums all elements into a scalar.
    #[must_use]
    pub fn sum(&self) -> Tensor {
        let value = Array::scalar(self.value().sum());
        let a = self.clone();
        let shape = self.shape();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    a.accumulate_grad_owned(Array::full(&shape, g.item()));
                }
            }),
        )
    }

    /// Mean over all elements, as a scalar.
    #[must_use]
    pub fn mean(&self) -> Tensor {
        let n = self.value().len() as f32;
        self.sum().mul_scalar(1.0 / n)
    }

    /// Sums over `axis`, removing it from the shape.
    ///
    /// # Errors
    ///
    /// Returns an error when `axis` is out of range.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        let value = self.value().sum_axis(axis)?;
        let a = self.clone();
        let in_shape = self.shape();
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    // Broadcast the reduced gradient back over the summed axis.
                    let mut expanded_shape = in_shape.clone();
                    expanded_shape[axis] = 1;
                    let gb = g
                        .reshape(&expanded_shape)
                        .expect("sum_axis grad reshape")
                        .mul(&Array::ones(&in_shape))
                        .expect("sum_axis grad broadcast");
                    a.accumulate_grad_owned(gb);
                }
            }),
        ))
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns an error when the volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let value = self.value().reshape(shape)?;
        let a = self.clone();
        let in_shape = self.shape();
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    a.accumulate_grad_owned(g.reshape(&in_shape).expect("reshape grad"));
                }
            }),
        ))
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns an error when the tensor is not rank-2.
    pub fn transpose2d(&self) -> Result<Tensor> {
        let value = self.value().transpose2d()?;
        let a = self.clone();
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    a.accumulate_grad_owned(g.transpose2d().expect("transpose grad"));
                }
            }),
        ))
    }

    /// Stacks rank-0 tensors into a rank-1 tensor of length `n`, preserving
    /// gradients to each element. Useful for aggregating per-block scalars
    /// (e.g. per-block latency terms) into a vector.
    ///
    /// # Errors
    ///
    /// Returns an error if `scalars` is empty or any element is not rank-0.
    pub fn stack_scalars(scalars: &[Tensor]) -> Result<Tensor> {
        if scalars.is_empty() {
            return Err(crate::error::TensorError::InvalidArgument(
                "stack_scalars on empty slice".into(),
            ));
        }
        let mut data = Vec::with_capacity(scalars.len());
        for s in scalars {
            let v = s.value();
            if v.len() != 1 {
                return Err(crate::error::TensorError::InvalidShape {
                    shape: v.shape().to_vec(),
                    reason: "stack_scalars requires scalar elements".into(),
                });
            }
            data.push(v.item());
        }
        let value = Array::from_vec(data, &[scalars.len()])?;
        let parents: Vec<Tensor> = scalars.to_vec();
        let captured = parents.clone();
        Ok(Tensor::from_op(
            value,
            parents,
            Box::new(move |g| {
                for (i, s) in captured.iter().enumerate() {
                    if s.requires_grad() {
                        let mut gs = Array::zeros(s.value().shape());
                        gs.data_mut()[0] = g.data()[i];
                        s.accumulate_grad_owned(gs);
                    }
                }
            }),
        ))
    }

    /// Selects one element of the tensor (by flat row-major index) as a
    /// rank-0 tensor, routing the gradient back to that element only.
    ///
    /// # Errors
    ///
    /// Returns an error when `index` is out of range.
    pub fn select(&self, index: usize) -> Result<Tensor> {
        let n = self.value().len();
        if index >= n {
            return Err(crate::error::TensorError::InvalidArgument(format!(
                "select index {index} out of range for {n} elements"
            )));
        }
        let value = Array::scalar(self.value().data()[index]);
        let a = self.clone();
        let shape = self.shape();
        Ok(Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    let mut ga = Array::zeros(&shape);
                    ga.data_mut()[index] = g.item();
                    a.accumulate_grad_owned(ga);
                }
            }),
        ))
    }

    /// Differentiable Log-Sum-Exp over all elements: a smooth approximation
    /// of the maximum, `max(x) <= lse(x) <= max(x) + ln(n)`.
    ///
    /// This implements the paper's Eq. 7, used to express throughput
    /// objectives (max block latency) differentiably. Shift-invariant
    /// stabilization is applied internally.
    #[must_use]
    pub fn logsumexp(&self) -> Tensor {
        // lse(x) = m + log(sum(exp(x - m))) with m = max(x), built from
        // primitive differentiable ops (the shift is a constant).
        let m = self.value().max();
        self.add_scalar(-m).exp().sum().log().add_scalar(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::param(Array::from_vec(v, s).unwrap())
    }

    #[test]
    fn sum_and_grad() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let y = a.sum();
        assert_eq!(y.item(), 6.0);
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn mean_grad_scales() {
        let a = t(vec![2.0, 4.0], &[2]);
        let y = a.mean();
        assert_eq!(y.item(), 3.0);
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[0.5, 0.5]);
    }

    #[test]
    fn sum_axis_grad_broadcasts_back() {
        let a = t((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let y = a.sum_axis(0).unwrap(); // shape [3]
        assert_eq!(y.value().data(), &[3.0, 5.0, 7.0]);
        y.sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0; 6]);
    }

    #[test]
    fn reshape_grad_roundtrips() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = a.reshape(&[4]).unwrap();
        y.sum().backward();
        assert_eq!(a.grad().unwrap().shape(), &[2, 2]);
        assert!(a.reshape(&[3]).is_err());
    }

    #[test]
    fn transpose_grad_transposes_back() {
        let a = t((0..6).map(|v| v as f32).collect(), &[2, 3]);
        let y = a.transpose2d().unwrap();
        assert_eq!(y.shape(), vec![3, 2]);
        y.sum().backward();
        assert_eq!(a.grad().unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn stack_scalars_collects_and_routes_grads() {
        let xs: Vec<Tensor> = (0..3)
            .map(|i| Tensor::param(Array::scalar(i as f32)))
            .collect();
        let v = Tensor::stack_scalars(&xs).unwrap();
        assert_eq!(v.value().data(), &[0.0, 1.0, 2.0]);
        // weight each element differently to check routing
        let w = Tensor::constant(Array::from_vec(vec![1.0, 10.0, 100.0], &[3]).unwrap());
        v.mul(&w).unwrap().sum().backward();
        assert_eq!(xs[0].grad().unwrap().item(), 1.0);
        assert_eq!(xs[1].grad().unwrap().item(), 10.0);
        assert_eq!(xs[2].grad().unwrap().item(), 100.0);
    }

    #[test]
    fn stack_scalars_rejects_bad_input() {
        assert!(Tensor::stack_scalars(&[]).is_err());
        let v = t(vec![1.0, 2.0], &[2]);
        assert!(Tensor::stack_scalars(&[v]).is_err());
    }

    #[test]
    fn select_routes_gradient() {
        let a = t(vec![1.0, 2.0, 3.0], &[3]);
        let y = a.select(1).unwrap();
        assert_eq!(y.item(), 2.0);
        y.mul_scalar(10.0).backward();
        assert_eq!(a.grad().unwrap().data(), &[0.0, 10.0, 0.0]);
        assert!(a.select(3).is_err());
    }

    #[test]
    fn logsumexp_bounds_max() {
        let a = t(vec![1.0, 3.0, 2.0], &[3]);
        let l = a.logsumexp().item();
        assert!(l >= 3.0 && l <= 3.0 + (3.0f32).ln() + 1e-6, "lse {l}");
    }

    #[test]
    fn logsumexp_grad_is_softmax() {
        let a = t(vec![1.0, 2.0], &[2]);
        a.logsumexp().backward();
        let g = a.grad().unwrap();
        let e1 = (1.0f32).exp();
        let e2 = (2.0f32).exp();
        assert!((g.data()[0] - e1 / (e1 + e2)).abs() < 1e-5);
        assert!((g.data()[1] - e2 / (e1 + e2)).abs() < 1e-5);
    }

    #[test]
    fn logsumexp_stable_for_large_inputs() {
        let a = t(vec![1000.0, 1000.0], &[2]);
        let l = a.logsumexp().item();
        assert!((l - (1000.0 + (2.0f32).ln())).abs() < 1e-2);
    }
}
