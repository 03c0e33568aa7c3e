//! Elementwise unary functions and their gradients.

use crate::tensor::Tensor;

/// Builds a unary elementwise op node given forward values and the local
/// derivative computed from the *input* values.
///
/// The backward pass fuses `g * f'(x)` into a single traversal
/// ([`crate::Array::zip_same`]): one allocation instead of two, and pool-chunked
/// for large activations.
fn unary(
    input: &Tensor,
    fwd: impl Fn(f32) -> f32 + Sync,
    dfd: impl Fn(f32) -> f32 + Send + Sync + 'static,
) -> Tensor {
    let value = input.value().map(&fwd);
    let a = input.clone();
    Tensor::from_op(
        value,
        vec![input.clone()],
        // The input values are read back through the parent handle at
        // backward time rather than cloned into the closure at forward
        // time; the value guard is dropped before accumulating into the
        // same node.
        Box::new(move |g| {
            if a.requires_grad() {
                let dx = {
                    let va = a.value();
                    g.zip_same(&va, |gv, v| gv * dfd(v))
                };
                a.accumulate_grad_owned(dx);
            }
        }),
    )
}

impl Tensor {
    /// Elementwise exponential.
    #[must_use]
    pub fn exp(&self) -> Tensor {
        unary(self, f32::exp, f32::exp)
    }

    /// Elementwise natural logarithm. Inputs should be positive.
    #[must_use]
    pub fn log(&self) -> Tensor {
        unary(self, f32::ln, |v| 1.0 / v)
    }

    /// Elementwise square root. Inputs should be non-negative.
    #[must_use]
    pub fn sqrt(&self) -> Tensor {
        unary(self, f32::sqrt, |v| 0.5 / v.sqrt())
    }

    /// Elementwise hyperbolic tangent.
    #[must_use]
    pub fn tanh(&self) -> Tensor {
        unary(self, f32::tanh, |v| {
            let t = v.tanh();
            1.0 - t * t
        })
    }

    /// Rectified linear unit `max(v, 0)`.
    #[must_use]
    pub fn relu(&self) -> Tensor {
        unary(self, |v| v.max(0.0), |v| if v > 0.0 { 1.0 } else { 0.0 })
    }

    /// ReLU6, `min(max(v, 0), 6)` — the activation used by MobileNet-style
    /// blocks (and by the MBConv candidate operations in the EDD supernet).
    #[must_use]
    pub fn relu6(&self) -> Tensor {
        unary(
            self,
            |v| v.clamp(0.0, 6.0),
            |v| if v > 0.0 && v < 6.0 { 1.0 } else { 0.0 },
        )
    }

    /// Elementwise square.
    #[must_use]
    pub fn square(&self) -> Tensor {
        unary(self, |v| v * v, |v| 2.0 * v)
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    #[must_use]
    pub fn abs(&self) -> Tensor {
        unary(self, f32::abs, |v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Clamps values to `[lo, hi]`; gradient is 1 strictly inside the range
    /// and 0 outside (a hard clamp, not a straight-through estimator).
    #[must_use]
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        unary(
            self,
            move |v| v.clamp(lo, hi),
            move |v| if v > lo && v < hi { 1.0 } else { 0.0 },
        )
    }

    /// Fake-quantizes values to `bits`-bit symmetric fixed point over
    /// `[-range, range]` with a straight-through estimator: forward rounds to
    /// the quantization grid, backward passes the gradient unchanged inside
    /// the representable range (and zero outside).
    ///
    /// This is the Stage-1 differentiable quantization primitive of the EDD
    /// formulation: it lets accuracy loss feel the chosen bit-width while
    /// remaining trainable.
    #[must_use]
    pub fn fake_quantize(&self, bits: u32, range: f32) -> Tensor {
        let levels = (1u64 << (bits.clamp(1, 31) - 1)) as f32; // half-range levels
        let step = range / levels;
        let fwd = move |v: f32| {
            let clamped = v.clamp(-range, range);
            (clamped / step).round() * step
        };
        let value = self.value().map(fwd);
        let a = self.clone();
        Tensor::from_op(
            value,
            vec![self.clone()],
            Box::new(move |g| {
                if a.requires_grad() {
                    // STE: pass-through inside the clamp range, fused with
                    // the incoming gradient in one traversal. Input values
                    // are read back via the parent handle (guard dropped
                    // before accumulating).
                    let dx = {
                        let va = a.value();
                        g.zip_same(&va, |gv, v| if v.abs() <= range { gv } else { 0.0 })
                    };
                    a.accumulate_grad_owned(dx);
                }
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;

    fn t(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::param(Array::from_vec(v, &[n]).unwrap())
    }

    #[test]
    fn exp_log_inverse() {
        let a = t(vec![0.5, 1.0, 2.0]);
        let y = a.exp().log();
        for (x, y) in a.value().data().iter().zip(y.value().data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn exp_grad() {
        let a = t(vec![1.0]);
        let y = a.exp().sum();
        y.backward();
        assert!((a.grad().unwrap().data()[0] - std::f32::consts::E).abs() < 1e-5);
    }

    #[test]
    fn log_grad() {
        let a = t(vec![4.0]);
        a.log().sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[0.25]);
    }

    #[test]
    fn sqrt_grad() {
        let a = t(vec![9.0]);
        a.sqrt().sum().backward();
        assert!((a.grad().unwrap().data()[0] - 1.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_saturates_and_grads() {
        let a = t(vec![0.0, 100.0]);
        let y = a.tanh();
        assert_eq!(y.value().data()[0], 0.0);
        assert!((y.value().data()[1] - 1.0).abs() < 1e-6);
        y.sum().backward();
        let g = a.grad().unwrap();
        assert_eq!(g.data()[0], 1.0);
        assert!(g.data()[1].abs() < 1e-6);
    }

    #[test]
    fn relu_masks_negatives() {
        let a = t(vec![-1.0, 2.0]);
        let y = a.relu();
        assert_eq!(y.value().data(), &[0.0, 2.0]);
        y.sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn relu6_clips_high() {
        let a = t(vec![-1.0, 3.0, 10.0]);
        let y = a.relu6();
        assert_eq!(y.value().data(), &[0.0, 3.0, 6.0]);
        y.sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn clamp_interior_gradient() {
        let a = t(vec![-5.0, 0.5, 5.0]);
        let y = a.clamp(-1.0, 1.0);
        assert_eq!(y.value().data(), &[-1.0, 0.5, 1.0]);
        y.sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn fake_quantize_rounds_to_grid() {
        let a = t(vec![0.26, -0.9]);
        // 2 levels over [-1,1]: step 0.5 with 2-bit quantization.
        let y = a.fake_quantize(2, 1.0);
        assert_eq!(y.value().data(), &[0.5, -1.0]);
    }

    #[test]
    fn fake_quantize_ste_passes_gradient() {
        let a = t(vec![0.3, 5.0]);
        let y = a.fake_quantize(4, 1.0);
        y.sum().backward();
        // In-range passes gradient; out-of-range blocked.
        assert_eq!(a.grad().unwrap().data(), &[1.0, 0.0]);
    }

    #[test]
    fn square_abs_grad() {
        let a = t(vec![-3.0]);
        a.square().sum().backward();
        assert_eq!(a.grad().unwrap().data(), &[-6.0]);
        let b = t(vec![-3.0]);
        b.abs().sum().backward();
        assert_eq!(b.grad().unwrap().data(), &[-1.0]);
    }
}
