//! 2-D batch normalization layer with running statistics.

use crate::module::Module;
use edd_tensor::{Array, Result, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Batch normalization over NCHW activations.
///
/// In training mode (the default) the layer normalizes with batch statistics
/// and updates exponential running estimates; in evaluation mode it
/// normalizes with the stored running statistics (differentiably with
/// respect to `gamma`/`beta` and the input). Both modes run as one fused
/// `edd-tensor` op node.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    running_mean: Mutex<Array>,
    running_var: Mutex<Array>,
    momentum: f32,
    eps: f32,
    training: AtomicBool,
    channels: usize,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` channels with the usual
    /// defaults (`momentum = 0.1`, `eps = 1e-5`).
    #[must_use]
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Tensor::param(Array::ones(&[channels])),
            beta: Tensor::param(Array::zeros(&[channels])),
            running_mean: Mutex::new(Array::zeros(&[channels])),
            running_var: Mutex::new(Array::ones(&[channels])),
            momentum: 0.1,
            eps: 1e-5,
            training: AtomicBool::new(true),
            channels,
        }
    }

    /// The per-channel scale parameter `gamma`.
    #[must_use]
    pub fn gamma(&self) -> &Tensor {
        &self.gamma
    }

    /// The per-channel shift parameter `beta`.
    #[must_use]
    pub fn beta(&self) -> &Tensor {
        &self.beta
    }

    /// Numerical-stability epsilon added to the variance.
    #[must_use]
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Current running mean estimate.
    #[must_use]
    pub fn running_mean(&self) -> Array {
        self.running_mean.lock().expect("bn stats poisoned").clone()
    }

    /// Current running variance estimate.
    #[must_use]
    pub fn running_var(&self) -> Array {
        self.running_var.lock().expect("bn stats poisoned").clone()
    }

    /// Whether the layer is in training mode.
    #[must_use]
    pub fn is_training(&self) -> bool {
        self.training.load(Ordering::Relaxed)
    }

    /// Replaces both running statistics (checkpoint restore). The running
    /// estimates are state, not parameters — `parameters()` does not expose
    /// them — so resuming a search must set them through this hook.
    ///
    /// # Errors
    ///
    /// Rejects statistics whose shape is not `[channels]`.
    pub fn set_running_stats(&self, mean: Array, var: Array) -> Result<()> {
        let want = [self.channels];
        for (name, a) in [("mean", &mean), ("var", &var)] {
            if a.shape() != want {
                return Err(edd_tensor::TensorError::InvalidArgument(format!(
                    "BatchNorm2d::set_running_stats: {name} has shape {:?}, expected {want:?}",
                    a.shape()
                )));
            }
        }
        *self.running_mean.lock().expect("bn stats poisoned") = mean;
        *self.running_var.lock().expect("bn stats poisoned") = var;
        Ok(())
    }

    /// Exponential moving average of the running statistics toward the batch
    /// statistics of the current forward pass.
    fn update_running_stats(&self, batch_mean: &Array, batch_var: &Array) {
        let mut rm = self.running_mean.lock().expect("bn stats poisoned");
        let mut rv = self.running_var.lock().expect("bn stats poisoned");
        for c in 0..self.channels {
            rm.data_mut()[c] =
                (1.0 - self.momentum) * rm.data()[c] + self.momentum * batch_mean.data()[c];
            rv.data_mut()[c] =
                (1.0 - self.momentum) * rv.data()[c] + self.momentum * batch_var.data()[c];
        }
    }

    /// Forward pass fused with a ReLU6 activation: `relu6(bn(x))`.
    ///
    /// In either mode this runs as a single fused op node — bitwise
    /// identical to `forward(x)?.relu6()` but with one fewer graph node and
    /// one fewer full-tensor gradient buffer per call.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying ops.
    pub fn forward_relu6(&self, x: &Tensor) -> Result<Tensor> {
        if self.is_training() {
            let bn = x.batch_norm2d_relu6_train(&self.gamma, &self.beta, self.eps)?;
            self.update_running_stats(&bn.batch_mean, &bn.batch_var);
            Ok(bn.output)
        } else {
            self.forward_eval(x, true)
        }
    }

    /// Eval mode: the fused op over the running statistics, which enter
    /// as constants.
    fn forward_eval(&self, x: &Tensor, relu6: bool) -> Result<Tensor> {
        let mean = self.running_mean.lock().expect("bn stats poisoned");
        let var = self.running_var.lock().expect("bn stats poisoned");
        if relu6 {
            x.batch_norm2d_relu6_eval(&self.gamma, &self.beta, &mean, &var, self.eps)
        } else {
            x.batch_norm2d_eval(&self.gamma, &self.beta, &mean, &var, self.eps)
        }
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, x: &Tensor) -> Result<Tensor> {
        if self.is_training() {
            let bn = x.batch_norm2d_train(&self.gamma, &self.beta, self.eps)?;
            self.update_running_stats(&bn.batch_mean, &bn.batch_var);
            Ok(bn.output)
        } else {
            self.forward_eval(x, false)
        }
    }

    fn parameters(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn set_training(&self, training: bool) {
        self.training.store(training, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_mode_normalizes() {
        let mut rng = StdRng::seed_from_u64(1);
        let bn = BatchNorm2d::new(3);
        let x = Tensor::constant(Array::randn(&[4, 3, 5, 5], 3.0, &mut rng));
        let y = bn.forward(&x).unwrap();
        let v = y.value();
        let mean: f32 = v.data().iter().sum::<f32>() / v.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let mut rng = StdRng::seed_from_u64(2);
        let bn = BatchNorm2d::new(1);
        // Input with mean ~5.
        let x = Tensor::constant(Array::randn(&[8, 1, 4, 4], 1.0, &mut rng).map(|v| v + 5.0));
        for _ in 0..50 {
            bn.forward(&x).unwrap();
        }
        let rm = bn.running_mean();
        assert!(
            (rm.data()[0] - 5.0).abs() < 0.3,
            "running mean {}",
            rm.data()[0]
        );
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(3);
        let bn = BatchNorm2d::new(2);
        let x = Tensor::constant(Array::randn(&[4, 2, 3, 3], 2.0, &mut rng));
        for _ in 0..100 {
            bn.forward(&x).unwrap();
        }
        bn.set_training(false);
        assert!(!bn.is_training());
        // In eval mode, the same distribution normalizes to ~zero mean.
        let y = bn.forward(&x).unwrap();
        let v = y.value();
        let mean: f32 = v.data().iter().sum::<f32>() / v.len() as f32;
        assert!(mean.abs() < 0.2, "eval mean {mean}");
        // And eval mode must not further update running stats.
        let before = bn.running_mean();
        bn.forward(&x).unwrap();
        assert_eq!(before.data(), bn.running_mean().data());
    }

    #[test]
    fn gamma_beta_are_trainable() {
        let bn = BatchNorm2d::new(4);
        assert_eq!(bn.parameters().len(), 2);
        assert_eq!(bn.num_parameters(), 8);
        assert!(bn.parameters().iter().all(Tensor::requires_grad));
    }

    #[test]
    fn forward_relu6_matches_unfused_bitwise() {
        let mut rng = StdRng::seed_from_u64(9);
        let fused = BatchNorm2d::new(3);
        let unfused = BatchNorm2d::new(3);
        for bn in [&fused, &unfused] {
            bn.gamma()
                .update_value(|a| a.data_mut().copy_from_slice(&[0.7, -1.2, 1.9]));
            bn.beta()
                .update_value(|a| a.data_mut().copy_from_slice(&[0.5, 3.0, 5.5]));
        }
        let x = Tensor::constant(Array::randn(&[2, 3, 4, 4], 2.0, &mut rng));
        let yf = fused.forward_relu6(&x).unwrap();
        let yu = unfused.forward(&x).unwrap().relu6();
        assert_eq!(yf.value().data(), yu.value().data());
        // EMA updates must agree too (same batch statistics feed both).
        assert_eq!(fused.running_mean().data(), unfused.running_mean().data());
        assert_eq!(fused.running_var().data(), unfused.running_var().data());
        // In eval mode both entry points must equal the explicit broadcast
        // chain over the running statistics.
        fused.set_training(false);
        unfused.set_training(false);
        let bshape = [1, 3, 1, 1];
        let eps = fused.eps();
        let mean = Tensor::constant(fused.running_mean().reshape(&bshape).unwrap());
        let inv_std = Tensor::constant(
            fused
                .running_var()
                .map(move |v| 1.0 / (v + eps).sqrt())
                .reshape(&bshape)
                .unwrap(),
        );
        let chain = x
            .sub(&mean)
            .unwrap()
            .mul(&inv_std)
            .unwrap()
            .mul(&fused.gamma().reshape(&bshape).unwrap())
            .unwrap()
            .add(&fused.beta().reshape(&bshape).unwrap())
            .unwrap()
            .relu6();
        let bits =
            |t: &Tensor| -> Vec<u32> { t.value().data().iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&fused.forward_relu6(&x).unwrap()), bits(&chain));
        assert_eq!(bits(&unfused.forward(&x).unwrap().relu6()), bits(&chain));
    }

    #[test]
    fn eval_mode_differentiable_wrt_gamma() {
        let mut rng = StdRng::seed_from_u64(4);
        let bn = BatchNorm2d::new(2);
        bn.set_training(false);
        let x = Tensor::constant(Array::randn(&[1, 2, 2, 2], 1.0, &mut rng));
        let y = bn.forward(&x).unwrap();
        y.sum().backward();
        assert!(bn.parameters()[0].grad().is_some());
        assert!(bn.parameters()[1].grad().is_some());
    }
}
