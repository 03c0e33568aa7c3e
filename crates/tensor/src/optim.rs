//! First-order optimizers over collections of parameter [`Tensor`]s.

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::tensor::Tensor;

/// Validates imported per-parameter moment buffers against the tracked
/// parameters: one slot per parameter, shapes matching where present.
fn check_moments(name: &str, params: &[Tensor], moments: &[Option<Array>]) -> Result<()> {
    if moments.len() != params.len() {
        return Err(TensorError::InvalidArgument(format!(
            "{name}: state has {} slots but optimizer tracks {} parameters",
            moments.len(),
            params.len()
        )));
    }
    for (i, (p, m)) in params.iter().zip(moments).enumerate() {
        if let Some(m) = m {
            let want = p.value_clone().shape().to_vec();
            if m.shape() != want.as_slice() {
                return Err(TensorError::InvalidArgument(format!(
                    "{name}: slot {i} has shape {:?} but parameter has {:?}",
                    m.shape(),
                    want
                )));
            }
        }
    }
    Ok(())
}

/// Common interface of the optimizers in this crate.
pub trait Optimizer {
    /// Applies one update step using the gradients currently accumulated on
    /// the tracked parameters. Parameters with no gradient are skipped.
    fn step(&mut self);

    /// Clears the gradients of all tracked parameters.
    fn zero_grad(&self);

    /// The parameters tracked by this optimizer.
    fn params(&self) -> &[Tensor];

    /// Sets the learning rate (for schedules).
    fn set_lr(&mut self, lr: f32);

    /// Current learning rate.
    fn lr(&self) -> f32;
}

/// Stochastic gradient descent with classical momentum and decoupled weight
/// decay.
#[derive(Debug)]
pub struct Sgd {
    params: Vec<Tensor>,
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Option<Array>>,
}

impl Sgd {
    /// Creates an SGD optimizer over `params`.
    #[must_use]
    pub fn new(params: Vec<Tensor>, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        let n = params.len();
        Sgd {
            params,
            lr,
            momentum,
            weight_decay,
            velocity: vec![None; n],
        }
    }

    /// The per-parameter momentum buffers, for checkpointing. Slots are
    /// `None` for parameters that have not received a gradient yet.
    #[must_use]
    pub fn export_state(&self) -> Vec<Option<Array>> {
        self.velocity.clone()
    }

    /// Restores momentum buffers captured by [`Sgd::export_state`].
    ///
    /// # Errors
    ///
    /// Rejects a state whose slot count or shapes do not match the tracked
    /// parameters.
    pub fn import_state(&mut self, velocity: Vec<Option<Array>>) -> Result<()> {
        check_moments("Sgd::import_state", &self.params, &velocity)?;
        self.velocity = velocity;
        Ok(())
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        let lr = self.lr;
        for (i, p) in self.params.iter().enumerate() {
            // The gradient is consumed by the step (moved out of the
            // parameter, buffer recycled on drop); `zero_grad` afterwards
            // stays a harmless no-op.
            let Some(mut g) = p.take_grad() else { continue };
            if self.weight_decay != 0.0 {
                let v = p.value();
                g.add_scaled_assign(&v, self.weight_decay);
            }
            if self.momentum != 0.0 {
                let vel = self.velocity[i].get_or_insert_with(|| Array::zeros(g.shape()));
                // v <- mu * v + g
                for (v, &gv) in vel.data_mut().iter_mut().zip(g.data()) {
                    *v = self.momentum * *v + gv;
                }
                // Apply the velocity directly — no clone of the buffer.
                let vel = &*vel;
                p.update_value(|val| val.add_scaled_assign(vel, -lr));
            } else {
                p.update_value(|val| val.add_scaled_assign(&g, -lr));
            }
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// Adam optimizer (Kingma & Ba) with optional decoupled weight decay
/// (AdamW-style when `weight_decay > 0`).
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    m: Vec<Option<Array>>,
    v: Vec<Option<Array>>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with the standard defaults
    /// `beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`.
    #[must_use]
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Self::with_config(params, lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Creates an Adam optimizer with explicit hyperparameters.
    #[must_use]
    pub fn with_config(
        params: Vec<Tensor>,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) -> Self {
        let n = params.len();
        Adam {
            params,
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            m: vec![None; n],
            v: vec![None; n],
            t: 0,
        }
    }

    /// The full Adam state (step count and both moment vectors), for
    /// checkpointing.
    #[must_use]
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores state captured by [`Adam::export_state`]. The step count
    /// matters: bias correction depends on `t`, so resuming without it
    /// would change every subsequent update.
    ///
    /// # Errors
    ///
    /// Rejects a state whose slot counts or shapes do not match the
    /// tracked parameters, and a step count that the next [`Adam`] step
    /// could not take: `step` raises it by one and feeds it to `powi` as
    /// an `i32`.
    pub fn import_state(&mut self, state: AdamState) -> Result<()> {
        check_moments("Adam::import_state (m)", &self.params, &state.m)?;
        check_moments("Adam::import_state (v)", &self.params, &state.v)?;
        if state.t >= i32::MAX as u64 {
            return Err(TensorError::InvalidArgument(format!(
                "Adam::import_state: step count {} is not below {}",
                state.t,
                i32::MAX
            )));
        }
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
        Ok(())
    }
}

/// Snapshot of an [`Adam`] optimizer's internal state.
#[derive(Debug, Clone)]
pub struct AdamState {
    /// Completed step count (drives bias correction).
    pub t: u64,
    /// First-moment estimates, one slot per parameter.
    pub m: Vec<Option<Array>>,
    /// Second-moment estimates, one slot per parameter.
    pub v: Vec<Option<Array>>,
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            // Consumed by the step; the buffer recycles on drop.
            let Some(g) = p.take_grad() else { continue };
            let m = self.m[i].get_or_insert_with(|| Array::zeros(g.shape()));
            let v = self.v[i].get_or_insert_with(|| Array::zeros(g.shape()));
            for ((mv, vv), &gv) in m.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            }
            let lr = self.lr;
            let eps = self.eps;
            let wd = self.weight_decay;
            let m_ref = &*m;
            let v_ref = &*v;
            p.update_value(|val| {
                for ((x, &mv), &vv) in val
                    .data_mut()
                    .iter_mut()
                    .zip(m_ref.data())
                    .zip(v_ref.data())
                {
                    let mhat = mv / bc1;
                    let vhat = vv / bc2;
                    *x -= lr * (mhat / (vhat.sqrt() + eps) + wd * *x);
                }
            });
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// Clips the global L2 norm of the gradients on `params` to `max_norm`.
///
/// Returns the pre-clip global norm. Gradients stay accumulated on the
/// parameters (rescaled in place, no clones) so the optimizer step that
/// follows sees the clipped values.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut total = 0.0f32;
    for p in params {
        if let Some(sq) = p.map_grad(|g| g.data().iter().map(|v| v * v).sum::<f32>()) {
            total += sq;
        }
    }
    let norm = total.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            p.update_grad(|g| g.map_inplace(|v| v * scale));
        }
    }
    norm
}

/// Cosine learning-rate schedule from `lr_max` to `lr_min` over
/// `total_steps`; step counts from 0.
#[must_use]
pub fn cosine_lr(lr_max: f32, lr_min: f32, step: usize, total_steps: usize) -> f32 {
    if total_steps <= 1 {
        return lr_min;
    }
    let t = (step.min(total_steps - 1)) as f32 / (total_steps - 1) as f32;
    lr_min + 0.5 * (lr_max - lr_min) * (1.0 + (std::f32::consts::PI * t).cos())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 and checks convergence.
    fn quadratic_converges(opt: &mut dyn Optimizer) {
        for _ in 0..200 {
            opt.zero_grad();
            let x = &opt.params()[0];
            let loss = x.add_scalar(-3.0).square().sum();
            loss.backward();
            opt.step();
        }
        let x = opt.params()[0].item();
        assert!((x - 3.0).abs() < 1e-2, "converged to {x}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = Tensor::param(Array::scalar(0.0));
        let mut opt = Sgd::new(vec![x], 0.1, 0.0, 0.0);
        quadratic_converges(&mut opt);
    }

    #[test]
    fn sgd_momentum_converges() {
        let x = Tensor::param(Array::scalar(-5.0));
        let mut opt = Sgd::new(vec![x], 0.05, 0.9, 0.0);
        quadratic_converges(&mut opt);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = Tensor::param(Array::scalar(10.0));
        let mut opt = Adam::new(vec![x], 0.3);
        quadratic_converges(&mut opt);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let x = Tensor::param(Array::scalar(1.0));
        let mut opt = Sgd::new(vec![x.clone()], 0.1, 0.0, 0.5);
        // Zero loss gradient: only decay acts.
        opt.zero_grad();
        x.accumulate_grad(&Array::scalar(0.0));
        opt.step();
        assert!(x.item() < 1.0);
    }

    #[test]
    fn skip_params_without_grad() {
        let x = Tensor::param(Array::scalar(2.0));
        let mut opt = Sgd::new(vec![x.clone()], 0.1, 0.0, 0.0);
        opt.step(); // no grad accumulated
        assert_eq!(x.item(), 2.0);
    }

    #[test]
    fn clip_grad_norm_rescales() {
        let x = Tensor::param(Array::from_vec(vec![3.0, 4.0], &[2]).unwrap());
        x.accumulate_grad(&Array::from_vec(vec![3.0, 4.0], &[2]).unwrap());
        let pre = clip_grad_norm(std::slice::from_ref(&x), 1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let g = x.grad().unwrap();
        let post = (g.data()[0].powi(2) + g.data()[1].powi(2)).sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn clip_grad_norm_noop_below_threshold() {
        let x = Tensor::param(Array::from_vec(vec![0.3, 0.4], &[2]).unwrap());
        x.accumulate_grad(&Array::from_vec(vec![0.3, 0.4], &[2]).unwrap());
        clip_grad_norm(std::slice::from_ref(&x), 10.0);
        assert_eq!(x.grad().unwrap().data(), &[0.3, 0.4]);
    }

    #[test]
    fn cosine_schedule_endpoints() {
        assert!((cosine_lr(1.0, 0.0, 0, 100) - 1.0).abs() < 1e-6);
        assert!(cosine_lr(1.0, 0.0, 99, 100) < 1e-3);
        let mid = cosine_lr(1.0, 0.0, 50, 101);
        assert!((mid - 0.5).abs() < 0.01);
    }

    /// One noisy quadratic step so the optimizer accumulates real state.
    fn take_step(opt: &mut dyn Optimizer) {
        opt.zero_grad();
        let x = &opt.params()[0];
        let loss = x.add_scalar(-3.0).square().sum();
        loss.backward();
        opt.step();
    }

    #[test]
    fn sgd_state_roundtrip_resumes_identically() {
        let make = || {
            let x = Tensor::param(Array::from_vec(vec![0.0, 1.0], &[2]).unwrap());
            Sgd::new(vec![x], 0.05, 0.9, 1e-4)
        };
        let mut a = make();
        for _ in 0..5 {
            take_step(&mut a);
        }
        // Transplant a's full state (params + velocity) into a fresh b.
        let mut b = make();
        b.params()[0].update_value(|v| *v = a.params()[0].value_clone());
        b.import_state(a.export_state()).unwrap();
        for _ in 0..5 {
            take_step(&mut a);
            take_step(&mut b);
        }
        assert_eq!(
            a.params()[0].value_clone().data(),
            b.params()[0].value_clone().data(),
            "resumed SGD must track the original bit-for-bit"
        );
    }

    #[test]
    fn adam_state_roundtrip_resumes_identically() {
        let make = || {
            let x = Tensor::param(Array::from_vec(vec![10.0, -4.0], &[2]).unwrap());
            Adam::new(vec![x], 0.1)
        };
        let mut a = make();
        for _ in 0..5 {
            take_step(&mut a);
        }
        let mut b = make();
        b.params()[0].update_value(|v| *v = a.params()[0].value_clone());
        b.import_state(a.export_state()).unwrap();
        for _ in 0..5 {
            take_step(&mut a);
            take_step(&mut b);
        }
        assert_eq!(
            a.params()[0].value_clone().data(),
            b.params()[0].value_clone().data(),
            "resumed Adam must track the original bit-for-bit (incl. t)"
        );
    }

    #[test]
    fn import_state_rejects_mismatches() {
        let x = Tensor::param(Array::from_vec(vec![0.0, 1.0], &[2]).unwrap());
        let mut sgd = Sgd::new(vec![x.clone()], 0.1, 0.9, 0.0);
        // Wrong slot count.
        assert!(sgd.import_state(vec![]).is_err());
        // Wrong shape.
        assert!(sgd.import_state(vec![Some(Array::zeros(&[3]))]).is_err());
        // None slots are fine.
        assert!(sgd.import_state(vec![None]).is_ok());

        let mut adam = Adam::new(vec![x], 0.1);
        let mut st = adam.export_state();
        st.m = vec![Some(Array::zeros(&[5]))];
        assert!(adam.import_state(st).is_err());
    }

    #[test]
    fn set_lr_roundtrip() {
        let mut opt = Adam::new(vec![], 0.1);
        opt.set_lr(0.01);
        assert_eq!(opt.lr(), 0.01);
    }
}
