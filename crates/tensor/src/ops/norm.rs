//! Fused 2-D batch normalization with hand-derived backwards, in both
//! modes.
//!
//! Training mode ([`Tensor::batch_norm2d_train`]) normalizes with batch
//! statistics, so the mean and variance themselves depend on the input.
//! Eval mode ([`Tensor::batch_norm2d_eval`]) normalizes with fixed
//! per-channel statistics, and is bitwise equal to the broadcast chain
//! `((x − μ)·inv_std)·γ + β` it replaces. Each mode has a ReLU6-fused
//! variant that folds the activation used by the MBConv candidate ops into
//! the same node, saving one full-tensor op node (and its gradient buffer)
//! per normalization. Both modes write their output through one per-plane
//! body, `bn_plane`.

use crate::array::Array;
use crate::error::{Result, TensorError};
use crate::kernel;
use crate::kernel::pool::{self, SendPtr};
use crate::scratch;
use crate::tensor::Tensor;

/// Runs `f(ci)` for every channel, over the worker pool when the tensor is
/// large enough for the dispatch to pay off and inline otherwise — the
/// same `PAR_MIN_ELEMS` gating the elementwise kernels use, so tiny
/// batch-norm layers never pay job-queue overhead. Results are identical
/// either way: each `f(ci)` owns channel `ci`'s outputs exclusively.
fn per_channel(c: usize, elems: usize, f: &(dyn Fn(usize) + Sync)) {
    if elems < kernel::PAR_MIN_ELEMS {
        for ci in 0..c {
            f(ci);
        }
    } else {
        pool::run(c, f);
    }
}

/// [`per_channel`] with per-worker state: the channels are split into one
/// contiguous range per worker, and each range builds its state once (as
/// `conv2d` builds its `cols` buffer once per worker) rather than once per
/// channel. Results are identical for any split: `f(_, ci)` still owns
/// channel `ci`'s outputs exclusively, and the state is overwritten
/// before it is read.
fn per_channel_with<S>(
    c: usize,
    elems: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) + Sync,
) {
    let threads = if elems < kernel::PAR_MIN_ELEMS {
        1
    } else {
        kernel::num_threads()
    };
    let ranges = kernel::partition(c, threads);
    pool::run(ranges.len(), &|t| {
        let mut state = init();
        for ci in ranges[t].clone() {
            f(&mut state, ci);
        }
    });
}

/// Output of [`Tensor::batch_norm2d_train`]: the normalized activations plus
/// the batch statistics needed to update running estimates.
#[derive(Debug, Clone)]
pub struct BatchNormOutput {
    /// Normalized, scaled and shifted activations (same shape as the input).
    pub output: Tensor,
    /// Per-channel batch mean `[c]`.
    pub batch_mean: Array,
    /// Per-channel (biased) batch variance `[c]`.
    pub batch_var: Array,
}

/// Checks an NCHW input against `[c]` scale and shift parameters and
/// returns `(b, c, h, w)`. Shared by both modes, so they report the same
/// errors.
fn bn2d_dims(x: &Tensor, gamma: &Tensor, beta: &Tensor) -> Result<[usize; 4]> {
    let shape = x.shape();
    if shape.len() != 4 {
        return Err(TensorError::InvalidShape {
            shape,
            reason: "batch_norm2d expects NCHW".into(),
        });
    }
    let c = shape[1];
    if gamma.shape() != [c] || beta.shape() != [c] {
        return Err(TensorError::ShapeMismatch {
            lhs: gamma.shape(),
            rhs: vec![c],
            op: "batch_norm2d gamma/beta",
        });
    }
    Ok([shape[0], c, shape[2], shape[3]])
}

/// One channel's normalization constants. `inv_std` is always
/// `1 / √(var + eps)`, evaluated exactly this way in both modes.
#[derive(Clone, Copy, Debug)]
struct ChannelAffine {
    mu: f32,
    inv_std: f32,
    gamma: f32,
    beta: f32,
}

impl ChannelAffine {
    fn new(mu: f32, var: f32, eps: f32, gamma: f32, beta: f32) -> Self {
        ChannelAffine {
            mu,
            inv_std: 1.0 / (var + eps).sqrt(),
            gamma,
            beta,
        }
    }

    /// The normalized activation `x̂ = (x − μ)·inv_std`.
    #[inline(always)]
    fn xhat(self, x: f32) -> f32 {
        (x - self.mu) * self.inv_std
    }

    /// The pre-activation `x̂·γ + β`. Train mode's `γ·x̂ + β` has the same
    /// bits: multiplication commutes, and Rust never contracts `a·b + c`
    /// into a fused multiply-add.
    #[inline(always)]
    fn pre(self, x: f32) -> f32 {
        self.xhat(x) * self.gamma + self.beta
    }
}

/// Each channel's [`ChannelAffine`] from `[c]` statistics and the current
/// values of `gamma` and `beta`, read once when the op node is built.
fn channel_affines(
    mean: &Array,
    var: &Array,
    eps: f32,
    gamma: &Tensor,
    beta: &Tensor,
) -> Vec<ChannelAffine> {
    let (gv, bv) = (gamma.value(), beta.value());
    (0..mean.len())
        .map(|ci| {
            ChannelAffine::new(
                mean.data()[ci],
                var.data()[ci],
                eps,
                gv.data()[ci],
                bv.data()[ci],
            )
        })
        .collect()
}

/// ReLU6's derivative at pre-activation `y`: 1 strictly inside (0, 6),
/// else 0 — exactly [`Tensor::relu6`]'s.
#[inline(always)]
fn relu6_grad(y: f32) -> f32 {
    if y > 0.0 && y < 6.0 {
        1.0
    } else {
        0.0
    }
}

kernel::avx2_dispatch! {
    /// One image plane of batch norm's output, `ys = pre(xs)`, clamped to
    /// [0, 6] when `relu6` is set. Both modes write through this body.
    bn_plane / bn_plane_scalar / bn_plane_avx2,
    (ys: &mut [f32], xs: &[f32], a: ChannelAffine, relu6: bool)
}

#[inline(always)]
fn bn_plane_scalar(ys: &mut [f32], xs: &[f32], a: ChannelAffine, relu6: bool) {
    debug_assert_eq!(ys.len(), xs.len());
    if relu6 {
        for (y, &x) in ys.iter_mut().zip(xs) {
            *y = a.pre(x).clamp(0.0, 6.0);
        }
    } else {
        for (y, &x) in ys.iter_mut().zip(xs) {
            *y = a.pre(x);
        }
    }
}

kernel::avx2_dispatch! {
    /// One image plane of eval-mode batch norm's backward. Masks the output
    /// gradient `gs` by ReLU6′ of the recomputed pre-activation when `relu6`
    /// is set (`gm = g·relu6′(y)`), adds `gm` into `sb` and `gm·x̂` into `sg`
    /// position by position, and writes `dx = (gm·γ)·inv_std` unless `dx`
    /// is empty. These are the broadcast chain's products, in its order.
    bn_eval_grad_plane / bn_eval_grad_plane_scalar / bn_eval_grad_plane_avx2,
    (sb: &mut [f32], sg: &mut [f32], dx: &mut [f32], gs: &[f32], xs: &[f32],
     a: ChannelAffine, relu6: bool)
}

#[inline(always)]
fn bn_eval_grad_plane_scalar(
    sb: &mut [f32],
    sg: &mut [f32],
    dx: &mut [f32],
    gs: &[f32],
    xs: &[f32],
    a: ChannelAffine,
    relu6: bool,
) {
    match (relu6, dx.is_empty()) {
        (true, true) => eval_grad_plane::<true, false>(sb, sg, dx, gs, xs, a),
        (true, false) => eval_grad_plane::<true, true>(sb, sg, dx, gs, xs, a),
        (false, true) => eval_grad_plane::<false, false>(sb, sg, dx, gs, xs, a),
        (false, false) => eval_grad_plane::<false, true>(sb, sg, dx, gs, xs, a),
    }
}

/// [`bn_eval_grad_plane_scalar`] with its two switches hoisted out of the
/// loop, so each instance is branch-free per element.
#[inline(always)]
fn eval_grad_plane<const RELU6: bool, const DX: bool>(
    sb: &mut [f32],
    sg: &mut [f32],
    dx: &mut [f32],
    gs: &[f32],
    xs: &[f32],
    a: ChannelAffine,
) {
    let n = gs.len();
    // Equal-length views, so the loop below carries no bounds checks.
    let (sb, sg, xs) = (&mut sb[..n], &mut sg[..n], &xs[..n]);
    let dx = if DX { &mut dx[..n] } else { &mut dx[..0] };
    for i in 0..n {
        let x = xs[i];
        let gm = if RELU6 {
            gs[i] * relu6_grad(a.pre(x))
        } else {
            gs[i]
        };
        sb[i] += gm;
        sg[i] += gm * a.xhat(x);
        if DX {
            dx[i] = (gm * a.gamma) * a.inv_std;
        }
    }
}

/// Start value of one summation stage of `Array::reduce_to`: a stage over
/// several terms sums them in order from +0.0, while a stage over a single
/// term passes it through untouched. −0.0 is the additive identity
/// (`-0.0 + v == v` for every `v`, signed zeros included), so starting
/// from it reproduces the pass-through.
fn stage_start(terms: usize) -> f32 {
    if terms == 1 {
        -0.0
    } else {
        0.0
    }
}

/// Finishes `Array::reduce_to([1, c, 1, 1])`'s association on one
/// channel's per-position image sums `acc` (`[h, w]`): rows are summed in
/// order into columns, then the columns in order. Overwrites `acc`'s first
/// row.
fn reduce_plane(acc: &mut [f32], h: usize, w: usize) -> f32 {
    if h == 0 || w == 0 {
        return 0.0;
    }
    let (cols, rest) = acc.split_at_mut(w);
    let start = stage_start(h);
    for v in cols.iter_mut() {
        *v += start;
    }
    for row in rest.chunks_exact(w) {
        for (v, &r) in cols.iter_mut().zip(row) {
            *v += r;
        }
    }
    cols.iter().fold(stage_start(w), |s, &v| s + v)
}

/// Shared implementation of training-mode batch norm, optionally fusing the
/// ReLU6 activation into the same op node.
///
/// Forward and backward each walk a channel once, in one per-channel task,
/// while its `b` planes are still in cache:
/// - forward: `μ = Σ sum8 / n` and `σ² = Σ sq_dev_sum8 / n` over the
///   channel's images, then its output planes through [`bn_plane`];
/// - backward: the output gradient, masked by ReLU6′ of the recomputed
///   pre-activation when fused (`gm`, into a per-worker `b × plane`
///   scratch), `dβ = Σ sum8(gm)` and `dγ = Σ dot_norm8(gm, x)` over the
///   images, then `dx = (γ·inv_std/n)·(n·gm − dβ − x̂·dγ)` when `x` needs
///   it.
///
/// Every value keeps the association of the formulation this replaced, a
/// pass over the whole tensor per step (statistics, output, mask,
/// reductions, dx), which the tests keep as the oracle. The fused path is
/// bitwise identical to `batch_norm2d_train` followed by `relu6()`: the
/// forward clamp applies the same expression to the same pre-activation,
/// and once the gradient is masked the backward is the unfused one.
fn bn2d_train_impl(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    fuse_relu6: bool,
) -> Result<BatchNormOutput> {
    let shape = bn2d_dims(x, gamma, beta)?;
    let [b, c, h, w] = shape;
    let n = (b * h * w) as f32;
    let plane = h * w;
    let elems = b * c * plane;

    let mut mean = Array::zeros(&[c]);
    let mut var = Array::zeros(&[c]);
    // Every plane of the output is written below, so it can start
    // uninitialized (pool-recycled without zeroing). The normalized
    // activations are NOT materialized: the backward recomputes
    // `(x - mu) * inv_std` from the parent input and the saved statistics
    // — same expression, same inputs, same bits.
    let mut out = Array::uninit(&shape);
    {
        // The operands are read through their value guards for the whole
        // forward pass instead of being cloned; the guards drop before the
        // op node is built.
        let (xv, gv, bv) = (x.value(), gamma.value(), beta.value());
        let (xd, gd, bd) = (xv.data(), gv.data(), bv.data());
        let mean_p = SendPtr::new(mean.data_mut().as_mut_ptr());
        let var_p = SendPtr::new(var.data_mut().as_mut_ptr());
        let out_p = SendPtr::new(out.data_mut().as_mut_ptr());
        per_channel(c, elems, &|ci| {
            let at = |bi: usize| (bi * c + ci) * plane;
            let xs = |bi: usize| &xd[at(bi)..at(bi) + plane];
            let mu = (0..b).fold(0.0f32, |s, bi| s + kernel::sum8(xs(bi))) / n;
            let v = (0..b).fold(0.0f32, |s, bi| s + kernel::sq_dev_sum8(xs(bi), mu)) / n;
            let a = ChannelAffine::new(mu, v, eps, gd[ci], bd[ci]);
            for bi in 0..b {
                // SAFETY: channel ci's planes belong to this task.
                let ys = unsafe { out_p.slice(at(bi), plane) };
                bn_plane(ys, xs(bi), a, fuse_relu6);
            }
            // SAFETY: slot ci belongs to this task.
            unsafe {
                mean_p.slice(ci, 1)[0] = mu;
                var_p.slice(ci, 1)[0] = v;
            }
        });
    }
    // The same constants the forward used: same expression, same inputs.
    let affine = channel_affines(&mean, &var, eps, gamma, beta);

    let x_t = x.clone();
    let g_t = gamma.clone();
    let b_t = beta.clone();
    // The per-channel constants are captured by value: the backward
    // closure must never read its own output tensor (it runs under that
    // node's write lock), and mean/var are not recoverable from the
    // parents without re-running the reductions.
    let output = Tensor::from_op(
        out,
        vec![x.clone(), gamma.clone(), beta.clone()],
        Box::new(move |g| {
            let mut dbeta = Array::zeros(&[c]);
            let mut dgamma = Array::zeros(&[c]);
            let mut dx = x_t.requires_grad().then(|| Array::uninit(&[b, c, h, w]));
            {
                // The parent input is read through its value guard, which
                // drops before gradients are accumulated into the parents.
                let xv = x_t.value();
                let xd = xv.data();
                let gd = g.data();
                let dbeta_p = SendPtr::new(dbeta.data_mut().as_mut_ptr());
                let dgamma_p = SendPtr::new(dgamma.data_mut().as_mut_ptr());
                let dx_p = dx.as_mut().map(|d| SendPtr::new(d.data_mut().as_mut_ptr()));
                per_channel_with(
                    c,
                    elems,
                    // The masked gradient of one channel, reused across the
                    // worker's channels.
                    || scratch::alloc(if fuse_relu6 { b * plane } else { 0 }),
                    |masked, ci| {
                        let a = affine[ci];
                        let at = |bi: usize| (bi * c + ci) * plane;
                        if fuse_relu6 {
                            for bi in 0..b {
                                let ms = &mut masked[bi * plane..(bi + 1) * plane];
                                let p = at(bi)..at(bi) + plane;
                                for ((m, &gv), &x) in ms.iter_mut().zip(&gd[p.clone()]).zip(&xd[p])
                                {
                                    *m = gv * relu6_grad(a.pre(x));
                                }
                            }
                        }
                        let masked: &[f32] = masked;
                        // Image bi's plane of the (masked) output gradient.
                        let gm = |bi: usize| {
                            if fuse_relu6 {
                                &masked[bi * plane..(bi + 1) * plane]
                            } else {
                                &gd[at(bi)..at(bi) + plane]
                            }
                        };
                        let xs = |bi: usize| &xd[at(bi)..at(bi) + plane];
                        let sb = (0..b).fold(0.0f32, |s, bi| s + kernel::sum8(gm(bi)));
                        let sg = (0..b).fold(0.0f32, |s, bi| {
                            s + kernel::dot_norm8(gm(bi), xs(bi), a.mu, a.inv_std)
                        });
                        if let Some(dx_p) = &dx_p {
                            let k = a.gamma * a.inv_std / n;
                            for bi in 0..b {
                                // SAFETY: channel ci's planes belong to this task.
                                let ds = unsafe { dx_p.slice(at(bi), plane) };
                                for ((d, &gv), &x) in ds.iter_mut().zip(gm(bi)).zip(xs(bi)) {
                                    *d = k * (n * gv - sb - a.xhat(x) * sg);
                                }
                            }
                        }
                        // SAFETY: slot ci belongs to this task.
                        unsafe {
                            dbeta_p.slice(ci, 1)[0] = sb;
                            dgamma_p.slice(ci, 1)[0] = sg;
                        }
                    },
                );
            }
            if let Some(dx) = dx {
                x_t.accumulate_grad_owned(dx);
            }
            if b_t.requires_grad() {
                b_t.accumulate_grad_owned(dbeta);
            }
            if g_t.requires_grad() {
                g_t.accumulate_grad_owned(dgamma);
            }
        }),
    );
    Ok(BatchNormOutput {
        output,
        batch_mean: mean,
        batch_var: var,
    })
}

/// Shared implementation of eval-mode batch norm over fixed per-channel
/// statistics, optionally fusing the ReLU6 activation into the same op
/// node.
///
/// Forward and all three gradients are bitwise equal to the broadcast
/// chain `x.sub(μ).mul(inv_std).mul(γ).add(β)` (then `relu6()` when
/// fused), which this op replaces:
/// - the output is [`ChannelAffine::pre`], the chain's expression;
/// - `gm = g·relu6′(y)` with `y` recomputed by that expression, as
///   `relu6`'s backward reads its stored input;
/// - `dx = (gm·γ)·inv_std`, the two `mul` backwards in chain order;
/// - `dβ = Σ gm` and `dγ = Σ gm·x̂` in `Array::reduce_to([1, c, 1, 1])`'s
///   association: per (h, w) over images, then rows into columns, then
///   columns, each stage in order from +0.0.
///
/// `dx` is skipped when `x` needs no gradient, as the chain skips it.
fn bn2d_eval_impl(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    mean: &Array,
    var: &Array,
    eps: f32,
    fuse_relu6: bool,
) -> Result<Tensor> {
    let [b, c, h, w] = bn2d_dims(x, gamma, beta)?;
    for s in [mean, var] {
        if s.shape() != [c] {
            return Err(TensorError::ShapeMismatch {
                lhs: s.shape().to_vec(),
                rhs: vec![c],
                op: "batch_norm2d mean/var",
            });
        }
    }
    let plane = h * w;
    let elems = b * c * plane;
    let affine = channel_affines(mean, var, eps, gamma, beta);

    // Every plane is written below, so the output can start uninitialized.
    let mut out = Array::uninit(&[b, c, h, w]);
    {
        let xv = x.value();
        let xd = xv.data();
        let out_p = SendPtr::new(out.data_mut().as_mut_ptr());
        per_channel(c, elems, &|ci| {
            for bi in 0..b {
                let base = (bi * c + ci) * plane;
                // SAFETY: channel ci's planes are written by this task only.
                let ys = unsafe { out_p.slice(base, plane) };
                bn_plane(ys, &xd[base..base + plane], affine[ci], fuse_relu6);
            }
        });
    }

    let x_t = x.clone();
    let g_t = gamma.clone();
    let b_t = beta.clone();
    Ok(Tensor::from_op(
        out,
        vec![x.clone(), gamma.clone(), beta.clone()],
        Box::new(move |g| {
            let mut dbeta = Array::zeros(&[c]);
            let mut dgamma = Array::zeros(&[c]);
            let mut dx = x_t.requires_grad().then(|| Array::uninit(&[b, c, h, w]));
            {
                let xv = x_t.value();
                let xd = xv.data();
                let gd = g.data();
                let dbeta_p = SendPtr::new(dbeta.data_mut().as_mut_ptr());
                let dgamma_p = SendPtr::new(dgamma.data_mut().as_mut_ptr());
                let dx_p = dx.as_mut().map(|d| SendPtr::new(d.data_mut().as_mut_ptr()));
                // Each worker takes its two [h·w] per-position accumulators
                // (Σ gm and Σ gm·x̂ over images) from one scratch buffer.
                per_channel_with(
                    c,
                    elems,
                    || scratch::alloc(2 * plane),
                    |acc, ci| {
                        let (sb, sg) = acc.split_at_mut(plane);
                        sb.fill(stage_start(b));
                        sg.fill(stage_start(b));
                        for bi in 0..b {
                            let base = (bi * c + ci) * plane;
                            let dxs: &mut [f32] = match &dx_p {
                                // SAFETY: channel ci's planes belong to this task.
                                Some(p) => unsafe { p.slice(base, plane) },
                                None => &mut [],
                            };
                            bn_eval_grad_plane(
                                sb,
                                sg,
                                dxs,
                                &gd[base..base + plane],
                                &xd[base..base + plane],
                                affine[ci],
                                fuse_relu6,
                            );
                        }
                        // SAFETY: slot ci belongs to this task.
                        unsafe {
                            dbeta_p.slice(ci, 1)[0] = reduce_plane(sb, h, w);
                            dgamma_p.slice(ci, 1)[0] = reduce_plane(sg, h, w);
                        }
                    },
                );
            }
            if let Some(dx) = dx {
                x_t.accumulate_grad_owned(dx);
            }
            if g_t.requires_grad() {
                g_t.accumulate_grad_owned(dgamma);
            }
            if b_t.requires_grad() {
                b_t.accumulate_grad_owned(dbeta);
            }
        }),
    ))
}

impl Tensor {
    /// Training-mode batch normalization over an NCHW input using batch
    /// statistics computed over the `(batch, h, w)` axes.
    ///
    /// `gamma` and `beta` are per-channel scale and shift `[c]`. Gradients
    /// flow to the input, `gamma` and `beta`, including the dependence of
    /// the batch statistics on the input.
    ///
    /// # Errors
    ///
    /// Returns an error unless the input is rank-4 and `gamma`/`beta` have
    /// shape `[c]`.
    pub fn batch_norm2d_train(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Result<BatchNormOutput> {
        bn2d_train_impl(self, gamma, beta, eps, false)
    }

    /// Training-mode batch normalization fused with a ReLU6 activation in a
    /// single op node: `relu6(batch_norm2d_train(x))`.
    ///
    /// Forward and backward are bitwise identical to the unfused
    /// composition, but the graph carries one node instead of two — no
    /// intermediate pre-activation tensor, no separate activation gradient
    /// buffer. This is the normalization+activation used by MobileNet-style
    /// blocks (the EDD supernet's candidate ops).
    ///
    /// # Errors
    ///
    /// Returns an error unless the input is rank-4 and `gamma`/`beta` have
    /// shape `[c]`.
    pub fn batch_norm2d_relu6_train(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> Result<BatchNormOutput> {
        bn2d_train_impl(self, gamma, beta, eps, true)
    }

    /// Eval-mode batch normalization over an NCHW input with fixed
    /// per-channel statistics `mean` and `var` (`[c]`, typically the
    /// running estimates): `y = ((x − mean)·inv_std)·gamma + beta` with
    /// `inv_std = 1/√(var + eps)`.
    ///
    /// One per-channel pass forward and one backward, bitwise equal to
    /// composing the same expression from broadcast `sub`/`mul`/`add` ops.
    /// Gradients flow to the input, `gamma` and `beta`; the statistics are
    /// constants.
    ///
    /// # Errors
    ///
    /// Returns an error unless the input is rank-4 and `gamma`, `beta`,
    /// `mean` and `var` have shape `[c]`.
    pub fn batch_norm2d_eval(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        mean: &Array,
        var: &Array,
        eps: f32,
    ) -> Result<Tensor> {
        bn2d_eval_impl(self, gamma, beta, mean, var, eps, false)
    }

    /// Eval-mode batch normalization fused with a ReLU6 activation in a
    /// single op node: `relu6(batch_norm2d_eval(x))`, bitwise identical to
    /// the unfused pair in forward and backward.
    ///
    /// # Errors
    ///
    /// Returns an error unless the input is rank-4 and `gamma`, `beta`,
    /// `mean` and `var` have shape `[c]`.
    pub fn batch_norm2d_relu6_eval(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        mean: &Array,
        var: &Array,
        eps: f32,
    ) -> Result<Tensor> {
        bn2d_eval_impl(self, gamma, beta, mean, var, eps, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizes_to_zero_mean_unit_var() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::param(Array::randn(&[4, 2, 3, 3], 2.0, &mut rng));
        let gamma = Tensor::param(Array::ones(&[2]));
        let beta = Tensor::param(Array::zeros(&[2]));
        let bn = x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap();
        let v = bn.output.value();
        // per-channel mean ~0, var ~1
        let n = 4 * 3 * 3;
        for ci in 0..2 {
            let mut acc = 0.0f32;
            let mut acc2 = 0.0f32;
            for bi in 0..4 {
                let base = (bi * 2 + ci) * 9;
                for &val in &v.data()[base..base + 9] {
                    acc += val;
                    acc2 += val * val;
                }
            }
            let mean = acc / n as f32;
            let var = acc2 / n as f32 - mean * mean;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn gamma_beta_scale_shift() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::param(Array::randn(&[2, 1, 2, 2], 1.0, &mut rng));
        let gamma = Tensor::param(Array::from_vec(vec![3.0], &[1]).unwrap());
        let beta = Tensor::param(Array::from_vec(vec![5.0], &[1]).unwrap());
        let bn = x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap();
        let v = bn.output.value();
        let mean: f32 = v.data().iter().sum::<f32>() / 8.0;
        assert!((mean - 5.0).abs() < 1e-4);
    }

    #[test]
    fn batch_stats_reported() {
        let x = Tensor::param(Array::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap());
        let gamma = Tensor::param(Array::ones(&[1]));
        let beta = Tensor::param(Array::zeros(&[1]));
        let bn = x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap();
        assert!((bn.batch_mean.data()[0] - 2.5).abs() < 1e-6);
        assert!((bn.batch_var.data()[0] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::param(Array::randn(&[2, 2, 3, 3], 1.0, &mut rng));
        let gamma = Tensor::param(Array::rand_uniform(&[2], 0.5, 1.5, &mut rng));
        let beta = Tensor::param(Array::randn(&[2], 0.3, &mut rng));
        // Weighted loss so gradients differ per element.
        let wts = Tensor::constant(Array::randn(&[2, 2, 3, 3], 1.0, &mut rng));
        let f = |x: &Tensor, ga: &Tensor, be: &Tensor| {
            x.batch_norm2d_train(ga, be, 1e-5)
                .unwrap()
                .output
                .mul(&wts)
                .unwrap()
                .sum()
        };
        f(&x, &gamma, &beta).backward();
        let eps = 1e-2;
        // input entry
        for idx in [0usize, 17, 30] {
            let orig = x.value().data()[idx];
            x.update_value(|a| a.data_mut()[idx] = orig + eps);
            let lp = f(&x, &gamma, &beta).item();
            x.update_value(|a| a.data_mut()[idx] = orig - eps);
            let lm = f(&x, &gamma, &beta).item();
            x.update_value(|a| a.data_mut()[idx] = orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = x.grad().unwrap().data()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * num.abs().max(1.0),
                "x[{idx}]: numeric {num} vs analytic {ana}"
            );
        }
        // gamma entry
        let orig = gamma.value().data()[0];
        gamma.update_value(|a| a.data_mut()[0] = orig + eps);
        let lp = f(&x, &gamma, &beta).item();
        gamma.update_value(|a| a.data_mut()[0] = orig - eps);
        let lm = f(&x, &gamma, &beta).item();
        gamma.update_value(|a| a.data_mut()[0] = orig);
        let num = (lp - lm) / (2.0 * eps);
        let ana = gamma.grad().unwrap().data()[0];
        assert!((num - ana).abs() < 5e-2 * num.abs().max(1.0));
    }

    #[test]
    fn validates_shapes() {
        let x = Tensor::param(Array::zeros(&[2, 3, 4, 4]));
        let g_bad = Tensor::param(Array::zeros(&[2]));
        let b_ok = Tensor::param(Array::zeros(&[3]));
        assert!(x.batch_norm2d_train(&g_bad, &b_ok, 1e-5).is_err());
        let x3 = Tensor::param(Array::zeros(&[3, 4, 4]));
        let g3 = Tensor::param(Array::zeros(&[4]));
        assert!(x3.batch_norm2d_train(&g3, &g3, 1e-5).is_err());
    }

    /// Builds matching (x, gamma, beta) parameter pairs for comparing the
    /// fused and unfused paths on identical values.
    fn fused_test_inputs(seed: u64) -> [(Tensor, Tensor, Tensor); 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let xv = Array::randn(&[3, 4, 5, 5], 1.5, &mut rng);
        let gv = Array::rand_uniform(&[4], 0.5, 1.5, &mut rng);
        let bv = Array::randn(&[4], 1.0, &mut rng);
        [
            (
                Tensor::param(xv.clone()),
                Tensor::param(gv.clone()),
                Tensor::param(bv.clone()),
            ),
            (Tensor::param(xv), Tensor::param(gv), Tensor::param(bv)),
        ]
    }

    #[test]
    fn fused_relu6_forward_is_bitwise_identical_to_unfused() {
        let [(x1, g1, b1), (x2, g2, b2)] = fused_test_inputs(7);
        let unfused = x1.batch_norm2d_train(&g1, &b1, 1e-5).unwrap();
        let fused = x2.batch_norm2d_relu6_train(&g2, &b2, 1e-5).unwrap();
        let reference = unfused.output.relu6();
        assert_eq!(reference.value().data(), fused.output.value().data());
        assert_eq!(unfused.batch_mean.data(), fused.batch_mean.data());
        assert_eq!(unfused.batch_var.data(), fused.batch_var.data());
    }

    #[test]
    fn fused_relu6_backward_is_bitwise_identical_to_unfused() {
        let [(x1, g1, b1), (x2, g2, b2)] = fused_test_inputs(11);
        let mut rng = StdRng::seed_from_u64(13);
        let wts = Tensor::constant(Array::randn(&[3, 4, 5, 5], 1.0, &mut rng));
        x1.batch_norm2d_train(&g1, &b1, 1e-5)
            .unwrap()
            .output
            .relu6()
            .mul(&wts)
            .unwrap()
            .sum()
            .backward();
        x2.batch_norm2d_relu6_train(&g2, &b2, 1e-5)
            .unwrap()
            .output
            .mul(&wts)
            .unwrap()
            .sum()
            .backward();
        assert_eq!(x1.grad().unwrap().data(), x2.grad().unwrap().data());
        assert_eq!(g1.grad().unwrap().data(), g2.grad().unwrap().data());
        assert_eq!(b1.grad().unwrap().data(), b2.grad().unwrap().data());
    }

    #[test]
    fn fused_relu6_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(17);
        let x = Tensor::param(Array::randn(&[2, 2, 3, 3], 1.0, &mut rng));
        let gamma = Tensor::param(Array::rand_uniform(&[2], 0.8, 1.2, &mut rng));
        // Shift the pre-activations to ~3 so most land inside (0, 6) where
        // ReLU6 is differentiable.
        let beta = Tensor::param(Array::full(&[2], 3.0));
        let wts = Tensor::constant(Array::randn(&[2, 2, 3, 3], 1.0, &mut rng));
        let f = |x: &Tensor, ga: &Tensor, be: &Tensor| {
            x.batch_norm2d_relu6_train(ga, be, 1e-5)
                .unwrap()
                .output
                .mul(&wts)
                .unwrap()
                .sum()
        };
        f(&x, &gamma, &beta).backward();
        let eps = 1e-2;
        // Only probe entries whose pre-activation sits safely inside the
        // linear region, away from the clamp kinks at 0 and 6.
        let pre = {
            let bn = x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap();
            bn.output.value_clone()
        };
        let mut checked = 0;
        for idx in 0..pre.len() {
            let y = pre.data()[idx];
            if !(0.5..=5.5).contains(&y) {
                continue;
            }
            let orig = x.value().data()[idx];
            x.update_value(|a| a.data_mut()[idx] = orig + eps);
            let lp = f(&x, &gamma, &beta).item();
            x.update_value(|a| a.data_mut()[idx] = orig - eps);
            let lm = f(&x, &gamma, &beta).item();
            x.update_value(|a| a.data_mut()[idx] = orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = x.grad().unwrap().data()[idx];
            assert!(
                (num - ana).abs() < 5e-2 * num.abs().max(1.0),
                "x[{idx}]: numeric {num} vs analytic {ana}"
            );
            checked += 1;
            if checked >= 4 {
                break;
            }
        }
        assert!(checked > 0, "no interior activations to check");
    }

    /// Eval-mode batch norm composed from broadcast primitives: the
    /// reference the fused op must equal bit for bit.
    fn eval_chain(
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        stats: (&Array, &Array),
        eps: f32,
        relu6: bool,
    ) -> Tensor {
        let bshape = [1, gamma.shape()[0], 1, 1];
        let mean = Tensor::constant(stats.0.reshape(&bshape).unwrap());
        let inv_std = Tensor::constant(
            stats
                .1
                .map(move |v| 1.0 / (v + eps).sqrt())
                .reshape(&bshape)
                .unwrap(),
        );
        let y = x
            .sub(&mean)
            .unwrap()
            .mul(&inv_std)
            .unwrap()
            .mul(&gamma.reshape(&bshape).unwrap())
            .unwrap()
            .add(&beta.reshape(&bshape).unwrap())
            .unwrap();
        if relu6 {
            y.relu6()
        } else {
            y
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One oracle case's values: input, statistics, affine parameters and
    /// the output gradient to seed. Pre-activations straddle 0 and 6
    /// (shifts of 0, 6 and 3 on the first three channels, scales of both
    /// signs), every seventh input sits exactly on its channel mean so its
    /// pre-activation lands exactly on the shift (0.0 or 6.0 included), and
    /// every fifth seed is zero so masked gradients reach both signed
    /// zeros.
    struct EvalCase {
        x: Array,
        mean: Array,
        var: Array,
        gamma: Array,
        beta: Array,
        seed: Array,
    }

    impl EvalCase {
        fn new(shape: [usize; 4], rng: &mut StdRng) -> Self {
            let c = shape[1];
            let plane = shape[2] * shape[3];
            let mean = Array::randn(&[c], 1.0, rng);
            let var = Array::rand_uniform(&[c], 0.2, 3.0, rng);
            let gamma = Array::rand_uniform(&[c], -2.0, 2.0, rng);
            let mut beta = Array::randn(&[c], 2.0, rng);
            for (ci, b) in beta.data_mut().iter_mut().enumerate() {
                *b = match ci % 4 {
                    0 => 0.0,
                    1 => 6.0,
                    2 => 3.0,
                    _ => *b,
                };
            }
            let mut x = Array::randn(&shape, 3.0, rng);
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                if i % 7 == 3 {
                    *v = mean.data()[(i / plane) % c];
                }
            }
            let mut seed = Array::randn(&shape, 1.0, rng);
            for (i, v) in seed.data_mut().iter_mut().enumerate() {
                if i % 5 == 2 {
                    *v = 0.0;
                }
            }
            EvalCase {
                x,
                mean,
                var,
                gamma,
                beta,
                seed,
            }
        }

        /// Leaf tensors for one side of a comparison; `grads` says which of
        /// (x, gamma, beta) require gradients.
        fn leaves(&self, grads: [bool; 3]) -> [Tensor; 3] {
            let leaf = |a: &Array, g: bool| {
                if g {
                    Tensor::param(a.clone())
                } else {
                    Tensor::constant(a.clone())
                }
            };
            [
                leaf(&self.x, grads[0]),
                leaf(&self.gamma, grads[1]),
                leaf(&self.beta, grads[2]),
            ]
        }

        /// Runs the fused op and the chain on identical leaves and asserts
        /// that `y`, `dx`, `dgamma` and `dbeta` agree bit for bit.
        fn check(&self, relu6: bool, grads: [bool; 3]) {
            const EPS: f32 = 1e-5;
            let stats = (&self.mean, &self.var);
            let fused_leaves = self.leaves(grads);
            let chain_leaves = self.leaves(grads);
            let [x, g, b] = &fused_leaves;
            let fused = if relu6 {
                x.batch_norm2d_relu6_eval(g, b, stats.0, stats.1, EPS)
            } else {
                x.batch_norm2d_eval(g, b, stats.0, stats.1, EPS)
            }
            .unwrap();
            let [x, g, b] = &chain_leaves;
            let chain = eval_chain(x, g, b, stats, EPS, relu6);
            let what = format!("shape {:?} relu6 {relu6} grads {grads:?}", self.x.shape());
            assert_eq!(
                bits(fused.value().data()),
                bits(chain.value().data()),
                "forward, {what}"
            );
            if !grads.contains(&true) {
                return;
            }
            fused.backward_with(self.seed.clone());
            chain.backward_with(self.seed.clone());
            let names = ["dx", "dgamma", "dbeta"];
            for ((f, c), name) in fused_leaves.iter().zip(&chain_leaves).zip(names) {
                let grad_bits = |t: &Tensor| t.grad().map(|a| bits(a.data()));
                assert_eq!(
                    f.grad().is_some(),
                    f.requires_grad(),
                    "{name} presence, {what}"
                );
                assert_eq!(grad_bits(f), grad_bits(c), "{name}, {what}");
            }
        }
    }

    /// Training-mode batch norm as it was built before it walked each
    /// channel once: one pass over the whole tensor per step (statistics,
    /// output, then the ReLU6 mask, the reductions and dx), sequential. The
    /// single-pass op must equal it bit for bit. Returns the output, mean,
    /// variance, dx, dγ and dβ for the output gradient `g`.
    fn train_oracle(case: &EvalCase, eps: f32, relu6: bool) -> [Vec<f32>; 6] {
        let &[b, c, h, w] = case.x.shape() else {
            panic!("NCHW")
        };
        let (plane, len) = (h * w, case.x.len());
        let n = (b * plane) as f32;
        let (xd, gd) = (case.x.data(), case.seed.data());
        let planes =
            |ci: usize| (0..b).map(move |bi| (bi * c + ci) * plane..(bi * c + ci + 1) * plane);
        let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
        for ci in 0..c {
            let mut acc = 0.0f32;
            for p in planes(ci) {
                acc += kernel::sum8(&xd[p]);
            }
            mean[ci] = acc / n;
            let mut vacc = 0.0f32;
            for p in planes(ci) {
                vacc += kernel::sq_dev_sum8(&xd[p], mean[ci]);
            }
            var[ci] = vacc / n;
        }
        let affine: Vec<ChannelAffine> = (0..c)
            .map(|ci| {
                let (g, be) = (case.gamma.data()[ci], case.beta.data()[ci]);
                ChannelAffine::new(mean[ci], var[ci], eps, g, be)
            })
            .collect();
        let channel = |i: usize| affine[(i / plane) % c];
        let out: Vec<f32> = (0..len)
            .map(|i| {
                let y = channel(i).pre(xd[i]);
                if relu6 {
                    y.clamp(0.0, 6.0)
                } else {
                    y
                }
            })
            .collect();
        let gm: Vec<f32> = (0..len)
            .map(|i| {
                if relu6 {
                    gd[i] * relu6_grad(channel(i).pre(xd[i]))
                } else {
                    gd[i]
                }
            })
            .collect();
        let (mut dbeta, mut dgamma) = (vec![0.0f32; c], vec![0.0f32; c]);
        for (ci, a) in affine.iter().enumerate() {
            for p in planes(ci) {
                dbeta[ci] += kernel::sum8(&gm[p.clone()]);
                dgamma[ci] += kernel::dot_norm8(&gm[p.clone()], &xd[p], a.mu, a.inv_std);
            }
        }
        let dx = (0..len)
            .map(|i| {
                let (a, ci) = (channel(i), (i / plane) % c);
                let k = a.gamma * a.inv_std / n;
                k * (n * gm[i] - dbeta[ci] - a.xhat(xd[i]) * dgamma[ci])
            })
            .collect();
        [out, mean, var, dx, dgamma, dbeta]
    }

    /// Runs the train op on `case` with the leaves `grads` says need
    /// gradients, and asserts every value against [`train_oracle`].
    fn check_train(case: &EvalCase, relu6: bool, grads: [bool; 3]) {
        const EPS: f32 = 1e-5;
        let want = train_oracle(case, EPS, relu6);
        let leaves = case.leaves(grads);
        let [x, g, b] = &leaves;
        let bn = if relu6 {
            x.batch_norm2d_relu6_train(g, b, EPS)
        } else {
            x.batch_norm2d_train(g, b, EPS)
        }
        .unwrap();
        let what = format!("shape {:?} relu6 {relu6} grads {grads:?}", case.x.shape());
        let got = [
            bn.output.value_clone(),
            bn.batch_mean.clone(),
            bn.batch_var.clone(),
        ];
        for ((got, want), name) in got.iter().zip(&want).zip(["y", "mean", "var"]) {
            assert_eq!(bits(got.data()), bits(want), "{name}, {what}");
        }
        if !grads.contains(&true) {
            return;
        }
        bn.output.backward_with(case.seed.clone());
        for ((leaf, want), name) in leaves.iter().zip(&want[3..]).zip(["dx", "dgamma", "dbeta"]) {
            let got = leaf.grad().map(|a| bits(a.data()));
            let want = leaf.requires_grad().then(|| bits(want));
            assert_eq!(got, want, "{name}, {what}");
        }
    }

    #[test]
    fn train_matches_three_pass_oracle_bitwise_over_grid() {
        let mut rng = StdRng::seed_from_u64(53);
        for b in 1..=9 {
            // Planes of 1, 9, 14, 16, 25 and 39 values: under, over and on
            // the eight-lane width.
            for (h, w) in [(1, 1), (3, 3), (2, 7), (4, 4), (5, 5), (3, 13)] {
                let case = EvalCase::new([b, 5, h, w], &mut rng);
                for relu6 in [false, true] {
                    for mask in 0..8u8 {
                        check_train(&case, relu6, [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0]);
                    }
                }
            }
        }
    }

    #[test]
    fn train_matches_three_pass_oracle_bitwise_on_pooled_shapes() {
        // Large enough to fan the channels out over the worker pool.
        let mut rng = StdRng::seed_from_u64(59);
        for shape in [[16, 16, 16, 16], [9, 8, 13, 11], [32, 3, 6, 6]] {
            let case = EvalCase::new(shape, &mut rng);
            for relu6 in [false, true] {
                check_train(&case, relu6, [true; 3]);
                check_train(&case, relu6, [false, true, true]);
            }
        }
    }

    #[test]
    fn eval_matches_broadcast_chain_bitwise_over_grid() {
        let mut rng = StdRng::seed_from_u64(41);
        for b in [1, 3, 16] {
            for h in 1..=17 {
                for w in 1..=17 {
                    let case = EvalCase::new([b, 4, h, w], &mut rng);
                    for relu6 in [false, true] {
                        for mask in 0..8u8 {
                            let grads = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
                            case.check(relu6, grads);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn eval_matches_broadcast_chain_bitwise_on_pooled_shapes() {
        // Large enough to fan the channels out over the worker pool, with
        // widths that are not a multiple of eight.
        let mut rng = StdRng::seed_from_u64(43);
        for shape in [[16, 16, 16, 16], [2, 8, 45, 47]] {
            let case = EvalCase::new(shape, &mut rng);
            for relu6 in [false, true] {
                case.check(relu6, [true; 3]);
                case.check(relu6, [false, true, true]);
            }
        }
    }

    #[test]
    fn dispatched_plane_bodies_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(47);
        let a = ChannelAffine::new(0.25, 0.7, 1e-5, -1.3, 3.0);
        for n in 0..=40 {
            let mut xs = Array::randn(&[n.max(1)], 3.0, &mut rng).data()[..n].to_vec();
            if n > 3 {
                xs[3] = a.mu; // pre-activation exactly 3.0
            }
            let gs = Array::randn(&[n.max(1)], 1.0, &mut rng).data()[..n].to_vec();
            let acc0 = Array::randn(&[n.max(1)], 1.0, &mut rng).data()[..n].to_vec();
            for relu6 in [false, true] {
                let (mut yd, mut ys) = (vec![0.0; n], vec![0.0; n]);
                bn_plane(&mut yd, &xs, a, relu6);
                bn_plane_scalar(&mut ys, &xs, a, relu6);
                assert_eq!(bits(&yd), bits(&ys), "bn_plane n={n} relu6={relu6}");
                for with_dx in [false, true] {
                    let m = if with_dx { n } else { 0 };
                    let mut d = (acc0.clone(), acc0.clone(), vec![0.0; m]);
                    let mut s = (acc0.clone(), acc0.clone(), vec![0.0; m]);
                    bn_eval_grad_plane(&mut d.0, &mut d.1, &mut d.2, &gs, &xs, a, relu6);
                    bn_eval_grad_plane_scalar(&mut s.0, &mut s.1, &mut s.2, &gs, &xs, a, relu6);
                    for (dv, sv) in [(&d.0, &s.0), (&d.1, &s.1), (&d.2, &s.2)] {
                        assert_eq!(bits(dv), bits(sv), "grad plane n={n} relu6={relu6}");
                    }
                }
            }
        }
    }

    #[test]
    fn eval_validates_shapes() {
        let x = Tensor::param(Array::zeros(&[2, 3, 4, 4]));
        let ok = Tensor::param(Array::zeros(&[3]));
        let bad = Tensor::param(Array::zeros(&[2]));
        let (s3, s2) = (Array::zeros(&[3]), Array::zeros(&[2]));
        assert!(x.batch_norm2d_eval(&ok, &ok, &s3, &s3, 1e-5).is_ok());
        assert!(x.batch_norm2d_eval(&bad, &ok, &s3, &s3, 1e-5).is_err());
        assert!(x.batch_norm2d_eval(&ok, &ok, &s2, &s3, 1e-5).is_err());
        assert!(x.batch_norm2d_relu6_eval(&ok, &ok, &s3, &s2, 1e-5).is_err());
        let x3 = Tensor::param(Array::zeros(&[3, 4, 4]));
        let g4 = Tensor::param(Array::zeros(&[4]));
        let s4 = Array::zeros(&[4]);
        assert!(x3.batch_norm2d_eval(&g4, &g4, &s4, &s4, 1e-5).is_err());
    }
}
