//! Finite-difference gradient checks routed through the blocked kernel
//! layer: conv2d and depthwise conv (including strided and padded
//! configurations, the 3/5/7 depthwise kernels, and planes narrower than
//! their padding) plus a linear-layer-shaped matmul+bias chain. These
//! guard the transpose-free backward kernels (`matmul_at_b` /
//! `matmul_a_bt`) and the batched conv backward against the analytic
//! gradients drifting from the math.

use edd_tensor::gradcheck::check_gradients;
use edd_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

#[test]
fn conv2d_gradients_unit_stride_with_padding() {
    let mut rng = StdRng::seed_from_u64(21);
    let x = Tensor::param(Array::randn(&[2, 3, 6, 6], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[4, 3, 3, 3], 0.5, &mut rng));
    let b = Tensor::param(Array::randn(&[4], 0.5, &mut rng));
    let (xr, wr, br) = (x.clone(), w.clone(), b.clone());
    let report = check_gradients(
        &[x, w, b],
        move || xr.conv2d(&wr, Some(&br), 1, 1).unwrap().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "conv2d s1 p1 rel error {} (param {}, index {})",
        report.max_rel_error,
        report.worst_param,
        report.worst_index
    );
}

#[test]
fn conv2d_gradients_stride_two() {
    let mut rng = StdRng::seed_from_u64(22);
    let x = Tensor::param(Array::randn(&[2, 2, 7, 7], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[3, 2, 3, 3], 0.5, &mut rng));
    let (xr, wr) = (x.clone(), w.clone());
    let report = check_gradients(
        &[x, w],
        move || xr.conv2d(&wr, None, 2, 1).unwrap().square().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "conv2d s2 p1 rel error {}",
        report.max_rel_error
    );
}

#[test]
fn dwconv2d_gradients_unit_stride_with_padding() {
    let mut rng = StdRng::seed_from_u64(23);
    let x = Tensor::param(Array::randn(&[2, 4, 6, 6], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[4, 3, 3], 0.5, &mut rng));
    let (xr, wr) = (x.clone(), w.clone());
    let report = check_gradients(
        &[x, w],
        move || xr.dwconv2d(&wr, None, 1, 1).unwrap().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "dwconv2d s1 p1 rel error {}",
        report.max_rel_error
    );
}

#[test]
fn dwconv2d_gradients_stride_two() {
    let mut rng = StdRng::seed_from_u64(24);
    let x = Tensor::param(Array::randn(&[3, 3, 7, 7], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[3, 3, 3], 0.5, &mut rng));
    let b = Tensor::param(Array::randn(&[3], 0.5, &mut rng));
    let (xr, wr, br) = (x.clone(), w.clone(), b.clone());
    let report = check_gradients(
        &[x, w, b],
        move || xr.dwconv2d(&wr, Some(&br), 2, 1).unwrap().square().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "dwconv2d s2 p1 rel error {}",
        report.max_rel_error
    );
}

#[test]
fn dwconv2d_gradients_wide_kernels_both_strides() {
    // The search space's 5x5 and 7x7 depthwise kernels at stride 1 and 2
    // with "same" padding: the stencil forward, gather-form dx and
    // register-blocked dW of each width.
    let mut rng = StdRng::seed_from_u64(27);
    for (k, stride) in [(5usize, 1usize), (5, 2), (7, 1), (7, 2)] {
        let x = Tensor::param(Array::randn(&[2, 3, 9, 10], 1.0, &mut rng));
        let w = Tensor::param(Array::randn(&[3, k, k], 0.3, &mut rng));
        let (xr, wr) = (x.clone(), w.clone());
        let report = check_gradients(
            &[x, w],
            move || {
                xr.dwconv2d(&wr, None, stride, k / 2)
                    .unwrap()
                    .square()
                    .sum()
            },
            EPS,
            1,
        );
        assert!(
            report.max_rel_error < TOL,
            "dwconv2d k{k} s{stride} rel error {} (param {}, index {})",
            report.max_rel_error,
            report.worst_param,
            report.worst_index
        );
    }
}

#[test]
fn dwconv2d_gradients_plane_narrower_than_padding() {
    // A 7x7 kernel with padding 3 over planes only 2 wide and 3 high:
    // every output reads more zero padding than input.
    let mut rng = StdRng::seed_from_u64(28);
    for stride in [1usize, 2] {
        let x = Tensor::param(Array::randn(&[2, 2, 3, 2], 1.0, &mut rng));
        let w = Tensor::param(Array::randn(&[2, 7, 7], 0.3, &mut rng));
        let (xr, wr) = (x.clone(), w.clone());
        let report = check_gradients(
            &[x, w],
            move || xr.dwconv2d(&wr, None, stride, 3).unwrap().square().sum(),
            EPS,
            1,
        );
        assert!(
            report.max_rel_error < TOL,
            "dwconv2d k7 p3 s{stride} on 3x2 rel error {}",
            report.max_rel_error
        );
    }
}

#[test]
fn linear_shaped_matmul_gradients() {
    // y = x W + b, the exact chain `edd_nn::Linear` runs, so the backward
    // exercises both transpose-free GEMM variants and the bias broadcast.
    let mut rng = StdRng::seed_from_u64(25);
    let x = Tensor::param(Array::randn(&[5, 7], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[7, 4], 0.5, &mut rng));
    let b = Tensor::param(Array::randn(&[4], 0.5, &mut rng));
    let (xr, wr, br) = (x.clone(), w.clone(), b.clone());
    let report = check_gradients(
        &[x, w, b],
        move || xr.matmul(&wr).unwrap().add(&br).unwrap().square().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "linear chain rel error {}",
        report.max_rel_error
    );
}

#[test]
fn wide_matmul_gradients_cross_tile_boundaries() {
    // Dimensions past one 4x8 register tile so the backward kernels hit
    // their full-tile fast paths, not just the remainder loops.
    let mut rng = StdRng::seed_from_u64(26);
    let a = Tensor::param(Array::randn(&[6, 11], 1.0, &mut rng));
    let b = Tensor::param(Array::randn(&[11, 10], 0.5, &mut rng));
    let (ar, br) = (a.clone(), b.clone());
    let report = check_gradients(
        &[a, b],
        move || ar.matmul(&br).unwrap().square().sum(),
        EPS,
        1,
    );
    assert!(
        report.max_rel_error < TOL,
        "matmul rel error {}",
        report.max_rel_error
    );
}
