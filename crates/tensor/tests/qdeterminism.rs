//! Bitwise determinism of the integer qkernel layer: quantized GEMM output
//! rows are partitioned across the pool but every `i32` accumulator sums
//! the same 4-tap groups in the same order regardless of partitioning —
//! and integer addition is associative anyway — so int8/int4 inference
//! must produce byte-identical results under 1, 2 and 7 logical threads,
//! and under any `EDD_SIMD` mode (the CI determinism matrix re-runs this
//! binary with `EDD_SIMD=scalar` and `EDD_SIMD=avx2` and both legs must
//! pass the same assertions; in-process scalar-vs-dispatched equality is
//! covered by the qkernel unit tests).
//!
//! All scenarios live in one `#[test]` because they mutate the global
//! thread-count override; this file is its own test binary, so no other
//! suite races it.

use edd_tensor::kernel::pack::{pack_lhs_i8, pack_rhs_i8, packed_lhs_len, packed_rhs_len};
use edd_tensor::kernel::set_num_threads;
use edd_tensor::qkernel::{
    dw_tap_pairs, pack_i4, qdw_plane_into, qim2col_into, qmatmul_naive, qmatmul_prepacked_into,
    requantize_rows_into, unpack_i4_into, Requant,
};
use edd_tensor::Conv2dGeometry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random int8 buffer (full `[-127, 127]` range).
fn qdata(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| rng.gen_range(-127i32..=127) as i8)
        .collect()
}

/// Everything one [`run_workload`] pass produces.
type Workload = (Vec<i8>, Vec<i32>, Vec<i8>, Vec<i32>, Vec<i8>, Vec<i32>);

/// One pass over every quantized inference primitive, sized so the GEMMs
/// cross the `QPAR_MIN_MACS` threshold and actually fan out on the pool:
/// int4 pack/unpack round-trip, qim2col lowering, the threaded prepacked
/// qGEMM (panel packs + maddubs GEMM) over the lowered columns, per-row
/// fixed-point requantization, the depthwise stencil, and a second
/// prepacked GEMM with row and column tails.
fn run_workload() -> Workload {
    // int4 weights, bit-packed then unpacked exactly as QWeights does per
    // forward call.
    let (m, k, n) = (64usize, 128, 64);
    let w4: Vec<i8> = qdata(m * k, 11)
        .iter()
        .map(|&v| (v / 16).clamp(-7, 7))
        .collect();
    let packed = pack_i4(&w4);
    let mut weights = vec![0i8; m * k];
    unpack_i4_into(&mut weights, &packed);
    assert_eq!(weights, w4, "int4 pack/unpack must round-trip exactly");

    // Quantized im2col + GEMM: 64×128 · 128×64 = 524k MACs > QPAR_MIN_MACS.
    let geom = Conv2dGeometry {
        in_channels: 8,
        in_h: 16,
        in_w: 16,
        kernel: 4,
        stride: 2,
        padding: 1,
    };
    let image = qdata(geom.in_channels * geom.in_h * geom.in_w, 22);
    let cols_len = geom.in_channels * geom.kernel * geom.kernel * geom.out_h() * geom.out_w();
    let mut cols = vec![0i8; cols_len];
    qim2col_into(&mut cols, &image, &geom);
    assert_eq!(cols_len, k * n, "workload geometry must feed the GEMM");

    let mut w_packed = vec![0i8; packed_lhs_len(m, k)];
    pack_lhs_i8(&mut w_packed, &weights, m, k);
    let mut col_panels = vec![0i8; packed_rhs_len(k, n)];
    pack_rhs_i8(&mut col_panels, &cols, k, n);
    let mut acc = vec![0i32; m * n];
    qmatmul_prepacked_into(&mut acc, &w_packed, &col_panels, m, k, n);
    assert_eq!(
        acc,
        qmatmul_naive(&weights, &cols, m, k, n),
        "conv GEMM must equal the naive product"
    );

    // Per-row requantization with varied multipliers, fused-ReLU6 clamp.
    let per_row: Vec<Requant> = (0..m)
        .map(|r| Requant::from_scale(0.5 + r as f64 * 1e-3))
        .collect();
    let mut out = vec![0i8; m * n];
    requantize_rows_into(&mut out, &acc, &per_row, n, 0, 127);

    // Depthwise stencil over one padded stride-1 plane.
    let dw_geom = Conv2dGeometry {
        in_channels: 1,
        in_h: 12,
        in_w: 12,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let plane = qdata(dw_geom.in_h * dw_geom.in_w, 33);
    let taps = qdata(9, 44);
    let mut dw = vec![0i32; dw_geom.out_h() * dw_geom.out_w()];
    qdw_plane_into(&mut dw, &plane, &taps, &dw_tap_pairs(&taps, 3), &dw_geom);

    // Prepacked path: 30×96·96×200 = 576k MACs > QPAR_MIN_MACS, with
    // m % 4 = 2 leftover rows after the 4-row tiles and an 8-column tail
    // after the six 32-column pack blocks.
    let (m, k, n) = (30usize, 96, 200);
    let a = qdata(m * k, 55);
    let b = qdata(k * n, 66);
    let mut a_packed = vec![0i8; packed_lhs_len(m, k)];
    pack_lhs_i8(&mut a_packed, &a, m, k);
    let mut panels = vec![0i8; packed_rhs_len(k, n)];
    pack_rhs_i8(&mut panels, &b, k, n);
    let mut prepacked = vec![0i32; m * n];
    qmatmul_prepacked_into(&mut prepacked, &a_packed, &panels, m, k, n);
    assert_eq!(
        prepacked,
        qmatmul_naive(&a, &b, m, k, n),
        "prepacked GEMM must equal the naive product"
    );

    (cols, acc, out, dw, panels, prepacked)
}

#[test]
fn pool_size_does_not_change_a_single_byte() {
    // Largest pool first so the workers actually exist (and execute tasks)
    // when the smaller logical counts run.
    set_num_threads(7);
    let seven = run_workload();
    let seven_again = run_workload();
    set_num_threads(2);
    let two = run_workload();
    set_num_threads(1);
    let one = run_workload();

    assert_eq!(
        seven, seven_again,
        "qkernel differs between two runs on the same pool"
    );
    assert_eq!(seven, two, "qkernel differs between 7 and 2 threads");
    assert_eq!(seven, one, "qkernel differs between 7 and 1 threads");
}
