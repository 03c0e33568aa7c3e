//! 2-D convolution ops (standard and depthwise) in NCHW layout, with
//! GEMM-lowered forward (`im2col`) and hand-derived backward passes.
//!
//! Both convolutions run on the [`crate::kernel`] layer: the batch
//! dimension is split over scoped threads (each image's output slice is
//! disjoint, so results are bitwise independent of `EDD_NUM_THREADS`),
//! per-worker `im2col`/`dcols` buffers are reused across a worker's
//! images, and the backward GEMMs use the transpose-free kernel variants.

use crate::array::{col2im_into, im2col_into, Array, Conv2dGeometry};
use crate::error::{Result, TensorError};
use crate::kernel;
use crate::scratch;
use crate::tensor::Tensor;

use crate::kernel::valid_out_range;

/// Lanes per depthwise column group: eight outputs share one pass over the
/// taps, giving eight independent accumulator chains (one SIMD register)
/// instead of one serial `K*K`-add chain per element. Rows with at least
/// 16 outputs use the double-width group (two registers, one tap broadcast
/// for both) — the supernet's 16x16 feature planes are exactly one group.
const DW_GROUP: usize = 8;

/// Double-width depthwise group (see [`DW_GROUP`]); also the width of one
/// weight-gradient pass.
const DW_GROUP2: usize = 16;

/// The depthwise shapes [`Tensor::dwconv2d`] runs, all on the
/// padded-plane stencils: the search space's 3/5/7 kernel menu at stride 1
/// or 2, padded by less than the kernel (the gather-form `dx` pads `gy` by
/// `k - 1 - pad` columns).
fn is_stencil(kernel: usize, stride: usize, padding: usize) -> bool {
    matches!(kernel, 3 | 5 | 7) && matches!(stride, 1 | 2) && padding < kernel
}

/// Row stride of the padded input plane [`pad_input`] writes: `ow + k - 1`
/// columns at stride 1, two phases of `ow + k / 2` columns at stride 2.
fn padded_input_stride(g: &Conv2dGeometry) -> usize {
    if g.stride == 1 {
        g.out_w() + g.kernel - 1
    } else {
        2 * (g.out_w() + g.kernel / 2)
    }
}

/// Row stride and leading zero columns of the padded output-gradient plane
/// the gather-form `dx` reads (see [`dx_plane_stencil`]).
fn padded_grad_geom(g: &Conv2dGeometry) -> (usize, usize) {
    let (k, pad) = (g.kernel, g.padding);
    if g.stride == 1 {
        (g.in_w + k - 1, k - 1 - pad)
    } else {
        let lead = (k - pad) / 2;
        (lead + (g.in_w + pad - 1) / 2 + 1, lead)
    }
}

/// Scratch `f32`s one forward plane needs: its padded input. Taken once
/// per worker and reused across its planes.
fn forward_scratch_len(g: &Conv2dGeometry) -> usize {
    g.in_h * padded_input_stride(g)
}

/// Scratch `f32`s one backward plane needs: the padded input for `dW`, the
/// padded output gradient for `dx`, and one column-parity row of `dx` at
/// stride 2. Taken once per worker and reused across its planes.
fn backward_scratch_len(g: &Conv2dGeometry) -> usize {
    forward_scratch_len(g) + g.out_h() * padded_grad_geom(g).0 + g.in_w.div_ceil(2)
}

/// Copies one input plane into `xp` with horizontal zero padding, in rows
/// of [`padded_input_stride`]. At stride 2 each padded row is stored as
/// its even columns followed by its odd columns (two phases of
/// `ow + k / 2`), so that tap `kx` reads phase `kx % 2` at `kx / 2` and the
/// outputs of every tap are contiguous lanes.
#[inline(always)]
fn pad_input(xp: &mut [f32], src: &[f32], g: &Conv2dGeometry) {
    let (w, pad) = (g.in_w, g.padding);
    let xs = padded_input_stride(g);
    for sy in 0..g.in_h {
        let srow = &src[sy * w..(sy + 1) * w];
        let prow = &mut xp[sy * xs..(sy + 1) * xs];
        if g.stride == 1 {
            prow[..pad].fill(0.0);
            prow[pad..pad + w].copy_from_slice(srow);
            prow[pad + w..].fill(0.0);
        } else {
            let at = |p: usize| {
                p.checked_sub(pad)
                    .and_then(|i| srow.get(i))
                    .copied()
                    .unwrap_or(0.0)
            };
            let (even, odd) = prow.split_at_mut(xs / 2);
            for (m, (e, o)) in even.iter_mut().zip(odd.iter_mut()).enumerate() {
                *e = at(2 * m);
                *o = at(2 * m + 1);
            }
        }
    }
}

// Tap layouts of a padded source row, as a const-generic tag: where tap
// `t` of `T` reads relative to the row's window start.

/// Tap `t` at column `t` (the stride-1 input).
const TAPS_ASC: u8 = 0;
/// Tap `t` at column `T - 1 - t` (gradient rows under the flipped kernel).
const TAPS_DESC: u8 = 1;
/// Tap `t` in phase `t % 2` at column `t / 2` (the stride-2 input).
const TAPS_PHASED: u8 = 2;

/// The phase and column tap `t` reads under layout `L`.
#[inline(always)]
const fn tap_at<const T: usize, const L: u8>(t: usize) -> (usize, usize) {
    match L {
        TAPS_ASC => (0, t),
        TAPS_DESC => (0, T - 1 - t),
        _ => (t % 2, t / 2),
    }
}

/// The windows of one source row that `G` lanes starting at `at` read
/// under layout `L` (the second is the odd phase, `ph` further on). Taking
/// them once per row leaves the per-tap slices with constant bounds.
#[inline(always)]
fn row_windows<const T: usize, const G: usize, const L: u8>(
    src: &[f32],
    at: usize,
    ph: usize,
) -> [&[f32]; 2] {
    if L == TAPS_PHASED {
        let span = T / 2 + G;
        [&src[at..at + span], &src[at + ph..at + ph + span]]
    } else {
        let row = &src[at..at + T - 1 + G];
        [row, row]
    }
}

/// The source rows one gathered output row reads, in ascending `ky`: row
/// `r` applies kernel row `ky0 + kstep * r` to the taps whose window
/// starts at `at0 + r * astep` in the padded plane. `astep` is a wrapping
/// step: the gradient rows under ascending `ky` run backwards.
#[derive(Clone, Copy)]
struct RowSpan {
    n: usize,
    ky0: usize,
    kstep: usize,
    at0: usize,
    astep: usize,
}

/// One `G`-wide group of gathered outputs starting at column `x0`: per
/// lane, `Σ_rows Σ_t ker[ky, t] · src[tap t of the row]`, accumulated from
/// `+0.0` in (row, tap) order; `ker` rows are `T` taps wide. The group
/// width only changes how many independent chains run side by side, never
/// the association within one.
#[inline(always)]
fn gather_group<const T: usize, const G: usize, const L: u8>(
    src: &[f32],
    ker: &[f32],
    rows: RowSpan,
    ph: usize,
    x0: usize,
) -> [f32; G] {
    let mut acc = [0.0f32; G];
    for r in 0..rows.n {
        let ky = rows.ky0 + rows.kstep * r;
        let at = rows.at0.wrapping_add(rows.astep.wrapping_mul(r));
        let win = row_windows::<T, G, L>(src, at + x0, ph);
        for (t, &kv) in ker[ky * T..ky * T + T].iter().enumerate() {
            let (p, o) = tap_at::<T, L>(t);
            for (a, &sv) in acc.iter_mut().zip(&win[p][o..o + G]) {
                *a += kv * sv;
            }
        }
    }
    acc
}

/// Gathers one output row in [`DW_GROUP2`]- or [`DW_GROUP`]-wide groups
/// (the last group is anchored at the row end and may recompute a few
/// outputs of its predecessor), or one element at a time for rows
/// narrower than a group.
#[inline(always)]
fn gather_row<const T: usize, const L: u8>(
    drow: &mut [f32],
    src: &[f32],
    ker: &[f32],
    rows: RowSpan,
    ph: usize,
) {
    let n = drow.len();
    if n >= DW_GROUP2 {
        gather_groups::<T, DW_GROUP2, L>(drow, src, ker, rows, ph);
    } else if n >= DW_GROUP {
        gather_groups::<T, DW_GROUP, L>(drow, src, ker, rows, ph);
    } else {
        for (x, d) in drow.iter_mut().enumerate() {
            [*d] = gather_group::<T, 1, L>(src, ker, rows, ph, x);
        }
    }
}

#[inline(always)]
fn gather_groups<const T: usize, const G: usize, const L: u8>(
    drow: &mut [f32],
    src: &[f32],
    ker: &[f32],
    rows: RowSpan,
    ph: usize,
) {
    let last = drow.len() - G;
    let mut x0 = 0;
    loop {
        let g0 = x0.min(last);
        drow[g0..g0 + G].copy_from_slice(&gather_group::<T, G, L>(src, ker, rows, ph, g0));
        if g0 == last {
            break;
        }
        x0 += G;
    }
}

/// Depthwise forward stencil with a compile-time kernel width, stride 1
/// or 2, over the padded plane [`pad_input`] writes into `xp`. Vertical
/// clipping stays range-based per output row.
///
/// Bitwise identity with a convolution that skips the padding taps (the
/// tests' per-element oracle): per element the taps accumulate in
/// ascending `(ky, kx)` order either way, and the extra
/// zero-pad taps contribute `kv * ±0.0`. Because every accumulator starts
/// at `+0.0`, it can never *become* `-0.0` (in round-to-nearest `x + (-x)`
/// is `+0.0` for `x != 0`, and `+0.0 + -0.0` is `+0.0`), and adding `±0.0`
/// to a non-negative-zero float is exact identity — so the padded chain
/// passes through exactly the same partial values as the skipping chain.
#[inline(always)]
fn dw_plane_stencil<const K: usize>(
    dst: &mut [f32],
    src: &[f32],
    ker: &[f32],
    xp: &mut [f32],
    g: &Conv2dGeometry,
) {
    pad_input(xp, src, g);
    let xs = padded_input_stride(g);
    let ow = g.out_w();
    for (oy, drow) in dst.chunks_exact_mut(ow).enumerate() {
        // Valid `ky` taps for this output row (rows are not padded).
        let top = oy * g.stride;
        let ky0 = g.padding.saturating_sub(top);
        let ky1 = (g.in_h + g.padding).saturating_sub(top).min(K);
        let rows = RowSpan {
            n: ky1.saturating_sub(ky0),
            ky0,
            kstep: 1,
            at0: (top + ky0).saturating_sub(g.padding) * xs,
            astep: xs,
        };
        if g.stride == 1 {
            gather_row::<K, TAPS_ASC>(drow, xp, ker, rows, 0);
        } else {
            gather_row::<K, TAPS_PHASED>(drow, xp, ker, rows, xs / 2);
        }
    }
}

/// Taps of the largest stride-2 `dx` sub-kernel: 7 rows of 4 columns.
const DX_SUB_TAPS: usize = 28;

/// Gather-form input gradient of one plane at stride 1 or 2, overwriting
/// `dx`: `dx[sy, sx] = Σ ker[ky, kx] · gy[oy, ox]` over the taps with
/// `oy = (sy + pad - ky) / s` and `ox = (sx + pad - kx) / s` exact, from
/// `+0.0` in ascending `(ky, kx)` — the order of a per-element convolution
/// that skips the padding taps, so the bits match; taps that land in `gy`'s
/// zero padding add
/// `±0.0`, exact by the [`dw_plane_stencil`] argument.
///
/// `gy` is first copied into `gbuf` with `lead` zero columns on each row
/// (see [`padded_grad_geom`]). At stride 1 tap `kx` reads a padded row at
/// `k - 1 - kx`. At stride 2 the outputs of one column parity `q` are the
/// lanes: only taps `kx ≡ q + pad (mod 2)` reach them, each at
/// `lead + (q + pad - kx) / 2`, so each parity runs its own sub-kernel of
/// `TE` (even `kx`) or `TO` (odd `kx`) taps per row; each parity row is
/// gathered into the tail of `gbuf` and interleaved into `dx`.
#[inline(always)]
fn dx_plane_stencil<const K: usize, const TE: usize, const TO: usize>(
    dx: &mut [f32],
    ker: &[f32],
    gy: &[f32],
    gbuf: &mut [f32],
    g: &Conv2dGeometry,
) {
    let (w, pad, s) = (g.in_w, g.padding, g.stride);
    let (oh, ow) = (g.out_h(), g.out_w());
    let (gs, lead) = padded_grad_geom(g);
    let (gp, tmp) = gbuf.split_at_mut(oh * gs);
    for (prow, grow) in gp.chunks_exact_mut(gs).zip(gy.chunks_exact(ow)) {
        prow[..lead].fill(0.0);
        prow[lead..lead + ow].copy_from_slice(grow);
        prow[lead + ow..].fill(0.0);
    }
    let gp: &[f32] = gp;
    // Stride-2 sub-kernels: the even and the odd columns of `ker`.
    let sub = |kx0: usize, taps: usize| -> [f32; DX_SUB_TAPS] {
        std::array::from_fn(|i| {
            let (ky, t) = (i / taps, i % taps);
            if ky < K {
                ker[ky * K + kx0 + 2 * t]
            } else {
                0.0
            }
        })
    };
    let (even, odd) = if s == 2 {
        (sub(0, TE), sub(1, TO))
    } else {
        ([0.0; DX_SUB_TAPS], [0.0; DX_SUB_TAPS])
    };
    for sy in 0..g.in_h {
        let drow = &mut dx[sy * w..(sy + 1) * w];
        // Gradient rows reaching this input row: `ky ≡ sy + pad (mod s)`
        // from `ky0`, at descending `oy`.
        let t = sy + pad;
        let ky0 = if t >= s * (oh - 1) {
            t - s * (oh - 1)
        } else {
            t % s
        };
        let ky_cap = t.min(K - 1);
        let mut rows = RowSpan {
            n: if ky_cap >= ky0 {
                (ky_cap - ky0) / s + 1
            } else {
                0
            },
            ky0,
            kstep: s,
            at0: (t - ky0) / s * gs,
            astep: gs.wrapping_neg(),
        };
        if s == 1 {
            gather_row::<K, TAPS_DESC>(drow, gp, ker, rows, 0);
            continue;
        }
        let at0 = rows.at0;
        for q in 0..2 {
            let out = &mut tmp[..(w + 1 - q) / 2];
            // This parity's taps start at `kx0`, at `lead + (q + pad -
            // kx0) / 2` in a padded row; the window starts at the last.
            let kx0 = (q + pad) % 2;
            let taps = if kx0 == 0 { TE } else { TO };
            rows.at0 = at0 + lead + (q + pad - kx0) / 2 + 1 - taps;
            if kx0 == 0 {
                gather_row::<TE, TAPS_DESC>(out, gp, &even, rows, 0);
            } else {
                gather_row::<TO, TAPS_DESC>(out, gp, &odd, rows, 0);
            }
            for (j, &v) in out.iter().enumerate() {
                drow[2 * j + q] = v;
            }
        }
    }
}

/// Fixed eight-lane tree of one weight-gradient tap, [`kernel::dot8`]'s.
#[inline(always)]
fn lane_tree(b: &[f32; DW_GROUP]) -> f32 {
    ((b[0] + b[4]) + (b[1] + b[5])) + ((b[2] + b[6]) + (b[3] + b[7]))
}

/// `G / 8` adjacent eight-column groups of one `ky`'s weight gradient,
/// from column `c0`: per tap and lane, the products of gradient row `oy`
/// and the input row under it, summed over the valid `oy` in ascending
/// order from `+0.0`.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // one block's plain plane geometry
fn dw_cols<const K: usize, const G: usize, const L: u8>(
    gy: &[f32],
    xp: &[f32],
    g: &Conv2dGeometry,
    ky: usize,
    oy0: usize,
    oy1: usize,
    c0: usize,
) -> [[f32; G]; K] {
    let ow = g.out_w();
    let xs = padded_input_stride(g);
    let mut acc = [[0.0f32; G]; K];
    for oy in oy0..oy1 {
        let sy = oy * g.stride + ky - g.padding;
        let gv = &gy[oy * ow + c0..oy * ow + c0 + G];
        let win = row_windows::<K, G, L>(xp, sy * xs + c0, xs / 2);
        for (kx, a) in acc.iter_mut().enumerate() {
            let (p, o) = tap_at::<K, L>(kx);
            for ((a, &gl), &sl) in a.iter_mut().zip(gv).zip(&win[p][o..o + G]) {
                *a += gl * sl;
            }
        }
    }
    acc
}

/// Weight gradient of one plane, register-blocked, overwriting `dw`. For
/// each `ky` and each full eight-column group of the output, every tap
/// keeps an eight-lane accumulator over one pass down the valid gradient
/// rows ([`dw_cols`]; two adjacent groups share a pass, `2K` ymm
/// accumulators, which also keeps the compiler vectorizing over lanes
/// rather than across taps). The groups' lanes are then summed in
/// ascending group order from `+0.0`, and
/// `dw[ky, kx] = lane_tree(lanes) + tail`, where the tail sums the last
/// `ow % 8` columns row by row.
///
/// This association is fixed by the code alone — the same loops compile
/// for both dispatch paths, sharing a pass never changes a lane's sum,
/// and no length depends on the thread count — so scalar and AVX2 agree
/// bitwise.
#[inline(always)]
fn dw_grad_plane<const K: usize, const L: u8>(
    dw: &mut [f32],
    gy: &[f32],
    xp: &[f32],
    g: &Conv2dGeometry,
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let xs = padded_input_stride(g);
    let full = ow - ow % DW_GROUP;
    for (ky, dw_row) in dw.chunks_exact_mut(K).enumerate() {
        let (oy0, oy1) = valid_out_range(ky, g.padding, g.stride, g.in_h, oh);
        let mut lanes = [[0.0f32; DW_GROUP]; K];
        let mut add = |acc: &[[f32; DW_GROUP]; K]| {
            for (s, a) in lanes.iter_mut().zip(acc) {
                for (s, &a) in s.iter_mut().zip(a) {
                    *s += a;
                }
            }
        };
        let mut c0 = 0;
        while c0 + DW_GROUP2 <= full {
            let acc = dw_cols::<K, DW_GROUP2, L>(gy, xp, g, ky, oy0, oy1, c0);
            for half in 0..2 {
                add(&std::array::from_fn(|kx| {
                    std::array::from_fn(|l| acc[kx][half * DW_GROUP + l])
                }));
            }
            c0 += DW_GROUP2;
        }
        while c0 < full {
            add(&dw_cols::<K, DW_GROUP, L>(gy, xp, g, ky, oy0, oy1, c0));
            c0 += DW_GROUP;
        }
        let mut tail = [0.0f32; K];
        for oy in oy0..oy1 {
            let xrow = &xp[(oy * g.stride + ky - g.padding) * xs..];
            for (c, &gv) in gy[oy * ow..(oy + 1) * ow].iter().enumerate().skip(full) {
                for (kx, t) in tail.iter_mut().enumerate() {
                    let (p, o) = tap_at::<K, L>(kx);
                    *t += gv * xrow[p * (xs / 2) + o + c];
                }
            }
        }
        for ((d, s), &t) in dw_row.iter_mut().zip(&lanes).zip(&tail) {
            *d = lane_tree(s) + t;
        }
    }
}

kernel::avx2_dispatch! {
    /// One depthwise output plane: the const-width stencil
    /// ([`dw_plane_stencil`]: fully unrolled tap chain over a padded copy
    /// of the plane in `xp`). Per output element the taps accumulate in
    /// `(ky, kx)` order.
    dw_plane_forward / dw_plane_forward_scalar / dw_plane_forward_avx2,
    (dst: &mut [f32], src: &[f32], ker: &[f32], xp: &mut [f32], g: &Conv2dGeometry)
}

#[inline(always)]
fn dw_plane_forward_scalar(
    dst: &mut [f32],
    src: &[f32],
    ker: &[f32],
    xp: &mut [f32],
    g: &Conv2dGeometry,
) {
    match g.kernel {
        3 => dw_plane_stencil::<3>(dst, src, ker, xp, g),
        5 => dw_plane_stencil::<5>(dst, src, ker, xp, g),
        7 => dw_plane_stencil::<7>(dst, src, ker, xp, g),
        k => unreachable!("dwconv2d admits kernels 3, 5 and 7, not {k}"),
    }
}

kernel::avx2_dispatch! {
    /// Depthwise backward for one (image, channel) plane: `dx` in gather
    /// form ([`dx_plane_stencil`]) and `dW` register-blocked
    /// ([`dw_grad_plane`], its own fixed association), using `buf` (sized
    /// by [`backward_scratch_len`]) for the padded planes. The caller
    /// reduces per-image `dw` partials in batch order, so results stay
    /// bitwise identical across thread counts and SIMD modes.
    #[allow(clippy::too_many_arguments)] // one plane's operands, kept flat
    dw_plane_backward / dw_plane_backward_scalar / dw_plane_backward_avx2,
    (
        dx: Option<&mut [f32]>,
        dw: Option<&mut [f32]>,
        src: &[f32],
        ker: &[f32],
        gy: &[f32],
        buf: &mut [f32],
        g: &Conv2dGeometry,
    )
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dw_plane_backward_scalar(
    dx: Option<&mut [f32]>,
    dw: Option<&mut [f32]>,
    src: &[f32],
    ker: &[f32],
    gy: &[f32],
    buf: &mut [f32],
    g: &Conv2dGeometry,
) {
    match g.kernel {
        3 => dw_backward_stencil::<3, 2, 1>(dx, dw, src, ker, gy, buf, g),
        5 => dw_backward_stencil::<5, 3, 2>(dx, dw, src, ker, gy, buf, g),
        7 => dw_backward_stencil::<7, 4, 3>(dx, dw, src, ker, gy, buf, g),
        k => unreachable!("dwconv2d admits kernels 3, 5 and 7, not {k}"),
    }
}

/// Stencil backward of one plane; `TE`/`TO` are the stride-2 `dx` tap
/// counts per row for even and odd `kx` (`(K + 1) / 2` and `K / 2`).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn dw_backward_stencil<const K: usize, const TE: usize, const TO: usize>(
    dx: Option<&mut [f32]>,
    dw: Option<&mut [f32]>,
    src: &[f32],
    ker: &[f32],
    gy: &[f32],
    buf: &mut [f32],
    g: &Conv2dGeometry,
) {
    let (xp, gbuf) = buf.split_at_mut(forward_scratch_len(g));
    if let Some(dx) = dx {
        dx_plane_stencil::<K, TE, TO>(dx, ker, gy, gbuf, g);
    }
    if let Some(dw) = dw {
        pad_input(xp, src, g);
        if g.stride == 1 {
            dw_grad_plane::<K, TAPS_ASC>(dw, gy, xp, g);
        } else {
            dw_grad_plane::<K, TAPS_PHASED>(dw, gy, xp, g);
        }
    }
}

/// Validates NCHW input and returns `(batch, channels, h, w)`.
fn nchw(shape: &[usize], op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if shape.len() != 4 {
        return Err(TensorError::InvalidShape {
            shape: shape.to_vec(),
            reason: format!("{op} expects NCHW rank-4 input"),
        });
    }
    Ok((shape[0], shape[1], shape[2], shape[3]))
}

impl Tensor {
    /// Standard 2-D convolution.
    ///
    /// * `self` — input `[batch, in_c, h, w]`
    /// * `weight` — `[out_c, in_c, k, k]`
    /// * `bias` — optional `[out_c]`
    ///
    /// Lowered to GEMM via `im2col`; the backward pass recomputes the column
    /// matrix rather than caching it, trading FLOPs for memory (the graphs
    /// built by the EDD supernet hold many convolution nodes alive at once).
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches or a kernel larger than the
    /// padded input.
    pub fn conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        padding: usize,
    ) -> Result<Tensor> {
        let x_shape = self.shape();
        let w_shape = weight.shape();
        let (b, in_c, h, w) = nchw(&x_shape, "conv2d")?;
        if w_shape.len() != 4 || w_shape[1] != in_c || w_shape[2] != w_shape[3] {
            return Err(TensorError::ShapeMismatch {
                lhs: x_shape.clone(),
                rhs: w_shape.clone(),
                op: "conv2d",
            });
        }
        let (out_c, k) = (w_shape[0], w_shape[2]);
        if stride == 0 {
            return Err(TensorError::InvalidArgument("stride must be >= 1".into()));
        }
        if h + 2 * padding < k || w + 2 * padding < k {
            return Err(TensorError::InvalidShape {
                shape: x_shape.clone(),
                reason: format!("kernel {k} larger than padded input {h}x{w}+{padding}"),
            });
        }
        if let Some(bt) = bias {
            if bt.shape() != [out_c] {
                return Err(TensorError::ShapeMismatch {
                    lhs: bt.shape(),
                    rhs: vec![out_c],
                    op: "conv2d bias",
                });
            }
        }
        let geom = Conv2dGeometry {
            in_channels: in_c,
            in_h: h,
            in_w: w,
            kernel: k,
            stride,
            padding,
        };
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let ckk = in_c * k * k;
        let plane = oh * ow;
        // For a 1x1 stride-1 unpadded convolution the im2col matrix *is*
        // the input image ([in_c, h*w] == [ckk, plane], byte for byte), and
        // col2im is the identity scatter. Index the image directly instead
        // of copying it — results are bitwise unchanged. This is the hot
        // shape: MBConv expand/project convolutions are all 1x1.
        let identity_cols = k == 1 && stride == 1 && padding == 0;
        let w2 = weight.value().reshape(&[out_c, ckk])?;
        let img = in_c * h * w;
        // The batched GEMM below overwrites every output element, so the
        // buffer can start uninitialized (pool-recycled without zeroing).
        let mut out = Array::uninit(&[b, out_c, oh, ow]);
        {
            let w2d = w2.data();
            // Input read through the value guard (no clone); the guard is
            // dropped at the end of this block.
            let xv = self.value();
            let xd = xv.data();
            // Parallelize over the batch; each worker reuses one
            // arena-backed column buffer (im2col overwrites every entry,
            // so the stale contents are fine). With a single image the
            // inner GEMM threads instead.
            let threads = kernel::num_threads().min(b);
            let inner = if threads > 1 {
                1
            } else {
                kernel::num_threads()
            };
            kernel::par_batch_with(
                b,
                out.data_mut(),
                out_c * plane,
                threads,
                || scratch::alloc(if identity_cols { 0 } else { ckk * plane }),
                |cols, bi, dst| {
                    let x_img = &xd[bi * img..(bi + 1) * img];
                    if identity_cols {
                        // 1x1 channel mixing is a plain GEMM, not an im2col
                        // lowering: let the selector classify it by shape.
                        kernel::matmul_into_threads(dst, w2d, x_img, out_c, ckk, plane, inner);
                    } else {
                        im2col_into(cols, x_img, &geom);
                        kernel::matmul_conv_into_threads(dst, w2d, cols, out_c, ckk, plane, inner);
                    }
                },
            );
        }
        if let Some(bt) = bias {
            let bv = bt.value_clone();
            let plane = oh * ow;
            for bi in 0..b {
                for c in 0..out_c {
                    let base = (bi * out_c + c) * plane;
                    let bval = bv.data()[c];
                    for v in &mut out.data_mut()[base..base + plane] {
                        *v += bval;
                    }
                }
            }
        }

        let x_t = self.clone();
        let w_t = weight.clone();
        let b_t = bias.cloned();
        let w2_saved = w2;
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(bt) = bias {
            parents.push(bt.clone());
        }
        Ok(Tensor::from_op(
            out,
            parents,
            Box::new(move |g| {
                let plane = oh * ow;
                // Bias gradient: sum over batch and spatial dims.
                if let Some(bt) = &b_t {
                    if bt.requires_grad() {
                        let mut db = Array::zeros(&[out_c]);
                        for bi in 0..b {
                            for c in 0..out_c {
                                let base = (bi * out_c + c) * plane;
                                db.data_mut()[c] +=
                                    g.data()[base..base + plane].iter().sum::<f32>();
                            }
                        }
                        bt.accumulate_grad_owned(db);
                    }
                }
                let need_x = x_t.requires_grad();
                let need_w = w_t.requires_grad();
                if !need_x && !need_w {
                    return;
                }
                let ckk = in_c * k * k;
                // Per-image output buffers (chunk size 0 when a gradient is
                // not needed): disjoint writes keep the batch-parallel pass
                // bitwise independent of the thread count. The GEMMs
                // overwrite their outputs; only col2im accumulates, so only
                // its dx starts zeroed.
                let xlen = if need_x { img } else { 0 };
                let wlen = if need_w { out_c * ckk } else { 0 };
                let mut dxd = if identity_cols {
                    crate::recycle::take(b * xlen)
                } else {
                    crate::recycle::take_zeroed(b * xlen)
                };
                let mut dwp = scratch::alloc(b * wlen);
                {
                    let gd = g.data();
                    // The input is re-read through the parent handle at
                    // backward time (read lock on a distinct node); the
                    // guard drops with this block, before accumulation.
                    let xv = x_t.value();
                    let xd = xv.data();
                    let w2d = w2_saved.data();
                    let threads = kernel::num_threads().min(b);
                    let inner = if threads > 1 {
                        1
                    } else {
                        kernel::num_threads()
                    };
                    kernel::par_batch2_with(
                        b,
                        &mut dxd,
                        xlen,
                        &mut dwp,
                        wlen,
                        threads,
                        // Recomputed column matrix plus its gradient
                        // (arena-backed, fully overwritten before reads),
                        // reused across the worker's images. The 1x1
                        // stride-1 case needs neither buffer.
                        || {
                            let cols_len = if identity_cols { 0 } else { ckk * plane };
                            (
                                scratch::alloc(cols_len),
                                scratch::alloc(if need_x { cols_len } else { 0 }),
                            )
                        },
                        |(cols, dcols), bi, dxs, dws| {
                            let x_img = &xd[bi * img..(bi + 1) * img];
                            let gy = &gd[bi * out_c * plane..(bi + 1) * out_c * plane];
                            if identity_cols {
                                if need_w {
                                    // dW2 = dY · Xᵀ directly on the image.
                                    kernel::matmul_a_bt_into_threads(
                                        dws, gy, x_img, out_c, plane, ckk, inner,
                                    );
                                }
                                if need_x {
                                    // dX = W2ᵀ · dY straight into the image
                                    // gradient slot (col2im is the identity).
                                    kernel::matmul_at_b_into_threads(
                                        dxs, w2d, gy, out_c, ckk, plane, inner,
                                    );
                                }
                                return;
                            }
                            im2col_into(cols, x_img, &geom);
                            if need_w {
                                // dW2 = dY · colsᵀ, transpose-free.
                                kernel::matmul_a_bt_into_threads(
                                    dws, gy, cols, out_c, plane, ckk, inner,
                                );
                            }
                            if need_x {
                                // dcols = W2ᵀ · dY, transpose-free.
                                kernel::matmul_at_b_into_threads(
                                    dcols, w2d, gy, out_c, ckk, plane, inner,
                                );
                                col2im_into(dcols, &geom, dxs);
                            }
                        },
                    );
                }
                if need_w {
                    // Reduce per-image partials in fixed image order, so the
                    // weight gradient is identical for any thread count.
                    let mut dw2 = Array::zeros(&[out_c, ckk]);
                    if wlen > 0 {
                        for part in dwp.chunks_exact(wlen) {
                            for (d, &s) in dw2.data_mut().iter_mut().zip(part) {
                                *d += s;
                            }
                        }
                    }
                    w_t.accumulate_grad_owned(
                        dw2.reshape(&[out_c, in_c, k, k]).expect("weight reshape"),
                    );
                }
                if need_x {
                    let dx = Array::from_vec(dxd, &[b, in_c, h, w]).expect("dx shape");
                    x_t.accumulate_grad_owned(dx);
                }
            }),
        ))
    }

    /// Depthwise 2-D convolution: each channel is convolved with its own
    /// `k×k` filter.
    ///
    /// * `self` — input `[batch, c, h, w]`
    /// * `weight` — `[c, k, k]`, `k` one of the search space's 3, 5 and 7
    /// * `bias` — optional `[c]`
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches, and for a kernel outside
    /// {3, 5, 7}, a stride outside {1, 2} or a padding of at least the
    /// kernel: the shapes the stencils do not cover.
    pub fn dwconv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        padding: usize,
    ) -> Result<Tensor> {
        let x_shape = self.shape();
        let w_shape = weight.shape();
        let (b, c, h, w) = nchw(&x_shape, "dwconv2d")?;
        if w_shape.len() != 3 || w_shape[0] != c || w_shape[1] != w_shape[2] {
            return Err(TensorError::ShapeMismatch {
                lhs: x_shape.clone(),
                rhs: w_shape.clone(),
                op: "dwconv2d",
            });
        }
        let k = w_shape[1];
        if !is_stencil(k, stride, padding) {
            return Err(TensorError::InvalidArgument(format!(
                "dwconv2d: kernel {k}, stride {stride}, padding {padding}; the depthwise \
                 stencils take kernels 3, 5 and 7, strides 1 and 2, and padding below the kernel"
            )));
        }
        if h + 2 * padding < k || w + 2 * padding < k {
            return Err(TensorError::InvalidShape {
                shape: x_shape.clone(),
                reason: "kernel larger than padded input".into(),
            });
        }
        if let Some(bt) = bias {
            if bt.shape() != [c] {
                return Err(TensorError::ShapeMismatch {
                    lhs: bt.shape(),
                    rhs: vec![c],
                    op: "dwconv2d bias",
                });
            }
        }
        // One plane's geometry (the kernels see a single channel).
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: h,
            in_w: w,
            kernel: k,
            stride,
            padding,
        };
        let (oh, ow) = (geom.out_h(), geom.out_w());
        // Every output plane is fully written by the stencil, so the buffer
        // can start uninitialized (pool-recycled without zeroing).
        let mut out = Array::uninit(&[b, c, oh, ow]);
        {
            // Operands read through value guards (no clones); the guards
            // drop at the end of this block.
            let xv = self.value();
            let wv = weight.value();
            let xd = xv.data();
            let wd = wv.data();
            let threads = kernel::num_threads().min(b * c);
            kernel::par_batch_with(
                b * c,
                out.data_mut(),
                oh * ow,
                threads,
                // Padded-plane buffer, reused across the worker's planes.
                || scratch::alloc(forward_scratch_len(&geom)),
                |xp, pi, dst| {
                    let ci = pi % c;
                    let src = &xd[pi * h * w..(pi + 1) * h * w];
                    let ker = &wd[ci * k * k..(ci + 1) * k * k];
                    dw_plane_forward(dst, src, ker, xp, &geom);
                },
            );
        }
        if let Some(bt) = bias {
            let bv = bt.value_clone();
            let plane = oh * ow;
            for bi in 0..b {
                for ci in 0..c {
                    let base = (bi * c + ci) * plane;
                    let bval = bv.data()[ci];
                    for v in &mut out.data_mut()[base..base + plane] {
                        *v += bval;
                    }
                }
            }
        }

        let x_t = self.clone();
        let w_t = weight.clone();
        let b_t = bias.cloned();
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(bt) = bias {
            parents.push(bt.clone());
        }
        Ok(Tensor::from_op(
            out,
            parents,
            Box::new(move |g| {
                let plane = oh * ow;
                if let Some(bt) = &b_t {
                    if bt.requires_grad() {
                        let mut db = Array::zeros(&[c]);
                        for bi in 0..b {
                            for ci in 0..c {
                                let base = (bi * c + ci) * plane;
                                db.data_mut()[ci] +=
                                    g.data()[base..base + plane].iter().sum::<f32>();
                            }
                        }
                        bt.accumulate_grad_owned(db);
                    }
                }
                let need_x = x_t.requires_grad();
                let need_w = w_t.requires_grad();
                if !need_x && !need_w {
                    return;
                }
                // Per-image buffers (chunk 0 when unused), every element
                // overwritten by the stencils; dw partials are reduced in
                // image order below for thread-count-independent results.
                let img = c * h * w;
                let xlen = if need_x { img } else { 0 };
                let wlen = if need_w { c * k * k } else { 0 };
                let mut dxd = crate::recycle::take(b * xlen);
                let mut dwp = scratch::alloc(b * wlen);
                {
                    let gd = g.data();
                    // Operands re-read through the parent handles (read
                    // locks on distinct nodes); guards drop with this
                    // block, before accumulation.
                    let xv = x_t.value();
                    let wv = w_t.value();
                    let xd = xv.data();
                    let wd = wv.data();
                    let threads = kernel::num_threads().min(b);
                    kernel::par_batch2_with(
                        b,
                        &mut dxd,
                        xlen,
                        &mut dwp,
                        wlen,
                        threads,
                        // Padded planes of the stencil path (arena-backed,
                        // overwritten before reads), reused across the
                        // worker's images and channels.
                        || scratch::alloc(backward_scratch_len(&geom)),
                        |buf, bi, dxs, dws| {
                            for ci in 0..c {
                                let src = &xd[(bi * c + ci) * h * w..(bi * c + ci + 1) * h * w];
                                let ker = &wd[ci * k * k..(ci + 1) * k * k];
                                let gy = &gd[(bi * c + ci) * plane..(bi * c + ci + 1) * plane];
                                let dx = if need_x {
                                    Some(&mut dxs[ci * h * w..(ci + 1) * h * w])
                                } else {
                                    None
                                };
                                let dwt = if need_w {
                                    Some(&mut dws[ci * k * k..(ci + 1) * k * k])
                                } else {
                                    None
                                };
                                dw_plane_backward(dx, dwt, src, ker, gy, buf, &geom);
                            }
                        },
                    );
                }
                if need_w {
                    let mut dw = Array::zeros(&[c, k, k]);
                    if wlen > 0 {
                        for part in dwp.chunks_exact(wlen) {
                            for (d, &s) in dw.data_mut().iter_mut().zip(part) {
                                *d += s;
                            }
                        }
                    }
                    w_t.accumulate_grad_owned(dw);
                }
                if need_x {
                    let dx = Array::from_vec(dxd, &[b, c, h, w]).expect("dx shape");
                    x_t.accumulate_grad_owned(dx);
                }
            }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv1x1_is_channel_mixing() {
        // A 1x1 conv with identity-ish weights passes channels through.
        let x = Tensor::param(
            Array::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap(),
        );
        // weight [2,2,1,1] = identity
        let w = Tensor::param(Array::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]).unwrap());
        let y = x.conv2d(&w, None, 1, 0).unwrap();
        assert_eq!(y.value().data(), x.value().data());
    }

    #[test]
    fn conv2d_known_values() {
        // 1 channel 3x3 input, 2x2 kernel of ones, stride 1, no padding:
        // each output = sum of 2x2 window.
        let x = Tensor::param(
            Array::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap(),
        );
        let w = Tensor::param(Array::ones(&[1, 1, 2, 2]));
        let y = x.conv2d(&w, None, 1, 0).unwrap();
        assert_eq!(y.shape(), vec![1, 1, 2, 2]);
        assert_eq!(y.value().data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn conv2d_bias_adds_per_channel() {
        let x = Tensor::param(Array::zeros(&[1, 1, 2, 2]));
        let w = Tensor::param(Array::ones(&[3, 1, 1, 1]));
        let bias = Tensor::param(Array::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap());
        let y = x.conv2d(&w, Some(&bias), 1, 0).unwrap();
        let v = y.value();
        assert_eq!(&v.data()[0..4], &[1.0; 4]);
        assert_eq!(&v.data()[4..8], &[2.0; 4]);
        assert_eq!(&v.data()[8..12], &[3.0; 4]);
    }

    #[test]
    fn conv2d_stride_and_padding_shapes() {
        let x = Tensor::param(Array::zeros(&[2, 3, 32, 32]));
        let w = Tensor::param(Array::zeros(&[8, 3, 3, 3]));
        let y = x.conv2d(&w, None, 2, 1).unwrap();
        assert_eq!(y.shape(), vec![2, 8, 16, 16]);
    }

    #[test]
    fn conv2d_validates_shapes() {
        let x = Tensor::param(Array::zeros(&[1, 3, 8, 8]));
        let w_bad_in = Tensor::param(Array::zeros(&[4, 2, 3, 3]));
        assert!(x.conv2d(&w_bad_in, None, 1, 1).is_err());
        let w = Tensor::param(Array::zeros(&[4, 3, 3, 3]));
        let b_bad = Tensor::param(Array::zeros(&[5]));
        assert!(x.conv2d(&w, Some(&b_bad), 1, 1).is_err());
        assert!(x.conv2d(&w, None, 0, 1).is_err());
        let x3 = Tensor::param(Array::zeros(&[3, 8, 8]));
        assert!(x3.conv2d(&w, None, 1, 1).is_err());
    }

    #[test]
    fn conv2d_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::param(Array::randn(&[1, 2, 5, 5], 1.0, &mut rng));
        let w = Tensor::param(Array::randn(&[3, 2, 3, 3], 0.5, &mut rng));
        let bias = Tensor::param(Array::randn(&[3], 0.5, &mut rng));
        let f =
            |x: &Tensor, w: &Tensor, b: &Tensor| x.conv2d(w, Some(b), 2, 1).unwrap().square().sum();
        let loss = f(&x, &w, &bias);
        loss.backward();
        // Check a few weight entries by central differences.
        let eps = 1e-2;
        for idx in [0usize, 7, 20] {
            let orig = w.value().data()[idx];
            w.update_value(|a| a.data_mut()[idx] = orig + eps);
            let lp = f(&x, &w, &bias).item();
            w.update_value(|a| a.data_mut()[idx] = orig - eps);
            let lm = f(&x, &w, &bias).item();
            w.update_value(|a| a.data_mut()[idx] = orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = w.grad().unwrap().data()[idx];
            assert!(
                (num - ana).abs() / num.abs().max(1.0) < 5e-2,
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
        // And an input entry.
        let idx = 12;
        let orig = x.value().data()[idx];
        x.update_value(|a| a.data_mut()[idx] = orig + eps);
        let lp = f(&x, &w, &bias).item();
        x.update_value(|a| a.data_mut()[idx] = orig - eps);
        let lm = f(&x, &w, &bias).item();
        x.update_value(|a| a.data_mut()[idx] = orig);
        let num = (lp - lm) / (2.0 * eps);
        let ana = x.grad().unwrap().data()[idx];
        assert!((num - ana).abs() / num.abs().max(1.0) < 5e-2);
    }

    #[test]
    fn dwconv_known_values() {
        // 2 channels of 3x3, k=3 at padding 1: a box filter sums each
        // zero-padded neighbourhood of channel 0, and a centre tap of 3
        // scales channel 1 on its own.
        let x = Tensor::param(
            Array::from_vec((0..18).map(|v| v as f32).collect(), &[1, 2, 3, 3]).unwrap(),
        );
        let mut ker = vec![1.0; 9];
        ker.extend([0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0]);
        let w = Tensor::param(Array::from_vec(ker, &[2, 3, 3]).unwrap());
        let y = x.dwconv2d(&w, None, 1, 1).unwrap();
        assert_eq!(
            y.value().data(),
            &[
                8.0, 15.0, 12.0, 21.0, 36.0, 27.0, 20.0, 33.0, 24.0, //
                27.0, 30.0, 33.0, 36.0, 39.0, 42.0, 45.0, 48.0, 51.0,
            ]
        );
    }

    #[test]
    fn dwconv_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(13);
        let x = Tensor::param(Array::randn(&[2, 3, 6, 6], 1.0, &mut rng));
        let w = Tensor::param(Array::randn(&[3, 3, 3], 0.5, &mut rng));
        let f = |x: &Tensor, w: &Tensor| x.dwconv2d(w, None, 2, 1).unwrap().square().sum();
        let loss = f(&x, &w);
        loss.backward();
        let eps = 1e-2;
        for idx in [0usize, 13, 26] {
            let orig = w.value().data()[idx];
            w.update_value(|a| a.data_mut()[idx] = orig + eps);
            let lp = f(&x, &w).item();
            w.update_value(|a| a.data_mut()[idx] = orig - eps);
            let lm = f(&x, &w).item();
            w.update_value(|a| a.data_mut()[idx] = orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = w.grad().unwrap().data()[idx];
            assert!(
                (num - ana).abs() / num.abs().max(1.0) < 5e-2,
                "idx {idx}: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn dwconv_validates_shapes() {
        let x = Tensor::param(Array::zeros(&[1, 3, 8, 8]));
        let w_bad = Tensor::param(Array::zeros(&[2, 3, 3]));
        assert!(x.dwconv2d(&w_bad, None, 1, 1).is_err());
        let w = Tensor::param(Array::zeros(&[3, 3, 3]));
        assert!(x.dwconv2d(&w, None, 0, 1).is_err());
        let b_bad = Tensor::param(Array::zeros(&[4]));
        assert!(x.dwconv2d(&w, Some(&b_bad), 1, 1).is_err());
    }

    /// Plane geometry of one grid case.
    fn plane(h: usize, w: usize, k: usize, stride: usize, pad: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: 1,
            in_h: h,
            in_w: w,
            kernel: k,
            stride,
            padding: pad,
        }
    }

    /// Uniform values in `[-1, 1]`, every seventh one `-0.0` so the grid
    /// also pins the sign of zero sums.
    fn grid_values(len: usize, rng: &mut StdRng) -> Vec<f32> {
        use rand::Rng;
        (0..len)
            .map(|i| {
                if i % 7 == 3 {
                    -0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect()
    }

    /// The input coordinate output `o` reads under tap `kc`, if inside.
    fn tap_src(o: usize, kc: usize, g: &Conv2dGeometry, limit: usize) -> Option<usize> {
        (o * g.stride + kc)
            .checked_sub(g.padding)
            .filter(|&i| i < limit)
    }

    /// Per-element forward reference: the valid taps in ascending
    /// `(ky, kx)` from `+0.0`.
    fn naive_forward(src: &[f32], ker: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
        let (k, w, ow) = (g.kernel, g.in_w, g.out_w());
        let mut out = vec![0.0f32; g.out_h() * ow];
        for (i, o) in out.iter_mut().enumerate() {
            let (oy, ox) = (i / ow, i % ow);
            let mut acc = 0.0f32;
            for ky in 0..k {
                for kx in 0..k {
                    if let (Some(sy), Some(sx)) =
                        (tap_src(oy, ky, g, g.in_h), tap_src(ox, kx, g, w))
                    {
                        acc += ker[ky * k + kx] * src[sy * w + sx];
                    }
                }
            }
            *o = acc;
        }
        out
    }

    /// Per-element input-gradient reference: every `(ky, kx)` tap whose
    /// output lands inside `gy`, ascending, from `+0.0`.
    fn naive_dx(ker: &[f32], gy: &[f32], g: &Conv2dGeometry) -> Vec<f32> {
        let (k, s, w) = (g.kernel, g.stride, g.in_w);
        let (oh, ow) = (g.out_h(), g.out_w());
        let out_of = |i: usize, kc: usize, limit: usize| {
            (i + g.padding)
                .checked_sub(kc)
                .filter(|t| t % s == 0 && t / s < limit)
                .map(|t| t / s)
        };
        let mut dx = vec![0.0f32; g.in_h * w];
        for (i, d) in dx.iter_mut().enumerate() {
            let (sy, sx) = (i / w, i % w);
            let mut acc = 0.0f32;
            for ky in 0..k {
                for kx in 0..k {
                    if let (Some(oy), Some(ox)) = (out_of(sy, ky, oh), out_of(sx, kx, ow)) {
                        acc += ker[ky * k + kx] * gy[oy * ow + ox];
                    }
                }
            }
            *d = acc;
        }
        dx
    }

    /// Weight-gradient reference in f64, with the absolute sum of each
    /// tap's terms (the scale its rounding error is bounded by).
    fn f64_dw(src: &[f32], gy: &[f32], g: &Conv2dGeometry) -> Vec<(f64, f64)> {
        let (k, w, ow) = (g.kernel, g.in_w, g.out_w());
        let mut dw = vec![(0.0f64, 0.0f64); k * k];
        for (t, (sum, abs)) in dw.iter_mut().enumerate() {
            let (ky, kx) = (t / k, t % k);
            for (i, &gv) in gy.iter().enumerate() {
                let (oy, ox) = (i / ow, i % ow);
                if let (Some(sy), Some(sx)) = (tap_src(oy, ky, g, g.in_h), tap_src(ox, kx, g, w)) {
                    let term = f64::from(gv) * f64::from(src[sy * w + sx]);
                    *sum += term;
                    *abs += term.abs();
                }
            }
        }
        dw
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Forward and backward of one plane through a kernel body.
    type PlaneRun = (Vec<f32>, Vec<f32>, Vec<f32>);

    /// A forward body: `(dst, src, ker, scratch, geometry)`.
    type ForwardBody = fn(&mut [f32], &[f32], &[f32], &mut [f32], &Conv2dGeometry);

    /// A backward body: `(dx, dw, src, ker, gy, scratch, geometry)`.
    type BackwardBody = fn(
        Option<&mut [f32]>,
        Option<&mut [f32]>,
        &[f32],
        &[f32],
        &[f32],
        &mut [f32],
        &Conv2dGeometry,
    );

    fn run_plane(
        src: &[f32],
        ker: &[f32],
        gy: &[f32],
        g: &Conv2dGeometry,
        forward: ForwardBody,
        backward: BackwardBody,
    ) -> PlaneRun {
        // Stale scratch contents must not leak into any result.
        let mut buf = vec![f32::NAN; backward_scratch_len(g)];
        let mut y = vec![f32::NAN; g.out_h() * g.out_w()];
        forward(&mut y, src, ker, &mut buf[..forward_scratch_len(g)], g);
        let mut dx = vec![0.0f32; g.in_h * g.in_w];
        let mut dw = vec![0.0f32; g.kernel * g.kernel];
        backward(Some(&mut dx), Some(&mut dw), src, ker, gy, &mut buf, g);
        // Each gradient alone gives the same bits as both together.
        let mut dx_only = vec![0.0f32; dx.len()];
        let mut dw_only = vec![0.0f32; dw.len()];
        buf.fill(f32::NAN);
        backward(Some(&mut dx_only), None, src, ker, gy, &mut buf, g);
        backward(None, Some(&mut dw_only), src, ker, gy, &mut buf, g);
        assert_eq!(bits(&dx_only), bits(&dx), "dx alone {g:?}");
        assert_eq!(bits(&dw_only), bits(&dw), "dw alone {g:?}");
        (y, dx, dw)
    }

    #[test]
    fn depthwise_bodies_match_oracles_on_the_shape_grid() {
        // k {1,3,5,7} x stride {1,2} x pad 0..=k x planes 1..=20 square:
        // 8-lane groups, group tails and planes narrower than their
        // padding on the stencils, and (k = 1, pad = k) the shapes
        // `dwconv2d` rejects. Two wide planes add 16-lane groups at
        // stride 2 and anchored last groups.
        let planes = (1..=20usize)
            .flat_map(|h| (1..=20usize).map(move |w| (h, w)))
            .chain([(33, 33), (16, 40)]);
        let mut rng = StdRng::seed_from_u64(2024);
        let mut cases = 0;
        for (h, w) in planes {
            for k in [1usize, 3, 5, 7] {
                for stride in [1usize, 2] {
                    for pad in 0..=k {
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        cases += 1;
                        if !is_stencil(k, stride, pad) {
                            let x = Tensor::param(Array::zeros(&[1, 1, h, w]));
                            let ker = Tensor::param(Array::zeros(&[1, k, k]));
                            let err = x.dwconv2d(&ker, None, stride, pad).unwrap_err();
                            assert!(
                                matches!(&err, TensorError::InvalidArgument(m) if m.contains("stencils")),
                                "k{k} s{stride} p{pad} on {h}x{w}: {err}"
                            );
                            continue;
                        }
                        let g = plane(h, w, k, stride, pad);
                        let src = grid_values(h * w, &mut rng);
                        let ker = grid_values(k * k, &mut rng);
                        let gy = grid_values(g.out_h() * g.out_w(), &mut rng);
                        let (y, dx, dw) =
                            run_plane(&src, &ker, &gy, &g, dw_plane_forward, dw_plane_backward);
                        let (ys, dxs, dws) = run_plane(
                            &src,
                            &ker,
                            &gy,
                            &g,
                            dw_plane_forward_scalar,
                            dw_plane_backward_scalar,
                        );
                        assert_eq!(bits(&y), bits(&naive_forward(&src, &ker, &g)), "y {g:?}");
                        assert_eq!(bits(&dx), bits(&naive_dx(&ker, &gy, &g)), "dx {g:?}");
                        assert_eq!(bits(&y), bits(&ys), "y dispatch {g:?}");
                        assert_eq!(bits(&dx), bits(&dxs), "dx dispatch {g:?}");
                        assert_eq!(bits(&dw), bits(&dws), "dw dispatch {g:?}");
                        for (t, (&got, &(want, abs))) in
                            dw.iter().zip(&f64_dw(&src, &gy, &g)).enumerate()
                        {
                            // A chain of n adds errs by at most ~n ulps of
                            // the terms' absolute sum; no body here chains
                            // more than ~45, well inside 1e-5 (~84 ulps).
                            let tol = 1e-5 * abs + 1e-30;
                            assert!(
                                (f64::from(got) - want).abs() <= tol,
                                "dw[{t}] {got} vs {want} (tol {tol}) {g:?}"
                            );
                        }
                    }
                }
            }
        }
        assert!(cases > 14_000, "{cases} grid cases");
    }

    #[test]
    fn dwconv_stride_downsamples() {
        let x = Tensor::param(Array::zeros(&[1, 4, 16, 16]));
        let w = Tensor::param(Array::zeros(&[4, 5, 5]));
        let y = x.dwconv2d(&w, None, 2, 2).unwrap();
        assert_eq!(y.shape(), vec![1, 4, 8, 8]);
    }
}
