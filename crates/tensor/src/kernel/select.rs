//! Shape-specialized GEMM selection (the "cubek-style" kernel chooser).
//!
//! One blocked microkernel cannot be right for every problem the supernet
//! and the integer engine produce: a `1xK · KxN` vector-matrix product has
//! no row tile to amortize `B` traffic over, a `MxK · Kx4` classifier GEMM
//! never fills a 16-lane column strip, and the im2col convolutions sit in
//! between. The selector classifies each GEMM call by shape
//! ([`GemmClass`]) and dispatches a per-class blueprint:
//!
//! * [`GemmClass::VecMat`] (`m < MR`) — row-at-a-time kernel with wide
//!   unchecked column strips; no `A` panel (nothing to reuse).
//! * [`GemmClass::SkinnyN`] (`n < NR`) — packed `A` panel with the whole
//!   (narrow) output row held in one accumulator tile; no column strips.
//! * [`GemmClass::Square`] / [`GemmClass::Conv`] — packed `A` panel +
//!   `MR x NRV` unchecked microkernel (`super::pack::pack_a_panel`);
//!   `Conv` is the same blueprint tagged by the im2col lowering so the
//!   dispatch counters separate convolution traffic.
//!
//! **Bitwise invariant.** Every blueprint computes each output element
//! through a single accumulator chain in ascending `k` order — exactly the
//! association of [`super::matmul_naive`]. Packing copies operands without
//! touching arithmetic, and the strip width `NRV` only changes how many
//! independent chains run side by side. So the scalar bodies (`NR = 8`
//! lanes) and their AVX2 twins (16 lanes) are bit-identical by
//! construction, and so is any row partition (a row's chain is the same
//! in a 4-row tile and in a tail row). `kernel`'s
//! `avx2_paths_match_scalar_bitwise` test pins the twins to the scalar
//! bodies; `tests/select_props.rs` pins every class to the oracle and
//! across thread counts.
//!
//! Dispatch decisions are counted in [`crate::stats`] (`select_*`).

use super::pack::pack_a_panel;
use super::{LhsTile, MR, NR};

/// Shape class of one GEMM problem, as seen by the selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmClass {
    /// Fewer rows than one register tile (`m < MR`): vector-matrix /
    /// skinny-M problems.
    VecMat,
    /// Fewer columns than one scalar column strip (`n < NR`).
    SkinnyN,
    /// Everything else: both dimensions fill at least one register tile.
    Square,
    /// An im2col convolution lowering (tagged by the conv ops; the
    /// blueprint is the packed general kernel, the tag separates the
    /// dispatch counters).
    Conv,
}

/// Label of the GEMM route, always `"auto"`: every call runs the
/// shape-selected blueprints. Kept because the repo benchmark's reports
/// (`benchmark/src/report.rs`) still print it.
#[must_use]
pub fn gemm_label() -> &'static str {
    "auto"
}

/// Classifies one GEMM problem. `conv` tags im2col convolution lowerings.
#[must_use]
pub fn classify(m: usize, n: usize, conv: bool) -> GemmClass {
    if conv {
        GemmClass::Conv
    } else if m < MR {
        GemmClass::VecMat
    } else if n < NR {
        GemmClass::SkinnyN
    } else {
        GemmClass::Square
    }
}

/// Records one front-level GEMM call under its [`classify`] class in the
/// `select_*` counters.
///
/// Public because the integer layers (`edd-nn`) count their prepacked
/// qGEMM calls in the same counters.
pub fn record_class(m: usize, n: usize, conv: bool) {
    crate::stats::record_select_dispatch(classify(m, n, conv));
}

// ---------------------------------------------------------------------------
// Blueprints
// ---------------------------------------------------------------------------
//
// Hand-dispatched: the AVX2 twin recompiles the same bodies with 16-lane
// column strips (eight independent add chains per 4-row tile, enough to
// hide `vaddps` latency), while the scalar body keeps `NR = 8` (16-lane
// strips under SSE2 would need 16 xmm accumulators and spill).

/// Runs the selected blueprint for one (possibly thread-partitioned) row
/// block. The shape decides the blueprint; the class tag only fed the
/// dispatch counters at the front.
pub(crate) fn gemm_block_select<L: LhsTile>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    lhs: L,
    mb: usize,
    k: usize,
    n: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if super::use_avx2() {
        // SAFETY: AVX2 support verified at runtime just above.
        return unsafe { gemm_block_select_avx2(out, a, b, lhs, mb, k, n) };
    }
    gemm_block_select_body::<L, NR>(out, a, b, lhs, mb, k, n);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_block_select_avx2<L: LhsTile>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    lhs: L,
    mb: usize,
    k: usize,
    n: usize,
) {
    gemm_block_select_body::<L, 16>(out, a, b, lhs, mb, k, n);
}

/// One row block through the blueprint its shape selects, with `NRV`-lane
/// column strips. Zero-fills `out` when `k == 0`, and otherwise writes
/// every element of it.
#[inline(always)]
pub(super) fn gemm_block_select_body<L: LhsTile, const NRV: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    lhs: L,
    mb: usize,
    k: usize,
    n: usize,
) {
    if k == 0 {
        out.fill(0.0);
        return;
    }
    if mb == 0 || n == 0 {
        return;
    }
    if n < NR {
        gemm_skinny_n_body(out, a, b, lhs, mb, k, n);
    } else {
        gemm_packed_body::<L, NRV>(out, a, b, lhs, mb, k, n);
    }
}

/// Square/conv blueprint: packed `A` panels, `MR x NRV` microkernel with
/// unchecked loads, row tail via the vecmat rows.
#[inline(always)]
fn gemm_packed_body<L: LhsTile, const NRV: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    lhs: L,
    mb: usize,
    k: usize,
    n: usize,
) {
    let mut panel = crate::scratch::alloc(k * MR);
    let mut i = 0;
    while i + MR <= mb {
        pack_a_panel(&mut panel, a, lhs, i, k);
        let pp: &[f32] = &panel;
        let mut j = 0;
        while j + NRV <= n {
            // SAFETY: `j + NRV <= n` and `kk < k` keep every `b` load
            // inside `b[..k*n]`; the panel holds `k*MR` values; the output
            // rows `i..i+MR` exist because `i + MR <= mb`.
            unsafe {
                let mut acc = [[0.0f32; NRV]; MR];
                let bp = b.as_ptr().add(j);
                for kk in 0..k {
                    let bk = bp.add(kk * n);
                    let mut bv = [0.0f32; NRV];
                    std::ptr::copy_nonoverlapping(bk, bv.as_mut_ptr(), NRV);
                    let ap = pp.as_ptr().add(kk * MR);
                    for (r, accr) in acc.iter_mut().enumerate() {
                        let ar = *ap.add(r);
                        for (l, &bl) in accr.iter_mut().zip(&bv) {
                            *l += ar * bl;
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    let op = out.as_mut_ptr().add((i + r) * n + j);
                    std::ptr::copy_nonoverlapping(accr.as_ptr(), op, NRV);
                }
            }
            j += NRV;
        }
        // Column tail: scalar accumulators off the packed panel.
        while j < n {
            let mut acc = [0.0f32; MR];
            for kk in 0..k {
                let bv = b[kk * n + j];
                let base = kk * MR;
                for (r, l) in acc.iter_mut().enumerate() {
                    *l += pp[base + r] * bv;
                }
            }
            for (r, &v) in acc.iter().enumerate() {
                out[(i + r) * n + j] = v;
            }
            j += 1;
        }
        i += MR;
    }
    vecmat_rows::<L, NRV>(out, a, b, lhs, i, mb, k, n);
}

/// Vector-matrix blueprint (and the packed kernel's row tail): one output
/// row at a time, NRV-wide unchecked column strips. `A` rows are read in
/// place — with fewer than `MR` rows there is no reuse a panel could buy.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn vecmat_rows<L: LhsTile, const NRV: usize>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    lhs: L,
    i0: usize,
    mb: usize,
    k: usize,
    n: usize,
) {
    for i in i0..mb {
        let mut j = 0;
        while j + NRV <= n {
            // SAFETY: as in the packed kernel — strip and `kk` stay in
            // bounds of `b`, and row `i < mb` exists in `out`.
            unsafe {
                let mut acc = [0.0f32; NRV];
                let bp = b.as_ptr().add(j);
                for kk in 0..k {
                    let ar = lhs.scalar(a, i, kk);
                    let bk = bp.add(kk * n);
                    let mut bv = [0.0f32; NRV];
                    std::ptr::copy_nonoverlapping(bk, bv.as_mut_ptr(), NRV);
                    for (l, &bl) in acc.iter_mut().zip(&bv) {
                        *l += ar * bl;
                    }
                }
                let op = out.as_mut_ptr().add(i * n + j);
                std::ptr::copy_nonoverlapping(acc.as_ptr(), op, NRV);
            }
            j += NRV;
        }
        while j < n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += lhs.scalar(a, i, kk) * b[kk * n + j];
            }
            out[i * n + j] = acc;
            j += 1;
        }
    }
}

/// Skinny-N blueprint (`n < NR`): packed `A` panel, the whole narrow output
/// row block lives in one `MR x NR` accumulator tile (only the first `n`
/// lanes are used), no column strips.
#[inline(always)]
fn gemm_skinny_n_body<L: LhsTile>(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    lhs: L,
    mb: usize,
    k: usize,
    n: usize,
) {
    let mut panel = crate::scratch::alloc(k * MR);
    let mut i = 0;
    while i + MR <= mb {
        pack_a_panel(&mut panel, a, lhs, i, k);
        let mut acc = [[0.0f32; NR]; MR];
        for kk in 0..k {
            let brow = &b[kk * n..(kk + 1) * n];
            let base = kk * MR;
            for (r, accr) in acc.iter_mut().enumerate() {
                let ar = panel[base + r];
                for (l, &bv) in accr[..n].iter_mut().zip(brow) {
                    *l += ar * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            out[(i + r) * n..(i + r + 1) * n].copy_from_slice(&accr[..n]);
        }
        i += MR;
    }
    for i in i..mb {
        let mut acc = [0.0f32; NR];
        for kk in 0..k {
            let ar = lhs.scalar(a, i, kk);
            let brow = &b[kk * n..(kk + 1) * n];
            for (l, &bv) in acc[..n].iter_mut().zip(brow) {
                *l += ar * bv;
            }
        }
        out[i * n..(i + 1) * n].copy_from_slice(&acc[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifier_pins_known_shapes() {
        // 1xK . KxN: vector-matrix.
        assert_eq!(classify(1, 256, false), GemmClass::VecMat);
        // Skinny-M below the row tile.
        assert_eq!(classify(MR - 1, 64, false), GemmClass::VecMat);
        // 8xK . Kx4: output narrower than a column strip.
        assert_eq!(classify(8, 4, false), GemmClass::SkinnyN);
        // Square fills both tiles.
        assert_eq!(classify(64, 64, false), GemmClass::Square);
        assert_eq!(classify(MR, NR, false), GemmClass::Square);
        // The conv tag wins over shape.
        assert_eq!(classify(1, 1, true), GemmClass::Conv);
    }
}
