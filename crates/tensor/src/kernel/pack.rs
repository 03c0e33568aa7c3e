//! Panel packing for the shape-specialized GEMM blueprints.
//!
//! Two layouts live here:
//!
//! * **f32 LHS panels** — `MR`-row interleaved slabs (`panel[kk*MR + r] =
//!   A[i+r, kk]`) packed per row block inside the blueprint kernels, so the
//!   inner loop reads its four `A` scalars from one contiguous, bounds-free
//!   address instead of four strided rows. Packing copies values without
//!   touching the arithmetic, so the ascending-`k` accumulation chain per
//!   output element — the bitwise-determinism invariant of the f32 kernels
//!   — is unchanged.
//! * **int8 panels** for the maddubs microkernel
//!   ([`crate::qkernel::qmatmul_prepacked_into`]):
//!   - the LHS is stored dense with every row zero-padded to a multiple of
//!     4 taps ([`pack_lhs_i8`]), so the kernel can broadcast 4 consecutive
//!     `A` bytes as one dword for any `k`;
//!   - the RHS is blocked into `[ceil(n/8)]` panels of `[k4/4]` groups of
//!     `8 cols x 4 taps` bytes ([`pack_rhs_i8`]) — one 32-byte group is
//!     exactly one AVX2 register load feeding `_mm256_maddubs_epi16`.
//!
//! Zero padding is exact: symmetric quantization fixes the zero point at
//! integer 0, so padded taps contribute nothing.
//!
//! Weight-side panels are packed **once** at model-compile time and cached
//! next to the layer (`QConv2d`/`QLinear` in `edd-nn`); activation-side
//! panels are repacked per call into scratch. [`crate::stats`] counts both
//! (`pack_panel_hits` / `pack_panel_misses` / `pack_panels_built`).

use super::{LhsTile, MR};
use std::ops::Range;

/// Packs one `MR`-row slab of the LHS into `panel[kk*MR + r]` order.
/// `panel` must hold `k * MR` values; rows come from `lhs` at base row `i`.
#[inline(always)]
pub(crate) fn pack_a_panel<L: LhsTile>(panel: &mut [f32], a: &[f32], lhs: L, i: usize, k: usize) {
    debug_assert!(panel.len() >= k * MR);
    for kk in 0..k {
        let s = lhs.scalars(a, i, kk);
        panel[kk * MR..kk * MR + MR].copy_from_slice(&s);
    }
}

/// Number of taps per packed int8 K-group (one dword broadcast).
pub const QK_GROUP: usize = 4;

/// Columns per packed int8 RHS panel (one maddubs register covers
/// `QNP * QK_GROUP` bytes).
pub const QNP: usize = 8;

/// `k` rounded up to a whole number of K-groups.
#[must_use]
pub fn padded_k(k: usize) -> usize {
    k.div_ceil(QK_GROUP) * QK_GROUP
}

/// Length in bytes of a [`pack_lhs_i8`] buffer for an `[m, k]` matrix.
#[must_use]
pub fn packed_lhs_len(m: usize, k: usize) -> usize {
    m * padded_k(k)
}

/// Packs an `[m, k]` int8 matrix row-major with each row zero-padded to
/// [`padded_k`] taps. The result doubles as a plain dense matrix with
/// logical depth `padded_k(k)` (padded taps multiply against anything as
/// zero), which is how the `EDD_GEMM=generic` path consumes it.
///
/// # Panics
///
/// Panics on inconsistent buffer lengths.
pub fn pack_lhs_i8(dst: &mut [i8], a: &[i8], m: usize, k: usize) {
    let k4 = padded_k(k);
    assert_eq!(dst.len(), m * k4, "pack_lhs_i8: bad dst length");
    assert_eq!(a.len(), m * k, "pack_lhs_i8: bad src length");
    if k4 == 0 {
        return; // k == 0: nothing to pack.
    }
    for (drow, arow) in dst.chunks_exact_mut(k4).zip(a.chunks_exact(k)) {
        drow[..k].copy_from_slice(arow);
        drow[k..].fill(0);
    }
}

/// Length in bytes of a [`pack_rhs_i8`] buffer for a `[k, n]` matrix:
/// `ceil(n/QNP)` panels x `padded_k(k)/QK_GROUP` groups x 32 bytes.
#[must_use]
pub fn packed_rhs_len(k: usize, n: usize) -> usize {
    n.div_ceil(QNP) * padded_k(k) * QNP
}

/// Columns per block of the AVX2 RHS pack: one 32-byte row load, which
/// transposes into four whole 8-column panels.
#[cfg(target_arch = "x86_64")]
const QPACK_COLS: usize = 4 * QNP;

/// Packs a `[k, n]` int8 matrix into maddubs panel order: panel `jp` holds
/// columns `jp*8 .. jp*8+8`, as `k4/4` consecutive 32-byte groups of
/// `[col0 k0..k3, col1 k0..k3, ..., col7 k0..k3]`. Out-of-range taps and
/// columns pack as 0.
///
/// Hand-dispatched: under AVX2 every full 4-tap group of every 32-column
/// block is transposed in registers (`pack_rhs_avx2`). The scalar walk
/// (`pack_rhs_scalar`) is the reference, the whole body without AVX2,
/// and the tail path for a partial last group (`k % 4 != 0`) and the last
/// `n % 32` columns. Packing only moves bytes, so both bodies write the
/// same buffer. Each call adds the bytes each body wrote to
/// [`crate::stats`] (`pack_rhs_vector_bytes` / `pack_rhs_scalar_bytes`).
///
/// # Panics
///
/// Panics on inconsistent buffer lengths.
pub fn pack_rhs_i8(dst: &mut [i8], b: &[i8], k: usize, n: usize) {
    assert_eq!(
        dst.len(),
        packed_rhs_len(k, n),
        "pack_rhs_i8: bad dst length"
    );
    assert_eq!(b.len(), k * n, "pack_rhs_i8: bad src length");
    let groups = padded_k(k) / QK_GROUP;
    let panels = n.div_ceil(QNP);
    #[cfg(target_arch = "x86_64")]
    if super::use_avx2() {
        let (full_groups, blocks) = (k / QK_GROUP, n / QPACK_COLS);
        let vec_panels = blocks * QPACK_COLS / QNP;
        // SAFETY: AVX2 support verified at runtime just above; the buffer
        // lengths were asserted against the layout.
        unsafe { pack_rhs_avx2(dst, b, k, n, full_groups, blocks) };
        pack_rhs_scalar(dst, b, k, n, 0..vec_panels, full_groups..groups);
        pack_rhs_scalar(dst, b, k, n, vec_panels..panels, 0..groups);
        let vector = vec_panels * full_groups * QNP * QK_GROUP;
        crate::stats::record_pack_rhs_bytes(vector, dst.len() - vector);
        return;
    }
    pack_rhs_scalar(dst, b, k, n, 0..panels, 0..groups);
    crate::stats::record_pack_rhs_bytes(0, dst.len());
}

/// Scalar walk of the [`pack_rhs_i8`] layout over the given panels and
/// K-groups only; every other byte of `dst` is left as it is.
pub(crate) fn pack_rhs_scalar(
    dst: &mut [i8],
    b: &[i8],
    k: usize,
    n: usize,
    panels: Range<usize>,
    groups: Range<usize>,
) {
    let group_bytes = QNP * QK_GROUP;
    let panel_bytes = padded_k(k) * QNP;
    for jp in panels {
        let j0 = jp * QNP;
        let width = (n - j0).min(QNP);
        for g in groups.clone() {
            let at = jp * panel_bytes + g * group_bytes;
            let grp = &mut dst[at..at + group_bytes];
            let t0 = g * QK_GROUP;
            let taps = k.saturating_sub(t0).min(QK_GROUP);
            for c in 0..QNP {
                let cell = &mut grp[c * QK_GROUP..(c + 1) * QK_GROUP];
                if c < width {
                    for (t, d) in cell.iter_mut().enumerate() {
                        *d = if t < taps {
                            b[(t0 + t) * n + j0 + c]
                        } else {
                            0
                        };
                    }
                } else {
                    cell.fill(0);
                }
            }
        }
    }
}

/// AVX2 body of [`pack_rhs_i8`] over the first `full_groups` K-groups of
/// the first `blocks` 32-column blocks. Groups are the outer loop, so the
/// group's four source rows are read front to back. Per group and block it
/// makes four 32-byte row loads (taps `t0..t0 + 4`). `unpack{lo,hi}_epi8`
/// interleaves taps 0/1 and 2/3, and `unpack{lo,hi}_epi16` interleaves
/// those pairs, which leaves four columns of `[k0 k1 k2 k3]` cells in each
/// 128-bit lane. `permute2x128` then joins the lanes into the block's four
/// 8-column panel groups.
///
/// # Safety
///
/// The CPU must support AVX2. `dst` and `b` must have the lengths
/// [`pack_rhs_i8`] asserts, with `full_groups <= k / 4` and
/// `blocks <= n / 32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_rhs_avx2(
    dst: &mut [i8],
    b: &[i8],
    k: usize,
    n: usize,
    full_groups: usize,
    blocks: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(full_groups * QK_GROUP <= k && blocks * QPACK_COLS <= n);
    debug_assert!(dst.len() == packed_rhs_len(k, n) && b.len() == k * n);
    let group_bytes = QNP * QK_GROUP;
    let panel_bytes = padded_k(k) * QNP;
    for g in 0..full_groups {
        for blk in 0..blocks {
            let j = blk * QPACK_COLS;
            let base = dst.as_mut_ptr().add(blk * (QPACK_COLS / QNP) * panel_bytes);
            // SAFETY: rows t0..t0 + 4 <= k and columns j..j + 32 <= n lie
            // inside `b`; each store fills one group of one of the block's
            // four panels, inside `dst`.
            let src = b.as_ptr().add(g * QK_GROUP * n + j);
            let r0 = _mm256_loadu_si256(src.cast());
            let r1 = _mm256_loadu_si256(src.add(n).cast());
            let r2 = _mm256_loadu_si256(src.add(2 * n).cast());
            let r3 = _mm256_loadu_si256(src.add(3 * n).cast());
            let (lo01, hi01) = (_mm256_unpacklo_epi8(r0, r1), _mm256_unpackhi_epi8(r0, r1));
            let (lo23, hi23) = (_mm256_unpacklo_epi8(r2, r3), _mm256_unpackhi_epi8(r2, r3));
            // Lane 0 | lane 1 hold columns 0-3 | 16-19 (q0), 4-7 | 20-23
            // (q1), 8-11 | 24-27 (q2) and 12-15 | 28-31 (q3).
            let q0 = _mm256_unpacklo_epi16(lo01, lo23);
            let q1 = _mm256_unpackhi_epi16(lo01, lo23);
            let q2 = _mm256_unpacklo_epi16(hi01, hi23);
            let q3 = _mm256_unpackhi_epi16(hi01, hi23);
            let panels = [
                _mm256_permute2x128_si256::<0x20>(q0, q1),
                _mm256_permute2x128_si256::<0x20>(q2, q3),
                _mm256_permute2x128_si256::<0x31>(q0, q1),
                _mm256_permute2x128_si256::<0x31>(q2, q3),
            ];
            for (p, v) in panels.into_iter().enumerate() {
                _mm256_storeu_si256(base.add(p * panel_bytes + g * group_bytes).cast(), v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lhs_pads_rows_to_k_groups() {
        let a: Vec<i8> = (1..=6).collect(); // 2x3
        let mut dst = vec![9i8; packed_lhs_len(2, 3)];
        pack_lhs_i8(&mut dst, &a, 2, 3);
        assert_eq!(padded_k(3), 4);
        assert_eq!(dst, vec![1, 2, 3, 0, 4, 5, 6, 0]);
    }

    #[test]
    fn rhs_panel_layout_interleaves_cols_by_tap_groups() {
        // 5x3 matrix: one panel (n=3 < 8), two K-groups (k4 = 8).
        let k = 5;
        let n = 3;
        let b: Vec<i8> = (0..(k * n) as i8).collect();
        let mut dst = vec![9i8; packed_rhs_len(k, n)];
        pack_rhs_i8(&mut dst, &b, k, n);
        // Group 0, col 1 holds B[0..4, 1] = 1, 4, 7, 10.
        assert_eq!(&dst[4..8], &[1, 4, 7, 10]);
        // Group 1, col 0 holds B[4, 0] then zero-padded taps.
        assert_eq!(&dst[32..36], &[12, 0, 0, 0]);
        // Columns beyond n pack to zero.
        assert_eq!(&dst[3 * 4..8 * 4], &[0; 20]);
    }

    #[test]
    fn zero_k_packs_all_zero() {
        let mut lhs = vec![7i8; packed_lhs_len(3, 0)];
        pack_lhs_i8(&mut lhs, &[], 3, 0);
        assert!(lhs.is_empty());
        let mut rhs = vec![7i8; packed_rhs_len(0, 4)];
        pack_rhs_i8(&mut rhs, &[], 0, 4);
        assert!(rhs.is_empty());
    }
}
