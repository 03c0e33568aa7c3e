//! Cache-blocked, register-tiled f32 GEMM fronts running on the persistent
//! worker pool, plus the batch-partitioning helpers the convolution ops
//! build on.
//!
//! # Blocking scheme
//!
//! Every GEMM front classifies its problem and runs the shape-selected
//! blueprint of [`select`]: an `MR = 4`-row register tile streams packed
//! `A` panels against `B` row strips, so each pass over a `B` row updates
//! four output rows at once and the branch-free inner loop over columns
//! vectorizes. Narrow (`n < NR`) and short (`m < MR`) problems get their
//! own bodies.
//!
//! Two variants serve the backward passes:
//!
//! * [`matmul_at_b_into`] — `C = Aᵀ·B` with `A` stored `[k, m]`
//!   (weight/`dB`-style gradients), read transposed in place;
//! * [`matmul_a_bt_into`] — `C = A·Bᵀ` with `B` stored `[n, k]`
//!   (input/`dA`-style gradients): `Bᵀ` is packed once into the scratch
//!   arena with a blocked transpose, then fed to the row-tiled GEMM — far
//!   better ILP than per-element dot products.
//!
//! # Threading model
//!
//! Large GEMMs split the *output rows* into contiguous blocks, one
//! [`pool`] task per block. Convolutions parallelize over the batch
//! dimension via [`par_batch2_with`]. In both cases every output element
//! is produced by exactly one task with a thread-count-independent
//! operation order, so results are **bitwise identical** for any
//! `EDD_NUM_THREADS` setting — see [`num_threads`].
//!
//! The scalar triple loop is kept as [`matmul_naive`], the reference
//! oracle the property-based suites compare the blueprints against.

pub mod pack;
pub mod pool;
pub mod select;

use pool::SendPtr;
use std::ops::Range;

/// Rows per register tile in the blocked kernels.
pub const MR: usize = 4;

/// Columns per register tile on the scalar (baseline-ISA) path: each of
/// the `MR` rows keeps an `NR`-lane accumulator live across the whole `k`
/// loop, so every output element is stored exactly once. The runtime AVX2
/// path widens this to 16 lanes; the blueprint docs in [`select`] say why
/// that cannot change results.
pub const NR: usize = 8;

/// Below this many multiply-adds a GEMM runs single-threaded; spawn
/// overhead dominates for smaller problems.
const PAR_MIN_MULADDS: usize = 1 << 18;

/// Below this many elements an elementwise pass runs on the calling
/// thread; pool dispatch costs more than the traversal.
pub const PAR_MIN_ELEMS: usize = 1 << 15;

/// Fixed reduction chunk length. Total sums are computed as an eight-lane
/// [`sum8`] per chunk plus a final [`sum8`] over the chunk partials; the
/// chunk length never depends on the thread count, so the result is
/// bitwise identical no matter how chunks are distributed over workers.
const REDUCE_CHUNK: usize = 1 << 15;

pub use pool::{num_threads, set_num_threads};

/// Output coordinates `o` (over `0..out_limit`) whose sampled input index
/// `o*stride + kc - pad` lands inside `[0, in_limit)`, as a half-open
/// range. Shared by the convolution lowerings (`im2col`/`col2im`) and the
/// depthwise kernels so their inner loops run branch-free.
#[must_use]
pub fn valid_out_range(
    kc: usize,
    pad: usize,
    stride: usize,
    in_limit: usize,
    out_limit: usize,
) -> (usize, usize) {
    let lo = if kc >= pad {
        0
    } else {
        (pad - kc).div_ceil(stride)
    };
    if in_limit + pad <= kc {
        return (0, 0);
    }
    let hi = ((in_limit - 1 + pad - kc) / stride + 1).min(out_limit);
    (lo.min(hi), hi)
}

/// Splits `0..n` into at most `parts` contiguous, non-empty, balanced
/// ranges (earlier ranges get the remainder).
#[must_use]
pub fn partition(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

// ---------------------------------------------------------------------------
// Reference oracle
// ---------------------------------------------------------------------------

/// Scalar reference GEMM: `C[m,n] = A[m,k] · B[k,n]`, freshly allocated.
///
/// This is the unblocked, single-threaded i-k-j loop the optimized kernels
/// are validated against. Per output element it accumulates in ascending
/// `k` order — the same association the blocked kernel uses.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m`, `k`, `n`.
#[must_use]
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "matmul_naive: bad lhs length");
    assert_eq!(b.len(), k * n, "matmul_naive: bad rhs length");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Blocked kernels (single-threaded building blocks)
// ---------------------------------------------------------------------------

/// `A`-element accessor for a 4-row tile: returns the scalars multiplying
/// `B` row `kk` for output rows `i..i+4`. The two GEMM orientations differ
/// only in this indexing.
pub(crate) trait LhsTile: Copy + Sync {
    fn scalars(&self, a: &[f32], i: usize, kk: usize) -> [f32; MR];
    fn scalar(&self, a: &[f32], i: usize, kk: usize) -> f32;
}

/// `A` stored row-major `[m, k]` (plain GEMM).
#[derive(Clone, Copy)]
pub(crate) struct RowMajorLhs {
    pub(crate) k: usize,
}

impl LhsTile for RowMajorLhs {
    #[inline(always)]
    fn scalars(&self, a: &[f32], i: usize, kk: usize) -> [f32; MR] {
        [
            a[i * self.k + kk],
            a[(i + 1) * self.k + kk],
            a[(i + 2) * self.k + kk],
            a[(i + 3) * self.k + kk],
        ]
    }

    #[inline(always)]
    fn scalar(&self, a: &[f32], i: usize, kk: usize) -> f32 {
        a[i * self.k + kk]
    }
}

/// `A` stored `[k, m]`, used as `Aᵀ`: output rows map to *columns* of `a`,
/// contiguous within each `kk` row. `i0` offsets into the full matrix when
/// a thread owns a row block.
#[derive(Clone, Copy)]
pub(crate) struct TransposedLhs {
    pub(crate) m: usize,
    pub(crate) i0: usize,
}

impl LhsTile for TransposedLhs {
    #[inline(always)]
    fn scalars(&self, a: &[f32], i: usize, kk: usize) -> [f32; MR] {
        let base = kk * self.m + self.i0 + i;
        [a[base], a[base + 1], a[base + 2], a[base + 3]]
    }

    #[inline(always)]
    fn scalar(&self, a: &[f32], i: usize, kk: usize) -> f32 {
        a[kk * self.m + self.i0 + i]
    }
}

// ---------------------------------------------------------------------------
// SIMD dispatch
// ---------------------------------------------------------------------------
//
// The block kernels are plain scalar loops over fixed-width lane groups
// (the 4x8 GEMM tile, the 8-lane reduction accumulators). Compiling the
// same loops under AVX2 maps each lane group onto one ymm register instead
// of two xmm registers — instruction selection changes, the float
// associations do not, so both paths produce bit-identical results and the
// runtime dispatch is a pure performance decision (verified by the
// `avx2_paths_match_scalar_bitwise` test below).

/// True when the CPU supports AVX2 and `EDD_SIMD` is not set to `scalar`
/// (the escape hatch for comparing code paths). Decided once, then served
/// from a relaxed atomic.
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn use_avx2() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    static STATE: AtomicU8 = AtomicU8::new(0); // 0 undecided, 1 off, 2 on
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let setting = std::env::var("EDD_SIMD").ok();
            if let Some(v) = setting.as_deref() {
                // Recognized values: "scalar" forces the scalar path,
                // "avx2"/"auto"/"" ask for the default dispatch. Anything
                // else behaves like auto but deserves a one-time warning
                // instead of a silent fallback.
                if !matches!(v, "scalar" | "avx2" | "auto" | "") {
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "warning: unrecognized EDD_SIMD value {v:?} (expected \
                             \"scalar\", \"avx2\", or \"auto\"); using auto dispatch"
                        );
                    });
                }
            }
            let on = setting.as_deref().is_none_or(|v| v != "scalar")
                && std::arch::is_x86_feature_detected!("avx2");
            STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Human-readable label of the active SIMD dispatch path (`"avx2"` or
/// `"scalar"`), recorded in bench records so trajectories across machines
/// stay comparable.
#[must_use]
pub fn simd_label() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        return "avx2";
    }
    "scalar"
}

/// Declares a `#[target_feature(enable = "avx2")]` twin of a scalar kernel
/// and a dispatching front that picks it when the CPU allows. The twin just
/// calls the (`inline(always)`) scalar body, so there is exactly one source
/// of truth per kernel.
macro_rules! avx2_dispatch {
    ($(#[$meta:meta])* $vis:vis $name:ident / $scalar:ident / $avx2:ident,
     ($($arg:ident : $ty:ty),* $(,)?) $(-> $ret:ty)?) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            if $crate::kernel::use_avx2() {
                // SAFETY: AVX2 support verified at runtime just above.
                return unsafe { $avx2($($arg),*) };
            }
            $scalar($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $avx2($($arg: $ty),*) $(-> $ret)? {
            $scalar($($arg),*)
        }
    };
}

pub(crate) use avx2_dispatch;

avx2_dispatch! {
    /// Sum with a fixed eight-lane association: breaks the sequential float
    /// dependency chain of a naive `iter().sum()` (so it vectorizes) while
    /// staying deterministic for a given slice length.
    #[must_use]
    pub sum8 / sum8_scalar / sum8_avx2,
    (x: &[f32]) -> f32
}

#[inline(always)]
fn sum8_scalar(x: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = x.len() / 8;
    for c in 0..chunks {
        let xb = &x[c * 8..c * 8 + 8];
        for l in 0..8 {
            acc[l] += xb[l];
        }
    }
    let mut tail = 0.0f32;
    for &v in &x[chunks * 8..] {
        tail += v;
    }
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

avx2_dispatch! {
    /// Sum of squared deviations `Σ (x - mu)²` with the same fixed eight-lane
    /// association as [`sum8`]. The variance reduction of batch normalization.
    #[must_use]
    pub sq_dev_sum8 / sq_dev_sum8_scalar / sq_dev_sum8_avx2,
    (x: &[f32], mu: f32) -> f32
}

#[inline(always)]
fn sq_dev_sum8_scalar(x: &[f32], mu: f32) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = x.len() / 8;
    for c in 0..chunks {
        let xb = &x[c * 8..c * 8 + 8];
        for l in 0..8 {
            let d = xb[l] - mu;
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for &v in &x[chunks * 8..] {
        let d = v - mu;
        tail += d * d;
    }
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

avx2_dispatch! {
    /// Dot product with a fixed eight-lane association, so the result does not
    /// depend on how work is partitioned (and the lanes map onto SIMD).
    #[must_use]
    pub dot8 / dot8_scalar / dot8_avx2,
    (x: &[f32], y: &[f32]) -> f32
}

#[inline(always)]
fn dot8_scalar(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; 8];
    let chunks = x.len() / 8;
    for c in 0..chunks {
        let xb = &x[c * 8..c * 8 + 8];
        let yb = &y[c * 8..c * 8 + 8];
        for l in 0..8 {
            acc[l] += xb[l] * yb[l];
        }
    }
    let mut tail = 0.0f32;
    for t in chunks * 8..x.len() {
        tail += x[t] * y[t];
    }
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

avx2_dispatch! {
    /// Dot product of `g` with the normalized values `(x - mu) * inv_std`,
    /// in [`dot8`]'s exact lane association. Recomputing the normalized
    /// activation inline yields the same bits as materializing it first
    /// (same expression, same inputs), so batch norm's `dgamma` reduction
    /// can run without a saved `xhat` buffer.
    #[must_use]
    pub dot_norm8 / dot_norm8_scalar / dot_norm8_avx2,
    (g: &[f32], x: &[f32], mu: f32, inv_std: f32) -> f32
}

#[inline(always)]
fn dot_norm8_scalar(g: &[f32], x: &[f32], mu: f32, inv_std: f32) -> f32 {
    debug_assert_eq!(g.len(), x.len());
    let mut acc = [0.0f32; 8];
    let chunks = g.len() / 8;
    for c in 0..chunks {
        let gb = &g[c * 8..c * 8 + 8];
        let xb = &x[c * 8..c * 8 + 8];
        for l in 0..8 {
            acc[l] += gb[l] * ((xb[l] - mu) * inv_std);
        }
    }
    let mut tail = 0.0f32;
    for t in chunks * 8..g.len() {
        tail += g[t] * ((x[t] - mu) * inv_std);
    }
    (((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))) + tail
}

avx2_dispatch! {
    /// Fused weighted sum `dst[i] = Σ_m weights[m] * srcs[m][i]`,
    /// overwritten, ascending `m`. Per element this performs exactly the FP
    /// operations of the unfused mul-then-add_n composition (`acc = w0*t0;
    /// acc += w1*t1; ...` — each product formed, then accumulated in branch
    /// order), so the fused mixture combine is bitwise identical to the
    /// per-branch `mul` + `add_n` chain it replaces. The axpy-style
    /// branch-outer loop keeps the inner loops vectorizable; element chains
    /// are independent, so the loop interchange cannot change any bit.
    pub weighted_sum_into / weighted_sum_into_scalar / weighted_sum_into_avx2,
    (dst: &mut [f32], srcs: &[&[f32]], weights: &[f32])
}

#[inline(always)]
fn weighted_sum_into_scalar(dst: &mut [f32], srcs: &[&[f32]], weights: &[f32]) {
    debug_assert_eq!(srcs.len(), weights.len());
    let Some((s0, rest)) = srcs.split_first() else {
        dst.fill(0.0);
        return;
    };
    debug_assert_eq!(s0.len(), dst.len());
    let w0 = weights[0];
    for (d, &x) in dst.iter_mut().zip(*s0) {
        *d = w0 * x;
    }
    for (s, &w) in rest.iter().zip(&weights[1..]) {
        debug_assert_eq!(s.len(), dst.len());
        for (d, &x) in dst.iter_mut().zip(*s) {
            *d += w * x;
        }
    }
}

avx2_dispatch! {
    /// Blocked transpose `dst[c, rows] = src[rows, c]`: `src` is `[rows,
    /// cols]` row-major, `dst` is `[cols, rows]`. 32x32 tiles keep both
    /// the read and the write streams inside one cache-line working set.
    transpose_into / transpose_into_scalar / transpose_into_avx2,
    (dst: &mut [f32], src: &[f32], rows: usize, cols: usize)
}

#[inline(always)]
fn transpose_into_scalar(dst: &mut [f32], src: &[f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    const TB: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + TB).min(rows);
        let mut c0 = 0;
        while c0 < cols {
            let c1 = (c0 + TB).min(cols);
            for r in r0..r1 {
                for c in c0..c1 {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
            c0 = c1;
        }
        r0 = r1;
    }
}

// ---------------------------------------------------------------------------
// Public allocation-free GEMM entry points
// ---------------------------------------------------------------------------

/// `out = A[m,k] · B[k,n]`, overwriting `out`, threaded over row blocks.
///
/// Thread count comes from [`num_threads`]; small problems stay
/// single-threaded. Results are bitwise identical for any thread count.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m`, `k`, `n`.
pub fn matmul_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let t = if m * n * k < PAR_MIN_MULADDS {
        1
    } else {
        num_threads()
    };
    matmul_into_threads(out, a, b, m, k, n, t);
}

/// [`matmul_into`] with an explicit thread count (callers that already
/// parallelize an outer dimension pass `1`).
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m`, `k`, `n`.
pub fn matmul_into_threads(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    matmul_into_hint(out, a, b, m, k, n, threads, false);
}

/// [`matmul_into_threads`] tagged as an im2col convolution lowering: the
/// selector classifies the call [`select::GemmClass::Conv`] so dispatch
/// counters separate convolution traffic. Arithmetic is identical to the
/// untagged front.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m`, `k`, `n`.
#[allow(clippy::too_many_arguments)] // mirrors matmul_into_threads
pub fn matmul_conv_into_threads(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    matmul_into_hint(out, a, b, m, k, n, threads, true);
}

#[allow(clippy::too_many_arguments)] // dimension tuple + control flags
fn matmul_into_hint(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    conv: bool,
) {
    assert_eq!(a.len(), m * k, "matmul_into: bad lhs length");
    assert_eq!(b.len(), k * n, "matmul_into: bad rhs length");
    assert_eq!(out.len(), m * n, "matmul_into: bad out length");
    select::record_class(m, n, conv);
    par_row_blocks(out, m, n, threads, |block, r| {
        let ab = &a[r.start * k..r.end * k];
        select::gemm_block_select(block, ab, b, RowMajorLhs { k }, r.len(), k, n);
    });
}

/// Runs `gemm(block, rows)` for contiguous row blocks of the `[m, n]`
/// output `out`, one [`pool`] task per block (inline when `threads`
/// leaves a single block). Each block is written by exactly one task, so
/// the result is the same for any thread count.
pub(crate) fn par_row_blocks<T: Send>(
    out: &mut [T],
    m: usize,
    n: usize,
    threads: usize,
    gemm: impl Fn(&mut [T], Range<usize>) + Sync,
) {
    let ranges = partition(m, threads);
    if ranges.len() <= 1 {
        gemm(out, 0..m);
        return;
    }
    let base = SendPtr::new(out.as_mut_ptr());
    pool::run(ranges.len(), &|t| {
        let r = ranges[t].clone();
        // SAFETY: partition ranges are disjoint, so each task's output
        // window is exclusive to it.
        let block = unsafe { base.slice(r.start * n, r.len() * n) };
        gemm(block, r);
    });
}

/// `out[m,n] = Aᵀ · B` without materializing `Aᵀ`: `a` is stored `[k, m]`,
/// `b` is `[k, n]`. Used for weight-side gradients (`dB = Aᵀ·dY`,
/// `dcols = Wᵀ·dY`). Threaded over output row blocks; bitwise
/// deterministic for any thread count.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `k`, `m`, `n`.
pub fn matmul_at_b_into(out: &mut [f32], a: &[f32], b: &[f32], k: usize, m: usize, n: usize) {
    let t = if m * n * k < PAR_MIN_MULADDS {
        1
    } else {
        num_threads()
    };
    matmul_at_b_into_threads(out, a, b, k, m, n, t);
}

/// [`matmul_at_b_into`] with an explicit thread count.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `k`, `m`, `n`.
pub fn matmul_at_b_into_threads(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(a.len(), k * m, "matmul_at_b: bad lhs length");
    assert_eq!(b.len(), k * n, "matmul_at_b: bad rhs length");
    assert_eq!(out.len(), m * n, "matmul_at_b: bad out length");
    select::record_class(m, n, false);
    par_row_blocks(out, m, n, threads, |block, r| {
        let lhs = TransposedLhs { m, i0: r.start };
        select::gemm_block_select(block, a, b, lhs, r.len(), k, n);
    });
}

/// `out[m,n] = A · Bᵀ` without materializing `Bᵀ`: `a` is `[m, k]`, `b` is
/// `[n, k]`. Used for input-side gradients (`dA = dY·Bᵀ`, `dW = dY·colsᵀ`).
/// Threaded over output row blocks; bitwise deterministic for any thread
/// count.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m`, `k`, `n`.
pub fn matmul_a_bt_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let t = if m * n * k < PAR_MIN_MULADDS {
        1
    } else {
        num_threads()
    };
    matmul_a_bt_into_threads(out, a, b, m, k, n, t);
}

/// [`matmul_a_bt_into`] with an explicit thread count.
///
/// # Panics
///
/// Panics if slice lengths are inconsistent with `m`, `k`, `n`.
pub fn matmul_a_bt_into_threads(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "matmul_a_bt: bad lhs length");
    assert_eq!(b.len(), n * k, "matmul_a_bt: bad rhs length");
    assert_eq!(out.len(), m * n, "matmul_a_bt: bad out length");
    // Pack `bᵀ` into the scratch arena once ([n, k] → [k, n]) and run the
    // plain row-tiled GEMM on the packed panel. The pack is O(k·n) against
    // the GEMM's O(m·k·n), and the 4x8 accumulator-tile microkernel is
    // several times faster than forming each output as a standalone dot
    // product over `b` rows. The panel is packed before the pool fan-out
    // and shared read-only, so the result stays independent of the thread
    // count.
    let mut bt = crate::scratch::alloc(k * n);
    transpose_into(&mut bt, b, n, k);
    select::record_class(m, n, false);
    let btr: &[f32] = &bt;
    par_row_blocks(out, m, n, threads, |block, r| {
        let ab = &a[r.start * k..r.end * k];
        select::gemm_block_select(block, ab, btr, RowMajorLhs { k }, r.len(), k, n);
    });
}

// ---------------------------------------------------------------------------
// Batch-dimension parallelism
// ---------------------------------------------------------------------------

/// Runs `f(scratch, item, slice1, slice2)` for each of `items` work items,
/// where `slice1`/`slice2` are the item's disjoint `chunk1`-/`chunk2`-sized
/// windows of `d1`/`d2`, distributing contiguous item ranges over scoped
/// threads. A chunk size of `0` hands every item an empty slice, letting
/// callers skip an output without a separate code path.
///
/// Each worker thread builds one `scratch` value via `init` and reuses it
/// across its items (e.g. an `im2col` buffer). Since every item writes only
/// its own windows, results are bitwise independent of the thread count.
///
/// # Panics
///
/// Panics if `d1`/`d2` lengths are not `items * chunk1` / `items * chunk2`.
#[allow(clippy::too_many_arguments)] // two (buffer, chunk) pairs + control
pub fn par_batch2_with<S>(
    items: usize,
    d1: &mut [f32],
    chunk1: usize,
    d2: &mut [f32],
    chunk2: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [f32], &mut [f32]) + Sync,
) {
    assert_eq!(d1.len(), items * chunk1, "par_batch2_with: bad d1 length");
    assert_eq!(d2.len(), items * chunk2, "par_batch2_with: bad d2 length");
    let run_range = |range: Range<usize>, mut s1: &mut [f32], mut s2: &mut [f32]| {
        let mut scratch = init();
        for item in range {
            let (c1, t1) = std::mem::take(&mut s1).split_at_mut(chunk1);
            s1 = t1;
            let (c2, t2) = std::mem::take(&mut s2).split_at_mut(chunk2);
            s2 = t2;
            f(&mut scratch, item, c1, c2);
        }
    };
    let ranges = partition(items, threads);
    if ranges.len() <= 1 {
        if items > 0 {
            run_range(0..items, d1, d2);
        }
        return;
    }
    let base1 = SendPtr::new(d1.as_mut_ptr());
    let base2 = SendPtr::new(d2.as_mut_ptr());
    pool::run(ranges.len(), &|t| {
        let r = ranges[t].clone();
        // SAFETY: partition ranges are disjoint and chunk strides are
        // uniform, so each task's windows of d1/d2 are exclusive to it.
        let b1 = unsafe { base1.slice(r.start * chunk1, r.len() * chunk1) };
        let b2 = unsafe { base2.slice(r.start * chunk2, r.len() * chunk2) };
        run_range(r, b1, b2);
    });
}

/// Single-output convenience wrapper over [`par_batch2_with`].
///
/// # Panics
///
/// Panics if `data.len() != items * chunk`.
pub fn par_batch_with<S>(
    items: usize,
    data: &mut [f32],
    chunk: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [f32]) + Sync,
) {
    par_batch2_with(
        items,
        data,
        chunk,
        &mut [],
        0,
        threads,
        init,
        |s, i, c, _| {
            f(s, i, c);
        },
    );
}

// ---------------------------------------------------------------------------
// Elementwise parallelism
// ---------------------------------------------------------------------------

/// `dst[i] = f(src[i])`, chunked over the pool for large slices. Purely
/// elementwise, so any partitioning yields bitwise-identical results.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn par_map_into(dst: &mut [f32], src: &[f32], f: impl Fn(f32) -> f32 + Sync) {
    assert_eq!(dst.len(), src.len(), "par_map_into: length mismatch");
    let n = dst.len();
    let threads = if n < PAR_MIN_ELEMS { 1 } else { num_threads() };
    let ranges = partition(n, threads);
    if ranges.len() <= 1 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = f(s);
        }
        return;
    }
    let base = SendPtr::new(dst.as_mut_ptr());
    pool::run(ranges.len(), &|t| {
        let r = &ranges[t];
        // SAFETY: disjoint partition ranges → disjoint windows.
        let d = unsafe { base.slice(r.start, r.len()) };
        for (d, &s) in d.iter_mut().zip(&src[r.clone()]) {
            *d = f(s);
        }
    });
}

/// Pool-recycled [`par_map_into`] (the `Array::map` backend): the output
/// buffer comes from [`crate::recycle`] and is fully overwritten.
#[must_use]
pub fn par_map_vec(src: &[f32], f: impl Fn(f32) -> f32 + Sync) -> Vec<f32> {
    let mut out = crate::recycle::take(src.len());
    par_map_into(&mut out, src, f);
    out
}

/// In-place elementwise map, chunked over the pool for large slices.
pub fn par_map_inplace(data: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    let n = data.len();
    let threads = if n < PAR_MIN_ELEMS { 1 } else { num_threads() };
    let ranges = partition(n, threads);
    if ranges.len() <= 1 {
        for v in data.iter_mut() {
            *v = f(*v);
        }
        return;
    }
    let base = SendPtr::new(data.as_mut_ptr());
    pool::run(ranges.len(), &|t| {
        let r = &ranges[t];
        // SAFETY: disjoint partition ranges → disjoint windows.
        for v in unsafe { base.slice(r.start, r.len()) } {
            *v = f(*v);
        }
    });
}

/// Fused same-length binary map: `out[i] = f(a[i], b[i])`, freshly
/// allocated, chunked over the pool for large slices. One pass and one
/// allocation where `map` + `mul` would take two of each — the gradient
/// hot path for elementwise activations.
///
/// # Panics
///
/// Panics if lengths differ.
#[must_use]
pub fn par_zip_vec(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32 + Sync) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "par_zip_vec: length mismatch");
    // Output storage is recycled; every element is overwritten below.
    let mut out = crate::recycle::take(a.len());
    if a.len() < PAR_MIN_ELEMS {
        for ((d, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *d = f(x, y);
        }
        return out;
    }
    let ranges = partition(out.len(), num_threads());
    let base = SendPtr::new(out.as_mut_ptr());
    pool::run(ranges.len(), &|t| {
        let r = &ranges[t];
        // SAFETY: disjoint partition ranges → disjoint windows.
        let d = unsafe { base.slice(r.start, r.len()) };
        for ((d, &x), &y) in d.iter_mut().zip(&a[r.clone()]).zip(&b[r.clone()]) {
            *d = f(x, y);
        }
    });
    out
}

/// In-place binary update `f(&mut dst[i], src[i])`, chunked over the pool
/// (the gradient-accumulation hot path).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn par_update2(dst: &mut [f32], src: &[f32], f: impl Fn(&mut f32, f32) + Sync) {
    assert_eq!(dst.len(), src.len(), "par_update2: length mismatch");
    let n = dst.len();
    let threads = if n < PAR_MIN_ELEMS { 1 } else { num_threads() };
    let ranges = partition(n, threads);
    if ranges.len() <= 1 {
        for (d, &s) in dst.iter_mut().zip(src) {
            f(d, s);
        }
        return;
    }
    let base = SendPtr::new(dst.as_mut_ptr());
    pool::run(ranges.len(), &|t| {
        let r = &ranges[t];
        // SAFETY: disjoint partition ranges → disjoint windows.
        let d = unsafe { base.slice(r.start, r.len()) };
        for (d, &s) in d.iter_mut().zip(&src[r.clone()]) {
            f(d, s);
        }
    });
}

/// Runs `f(row_index, row)` over every `cols`-wide row of `data`, fanning
/// contiguous row ranges out across the worker pool when the buffer is
/// large enough. Each row is computed independently of the others, so the
/// result is bitwise identical for any thread count. The backend for the
/// softmax-family row loops.
pub fn par_rows(data: &mut [f32], cols: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    if cols == 0 || data.is_empty() {
        return;
    }
    let rows = data.len() / cols;
    let threads = if data.len() < PAR_MIN_ELEMS {
        1
    } else {
        num_threads().min(rows)
    };
    if threads <= 1 {
        for (r, row) in data.chunks_exact_mut(cols).enumerate() {
            f(r, row);
        }
        return;
    }
    let ranges = partition(rows, threads);
    let base = SendPtr::new(data.as_mut_ptr());
    pool::run(ranges.len(), &|t| {
        let rg = &ranges[t];
        for r in rg.clone() {
            // SAFETY: disjoint row ranges → disjoint row windows.
            f(r, unsafe { base.slice(r * cols, cols) });
        }
    });
}

/// Deterministic total sum: an eight-lane [`sum8`] per fixed-length chunk
/// (chunks computed in parallel, each writing its own partial), then a
/// final [`sum8`] over the partials. The chunk length is a constant, so
/// the association — and therefore every bit of the result — is identical
/// for any thread count.
#[must_use]
pub fn par_sum(x: &[f32]) -> f32 {
    if x.len() <= REDUCE_CHUNK {
        return sum8(x);
    }
    let chunks = x.len().div_ceil(REDUCE_CHUNK);
    let mut partials = vec![0.0f32; chunks];
    let threads = num_threads().min(chunks);
    par_batch_with(
        chunks,
        &mut partials,
        1,
        threads,
        || (),
        |(), ci, out| {
            let lo = ci * REDUCE_CHUNK;
            let hi = (lo + REDUCE_CHUNK).min(x.len());
            out[0] = sum8(&x[lo..hi]);
        },
    );
    sum8(&partials)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn randv(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn avx2_paths_match_scalar_bitwise() {
        // The dispatched kernels must be bit-identical to their scalar
        // bodies — the AVX2 twins change instruction selection and the GEMM
        // strip width, never per-element accumulation order. On a machine
        // without AVX2 the front *is* the scalar path and this reduces to a
        // self-comparison.
        let mut rng = StdRng::seed_from_u64(77);
        let same = |x: &[f32], y: &[f32]| x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits());
        // One shape per blueprint body, in both LHS orientations: packed
        // with row and column tails past the 8- and 16-lane strips,
        // skinny-N (n < NR) with and without a row tail, and vecmat
        // (m < MR). Outputs start as NaN, so an element a body skips
        // fails the comparison too.
        for (m, k, n) in [
            (13usize, 37usize, 29usize),
            (9, 21, 5),
            (3, 19, 35),
            (1, 40, 7),
        ] {
            let a = randv(m * k, &mut rng);
            let at = randv(k * m, &mut rng); // stored [k, m]
            let b = randv(k * n, &mut rng);
            let mut got = vec![f32::NAN; m * n];
            let mut want = vec![f32::NAN; m * n];
            let lhs = RowMajorLhs { k };
            select::gemm_block_select(&mut got, &a, &b, lhs, m, k, n);
            select::gemm_block_select_body::<_, NR>(&mut want, &a, &b, lhs, m, k, n);
            assert!(same(&got, &want), "RowMajorLhs {m}x{k}x{n}");
            let mut got = vec![f32::NAN; m * n];
            let mut want = vec![f32::NAN; m * n];
            let lhs = TransposedLhs { m, i0: 0 };
            select::gemm_block_select(&mut got, &at, &b, lhs, m, k, n);
            select::gemm_block_select_body::<_, NR>(&mut want, &at, &b, lhs, m, k, n);
            assert!(same(&got, &want), "TransposedLhs {m}x{k}x{n}");
        }

        let (m, n) = (13usize, 29usize);
        let src = randv(m * n, &mut rng);
        let mut got = vec![0.0f32; m * n];
        let mut want = vec![0.0f32; m * n];
        transpose_into(&mut got, &src, m, n);
        transpose_into_scalar(&mut want, &src, m, n);
        assert!(same(&got, &want));

        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let x = randv(len, &mut rng);
            let y = randv(len, &mut rng);
            assert_eq!(sum8(&x).to_bits(), sum8_scalar(&x).to_bits());
            assert_eq!(dot8(&x, &y).to_bits(), dot8_scalar(&x, &y).to_bits());
            assert_eq!(
                sq_dev_sum8(&x, 0.25).to_bits(),
                sq_dev_sum8_scalar(&x, 0.25).to_bits()
            );
        }
    }

    #[test]
    fn partition_is_contiguous_and_balanced() {
        assert_eq!(partition(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(partition(2, 8), vec![0..1, 1..2]);
        assert_eq!(partition(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(partition(5, 1), vec![0..5]);
    }

    #[test]
    fn blocked_matches_naive_including_tile_remainders() {
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in [(1, 1, 1), (4, 8, 4), (5, 3, 7), (9, 16, 513), (6, 0, 3)] {
            let a = randv(m * k, &mut rng);
            let b = randv(k * n, &mut rng);
            let want = matmul_naive(&a, &b, m, k, n);
            let mut got = vec![f32::NAN; m * n];
            matmul_into(&mut got, &a, &b, m, k, n);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-5 * w.abs().max(1.0), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn threaded_rows_are_bitwise_equal_to_single() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, k, n) = (13, 27, 31);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let mut st = vec![0.0f32; m * n];
        matmul_into_threads(&mut st, &a, &b, m, k, n, 1);
        for t in [2, 3, 5, 16] {
            let mut mt = vec![0.0f32; m * n];
            matmul_into_threads(&mut mt, &a, &b, m, k, n, t);
            assert_eq!(st, mt, "threads={t}");
        }
    }

    #[test]
    fn transpose_free_variants_match_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(9);
        let (m, k, n) = (6, 10, 5);
        let a = randv(k * m, &mut rng); // [k, m]
        let b = randv(k * n, &mut rng); // [k, n]
        let mut at = vec![0.0f32; m * k];
        for kk in 0..k {
            for i in 0..m {
                at[i * k + kk] = a[kk * m + i];
            }
        }
        let want = matmul_naive(&at, &b, m, k, n);
        let mut got = vec![0.0f32; m * n];
        matmul_at_b_into_threads(&mut got, &a, &b, k, m, n, 3);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-5 * w.abs().max(1.0));
        }

        let a2 = randv(m * k, &mut rng); // [m, k]
        let b2 = randv(n * k, &mut rng); // [n, k]
        let mut b2t = vec![0.0f32; k * n];
        for j in 0..n {
            for kk in 0..k {
                b2t[kk * n + j] = b2[j * k + kk];
            }
        }
        let want = matmul_naive(&a2, &b2t, m, k, n);
        let mut got = vec![0.0f32; m * n];
        matmul_a_bt_into_threads(&mut got, &a2, &b2, m, k, n, 3);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-4 * w.abs().max(1.0));
        }
    }

    #[test]
    fn par_batch_covers_all_items_with_scratch_reuse() {
        let items = 7;
        let chunk = 3;
        let mut data = vec![0.0f32; items * chunk];
        par_batch_with(
            items,
            &mut data,
            chunk,
            3,
            Vec::<usize>::new,
            |seen, i, c| {
                seen.push(i);
                c.fill(i as f32 + 1.0);
            },
        );
        for i in 0..items {
            assert!(data[i * chunk..(i + 1) * chunk]
                .iter()
                .all(|&v| v == i as f32 + 1.0));
        }
    }

    #[test]
    fn par_batch2_zero_chunk_hands_empty_slices() {
        let items = 4;
        let mut d1 = vec![0.0f32; items * 2];
        par_batch2_with(
            items,
            &mut d1,
            2,
            &mut [],
            0,
            2,
            || (),
            |(), i, c1, c2| {
                assert!(c2.is_empty());
                c1.fill(i as f32);
            },
        );
        assert_eq!(d1, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn num_threads_is_cached_and_overridable() {
        // The env lookup happens once at pool init; at runtime only the
        // `set_num_threads` hook changes the partitioning count. Parsing
        // and fallback semantics are covered in `pool::tests`.
        let _guard = pool::test_lock();
        let before = num_threads();
        assert!(before >= 1);
        std::env::set_var("EDD_NUM_THREADS", "63");
        assert_eq!(num_threads(), before, "later env changes are ignored");
        std::env::remove_var("EDD_NUM_THREADS");
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(before);
    }

    #[test]
    fn pool_partitions_beyond_worker_count_stay_bitwise_equal() {
        // Logical thread counts larger than the physical core count must
        // not change a single bit: every output element is written by
        // exactly one task with a fixed accumulation order.
        let mut rng = StdRng::seed_from_u64(21);
        let (m, k, n) = (29, 17, 23);
        let a = randv(m * k, &mut rng);
        let b = randv(k * n, &mut rng);
        let _guard = pool::test_lock();
        let before = num_threads();
        let mut reference = vec![0.0f32; m * n];
        set_num_threads(1);
        matmul_into(&mut reference, &a, &b, m, k, n);
        for t in [2, 7, 19] {
            set_num_threads(t);
            let mut got = vec![0.0f32; m * n];
            matmul_into_threads(&mut got, &a, &b, m, k, n, t);
            let same = reference
                .iter()
                .zip(&got)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "logical threads={t}");
        }
        set_num_threads(before);
    }
}
