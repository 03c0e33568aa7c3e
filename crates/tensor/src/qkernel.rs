//! Integer quantized kernel layer: symmetric int8/int4 quantization,
//! i32-accumulator GEMM/depthwise kernels, and fixed-point requantization.
//!
//! This is the execution substrate for running a derived EDD architecture
//! *entirely in integer arithmetic* at its Φ-searched precisions, instead of
//! simulating quantization with fake-quant f32 (`Tensor::fake_quantize`).
//!
//! # Number format
//!
//! Values are symmetric fixed point with zero-point 0: a real `v` is stored
//! as `q = round(v / s)` clamped to `[-qmax, qmax]`, with one scale `s` per
//! tensor (activations) or per output channel (weights). `qmax` is
//! `2^(bits-1) - 1` — 127 for int8, 7 for int4 — so the grid matches
//! `Tensor::fake_quantize(bits, range)` exactly when
//! `range = s · 2^(bits-1)` (the fake-quant step is `range / 2^(bits-1)`).
//! Int4 weights are stored bit-packed, two sign-extended nibbles per byte.
//!
//! # Accumulation and requantization
//!
//! Products of two i8 values are at most `127² = 16129`, so an i32
//! accumulator holds any reduction up to `k = 2^17` taps exactly — integer
//! arithmetic is associative, which makes bitwise determinism across thread
//! counts and SIMD modes structural rather than something the tiling has to
//! fight for. Rescaling an i32 accumulator into the next layer's i8 domain
//! multiplies by the *real* ratio `s_in · s_w / s_out`, represented as a
//! [`Requant`] fixed-point multiplier (q31 mantissa + power-of-two shift,
//! the gemmlowp/TFLite scheme) applied with round-half-away-from-zero — the
//! same rounding `f32::round` uses, which is what keeps the integer path
//! within one output step of the fake-quant oracle.
//!
//! # Threading and dispatch
//!
//! The GEMM front partitions output rows over the persistent worker
//! [`pool`], exactly like the f32 kernels in
//! [`kernel`](crate::kernel); every output element is written by exactly one
//! task. Hot kernels are declared through the same `avx2_dispatch!` macro,
//! so `EDD_SIMD=scalar` forces the scalar bodies and the dispatched fronts
//! stay the single source of truth.

use crate::array::Conv2dGeometry;
use crate::kernel::pool::{self, SendPtr};
use crate::kernel::{avx2_dispatch, num_threads, partition, valid_out_range};

/// Rows per register tile in the blocked integer GEMM (mirrors
/// [`crate::kernel::MR`]).
pub const QMR: usize = 4;

/// Columns per register tile: each row keeps eight i32 accumulator lanes
/// live across the `k` loop.
pub const QNR: usize = 8;

/// Below this many multiply-adds the integer GEMM runs single-threaded.
const QPAR_MIN_MACS: usize = 1 << 18;

/// Largest reduction depth the i32 accumulators hold exactly:
/// `2^17 · 127² < 2^31`. The GEMM fronts assert this.
pub const MAX_K: usize = 1 << 17;

/// Smallest calibration range, mirroring `QuantSpec::resolve_range` so an
/// all-zero tensor still gets a finite scale.
pub const MIN_RANGE: f32 = 1e-6;

// ---------------------------------------------------------------------------
// Quantization helpers
// ---------------------------------------------------------------------------

/// Largest representable magnitude for a `bits`-bit symmetric signed value:
/// `2^(bits-1) - 1`. Bits are clamped to `[2, 8]` — the engine stores every
/// quantized value in an i8 lane, so searched widths above 8 execute at the
/// 8-bit engine ceiling.
#[must_use]
pub fn qmax(bits: u32) -> i32 {
    (1i32 << (bits.clamp(2, 8) - 1)) - 1
}

/// Largest absolute value of a slice (0.0 when empty).
#[must_use]
pub fn max_abs(x: &[f32]) -> f32 {
    x.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
}

/// Scale mapping real magnitude `range` onto the `bits`-bit integer grid:
/// `max(range, MIN_RANGE) / qmax(bits)`.
#[must_use]
pub fn scale_for(range: f32, bits: u32) -> f32 {
    range.max(MIN_RANGE) / qmax(bits) as f32
}

/// Quantizes `src` onto the symmetric grid with the given `scale`, clamping
/// to `[-qmax, qmax]`: `dst[i] = clamp(round(src[i] / scale))`.
///
/// # Panics
///
/// Panics if lengths differ or `qmax` is outside `[1, 127]`.
pub fn quantize_i8_into(dst: &mut [i8], src: &[f32], scale: f32, qmax: i32) {
    assert_eq!(dst.len(), src.len(), "quantize_i8_into: length mismatch");
    assert!((1..=127).contains(&qmax), "quantize_i8_into: bad qmax");
    let inv = 1.0 / scale;
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = ((v * inv).round() as i32).clamp(-qmax, qmax) as i8;
    }
}

/// Dequantizes back to f32: `dst[i] = q[i] · scale`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dequantize_into(dst: &mut [f32], q: &[i8], scale: f32) {
    assert_eq!(dst.len(), q.len(), "dequantize_into: length mismatch");
    for (d, &v) in dst.iter_mut().zip(q) {
        *d = f32::from(v) * scale;
    }
}

// ---------------------------------------------------------------------------
// Int4 bit-packing
// ---------------------------------------------------------------------------

/// Packs int4 values (must be in `[-8, 7]`) two per byte, low nibble first.
/// Odd lengths leave the final high nibble zero.
///
/// # Panics
///
/// Panics if any value is outside the int4 range.
#[must_use]
pub fn pack_i4(q: &[i8]) -> Vec<u8> {
    let mut out = vec![0u8; q.len().div_ceil(2)];
    for (i, &v) in q.iter().enumerate() {
        assert!((-8..=7).contains(&v), "pack_i4: {v} outside int4 range");
        let nib = (v as u8) & 0x0f;
        out[i / 2] |= if i % 2 == 0 { nib } else { nib << 4 };
    }
    out
}

/// Unpacks [`pack_i4`] bytes back into sign-extended i8 values. `dst.len()`
/// selects how many nibbles to read.
///
/// # Panics
///
/// Panics if `packed` is shorter than `dst` requires.
pub fn unpack_i4_into(dst: &mut [i8], packed: &[u8]) {
    assert!(
        packed.len() >= dst.len().div_ceil(2),
        "unpack_i4_into: packed buffer too short"
    );
    for (i, d) in dst.iter_mut().enumerate() {
        let b = packed[i / 2];
        let nib = if i % 2 == 0 { b & 0x0f } else { b >> 4 };
        // Shift the nibble into the top of the byte and arithmetic-shift
        // back down: branch-free sign extension.
        *d = ((nib << 4) as i8) >> 4;
    }
}

// ---------------------------------------------------------------------------
// Fixed-point requantization
// ---------------------------------------------------------------------------

/// A positive real multiplier in gemmlowp-style fixed point: the value is
/// `mult · 2^(shift - 31)` with `mult` normalized to `[2^30, 2^31)`.
///
/// Layers build one per output channel from the scale ratio
/// `s_in · s_w[c] / s_out` and apply it to i32 accumulators with
/// round-half-away-from-zero — matching the rounding of `f32::round`, so the
/// integer path lands on the same grid points the fake-quant oracle does, up
/// to the one-ulp error of the q31 representation itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Requant {
    /// Normalized q31 mantissa in `[2^30, 2^31)`.
    pub mult: i32,
    /// Power-of-two exponent: the represented real is `mult · 2^(shift-31)`.
    pub shift: i32,
}

impl Requant {
    /// Builds the fixed-point representation of a positive real multiplier
    /// (a manual `frexp`: normalize the mantissa into `[0.5, 1)`, round to
    /// 31 fractional bits).
    ///
    /// # Panics
    ///
    /// Panics if `real` is not a positive finite number.
    #[must_use]
    pub fn from_scale(real: f64) -> Self {
        assert!(
            real.is_finite() && real > 0.0,
            "Requant::from_scale: multiplier must be positive and finite, got {real}"
        );
        let mut shift = 0i32;
        let mut r = real;
        while r >= 1.0 {
            r *= 0.5;
            shift += 1;
        }
        while r < 0.5 {
            r *= 2.0;
            shift -= 1;
        }
        // r in [0.5, 1): round to a 31-fraction-bit mantissa.
        let mut q = (r * (1i64 << 31) as f64).round() as i64;
        if q == 1i64 << 31 {
            // Rounding carried into the next power of two.
            q >>= 1;
            shift += 1;
        }
        Requant {
            mult: q as i32,
            shift,
        }
    }

    /// The real multiplier this fixed-point pair represents.
    #[must_use]
    pub fn real(&self) -> f64 {
        f64::from(self.mult) * pow2(self.shift - 31)
    }

    /// Whether this pair is in the domain the kernels are written for:
    /// `mult` normalized to `[2^30, 2^31)` (what [`from_scale`] always
    /// produces, and what the AVX2 requantizer's unsigned multiply
    /// assumes), and a `shift` for which [`apply`] neither overflows
    /// computing `31 - shift` nor shifts left by 128 bits or more. Decoders
    /// of outside input reject pairs that fail this.
    ///
    /// [`from_scale`]: Self::from_scale
    /// [`apply`]: Self::apply
    #[must_use]
    pub fn is_well_formed(&self) -> bool {
        let total_shift = 31 - i64::from(self.shift);
        self.mult >= 1 << 30 && total_shift > -128 && total_shift <= i64::from(i32::MAX)
    }

    /// Rescales an i32 accumulator: `round_half_away(acc · real())`,
    /// saturated to the i32 range.
    #[must_use]
    pub fn apply(&self, acc: i32) -> i32 {
        let prod = i64::from(acc) * i64::from(self.mult);
        let total_shift = 31 - self.shift;
        if total_shift <= 0 {
            // Multiplier >= 1: pure left shift, saturate (cold path; real
            // layer scale ratios are < 1).
            let v = i128::from(prod) << (-total_shift);
            return v.clamp(i128::from(i32::MIN), i128::from(i32::MAX)) as i32;
        }
        if total_shift >= 63 {
            // Multiplier so small every representable accumulator rounds
            // to zero.
            return 0;
        }
        let nudge = 1i64 << (total_shift - 1);
        let v = if prod >= 0 {
            (prod + nudge) >> total_shift
        } else {
            -((-prod + nudge) >> total_shift)
        };
        v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
    }

    /// [`apply`](Self::apply) then clamp into `[lo, hi]` and narrow to i8
    /// (the per-element store of a requantizing layer).
    ///
    /// # Panics
    ///
    /// Debug-panics if `[lo, hi]` is not within the i8 range.
    #[must_use]
    pub fn apply_i8(&self, acc: i32, lo: i32, hi: i32) -> i8 {
        debug_assert!(lo >= -128 && hi <= 127 && lo <= hi);
        self.apply(acc).clamp(lo, hi) as i8
    }
}

/// `2^e` for exponents far inside the f64 range, without pulling in `libm`.
fn pow2(e: i32) -> f64 {
    if e >= 0 {
        (1u64 << e.min(62)) as f64
    } else {
        1.0 / (1u64 << (-e).min(62)) as f64
    }
}

/// Requantizes a row-major `[rows, cols]` i32 accumulator block into i8,
/// one [`Requant`] per row (per output channel), clamping to `[lo, hi]`.
///
/// Per row the multiplier's `31 - shift` and rounding nudge are hoisted
/// and the common case (a normalized positive `mult` with
/// `0 < 31 - shift < 63`, i.e. every real layer scale ratio) runs a
/// vectorizable row kernel; degenerate multipliers fall back to the
/// per-element [`Requant::apply_i8`]. The row kernel computes exactly the
/// same `i64` product / nudge / shift / clamp sequence as `apply_i8`
/// (clamping straight to `[lo, hi] ⊆ i8` instead of clamping to the i32
/// range first, which cannot change the result), so this is bitwise
/// identical to the element-wise loop on every path.
///
/// # Panics
///
/// Panics on inconsistent lengths, or when `[lo, hi]` is empty or not
/// within the i8 range (the vector kernel narrows with saturating packs,
/// which equal the scalar `as i8` only inside that range).
pub fn requantize_rows_into(
    dst: &mut [i8],
    acc: &[i32],
    per_row: &[Requant],
    cols: usize,
    lo: i32,
    hi: i32,
) {
    assert_eq!(
        dst.len(),
        acc.len(),
        "requantize_rows_into: length mismatch"
    );
    assert_eq!(
        acc.len(),
        per_row.len() * cols,
        "requantize_rows_into: rows/cols mismatch"
    );
    assert!(
        -128 <= lo && lo <= hi && hi <= 127,
        "requantize_rows_into: clamp [{lo}, {hi}] outside the i8 range"
    );
    for ((d_row, a_row), rq) in dst
        .chunks_exact_mut(cols)
        .zip(acc.chunks_exact(cols))
        .zip(per_row)
    {
        let ts = 31 - rq.shift;
        if ts <= 0 || ts >= 63 || rq.mult <= 0 {
            // Degenerate multipliers (>= 1, flushing to zero, or not
            // positive): cold path.
            for (d, &a) in d_row.iter_mut().zip(a_row) {
                *d = rq.apply_i8(a, lo, hi);
            }
        } else {
            requantize_row_fast(d_row, a_row, rq.mult, ts, lo, hi);
        }
    }
}

/// Row kernel for the common requant case (`mult > 0`, `0 < ts < 63`,
/// `-128 <= lo <= hi <= 127`). Dispatched by hand: the AVX2 twin is a
/// genuinely different instruction sequence (unsigned 32x32→64 multiplies,
/// a magnitude cap and 32-bit clamps), kept bit-identical by integer
/// exactness rather than by recompilation, and pinned to the scalar body by
/// the kernel-dispatch test.
fn requantize_row_fast(dst: &mut [i8], acc: &[i32], mult: i32, ts: i32, lo: i32, hi: i32) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::use_avx2() {
        // SAFETY: AVX2 support verified at runtime just above.
        return unsafe { requantize_row_fast_avx2(dst, acc, mult, ts, lo, hi) };
    }
    requantize_row_fast_scalar(dst, acc, mult, ts, lo, hi);
}

#[inline(always)]
fn requantize_row_fast_scalar(dst: &mut [i8], acc: &[i32], mult: i32, ts: i32, lo: i32, hi: i32) {
    debug_assert!((1..63).contains(&ts));
    let mult = i64::from(mult);
    let nudge = 1i64 << (ts - 1);
    let (lo, hi) = (i64::from(lo), i64::from(hi));
    for (d, &a) in dst.iter_mut().zip(acc) {
        let prod = i64::from(a) * mult;
        let v = if prod >= 0 {
            (prod + nudge) >> ts
        } else {
            -((-prod + nudge) >> ts)
        };
        *d = v.clamp(lo, hi) as i8;
    }
}

/// AVX2 requant row: 8 accumulators per iteration, narrowed to 8 bytes
/// with one store.
///
/// The sign is peeled off (`|i32::MIN|` reads as exactly `2^31` unsigned)
/// and the magnitudes of the even and odd lanes go through
/// `_mm256_mul_epu32` — the full product `|acc| · mult < 2^62`, since
/// `mult` is positive. Nudge-add and logical shift stay in the positive
/// range. The shifted magnitude is then capped at `2^31 - 1`: every
/// magnitude at or above the cap clamps to `lo` or `hi` anyway, because
/// `[lo, hi] ⊆ [-128, 127]`. The capped values fit 32-bit lanes, where the
/// sign is re-applied and the `min/max_epi32` clamp runs. After the clamp
/// every lane is in the i8 range, so the saturating `packs` narrowing
/// equals the scalar body's `as i8`.
///
/// # Safety
///
/// The CPU must support AVX2; `mult > 0`, `0 < ts < 63` and
/// `-128 <= lo <= hi <= 127` (the contract of [`requantize_row_fast`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requantize_row_fast_avx2(
    dst: &mut [i8],
    acc: &[i32],
    mult: i32,
    ts: i32,
    lo: i32,
    hi: i32,
) {
    use std::arch::x86_64::*;
    debug_assert!((1..63).contains(&ts) && mult > 0);
    debug_assert!(-128 <= lo && lo <= hi && hi <= 127);
    let n = dst.len().min(acc.len());
    let mult_v = _mm256_set1_epi32(mult);
    let nudge_v = _mm256_set1_epi64x(1i64 << (ts - 1));
    let cap_v = _mm256_set1_epi64x(i64::from(i32::MAX));
    let lo_v = _mm256_set1_epi32(lo);
    let hi_v = _mm256_set1_epi32(hi);
    let count = _mm_cvtsi32_si128(ts);
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: j + 8 <= n bounds the 32-byte load and the 8-byte store.
        let x = _mm256_loadu_si256(acc.as_ptr().add(j).cast());
        let sign = _mm256_srai_epi32::<31>(x);
        let absx = _mm256_sub_epi32(_mm256_xor_si256(x, sign), sign);
        let even = requant_magnitude(absx, mult_v, nudge_v, count, cap_v);
        let odd = requant_magnitude(_mm256_srli_epi64::<32>(absx), mult_v, nudge_v, count, cap_v);
        let mag = _mm256_or_si256(even, _mm256_slli_epi64::<32>(odd));
        let signed = _mm256_sub_epi32(_mm256_xor_si256(mag, sign), sign);
        let v = _mm256_max_epi32(lo_v, _mm256_min_epi32(hi_v, signed));
        let words = _mm_packs_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
        _mm_storel_epi64(
            dst.as_mut_ptr().add(j).cast(),
            _mm_packs_epi16(words, words),
        );
        j += 8;
    }
    requantize_row_fast_scalar(&mut dst[j..], &acc[j..], mult, ts, lo, hi);
}

/// `min((m · mult + nudge) >> ts, 2^31 - 1)` over the unsigned low halves
/// of the four 64-bit lanes of `m`; the result sits in the low half of each
/// lane, the high half zero.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn requant_magnitude(
    m: std::arch::x86_64::__m256i,
    mult: std::arch::x86_64::__m256i,
    nudge: std::arch::x86_64::__m256i,
    count: std::arch::x86_64::__m128i,
    cap: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let q = _mm256_srl_epi64(_mm256_add_epi64(_mm256_mul_epu32(m, mult), nudge), count);
    _mm256_blendv_epi8(q, cap, _mm256_cmpgt_epi64(q, cap))
}

// ---------------------------------------------------------------------------
// Integer GEMM
// ---------------------------------------------------------------------------

/// Scalar reference GEMM: `C[m,n](i32) = A[m,k](i8) · B[k,n](i8)`, freshly
/// allocated. The unblocked i-k-j oracle the tiled kernel is validated
/// against (integer arithmetic is exact, so "matches" means equality).
///
/// # Panics
///
/// Panics on inconsistent slice lengths.
#[must_use]
pub fn qmatmul_naive(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k, "qmatmul_naive: bad lhs length");
    assert_eq!(b.len(), k * n, "qmatmul_naive: bad rhs length");
    let mut out = vec![0i32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let av = i32::from(av);
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in o_row.iter_mut().zip(b_row) {
                *o += av * i32::from(bv);
            }
        }
    }
    out
}

avx2_dispatch! {
    /// Register-tiled `out[mb, n](i32) = a[mb, k](i8) · b[k, n](i8)`,
    /// single-threaded, overwritten. The AVX2 twin recompiles the same body
    /// with widening-multiply vector forms; integer accumulation is exact,
    /// so the paths are identical by arithmetic, not just by construction.
    qgemm_block / qgemm_block_scalar / qgemm_block_avx2,
    (out: &mut [i32], a: &[i8], b: &[i8], mb: usize, k: usize, n: usize)
}

#[inline(always)]
fn qgemm_block_scalar(out: &mut [i32], a: &[i8], b: &[i8], mb: usize, k: usize, n: usize) {
    if k == 0 {
        out.fill(0);
        return;
    }
    if mb == 0 || n == 0 {
        return;
    }
    let mut i = 0;
    while i + QMR <= mb {
        let mut j = 0;
        while j + QNR <= n {
            let mut acc = [[0i32; QNR]; QMR];
            for kk in 0..k {
                let bv: &[i8; QNR] = b[kk * n + j..kk * n + j + QNR]
                    .try_into()
                    .expect("QNR chunk");
                let av = [
                    a[i * k + kk],
                    a[(i + 1) * k + kk],
                    a[(i + 2) * k + kk],
                    a[(i + 3) * k + kk],
                ];
                for (accr, &ar) in acc.iter_mut().zip(&av) {
                    let ar = i32::from(ar);
                    for (l, &bl) in accr.iter_mut().zip(bv) {
                        *l += ar * i32::from(bl);
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + QNR].copy_from_slice(accr);
            }
            j += QNR;
        }
        // Column tail.
        while j < n {
            let mut acc = [0i32; QMR];
            for kk in 0..k {
                let bv = i32::from(b[kk * n + j]);
                let av = [
                    a[i * k + kk],
                    a[(i + 1) * k + kk],
                    a[(i + 2) * k + kk],
                    a[(i + 3) * k + kk],
                ];
                for (l, &ar) in acc.iter_mut().zip(&av) {
                    *l += i32::from(ar) * bv;
                }
            }
            for (r, &v) in acc.iter().enumerate() {
                out[(i + r) * n + j] = v;
            }
            j += 1;
        }
        i += QMR;
    }
    // Row tail.
    while i < mb {
        let mut j = 0;
        while j + QNR <= n {
            let mut acc = [0i32; QNR];
            for kk in 0..k {
                let bv: &[i8; QNR] = b[kk * n + j..kk * n + j + QNR]
                    .try_into()
                    .expect("QNR chunk");
                let ar = i32::from(a[i * k + kk]);
                for (l, &bl) in acc.iter_mut().zip(bv) {
                    *l += ar * i32::from(bl);
                }
            }
            out[i * n + j..i * n + j + QNR].copy_from_slice(&acc);
            j += QNR;
        }
        while j < n {
            let mut acc = 0i32;
            for kk in 0..k {
                acc += i32::from(a[i * k + kk]) * i32::from(b[kk * n + j]);
            }
            out[i * n + j] = acc;
            j += 1;
        }
        i += 1;
    }
}

/// `out[m,n](i32) = A[m,k](i8) · B[k,n](i8)`, overwriting `out`, threaded
/// over output row blocks on the worker pool. Exact for any `k <= MAX_K`
/// and bitwise identical for any thread count.
///
/// # Panics
///
/// Panics on inconsistent slice lengths or `k > MAX_K`.
pub fn qmatmul_into(out: &mut [i32], a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
    let t = if m * n * k < QPAR_MIN_MACS {
        1
    } else {
        num_threads()
    };
    qmatmul_into_threads(out, a, b, m, k, n, t);
}

/// [`qmatmul_into`] with an explicit thread count (callers already
/// parallelizing an outer dimension pass `1`).
///
/// # Panics
///
/// Panics on inconsistent slice lengths or `k > MAX_K`.
pub fn qmatmul_into_threads(
    out: &mut [i32],
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "qmatmul_into: bad lhs length");
    assert_eq!(b.len(), k * n, "qmatmul_into: bad rhs length");
    assert_eq!(out.len(), m * n, "qmatmul_into: bad out length");
    assert!(k <= MAX_K, "qmatmul_into: k={k} exceeds exact i32 depth");
    let ranges = partition(m, threads);
    if ranges.len() <= 1 {
        qgemm_block(out, a, b, m, k, n);
        return;
    }
    let base = SendPtr::new(out.as_mut_ptr());
    pool::run(ranges.len(), &|t| {
        let r = &ranges[t];
        // SAFETY: partition ranges are disjoint, so each task's output
        // window is exclusive to it.
        let block = unsafe { base.slice(r.start * n, r.len() * n) };
        qgemm_block(block, &a[r.start * k..r.end * k], b, r.len(), k, n);
    });
}

// ---------------------------------------------------------------------------
// Prepacked maddubs GEMM
// ---------------------------------------------------------------------------

/// `out[m,n](i32) = A · B` over **prepacked** operands: `a_packed` from
/// [`pack_lhs_i8`](crate::kernel::pack::pack_lhs_i8) (dense rows
/// zero-padded to whole 4-tap groups) and `b_panels` from
/// [`pack_rhs_i8`](crate::kernel::pack::pack_rhs_i8) (8-column × 4-tap
/// maddubs panels). This is the int8 analogue of the f32 blueprints: the
/// layers pack immutable weights once at compile time and feed activations
/// through per-call packing, and the AVX2 kernel runs
/// `_mm256_maddubs_epi16` + `_mm256_madd_epi16` instead of widening
/// per-element multiplies.
///
/// The maddubs trick needs `|a| <= 127` on the LHS (`_mm256_sign_epi8`
/// cannot negate `-128`); symmetric quantization clamps to `±qmax <= ±127`,
/// so every engine tensor qualifies. The RHS has no such restriction.
/// Zero-padded taps multiply as zero, so the result equals
/// [`qmatmul_naive`] on the unpadded operands exactly — integer arithmetic
/// makes this equality, not approximation. Threaded over output row blocks;
/// bitwise identical for any thread count and SIMD mode.
///
/// # Panics
///
/// Panics on buffer lengths inconsistent with the packed layouts, or
/// `k > MAX_K`.
pub fn qmatmul_prepacked_into(
    out: &mut [i32],
    a_packed: &[i8],
    b_panels: &[i8],
    m: usize,
    k: usize,
    n: usize,
) {
    let t = if m * n * k < QPAR_MIN_MACS {
        1
    } else {
        num_threads()
    };
    qmatmul_prepacked_into_threads(out, a_packed, b_panels, m, k, n, t);
}

/// [`qmatmul_prepacked_into`] with an explicit thread count.
///
/// # Panics
///
/// Panics on buffer lengths inconsistent with the packed layouts, or
/// `k > MAX_K`.
pub fn qmatmul_prepacked_into_threads(
    out: &mut [i32],
    a_packed: &[i8],
    b_panels: &[i8],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    use crate::kernel::pack::{packed_lhs_len, packed_rhs_len, padded_k};
    assert_eq!(
        a_packed.len(),
        packed_lhs_len(m, k),
        "qmatmul_prepacked: bad lhs length"
    );
    assert_eq!(
        b_panels.len(),
        packed_rhs_len(k, n),
        "qmatmul_prepacked: bad rhs length"
    );
    assert_eq!(out.len(), m * n, "qmatmul_prepacked: bad out length");
    assert!(
        k <= MAX_K,
        "qmatmul_prepacked: k={k} exceeds exact i32 depth"
    );
    debug_assert!(
        a_packed.iter().all(|&v| v > -128),
        "qmatmul_prepacked: lhs contains -128 (outside the symmetric grid)"
    );
    let k4 = padded_k(k);
    let ranges = partition(m, threads);
    if ranges.len() <= 1 {
        qgemm_prepacked_block(out, a_packed, b_panels, m, k4, n);
        return;
    }
    let base = SendPtr::new(out.as_mut_ptr());
    pool::run(ranges.len(), &|t| {
        let r = &ranges[t];
        // SAFETY: partition ranges are disjoint, so each task's output
        // window is exclusive to it.
        let block = unsafe { base.slice(r.start * n, r.len() * n) };
        let ab = &a_packed[r.start * k4..r.end * k4];
        qgemm_prepacked_block(block, ab, b_panels, r.len(), k4, n);
    });
}

/// Single-threaded prepacked block. Hand-dispatched: the AVX2 twin is the
/// maddubs microkernel, a different instruction sequence kept equal to the
/// scalar walk by integer exactness (verified by the dispatch test).
fn qgemm_prepacked_block(out: &mut [i32], a: &[i8], b: &[i8], mb: usize, k4: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::use_avx2() {
        // SAFETY: AVX2 support verified at runtime just above.
        return unsafe { qgemm_prepacked_avx2(out, a, b, mb, k4, n) };
    }
    qgemm_prepacked_scalar(out, a, b, mb, k4, n);
}

/// Scalar walk of the packed layout: per row, per 8-column panel, per
/// 4-tap group — byte-for-byte the order the maddubs kernel reduces in.
#[inline(always)]
fn qgemm_prepacked_scalar(out: &mut [i32], a: &[i8], b: &[i8], mb: usize, k4: usize, n: usize) {
    use crate::kernel::pack::{QK_GROUP, QNP};
    if k4 == 0 {
        out.fill(0);
        return;
    }
    if mb == 0 || n == 0 {
        return;
    }
    let groups = k4 / QK_GROUP;
    let panel_bytes = groups * QNP * QK_GROUP;
    for i in 0..mb {
        let arow = &a[i * k4..(i + 1) * k4];
        for jp in 0..n.div_ceil(QNP) {
            let j0 = jp * QNP;
            let j1 = (j0 + QNP).min(n);
            let panel = &b[jp * panel_bytes..(jp + 1) * panel_bytes];
            prepacked_panel_scalar(&mut out[i * n + j0..i * n + j1], arow, panel);
        }
    }
}

/// One packed LHS row against one packed panel, summed group by group;
/// stores the first `dst.len()` (at most 8) column sums.
#[inline(always)]
fn prepacked_panel_scalar(dst: &mut [i32], arow: &[i8], panel: &[i8]) {
    use crate::kernel::pack::{QK_GROUP, QNP};
    let mut acc = [0i32; QNP];
    for (grp, at) in panel
        .chunks_exact(QNP * QK_GROUP)
        .zip(arow.chunks_exact(QK_GROUP))
    {
        for (l, cell) in acc.iter_mut().zip(grp.chunks_exact(QK_GROUP)) {
            for (&av, &bv) in at.iter().zip(cell) {
                *l += i32::from(av) * i32::from(bv);
            }
        }
    }
    dst.copy_from_slice(&acc[..dst.len()]);
}

/// Maddubs microkernel over `QMR`-row tiles, with a 1-row step for the
/// `mb % QMR` leftover rows (see [`prepacked_rows_avx2`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qgemm_prepacked_avx2(
    out: &mut [i32],
    a: &[i8],
    b: &[i8],
    mb: usize,
    k4: usize,
    n: usize,
) {
    if k4 == 0 {
        out.fill(0);
        return;
    }
    if mb == 0 || n == 0 {
        return;
    }
    let mut i = 0;
    while i + QMR <= mb {
        prepacked_rows_avx2::<QMR>(out, a, b, i, k4, n);
        i += QMR;
    }
    while i < mb {
        prepacked_rows_avx2::<1>(out, a, b, i, k4, n);
        i += 1;
    }
}

/// Rows `i..i + R` of the maddubs microkernel. Per 8-column panel and
/// 4-tap group, one panel load and one `abs_epi8` serve all `R` rows. Each
/// row broadcasts its 4 LHS bytes as one dword, and
/// `maddubs(|B|, sign(A_bcast, B))` forms the exact signed products `a·b`
/// as i16 pairs (pair sums ≤ 2·127·127 = 32258 < 32767, so the saturating
/// add never saturates); `madd_epi16(·, 1)` folds them into 8 i32
/// per-column partial sums. A partial final panel (`n % 8 != 0`) takes the
/// scalar walk of the same layout.
///
/// # Safety
///
/// The CPU must support AVX2; `a` holds at least `i + R` packed rows of
/// `k4` bytes, `b` the panels of a `[k4, n]` matrix, and `out` at least
/// `(i + R) · n` values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn prepacked_rows_avx2<const R: usize>(
    out: &mut [i32],
    a: &[i8],
    b: &[i8],
    i: usize,
    k4: usize,
    n: usize,
) {
    use crate::kernel::pack::{QK_GROUP, QNP};
    use std::arch::x86_64::*;
    debug_assert!(a.len() >= (i + R) * k4 && out.len() >= (i + R) * n);
    let groups = k4 / QK_GROUP;
    let panel_bytes = groups * QNP * QK_GROUP;
    let full_panels = n / QNP;
    let ones = _mm256_set1_epi16(1);
    let ap = a.as_ptr().add(i * k4);
    for jp in 0..full_panels {
        let pb = b.as_ptr().add(jp * panel_bytes);
        let mut acc = [_mm256_setzero_si256(); R];
        for g in 0..groups {
            let panel = _mm256_loadu_si256(pb.add(g * QNP * QK_GROUP).cast());
            let pabs = _mm256_abs_epi8(panel);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let a_dword = ap.add(r * k4 + g * QK_GROUP).cast::<i32>().read_unaligned();
                let asgn = _mm256_sign_epi8(_mm256_set1_epi32(a_dword), panel);
                let prod16 = _mm256_maddubs_epi16(pabs, asgn);
                *acc_r = _mm256_add_epi32(*acc_r, _mm256_madd_epi16(prod16, ones));
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let dst = out.as_mut_ptr().add((i + r) * n + jp * QNP);
            _mm256_storeu_si256(dst.cast(), *acc_r);
        }
    }
    let j0 = full_panels * QNP;
    if j0 < n {
        let panel = &b[full_panels * panel_bytes..];
        for r in i..i + R {
            prepacked_panel_scalar(
                &mut out[r * n + j0..(r + 1) * n],
                &a[r * k4..(r + 1) * k4],
                panel,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Quantized convolution lowerings
// ---------------------------------------------------------------------------

/// Integer [`im2col`](crate::im2col_into): lowers one quantized image
/// `[c, h, w]` into a column matrix `[c*k*k, out_h*out_w]`. Padding is the
/// zero-point, which symmetric quantization fixes at integer 0.
///
/// # Panics
///
/// Panics on buffer lengths inconsistent with `geom`.
pub fn qim2col_into(out: &mut [i8], input: &[i8], geom: &Conv2dGeometry) {
    let (c, k) = (geom.in_channels, geom.kernel);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let rows = c * k * k;
    let cols = oh * ow;
    assert_eq!(out.len(), rows * cols, "qim2col_into: bad out length");
    assert_eq!(
        input.len(),
        c * geom.in_h * geom.in_w,
        "qim2col_into: bad input length"
    );
    let (ih, iw) = (geom.in_h, geom.in_w);
    let (pad, stride) = (geom.padding, geom.stride);
    for row in 0..rows {
        let ch = row / (k * k);
        let ky = (row / k) % k;
        let kx = row % k;
        let (oy0, oy1) = valid_out_range(ky, pad, stride, ih, oh);
        let (ox0, ox1) = valid_out_range(kx, pad, stride, iw, ow);
        let dst = &mut out[row * cols..(row + 1) * cols];
        if ox0 >= ox1 {
            // The tap reads only padding (a plane narrower than its
            // padding): no source column exists, so `sx0` would underflow.
            dst.fill(0);
            continue;
        }
        let sx0 = ox0 * stride + kx - pad;
        let src_c = &input[ch * ih * iw..(ch + 1) * ih * iw];
        dst[..oy0 * ow].fill(0);
        dst[oy1 * ow..].fill(0);
        for oy in oy0..oy1 {
            let sy = oy * stride + ky - pad;
            let src_row = &src_c[sy * iw..(sy + 1) * iw];
            let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
            dst_row[..ox0].fill(0);
            dst_row[ox1..].fill(0);
            if stride == 1 {
                dst_row[ox0..ox1].copy_from_slice(&src_row[sx0..sx0 + (ox1 - ox0)]);
            } else {
                for (i, d) in dst_row[ox0..ox1].iter_mut().enumerate() {
                    *d = src_row[sx0 + i * stride];
                }
            }
        }
    }
}

/// Packs depthwise taps into the `(w[kx], w[kx + 1])` i16 pairs the AVX2
/// depthwise kernel multiplies with `_mm256_madd_epi16`: each `k`-wide tap
/// row becomes `k.div_ceil(2)` i32 words, the low half `w[kx]` and the high
/// half `w[kx + 1]` (zero past the row end for odd `k`). Any number of
/// whole `k × k` channel kernels can be packed at once; channel `c`'s pairs
/// are then `pairs[c · k · kp .. (c + 1) · k · kp]` with
/// `kp = k.div_ceil(2)`.
///
/// # Panics
///
/// Panics if `k` is zero or `w` is not a whole number of `k`-wide rows.
#[must_use]
pub fn dw_tap_pairs(w: &[i8], k: usize) -> Vec<i32> {
    assert!(
        k > 0 && w.len().is_multiple_of(k),
        "dw_tap_pairs: taps are not whole rows"
    );
    let half = |v: i8| u32::from(i16::from(v) as u16);
    w.chunks_exact(k)
        .flat_map(|row| {
            row.chunks(2).map(|p| {
                let hi = p.get(1).copied().unwrap_or(0);
                (half(p[0]) | (half(hi) << 16)) as i32
            })
        })
        .collect()
}

/// Quantized depthwise stencil for one channel plane: `out[oh, ow](i32)
/// = w[k, k] ⊛ input[ih, iw]` with stride/padding from `geom` (interpreted
/// single-channel), overwriting `out`. `pairs` is the same kernel packed by
/// [`dw_tap_pairs`]. Taps accumulate in ascending `(ky, kx)` order; integer
/// math keeps any reordering exact anyway.
///
/// Dispatched by hand (not `avx2_dispatch!`): the AVX2 twin for the
/// stride-1, `ow >= 8` case is a paired-tap `madd` kernel over a
/// horizontally zero-padded plane, not a recompile of the scalar body;
/// integer exactness keeps the paths equal (pinned by the dispatch test).
///
/// # Panics
///
/// Panics if `w` or `pairs` does not hold one `k × k` kernel, or if
/// `input`/`out` do not match `geom`.
pub fn qdw_plane_into(
    out: &mut [i32],
    input: &[i8],
    w: &[i8],
    pairs: &[i32],
    geom: &Conv2dGeometry,
) {
    let k = geom.kernel;
    assert_eq!(w.len(), k * k, "qdw_plane_into: bad kernel length");
    assert_eq!(
        pairs.len(),
        k * k.div_ceil(2),
        "qdw_plane_into: bad tap-pair length"
    );
    assert_eq!(
        input.len(),
        geom.in_h * geom.in_w,
        "qdw_plane_into: bad input length"
    );
    assert_eq!(
        out.len(),
        geom.out_h() * geom.out_w(),
        "qdw_plane_into: bad out length"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::kernel::use_avx2() && geom.stride == 1 && geom.out_w() >= 8 {
        // SAFETY: AVX2 support verified at runtime just above; the lengths
        // and the stride-1 / `ow >= 8` shape the kernel relies on are
        // asserted or tested just above.
        return unsafe { qdw_plane_s1_avx2(out, input, pairs, geom) };
    }
    qdw_plane_into_scalar(out, input, w, geom);
}

/// AVX2 stride-1 depthwise plane, two taps per multiply.
///
/// The input is sign-extended once into a horizontally zero-padded i16
/// scratch plane (`pw = iw + 2·pad`); vertical padding is a per-output-row
/// tap clip. In that plane the taps `(kx, kx + 1)` of output `j` are the
/// adjacent i16 pair at `j + kx`, so one unaligned 32-byte load at `kx`
/// holds them for the even outputs `j = 0, 2, …, 14` of a 16-wide group
/// and a load at `kx + 1` holds them for the odd ones.
/// `_mm256_madd_epi16` against the broadcast `(w[kx], w[kx + 1])` pair
/// forms both products and their sum exactly (`|x·w| <= 128²`, so a pair
/// sum stays far inside i32), with no shuffle inside the tap loop; the
/// even and odd accumulators are interleaved once per group. An odd
/// kernel's last tap is paired with a zero weight. Outputs go 16 per group
/// when `ow >= 16` and 8 per group (128-bit twin) otherwise; the last
/// group is anchored at the row end, recomputing overlapped outputs —
/// identical values, integer math.
///
/// # Safety
///
/// The CPU must support AVX2; `geom.stride == 1`, `geom.out_w() >= 8`,
/// `input.len() == in_h · in_w`, `out.len() == out_h · out_w` and
/// `pairs.len() == k · k.div_ceil(2)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qdw_plane_s1_avx2(out: &mut [i32], input: &[i8], pairs: &[i32], geom: &Conv2dGeometry) {
    use std::arch::x86_64::*;
    let k = geom.kernel;
    let kp = k.div_ceil(2);
    let (ih, iw) = (geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    debug_assert_eq!(input.len(), ih * iw);
    debug_assert_eq!(pairs.len(), k * kp);
    debug_assert_eq!(out.len(), oh * ow);
    debug_assert!(geom.stride == 1 && ow >= 8);
    let pad = geom.padding;
    // Stride 1: ow = pw - k + 1. One slack element past the last row: the
    // odd-output load of an odd kernel's last (zero-weight) pair reads it.
    let pw = iw + 2 * pad;
    let mut padded = crate::scratch::alloc_i16_zeroed(ih * pw + 1);
    for (prow, irow) in padded.chunks_exact_mut(pw).zip(input.chunks_exact(iw)) {
        for (d, &s) in prow[pad..pad + iw].iter_mut().zip(irow) {
            *d = i16::from(s);
        }
    }
    let pp = padded.as_ptr();
    let op = out.as_mut_ptr();
    for oy in 0..oh {
        // Vertical clip: taps whose source row falls outside the image
        // contribute zero, exactly as the scalar body's valid_out_range.
        let ky0 = pad.saturating_sub(oy).min(k);
        let ky1 = k.min((ih + pad).saturating_sub(oy));
        // SAFETY (every load and store below): a group starts at
        // x0 <= ow - width, so a load of `width` i16 at tap offset
        // kx + 1 <= k ends at sy*pw + ow - 1 + k = sy*pw + pw — the next
        // row's first element or the slack element — and the stores end
        // at oy*ow + ow.
        let orow = op.add(oy * ow);
        let src = |ky: usize, x0: usize| pp.add((oy + ky - pad) * pw + x0);
        if ow >= 16 {
            let mut x0 = 0usize;
            loop {
                let (mut even, mut odd) = (_mm256_setzero_si256(), _mm256_setzero_si256());
                for ky in ky0..ky1 {
                    let base = src(ky, x0);
                    let wrow = &pairs[ky * kp..(ky + 1) * kp];
                    for (p, &pair) in wrow.iter().enumerate() {
                        let wv = _mm256_set1_epi32(pair);
                        let a = _mm256_loadu_si256(base.add(2 * p).cast());
                        let b = _mm256_loadu_si256(base.add(2 * p + 1).cast());
                        even = _mm256_add_epi32(even, _mm256_madd_epi16(a, wv));
                        odd = _mm256_add_epi32(odd, _mm256_madd_epi16(b, wv));
                    }
                }
                let lo = _mm256_unpacklo_epi32(even, odd);
                let hi = _mm256_unpackhi_epi32(even, odd);
                let first = _mm256_permute2x128_si256::<0x20>(lo, hi);
                let second = _mm256_permute2x128_si256::<0x31>(lo, hi);
                _mm256_storeu_si256(orow.add(x0).cast(), first);
                _mm256_storeu_si256(orow.add(x0 + 8).cast(), second);
                if x0 + 16 >= ow {
                    break;
                }
                x0 = (x0 + 16).min(ow - 16);
            }
        } else {
            for x0 in [0, ow - 8] {
                let (mut even, mut odd) = (_mm_setzero_si128(), _mm_setzero_si128());
                for ky in ky0..ky1 {
                    let base = src(ky, x0);
                    let wrow = &pairs[ky * kp..(ky + 1) * kp];
                    for (p, &pair) in wrow.iter().enumerate() {
                        let wv = _mm_set1_epi32(pair);
                        let a = _mm_loadu_si128(base.add(2 * p).cast());
                        let b = _mm_loadu_si128(base.add(2 * p + 1).cast());
                        even = _mm_add_epi32(even, _mm_madd_epi16(a, wv));
                        odd = _mm_add_epi32(odd, _mm_madd_epi16(b, wv));
                    }
                }
                _mm_storeu_si128(orow.add(x0).cast(), _mm_unpacklo_epi32(even, odd));
                _mm_storeu_si128(orow.add(x0 + 4).cast(), _mm_unpackhi_epi32(even, odd));
            }
        }
    }
}

#[inline(always)]
fn qdw_plane_into_scalar(out: &mut [i32], input: &[i8], w: &[i8], geom: &Conv2dGeometry) {
    let k = geom.kernel;
    let (ih, iw) = (geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    debug_assert_eq!(input.len(), ih * iw);
    debug_assert_eq!(w.len(), k * k);
    debug_assert_eq!(out.len(), oh * ow);
    let (pad, stride) = (geom.padding, geom.stride);
    out.fill(0);
    for ky in 0..k {
        for kx in 0..k {
            let wv = i32::from(w[ky * k + kx]);
            let (oy0, oy1) = valid_out_range(ky, pad, stride, ih, oh);
            let (ox0, ox1) = valid_out_range(kx, pad, stride, iw, ow);
            if oy0 == oy1 || ox0 == ox1 {
                // The tap reads only padding (a plane narrower than the
                // padding, e.g. in_w = 1 with pad 1); `sx0` would go below 0.
                continue;
            }
            let sx0 = ox0 * stride + kx - pad;
            for oy in oy0..oy1 {
                let sy = oy * stride + ky - pad;
                let src_row = &input[sy * iw..(sy + 1) * iw];
                let dst_row = &mut out[oy * ow..(oy + 1) * ow];
                if stride == 1 {
                    for (d, &s) in dst_row[ox0..ox1].iter_mut().zip(&src_row[sx0..]) {
                        *d += wv * i32::from(s);
                    }
                } else {
                    for (i, d) in dst_row[ox0..ox1].iter_mut().enumerate() {
                        *d += wv * i32::from(src_row[sx0 + i * stride]);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn randq(len: usize, lim: i8, rng: &mut StdRng) -> Vec<i8> {
        (0..len).map(|_| rng.gen_range(-lim..=lim)).collect()
    }

    #[test]
    fn requant_matches_f64_rounding() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let real: f64 = rng.gen_range(1e-6f64..0.9);
            let rq = Requant::from_scale(real);
            // The q31 mantissa represents the real scale to ~1e-9 relative.
            assert!((rq.real() - real).abs() <= real * 1e-8, "{real}");
            for _ in 0..20 {
                let acc: i32 = rng.gen_range(-1_000_000..=1_000_000);
                let want = (f64::from(acc) * rq.real()).abs().round() as i64
                    * i64::from(if acc >= 0 { 1 } else { -1 });
                let got = i64::from(rq.apply(acc));
                assert_eq!(got, want, "real={real} acc={acc}");
            }
        }
    }

    #[test]
    fn requant_identity_and_extremes() {
        let one = Requant::from_scale(1.0);
        for acc in [-12345, -1, 0, 1, 98765, i32::MAX, i32::MIN + 1] {
            assert_eq!(one.apply(acc), acc);
        }
        // Tiny multipliers flush to zero instead of shifting out of range.
        let tiny = Requant::from_scale(1e-30);
        assert_eq!(tiny.apply(i32::MAX), 0);
        // Large multipliers saturate instead of wrapping.
        let big = Requant::from_scale(4.0);
        assert_eq!(big.apply(i32::MAX), i32::MAX);
        assert_eq!(big.apply(3), 12);
    }

    #[test]
    fn quantize_roundtrip_on_grid() {
        let scale = 0.05f32;
        let src: Vec<f32> = (-127..=127).map(|q| q as f32 * scale).collect();
        let mut q = vec![0i8; src.len()];
        quantize_i8_into(&mut q, &src, scale, 127);
        let mut back = vec![0.0f32; src.len()];
        dequantize_into(&mut back, &q, scale);
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() < 1e-6);
        }
        // Clamping engages beyond the range.
        let mut q1 = [0i8; 2];
        quantize_i8_into(&mut q1, &[10.0, -10.0], scale, 127);
        assert_eq!(q1, [127, -127]);
    }

    #[test]
    fn quantize_matches_fake_quant_grid() {
        // Engine grid with scale s and qmax = 2^(b-1)-1 must equal the
        // fake-quant grid with range = s * 2^(b-1) for in-range inputs.
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [4u32, 8] {
            let qm = qmax(bits);
            let max_abs = 1.7f32;
            let s = max_abs / qm as f32;
            let range = s * (1 << (bits - 1)) as f32;
            let levels = (1u64 << (bits - 1)) as f32;
            let step = range / levels;
            assert!((step - s).abs() < 1e-7);
            for _ in 0..500 {
                let v: f32 = rng.gen_range(-max_abs..max_abs);
                let fake = (v.clamp(-range, range) / step).round() * step;
                let mut q = [0i8];
                quantize_i8_into(&mut q, &[v], s, qm);
                assert!(
                    (f32::from(q[0]) * s - fake).abs() < 1e-6,
                    "bits={bits} v={v}"
                );
            }
        }
    }

    #[test]
    fn pack_unpack_i4_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        for len in [0usize, 1, 2, 7, 8, 33] {
            let q: Vec<i8> = (0..len).map(|_| rng.gen_range(-8i8..=7)).collect();
            let packed = pack_i4(&q);
            assert_eq!(packed.len(), len.div_ceil(2));
            let mut back = vec![0i8; len];
            unpack_i4_into(&mut back, &packed);
            assert_eq!(q, back, "len={len}");
        }
    }

    #[test]
    fn qgemm_matches_naive_including_tails() {
        let mut rng = StdRng::seed_from_u64(7);
        for (m, k, n) in [(1, 1, 1), (4, 8, 8), (5, 3, 7), (9, 16, 33), (6, 0, 3)] {
            let a = randq(m * k, 127, &mut rng);
            let b = randq(k * n, 127, &mut rng);
            let want = qmatmul_naive(&a, &b, m, k, n);
            let mut got = vec![i32::MIN; m * n];
            qmatmul_into(&mut got, &a, &b, m, k, n);
            assert_eq!(got, want, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn qgemm_thread_counts_are_bitwise_equal() {
        let mut rng = StdRng::seed_from_u64(9);
        let (m, k, n) = (29, 17, 23);
        let a = randq(m * k, 127, &mut rng);
        let b = randq(k * n, 127, &mut rng);
        let mut reference = vec![0i32; m * n];
        qmatmul_into_threads(&mut reference, &a, &b, m, k, n, 1);
        for t in [2, 3, 7, 19] {
            let mut got = vec![0i32; m * n];
            qmatmul_into_threads(&mut got, &a, &b, m, k, n, t);
            assert_eq!(reference, got, "threads={t}");
        }
    }

    #[test]
    fn dispatched_kernels_match_scalar_bodies() {
        let mut rng = StdRng::seed_from_u64(13);
        let (m, k, n) = (13, 37, 29);
        let a = randq(m * k, 127, &mut rng);
        let b = randq(k * n, 127, &mut rng);
        let mut got = vec![0i32; m * n];
        let mut want = vec![0i32; m * n];
        qgemm_block(&mut got, &a, &b, m, k, n);
        qgemm_block_scalar(&mut want, &a, &b, m, k, n);
        assert_eq!(got, want);

        // Depthwise planes over every shape class the dispatch can see:
        // ow < 8 and stride 2 (scalar), ow in 8..16, 16n and 16n + r
        // (paired-tap AVX2 kernel), and the pulse strip (in_h = k, pad 0).
        // Activations sit at ±127, the largest products the kernel forms.
        let extremes: Vec<i8> = (0..40 * 40)
            .map(|_| if rng.gen_bool(0.5) { 127 } else { -127 })
            .collect();
        for k in [1usize, 3, 5, 7] {
            let w = randq(k * k, 127, &mut rng);
            let pairs = dw_tap_pairs(&w, k);
            for stride in [1usize, 2] {
                for padding in 0..=k / 2 {
                    for in_h in 1..=40 {
                        for in_w in 1..=40 {
                            if in_h + 2 * padding < k || in_w + 2 * padding < k {
                                continue;
                            }
                            let geom = Conv2dGeometry {
                                in_channels: 1,
                                in_h,
                                in_w,
                                kernel: k,
                                stride,
                                padding,
                            };
                            let input = &extremes[..in_h * in_w];
                            let plane = geom.out_h() * geom.out_w();
                            let mut got = vec![i32::MIN; plane];
                            let mut want = vec![0i32; plane];
                            qdw_plane_into(&mut got, input, &w, &pairs, &geom);
                            qdw_plane_into_scalar(&mut want, input, &w, &geom);
                            assert_eq!(got, want, "{geom:?}");
                        }
                    }
                }
            }
        }

        // Prepacked path over a grid that covers every k % 4 (the partial
        // K-group the vector pack leaves to the scalar walk), n below,
        // at and past whole 32-column pack blocks (and off the 8-column
        // panel grid), and every m % 4 (the 1-row steps after the 4-row
        // tiles). The dispatched pack must equal its scalar body byte for
        // byte; the dispatched block must equal the scalar walk and the
        // naive product.
        use crate::kernel::pack::{
            pack_lhs_i8, pack_rhs_i8, pack_rhs_scalar, packed_lhs_len, packed_rhs_len, padded_k,
            QK_GROUP, QNP,
        };
        for k in [1usize, 3, 4, 6, 16, 27, 96] {
            let k4 = padded_k(k);
            for n in [8usize, 19, 31, 32, 33, 40, 64, 256] {
                let b = randq(k * n, 127, &mut rng);
                let mut bp = vec![0x55i8; packed_rhs_len(k, n)];
                pack_rhs_i8(&mut bp, &b, k, n);
                let mut bp_scalar = vec![-0x55i8; packed_rhs_len(k, n)];
                let (panels, groups) = (n.div_ceil(QNP), k4 / QK_GROUP);
                pack_rhs_scalar(&mut bp_scalar, &b, k, n, 0..panels, 0..groups);
                assert_eq!(bp, bp_scalar, "pack_rhs_i8 k={k} n={n}");
                for m in [1usize, 2, 3, 4, 5, 7, 16, 80] {
                    let a = randq(m * k, 127, &mut rng);
                    let mut ap = vec![0i8; packed_lhs_len(m, k)];
                    pack_lhs_i8(&mut ap, &a, m, k);
                    let mut got = vec![i32::MIN; m * n];
                    let mut want = vec![i32::MAX; m * n];
                    qgemm_prepacked_block(&mut got, &ap, &bp, m, k4, n);
                    qgemm_prepacked_scalar(&mut want, &ap, &bp, m, k4, n);
                    assert_eq!(got, want, "prepacked block {m}x{k}x{n}");
                    assert_eq!(got, qmatmul_naive(&a, &b, m, k, n), "naive {m}x{k}x{n}");
                }
            }
        }

        // Vectorized requant rows vs the per-element apply_i8 oracle.
        let acc: Vec<i32> = (0..9 * 37)
            .map(|_| rng.gen_range(i32::MIN..=i32::MAX))
            .collect();
        let rqs: Vec<Requant> = (0..9)
            .map(|i| Requant::from_scale(10f64.powi(i - 6)))
            .collect();
        let mut got = vec![0i8; acc.len()];
        requantize_rows_into(&mut got, &acc, &rqs, 37, -128, 127);
        for (row, rq) in rqs.iter().enumerate() {
            for c in 0..37 {
                let idx = row * 37 + c;
                assert_eq!(
                    got[idx],
                    rq.apply_i8(acc[idx], -128, 127),
                    "row={row} col={c}"
                );
            }
        }

        // Every `31 - shift` class (the cold paths at <= 0 and >= 63, and
        // each fast-path shift between), edge multipliers, the extreme
        // accumulators and each clamp floor the engine uses. 37 columns
        // cover full 8-lane groups and a scalar tail.
        let edges = [i32::MIN, i32::MAX, 1, -1, 0];
        let cols = 37;
        let acc: Vec<i32> = (0..cols)
            .map(|c| {
                edges
                    .get(c)
                    .copied()
                    .unwrap_or_else(|| rng.gen_range(i32::MIN..=i32::MAX) >> (c % 31))
            })
            .collect();
        for lo in [-128, -127, 0] {
            for hi in [127, 6] {
                for ts in -2..=64 {
                    let rqs: Vec<Requant> = [1 << 30, i32::MAX, rng.gen_range(1 << 30..i32::MAX)]
                        .iter()
                        .map(|&mult| Requant {
                            mult,
                            shift: 31 - ts,
                        })
                        .collect();
                    let acc: Vec<i32> = rqs.iter().flat_map(|_| acc.iter().copied()).collect();
                    let mut got = vec![0i8; acc.len()];
                    requantize_rows_into(&mut got, &acc, &rqs, cols, lo, hi);
                    for (row, rq) in rqs.iter().enumerate() {
                        for c in 0..cols {
                            let a = acc[row * cols + c];
                            assert_eq!(
                                got[row * cols + c],
                                rq.apply_i8(a, lo, hi),
                                "{rq:?} acc={a} clamp=[{lo}, {hi}]"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn prepacked_gemm_matches_naive() {
        let mut rng = StdRng::seed_from_u64(23);
        for (m, k, n) in [
            (1, 1, 1),
            (4, 8, 8),
            (5, 3, 7),
            (9, 16, 33),
            (6, 0, 3),
            (1, 27, 256),
            (13, 37, 29),
        ] {
            let a = randq(m * k, 127, &mut rng);
            let b = randq(k * n, 127, &mut rng);
            let want = qmatmul_naive(&a, &b, m, k, n);
            let mut ap = vec![0i8; crate::kernel::pack::packed_lhs_len(m, k)];
            crate::kernel::pack::pack_lhs_i8(&mut ap, &a, m, k);
            let mut bp = vec![0i8; crate::kernel::pack::packed_rhs_len(k, n)];
            crate::kernel::pack::pack_rhs_i8(&mut bp, &b, k, n);
            let mut got = vec![i32::MIN; m * n];
            qmatmul_prepacked_into(&mut got, &ap, &bp, m, k, n);
            assert_eq!(got, want, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prepacked_thread_counts_are_bitwise_equal() {
        let mut rng = StdRng::seed_from_u64(27);
        let (m, k, n) = (29, 17, 23);
        let a = randq(m * k, 127, &mut rng);
        let b = randq(k * n, 127, &mut rng);
        let mut ap = vec![0i8; crate::kernel::pack::packed_lhs_len(m, k)];
        crate::kernel::pack::pack_lhs_i8(&mut ap, &a, m, k);
        let mut bp = vec![0i8; crate::kernel::pack::packed_rhs_len(k, n)];
        crate::kernel::pack::pack_rhs_i8(&mut bp, &b, k, n);
        let mut reference = vec![0i32; m * n];
        qmatmul_prepacked_into_threads(&mut reference, &ap, &bp, m, k, n, 1);
        for t in [2, 3, 7, 19] {
            let mut got = vec![0i32; m * n];
            qmatmul_prepacked_into_threads(&mut got, &ap, &bp, m, k, n, t);
            assert_eq!(reference, got, "threads={t}");
        }
    }

    #[test]
    fn requantize_rows_cold_paths_match_oracle() {
        // Multipliers >= 1 (ts <= 0) and flush-to-zero (ts >= 63) rows must
        // take the per-element path and still match apply_i8 exactly.
        let acc = [i32::MAX, i32::MIN, -5, 7, 0, 1000];
        let rqs = [
            Requant::from_scale(4.0),
            Requant::from_scale(1e-30),
            Requant::from_scale(0.25),
        ];
        let mut got = vec![0i8; 6];
        requantize_rows_into(&mut got, &acc, &rqs, 2, -128, 127);
        for (row, rq) in rqs.iter().enumerate() {
            for c in 0..2 {
                assert_eq!(got[row * 2 + c], rq.apply_i8(acc[row * 2 + c], -128, 127));
            }
        }
    }

    /// Input index that im2col tap `row` reads at output `(oy, ox)`, or
    /// `None` where it samples zero padding: the per-element definition
    /// the im2col and col2im bodies must all agree with.
    fn tap_source(geom: &Conv2dGeometry, row: usize, oy: usize, ox: usize) -> Option<usize> {
        let k = geom.kernel;
        let (ch, ky, kx) = (row / (k * k), (row / k) % k, row % k);
        let sy = (oy * geom.stride + ky).checked_sub(geom.padding)?;
        let sx = (ox * geom.stride + kx).checked_sub(geom.padding)?;
        (sy < geom.in_h && sx < geom.in_w).then_some((ch * geom.in_h + sy) * geom.in_w + sx)
    }

    /// Checks `qim2col_into`, the f32 `im2col_into` and `col2im_into` on one
    /// geometry against [`tap_source`].
    fn check_im2col_bodies(geom: &Conv2dGeometry, rng: &mut StdRng) {
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let rows = geom.in_channels * geom.kernel * geom.kernel;
        let cols = oh * ow;
        let q = randq(geom.in_channels * geom.in_h * geom.in_w, 127, rng);
        let f: Vec<f32> = q.iter().map(|&v| f32::from(v)).collect();
        let mut qcols = vec![0i8; rows * cols];
        qim2col_into(&mut qcols, &q, geom);
        let mut fcols = vec![0.0f32; rows * cols];
        crate::im2col_into(&mut fcols, &f, geom);
        // col2im scatters the columns back onto the image; integer-valued
        // entries keep every partial sum exact, so order does not matter.
        let mut img = vec![0.0f32; f.len()];
        crate::col2im_into(&fcols, geom, &mut img);
        let mut want_img = vec![0.0f32; f.len()];
        for row in 0..rows {
            for oy in 0..oh {
                for ox in 0..ow {
                    let at = row * cols + oy * ow + ox;
                    let src = tap_source(geom, row, oy, ox);
                    let want = src.map_or(0, |i| q[i]);
                    assert_eq!(qcols[at], want, "qim2col {geom:?} tap {row} at ({oy},{ox})");
                    assert_eq!(fcols[at], f32::from(want), "im2col {geom:?} tap {row}");
                    if let Some(i) = src {
                        want_img[i] += fcols[at];
                    }
                }
            }
        }
        assert_eq!(img, want_img, "col2im {geom:?}");
    }

    #[test]
    fn qim2col_matches_f32_im2col() {
        // Every kernel the search spaces use plus 1×1, both strides, every
        // padding up to "same", and planes from 1×1 up — including planes
        // narrower than their padding, whose edge taps read only zeros.
        let mut rng = StdRng::seed_from_u64(17);
        for kernel in [1usize, 3, 5, 7] {
            for stride in [1usize, 2] {
                for padding in 0..=kernel / 2 {
                    for in_h in 1..=9 {
                        for in_w in 1..=9 {
                            if in_h + 2 * padding < kernel || in_w + 2 * padding < kernel {
                                continue;
                            }
                            let geom = Conv2dGeometry {
                                in_channels: 2,
                                in_h,
                                in_w,
                                kernel,
                                stride,
                                padding,
                            };
                            check_im2col_bodies(&geom, &mut rng);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn qdw_plane_matches_direct_convolution() {
        let mut rng = StdRng::seed_from_u64(19);
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 8,
            in_w: 9,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = randq(8 * 9, 127, &mut rng);
        let w = randq(9, 127, &mut rng);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let mut got = vec![0i32; oh * ow];
        qdw_plane_into(&mut got, &input, &w, &dw_tap_pairs(&w, 3), &geom);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut want = 0i32;
                for ky in 0..3 {
                    for kx in 0..3 {
                        let sy = oy as i64 + ky as i64 - 1;
                        let sx = ox as i64 + kx as i64 - 1;
                        if (0..8).contains(&sy) && (0..9).contains(&sx) {
                            want += i32::from(w[ky * 3 + kx])
                                * i32::from(input[sy as usize * 9 + sx as usize]);
                        }
                    }
                }
                assert_eq!(got[oy * ow + ox], want, "({oy},{ox})");
            }
        }
    }

    #[test]
    fn requantize_rows_applies_per_channel_scales() {
        let acc = vec![100, 200, -100, 1000, 2000, -3000];
        let rqs = [Requant::from_scale(0.5), Requant::from_scale(0.01)];
        let mut out = vec![0i8; 6];
        requantize_rows_into(&mut out, &acc, &rqs, 3, -127, 127);
        assert_eq!(out, vec![50, 100, -50, 10, 20, -30]);
        // Clamp bounds emulate fused ReLU6: negatives cut at 0.
        requantize_rows_into(&mut out, &acc, &rqs, 3, 0, 127);
        assert_eq!(out, vec![50, 100, 0, 10, 20, 0]);
    }
}
