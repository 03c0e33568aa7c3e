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
//! The GEMM front partitions output rows over the persistent worker pool,
//! exactly like the f32 kernels in [`kernel`](crate::kernel); every output
//! element is written by exactly one task. Every hot kernel has a scalar
//! body and an AVX2 twin picked at run time, so `EDD_SIMD=scalar` forces
//! the scalar bodies.

use crate::array::Conv2dGeometry;
use crate::kernel::{num_threads, par_row_blocks, valid_out_range};

/// Rows per register tile of the prepacked maddubs GEMM (mirrors
/// [`crate::kernel::MR`]).
pub const QMR: usize = 4;

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
/// to `[-qmax, qmax]`: `dst[i] = ((src[i] · (1 / scale)).round() as
/// i32).clamp(-qmax, qmax)`, so NaN maps to 0. With AVX2 a body of 8 values
/// per step runs (`quantize_avx2`), equal to that expression for every
/// f32; the values each body took are added to [`crate::stats`] once per
/// call.
///
/// The engine never passes slices of different lengths, since the
/// executors check the input's shape (`CompiledModel::forward`,
/// `infer_batch`) and a pushed row's length (`PulsedState::push_row`)
/// before they quantize; past the shorter slice nothing is written. Its
/// `qmax` is `ACT_QMAX` or [`qmax`]`(bits)`, both in `1..=127`; any other
/// value is clamped into that range.
pub fn quantize_i8_into(dst: &mut [i8], src: &[f32], scale: f32, qmax: i32) {
    debug_assert_eq!(
        dst.len(),
        src.len(),
        "quantize_i8_into: lengths (the executors check input shapes and row lengths)"
    );
    debug_assert!(
        (1..=127).contains(&qmax),
        "quantize_i8_into: qmax (ACT_QMAX and qmax(bits) lie in 1..=127)"
    );
    let qmax = qmax.clamp(1, 127);
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let inv = 1.0 / scale;
    #[cfg(target_arch = "x86_64")]
    if n >= 8 && crate::kernel::use_avx2() {
        // SAFETY: AVX2 verified just above, and both slices hold `n >= 8`
        // values.
        unsafe { quantize_avx2(dst, src, inv, qmax) };
        crate::stats::record_quantize_elems(n, 0);
        return;
    }
    quantize_scalar(dst, src, inv, qmax);
    crate::stats::record_quantize_elems(0, n);
}

/// The scalar quantize body, the reference [`quantize_avx2`] equals.
fn quantize_scalar(dst: &mut [i8], src: &[f32], inv: f32, qmax: i32) {
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = ((v * inv).round() as i32).clamp(-qmax, qmax) as i8;
    }
}

/// AVX2 quantize body, 8 values per step with the last group anchored at
/// the end (it recomputes overlapped values identically). Per lane it
/// forms the scalar body's result exactly:
///
/// - `x = v · inv` is the same single f32 multiply;
/// - `f32::round` rounds half away from zero: from `t = trunc(x)` the
///   remainder `x - t` is exact (`|x| < 1` gives `t = 0`, otherwise
///   `t <= x < 2t` in magnitude, Sterbenz), so `t + sign(x)` when
///   `|x - t| >= 0.5`, else `t`, is `x.round()`; for `|x| >= 2^23` and
///   ±inf the remainder is 0 or NaN and `t` stands;
/// - `as i32` maps NaN to 0, so NaN lanes are masked to 0;
/// - clamping the rounded float to `±qmax` before the conversion equals
///   clamping the saturated i32 after it, and the clamped lanes convert
///   exactly and narrow without saturating.
///
/// # Safety
///
/// The CPU must support AVX2; `dst` and `src` hold the same `n >= 8`
/// values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_avx2(dst: &mut [i8], src: &[f32], inv: f32, qmax: i32) {
    use std::arch::x86_64::*;
    let n = dst.len();
    debug_assert!(n >= 8 && src.len() == n);
    let inv = _mm256_set1_ps(inv);
    let (half, one, sign) = (
        _mm256_set1_ps(0.5),
        _mm256_set1_ps(1.0),
        _mm256_set1_ps(-0.0),
    );
    let (lo, hi) = (_mm256_set1_ps(-qmax as f32), _mm256_set1_ps(qmax as f32));
    let mut j = 0;
    loop {
        // SAFETY: j + 8 <= n bounds the 32-byte load and the 8-byte store.
        let x = _mm256_mul_ps(_mm256_loadu_ps(src.as_ptr().add(j)), inv);
        let t = _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(x);
        let frac = _mm256_andnot_ps(sign, _mm256_sub_ps(x, t));
        let step = _mm256_or_ps(_mm256_and_ps(sign, x), one);
        let away = _mm256_and_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(frac, half), step);
        let rounded = _mm256_and_ps(_mm256_add_ps(t, away), _mm256_cmp_ps::<_CMP_ORD_Q>(x, x));
        let q = _mm256_cvtps_epi32(_mm256_min_ps(_mm256_max_ps(rounded, lo), hi));
        store8(dst.as_mut_ptr().add(j), q);
        if j + 8 >= n {
            break;
        }
        j = (j + 8).min(n - 8);
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

/// Largest product of one int8 tap: weights lie in `[-127, 127]` (the
/// artifact decoder rejects −128) and activations in `[-128, 127]`, so a
/// reduction over `taps` products has `|acc| <= taps · 128 · 127`.
const TAP_PRODUCT_MAX: u64 = 128 * 127;

/// The epilogue of one output row (one output channel) of a requantizing
/// layer: add the i32 bias, requantize with a [`Requant`], clamp to
/// `[lo, hi]` and narrow to i8. Layers build one per channel when they are
/// compiled, and [`new`](Self::new) decides there, once, whether the row
/// can run the AVX2 body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowEpilogue {
    rq: Requant,
    bias: i32,
    lo: i32,
    hi: i32,
    /// `31 - shift` when the row is in the AVX2 body's domain.
    vector_ts: Option<u32>,
}

impl RowEpilogue {
    /// The epilogue of a row whose accumulators are reductions over `taps`
    /// int8 products.
    ///
    /// The row is in the AVX2 body's domain when `32 <= 31 - shift <= 62`,
    /// `mult > 0`, `-128 <= lo <= hi <= 127`, and the bias has headroom:
    /// `|bias| + taps·128·127 <= i32::MAX`, so `acc + bias` cannot overflow
    /// and equals the saturating add of [`apply`](Self::apply). Every
    /// other row runs `apply` per element.
    #[must_use]
    pub fn new(rq: Requant, bias: i32, taps: usize, lo: i32, hi: i32) -> Self {
        let ts = 31 - i64::from(rq.shift);
        let acc_max = (taps as u64).saturating_mul(TAP_PRODUCT_MAX);
        let headroom = u64::from(bias.unsigned_abs()).saturating_add(acc_max) <= i32::MAX as u64;
        let vector = (32..=62).contains(&ts)
            && rq.mult > 0
            && -128 <= lo
            && lo <= hi
            && hi <= 127
            && headroom;
        RowEpilogue {
            rq,
            bias,
            lo,
            hi,
            vector_ts: vector.then_some(ts as u32),
        }
    }

    /// The scalar reference every body equals:
    /// `rq.apply_i8(acc.saturating_add(bias), lo, hi)`.
    #[must_use]
    pub fn apply(&self, acc: i32) -> i8 {
        self.rq
            .apply_i8(acc.saturating_add(self.bias), self.lo, self.hi)
    }

    /// [`apply`](Self::apply) over a row. A row in the vector domain
    /// hoists its constants and runs the AVX2 body's arithmetic one lane
    /// at a time (see [`Rq8`]), which equals `apply` there; any other row
    /// calls `apply` per element.
    fn apply_row(&self, dst: &mut [i8], acc: &[i32]) {
        let Some(ts) = self.vector_ts else {
            for (d, &a) in dst.iter_mut().zip(acc) {
                *d = self.apply(a);
            }
            return;
        };
        let mult = u64::from(self.rq.mult.unsigned_abs());
        let nudge = 1u64 << (ts - 1);
        for (d, &a) in dst.iter_mut().zip(acc) {
            // Exact: the domain's headroom keeps `a + bias` inside i32.
            let x = a.wrapping_add(self.bias);
            let mag = ((u64::from(x.unsigned_abs()) * mult + nudge) >> ts) as i32;
            let v = if x < 0 { -mag } else { mag };
            *d = v.clamp(self.lo, self.hi) as i8;
        }
    }

    /// `31 - shift` when the AVX2 body may run this row on this host.
    fn vector_ts(&self) -> Option<u32> {
        self.vector_ts.filter(|_| crate::kernel::use_avx2())
    }
}

/// Requantizes a row-major `[rows.len(), cols]` block of i32 accumulators
/// into i8 with one [`RowEpilogue`] per row:
/// `dst[r·cols + j] = rows[r].apply(acc[r·cols + j])`, bitwise. A row in
/// the vector domain runs the AVX2 body when the CPU has AVX2 (and
/// `EDD_SIMD` does not force the scalar bodies); every other row runs the
/// scalar row body. The rows each body took are added to [`crate::stats`]
/// once per call.
///
/// Each accumulator must be a reduction over the `taps` its row's
/// epilogue was built for (`|acc| <= taps·128·127`), which is what makes
/// the vector domain's bias add exact; with a zero bias any i32 is exact.
pub fn requantize_rows_into(dst: &mut [i8], acc: &[i32], rows: &[RowEpilogue]) {
    debug_assert_eq!(dst.len(), acc.len(), "requantize_rows_into: lengths");
    let cols = acc.len().checked_div(rows.len()).unwrap_or(0);
    debug_assert_eq!(cols * rows.len(), acc.len(), "requantize_rows_into: rows");
    if cols == 0 {
        return;
    }
    let mut vector = 0;
    for ((d_row, a_row), ep) in dst
        .chunks_exact_mut(cols)
        .zip(acc.chunks_exact(cols))
        .zip(rows)
    {
        match ep.vector_ts() {
            #[cfg(target_arch = "x86_64")]
            Some(ts) => {
                // SAFETY: `vector_ts` is `Some` only when AVX2 is on, and
                // only for a row in the body's domain.
                unsafe { requantize_row_avx2(d_row, a_row, ep, ts) };
                vector += 1;
            }
            _ => ep.apply_row(d_row, a_row),
        }
    }
    crate::stats::record_requant_rows(vector, rows.len() - vector);
}

/// AVX2 requant row: 8 accumulators per step, the last group anchored at
/// the row end (it recomputes overlapped outputs with identical values).
///
/// # Safety
///
/// The CPU must support AVX2, and `ep` must be in the vector domain with
/// `ts` its `31 - shift` (see [`RowEpilogue::new`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn requantize_row_avx2(dst: &mut [i8], acc: &[i32], ep: &RowEpilogue, ts: u32) {
    use std::arch::x86_64::*;
    let n = dst.len().min(acc.len());
    if n < 8 {
        return ep.apply_row(dst, acc);
    }
    let rq = Rq8::new(ep, ts);
    let mut j = 0;
    loop {
        // SAFETY: j + 8 <= n bounds the 32-byte load and the 8-byte store.
        let x = _mm256_add_epi32(_mm256_loadu_si256(acc.as_ptr().add(j).cast()), rq.bias);
        store8(dst.as_mut_ptr().add(j), rq.apply(x));
        if j + 8 >= n {
            break;
        }
        j = (j + 8).min(n - 8);
    }
}

/// The broadcast constants of the AVX2 requantizer for one row.
///
/// [`apply`](Self::apply) maps 8 biased accumulators `x` to
/// `sign(x) · ((|x|·mult + nudge) >> ts)`, clamped to `[lo, hi]`, with
/// `nudge = 2^(ts-1)`; that is [`Requant::apply_i8`] for every
/// `32 <= ts <= 62` and `mult > 0`:
///
/// - `abs_epi32` reads `|i32::MIN|` as `2^31` unsigned, so `|x| <= 2^31`,
///   `|x|·mult < 2^62` and `|x|·mult + nudge < 2^63`;
/// - the high dword of that sum is `(|x|·mult + nudge) >> 32`, below
///   `2^31`, and a further logical shift by `ts - 32` equals the shift of
///   the whole 64-bit sum by `ts`, because floor division composes;
/// - the shifted magnitude fits 31 bits, so `sign_epi32` restores the sign
///   exactly, and after the `[lo, hi] ⊆ [-128, 127]` clamp the saturating
///   `packs` narrowing equals the scalar `as i8`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Rq8 {
    bias: std::arch::x86_64::__m256i,
    mult: std::arch::x86_64::__m256i,
    nudge: std::arch::x86_64::__m256i,
    count: std::arch::x86_64::__m128i,
    lo: std::arch::x86_64::__m256i,
    hi: std::arch::x86_64::__m256i,
}

#[cfg(target_arch = "x86_64")]
impl Rq8 {
    /// # Safety
    ///
    /// The CPU must support AVX2; `ts` is `ep`'s vector `31 - shift`.
    #[target_feature(enable = "avx2")]
    unsafe fn new(ep: &RowEpilogue, ts: u32) -> Self {
        use std::arch::x86_64::*;
        debug_assert!((32..=62).contains(&ts) && ep.rq.mult > 0);
        Rq8 {
            bias: _mm256_set1_epi32(ep.bias),
            mult: _mm256_set1_epi32(ep.rq.mult),
            nudge: _mm256_set1_epi64x(1i64 << (ts - 1)),
            count: _mm_cvtsi32_si128((ts - 32) as i32),
            lo: _mm256_set1_epi32(ep.lo),
            hi: _mm256_set1_epi32(ep.hi),
        }
    }

    /// Requantizes and clamps 8 biased accumulators (see the type docs).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn apply(&self, x: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
        use std::arch::x86_64::*;
        let mag = _mm256_abs_epi32(x);
        let even = _mm256_add_epi64(_mm256_mul_epu32(mag, self.mult), self.nudge);
        let odd = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(mag), self.mult),
            self.nudge,
        );
        let high = _mm256_blend_epi32::<0b1010_1010>(_mm256_srli_epi64::<32>(even), odd);
        let signed = _mm256_sign_epi32(_mm256_srl_epi32(high, self.count), x);
        _mm256_max_epi32(self.lo, _mm256_min_epi32(self.hi, signed))
    }
}

/// Narrows 8 lanes already inside the i8 range to bytes with one 8-byte
/// store.
///
/// # Safety
///
/// The CPU must support AVX2; `dst` is valid for 8 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store8(dst: *mut i8, v: std::arch::x86_64::__m256i) {
    use std::arch::x86_64::*;
    let words = _mm_packs_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
    _mm_storel_epi64(dst.cast(), _mm_packs_epi16(words, words));
}

// ---------------------------------------------------------------------------
// Residual add
// ---------------------------------------------------------------------------

/// Whether every sum of one entry of `term_a` and one of `term_b` fits an
/// i32, so that a plain i32 add of two entries equals their
/// `saturating_add`: the largest and the smallest possible sums are
/// checked once, in i64.
#[must_use]
pub fn add_terms_fit(term_a: &[i32; 256], term_b: &[i32; 256]) -> bool {
    let ext = |t: &[i32; 256]| {
        let (lo, hi) = t
            .iter()
            .fold((i32::MAX, i32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        (i64::from(lo), i64::from(hi))
    };
    let ((lo_a, hi_a), (lo_b, hi_b)) = (ext(term_a), ext(term_b));
    lo_a + lo_b >= i64::from(i32::MIN) && hi_a + hi_b <= i64::from(i32::MAX)
}

/// The int8 residual add through per-operand tables, in place on `a`:
/// `a[i] = clamp(term_a[a[i] as u8].saturating_add(term_b[b[i] as u8]),
/// -127, 127)`, the tables holding each operand's value on the output grid
/// for all 256 bytes.
///
/// `fit` is [`add_terms_fit`] of the two tables, decided once when they
/// are built. When it holds and the CPU has AVX2, whole groups of 8 run
/// the gather body (`add_tables_avx2`): a plain i32 add equals the
/// saturating one there. Every other element runs the scalar loop. The
/// elements each body took are added to [`crate::stats`] once per call.
/// Past the shorter operand nothing is added.
pub fn add_tables_into(
    a: &mut [i8],
    b: &[i8],
    term_a: &[i32; 256],
    term_b: &[i32; 256],
    fit: bool,
) {
    let n = a.len().min(b.len());
    let mut vector = 0;
    #[cfg(target_arch = "x86_64")]
    if fit && crate::kernel::use_avx2() {
        // SAFETY: AVX2 verified just above, and both slices are cut to
        // `n`. (`fit` is what makes the result equal the scalar loop's.)
        vector = unsafe { add_tables_avx2(&mut a[..n], &b[..n], term_a, term_b) };
    }
    add_tables_scalar(&mut a[vector..n], &b[vector..n], term_a, term_b);
    crate::stats::record_qadd_elems(vector, n - vector);
}

/// The scalar table add, the reference [`add_tables_avx2`] equals inside
/// the domain of [`add_terms_fit`]. The sum is exact in i64, so no
/// saturating add precedes the clamp: the result equals the saturated i32
/// sum clamped to ±127 for every input, and the loop keeps one
/// data-dependent branch per element instead of two, which is what an
/// unpredictable clamp costs.
fn add_tables_scalar(a: &mut [i8], b: &[i8], term_a: &[i32; 256], term_b: &[i32; 256]) {
    for (x, &y) in a.iter_mut().zip(b) {
        let sum =
            i64::from(term_a[usize::from(*x as u8)]) + i64::from(term_b[usize::from(y as u8)]);
        *x = sum.clamp(-127, 127) as i8;
    }
}

/// AVX2 table add over the whole groups of 8: each operand's 8 bytes are
/// zero-extended into gather indices, `_mm256_i32gather_epi32` reads the 8
/// table entries of each, and their plain i32 sum is clamped to ±127 and
/// stored as 8 bytes. That equals the scalar loop when every sum of one
/// entry of each table fits an i32 ([`add_terms_fit`]). The add is in
/// place, so a group never overlaps one already written; returns how many
/// leading elements it added (a multiple of 8).
///
/// # Safety
///
/// The CPU must support AVX2, and `a` and `b` have one length.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_tables_avx2(
    a: &mut [i8],
    b: &[i8],
    term_a: &[i32; 256],
    term_b: &[i32; 256],
) -> usize {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let (lo, hi) = (_mm256_set1_epi32(-127), _mm256_set1_epi32(127));
    let mut j = 0;
    while j + 8 <= a.len() {
        // SAFETY: j + 8 <= len bounds both 8-byte loads and the store; a
        // zero-extended byte indexes one of a table's 256 entries.
        let ia = _mm256_cvtepu8_epi32(_mm_loadl_epi64(a.as_ptr().add(j).cast()));
        let ib = _mm256_cvtepu8_epi32(_mm_loadl_epi64(b.as_ptr().add(j).cast()));
        let sum = _mm256_add_epi32(
            _mm256_i32gather_epi32::<4>(term_a.as_ptr(), ia),
            _mm256_i32gather_epi32::<4>(term_b.as_ptr(), ib),
        );
        store8(
            a.as_mut_ptr().add(j),
            _mm256_max_epi32(lo, _mm256_min_epi32(hi, sum)),
        );
        j += 8;
    }
    j
}

// ---------------------------------------------------------------------------
// Integer GEMM
// ---------------------------------------------------------------------------

/// Scalar reference GEMM: `C[m,n](i32) = A[m,k](i8) · B[k,n](i8)`, freshly
/// allocated. The unblocked i-k-j oracle the prepacked kernel is validated
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
    par_row_blocks(out, m, n, threads, |block, r| {
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
/// The engine's taps are whole rows: `Graph::facts` rejects a zero kernel
/// ("conv kernel and stride must be positive"), and the artifact decoder
/// and `QDwConvSpec::quantize` a weight length other than `channels · k²`.
/// A zero `k` gives no pairs, and a partial last row is dropped.
#[must_use]
pub fn dw_tap_pairs(w: &[i8], k: usize) -> Vec<i32> {
    debug_assert!(
        k > 0 && w.len().is_multiple_of(k),
        "dw_tap_pairs: taps are not whole rows (facts() rejects a zero kernel)"
    );
    if k == 0 {
        return Vec::new();
    }
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

/// Quantized depthwise convolution over every channel plane of a
/// batch-major `[b, c, in_h, in_w]` int8 input, writing the requantized
/// `[b, c, out_h, out_w]` int8 output. `c` is `rows.len()`; channel `ch`
/// has the dense taps `w[ch·k² ..]`, the [`dw_tap_pairs`] form
/// `pairs[ch·k·kp ..]` (`kp = k.div_ceil(2)`) and the epilogue `rows[ch]`.
/// Stride, padding and plane size come from `geom`, read as one channel.
///
/// Dispatched per plane: a stride-1 or stride-2 plane with `out_w >= 8`
/// whose epilogue is in the vector domain runs the paired-tap AVX2 body,
/// every other plane the scalar body; both equal [`RowEpilogue::apply`] of
/// the exact i32 stencil sum. The AVX2 body's i16 stage of the whole padded
/// plane comes from the scratch arena once per call and is zeroed once:
/// each plane writes only its interior, so the border stays zero. The
/// planes and requantized rows each body took are added to
/// [`crate::stats`] once per call.
pub fn qdw_planes_into(
    out: &mut [i8],
    input: &[i8],
    w: &[i8],
    pairs: &[i32],
    rows: &[RowEpilogue],
    geom: &Conv2dGeometry,
) {
    let (k, c) = (geom.kernel, rows.len());
    // A geometry whose kernel does not fit its padded plane, or whose
    // sizes overflow, has no output to compute (the layers and `facts()`
    // reject both before this point).
    let padded = |d: usize| geom.padding.checked_mul(2).and_then(|p| d.checked_add(p));
    let fits =
        padded(geom.in_h).is_some_and(|h| h >= k) && padded(geom.in_w).is_some_and(|w| w >= k);
    if c == 0 || k == 0 || geom.stride == 0 || !fits {
        return;
    }
    let (Some(plane_in), Some(plane_out)) = (
        geom.in_h.checked_mul(geom.in_w),
        geom.out_h().checked_mul(geom.out_w()),
    ) else {
        return;
    };
    debug_assert_eq!(w.len(), c * k * k, "qdw_planes_into: taps");
    debug_assert_eq!(pairs.len(), c * k * k.div_ceil(2), "qdw_planes_into: pairs");
    debug_assert_eq!(
        out.len() * plane_in,
        input.len() * plane_out,
        "qdw_planes_into: planes"
    );
    if plane_in == 0 || plane_out == 0 {
        return;
    }
    let stage_len = padded(geom.in_w)
        .zip(padded(geom.in_h))
        .and_then(|(pw, ph)| pw.checked_mul(ph))
        .and_then(|n| n.checked_add(1));
    let vector_shape = crate::kernel::use_avx2() && geom.stride <= 2 && geom.out_w() >= 8;
    let mut stage = stage_len
        .filter(|_| vector_shape)
        .map(crate::scratch::alloc_i16_zeroed);
    let (mut planes, mut vector) = (0, 0);
    for (o_img, x_img) in out
        .chunks_exact_mut(c * plane_out)
        .zip(input.chunks_exact(c * plane_in))
    {
        for ((((o, x), taps), pair), ep) in o_img
            .chunks_exact_mut(plane_out)
            .zip(x_img.chunks_exact(plane_in))
            .zip(w.chunks_exact(k * k))
            .zip(pairs.chunks_exact(k * k.div_ceil(2)))
            .zip(rows)
        {
            planes += 1;
            match (stage.as_deref_mut(), ep.vector_ts()) {
                #[cfg(target_arch = "x86_64")]
                (Some(stage), Some(ts)) => {
                    // SAFETY: AVX2 is on (both options are `Some` only
                    // then), the kernel fits the padded plane, the shape is
                    // stride 1 or 2 with `out_w >= 8`, the chunks have the
                    // plane lengths, the stage holds `(in_h + 2 · padding)
                    // · (in_w + 2 · padding) + 1` elements whose border no
                    // plane writes (zeroed at allocation), and `ts` is
                    // `ep`'s vector shift.
                    unsafe { qdw_plane_avx2(o, x, pair, ep, ts, geom, stage) };
                    vector += 1;
                }
                _ => qdw_plane_scalar(o, x, taps, ep, geom),
            }
        }
    }
    crate::stats::record_dw_planes(vector, planes - vector);
    crate::stats::record_requant_rows(vector, planes - vector);
}

/// AVX2 depthwise plane, two taps per multiply, requantized in registers
/// and stored as int8.
///
/// The input is widened into the interior of the zero-bordered i16 stage
/// (one `cvtepi8_epi16` load and one 32-byte store per 16 columns), so
/// every output row reads all `k` tap rows from the stage and no tap is
/// clipped. A stage row holds `pw = in_w + 2 · padding` elements; output
/// `(oy, j)` reads its tap row `ky` from stage row `oy · stride + ky` at
/// column `j · stride + kx`. `_mm256_madd_epi16` against the broadcast
/// `(w[kx], w[kx + 1])` pair forms both products and their sum exactly
/// (`|x·w| <= 128·127`); an odd kernel's last tap is paired with a zero
/// weight. The accumulators start at the bias, which the vector domain's
/// headroom keeps exact, and are requantized by [`Rq8`].
///
/// - **Stride 1.** In the stage the pair `(kx, kx + 1)` of output `j` is
///   the adjacent i16 pair at `j + kx`, so one unaligned 32-byte load at
///   `kx` holds it for the even outputs `j = 0, 2, …, 14` of a 16-wide
///   group and a load at `kx + 1` for the odd ones, with no shuffle in the
///   tap loop. Two rows share each weight broadcast ([`rows16`]); planes
///   with `8 <= out_w < 16` run one row at a time with 128-bit loads
///   ([`row8`]).
/// - **Stride 2.** The pair of output `j` sits at `2j + kx`, so one
///   32-byte load at `2 · x0 + kx` holds the pairs of the 8 outputs
///   `x0..x0 + 8`: one load, one multiply-add and one add per tap pair
///   ([`row8_s2`]).
///
/// The last group of a row is anchored at the row end, recomputing
/// overlapped outputs — identical values, integer math.
///
/// [`rows16`]: DwRun::rows16
/// [`row8`]: DwRun::row8
/// [`row8_s2`]: DwRun::row8_s2
///
/// # Safety
///
/// The CPU must support AVX2; `geom.stride` is 1 or 2, `geom.out_w() >=
/// 8`, `input.len() == in_h · in_w`, `out.len() == out_h · out_w`,
/// `pairs.len() == k · k.div_ceil(2)`, `stage.len() > (in_h + 2 · padding)
/// · (in_w + 2 · padding)` (the padded plane plus one slack element) with
/// every element outside the interior rows and columns zero, the kernel
/// fits the padded plane, and `ep` is in the vector domain with `ts` its
/// `31 - shift`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qdw_plane_avx2(
    out: &mut [i8],
    input: &[i8],
    pairs: &[i32],
    ep: &RowEpilogue,
    ts: u32,
    geom: &Conv2dGeometry,
    stage: &mut [i16],
) {
    let k = geom.kernel;
    let (ih, iw) = (geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let pad = geom.padding;
    let pw = iw + 2 * pad;
    debug_assert!(geom.stride <= 2 && ow >= 8);
    debug_assert_eq!((input.len(), out.len()), (ih * iw, oh * ow));
    debug_assert_eq!(pairs.len(), k * k.div_ceil(2));
    debug_assert!(stage.len() > (ih + 2 * pad) * pw);
    for (r, irow) in input.chunks_exact(iw).enumerate() {
        widen_row(&mut stage[(r + pad) * pw + pad..][..iw], irow);
    }
    let run = DwRun {
        stage: stage.as_ptr(),
        pw,
        ow,
        kp: k.div_ceil(2),
        pairs,
        rq: Rq8::new(ep, ts),
    };
    let op = out.as_mut_ptr();
    if geom.stride == 2 {
        for oy in 0..oh {
            run.row8_s2(op, oy);
        }
    } else if ow < 16 {
        for oy in 0..oh {
            run.row8(op, oy);
        }
    } else {
        let mut oy = 0;
        while oy + 2 <= oh {
            run.rows16::<2>(op, oy);
            oy += 2;
        }
        if oy < oh {
            run.rows16::<1>(op, oy);
        }
    }
}

/// Sign-extends one input row into its stage row: 16 values per step with
/// one `cvtepi8_epi16` load and one 32-byte store, the last group anchored
/// at the row end; rows narrower than 16 go one value at a time.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn widen_row(dst: &mut [i16], src: &[i8]) {
    use std::arch::x86_64::*;
    let n = dst.len().min(src.len());
    if n < 16 {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = i16::from(s);
        }
        return;
    }
    let mut j = 0;
    loop {
        // SAFETY: j + 16 <= n bounds the 16-byte load and the 32-byte
        // store.
        let v = _mm256_cvtepi8_epi16(_mm_loadu_si128(src.as_ptr().add(j).cast()));
        _mm256_storeu_si256(dst.as_mut_ptr().add(j).cast(), v);
        if j + 16 >= n {
            break;
        }
        j = (j + 16).min(n - 16);
    }
}

/// One plane's stage pointer, geometry, tap pairs and requantizer, as the
/// AVX2 depthwise row bodies read them.
///
/// Every load of the bodies ends at most one element past its stage row:
/// the next row's first element, or the stage's slack element after the
/// last row. A stride-1 group starts at `x0 <= ow - 16` (`ow - 8` for
/// [`row8`](Self::row8)), so its last load, at tap offset `2p + 1 <= k`,
/// ends at `x0 + 15 + k <= ow - 1 + k = pw`. A stride-2 group starts at
/// `2 · x0 <= 2 · ow - 16`, so its last load, at `2p <= k - 1`, ends at
/// `2 · ow - 2 + k <= pw` (`2 · (ow - 1) <= pw - k`). The element there
/// meets a zero weight when the kernel is odd, and is never reached when
/// it is even.
#[cfg(target_arch = "x86_64")]
struct DwRun<'a> {
    stage: *const i16,
    pw: usize,
    ow: usize,
    kp: usize,
    pairs: &'a [i32],
    rq: Rq8,
}

#[cfg(target_arch = "x86_64")]
impl DwRun<'_> {
    /// Stride-1 output rows `oy..oy + R`, 16 outputs per group, over all
    /// `k` tap rows.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; the plane is stride 1 with `ow >= 16`;
    /// `oy + R <= oh`; `out` holds the `oh · ow` plane; the stage holds the
    /// padded plane plus the slack element (see the type docs).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn rows16<const R: usize>(&self, out: *mut i8, oy: usize) {
        use std::arch::x86_64::*;
        let mut x0 = 0usize;
        loop {
            let mut even = [self.rq.bias; R];
            let mut odd = [self.rq.bias; R];
            for (ky, wrow) in self.pairs.chunks_exact(self.kp).enumerate() {
                let row0 = self.stage.add((oy + ky) * self.pw + x0);
                for (p, &pair) in wrow.iter().enumerate() {
                    let wv = _mm256_set1_epi32(pair);
                    for r in 0..R {
                        let base = row0.add(r * self.pw + 2 * p);
                        let a = _mm256_loadu_si256(base.cast());
                        let b = _mm256_loadu_si256(base.add(1).cast());
                        even[r] = _mm256_add_epi32(even[r], _mm256_madd_epi16(a, wv));
                        odd[r] = _mm256_add_epi32(odd[r], _mm256_madd_epi16(b, wv));
                    }
                }
            }
            for r in 0..R {
                let dst = out.add((oy + r) * self.ow + x0);
                store16(dst, self.rq.apply(even[r]), self.rq.apply(odd[r]));
            }
            if x0 + 16 >= self.ow {
                break;
            }
            x0 = (x0 + 16).min(self.ow - 16);
        }
    }

    /// Stride-1 output row `oy` of a plane with `8 <= ow < 16`: 8 outputs
    /// per group with 128-bit loads, the second group anchored at `ow - 8`.
    ///
    /// # Safety
    ///
    /// As [`rows16`](Self::rows16) with `R = 1`, for `ow >= 8`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn row8(&self, out: *mut i8, oy: usize) {
        use std::arch::x86_64::*;
        let bias = _mm256_castsi256_si128(self.rq.bias);
        for x0 in [0, self.ow - 8] {
            let (mut even, mut odd) = (bias, bias);
            for (ky, wrow) in self.pairs.chunks_exact(self.kp).enumerate() {
                let base = self.stage.add((oy + ky) * self.pw + x0);
                for (p, &pair) in wrow.iter().enumerate() {
                    let wv = _mm_set1_epi32(pair);
                    let a = _mm_loadu_si128(base.add(2 * p).cast());
                    let b = _mm_loadu_si128(base.add(2 * p + 1).cast());
                    even = _mm_add_epi32(even, _mm_madd_epi16(a, wv));
                    odd = _mm_add_epi32(odd, _mm_madd_epi16(b, wv));
                }
            }
            // [e0 e1 e2 e3 | o0 o1 o2 o3] → i16 [e0 o0 e1 o1 …] → bytes.
            let q = self.rq.apply(_mm256_set_m128i(odd, even));
            let words =
                _mm_packs_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
            let words = _mm_shuffle_epi8(
                words,
                _mm_setr_epi8(0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15),
            );
            _mm_storel_epi64(
                out.add(oy * self.ow + x0).cast(),
                _mm_packs_epi16(words, words),
            );
        }
    }

    /// Stride-2 output row `oy`, 8 outputs per group: per tap pair, one
    /// 32-byte load at `2 · x0 + 2p` of stage row `2 · oy + ky` holds the
    /// `(2p, 2p + 1)` pairs of outputs `x0..x0 + 8`, in output order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; the plane is stride 2 with `ow >= 8`;
    /// `oy < oh`; `out` holds the `oh · ow` plane; the stage holds the
    /// padded plane plus the slack element (see the type docs).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn row8_s2(&self, out: *mut i8, oy: usize) {
        use std::arch::x86_64::*;
        let mut x0 = 0usize;
        loop {
            let mut acc = self.rq.bias;
            for (ky, wrow) in self.pairs.chunks_exact(self.kp).enumerate() {
                let base = self.stage.add((2 * oy + ky) * self.pw + 2 * x0);
                for (p, &pair) in wrow.iter().enumerate() {
                    let v = _mm256_loadu_si256(base.add(2 * p).cast());
                    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(v, _mm256_set1_epi32(pair)));
                }
            }
            store8(out.add(oy * self.ow + x0), self.rq.apply(acc));
            if x0 + 8 >= self.ow {
                break;
            }
            x0 = (x0 + 8).min(self.ow - 8);
        }
    }
}

/// Narrows a 16-output group, given as its 8 even and 8 odd outputs (each
/// already inside the i8 range), to 16 bytes in output order.
///
/// # Safety
///
/// The CPU must support AVX2; `dst` is valid for 16 bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store16(dst: *mut i8, even: std::arch::x86_64::__m256i, odd: std::arch::x86_64::__m256i) {
    use std::arch::x86_64::*;
    // Per 128-bit lane: [e0 e1 e2 e3 o0 o1 o2 o3] as i16, interleaved to
    // [e0 o0 e1 o1 e2 o2 e3 o3] — outputs 0..8 in the low lane, 8..16 in
    // the high one.
    let words = _mm256_shuffle_epi8(
        _mm256_packs_epi32(even, odd),
        _mm256_setr_epi8(
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15, 0, 1, 8, 9, 2, 3, 10, 11, 4, 5,
            12, 13, 6, 7, 14, 15,
        ),
    );
    let bytes = _mm_packs_epi16(
        _mm256_castsi256_si128(words),
        _mm256_extracti128_si256::<1>(words),
    );
    _mm_storeu_si128(dst.cast(), bytes);
}

/// Scalar depthwise plane, the reference the AVX2 body equals: per output
/// row, 64-wide chunks of i32 accumulators over the taps whose source row
/// and column lie inside the image, then the epilogue's scalar row body
/// (equal to [`RowEpilogue::apply`] per element).
#[inline(always)]
fn qdw_plane_scalar(
    out: &mut [i8],
    input: &[i8],
    w: &[i8],
    ep: &RowEpilogue,
    geom: &Conv2dGeometry,
) {
    const CHUNK: usize = 64;
    let k = geom.kernel;
    let (ih, iw) = (geom.in_h, geom.in_w);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let (pad, stride) = (geom.padding, geom.stride);
    debug_assert_eq!((input.len(), out.len(), w.len()), (ih * iw, oh * ow, k * k));
    // Each tap's output columns are the same on every row: computed once
    // per plane for the first 16 taps (every kernel the search spaces
    // use), per row beyond.
    let columns = |kx: usize| valid_out_range(kx, pad, stride, iw, ow);
    let mut first_columns = [(0, 0); 16];
    for (kx, c) in first_columns.iter_mut().enumerate().take(k) {
        *c = columns(kx);
    }
    for (oy, orow) in out.chunks_exact_mut(ow).enumerate().take(oh) {
        for x0 in (0..ow).step_by(CHUNK) {
            let x1 = (x0 + CHUNK).min(ow);
            let mut acc = [0i32; CHUNK];
            for (ky, wrow) in w.chunks_exact(k).enumerate() {
                let Some(sy) = (oy * stride + ky).checked_sub(pad).filter(|&sy| sy < ih) else {
                    continue;
                };
                let src = &input[sy * iw..(sy + 1) * iw];
                for (kx, &wv) in wrow.iter().enumerate() {
                    let (ox0, ox1) = first_columns
                        .get(kx)
                        .copied()
                        .unwrap_or_else(|| columns(kx));
                    let (lo, hi) = (ox0.max(x0), ox1.min(x1));
                    if lo >= hi {
                        continue;
                    }
                    let wv = i32::from(wv);
                    let sx0 = lo * stride + kx - pad;
                    let acc = &mut acc[lo - x0..hi - x0];
                    if stride == 1 {
                        for (a, &x) in acc.iter_mut().zip(&src[sx0..]) {
                            *a = a.wrapping_add(wv * i32::from(x));
                        }
                    } else {
                        for (i, a) in acc.iter_mut().enumerate() {
                            *a = a.wrapping_add(wv * i32::from(src[sx0 + i * stride]));
                        }
                    }
                }
            }
            ep.apply_row(&mut orow[x0..x1], &acc);
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
    fn qmax_of_any_bit_width_is_a_quantize_qmax() {
        // `qmax(bits)` is the check that keeps `quantize_i8_into`'s qmax
        // in 1..=127, whatever width a spec or artifact carries.
        for bits in [0, 1, 2, 4, 8, 9, 16, 32, u32::MAX] {
            assert!((1..=127).contains(&qmax(bits)), "bits={bits}");
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

    /// Serializes the tests that read the process-global depthwise plane
    /// counters against the other tests in this binary that move them.
    static DW_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn dispatched_kernels_match_scalar_bodies() {
        let _counters = DW_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = StdRng::seed_from_u64(13);

        // Depthwise planes over every shape class the dispatch can see:
        // ow < 8 (scalar), stride 1 with ow in 8..16, 16n and 16n + r
        // (paired-tap AVX2 kernel, 2-row blocks and an odd last row),
        // stride 2 with ow >= 8 (the 8-output stride-2 body), every
        // padding up to "same", and the pulse strip (in_h = k, pad 0).
        // Activations sit at 127 and −128, the largest products the kernel
        // forms. Two channels per call, both in the vector domain: one with
        // a positive bias and the full clamp, one with a negative bias and
        // a ReLU6 clamp. The plane counters must show every stride-1 and
        // stride-2 plane with ow >= 8 on the AVX2 body.
        let avx2 = crate::kernel::use_avx2();
        let before = crate::stats::snapshot();
        let (mut want_planes, mut stride2_vector) = ([0u64; 2], 0);
        let extremes: Vec<i8> = (0..2 * 40 * 40)
            .map(|_| if rng.gen_bool(0.5) { 127 } else { -128 })
            .collect();
        for k in [1usize, 3, 5, 7] {
            let w = randq(2 * k * k, 127, &mut rng);
            let pairs = dw_tap_pairs(&w, k);
            // Scales that spread the stencil sums over the whole int8 grid.
            let rq = Requant::from_scale(4.0 / (k * k * 128) as f64);
            let rows = [
                RowEpilogue::new(rq, 20_000, k * k, -128, 127),
                RowEpilogue::new(rq, -3_001, k * k, 0, 47),
            ];
            assert!(rows.iter().all(|r| r.vector_ts.is_some()), "k={k}");
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
                            let input = &extremes[..2 * in_h * in_w];
                            let plane = geom.out_h() * geom.out_w();
                            let vector = avx2 && geom.out_w() >= 8;
                            want_planes[usize::from(vector)] += 2;
                            stride2_vector += u64::from(vector && stride == 2);
                            let mut got = vec![0x55i8; 2 * plane];
                            qdw_planes_into(&mut got, input, &w, &pairs, &rows, &geom);
                            let mut want = vec![-0x55i8; 2 * plane];
                            for (ch, ep) in rows.iter().enumerate() {
                                qdw_plane_scalar(
                                    &mut want[ch * plane..(ch + 1) * plane],
                                    &input[ch * in_h * in_w..(ch + 1) * in_h * in_w],
                                    &w[ch * k * k..(ch + 1) * k * k],
                                    ep,
                                    &geom,
                                );
                            }
                            assert_eq!(got, want, "{geom:?}");
                        }
                    }
                }
            }
        }
        let after = crate::stats::snapshot();
        assert_eq!(
            [
                after.dw_planes_scalar - before.dw_planes_scalar,
                after.dw_planes_vector - before.dw_planes_vector,
            ],
            want_planes,
            "(scalar, vector) depthwise planes"
        );
        assert_eq!(stride2_vector > 0, avx2, "stride-2 planes on the AVX2 body");

        check_quantize_bodies();
        check_add_bodies();

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

        // The requantizer against `apply_i8(acc.saturating_add(bias))` over
        // every `31 - shift` in 1..=62 (the vector domain is 32..=62), the
        // edge and a random multiplier, biases at 0, small, exactly at the
        // headroom of a 16-tap reduction and one past it, and at the i32
        // ends, and each clamp the engine uses. The accumulators are the
        // neighbours of every rounding tie within ±130 output steps (bias
        // removed, kept inside the 16-tap bound), plus the i32 ends when
        // the bias is 0.
        const TAPS: usize = 16;
        let bound = (TAPS as u64 * TAP_PRODUCT_MAX) as i64;
        let headroom = i32::MAX - bound as i32;
        let mut covered = [0usize; 2];
        for ts in 1..=62i64 {
            for mult in [1 << 30, i32::MAX, rng.gen_range(1 << 30..i32::MAX)] {
                let rq = Requant {
                    mult,
                    shift: 31 - ts as i32,
                };
                for bias in [
                    0,
                    37,
                    -1_000,
                    headroom,
                    -headroom,
                    headroom + 1,
                    -headroom - 1,
                    i32::MIN,
                    i32::MAX,
                ] {
                    let mut acc: Vec<i32> = Vec::new();
                    for q in -131i128..=130 {
                        let tie = (2 * q + 1) << (ts - 1);
                        let below = tie.div_euclid(i128::from(mult));
                        for x in below - 1..=below + 1 {
                            let a = x - i128::from(bias);
                            if a.abs() <= i128::from(bound) {
                                acc.push(a as i32);
                            }
                        }
                    }
                    if bias == 0 {
                        acc.extend([i32::MIN, i32::MIN + 1, i32::MAX, -1, 0, 1]);
                    }
                    acc.extend([bound as i32, -bound as i32]);
                    for (lo, hi) in [(-128, 127), (-127, 127), (0, 47)] {
                        let ep = RowEpilogue::new(rq, bias, TAPS, lo, hi);
                        covered[usize::from(ep.vector_ts.is_some())] += 1;
                        let mut got = vec![0i8; acc.len()];
                        requantize_rows_into(&mut got, &acc, &[ep]);
                        for (&g, &a) in got.iter().zip(&acc) {
                            assert_eq!(g, ep.apply(a), "{ep:?} acc={a}");
                        }
                    }
                }
            }
        }
        assert!(covered[0] > 0 && covered[1] > 0, "{covered:?}");

        // Row lengths around the 8-lane groups: the per-element path
        // below 8, and the anchored last group from 8 up.
        let rq = Requant::from_scale(0.003);
        let rows: Vec<RowEpilogue> = (0..3)
            .map(|r| RowEpilogue::new(rq, r * 500 - 500, 9, -127, 127))
            .collect();
        for cols in 1..=40 {
            let acc: Vec<i32> = (0..3 * cols)
                .map(|_| rng.gen_range(-147_456..=147_456))
                .collect();
            let mut got = vec![0i8; acc.len()];
            requantize_rows_into(&mut got, &acc, &rows);
            for (i, (&g, &a)) in got.iter().zip(&acc).enumerate() {
                assert_eq!(g, rows[i / cols].apply(a), "cols={cols} at {i}");
            }
        }
    }

    /// The quantize dispatch against its scalar body at `qmax` 1, 7 and
    /// 127, over ±0, subnormals, every tie ±(n + ½) for n ≤ 130 with both
    /// float neighbours, ±2^23, ±2^24, ±2^31 and beyond, ±`f32::MAX`, ±inf
    /// and NaN, at scales that keep the ties (1, ½), spread them (0.05),
    /// flip signs (−2) and divide by zero (0), in every length 0..=40.
    fn check_quantize_bodies() {
        let mut vals = vec![0.0f32, -0.0, f32::MAX, -f32::MAX, f32::INFINITY];
        vals.extend([f32::NEG_INFINITY, f32::NAN, -f32::NAN]);
        for sub in [f32::from_bits(1), f32::from_bits(0x007f_ffff), 1e-40] {
            vals.extend([sub, -sub]);
        }
        for m in 0..=130u8 {
            let tie = f32::from(m) + 0.5;
            for t in [tie, -tie] {
                vals.extend([t.next_down(), t, t.next_up()]);
            }
        }
        for e in [23, 24, 31, 32, 40, 100] {
            let p = 2.0f32.powi(e);
            vals.extend([
                p,
                -p,
                p.next_down(),
                -p.next_down(),
                p.next_up(),
                -p.next_up(),
            ]);
        }
        for qmax in [1, 7, 127] {
            for scale in [1.0f32, 0.5, 0.05, -2.0, 0.0] {
                for len in 0..=40 {
                    // Every value in a window of each length; the last
                    // window may be shorter.
                    for chunk in vals.chunks(len.max(1)) {
                        let src = &chunk[..len.min(chunk.len())];
                        let mut got = vec![0x55i8; src.len()];
                        quantize_i8_into(&mut got, src, scale, qmax);
                        let mut want = vec![-0x55i8; src.len()];
                        quantize_scalar(&mut want, src, 1.0 / scale, qmax);
                        assert_eq!(got, want, "qmax={qmax} scale={scale} {src:?}");
                    }
                }
            }
        }
    }

    /// The table add's dispatch against its scalar body over every (a, b)
    /// byte pair, in every length 0..=40, for tables inside the exact
    /// domain (identity, two requantizers, entries exactly at ±2^30 whose
    /// extreme sums are exactly `i32::MAX` and `i32::MIN`) and outside it
    /// (2^30 in both tables, an entry at 2^30 + 1, a saturating
    /// requantizer). The element counters must show the domain's groups
    /// of 8 on the gather body under AVX2.
    fn check_add_bodies() {
        let table = |f: &dyn Fn(i32) -> i32| {
            let mut t = Box::new([0i32; 256]);
            for v in -128..=127i32 {
                t[usize::from(v as i8 as u8)] = f(v);
            }
            t
        };
        let rq = |real: f64| {
            let rq = Requant::from_scale(real);
            table(&move |v| rq.apply(v))
        };
        const EDGE: i32 = 1 << 30;
        let edge = |top: i32, scale: i32| {
            table(&move |v| match v {
                127 => top,
                -128 => -EDGE,
                _ => v * scale,
            })
        };
        let cases = [
            (table(&|v| v), table(&|v| v), true),
            (rq(0.7), rq(1.3), true),
            (edge(EDGE, 1), edge(EDGE - 1, 3), true),
            (edge(EDGE, 1), edge(EDGE, 3), false),
            (edge(EDGE + 1, 1), edge(EDGE - 1, 3), false),
            (rq(f64::from(1 << 25)), table(&|v| v), false),
        ];
        let a_all: Vec<i8> = (0..1 << 16).map(|i: u32| (i >> 8) as u8 as i8).collect();
        let b_all: Vec<i8> = (0..1 << 16).map(|i: u32| i as u8 as i8).collect();
        let avx2 = crate::kernel::use_avx2();
        for (ta, tb, fit) in &cases {
            assert_eq!(add_terms_fit(ta, tb), *fit, "{:?}", (ta[127], tb[127]));
            let before = crate::stats::snapshot();
            let mut want_vector = 0;
            let mut check = |a: &[i8], b: &[i8]| {
                let mut got = a.to_vec();
                add_tables_into(&mut got, b, ta, tb, *fit);
                let mut want = a.to_vec();
                add_tables_scalar(&mut want, b, ta, tb);
                assert_eq!(got, want, "fit={fit} len={}", a.len());
                if *fit && avx2 {
                    want_vector += a.len() / 8 * 8;
                }
            };
            check(&a_all, &b_all);
            for len in 0..=40 {
                for start in (0..a_all.len() - len).step_by(997) {
                    check(&a_all[start..start + len], &b_all[start..start + len]);
                }
            }
            let after = crate::stats::snapshot();
            assert_eq!(
                after.qadd_elems_vector - before.qadd_elems_vector,
                want_vector as u64,
                "fit={fit}"
            );
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
        // Multipliers >= 1 (ts <= 0), flush-to-zero (ts >= 63) and ts < 32
        // rows must take the per-element path and still match apply_i8 of
        // the saturated biased sum exactly.
        let acc = [i32::MAX, i32::MIN, -5, 7, 0, 1000];
        let rows: Vec<RowEpilogue> = [4.0, 1e-30, 0.75]
            .iter()
            .map(|&r| RowEpilogue::new(Requant::from_scale(r), 3, 1, -128, 127))
            .collect();
        assert!(rows.iter().all(|r| r.vector_ts.is_none()));
        let mut got = vec![0i8; 6];
        requantize_rows_into(&mut got, &acc, &rows);
        for (row, ep) in rows.iter().enumerate() {
            for c in 0..2 {
                let a = acc[row * 2 + c];
                assert_eq!(
                    got[row * 2 + c],
                    ep.rq.apply_i8(a.saturating_add(3), -128, 127)
                );
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
        let _counters = DW_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
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
        let ep = RowEpilogue::new(Requant::from_scale(0.004), -700, 9, -127, 127);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let mut got = vec![0i8; oh * ow];
        qdw_planes_into(&mut got, &input, &w, &dw_tap_pairs(&w, 3), &[ep], &geom);
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
                assert_eq!(got[oy * ow + ox], ep.apply(want), "({oy},{ox})");
            }
        }
    }

    #[test]
    fn requantize_rows_applies_per_channel_scales() {
        let acc = vec![100, 200, -100, 1000, 2000, -3000];
        let rows = |lo| {
            [
                RowEpilogue::new(Requant::from_scale(0.5), 0, 1, lo, 127),
                RowEpilogue::new(Requant::from_scale(0.01), 100, 1, lo, 127),
            ]
        };
        let mut out = vec![0i8; 6];
        requantize_rows_into(&mut out, &acc, &rows(-127));
        assert_eq!(out, vec![50, 100, -50, 11, 21, -29]);
        // Clamp bounds emulate fused ReLU6: negatives cut at 0.
        requantize_rows_into(&mut out, &acc, &rows(0));
        assert_eq!(out, vec![50, 100, 0, 11, 21, 0]);
    }
}
