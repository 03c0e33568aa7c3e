//! Integer quantized inference layers: BN-folded convolution, depthwise
//! convolution and linear layers executing entirely in integer arithmetic
//! on [`edd_tensor::qkernel`].
//!
//! # Compilation model
//!
//! Each layer has a plain-data *spec* ([`QConvSpec`], [`QDwConvSpec`],
//! [`QLinearSpec`]) and one executable form built from it by `from_spec`.
//! A spec's `quantize` constructor folds batch norm into the convolution
//! weights and bias (`w' = w · γ/√(σ²+ε)`, `b' = β − μ · γ/√(σ²+ε)`),
//! quantizes the folded weights symmetrically **per output channel** at
//! the block's Φ-searched bit-width (int8 storage, bit-packed int4 when
//! the searched width is ≤ 4 bits), and pre-quantizes the bias into the
//! i32 accumulator domain at scale `s_in · s_w[c]`. The `edd-ir` quantize
//! lowering is the one caller that turns a trained network into specs.
//! Activations travel between layers as [`QTensor`]s — int8 with one
//! per-tensor scale fixed ahead of time by a calibration pass — so a
//! forward pass performs no float arithmetic until the final classifier
//! dequantizes its logits.
//!
//! ReLU6 fuses into the requantization clamp: the activation bound `6.0`
//! maps to `round(6/s_out)` in the output grid, so clamping the requantized
//! accumulator to `[0, min(127, round(6/s_out))]` is the integer image of
//! `relu6`. Residual adds rescale both operands into the block-output grid
//! with [`Requant`] multipliers and add saturating in i32 ([`QAddTables`]).

use crate::bn::BatchNorm2d;
use edd_tensor::kernel::{pack, select};
use edd_tensor::qkernel::{
    self, pack_i4, qdw_plane_into, qim2col_into, qmatmul_prepacked_into, quantize_i8_into,
    requantize_rows_into, unpack_i4_into, Requant,
};
use edd_tensor::{scratch, stats, Array, Conv2dGeometry, Result, TensorError};

/// Activation quantization width: activations always travel as int8
/// (`qmax = 127`); the Φ-searched precision applies to weights.
pub const ACT_QMAX: i32 = 127;

/// A quantized activation tensor: int8 values with one per-tensor scale
/// (`real ≈ data[i] · scale`), zero-point 0.
#[derive(Debug, Clone)]
pub struct QTensor {
    /// Row-major quantized values (NCHW for feature maps).
    pub data: Vec<i8>,
    /// Logical shape.
    pub shape: Vec<usize>,
    /// Real value of one integer step.
    pub scale: f32,
}

impl QTensor {
    /// Quantizes a float array onto the int8 grid with the given scale,
    /// clamping to `[-127, 127]`.
    #[must_use]
    pub fn quantize(x: &Array, scale: f32) -> Self {
        let mut data = vec![0i8; x.len()];
        quantize_i8_into(&mut data, x.data(), scale, ACT_QMAX);
        QTensor {
            data,
            shape: x.shape().to_vec(),
            scale,
        }
    }

    /// Dequantizes back to a float array.
    ///
    /// # Panics
    ///
    /// Panics if the stored shape is inconsistent with the data length
    /// (unreachable for tensors built by this module).
    #[must_use]
    pub fn dequantize(&self) -> Array {
        let mut out = vec![0.0f32; self.data.len()];
        qkernel::dequantize_into(&mut out, &self.data, self.scale);
        Array::from_vec(out, &self.shape).expect("QTensor shape consistent")
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Quantized weight storage: dense int8, or bit-packed int4 for low-Φ
/// blocks (two sign-extended nibbles per byte — half the bytes of dense
/// int8 storage). This is the *model* form that
/// [`storage_bytes`](QWeights::storage_bytes) reports; the layers
/// additionally cache a microkernel-native execution form (k4-padded rows
/// or packed B-panels) built once by `from_spec`, so no unpacking happens
/// on the forward path.
#[derive(Debug, Clone)]
pub enum QWeights {
    /// One i8 per weight.
    Int8(Vec<i8>),
    /// Bit-packed int4: `len` nibbles in `len.div_ceil(2)` bytes.
    Int4 {
        /// Packed nibble bytes.
        packed: Vec<u8>,
        /// Number of logical weights.
        len: usize,
    },
}

impl QWeights {
    /// Quantized values already in `[-qmax(bits), qmax(bits)]`; packs when
    /// the searched width fits int4.
    #[must_use]
    pub fn new(q: Vec<i8>, bits: u32) -> Self {
        if bits <= 4 {
            QWeights::Int4 {
                packed: pack_i4(&q),
                len: q.len(),
            }
        } else {
            QWeights::Int8(q)
        }
    }

    /// Number of logical weights.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            QWeights::Int8(q) => q.len(),
            QWeights::Int4 { len, .. } => *len,
        }
    }

    /// True when no weights are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of storage actually held (the int4 memory win is real, not
    /// notional — this is what the zoo/bench report).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        match self {
            QWeights::Int8(q) => q.len(),
            QWeights::Int4 { packed, .. } => packed.len(),
        }
    }

    /// Materializes the dense int8 view (unpacking int4 nibbles). Values
    /// round-trip exactly: quantized weights fit `[-qmax(bits), qmax(bits)]`
    /// before packing, so sign-extended nibbles reproduce them bit-for-bit.
    #[must_use]
    pub fn to_dense(&self) -> Vec<i8> {
        match self {
            QWeights::Int8(q) => q.clone(),
            QWeights::Int4 { packed, len } => {
                let mut out = vec![0i8; *len];
                unpack_i4_into(&mut out, packed);
                out
            }
        }
    }
}

/// Packs one image's im2col column matrix into microkernel-native B-panels:
/// straight from the image for 1×1 stride-1 convolutions (the image *is*
/// the column matrix), through the `cols` scratch otherwise.
fn pack_image_panels(
    dst: &mut [i8],
    cols: Option<&mut [i8]>,
    image: &[i8],
    geom: &Conv2dGeometry,
    ckk: usize,
    plane: usize,
) {
    stats::record_pack_panel_miss();
    match cols {
        None => pack::pack_rhs_i8(dst, image, ckk, plane),
        Some(cols) => {
            qim2col_into(cols, image, geom);
            pack::pack_rhs_i8(dst, cols, ckk, plane);
        }
    }
}

/// Adds the per-output-channel bias into the accumulator rows (saturating,
/// like the requantization domain expects).
fn add_bias_rows(acc: &mut [i32], bias_q: &[i32], plane: usize) {
    for (row, &bq) in acc.chunks_exact_mut(plane).zip(bias_q) {
        if bq != 0 {
            for a in row {
                *a = a.saturating_add(bq);
            }
        }
    }
}

/// Per-output-channel symmetric quantization of a `[rows, cols]` weight
/// matrix (row = output channel): returns the quantized values and one
/// scale per row.
fn quantize_per_row(w: &[f32], rows: usize, cols: usize, bits: u32) -> (Vec<i8>, Vec<f32>) {
    let qm = qkernel::qmax(bits);
    let mut q = vec![0i8; w.len()];
    let mut scales = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &w[r * cols..(r + 1) * cols];
        let s = qkernel::scale_for(qkernel::max_abs(row), bits);
        quantize_i8_into(&mut q[r * cols..(r + 1) * cols], row, s, qm);
        scales.push(s);
    }
    (q, scales)
}

/// Per-channel batch-norm fold factors for eval-mode statistics:
/// `(mul[c], add[c])` with `mul = γ/√(σ²+ε)` and `add = β − μ·mul`, so
/// `bn(x) = x·mul + add` channelwise.
#[must_use]
pub fn bn_fold_factors(bn: &BatchNorm2d) -> (Vec<f32>, Vec<f32>) {
    let gamma = bn.gamma().value().data().to_vec();
    let beta = bn.beta().value().data().to_vec();
    let mean = bn.running_mean();
    let var = bn.running_var();
    let eps = bn.eps();
    let mul: Vec<f32> = gamma
        .iter()
        .zip(var.data())
        .map(|(&g, &v)| g / (v + eps).sqrt())
        .collect();
    let add: Vec<f32> = beta
        .iter()
        .zip(mean.data())
        .zip(&mul)
        .map(|((&b, &m), &s)| b - m * s)
        .collect();
    (mul, add)
}

/// Output clamp bounds for a requantizing layer: `[0, round(6/s_out)]`
/// capped at the int8 range when ReLU6 is fused, the full symmetric range
/// otherwise. Public so graph-level lowerings (`edd-ir`) compute the exact
/// clamp this module would fuse.
#[must_use]
pub fn clamp_bounds(relu6: bool, out_scale: f32) -> (i32, i32) {
    if relu6 {
        let q6 = (6.0 / out_scale).round() as i32;
        (0, q6.clamp(0, ACT_QMAX))
    } else {
        (-ACT_QMAX, ACT_QMAX)
    }
}

/// Folds per-channel batch-norm factors `(mul, add)` into a `[rows, cols]`
/// weight matrix and its bias, in place: `w[o,:] *= mul[o]`,
/// `b[o] = b[o]·mul[o] + add[o]`. Shared by the spec `quantize`
/// constructors below and the `edd-ir` BN-folding pass, so folding before
/// or during quantization produces bit-identical folded floats (and
/// therefore bit-identical quantized specs).
///
/// # Panics
///
/// Panics when the factor vectors do not have one entry per row.
pub fn fold_bn(w: &mut [f32], bias: &mut [f32], mul: &[f32], add: &[f32], cols: usize) {
    assert_eq!(mul.len(), bias.len(), "fold_bn: factor/bias mismatch");
    assert_eq!(add.len(), bias.len(), "fold_bn: factor/bias mismatch");
    assert_eq!(w.len(), bias.len() * cols, "fold_bn: weight shape mismatch");
    for (o, &m) in mul.iter().enumerate() {
        for v in &mut w[o * cols..(o + 1) * cols] {
            *v *= m;
        }
        bias[o] = bias[o] * m + add[o];
    }
}

/// Borrowed float-domain source of one convolution for [`QConvSpec::quantize`]:
/// raw OIHW weights, optional bias, optional pre-computed BN fold factors.
#[derive(Debug, Clone, Copy)]
pub struct QConvSource<'a> {
    /// Row-major OIHW weights, `out_channels · in_channels · kernel²` long.
    pub w: &'a [f32],
    /// Output channels.
    pub out_channels: usize,
    /// Input channels.
    pub in_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Optional per-output-channel bias.
    pub bias: Option<&'a [f32]>,
    /// Optional `(mul, add)` batch-norm fold factors (see
    /// [`bn_fold_factors`]) to fold before quantizing.
    pub bn: Option<(&'a [f32], &'a [f32])>,
}

/// The plain-data compiled form of a quantized convolution: everything
/// [`QConv2d`] needs except the microkernel-native weight cache, which
/// [`QConv2d::from_spec`] rebuilds. This is what the `edd-ir` artifact
/// format serializes — a spec round-trips losslessly (all-integer fields
/// plus IEEE-754 bit patterns), so a hot-loaded layer is bit-identical to
/// the one compiled in process.
#[derive(Debug, Clone)]
pub struct QConvSpec {
    /// Quantized per-output-channel weights (model storage form).
    pub weights: QWeights,
    /// Bias pre-quantized into the i32 accumulator domain.
    pub bias_q: Vec<i32>,
    /// Per-output-channel fixed-point requantizers.
    pub requant: Vec<Requant>,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Calibrated input activation scale.
    pub in_scale: f32,
    /// Calibrated output activation scale.
    pub out_scale: f32,
    /// Lower requantization clamp bound.
    pub lo: i32,
    /// Upper requantization clamp bound (ReLU6 fusion lands here).
    pub hi: i32,
    /// Skip im2col and read the image as the column matrix directly. Only
    /// meaningful (and only honored) for 1×1 stride-1 pad-0 convolutions;
    /// the `edd-ir` bypass pass flips this on lowered graphs.
    pub direct: bool,
}

impl QConvSpec {
    /// Quantizes a float convolution (with BN factors already extracted)
    /// into its compiled spec. `bits` is the Φ-searched weight precision
    /// (≤ 4 packs int4; the engine ceiling is 8), `in_scale`/`out_scale`
    /// are the calibrated activation scales on either side, `relu6` fuses
    /// the activation clamp, and `direct` requests the 1×1 im2col bypass.
    ///
    /// The `edd-ir` quantize lowering builds every convolution spec here,
    /// with or without its batch norm folded in beforehand; both routes
    /// fold through [`fold_bn`], so their specs are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if weight/bias/BN lengths disagree with the geometry.
    #[must_use]
    pub fn quantize(
        src: &QConvSource<'_>,
        bits: u32,
        in_scale: f32,
        out_scale: f32,
        relu6: bool,
        direct: bool,
    ) -> Self {
        let (out_c, in_c, k) = (src.out_channels, src.in_channels, src.kernel);
        let cols = in_c * k * k;
        assert_eq!(src.w.len(), out_c * cols, "QConvSpec: weight shape");
        let mut folded = src.w.to_vec();
        let mut bias = src
            .bias
            .map_or_else(|| vec![0.0f32; out_c], <[f32]>::to_vec);
        if let Some((mul, add)) = src.bn {
            assert_eq!(mul.len(), out_c, "QConvSpec: BN channel mismatch");
            fold_bn(&mut folded, &mut bias, mul, add, cols);
        }
        let (q, w_scales) = quantize_per_row(&folded, out_c, cols, bits);
        let requant: Vec<Requant> = w_scales
            .iter()
            .map(|&sw| {
                Requant::from_scale(f64::from(in_scale) * f64::from(sw) / f64::from(out_scale))
            })
            .collect();
        let bias_q: Vec<i32> = bias
            .iter()
            .zip(&w_scales)
            .map(|(&b, &sw)| (f64::from(b) / (f64::from(in_scale) * f64::from(sw))).round() as i32)
            .collect();
        let (lo, hi) = clamp_bounds(relu6, out_scale);
        QConvSpec {
            weights: QWeights::new(q, bits),
            bias_q,
            requant,
            in_channels: in_c,
            out_channels: out_c,
            kernel: k,
            stride: src.stride,
            padding: src.padding,
            in_scale,
            out_scale,
            lo,
            hi,
            direct,
        }
    }

    /// True when the geometry admits the 1×1 im2col bypass.
    #[must_use]
    pub fn direct_eligible(&self) -> bool {
        self.kernel == 1 && self.stride == 1 && self.padding == 0
    }
}

/// A compiled quantized 2-D convolution: BN-folded, per-output-channel
/// quantized weights, integer im2col + GEMM execution, fixed-point
/// requantization with an optionally fused ReLU6 clamp.
#[derive(Debug)]
pub struct QConv2d {
    spec: QConvSpec,
    /// Execution form of the weights, built once at compile time: dense
    /// rows zero-padded to the microkernel's k-group of 4 (`[out_c, k4]`),
    /// the prepacked-LHS layout of [`qmatmul_prepacked_into`].
    wq_k4: Vec<i8>,
}

impl QConv2d {
    /// Builds the executable layer from a compiled spec (e.g. one decoded
    /// from an `edd-ir` artifact), rebuilding the microkernel-native weight
    /// panel. An ineligible `direct` request is quietly dropped rather than
    /// trusted.
    #[must_use]
    pub fn from_spec(mut spec: QConvSpec) -> Self {
        spec.direct &= spec.direct_eligible();
        let cols = spec.in_channels * spec.kernel * spec.kernel;
        let q = spec.weights.to_dense();
        let mut wq_k4 = vec![0i8; pack::packed_lhs_len(spec.out_channels, cols)];
        pack::pack_lhs_i8(&mut wq_k4, &q, spec.out_channels, cols);
        stats::record_pack_panel_built();
        QConv2d { spec, wq_k4 }
    }

    /// Runs the quantized convolution on an NCHW [`QTensor`].
    ///
    /// # Errors
    ///
    /// Rejects inputs whose shape or scale does not match the compiled
    /// layer.
    pub fn forward(&self, x: &QTensor) -> Result<QTensor> {
        let sp = &self.spec;
        let [b, c, h, w] = checked_nchw(x, sp.in_channels, sp.in_scale, "QConv2d")?;
        let geom = Conv2dGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel: sp.kernel,
            stride: sp.stride,
            padding: sp.padding,
        };
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let plane = oh * ow;
        let ckk = c * sp.kernel * sp.kernel;
        let row_len = sp.out_channels * plane;
        let mut out = vec![0i8; b * row_len];
        let mut acc = scratch::alloc_i32(row_len);
        select::record_class(sp.out_channels, plane, true);
        // Per image, the im2col columns are packed into microkernel-native
        // B-panels, multiplied against the cached weight panel by the
        // maddubs qGEMM (which spreads its rows over the pool), biased and
        // requantized. 1×1 stride-1 convolutions read the image as the
        // column matrix directly (the expand/project/head case).
        // Graph-lowered specs carry the `direct` flag once the bypass pass
        // has run.
        let img = c * h * w;
        let mut panels = scratch::alloc_i8(pack::packed_rhs_len(ckk, plane));
        let mut cols = (!sp.direct).then(|| scratch::alloc_i8(ckk * plane));
        for i in 0..b {
            let image = &x.data[i * img..(i + 1) * img];
            pack_image_panels(&mut panels, cols.as_deref_mut(), image, &geom, ckk, plane);
            stats::record_pack_panel_hit();
            qmatmul_prepacked_into(&mut acc, &self.wq_k4, &panels, sp.out_channels, ckk, plane);
            add_bias_rows(&mut acc, &sp.bias_q, plane);
            let out_img = &mut out[i * row_len..(i + 1) * row_len];
            requantize_rows_into(out_img, &acc, &sp.requant, plane, sp.lo, sp.hi);
        }
        Ok(QTensor {
            data: out,
            shape: vec![b, sp.out_channels, oh, ow],
            scale: sp.out_scale,
        })
    }
}

/// Borrowed float-domain source of one depthwise convolution for
/// [`QDwConvSpec::quantize`].
#[derive(Debug, Clone, Copy)]
pub struct QDwConvSource<'a> {
    /// Row-major `[channels, kernel, kernel]` weights.
    pub w: &'a [f32],
    /// Channel count (depthwise: groups == channels).
    pub channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Optional per-channel bias.
    pub bias: Option<&'a [f32]>,
    /// Optional `(mul, add)` batch-norm fold factors.
    pub bn: Option<(&'a [f32], &'a [f32])>,
}

/// The plain-data compiled form of a quantized depthwise convolution (see
/// [`QConvSpec`] for the spec/cache split rationale).
#[derive(Debug, Clone)]
pub struct QDwConvSpec {
    /// Quantized per-channel weights (model storage form).
    pub weights: QWeights,
    /// Bias pre-quantized into the i32 accumulator domain.
    pub bias_q: Vec<i32>,
    /// Per-channel fixed-point requantizers.
    pub requant: Vec<Requant>,
    /// Channel count.
    pub channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Calibrated input activation scale.
    pub in_scale: f32,
    /// Calibrated output activation scale.
    pub out_scale: f32,
    /// Lower requantization clamp bound.
    pub lo: i32,
    /// Upper requantization clamp bound.
    pub hi: i32,
}

impl QDwConvSpec {
    /// Quantizes a float depthwise convolution into its compiled spec.
    /// Parameters mirror [`QConvSpec::quantize`].
    ///
    /// # Panics
    ///
    /// Panics if weight/bias/BN lengths disagree with the geometry.
    #[must_use]
    pub fn quantize(
        src: &QDwConvSource<'_>,
        bits: u32,
        in_scale: f32,
        out_scale: f32,
        relu6: bool,
    ) -> Self {
        let (ch, k) = (src.channels, src.kernel);
        let taps = k * k;
        assert_eq!(src.w.len(), ch * taps, "QDwConvSpec: weight shape");
        let mut folded = src.w.to_vec();
        let mut bias = src.bias.map_or_else(|| vec![0.0f32; ch], <[f32]>::to_vec);
        if let Some((mul, add)) = src.bn {
            assert_eq!(mul.len(), ch, "QDwConvSpec: BN channel mismatch");
            fold_bn(&mut folded, &mut bias, mul, add, taps);
        }
        let (q, w_scales) = quantize_per_row(&folded, ch, taps, bits);
        let requant: Vec<Requant> = w_scales
            .iter()
            .map(|&sw| {
                Requant::from_scale(f64::from(in_scale) * f64::from(sw) / f64::from(out_scale))
            })
            .collect();
        let bias_q: Vec<i32> = bias
            .iter()
            .zip(&w_scales)
            .map(|(&b, &sw)| (f64::from(b) / (f64::from(in_scale) * f64::from(sw))).round() as i32)
            .collect();
        let (lo, hi) = clamp_bounds(relu6, out_scale);
        QDwConvSpec {
            weights: QWeights::new(q, bits),
            bias_q,
            requant,
            channels: ch,
            kernel: k,
            stride: src.stride,
            padding: src.padding,
            in_scale,
            out_scale,
            lo,
            hi,
        }
    }
}

/// A compiled quantized depthwise convolution: BN-folded per-channel
/// weights, per-channel requantization, fused ReLU6.
#[derive(Debug)]
pub struct QDwConv2d {
    spec: QDwConvSpec,
    /// Dense per-channel taps, materialized once at compile time (int4
    /// weights are unpacked here exactly once, not per forward call).
    taps: Vec<i8>,
    /// The same taps as `(w[kx], w[kx + 1])` i16 pairs for the AVX2
    /// paired-tap kernel ([`qkernel::dw_tap_pairs`]).
    tap_pairs: Vec<i32>,
}

impl QDwConv2d {
    /// Builds the executable layer from a compiled spec, materializing the
    /// dense tap cache and its tap-pair form.
    #[must_use]
    pub fn from_spec(spec: QDwConvSpec) -> Self {
        let taps = spec.weights.to_dense();
        let tap_pairs = qkernel::dw_tap_pairs(&taps, spec.kernel);
        stats::record_pack_panel_built();
        QDwConv2d {
            spec,
            taps,
            tap_pairs,
        }
    }

    /// Runs the quantized depthwise convolution on an NCHW [`QTensor`].
    ///
    /// # Errors
    ///
    /// Rejects inputs whose shape or scale does not match the compiled
    /// layer.
    pub fn forward(&self, x: &QTensor) -> Result<QTensor> {
        let sp = &self.spec;
        let [b, c, h, w] = checked_nchw(x, sp.channels, sp.in_scale, "QDwConv2d")?;
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: h,
            in_w: w,
            kernel: sp.kernel,
            stride: sp.stride,
            padding: sp.padding,
        };
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let plane = oh * ow;
        let taps = sp.kernel * sp.kernel;
        let pairs = sp.kernel * sp.kernel.div_ceil(2);
        let mut out = vec![0i8; b * c * plane];
        // Accumulate every channel of one image, then requantize all rows
        // in a single vectorized pass (one row per channel).
        let mut acc = scratch::alloc_i32(c * plane);
        for i in 0..b {
            for ch in 0..c {
                let image = &x.data[(i * c + ch) * h * w..(i * c + ch + 1) * h * w];
                qdw_plane_into(
                    &mut acc[ch * plane..(ch + 1) * plane],
                    image,
                    &self.taps[ch * taps..(ch + 1) * taps],
                    &self.tap_pairs[ch * pairs..(ch + 1) * pairs],
                    &geom,
                );
            }
            add_bias_rows(&mut acc, &sp.bias_q, plane);
            requantize_rows_into(
                &mut out[i * c * plane..(i + 1) * c * plane],
                &acc,
                &sp.requant,
                plane,
                sp.lo,
                sp.hi,
            );
        }
        Ok(QTensor {
            data: out,
            shape: vec![b, c, oh, ow],
            scale: sp.out_scale,
        })
    }
}

/// The plain-data compiled form of a quantized linear classifier head (see
/// [`QConvSpec`] for the spec/cache split rationale).
#[derive(Debug, Clone)]
pub struct QLinearSpec {
    /// Quantized `[in, out]` weights (model storage form).
    pub weights: QWeights,
    /// Float bias, added after dequantization.
    pub bias: Vec<f32>,
    /// Per-output-channel weight scales (columns of the `[in, out]` weight).
    pub w_scales: Vec<f32>,
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Calibrated input activation scale.
    pub in_scale: f32,
}

impl QLinearSpec {
    /// Quantizes a float `[in, out]` linear layer at `bits` weight
    /// precision with per-output-channel scales.
    ///
    /// # Panics
    ///
    /// Panics if weight/bias lengths disagree with the geometry.
    #[must_use]
    pub fn quantize(
        w: &[f32],
        in_f: usize,
        out_f: usize,
        bias: &[f32],
        bits: u32,
        in_scale: f32,
    ) -> Self {
        assert_eq!(w.len(), in_f * out_f, "QLinearSpec: weight shape");
        assert_eq!(bias.len(), out_f, "QLinearSpec: bias shape");
        let qm = qkernel::qmax(bits);
        // Column-major scales: output channel o reads column o.
        let mut w_scales = Vec::with_capacity(out_f);
        for o in 0..out_f {
            let mx = (0..in_f).fold(0.0f32, |m, i| m.max(w[i * out_f + o].abs()));
            w_scales.push(qkernel::scale_for(mx, bits));
        }
        let mut q = vec![0i8; w.len()];
        for (i, (&v, d)) in w.iter().zip(q.iter_mut()).enumerate() {
            let s = w_scales[i % out_f];
            *d = ((v / s).round() as i32).clamp(-qm, qm) as i8;
        }
        QLinearSpec {
            weights: QWeights::new(q, bits),
            bias: bias.to_vec(),
            w_scales,
            in_features: in_f,
            out_features: out_f,
            in_scale,
        }
    }
}

/// A compiled quantized fully-connected classifier head: integer GEMM,
/// float bias, dequantized f32 logits (the network boundary back to real
/// values).
#[derive(Debug)]
pub struct QLinear {
    spec: QLinearSpec,
    /// Cached microkernel-native B-panels of the `[in, out]` weight,
    /// packed once at compile time for the prepacked maddubs qGEMM.
    panels: Vec<i8>,
}

impl QLinear {
    /// Builds the executable layer from a compiled spec, rebuilding the
    /// weight panels.
    #[must_use]
    pub fn from_spec(spec: QLinearSpec) -> Self {
        let (in_f, out_f) = (spec.in_features, spec.out_features);
        let q = spec.weights.to_dense();
        let mut panels = vec![0i8; pack::packed_rhs_len(in_f, out_f)];
        pack::pack_rhs_i8(&mut panels, &q, in_f, out_f);
        stats::record_pack_panel_built();
        QLinear { spec, panels }
    }

    /// The plain-data compiled form of this layer.
    #[must_use]
    pub fn spec(&self) -> &QLinearSpec {
        &self.spec
    }

    /// Runs the quantized classifier on a `[batch, in_features]`
    /// [`QTensor`], returning float logits `[batch, out_features]`.
    ///
    /// # Errors
    ///
    /// Rejects inputs whose shape or scale does not match the compiled
    /// layer.
    pub fn forward(&self, x: &QTensor) -> Result<Array> {
        let sp = &self.spec;
        if x.shape.len() != 2 || x.shape[1] != sp.in_features {
            return Err(TensorError::InvalidArgument(format!(
                "QLinear: expected [batch, {}], got {:?}",
                sp.in_features, x.shape
            )));
        }
        check_scale(x.scale, sp.in_scale, "QLinear")?;
        let b = x.shape[0];
        let mut acc = scratch::alloc_i32(b * sp.out_features);
        let mut a_k4 = scratch::alloc_i8(pack::packed_lhs_len(b, sp.in_features));
        pack::pack_lhs_i8(&mut a_k4, &x.data, b, sp.in_features);
        stats::record_pack_panel_miss();
        select::record_class(b, sp.out_features, false);
        stats::record_pack_panel_hit();
        qmatmul_prepacked_into(
            &mut acc,
            &a_k4,
            &self.panels,
            b,
            sp.in_features,
            sp.out_features,
        );
        let mut out = vec![0.0f32; b * sp.out_features];
        for (row_out, row_acc) in out
            .chunks_exact_mut(sp.out_features)
            .zip(acc.chunks_exact(sp.out_features))
        {
            for (((d, &a), &sw), &bias) in row_out
                .iter_mut()
                .zip(row_acc)
                .zip(&sp.w_scales)
                .zip(&sp.bias)
            {
                *d = a as f32 * sp.in_scale * sw + bias;
            }
        }
        Array::from_vec(out, &[b, sp.out_features])
    }
}

/// Integer global average pooling: `[b, c, h, w] → [b, c]`, output on the
/// same scale as the input (`q_out = round(Σq / (h·w))`).
///
/// # Errors
///
/// Rejects non-NCHW inputs.
pub fn q_global_avg_pool(x: &QTensor) -> Result<QTensor> {
    if x.shape.len() != 4 {
        return Err(TensorError::InvalidArgument(format!(
            "q_global_avg_pool: expected NCHW, got {:?}",
            x.shape
        )));
    }
    let (b, c, h, w) = (x.shape[0], x.shape[1], x.shape[2], x.shape[3]);
    let plane = h * w;
    let rq = Requant::from_scale(1.0 / plane as f64);
    let mut out = vec![0i8; b * c];
    for (d, chunk) in out.iter_mut().zip(x.data.chunks_exact(plane)) {
        let sum: i32 = chunk.iter().map(|&v| i32::from(v)).sum();
        *d = rq.apply_i8(sum, -ACT_QMAX, ACT_QMAX);
    }
    Ok(QTensor {
        data: out,
        shape: vec![b, c],
        scale: x.scale,
    })
}

/// A compiled integer residual add in a fixed output grid: each operand is
/// brought onto the grid by its optional [`Requant`] (`None`: the operand
/// already lives on it and its raw value is used), the two terms are
/// summed in i32 (saturating) and the sum is clamped to the int8
/// activation range.
///
/// An i8 operand has only 256 values, so each operand's requantization is
/// tabulated once when the add is compiled: `term_a[v as u8]` is operand
/// `a`'s value `v` on the output grid. Per element the add is then two
/// table loads, an add and a clamp, with no 64-bit multiply-and-shift. The
/// batch and pulsed executors both run this one add.
#[derive(Clone, Debug)]
pub struct QAddTables {
    term_a: Box<[i32; 256]>,
    term_b: Box<[i32; 256]>,
}

impl QAddTables {
    /// Tabulates both operands' requantizers.
    #[must_use]
    pub fn new(rq_a: Option<Requant>, rq_b: Option<Requant>) -> Self {
        let table = |rq: Option<Requant>| {
            let mut t = Box::new([0i32; 256]);
            for v in i8::MIN..=i8::MAX {
                let v32 = i32::from(v);
                t[usize::from(v as u8)] = rq.map_or(v32, |rq| rq.apply(v32));
            }
            t
        };
        QAddTables {
            term_a: table(rq_a),
            term_b: table(rq_b),
        }
    }

    /// The residual add in place on the first operand:
    /// `a[i] = clamp(term_a[a[i]] + term_b[b[i]], -127, 127)`.
    ///
    /// # Panics
    ///
    /// Panics if the operands differ in length.
    pub fn add_assign(&self, a: &mut [i8], b: &[i8]) {
        assert_eq!(a.len(), b.len(), "QAddTables: operand lengths differ");
        for (x, &y) in a.iter_mut().zip(b) {
            let sum = self.term_a[usize::from(*x as u8)]
                .saturating_add(self.term_b[usize::from(y as u8)]);
            *x = sum.clamp(-ACT_QMAX, ACT_QMAX) as i8;
        }
    }
}

/// Validates an NCHW input against the compiled channel count and scale,
/// returning `[b, c, h, w]`.
fn checked_nchw(x: &QTensor, channels: usize, scale: f32, what: &str) -> Result<[usize; 4]> {
    if x.shape.len() != 4 || x.shape[1] != channels {
        return Err(TensorError::InvalidArgument(format!(
            "{what}: expected [b, {channels}, h, w], got {:?}",
            x.shape
        )));
    }
    check_scale(x.scale, scale, what)?;
    Ok([x.shape[0], x.shape[1], x.shape[2], x.shape[3]])
}

/// The compiled graph fixes every activation scale at calibration time; a
/// mismatched input scale means the caller quantized with the wrong grid.
fn check_scale(got: f32, want: f32, what: &str) -> Result<()> {
    if (got - want).abs() > want.abs() * 1e-5 {
        return Err(TensorError::InvalidArgument(format!(
            "{what}: input scale {got} does not match compiled scale {want}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{Conv2d, DwConv2d};
    use crate::linear::Linear;
    use crate::module::{Module, QuantSpec, QuantizableModule};
    use edd_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Input whose values sit exactly on the activation grid, so the
    /// integer engine and the float oracle see identical inputs.
    fn on_grid_input(shape: &[usize], scale: f32, rng: &mut StdRng) -> Array {
        let n: usize = shape.iter().product();
        let v: Vec<f32> = (0..n)
            .map(|_| f32::from(rng.gen_range(-127i8..=127)) * scale)
            .collect();
        Array::from_vec(v, shape).unwrap()
    }

    /// Fake-quant spec equivalent to the engine's per-tensor symmetric
    /// grid: the engine uses `s = max_abs/qmax`, the fake quantizer uses
    /// `step = range/2^(b-1)`, so `range = s·2^(b-1)` aligns the grids.
    fn matching_spec(w: &Tensor, bits: u32) -> (QuantSpec, f32) {
        let mx = qkernel::max_abs(w.value().data());
        let s = qkernel::scale_for(mx, bits);
        let range = s * (1i32 << (bits - 1)) as f32;
        (
            QuantSpec {
                bits,
                range: Some(range),
            },
            s,
        )
    }

    /// A bias-free `[out_c, in_c, k, k]` convolution source over `w`.
    fn plain_source(w: &[f32], out_c: usize, in_c: usize, k: usize) -> QConvSource<'_> {
        QConvSource {
            w,
            out_channels: out_c,
            in_channels: in_c,
            kernel: k,
            stride: 1,
            padding: k / 2,
            bias: None,
            bn: None,
        }
    }

    #[test]
    fn qconv_matches_fake_quant_oracle_within_rounding() {
        let mut rng = StdRng::seed_from_u64(41);
        for bits in [4u32, 8] {
            let conv = Conv2d::new(3, 8, 3, 1, 1, true, &mut rng);
            let in_scale = 0.02f32;
            let x = on_grid_input(&[2, 3, 8, 8], in_scale, &mut rng);
            // Per-tensor fake-quant oracle (per-channel only tightens the
            // engine, so the per-tensor bound still holds).
            let (spec, _) = matching_spec(conv.weight(), bits);
            let oracle = conv
                .forward_quantized(&Tensor::constant(x.clone()), Some(spec))
                .unwrap();
            let out_range = qkernel::max_abs(oracle.value().data());
            let out_scale = qkernel::scale_for(out_range, 8);
            let q = per_tensor_qconv(&conv, bits, in_scale, out_scale);
            let got = q.forward(&QTensor::quantize(&x, in_scale)).unwrap();
            let got = got.dequantize();
            for (g, o) in got.data().iter().zip(oracle.value().data()) {
                assert!(
                    (g - o).abs() <= out_scale * 0.51 + 1e-5,
                    "bits={bits}: got {g}, oracle {o}, step {out_scale}"
                );
            }
        }
    }

    /// A `QConv2d` with one per-tensor weight scale (instead of the
    /// engine's per-channel ones), so its grid matches the per-tensor
    /// fake-quant oracle exactly.
    fn per_tensor_qconv(conv: &Conv2d, bits: u32, in_scale: f32, out_scale: f32) -> QConv2d {
        let w = conv.weight().value();
        let shape = w.shape().to_vec();
        let bias = conv.bias().map(|b| b.value().data().to_vec());
        let mut spec = QConvSpec::quantize(
            &QConvSource {
                bias: bias.as_deref(),
                ..plain_source(w.data(), shape[0], shape[1], shape[2])
            },
            bits,
            in_scale,
            out_scale,
            false,
            false,
        );
        let qm = qkernel::qmax(bits);
        let s = qkernel::scale_for(qkernel::max_abs(w.data()), bits);
        let mut qw = vec![0i8; w.len()];
        quantize_i8_into(&mut qw, w.data(), s, qm);
        spec.weights = QWeights::new(qw, bits);
        spec.requant = (0..shape[0])
            .map(|_| Requant::from_scale(f64::from(in_scale) * f64::from(s) / f64::from(out_scale)))
            .collect();
        spec.bias_q = bias.map_or_else(
            || vec![0i32; shape[0]],
            |b| {
                b.iter()
                    .map(|&v| (f64::from(v) / (f64::from(in_scale) * f64::from(s))).round() as i32)
                    .collect()
            },
        );
        QConv2d::from_spec(spec)
    }

    #[test]
    fn qconv_bn_fold_matches_float_pipeline() {
        let mut rng = StdRng::seed_from_u64(43);
        let conv = Conv2d::same(4, 6, 3, 1, &mut rng);
        let bn = BatchNorm2d::new(6);
        // Push the BN away from identity with a few training steps.
        let warm = Tensor::constant(Array::randn(&[4, 6, 5, 5], 1.0, &mut rng));
        for _ in 0..5 {
            bn.forward(&warm).unwrap();
        }
        bn.set_training(false);
        let in_scale = 0.02;
        let x = on_grid_input(&[1, 4, 6, 6], in_scale, &mut rng);
        let float = bn
            .forward(&conv.forward(&Tensor::constant(x.clone())).unwrap())
            .unwrap();
        let out_range = qkernel::max_abs(float.value().data());
        let out_scale = qkernel::scale_for(out_range, 8);
        let w = conv.weight().value();
        let (mul, add) = bn_fold_factors(&bn);
        let q = QConv2d::from_spec(QConvSpec::quantize(
            &QConvSource {
                bn: Some((&mul, &add)),
                ..plain_source(w.data(), 6, 4, 3)
            },
            8,
            in_scale,
            out_scale,
            false,
            false,
        ));
        let got = q
            .forward(&QTensor::quantize(&x, in_scale))
            .unwrap()
            .dequantize();
        // 8-bit weights + 8-bit activations: within a few output steps.
        for (g, f) in got.data().iter().zip(float.value().data()) {
            assert!(
                (g - f).abs() <= out_scale * 2.0 + 5e-3,
                "got {g}, float {f}, step {out_scale}"
            );
        }
    }

    #[test]
    fn qdwconv_matches_float_within_steps() {
        let mut rng = StdRng::seed_from_u64(44);
        let dw = DwConv2d::same(5, 3, 1, &mut rng);
        let in_scale = 0.03;
        let x = on_grid_input(&[2, 5, 7, 7], in_scale, &mut rng);
        let float = dw.forward(&Tensor::constant(x.clone())).unwrap().relu6();
        let out_scale = qkernel::scale_for(qkernel::max_abs(float.value().data()), 8);
        let w = dw.weight().value();
        let q = QDwConv2d::from_spec(QDwConvSpec::quantize(
            &QDwConvSource {
                w: w.data(),
                channels: 5,
                kernel: 3,
                stride: 1,
                padding: 1,
                bias: None,
                bn: None,
            },
            8,
            in_scale,
            out_scale,
            true,
        ));
        let got = q
            .forward(&QTensor::quantize(&x, in_scale))
            .unwrap()
            .dequantize();
        for (g, f) in got.data().iter().zip(float.value().data()) {
            assert!(
                (g - f).abs() <= out_scale * 2.0 + 5e-3,
                "got {g}, float {f}, step {out_scale}"
            );
        }
    }

    #[test]
    fn qlinear_dequantizes_to_float_logits() {
        let mut rng = StdRng::seed_from_u64(45);
        let lin = Linear::new(12, 4, &mut rng);
        let in_scale = 0.01;
        let x = on_grid_input(&[3, 12], in_scale, &mut rng);
        let float = lin.forward(&Tensor::constant(x.clone())).unwrap();
        let q = QLinear::from_spec(QLinearSpec::quantize(
            lin.weight().value().data(),
            12,
            4,
            lin.bias().value().data(),
            8,
            in_scale,
        ));
        let got = q.forward(&QTensor::quantize(&x, in_scale)).unwrap();
        for (g, f) in got.data().iter().zip(float.value().data()) {
            assert!((g - f).abs() <= 0.02, "got {g}, float {f}");
        }
    }

    #[test]
    fn int4_weights_halve_storage() {
        let mut rng = StdRng::seed_from_u64(46);
        let w: Vec<f32> = (0..8 * 8 * 9).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bytes = |bits| {
            QConvSpec::quantize(&plain_source(&w, 8, 8, 3), bits, 0.02, 0.02, false, false)
                .weights
                .storage_bytes()
        };
        assert_eq!(bytes(8), 8 * 8 * 9);
        assert_eq!(bytes(4), 8 * 8 * 9 / 2);
    }

    #[test]
    fn qadd_tables_match_requant_apply_on_every_pair() {
        // Ratios below and above one, and one large enough that `apply`
        // saturates to the i32 range (the table sum must saturate too).
        let rqs = [
            None,
            Some(Requant::from_scale(0.37)),
            Some(Requant::from_scale(2.9)),
            Some(Requant::from_scale(2f64.powi(40))),
        ];
        let term = |rq: Option<Requant>, v: i8| rq.map_or(i32::from(v), |rq| rq.apply(v.into()));
        let all: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        for rq_a in rqs {
            for rq_b in rqs {
                let add = QAddTables::new(rq_a, rq_b);
                for &va in &all {
                    let mut a = vec![va; all.len()];
                    add.add_assign(&mut a, &all);
                    for (&got, &vb) in a.iter().zip(&all) {
                        let want = (i64::from(term(rq_a, va)) + i64::from(term(rq_b, vb)))
                            .clamp(-127, 127);
                        assert_eq!(i64::from(got), want, "{rq_a:?} {rq_b:?} a={va} b={vb}");
                    }
                }
            }
        }
    }

    #[test]
    fn global_avg_pool_averages_on_same_scale() {
        let x = QTensor {
            data: vec![10, 20, 30, 40, -10, -20, -30, -40],
            shape: vec![1, 2, 2, 2],
            scale: 0.1,
        };
        let y = q_global_avg_pool(&x).unwrap();
        assert_eq!(y.shape, vec![1, 2]);
        assert_eq!(y.data, vec![25, -25]);
        assert_eq!(y.scale, 0.1);
    }

    #[test]
    fn scale_mismatch_is_rejected() {
        let w = vec![0.1f32; 2 * 2 * 9];
        let q = QConv2d::from_spec(QConvSpec::quantize(
            &plain_source(&w, 2, 2, 3),
            8,
            0.02,
            0.02,
            false,
            false,
        ));
        let x = QTensor {
            data: vec![0; 2 * 4 * 4],
            shape: vec![1, 2, 4, 4],
            scale: 0.5,
        };
        assert!(q.forward(&x).is_err());
    }
}
