//! Dense row-major `f32` array storage and the non-differentiable math used
//! by the autodiff layer: elementwise ops with NumPy broadcasting, matrix
//! multiplication, reductions, and `im2col`/`col2im` convolution helpers.

use crate::error::{Result, TensorError};
use crate::kernel;
use crate::shape::{broadcast_shapes, dim_right, num_elements, row_major_strides};
use rand::Rng;

/// A dense, row-major, heap-allocated `f32` tensor value.
///
/// `Array` is the plain-value layer beneath [`crate::Tensor`]: it has no
/// gradient tracking and all operations are eager. The empty shape `[]`
/// denotes a scalar holding exactly one element.
///
/// # Examples
///
/// ```
/// use edd_tensor::Array;
/// let a = Array::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = Array::full(&[2, 2], 10.0);
/// let c = a.add(&b).unwrap();
/// assert_eq!(c.data(), &[11.0, 12.0, 13.0, 14.0]);
/// ```
#[derive(Debug, PartialEq)]
pub struct Array {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// Storage comes from and returns to the thread-local recycling pool
/// ([`crate::recycle`]): cloning takes a pooled buffer instead of a fresh
/// allocation, and dropping parks the buffer for the next same-length
/// request. This is what makes steady-state training steps allocation-free.
impl Clone for Array {
    fn clone(&self) -> Self {
        let mut data = crate::recycle::take(self.data.len());
        data.copy_from_slice(&self.data);
        Array {
            shape: self.shape.clone(),
            data,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.shape.clone_from(&source.shape);
        if self.data.len() == source.data.len() {
            self.data.copy_from_slice(&source.data);
        } else {
            crate::recycle::give(std::mem::replace(
                &mut self.data,
                crate::recycle::take(source.data.len()),
            ));
            self.data.copy_from_slice(&source.data);
        }
    }
}

impl Drop for Array {
    fn drop(&mut self) {
        crate::recycle::give(std::mem::take(&mut self.data));
    }
}

/// Errors unless `len` elements fill `shape` exactly.
fn check_volume(len: usize, shape: &[usize]) -> Result<()> {
    if len != num_elements(shape) {
        return Err(TensorError::InvalidShape {
            shape: shape.to_vec(),
            reason: format!(
                "data length {len} does not match shape volume {}",
                num_elements(shape)
            ),
        });
    }
    Ok(())
}

impl Array {
    /// Creates an array of `shape` filled with zeros.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Array {
            shape: shape.to_vec(),
            data: crate::recycle::take_zeroed(num_elements(shape)),
        }
    }

    /// Creates an array of `shape` with unspecified contents (a recycled
    /// buffer when one is parked). Every caller must overwrite every
    /// element before the array is read.
    #[must_use]
    pub(crate) fn uninit(shape: &[usize]) -> Self {
        Array {
            shape: shape.to_vec(),
            data: crate::recycle::take(num_elements(shape)),
        }
    }

    /// Creates an array of `shape` filled with ones.
    #[must_use]
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates an array of `shape` filled with `value`.
    #[must_use]
    pub fn full(shape: &[usize], value: f32) -> Self {
        let mut data = crate::recycle::take(num_elements(shape));
        data.fill(value);
        Array {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a scalar (rank-0) array.
    #[must_use]
    pub fn scalar(value: f32) -> Self {
        Array {
            shape: vec![],
            data: vec![value],
        }
    }

    /// Creates an array from a flat `data` vector and a `shape`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if `data.len()` does not equal
    /// the number of elements implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        check_volume(data.len(), shape)?;
        Ok(Array {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Creates an array holding a copy of `data`, in a buffer taken from
    /// the recycling pool.
    ///
    /// This is how borrowed request data (an image batch handed to an
    /// engine) should enter an `Array`: the array's `Drop` parks its
    /// buffer in the pool, so the buffer must have come from there too.
    /// Wrapping a freshly allocated vector with [`from_vec`] instead parks
    /// one buffer per call that the pool never handed out, so a caller
    /// that does this per request grows the pool by one buffer per request
    /// until the per-thread cap.
    ///
    /// [`from_vec`]: Self::from_vec
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if `data.len()` does not equal
    /// the number of elements implied by `shape`.
    pub fn from_slice(data: &[f32], shape: &[usize]) -> Result<Self> {
        check_volume(data.len(), shape)?;
        let mut array = Self::uninit(shape);
        array.data.copy_from_slice(data);
        Ok(array)
    }

    /// Creates an array with entries drawn from `N(0, std^2)` using `rng`.
    #[must_use]
    pub fn randn<R: Rng + ?Sized>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let n = num_elements(shape);
        let mut data = Vec::with_capacity(n);
        // Box-Muller transform: two uniforms -> two independent normals.
        let mut i = 0;
        while i < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            i += 1;
            if i < n {
                data.push(r * theta.sin() * std);
                i += 1;
            }
        }
        Array {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates an array with entries drawn uniformly from `[lo, hi)`.
    #[must_use]
    pub fn rand_uniform<R: Rng + ?Sized>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let n = num_elements(shape);
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Array {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape of the array.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major data.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the array, returning the flat data vector.
    #[must_use]
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Returns the single element of a scalar or 1-element array.
    ///
    /// # Panics
    ///
    /// Panics if the array has more than one element.
    #[must_use]
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on array with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Reinterprets the array with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] when volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Array> {
        if num_elements(shape) != self.data.len() {
            return Err(TensorError::InvalidShape {
                shape: shape.to_vec(),
                reason: format!("cannot reshape {} elements", self.data.len()),
            });
        }
        let mut data = crate::recycle::take(self.data.len());
        data.copy_from_slice(&self.data);
        Ok(Array {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Applies `f` elementwise, producing a new array. Large arrays are
    /// chunked over the worker pool (bitwise identical for any count).
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Array {
        Array {
            shape: self.shape.clone(),
            data: kernel::par_map_vec(&self.data, f),
        }
    }

    /// Applies `f` elementwise in place, chunked over the worker pool.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        kernel::par_map_inplace(&mut self.data, f);
    }

    /// Fused same-shape binary map `out[i] = f(self[i], other[i])`: one
    /// pass, one allocation, pool-chunked. The backend for the elementwise
    /// gradient paths (`g * f'(x)` in a single traversal).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ (internal hot path; shapes are guaranteed
    /// by the callers).
    #[must_use]
    pub fn zip_same(&self, other: &Array, f: impl Fn(f32, f32) -> f32 + Sync) -> Array {
        assert_eq!(self.shape, other.shape, "zip_same requires equal shapes");
        Array {
            shape: self.shape.clone(),
            data: kernel::par_zip_vec(&self.data, &other.data, f),
        }
    }

    /// Elementwise binary operation with NumPy-style broadcasting.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes do not broadcast.
    pub fn zip_broadcast(
        &self,
        other: &Array,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<Array> {
        // Fast path: identical shapes (pool-chunked for large arrays).
        if self.shape == other.shape {
            return Ok(self.zip_same(other, f));
        }
        // Fast path: rhs scalar.
        if other.data.len() == 1 {
            let b = other.data[0];
            return Ok(self.map(|a| f(a, b)));
        }
        // Fast path: lhs scalar.
        if self.data.len() == 1 {
            let a = self.data[0];
            return Ok(other.map(|b| f(a, b)));
        }
        // Fast path: rank-1 rhs broadcast along the last axis (the bias-add
        // pattern `[m, n] + [n]`), avoiding the odometer loop below.
        if other.shape.len() == 1
            && other.shape[0] > 0
            && self.shape.last() == Some(&other.shape[0])
        {
            let n = other.shape[0];
            let mut data = crate::recycle::take(self.data.len());
            for (drow, row) in data.chunks_exact_mut(n).zip(self.data.chunks_exact(n)) {
                for ((d, &a), &b) in drow.iter_mut().zip(row).zip(&other.data) {
                    *d = f(a, b);
                }
            }
            return Ok(Array {
                shape: self.shape.clone(),
                data,
            });
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape, op)?;
        let rank = out_shape.len();
        let out_strides = row_major_strides(&out_shape);
        // Every flat index 0..n is written exactly once by the odometer loop.
        let mut out = Array::uninit(&out_shape);
        // Precompute per-axis effective strides (0 when broadcast).
        let lhs_strides = broadcast_strides(&self.shape, rank);
        let rhs_strides = broadcast_strides(&other.shape, rank);
        let n = out.data.len();
        let mut idx = vec![0usize; rank];
        let mut li = 0usize;
        let mut ri = 0usize;
        for flat in 0..n {
            out.data[flat] = f(self.data[li], other.data[ri]);
            // Increment the multi-index (odometer) and the two offsets.
            for ax in (0..rank).rev() {
                idx[ax] += 1;
                li += lhs_strides[ax];
                ri += rhs_strides[ax];
                if idx[ax] < out_shape[ax] {
                    break;
                }
                idx[ax] = 0;
                li -= lhs_strides[ax] * out_shape[ax];
                ri -= rhs_strides[ax] * out_shape[ax];
            }
        }
        let _ = out_strides;
        Ok(out)
    }

    /// Elementwise addition with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes do not broadcast.
    pub fn add(&self, other: &Array) -> Result<Array> {
        self.zip_broadcast(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes do not broadcast.
    pub fn sub(&self, other: &Array) -> Result<Array> {
        self.zip_broadcast(other, "sub", |a, b| a - b)
    }

    /// Elementwise multiplication with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes do not broadcast.
    pub fn mul(&self, other: &Array) -> Result<Array> {
        self.zip_broadcast(other, "mul", |a, b| a * b)
    }

    /// Elementwise division with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes do not broadcast.
    pub fn div(&self, other: &Array) -> Result<Array> {
        self.zip_broadcast(other, "div", |a, b| a / b)
    }

    /// Adds `other * scale` into `self` elementwise (shapes must match).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ; this is an internal hot path used by the
    /// autodiff engine where shapes are guaranteed equal.
    pub fn add_scaled_assign(&mut self, other: &Array, scale: f32) {
        assert_eq!(
            self.shape, other.shape,
            "add_scaled_assign requires equal shapes"
        );
        kernel::par_update2(&mut self.data, &other.data, |a, b| *a += b * scale);
    }

    /// Sums all elements with the kernel layer's fixed-association
    /// parallel reduction (bitwise identical for any thread count).
    #[must_use]
    pub fn sum(&self) -> f32 {
        kernel::par_sum(&self.data)
    }

    /// Mean over all elements (0 for empty arrays).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element. Returns `f32::NEG_INFINITY` for empty arrays.
    #[must_use]
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element. Returns `f32::INFINITY` for empty arrays.
    #[must_use]
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the maximum element (first occurrence). `None` when empty.
    #[must_use]
    pub fn argmax(&self) -> Option<usize> {
        if self.data.is_empty() {
            return None;
        }
        let mut best = 0;
        for (i, &v) in self.data.iter().enumerate() {
            if v > self.data[best] {
                best = i;
            }
        }
        Some(best)
    }

    /// Sums over `axis`, removing it from the shape.
    ///
    /// # Errors
    ///
    /// Returns an error when `axis` is out of range.
    pub fn sum_axis(&self, axis: usize) -> Result<Array> {
        crate::shape::check_axis(axis, self.shape.len())?;
        let mut out_shape = self.shape.clone();
        let axis_len = out_shape.remove(axis);
        let inner: usize = self.shape[axis + 1..].iter().product();
        let outer: usize = self.shape[..axis].iter().product();
        let mut out = Array::zeros(&out_shape);
        for o in 0..outer {
            for a in 0..axis_len {
                let src_base = (o * axis_len + a) * inner;
                let dst_base = o * inner;
                for i in 0..inner {
                    out.data[dst_base + i] += self.data[src_base + i];
                }
            }
        }
        Ok(out)
    }

    /// Owned [`Array::reduce_to`]: when the shape already matches `target`
    /// the array is returned as-is, with no copy — the backward closures
    /// pass their (moved) output gradient through here, so the common
    /// non-broadcast case is free.
    ///
    /// # Errors
    ///
    /// Returns an error when `target` is not broadcast-compatible with the
    /// current shape.
    pub fn reduce_to_owned(self, target: &[usize]) -> Result<Array> {
        if self.shape == target {
            return Ok(self);
        }
        self.reduce_to(target)
    }

    /// Reduces this array (by summation) to `target` shape, inverting a
    /// broadcast: axes that were expanded are summed back down.
    ///
    /// Used by the autodiff engine to reduce output gradients back to the
    /// operand shapes of broadcast binary ops.
    ///
    /// # Errors
    ///
    /// Returns an error when `target` is not broadcast-compatible with the
    /// current shape.
    pub fn reduce_to(&self, target: &[usize]) -> Result<Array> {
        if self.shape == target {
            return Ok(self.clone());
        }
        // Validate compatibility.
        let bshape = broadcast_shapes(&self.shape, target, "reduce_to")?;
        if bshape != self.shape {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: target.to_vec(),
                op: "reduce_to",
            });
        }
        let rank = self.shape.len();
        let mut cur = self.clone();
        // Sum leading extra axes.
        let extra = rank - target.len();
        for _ in 0..extra {
            cur = cur.sum_axis(0)?;
        }
        // Sum axes where target dim is 1 but current dim is larger.
        #[allow(clippy::needless_range_loop)] // lockstep multi-array indexing
        for ax in 0..target.len() {
            if target[ax] == 1 && cur.shape[ax] != 1 {
                let mut summed = cur.sum_axis(ax)?;
                // Re-insert the singleton axis.
                let mut s = summed.shape.clone();
                s.insert(ax, 1);
                summed.shape = s;
                cur = summed;
            }
        }
        debug_assert_eq!(cur.shape, target);
        Ok(cur)
    }

    /// Validates rank-2 operands whose dimension `self.shape[ai]` must
    /// equal `other.shape[bi]` (the contraction axes of a GEMM variant).
    fn gemm_dims(&self, other: &Array, ai: usize, bi: usize, op: &'static str) -> Result<()> {
        if self.shape.len() != 2 || other.shape.len() != 2 {
            return Err(TensorError::InvalidShape {
                shape: if self.shape.len() != 2 {
                    self.shape.clone()
                } else {
                    other.shape.clone()
                },
                reason: format!("{op} requires rank-2 operands"),
            });
        }
        if self.shape[ai] != other.shape[bi] {
            return Err(TensorError::ShapeMismatch {
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
                op,
            });
        }
        Ok(())
    }

    /// 2-D matrix multiplication: `[m, k] x [k, n] -> [m, n]`.
    ///
    /// Runs on the blocked, register-tiled kernel layer ([`crate::kernel`]);
    /// large products are threaded over output row blocks with bitwise
    /// thread-count-independent results.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching inner
    /// dimensions.
    pub fn matmul(&self, other: &Array) -> Result<Array> {
        self.gemm_dims(other, 1, 0, "matmul")?;
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        // `gemm_block_select_body` overwrites every output element (and
        // zero-fills when k == 0), so an uninitialized pooled buffer is
        // safe here.
        let mut out = Array::uninit(&[m, n]);
        crate::kernel::matmul_into(&mut out.data, &self.data, &other.data, m, k, n);
        Ok(out)
    }

    /// Reference scalar matrix multiplication (the unblocked i-k-j loop),
    /// kept as the oracle the optimized [`Array::matmul`] path is tested
    /// against.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching inner
    /// dimensions.
    pub fn matmul_naive(&self, other: &Array) -> Result<Array> {
        self.gemm_dims(other, 1, 0, "matmul")?;
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let data = crate::kernel::matmul_naive(&self.data, &other.data, m, k, n);
        Ok(Array {
            shape: vec![m, n],
            data,
        })
    }

    /// Transpose-free `selfᵀ · other`: `[k, m]ᵀ x [k, n] -> [m, n]`.
    ///
    /// Equivalent to `self.transpose2d()?.matmul(other)` without
    /// materializing the transpose; used by backward passes.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// leading dimensions.
    pub fn matmul_at_b(&self, other: &Array) -> Result<Array> {
        self.gemm_dims(other, 0, 0, "matmul_at_b")?;
        let (k, m) = (self.shape[0], self.shape[1]);
        let n = other.shape[1];
        let mut out = Array::uninit(&[m, n]);
        crate::kernel::matmul_at_b_into(&mut out.data, &self.data, &other.data, k, m, n);
        Ok(out)
    }

    /// Transpose-free `self · otherᵀ`: `[m, k] x [n, k]ᵀ -> [m, n]`.
    ///
    /// Equivalent to `self.matmul(&other.transpose2d()?)` without
    /// materializing the transpose; used by backward passes.
    ///
    /// # Errors
    ///
    /// Returns an error unless both operands are rank-2 with matching
    /// trailing dimensions.
    pub fn matmul_a_bt(&self, other: &Array) -> Result<Array> {
        self.gemm_dims(other, 1, 1, "matmul_a_bt")?;
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = other.shape[0];
        let mut out = Array::uninit(&[m, n]);
        crate::kernel::matmul_a_bt_into(&mut out.data, &self.data, &other.data, m, k, n);
        Ok(out)
    }

    /// Transpose of a rank-2 array.
    ///
    /// # Errors
    ///
    /// Returns an error when the array is not rank-2.
    pub fn transpose2d(&self) -> Result<Array> {
        if self.shape.len() != 2 {
            return Err(TensorError::InvalidShape {
                shape: self.shape.clone(),
                reason: "transpose2d requires rank-2".into(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = Array::uninit(&[n, m]);
        for i in 0..m {
            for j in 0..n {
                out.data[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(out)
    }
}

impl std::fmt::Display for Array {
    /// Compact human-readable rendering: shape header plus up to eight
    /// leading elements (`Array[2, 3] [1.0, 2.0, ...]`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Array{:?} [", self.shape)?;
        const LIMIT: usize = 8;
        for (i, v) in self.data.iter().take(LIMIT).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if self.data.len() > LIMIT {
            write!(f, ", ...")?;
        }
        write!(f, "]")
    }
}

/// Per-output-axis element strides for an operand of `shape` participating
/// in a broadcast to rank `rank`; broadcast axes get stride 0.
fn broadcast_strides(shape: &[usize], rank: usize) -> Vec<usize> {
    let own = row_major_strides(shape);
    let mut out = vec![0usize; rank];
    for k in 0..rank {
        // k counts axes from the right.
        let d = dim_right(shape, k);
        if d != 1 {
            out[rank - 1 - k] = own[shape.len() - 1 - k];
        }
    }
    out
}

/// Parameters of a 2-D convolution lowering.
///
/// Used by [`im2col`]/[`col2im`] and by the convolution ops in the autodiff
/// layer. All fields are public plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output height for this geometry.
    #[must_use]
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width for this geometry.
    #[must_use]
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }
}

/// Lowers one image `[c, h, w]` (flat slice) into a column matrix
/// `[c*k*k, out_h*out_w]` for GEMM-based convolution.
///
/// `input` must have length `c * h * w` per `geom`.
#[must_use]
pub fn im2col(input: &[f32], geom: &Conv2dGeometry) -> Array {
    let (c, k) = (geom.in_channels, geom.kernel);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let mut out = Array::zeros(&[c * k * k, oh * ow]);
    im2col_into(&mut out.data, input, geom);
    out
}

/// Allocation-free [`im2col`]: lowers one image into a caller-provided
/// column buffer of length `c*k*k * out_h*out_w` (overwritten). Reusing one
/// buffer across a batch is what keeps the threaded convolution paths free
/// of per-image allocations.
///
/// # Panics
///
/// Panics if `out` or `input` have the wrong length for `geom`.
pub fn im2col_into(out: &mut [f32], input: &[f32], geom: &Conv2dGeometry) {
    let (c, k) = (geom.in_channels, geom.kernel);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let rows = c * k * k;
    let cols = oh * ow;
    assert_eq!(out.len(), rows * cols, "im2col_into: bad out length");
    assert_eq!(
        input.len(),
        c * geom.in_h * geom.in_w,
        "im2col_into: bad input length"
    );
    let (ih, iw) = (geom.in_h, geom.in_w);
    let (pad, stride) = (geom.padding, geom.stride);
    for row in 0..rows {
        let ch = row / (k * k);
        let ky = (row / k) % k;
        let kx = row % k;
        // Valid output columns/rows for this kernel tap; everything outside
        // samples padding. Each destination element is written exactly once
        // (zeros for the padded region), so no upfront fill is needed.
        let (oy0, oy1) = crate::kernel::valid_out_range(ky, pad, stride, ih, oh);
        let (ox0, ox1) = crate::kernel::valid_out_range(kx, pad, stride, iw, ow);
        let dst = &mut out[row * cols..(row + 1) * cols];
        if ox0 >= ox1 {
            // The tap reads only padding (a plane narrower than its
            // padding): no source column exists, so `sx0` would underflow.
            dst.fill(0.0);
            continue;
        }
        let sx0 = ox0 * stride + kx - pad;
        let src_c = &input[ch * ih * iw..(ch + 1) * ih * iw];
        dst[..oy0 * ow].fill(0.0);
        dst[oy1 * ow..].fill(0.0);
        for oy in oy0..oy1 {
            let sy = oy * stride + ky - pad;
            let src_row = &src_c[sy * iw..(sy + 1) * iw];
            let dst_row = &mut dst[oy * ow..(oy + 1) * ow];
            dst_row[..ox0].fill(0.0);
            dst_row[ox1..].fill(0.0);
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

/// Inverse of [`im2col`]: scatters a column-matrix gradient
/// `[c*k*k, out_h*out_w]` back onto an image gradient `[c, h, w]`
/// (accumulating overlapping contributions) written into `out`.
///
/// # Panics
///
/// Panics if `cols` or `out` have inconsistent lengths for `geom`.
pub fn col2im(cols: &Array, geom: &Conv2dGeometry, out: &mut [f32]) {
    let (c, k) = (geom.in_channels, geom.kernel);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    assert_eq!(
        cols.shape(),
        &[c * k * k, oh * ow],
        "col2im: bad cols shape"
    );
    col2im_into(cols.data(), geom, out);
}

/// Slice-based [`col2im`]: scatters a flat column-matrix gradient
/// (`c*k*k * out_h*out_w` elements) back onto an image gradient,
/// accumulating into `out`. Lets the threaded convolution backward reuse
/// one `dcols` buffer per worker instead of allocating per image.
///
/// # Panics
///
/// Panics if `cols` or `out` have inconsistent lengths for `geom`.
pub fn col2im_into(cols: &[f32], geom: &Conv2dGeometry, out: &mut [f32]) {
    let (c, k) = (geom.in_channels, geom.kernel);
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let rows = c * k * k;
    assert_eq!(cols.len(), rows * oh * ow, "col2im_into: bad cols length");
    assert_eq!(
        out.len(),
        c * geom.in_h * geom.in_w,
        "col2im_into: bad out length"
    );
    let (ih, iw) = (geom.in_h, geom.in_w);
    let (pad, stride) = (geom.padding, geom.stride);
    for row in 0..rows {
        let ch = row / (k * k);
        let ky = (row / k) % k;
        let kx = row % k;
        // Contributions outside the valid ranges land in padding and are
        // dropped; inside them the scatter is accumulated in the same
        // ascending (oy, ox) order as the branchy loop it replaces, so
        // results stay bitwise identical.
        let (oy0, oy1) = crate::kernel::valid_out_range(ky, pad, stride, ih, oh);
        let (ox0, ox1) = crate::kernel::valid_out_range(kx, pad, stride, iw, ow);
        if ox0 >= ox1 {
            // Every contribution of this tap lands in padding.
            continue;
        }
        let sx0 = ox0 * stride + kx - pad;
        let src = &cols[row * oh * ow..(row + 1) * oh * ow];
        let dst_c = &mut out[ch * ih * iw..(ch + 1) * ih * iw];
        for oy in oy0..oy1 {
            let sy = oy * stride + ky - pad;
            let src_row = &src[oy * ow..(oy + 1) * ow];
            let dst_row = &mut dst_c[sy * iw..(sy + 1) * iw];
            if stride == 1 {
                for (d, s) in dst_row[sx0..sx0 + (ox1 - ox0)]
                    .iter_mut()
                    .zip(&src_row[ox0..ox1])
                {
                    *d += s;
                }
            } else {
                for (i, s) in src_row[ox0..ox1].iter().enumerate() {
                    dst_row[sx0 + i * stride] += s;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn display_truncates_long_arrays() {
        let a = Array::from_vec((0..3).map(|v| v as f32).collect(), &[3]).unwrap();
        assert_eq!(a.to_string(), "Array[3] [0, 1, 2]");
        let long = Array::zeros(&[20]);
        let s = long.to_string();
        assert!(s.contains("..."));
        assert!(s.starts_with("Array[20]"));
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Array::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Array::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Array::full(&[2], 7.5).data(), &[7.5, 7.5]);
    }

    #[test]
    fn scalar_roundtrip() {
        let s = Array::scalar(3.25);
        assert_eq!(s.shape(), &[] as &[usize]);
        assert_eq!(s.item(), 3.25);
    }

    #[test]
    fn from_vec_validates_len() {
        assert!(Array::from_vec(vec![1.0, 2.0], &[3]).is_err());
        assert!(Array::from_vec(vec![1.0, 2.0, 3.0], &[3]).is_ok());
    }

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(42);
        let a = Array::randn(&[10_000], 1.0, &mut rng);
        let mean = a.mean();
        let var = a
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn rand_uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Array::rand_uniform(&[1000], -2.0, 3.0, &mut rng);
        assert!(a.min() >= -2.0 && a.max() < 3.0);
    }

    #[test]
    fn add_same_shape() {
        let a = Array::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Array::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0]);
    }

    #[test]
    fn add_broadcast_bias() {
        // [2,3] + [3]
        let a = Array::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let b = Array::from_vec(vec![10.0, 20.0, 30.0], &[3]).unwrap();
        let c = a.add(&b).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[10.0, 21.0, 32.0, 13.0, 24.0, 35.0]);
    }

    #[test]
    fn mul_broadcast_channel_scale() {
        // [2,2,2] * [2,1,1] scales per leading channel.
        let a = Array::ones(&[2, 2, 2]);
        let s = Array::from_vec(vec![2.0, 3.0], &[2, 1, 1]).unwrap();
        let c = a.mul(&s).unwrap();
        assert_eq!(c.data(), &[2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn broadcast_mismatch() {
        let a = Array::ones(&[2, 3]);
        let b = Array::ones(&[4]);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn sum_axis_middle() {
        let a = Array::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]).unwrap();
        let s = a.sum_axis(1).unwrap();
        assert_eq!(s.shape(), &[2, 4]);
        // element [0,0] = a[0,0,0]+a[0,1,0]+a[0,2,0] = 0+4+8
        assert_eq!(s.data()[0], 12.0);
        assert_eq!(s.sum(), a.sum());
    }

    #[test]
    fn reduce_to_inverts_broadcast() {
        let g = Array::ones(&[2, 3]);
        let r = g.reduce_to(&[3]).unwrap();
        assert_eq!(r.shape(), &[3]);
        assert_eq!(r.data(), &[2.0, 2.0, 2.0]);
        let r2 = g.reduce_to(&[]).unwrap();
        assert_eq!(r2.item(), 6.0);
        let r3 = g.reduce_to(&[2, 1]).unwrap();
        assert_eq!(r3.shape(), &[2, 1]);
        assert_eq!(r3.data(), &[3.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Array::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Array::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Array::ones(&[2, 3]);
        let b = Array::ones(&[2, 3]);
        assert!(a.matmul(&b).is_err());
        let v = Array::ones(&[3]);
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Array::from_vec((0..6).map(|v| v as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose2d().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.transpose2d().unwrap(), a);
    }

    #[test]
    fn argmax_first_max() {
        let a = Array::from_vec(vec![1.0, 5.0, 5.0, 2.0], &[4]).unwrap();
        assert_eq!(a.argmax(), Some(1));
        assert_eq!(Array::zeros(&[0]).argmax(), None);
    }

    #[test]
    fn im2col_identity_kernel1() {
        // k=1, s=1, p=0: im2col is the identity mapping [c, h*w].
        let geom = Conv2dGeometry {
            in_channels: 2,
            in_h: 2,
            in_w: 2,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let input: Vec<f32> = (0..8).map(|v| v as f32).collect();
        let cols = im2col(&input, &geom);
        assert_eq!(cols.shape(), &[2, 4]);
        assert_eq!(cols.data(), input.as_slice());
    }

    #[test]
    fn im2col_padding_zeroes_border() {
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let cols = im2col(&input, &geom);
        assert_eq!(cols.shape(), &[9, 4]);
        // Center tap (row 4 = ky=1,kx=1) equals the input itself.
        assert_eq!(&cols.data()[4 * 4..5 * 4], input.as_slice());
        // Top-left tap at output (0,0) looks at input (-1,-1) -> 0.
        assert_eq!(cols.data()[0], 0.0);
    }

    #[test]
    fn conv_geometry_output_dims() {
        let g = Conv2dGeometry {
            in_channels: 3,
            in_h: 32,
            in_w: 32,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(g.out_h(), 16);
        assert_eq!(g.out_w(), 16);
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.
        let geom = Conv2dGeometry {
            in_channels: 2,
            in_h: 4,
            in_w: 4,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let x = Array::randn(&[2 * 4 * 4], 1.0, &mut rng);
        let cols = im2col(x.data(), &geom);
        let y = Array::randn(cols.shape(), 1.0, &mut rng);
        let lhs: f32 = cols.data().iter().zip(y.data()).map(|(&a, &b)| a * b).sum();
        let mut xgrad = vec![0.0; x.len()];
        col2im(&y, &geom, &mut xgrad);
        let rhs: f32 = x.data().iter().zip(&xgrad).map(|(&a, &b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "lhs {lhs} rhs {rhs}");
    }
}
