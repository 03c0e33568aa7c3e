//! # edd-tensor
//!
//! A from-scratch reverse-mode automatic-differentiation tensor engine,
//! built as the training substrate for the EDD (Efficient Differentiable
//! DNN architecture and implementation co-search, DAC 2020) reproduction.
//!
//! The crate provides:
//!
//! * [`Array`] — dense row-major `f32` storage with NumPy-style broadcasting,
//!   GEMM, and `im2col`/`col2im` convolution lowering;
//! * [`kernel`] — the blocked, register-tiled GEMM kernel layer underneath
//!   `Array::matmul` and the convolutions, running on a persistent worker
//!   pool ([`kernel::pool`]) sized by `EDD_NUM_THREADS` (read once, test
//!   override via [`kernel::set_num_threads`]), with a scalar reference
//!   oracle (`matmul_naive`);
//! * [`scratch`] — a thread-local bump-allocator arena for the short-lived
//!   buffers (im2col columns, gradient partials) the hot paths would
//!   otherwise `vec![0.0; n]` on every call;
//! * [`recycle`] — thread-local exact-length free lists that recycle
//!   [`Array`] value/grad storage across training steps, making the
//!   steady-state step allocation-free (every `Array` drop feeds the pool);
//! * [`Tensor`] — a define-by-run autodiff graph node with operations
//!   covering everything the EDD supernet needs: convolutions (standard and
//!   depthwise), batch normalization, global average pooling, softmax /
//!   cross-entropy, Gumbel-Softmax sampling, straight-through fake
//!   quantization, smooth maximum (Log-Sum-Exp), and elementwise math;
//! * [`optim`] — SGD (momentum) and Adam optimizers plus gradient clipping
//!   and a cosine learning-rate schedule;
//! * [`qkernel`] — the integer inference substrate: symmetric int8/int4
//!   quantization, i32-accumulator GEMM/depthwise kernels, and gemmlowp-style
//!   fixed-point requantization, running derived architectures entirely in
//!   integer arithmetic at their Φ-searched precisions;
//! * [`stats`] — relaxed-atomic kernel-runtime counters (pool utilization,
//!   tasks dispatched, scratch high-water) sampled by monitoring layers;
//! * [`gradcheck`] — finite-difference gradient verification used across the
//!   workspace's test suites.
//!
//! # Example
//!
//! ```
//! use edd_tensor::{Array, Tensor};
//! use edd_tensor::optim::{Optimizer, Sgd};
//!
//! // Fit y = 2x with a single weight.
//! let w = Tensor::param(Array::scalar(0.0));
//! let mut opt = Sgd::new(vec![w.clone()], 0.1, 0.0, 0.0);
//! for _ in 0..100 {
//!     opt.zero_grad();
//!     let x = Tensor::scalar(3.0);
//!     let target = Tensor::scalar(6.0);
//!     let pred = w.mul(&x).unwrap();
//!     let loss = pred.sub(&target).unwrap().square().sum();
//!     loss.backward();
//!     opt.step();
//! }
//! assert!((w.item() - 2.0).abs() < 1e-3);
//! ```

#![warn(missing_docs)]

mod array;
mod error;
pub mod gradcheck;
pub mod kernel;
mod ops;
pub mod optim;
pub mod qkernel;
pub mod recycle;
pub mod scratch;
pub mod shape;
pub mod stats;
mod tensor;

pub use array::{col2im, col2im_into, im2col, im2col_into, Array, Conv2dGeometry};
pub use error::{Result, TensorError};
pub use ops::gumbel::{gumbel_noise, gumbel_softmax, softmax_selection};
pub use ops::softmax::{accuracy, softmax_last_axis, top_k_accuracy};
pub use ops::BatchNormOutput;
pub use tensor::{Tensor, ValueRef};
