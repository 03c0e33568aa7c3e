//! # edd-nn
//!
//! Neural-network layers on top of [`edd_tensor`], providing everything the
//! EDD supernet and the baseline model zoo need: convolutions (standard,
//! depthwise, separable), batch normalization with running statistics,
//! linear layers, pooling, activations, the MBConv inverted-residual block,
//! straight-through weight fake-quantization hooks, and a small
//! train/evaluate loop.
//!
//! # Example
//!
//! ```
//! use edd_nn::{Activation, Conv2d, GlobalAvgPool, Linear, Module, Sequential};
//! use edd_tensor::{Array, Tensor};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = Sequential::new()
//!     .push(Conv2d::same(3, 8, 3, 2, &mut rng))
//!     .push(Activation::Relu6)
//!     .push(GlobalAvgPool)
//!     .push(Linear::new(8, 10, &mut rng));
//! let x = Tensor::constant(Array::zeros(&[1, 3, 32, 32]));
//! let logits = net.forward(&x).unwrap();
//! assert_eq!(logits.shape(), vec![1, 10]);
//! ```

#![warn(missing_docs)]

mod bn;
mod conv;
mod dropout;
pub mod init;
mod linear;
mod mbconv;
mod module;
pub mod qlayers;
mod se;
mod sequential;
pub mod train;

pub use bn::BatchNorm2d;
pub use conv::{Conv2d, DwConv2d};
pub use dropout::Dropout;
pub use linear::Linear;
pub use mbconv::{MbConv, SepConv};
pub use module::{maybe_quantize, resolve_range, Module, QuantSpec, QuantizableModule};
pub use qlayers::{
    bn_fold_factors, clamp_bounds, fold_bn, q_global_avg_pool_into, QAddTables, QConv2d,
    QConvSource, QConvSpec, QDwConv2d, QDwConvSource, QDwConvSpec, QLinear, QLinearSpec, QWeights,
    ACT_QMAX,
};
pub use se::SqueezeExcite;
pub use sequential::{Activation, AvgPool2d, Flatten, GlobalAvgPool, MaxPool2d, Sequential};
pub use train::{evaluate, train_epoch, train_epoch_with, Batch, EpochStats};
