//! # edd-nn
//!
//! Neural-network layers on top of [`edd_tensor`]: convolutions (standard
//! and depthwise), batch normalization with running statistics, linear
//! layers, the MBConv inverted-residual block (the EDD search space's
//! candidate operation), straight-through weight fake-quantization hooks,
//! the integer inference layers ([`qlayers`]) and a small train/evaluate
//! loop. The EDD supernet and the derived network (`edd-core`'s
//! `QatModel`) are built from these layers.
//!
//! # Example
//!
//! ```
//! use edd_nn::{BatchNorm2d, Conv2d, Linear, MbConv, Module};
//! use edd_tensor::{Array, Tensor};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let stem = Conv2d::same(3, 8, 3, 2, &mut rng);
//! let stem_bn = BatchNorm2d::new(8);
//! let block = MbConv::new(8, 8, 3, 4, 1, &mut rng);
//! let classifier = Linear::new(8, 10, &mut rng);
//! let x = Tensor::constant(Array::zeros(&[1, 3, 32, 32]));
//! let h = stem_bn.forward_relu6(&stem.forward(&x).unwrap()).unwrap();
//! let h = block.forward(&h).unwrap().global_avg_pool().unwrap();
//! let logits = classifier.forward(&h).unwrap();
//! assert_eq!(logits.shape(), vec![1, 10]);
//! ```

#![warn(missing_docs)]

mod bn;
mod conv;
pub mod init;
mod linear;
mod mbconv;
mod module;
pub mod qlayers;
pub mod train;

pub use bn::BatchNorm2d;
pub use conv::{Conv2d, DwConv2d};
pub use linear::Linear;
pub use mbconv::MbConv;
pub use module::{maybe_quantize, resolve_range, Module, QuantSpec, QuantizableModule};
pub use qlayers::{
    bn_fold_factors, clamp_bounds, fold_bn, q_global_avg_pool_into, QAddTables, QConv2d,
    QConvSource, QConvSpec, QDwConv2d, QDwConvSource, QDwConvSpec, QLinear, QLinearSpec, QWeights,
    ACT_QMAX,
};
pub use train::{evaluate, train_epoch, Batch, EpochStats};
