//! # edd-zoo
//!
//! Architecture descriptors for every comparison network of the EDD paper's
//! evaluation (Tables 1–3) plus the three published EDD-Nets (Fig. 4):
//!
//! * [`baselines`] — GoogleNet, MobileNet-V2, ShuffleNet-V2, ResNet18,
//!   VGG16, MnasNet-A1, FBNet-C and the three ProxylessNAS variants, as
//!   [`edd_hw::NetworkShape`] descriptions evaluable by the hardware models;
//! * [`edd_nets`] — EDD-Net-1/2/3 transcribed from Fig. 4;
//! * [`published`] — the paper's published numbers (Tables 1–3) for
//!   paper-vs-modeled comparison in the benchmark harnesses;
//! * [`tiny`] — laptop-scale trainable counterparts for the SynthImageNet
//!   experiments;
//! * [`signal`] — deterministic synthetic long signals for streaming
//!   (pulsed) inference demos and determinism suites.

#![warn(missing_docs)]

pub mod baselines;
mod builders;
pub mod edd_nets;
pub mod published;
pub mod signal;
pub mod tiny;

pub use baselines::{
    fbnet_c, googlenet, mnasnet_a1, mobilenet_v2, proxyless_cpu, proxyless_gpu, proxyless_mobile,
    resnet18, shufflenet_v2, vgg16,
};
pub use builders::ShapeBuilder;
pub use edd_nets::{edd_net_1, edd_net_2, edd_net_3};
pub use published::{Table1Row, Table2Entry, Table3Row, TABLE_1, TABLE_2, TABLE_3};
pub use signal::{signal_row, signal_window, synthetic_signal};
pub use tiny::{
    compile_tiny_zoo, prepare_tiny_zoo, random_arch, tiny_derived_arch, tiny_mobilenet_v2,
    tiny_model_zoo, tiny_quant_arch,
};
