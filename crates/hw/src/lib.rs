//! # edd-hw
//!
//! Analytic hardware performance and resource models for the EDD
//! reproduction — the device-specific Stage-1 formulations of paper §4:
//!
//! * [`calib`] — the bit-width calibration functions `Φ(q) = q` (latency)
//!   and the piecewise DSP-packing function `Ψ(q)` (Eq. 12–13);
//! * [`shapes`] — layer/operation/network shape descriptions and the work
//!   terms of Eq. 12, shared by every evaluator and the search;
//! * [`fpga`] — recursive (CHaiDNN-style, shared IPs) and pipelined
//!   (DNNBuilder-style, per-stage IPs) accelerator models with ZCU102 and
//!   ZC706 device descriptors, plus post-search implementation tuning;
//! * [`gpu`] — a roofline latency model with Titan RTX / GTX 1080 Ti / P100
//!   descriptors, which the search tabulates per `(op, q)` (`edd-core`'s
//!   `PerfTables`).
//!
//! All models are pure math (no autodiff): the differentiable mirror lives
//! in `edd-core`, which pulls coefficients from here.

#![warn(missing_docs)]

pub mod accel;
pub mod calib;
pub mod fpga;
pub mod gpu;
pub mod metrics;
pub mod shapes;

pub use accel::{eval_accel, predicted_throughput_fps, AccelDevice, AccelReport};
pub use fpga::{
    eval_pipelined, eval_recursive, initial_pf_pipelined, initial_pf_recursive, ip_dsps, ip_luts,
    tune_pipelined, tune_recursive, FpgaDevice, FpgaError, FpgaReport, PipelinedImpl,
    RecursiveImpl,
};
pub use gpu::energy::{network_energy_mj, op_energy_mj as gpu_op_energy_mj, GpuPower};
pub use gpu::{eval_gpu, GpuDevice, GpuPrecision, GpuReport};
pub use metrics::HwPoint;
pub use shapes::{LayerKind, LayerShape, NetworkShape, OpShape};
