//! # edd-core
//!
//! The primary contribution of the reproduced paper — **EDD: Efficient
//! Differentiable DNN Architecture and Implementation Co-search** (DAC
//! 2020) — as a Rust library:
//!
//! * [`space`] — the fused search space: `N` blocks × `M` MBConv candidate
//!   operations × `Q` quantizations (paper §3.1, Fig. 1–2);
//! * [`arch_params`] — the searched variables `Θ`, `Φ`, `pf` with
//!   device-dependent sharing structure;
//! * [`supernet`] — the weight-sharing supernet with single-path hard
//!   Gumbel-Softmax sampling;
//! * [`perf_model`] — the differentiable Stage-1→4 performance/resource
//!   formulation (Eq. 2–10), including the Log-Sum-Exp smooth max (Eq. 7)
//!   and the `tanh` resource-sharing suppression (Eq. 9);
//! * [`loss`] — the fused objective of Eq. 1;
//! * [`sweep`] — the bilevel co-search loop (paper §5) over one shared
//!   supernet and one or more device targets, with per-target Pareto
//!   fronts, optional crash-safe checkpointing and structured telemetry;
//! * [`search`] — the paper's single-target [`CoSearch`] front over that
//!   loop, its hyperparameters and per-epoch records;
//! * [`checkpoint`] — full-state search snapshots (weights, `Θ`/`Φ`/`pf`,
//!   optimizer moments, RNG, history) for bit-identical resume;
//! * `derive` — argmax architecture extraction, trainable-model
//!   construction, hardware-shape export and JSON serialization.
//!
//! # Example
//!
//! ```
//! use edd_core::{CoSearch, CoSearchConfig, DeviceTarget, SearchSpace};
//! use edd_data::{SynthConfig, SynthDataset};
//! use edd_hw::FpgaDevice;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let space = SearchSpace::tiny(2, 16, 4, vec![4, 8, 16]);
//! let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
//! let config = CoSearchConfig { epochs: 2, warmup_epochs: 1, ..Default::default() };
//! let mut search = CoSearch::new(space, target, config, &mut rng).unwrap();
//! let data = SynthDataset::new(SynthConfig::tiny());
//! let outcome = search
//!     .run(&data.split(2, 8, 1), &data.split(1, 8, 2), &mut rng)
//!     .unwrap();
//! println!("{}", outcome.derived.summary());
//! ```

#![warn(missing_docs)]

pub mod arch_params;
pub mod checkpoint;
pub mod derive;
pub mod loss;
pub mod lower;
pub mod pareto;
pub mod perf_model;
pub mod qat;
pub mod quantize;
pub mod search;
pub mod space;
pub mod supernet;
pub mod sweep;
pub mod target;

pub use arch_params::{ArchCheckpoint, ArchParams, PfParams, PhiParams};
pub use checkpoint::{SearchRng, SweepSnapshot};
pub use derive::{BlockChoice, DerivedArch};
pub use loss::{edd_loss, LossConfig};
pub use lower::lower_to_graph;
pub use pareto::ParetoPoint;
pub use perf_model::{estimate, PerfEstimate, PerfTables};
pub use qat::QatModel;
pub use quantize::{calibrate, Calibration, ENGINE_MAX_BITS};
pub use search::{CoSearch, CoSearchConfig, EpochRecord, SearchOutcome};
pub use space::{BlockPlan, SearchSpace};
pub use supernet::{SampledPath, SuperNet};
pub use sweep::{hw_point, SweepOutcome, SweepSearch, SweepTargetOutcome};
pub use target::{DeviceTarget, PerfObjective};
