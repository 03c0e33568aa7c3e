//! The co-search driver (paper §5): bilevel stochastic gradient descent
//! over the fused space `{A, I}`, for one device target or several sharing
//! one supernet.
//!
//! [`SweepSearch`] is the only epoch loop; [`crate::CoSearch`] is its
//! single-target front. The paper reproduces its Table-2 story by running
//! EDD once per target, which costs `T` full supernet trainings even though
//! the weight step — the dominant cost — is identical work for every
//! target: only the `(Θ, Φ, pf)` states and the implementation-loss terms
//! differ. Each epoch therefore has:
//!
//! * **One shared weight phase.** Fix `Θ, Φ, pf` and update the DNN
//!   weights `ω` by minimizing the training cross-entropy along sampled
//!   single paths. Training batches are assigned round-robin to targets
//!   (`t = (epoch + i) mod T`), so each batch's path comes from one
//!   target's current arch distribution and every target steers a share of
//!   the shared weights. One pass over the training split serves all `T`
//!   targets — a `T`× amortization versus sequential runs.
//! * **Per-target architecture steps.** Fix `ω` and update each target's
//!   `Θ, Φ, pf` by descending the fused loss (Eq. 1) on the *validation*
//!   split (bilevel) or the training split (single-level ablation):
//!   sampled-path accuracy loss × differentiable performance loss +
//!   resource penalty. Then the target's argmax architecture is validated,
//!   derived, scored on its device model ([`edd_hw::HwPoint`]), and merged
//!   into its Pareto front ([`crate::pareto`]).
//!
//! The number of targets `T` decides exactly two things, and no option
//! selects either:
//!
//! * **`T = 1`, the paper's loop.** Nothing draws or reads a per-target
//!   seed. The arch steps run on the driver thread with the driver RNG and
//!   with batch norm still in training mode, so its running statistics
//!   drift; then the supernet switches to eval mode for validation.
//! * **`T > 1`.** Each target has its own RNG stream, seeded from the
//!   construction RNG, and the per-target tasks fan out over
//!   [`edd_tensor::kernel::pool`] with the supernet frozen
//!   (`set_training(false)`). Freezing batch norm is what frees the phase
//!   of shared mutable state.
//!
//! Each phase differentiates only the leaves it steps. The weight phase
//! runs with every target's `(Θ, Φ, pf)` frozen, and the arch steps and
//! validation with the weights frozen ([`Tensor::set_requires_grad`],
//! restored when the phase ends, errors included). An op built only from
//! frozen leaves keeps no backward, so an arch step's backward stops at the
//! first block's straight-through coefficient and computes no weight,
//! batch-norm-affine, stem or first-block gradient; validation builds no
//! graph; and the parallel arch tasks never write into the shared weight
//! leaves.
//!
//! The Gumbel-Softmax temperature anneals geometrically from `tau_start` to
//! `tau_end`. After the final epoch each target's argmax architecture is
//! derived (paper: the searched DNN is then trained from scratch).
//!
//! # Determinism, checkpointing and telemetry
//!
//! The weight phase runs on the driver thread with the driver RNG; each
//! parallel task touches only its own target state, the frozen supernet,
//! and bitwise thread-count-invariant kernels, so results are identical for
//! every `EDD_NUM_THREADS` setting. With [`SweepSearch::checkpoint_into`],
//! one [`SweepSnapshot`] per qualifying epoch captures the shared state
//! plus all `T` target states, and [`SweepSearch::resume_from`] continues
//! **bit-identically**. When a global telemetry sink is installed
//! (`edd_runtime::telemetry::set_global`), every epoch emits a
//! `sweep.epoch` event, one `search.epoch` and one `sweep.target` event per
//! target, the `sweep.*` counters, phase spans and kernel-runtime gauges;
//! with the default no-op sink the instrumentation is free.

use crate::arch_params::{ArchCheckpoint, ArchParams};
use crate::checkpoint::{
    fingerprint, prune_sweep_snapshots, resolve_sweep_resume_path, SearchRng, SweepSnapshot,
    SweepTargetSnapshot,
};
use crate::derive::DerivedArch;
use crate::loss::{edd_loss, res_penalty_scalar, LossConfig};
use crate::pareto::{self, ParetoPoint};
use crate::perf_model::{estimate, PerfTables};
use crate::search::{
    epoch_fields, fnv1a_hex, history_to_csv, CoSearchConfig, EpochRecord, SearchOutcome,
    EPOCH_EVENT,
};
use crate::space::SearchSpace;
use crate::supernet::SuperNet;
use crate::target::DeviceTarget;
use edd_hw::gpu::GpuPrecision;
use edd_hw::{
    eval_accel, eval_gpu, eval_pipelined, eval_recursive, tune_pipelined, tune_recursive, HwPoint,
};
use edd_nn::Batch;
use edd_runtime::telemetry::{self, Value};
use edd_tensor::optim::{Adam, Optimizer, Sgd};
use edd_tensor::{accuracy, Result, Tensor, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Evaluates a derived architecture on its target's device model and
/// reduces the report to the sweep's two minimized objectives.
///
/// Precision handling per family: GPU networks are uniform-precision, so
/// the first block's bits select the [`GpuPrecision`]; FPGA tuners take one
/// uniform bit-width, for which the maximum derived block width is the
/// conservative choice; the dedicated accelerator is evaluated per-op with
/// 8-bit stem/head around the derived block widths.
///
/// # Errors
///
/// Returns an error when the derived bit-width has no device
/// implementation (e.g. a GPU arch outside {8, 16, 32}).
pub fn hw_point(target: &DeviceTarget, derived: &DerivedArch) -> Result<HwPoint> {
    let net = derived.to_network_shape();
    match target {
        DeviceTarget::Gpu(d) => {
            let bits = derived.blocks.first().map_or(32, |b| b.quant_bits);
            let precision = GpuPrecision::from_bits(bits).ok_or_else(|| {
                TensorError::InvalidArgument(format!("no GPU precision for {bits}-bit weights"))
            })?;
            Ok(HwPoint::from_gpu(&eval_gpu(&net, precision, d)))
        }
        DeviceTarget::FpgaRecursive(d) => {
            let q = derived
                .blocks
                .iter()
                .map(|b| b.quant_bits)
                .max()
                .unwrap_or(16);
            let report = eval_recursive(&net, &tune_recursive(&net, q, d), d)
                .map_err(|e| TensorError::InvalidArgument(format!("recursive eval: {e}")))?;
            Ok(HwPoint::from_recursive(&report))
        }
        DeviceTarget::FpgaPipelined(d) => {
            let q = derived
                .blocks
                .iter()
                .map(|b| b.quant_bits)
                .max()
                .unwrap_or(16);
            let report = eval_pipelined(&net, &tune_pipelined(&net, q, d), d)
                .map_err(|e| TensorError::InvalidArgument(format!("pipelined eval: {e}")))?;
            Ok(HwPoint::from_pipelined(&report))
        }
        DeviceTarget::Dedicated(d) => {
            let mut q_per_op = vec![8u32; net.ops.len()];
            for (i, b) in derived.blocks.iter().enumerate() {
                if i + 1 < q_per_op.len() {
                    q_per_op[i + 1] = b.quant_bits;
                }
            }
            Ok(HwPoint::from_accel(&eval_accel(&net, &q_per_op, d)))
        }
    }
}

/// Static span name per target family, so per-target phase timings carry
/// stable names in traces (span names must be `'static`).
fn target_span_name(target: &DeviceTarget) -> &'static str {
    match target {
        DeviceTarget::Gpu(_) => "sweep.target.gpu",
        DeviceTarget::FpgaRecursive(_) => "sweep.target.fpga_recursive",
        DeviceTarget::FpgaPipelined(_) => "sweep.target.fpga_pipelined",
        DeviceTarget::Dedicated(_) => "sweep.target.dedicated",
    }
}

/// Everything that is per-target: the arch variables with their cost
/// tables and RNG stream, and the accumulated history / Pareto front /
/// best-so-far.
pub(crate) struct TargetState {
    pub(crate) target: DeviceTarget,
    key: &'static str,
    pub(crate) arch: ArchParams,
    tables: PerfTables,
    /// The target's own arch-step stream; `None` when `T = 1`.
    stream: Option<StdRng>,
    history: Vec<EpochRecord>,
    front: Vec<ParetoPoint>,
    best: Option<(usize, f32, DerivedArch)>,
}

impl TargetState {
    /// This target's architecture steps over `batches` (none in warm-up):
    /// descend the fused loss (Eq. 1) in its `(Θ, Φ, pf)`. Returns the mean
    /// expected performance and resource terms, zero without steps.
    #[allow(clippy::too_many_arguments)]
    fn arch_steps<R: Rng + ?Sized>(
        &self,
        supernet: &SuperNet,
        space: &SearchSpace,
        loss: &LossConfig,
        a_opt: &mut Adam,
        (batches, inputs): (&[Batch], &[Tensor]),
        tau: f32,
        rng: &mut R,
    ) -> Result<(f32, f32)> {
        let mut expected_perf = 0.0;
        let mut expected_res = 0.0;
        for (batch, x) in batches.iter().zip(inputs) {
            // Clears stale gradients on this target's arch leaves. The shared
            // weights are frozen for this phase, so no backward touches them.
            a_opt.zero_grad();
            let (logits, _) = supernet.forward_sampled(x, &self.arch, tau, rng)?;
            let acc_loss = logits.cross_entropy(&batch.labels)?;
            let est = estimate(&self.arch, &self.tables, space, &self.target, tau, rng)?;
            let bound = self.target.resource_bound();
            let total = edd_loss(&acc_loss, &est.perf, &est.res, bound, loss)?;
            total.backward();
            a_opt.step();
            edd_tensor::scratch::reset();
            expected_perf += est.perf.item();
            expected_res += est.res.item();
        }
        let steps = batches.len().max(1) as f32;
        Ok((expected_perf / steps, expected_res / steps))
    }

    /// Derives this target's argmax architecture, serializes it and scores
    /// it on the target's device model.
    fn score(
        &self,
        space: &SearchSpace,
        epoch: usize,
        (expected_perf, expected_res): (f32, f32),
        val_acc: f32,
        start: Instant,
    ) -> Result<TargetEpoch> {
        let derived = DerivedArch::from_params(space, &self.target, &self.arch);
        let arch_json = derived.to_json().map_err(|err| {
            TensorError::InvalidArgument(format!("serialize derived architecture: {err}"))
        })?;
        let hw = hw_point(&self.target, &derived)?;
        Ok(TargetEpoch {
            expected_perf,
            expected_res,
            derived,
            point: ParetoPoint {
                target: self.key.to_owned(),
                epoch,
                val_acc,
                perf_ms: hw.perf_ms,
                resource: hw.resource_dsps,
                arch_json,
            },
            ms: start.elapsed().as_secs_f64() * 1e3,
        })
    }
}

/// One target's share of a weight phase: sums over the batches whose path
/// it sampled.
#[derive(Clone, Copy, Default)]
struct TrainSums {
    loss: f32,
    acc: f32,
    seen: usize,
}

/// What one target's arch steps, validation and scoring produced in an
/// epoch.
struct TargetEpoch {
    expected_perf: f32,
    expected_res: f32,
    derived: DerivedArch,
    point: ParetoPoint,
    /// Wall time of the arch steps, validation and scoring.
    ms: f64,
}

/// Per-target slice of a finished sweep.
#[derive(Debug)]
pub struct SweepTargetOutcome {
    /// The device target.
    pub target: DeviceTarget,
    /// The single-target view: derived arch, history, best epoch.
    pub outcome: SearchOutcome,
    /// The target's Pareto front over all epochs.
    pub front: Vec<ParetoPoint>,
}

/// Result of a finished multi-target sweep.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-target results, in sweep target order.
    pub targets: Vec<SweepTargetOutcome>,
}

impl SweepOutcome {
    /// All targets' epoch histories flattened into one CSV (same columns
    /// as [`SearchOutcome::history_csv`]; the `target` column tells rows
    /// apart), interleaved by epoch then target order.
    #[must_use]
    pub fn history_csv(&self) -> String {
        let mut rows: Vec<EpochRecord> = self
            .targets
            .iter()
            .flat_map(|t| t.outcome.history.iter().cloned())
            .collect();
        rows.sort_by(|a, b| a.epoch.cmp(&b.epoch).then_with(|| a.target.cmp(&b.target)));
        history_to_csv(&rows)
    }

    /// The cross-target summary as EXPERIMENTS.md-ready JSON: per target,
    /// the best epoch and the Pareto front of
    /// `(val_acc, perf_ms, resource_dsps)` points with arch digests.
    #[must_use]
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\n  \"targets\": [\n");
        for (i, t) in self.targets.iter().enumerate() {
            let best = t.outcome.history.get(t.outcome.best_epoch);
            out.push_str(&format!(
                "    {{\n      \"target\": \"{}\",\n      \"epochs\": {},\n      \
                 \"best_epoch\": {},\n      \"best_val_acc\": {},\n      \"front\": [\n",
                t.target.key(),
                t.outcome.history.len(),
                t.outcome.best_epoch,
                best.map_or(0.0, |h| h.val_acc),
            ));
            for (j, p) in t.front.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"epoch\": {}, \"val_acc\": {}, \"perf_ms\": {}, \
                     \"resource_dsps\": {}, \"arch_digest\": \"{}\"}}{}\n",
                    p.epoch,
                    p.val_acc,
                    p.perf_ms,
                    p.resource,
                    fnv1a_hex(p.arch_json.as_bytes()),
                    if j + 1 == t.front.len() { "" } else { "," },
                ));
            }
            out.push_str(&format!(
                "      ]\n    }}{}\n",
                if i + 1 == self.targets.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// A configured co-search: one shared supernet and weight optimizer, `T`
/// per-target architecture states.
pub struct SweepSearch {
    space: SearchSpace,
    config: CoSearchConfig,
    pub(crate) supernet: SuperNet,
    pub(crate) targets: Vec<TargetState>,
    /// Span name of the weight phase. It is the one thing the public
    /// constructor fixes: `search.weight_phase` for a [`crate::CoSearch`],
    /// `sweep.weight_phase` for a [`SweepSearch::new`] run, because
    /// benchmarks read both.
    weight_span: &'static str,
    ckpt_dir: Option<PathBuf>,
    ckpt_every: usize,
    ckpt_keep: usize,
    pending_resume: Option<SweepSnapshot>,
}

impl std::fmt::Debug for SweepSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let targets: Vec<String> = self.targets.iter().map(|t| t.target.label()).collect();
        f.debug_struct("SweepSearch")
            .field("space", &self.space.name)
            .field("targets", &targets)
            .field("epochs", &self.config.epochs)
            .field("checkpoint_dir", &self.ckpt_dir)
            .finish()
    }
}

impl SweepSearch {
    /// Creates a search over `targets` sharing one supernet. The space's
    /// quantization menu must be supported by *every* target (use the
    /// intersection of the per-target menus); targets must be distinct
    /// families (their [`DeviceTarget::key`]s label records and snapshots).
    ///
    /// # Errors
    ///
    /// Returns an error on an empty or duplicate target list, or when any
    /// target rejects the space's quantization menu.
    pub fn new<R: Rng + ?Sized>(
        space: SearchSpace,
        targets: Vec<DeviceTarget>,
        config: CoSearchConfig,
        rng: &mut R,
    ) -> Result<Self> {
        Self::with_weight_span(space, targets, config, rng, "sweep.weight_phase")
    }

    /// [`SweepSearch::new`] with the weight phase's span name.
    pub(crate) fn with_weight_span<R: Rng + ?Sized>(
        space: SearchSpace,
        targets: Vec<DeviceTarget>,
        config: CoSearchConfig,
        rng: &mut R,
        weight_span: &'static str,
    ) -> Result<Self> {
        if targets.is_empty() {
            return Err(TensorError::InvalidArgument(
                "sweep requires at least one target".into(),
            ));
        }
        for (i, t) in targets.iter().enumerate() {
            if targets[..i].iter().any(|u| u.key() == t.key()) {
                return Err(TensorError::InvalidArgument(format!(
                    "duplicate sweep target `{}`: per-target records and snapshots are keyed \
                     by target family",
                    t.key()
                )));
            }
        }
        // Every target is checked before the construction RNG is drawn.
        let tables = targets
            .iter()
            .map(|t| PerfTables::build(&space, t))
            .collect::<Result<Vec<_>>>()?;
        let supernet = SuperNet::new(&space, rng);
        let solo = targets.len() == 1;
        let mut states = Vec::with_capacity(targets.len());
        for (target, tables) in targets.into_iter().zip(tables) {
            let arch = ArchParams::init(&space, &target, rng);
            // Several targets get independent streams, seeded from the
            // construction stream so the whole run is one seed.
            let stream = (!solo).then(|| StdRng::seed_from_u64(rng.gen()));
            states.push(TargetState {
                key: target.key(),
                target,
                arch,
                tables,
                stream,
                history: Vec::new(),
                front: Vec::new(),
                best: None,
            });
        }
        Ok(SweepSearch {
            space,
            config,
            supernet,
            targets: states,
            weight_span,
            ckpt_dir: None,
            ckpt_every: 1,
            ckpt_keep: 3,
            pending_resume: None,
        })
    }

    /// Enables crash-safe checkpointing: after qualifying epochs one
    /// [`SweepSnapshot`] (shared weights + all per-target states) is
    /// written atomically into `dir` as `ckpt-<keys>-<epoch>.edds`, where
    /// `<keys>` joins the target keys with `+`. The directory is created on
    /// first write.
    pub fn checkpoint_into(&mut self, dir: impl Into<PathBuf>) -> &mut Self {
        self.ckpt_dir = Some(dir.into());
        self
    }

    /// Checkpoint cadence: write every `n` epochs (default 1). `0` disables
    /// periodic writes; the final epoch of a run is always snapshotted when
    /// a checkpoint directory is set.
    pub fn checkpoint_every(&mut self, n: usize) -> &mut Self {
        self.ckpt_every = n;
        self
    }

    /// Retention: keep only the newest `k` snapshots of this run (default
    /// 3, floor 1). Files of runs over other targets in the same directory
    /// are never touched.
    pub fn checkpoint_keep(&mut self, k: usize) -> &mut Self {
        self.ckpt_keep = k.max(1);
        self
    }

    /// Schedules a resume from `path` — a snapshot file, or a checkpoint
    /// directory (resolved to this run's newest snapshot). The snapshot is
    /// loaded and fingerprint-checked eagerly; the state is applied when
    /// the next `run*` call starts, which then continues from the epoch
    /// after the snapshotted one.
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot is missing, corrupt, of an
    /// earlier schema version, or was taken by a differently-configured
    /// run (different space, config, or target list).
    pub fn resume_from(&mut self, path: &Path) -> Result<&mut Self> {
        let file = resolve_sweep_resume_path(path, &self.run_name())?;
        let snap = SweepSnapshot::load(&file)?;
        let want = self.fingerprint();
        if snap.fingerprint != want {
            return Err(TensorError::InvalidArgument(format!(
                "snapshot {} was taken by a different search configuration\n  \
                 snapshot: {}\n  current:  {want}",
                file.display(),
                snap.fingerprint
            )));
        }
        self.pending_resume = Some(snap);
        Ok(self)
    }

    /// The run-level configuration fingerprint.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        let targets = self.targets.iter().map(|t| &t.target);
        fingerprint(&self.space, targets, &self.config)
    }

    /// The targets being searched, in order.
    #[must_use]
    pub fn target_keys(&self) -> Vec<&'static str> {
        self.targets.iter().map(|t| t.key).collect()
    }

    /// The run's name in snapshot file names: the target keys joined with
    /// `+`.
    fn run_name(&self) -> String {
        self.target_keys().join("+")
    }

    /// Temperature at `epoch` (geometric annealing).
    #[must_use]
    pub fn tau_at(&self, epoch: usize) -> f32 {
        let e = self.config.epochs.max(2) - 1;
        let t = (epoch.min(e)) as f32 / e as f32;
        self.config.tau_start * (self.config.tau_end / self.config.tau_start).powf(t)
    }

    /// Captures the complete state after `epoch` completed.
    fn capture_snapshot(
        &self,
        epoch: usize,
        w_opt: &Sgd,
        a_opts: &[Adam],
        rng_state: [u64; 4],
    ) -> Result<SweepSnapshot> {
        let mut targets = Vec::with_capacity(self.targets.len());
        for (state, a_opt) in self.targets.iter().zip(a_opts) {
            let best = match &state.best {
                Some((e, acc, d)) => {
                    let json = d.to_json().map_err(|err| {
                        TensorError::InvalidArgument(format!("serialize best architecture: {err}"))
                    })?;
                    Some((*e, *acc, json))
                }
                None => None,
            };
            targets.push(SweepTargetSnapshot {
                key: state.key.to_owned(),
                rng: state.stream.as_ref().map(StdRng::state),
                arch: state.arch.checkpoint(),
                adam: a_opt.export_state(),
                history: state.history.clone(),
                front: state.front.clone(),
                best,
            });
        }
        Ok(SweepSnapshot {
            fingerprint: self.fingerprint(),
            epoch,
            rng: rng_state,
            weights: self
                .supernet
                .weight_params()
                .iter()
                .map(Tensor::value_clone)
                .collect(),
            bn_stats: self
                .supernet
                .batch_norms()
                .iter()
                .map(|bn| (bn.running_mean(), bn.running_var()))
                .collect(),
            sgd_velocity: w_opt.export_state(),
            targets,
        })
    }

    /// Applies a loaded snapshot to the shared and per-target states, the
    /// optimizers and the driver RNG. The whole snapshot is checked before
    /// any state changes, so a rejected file leaves the search as it was.
    fn apply_snapshot<R: SearchRng + ?Sized>(
        &mut self,
        snap: &SweepSnapshot,
        w_opt: &mut Sgd,
        a_opts: &mut [Adam],
        rng: &mut R,
    ) -> Result<()> {
        let reject = |msg: String| Err(TensorError::InvalidArgument(format!("snapshot {msg}")));
        if snap.epoch >= self.config.epochs {
            return reject(format!(
                "epoch {} is past the run's {} epochs",
                snap.epoch, self.config.epochs
            ));
        }
        let params = self.supernet.weight_params();
        if params.len() != snap.weights.len() {
            return reject(format!(
                "has {} weight tensors, supernet has {}",
                snap.weights.len(),
                params.len()
            ));
        }
        for (i, (p, w)) in params.iter().zip(&snap.weights).enumerate() {
            if p.shape() != w.shape() {
                return reject(format!(
                    "weight {i} has shape {:?}, supernet expects {:?}",
                    w.shape(),
                    p.shape()
                ));
            }
        }
        let bns = self.supernet.batch_norms();
        if bns.len() != snap.bn_stats.len() {
            return reject(format!(
                "has {} batch-norm layers, supernet has {}",
                snap.bn_stats.len(),
                bns.len()
            ));
        }
        for (i, (bn, (mean, var))) in bns.iter().zip(&snap.bn_stats).enumerate() {
            let want = bn.running_mean();
            if mean.shape() != want.shape() || var.shape() != want.shape() {
                return reject(format!(
                    "batch-norm {i} has statistics of shapes {:?} and {:?}, supernet expects {:?}",
                    mean.shape(),
                    var.shape(),
                    want.shape()
                ));
            }
        }
        if snap.targets.len() != self.targets.len() {
            return reject(format!(
                "has {} targets, search has {}",
                snap.targets.len(),
                self.targets.len()
            ));
        }
        let layout = |c: &ArchCheckpoint| {
            let lens = |rows: &[Vec<f32>]| rows.iter().map(Vec::len).collect::<Vec<_>>();
            (lens(&c.theta), lens(&c.phi), c.pf.len())
        };
        let mut bests = Vec::with_capacity(snap.targets.len());
        for (state, ts) in self.targets.iter().zip(&snap.targets) {
            if ts.key != state.key {
                return reject(format!(
                    "target `{}` does not match search target `{}`",
                    ts.key, state.key
                ));
            }
            if ts.rng.is_some() != state.stream.is_some()
                || layout(&ts.arch) != layout(&state.arch.checkpoint())
            {
                return reject(format!(
                    "state of target `{}` does not fit a {}-target search",
                    ts.key,
                    self.targets.len()
                ));
            }
            bests.push(match &ts.best {
                Some((e, acc, json)) => {
                    let derived = DerivedArch::from_json(json).map_err(|err| {
                        TensorError::InvalidArgument(format!(
                            "snapshot best architecture is unparseable: {err}"
                        ))
                    })?;
                    Some((*e, *acc, derived))
                }
                None => None,
            });
        }
        // The optimizers are local to this run, so importing into them
        // before the commit below changes no search state.
        w_opt.import_state(snap.sgd_velocity.clone())?;
        for (a_opt, ts) in a_opts.iter_mut().zip(&snap.targets) {
            a_opt.import_state(ts.adam.clone())?;
        }
        for (p, w) in params.iter().zip(&snap.weights) {
            p.set_value(w.clone());
        }
        for (bn, (mean, var)) in bns.iter().zip(&snap.bn_stats) {
            bn.set_running_stats(mean.clone(), var.clone())?;
        }
        rng.restore_state_words(snap.rng);
        for ((state, ts), best) in self.targets.iter_mut().zip(&snap.targets).zip(bests) {
            state.arch.restore(&ts.arch)?;
            if let (Some(stream), Some(words)) = (&mut state.stream, ts.rng) {
                stream.set_state(words);
            }
            state.history.clone_from(&ts.history);
            state.front.clone_from(&ts.front);
            state.best = best;
        }
        Ok(())
    }

    /// Writes the epoch snapshot into the checkpoint directory and prunes
    /// this run's old ones down to the retention limit.
    fn write_checkpoint(&self, dir: &Path, snap: &SweepSnapshot) -> Result<()> {
        std::fs::create_dir_all(dir).map_err(|e| {
            TensorError::InvalidArgument(format!("create checkpoint dir {}: {e}", dir.display()))
        })?;
        let run = self.run_name();
        snap.save(&dir.join(SweepSnapshot::file_name(&run, snap.epoch)))?;
        prune_sweep_snapshots(dir, &run, self.ckpt_keep)
            .map_err(|e| TensorError::InvalidArgument(format!("prune checkpoints: {e}")))?;
        Ok(())
    }

    /// Runs the full search over the given train/validation splits and
    /// derives each target's final architecture.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the supernet or the performance model,
    /// hardware-evaluation errors, and checkpoint I/O errors.
    pub fn run<R: SearchRng + ?Sized>(
        &mut self,
        train: &[Batch],
        val: &[Batch],
        rng: &mut R,
    ) -> Result<SweepOutcome> {
        self.run_range(train, val, rng, self.config.epochs)
    }

    /// Runs the search but stops after `stop_after` epochs (clamped to the
    /// configured total), deriving from the state at that point. With
    /// checkpointing enabled the last executed epoch is always snapshotted,
    /// so a partial run models a crash-and-resume boundary exactly.
    ///
    /// # Errors
    ///
    /// Same as [`SweepSearch::run`].
    pub fn run_until<R: SearchRng + ?Sized>(
        &mut self,
        train: &[Batch],
        val: &[Batch],
        rng: &mut R,
        stop_after: usize,
    ) -> Result<SweepOutcome> {
        self.run_range(train, val, rng, stop_after.min(self.config.epochs))
    }

    fn run_range<R: SearchRng + ?Sized>(
        &mut self,
        train: &[Batch],
        val: &[Batch],
        rng: &mut R,
        end: usize,
    ) -> Result<SweepOutcome> {
        let mut w_opt = Sgd::new(
            self.supernet.weight_params(),
            self.config.weight_lr,
            self.config.weight_momentum,
            1e-4,
        );
        let mut a_opts: Vec<Adam> = self
            .targets
            .iter()
            .map(|t| Adam::new(t.arch.all_params(), self.config.arch_lr))
            .collect();
        // Input tensors are constants shared across every epoch: wrap each
        // batch once here instead of deep-cloning the pixel data per step.
        // Constants never require grad, so graphs only borrow them.
        let constants = |batches: &[Batch]| -> Vec<Tensor> {
            batches
                .iter()
                .map(|b| Tensor::constant(b.images.clone()))
                .collect()
        };
        let train_inputs = constants(train);
        let val_inputs = constants(val);
        let mut start = 0usize;
        if let Some(snap) = self.pending_resume.take() {
            self.apply_snapshot(&snap, &mut w_opt, &mut a_opts, rng)?;
            start = snap.epoch + 1;
        }
        for epoch in start..end {
            let tau = self.tau_at(epoch);
            let (sums, weight_ms) = {
                let _arch = Frozen::new(self.targets.iter().flat_map(|t| t.arch.all_params()));
                self.weight_phase((train, &train_inputs), &mut w_opt, epoch, tau, rng)?
            };
            let do_arch = epoch >= self.config.warmup_epochs;
            let arch: (&[Batch], &[Tensor]) = if !do_arch {
                (&[], &[])
            } else if self.config.bilevel {
                (val, &val_inputs)
            } else {
                (train, &train_inputs)
            };
            let val = (val, &val_inputs[..]);
            let done = {
                let _weights = Frozen::new(self.supernet.weight_params());
                if self.targets.len() == 1 {
                    vec![self.solo_epoch(&mut a_opts[0], arch, val, epoch, tau, rng)?]
                } else {
                    self.parallel_epochs(&mut a_opts, arch, val, epoch, tau)?
                }
            };
            telemetry::counter("sweep.epochs", 1);
            if do_arch {
                telemetry::counter(
                    "sweep.arch_steps",
                    (arch.0.len() * self.targets.len()) as u64,
                );
            }
            self.merge_epoch(epoch, tau, weight_ms, &sums, done);
            if let Some(dir) = self.ckpt_dir.clone() {
                let periodic = self.ckpt_every > 0 && (epoch + 1).is_multiple_of(self.ckpt_every);
                if periodic || epoch + 1 == end {
                    let snap = self.capture_snapshot(epoch, &w_opt, &a_opts, rng.state_words())?;
                    self.write_checkpoint(&dir, &snap)?;
                }
            }
        }

        let mut outcomes = Vec::with_capacity(self.targets.len());
        for state in &self.targets {
            let derived = DerivedArch::from_params(&self.space, &state.target, &state.arch);
            let (best_epoch, _, best_derived) =
                state
                    .best
                    .clone()
                    .unwrap_or((end.saturating_sub(1), 0.0, derived.clone()));
            outcomes.push(SweepTargetOutcome {
                target: state.target.clone(),
                outcome: SearchOutcome {
                    derived,
                    history: state.history.clone(),
                    best_derived,
                    best_epoch,
                },
                front: state.front.clone(),
            });
        }
        Ok(SweepOutcome { targets: outcomes })
    }

    /// The shared weight phase: one SGD step per training batch, each on a
    /// path sampled from target `(epoch + i) mod T`'s distribution with the
    /// driver RNG. Returns each target's sums and the phase's wall time in
    /// ms.
    fn weight_phase<R: Rng + ?Sized>(
        &self,
        (batches, inputs): (&[Batch], &[Tensor]),
        w_opt: &mut Sgd,
        epoch: usize,
        tau: f32,
        rng: &mut R,
    ) -> Result<(Vec<TrainSums>, f64)> {
        self.supernet.set_training(true);
        let mut sums = vec![TrainSums::default(); self.targets.len()];
        let span = telemetry::span(self.weight_span);
        let start = Instant::now();
        for (i, (batch, x)) in batches.iter().zip(inputs).enumerate() {
            let t = (epoch + i) % self.targets.len();
            w_opt.zero_grad();
            let (logits, _) = self
                .supernet
                .forward_sampled(x, &self.targets[t].arch, tau, rng)?;
            let loss = logits.cross_entropy(&batch.labels)?;
            loss.backward();
            if let Some(max_norm) = self.config.clip_grad_norm {
                edd_tensor::optim::clip_grad_norm(w_opt.params(), max_norm);
            }
            w_opt.step();
            // Scratch buffers are step-scoped; reclaim the arena.
            edd_tensor::scratch::reset();
            let b = batch.labels.len();
            sums[t].loss += loss.item() * b as f32;
            sums[t].acc += accuracy(&logits.value(), &batch.labels) * b as f32;
            sums[t].seen += b;
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        drop(span);
        telemetry::counter("sweep.weight_steps", batches.len() as u64);
        Ok((sums, ms))
    }

    /// `T = 1`, the paper's step: arch steps on the driver thread with the
    /// driver RNG and batch norm still in training mode, then eval-mode
    /// validation.
    fn solo_epoch<R: Rng + ?Sized>(
        &self,
        a_opt: &mut Adam,
        arch: (&[Batch], &[Tensor]),
        val: (&[Batch], &[Tensor]),
        epoch: usize,
        tau: f32,
        rng: &mut R,
    ) -> Result<TargetEpoch> {
        let (state, net, loss) = (&self.targets[0], &self.supernet, &self.config.loss);
        let start = Instant::now();
        let span = telemetry::span("search.arch_phase");
        let steps = state.arch_steps(net, &self.space, loss, a_opt, arch, tau, rng)?;
        drop(span);
        net.set_training(false);
        let span = telemetry::span("search.val_phase");
        let val_acc = validate(net, &state.arch, val)?;
        drop(span);
        state.score(&self.space, epoch, steps, val_acc, start)
    }

    /// `T > 1`: the supernet frozen, and one task per target fanned out
    /// over the pool, each on the target's own RNG stream.
    fn parallel_epochs(
        &mut self,
        a_opts: &mut [Adam],
        arch: (&[Batch], &[Tensor]),
        val: (&[Batch], &[Tensor]),
        epoch: usize,
        tau: f32,
    ) -> Result<Vec<TargetEpoch>> {
        self.supernet.set_training(false);
        let (net, space, loss) = (&self.supernet, &self.space, &self.config.loss);
        let slots: Vec<_> = self
            .targets
            .iter_mut()
            .zip(a_opts.iter_mut())
            .map(|(state, a_opt)| Mutex::new((state, a_opt, None)))
            .collect();
        edd_tensor::kernel::pool::run(slots.len(), &|t| {
            let mut slot = slots[t].lock().expect("sweep slot poisoned");
            let (state, a_opt, done) = &mut *slot;
            let mut stream = state
                .stream
                .take()
                .expect("every target of a multi-target search has a stream");
            let span = telemetry::span(target_span_name(&state.target));
            let start = Instant::now();
            let result = state
                .arch_steps(net, space, loss, a_opt, arch, tau, &mut stream)
                .and_then(|steps| {
                    let val_acc = validate(net, &state.arch, val)?;
                    state.score(space, epoch, steps, val_acc, start)
                });
            drop(span);
            state.stream = Some(stream);
            edd_tensor::scratch::reset();
            *done = Some(result);
        });
        slots
            .into_iter()
            .map(|slot| {
                let (_, _, done) = slot.into_inner().expect("sweep slot poisoned");
                done.expect("the pool runs every task")
            })
            .collect()
    }

    /// Records each target's epoch on the driver thread, in target order,
    /// so telemetry and history are deterministic.
    fn merge_epoch(
        &mut self,
        epoch: usize,
        tau: f32,
        weight_ms: f64,
        sums: &[TrainSums],
        done: Vec<TargetEpoch>,
    ) {
        if telemetry::enabled() {
            telemetry::event(
                "sweep.epoch",
                &[
                    ("epoch", Value::U64(epoch as u64)),
                    ("tau", Value::F32(tau)),
                    ("weight_ms", Value::F64(weight_ms)),
                    ("targets", Value::U64(self.targets.len() as u64)),
                ],
            );
        }
        for ((state, sums), done) in self.targets.iter_mut().zip(sums).zip(done) {
            let record = EpochRecord {
                target: state.key.to_owned(),
                epoch,
                train_loss: sums.loss / sums.seen.max(1) as f32,
                train_acc: sums.acc / sums.seen.max(1) as f32,
                val_acc: done.point.val_acc,
                expected_perf: done.expected_perf,
                expected_res: done.expected_res,
                tau,
            };
            if telemetry::enabled() {
                let mut fields = epoch_fields(&record).to_vec();
                let penalty = res_penalty_scalar(
                    record.expected_res,
                    state.target.resource_bound(),
                    &self.config.loss,
                );
                fields.push(("res_penalty", Value::F32(penalty)));
                let digest = fnv1a_hex(done.point.arch_json.as_bytes());
                fields.push(("arch_digest", Value::Str(digest)));
                telemetry::event(EPOCH_EVENT, &fields);
                telemetry::event(
                    "sweep.target",
                    &[
                        ("target", Value::Str(state.key.to_owned())),
                        ("epoch", Value::U64(epoch as u64)),
                        ("val_acc", Value::F32(record.val_acc)),
                        ("perf_ms", Value::F64(done.point.perf_ms)),
                        ("resource", Value::F64(done.point.resource)),
                        ("arch_ms", Value::F64(done.ms)),
                    ],
                );
            }
            if state
                .best
                .as_ref()
                .is_none_or(|(_, acc, _)| record.val_acc > *acc)
            {
                state.best = Some((epoch, record.val_acc, done.derived));
            }
            state.front = pareto::merge(&state.front, std::slice::from_ref(&done.point));
            state.history.push(record);
        }
        emit_kernel_gauges();
    }
}

/// Leaves that one search phase does not step, frozen
/// ([`Tensor::set_requires_grad`]) until the guard drops: on every exit
/// path, `?` returns included, each leaf gets its old flag back.
struct Frozen(Vec<(Tensor, bool)>);

impl Frozen {
    fn new(leaves: impl IntoIterator<Item = Tensor>) -> Self {
        Frozen(
            leaves
                .into_iter()
                .map(|t| {
                    let was = t.requires_grad();
                    t.set_requires_grad(false);
                    (t, was)
                })
                .collect(),
        )
    }
}

impl Drop for Frozen {
    fn drop(&mut self) {
        for (t, was) in &self.0 {
            t.set_requires_grad(*was);
        }
    }
}

/// Argmax validation accuracy of `arch` (supernet in eval mode).
fn validate(
    supernet: &SuperNet,
    arch: &ArchParams,
    (batches, inputs): (&[Batch], &[Tensor]),
) -> Result<f32> {
    let mut acc = 0.0;
    let mut seen = 0usize;
    for (batch, x) in batches.iter().zip(inputs) {
        let logits = supernet.forward_argmax(x, arch)?;
        acc += accuracy(&logits.value(), &batch.labels) * batch.labels.len() as f32;
        seen += batch.labels.len();
    }
    Ok(acc / seen.max(1) as f32)
}

/// Samples the kernel runtime's counters into telemetry gauges.
fn emit_kernel_gauges() {
    if !telemetry::enabled() {
        return;
    }
    let stats = edd_tensor::stats::snapshot();
    if let Some(util) = stats.pool_utilization() {
        telemetry::gauge("kernel.pool_utilization", util);
    }
    telemetry::gauge("kernel.pool_tasks", stats.pool_tasks);
    telemetry::gauge("kernel.pool_parallel_jobs", stats.pool_parallel_jobs);
    telemetry::gauge("kernel.pool_inline_jobs", stats.pool_inline_jobs);
    telemetry::gauge(
        "kernel.scratch_high_water_bytes",
        stats.scratch_high_water_bytes,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use edd_data::{SynthConfig, SynthDataset};
    use edd_hw::{FpgaDevice, GpuDevice};

    fn sweep_targets() -> Vec<DeviceTarget> {
        vec![
            DeviceTarget::Gpu(GpuDevice::titan_rtx()),
            DeviceTarget::FpgaRecursive(FpgaDevice::zcu102()),
            DeviceTarget::FpgaPipelined(FpgaDevice::zc706()),
        ]
    }

    fn tiny_sweep() -> (SweepSearch, Vec<Batch>, Vec<Batch>, StdRng) {
        tiny_sweep_of(sweep_targets())
    }

    fn tiny_sweep_of(targets: Vec<DeviceTarget>) -> (SweepSearch, Vec<Batch>, Vec<Batch>, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        // Quant menu = intersection of the GPU ({8,16,32}) and FPGA
        // ({4,8,16}) menus.
        let space = SearchSpace::tiny(3, 16, 4, vec![8, 16]);
        let config = CoSearchConfig {
            epochs: 3,
            warmup_epochs: 1,
            ..CoSearchConfig::default()
        };
        let sweep = SweepSearch::new(space, targets, config, &mut rng).unwrap();
        let data = SynthDataset::new(SynthConfig::tiny());
        let train = data.split(3, 8, 1);
        let val = data.split(2, 8, 2);
        (sweep, train, val, rng)
    }

    #[test]
    fn rejects_empty_and_duplicate_targets() {
        let mut rng = StdRng::seed_from_u64(1);
        let space = SearchSpace::tiny(2, 16, 4, vec![8, 16]);
        assert!(
            SweepSearch::new(space.clone(), vec![], CoSearchConfig::default(), &mut rng).is_err()
        );
        let dup = vec![
            DeviceTarget::Gpu(GpuDevice::titan_rtx()),
            DeviceTarget::Gpu(GpuDevice::p100()),
        ];
        let err = SweepSearch::new(space, dup, CoSearchConfig::default(), &mut rng).unwrap_err();
        assert!(err.to_string().contains("duplicate sweep target"), "{err}");
    }

    #[test]
    fn rejects_menu_unsupported_by_any_target() {
        // 4-bit is fine on FPGA but not on GPU: the shared space must be
        // rejected because the GPU target cannot represent it.
        let mut rng = StdRng::seed_from_u64(1);
        let space = SearchSpace::tiny(2, 16, 4, vec![4, 8, 16]);
        assert!(
            SweepSearch::new(space, sweep_targets(), CoSearchConfig::default(), &mut rng).is_err()
        );
    }

    #[test]
    fn sweep_produces_per_target_results() {
        let (mut sweep, train, val, mut rng) = tiny_sweep();
        let out = sweep.run(&train, &val, &mut rng).unwrap();
        assert_eq!(out.targets.len(), 3);
        for t in &out.targets {
            assert_eq!(t.outcome.history.len(), 3);
            assert_eq!(t.outcome.derived.blocks.len(), 3);
            assert!(!t.front.is_empty(), "every target accumulates a front");
            for p in &t.front {
                assert_eq!(p.target, t.target.key());
                assert!(p.perf_ms > 0.0);
            }
            // Warmup epoch: no arch steps yet.
            assert_eq!(t.outcome.history[0].expected_perf, 0.0);
            assert!(t.outcome.history[2].expected_perf > 0.0);
            for h in &t.outcome.history {
                assert_eq!(h.target, t.target.key());
                assert!(h.train_loss.is_finite());
            }
        }
        // Throughput target's resource axis is DSPs; GPU's is 0.
        assert_eq!(out.targets[0].front[0].resource, 0.0);
        assert!(out.targets[1].front[0].resource > 0.0);
    }

    #[test]
    fn history_csv_interleaves_targets() {
        let (mut sweep, train, val, mut rng) = tiny_sweep();
        let out = sweep.run(&train, &val, &mut rng).unwrap();
        let csv = out.history_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 1 + 3 * 3);
        assert!(lines[0].ends_with(",target"));
        // Epoch 0 rows come first, in target-key order.
        assert!(lines[1].ends_with(",fpga-pipelined"));
        assert!(lines[2].ends_with(",fpga-recursive"));
        assert!(lines[3].ends_with(",gpu"));
    }

    #[test]
    fn summary_json_lists_all_targets() {
        let (mut sweep, train, val, mut rng) = tiny_sweep();
        let out = sweep.run(&train, &val, &mut rng).unwrap();
        let json = out.summary_json();
        for key in ["gpu", "fpga-recursive", "fpga-pipelined"] {
            assert!(json.contains(&format!("\"target\": \"{key}\"")), "{json}");
        }
        assert!(json.contains("\"perf_ms\""));
        assert!(json.contains("\"arch_digest\""));
    }

    #[test]
    fn resume_matches_uninterrupted_sweep() {
        let dir = std::env::temp_dir().join(format!("edd-sweep-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (mut full, train, val, mut rng) = tiny_sweep();
        let full_out = full.run(&train, &val, &mut rng).unwrap();

        let (mut part, train2, val2, mut rng2) = tiny_sweep();
        part.checkpoint_into(&dir).checkpoint_keep(1);
        part.run_until(&train2, &val2, &mut rng2, 2).unwrap();

        let (mut resumed, train3, val3, _) = tiny_sweep();
        let mut other_rng = StdRng::seed_from_u64(999);
        resumed.checkpoint_into(&dir);
        resumed.resume_from(&dir).unwrap();
        let res_out = resumed.run(&train3, &val3, &mut other_rng).unwrap();

        assert_eq!(full_out.targets.len(), res_out.targets.len());
        for (a, b) in full_out.targets.iter().zip(&res_out.targets) {
            assert_eq!(a.outcome.history, b.outcome.history);
            assert_eq!(
                a.outcome.derived.to_json().unwrap(),
                b.outcome.derived.to_json().unwrap()
            );
            assert_eq!(a.front, b.front);
        }
        assert_eq!(full_out.summary_json(), res_out.summary_json());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_different_target_list() {
        let dir = std::env::temp_dir().join(format!("edd-sweep-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut a, train, val, mut rng) = tiny_sweep();
        a.checkpoint_into(&dir);
        a.run_until(&train, &val, &mut rng, 1).unwrap();

        let mut rng2 = StdRng::seed_from_u64(7);
        let space = SearchSpace::tiny(3, 16, 4, vec![8, 16]);
        let config = CoSearchConfig {
            epochs: 3,
            warmup_epochs: 1,
            ..CoSearchConfig::default()
        };
        let two = vec![
            DeviceTarget::Gpu(GpuDevice::titan_rtx()),
            DeviceTarget::FpgaRecursive(FpgaDevice::zcu102()),
        ];
        let mut b = SweepSearch::new(space, two, config, &mut rng2).unwrap();
        // The directory holds no snapshot of this target list, and the
        // other list's file, passed by path, fails the fingerprint.
        let err = b.resume_from(&dir).unwrap_err();
        assert!(
            err.to_string()
                .contains("no ckpt-gpu+fpga-recursive-*.edds"),
            "{err}"
        );
        let file = dir.join(SweepSnapshot::file_name(
            "gpu+fpga-recursive+fpga-pipelined",
            0,
        ));
        let err = b.resume_from(&file).unwrap_err();
        assert!(
            err.to_string().contains("different search configuration"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_hostile_snapshots_before_changing_state() {
        let dir = std::env::temp_dir().join(format!("edd-sweep-hostile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut a, train, val, mut rng) = tiny_sweep();
        a.checkpoint_into(&dir);
        a.run_until(&train, &val, &mut rng, 1).unwrap();
        let file = dir.join(SweepSnapshot::file_name(
            "gpu+fpga-recursive+fpga-pipelined",
            0,
        ));
        let good = SweepSnapshot::load(&file).unwrap();

        // Each edit keeps the fingerprint, and `save` writes a fresh CRC, so
        // only the checks on apply stand between the file and the search.
        let mut flat = good.clone();
        let w = &flat.weights[0];
        flat.weights[0] = edd_tensor::Array::from_vec(w.data().to_vec(), &[w.len()]).unwrap();
        let mut no_bn = good.clone();
        no_bn.bn_stats.pop();
        let mut renamed = good.clone();
        renamed.targets[2].key = "dedicated".into();
        let mut no_stream = good.clone();
        no_stream.targets[1].rng = None;
        let mut last_step = good;
        last_step.targets[0].adam.t = u64::MAX;
        for (snap, want) in [
            (flat, "weight 0 has shape [432]"),
            (no_bn, "batch-norm layers"),
            (renamed, "target `dedicated`"),
            (no_stream, "target `fpga-recursive`"),
            (last_step, "step count 18446744073709551615"),
        ] {
            snap.save(&file).unwrap();
            let (mut b, train, val, mut rng) = tiny_sweep();
            let before: Vec<Vec<f32>> = b
                .supernet
                .weight_params()
                .iter()
                .map(|p| p.value().data().to_vec())
                .collect();
            b.resume_from(&dir).unwrap();
            let err = b.run(&train, &val, &mut rng).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
            let after: Vec<Vec<f32>> = b
                .supernet
                .weight_params()
                .iter()
                .map(|p| p.value().data().to_vec())
                .collect();
            assert_eq!(before, after, "a rejected snapshot changed the weights");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_emits_sweep_events() {
        use edd_runtime::telemetry::JsonlSink;
        use std::sync::Arc;

        let path =
            std::env::temp_dir().join(format!("edd-sweep-trace-{}.jsonl", std::process::id()));
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        let _sink = crate::TELEMETRY_SINK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        telemetry::set_global(sink);
        let (mut sweep, train, val, mut rng) = tiny_sweep();
        let out = sweep.run(&train, &val, &mut rng);
        telemetry::global().flush();
        telemetry::clear_global();
        out.unwrap();

        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"name\":\"sweep.epoch\""), "{trace}");
        assert!(trace.contains("\"name\":\"sweep.target\""), "{trace}");
        assert!(trace.contains("\"weight_ms\""), "{trace}");
        assert!(trace.contains("\"arch_ms\""), "{trace}");
        assert!(trace.contains("sweep.weight_steps"), "{trace}");
        assert!(trace.contains("\"target\":\"fpga-pipelined\""), "{trace}");
        // Per-target epoch records share the single-target event name.
        assert!(trace.contains("\"name\":\"search.epoch\""), "{trace}");
        std::fs::remove_file(&path).unwrap();
    }

    /// The sweep's amortization claim, counted exactly: three targets
    /// share one weight phase, so they take as many weight steps as one
    /// target does on the same data.
    #[test]
    fn three_targets_take_the_weight_steps_of_one() {
        use edd_runtime::telemetry::{Event, EventKind, Sink, Value};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Sums `sweep.weight_steps` emitted on the thread that built it;
        /// other tests' searches run on other threads.
        struct WeightSteps(std::thread::ThreadId, AtomicU64);
        impl Sink for WeightSteps {
            fn emit(&self, e: &Event<'_>) {
                if let (EventKind::Counter, "sweep.weight_steps", Some(Value::U64(n))) =
                    (e.kind, e.name, &e.value)
                {
                    if std::thread::current().id() == self.0 {
                        self.1.fetch_add(*n, Ordering::Relaxed);
                    }
                }
            }
        }
        let steps = |targets: Vec<DeviceTarget>| {
            let (mut sweep, train, val, mut rng) = tiny_sweep_of(targets);
            let sink = Arc::new(WeightSteps(std::thread::current().id(), AtomicU64::new(0)));
            let _sink = crate::TELEMETRY_SINK
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            telemetry::set_global(sink.clone());
            let out = sweep.run(&train, &val, &mut rng);
            telemetry::clear_global();
            out.unwrap();
            (sink.1.load(Ordering::Relaxed), train.len())
        };
        let (one, batches) = steps(sweep_targets()[..1].to_vec());
        let (three, _) = steps(sweep_targets());
        assert_eq!(
            one,
            3 * batches as u64,
            "one weight step per batch and epoch"
        );
        assert_eq!(three, one, "a 3-target sweep repeats weight steps");
    }

    /// A phase that fails part-way hands every leaf back thawed: a
    /// training label out of range fails the weight phase (arch leaves
    /// frozen) through its `?`, and a validation label out of range fails
    /// the first arch step (weights frozen), for one target on the driver
    /// thread and for three on the pool.
    #[test]
    fn a_failed_phase_thaws_every_leaf() {
        for targets in [sweep_targets()[..1].to_vec(), sweep_targets()] {
            for corrupt_train in [true, false] {
                let (mut sweep, mut train, mut val, mut rng) = tiny_sweep_of(targets.clone());
                let split = if corrupt_train { &mut train } else { &mut val };
                split[0].labels[0] = 99;
                let err = sweep.run(&train, &val, &mut rng).unwrap_err();
                let what = format!("{} targets, corrupt train {corrupt_train}", targets.len());
                assert!(err.to_string().contains("label 99"), "{what}: {err}");
                let mut leaves = sweep.supernet.weight_params();
                leaves.extend(sweep.targets.iter().flat_map(|t| t.arch.all_params()));
                assert!(leaves.iter().all(Tensor::requires_grad), "{what}");
            }
        }
    }

    #[test]
    fn frozen_restores_each_leafs_own_flag() {
        let live = Tensor::param(edd_tensor::Array::zeros(&[2]));
        let off = Tensor::param(edd_tensor::Array::zeros(&[2]));
        off.set_requires_grad(false);
        {
            let _frozen = Frozen::new([live.clone(), off.clone()]);
            assert!(!live.requires_grad() && !off.requires_grad());
        }
        assert!(live.requires_grad());
        assert!(!off.requires_grad());
    }

    #[test]
    fn hw_point_covers_every_family() {
        let mut rng = StdRng::seed_from_u64(3);
        let space = SearchSpace::tiny(2, 16, 4, vec![8, 16]);
        for target in [
            DeviceTarget::Gpu(GpuDevice::titan_rtx()),
            DeviceTarget::FpgaRecursive(FpgaDevice::zcu102()),
            DeviceTarget::FpgaPipelined(FpgaDevice::zc706()),
            DeviceTarget::Dedicated(edd_hw::AccelDevice::loom_like()),
        ] {
            let arch = ArchParams::init(&space, &target, &mut rng);
            let derived = DerivedArch::from_params(&space, &target, &arch);
            let p = hw_point(&target, &derived).unwrap();
            assert!(p.perf_ms > 0.0, "{target:?}");
        }
    }
}
