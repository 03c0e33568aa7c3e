//! The EDD co-search on one device target (paper §5), with its
//! hyperparameters, per-epoch records and outcome.
//!
//! [`CoSearch`] is the paper's single-target API: a thin front over a
//! one-target [`SweepSearch`], which owns the only epoch loop (see
//! [`crate::sweep`] for the bilevel step and for what running a single
//! target decides). It hides the target vector and returns the one target's
//! [`SearchOutcome`]; checkpointing, resume and telemetry are the sweep's.

use crate::arch_params::ArchParams;
use crate::checkpoint::SearchRng;
use crate::derive::DerivedArch;
use crate::loss::LossConfig;
use crate::space::SearchSpace;
use crate::supernet::SuperNet;
use crate::sweep::{SweepOutcome, SweepSearch};
use crate::target::DeviceTarget;
use edd_nn::Batch;
use edd_runtime::telemetry::Value;
use edd_tensor::Result;
use rand::Rng;
use std::path::{Path, PathBuf};

/// Hyperparameters of a co-search run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoSearchConfig {
    /// Number of search epochs (the paper runs 50).
    pub epochs: usize,
    /// SGD learning rate for DNN weights.
    pub weight_lr: f32,
    /// SGD momentum for DNN weights.
    pub weight_momentum: f32,
    /// Adam learning rate for `Θ, Φ, pf`.
    pub arch_lr: f32,
    /// Initial Gumbel-Softmax temperature.
    pub tau_start: f32,
    /// Final Gumbel-Softmax temperature.
    pub tau_end: f32,
    /// Epochs of weight-only warm-up before architecture updates begin.
    pub warmup_epochs: usize,
    /// If false, architecture steps use the training batches too
    /// (single-level ablation of the bilevel scheme).
    pub bilevel: bool,
    /// Optional global-norm clip applied to the DNN weight gradients each
    /// step (`None` = no clipping).
    pub clip_grad_norm: Option<f32>,
    /// Fused-loss hyperparameters.
    pub loss: LossConfig,
}

impl CoSearchConfig {
    /// The paper's §6 search hyperparameters: 50 epochs of bilevel search
    /// ("We run for fixed 50 epochs during the EDD search"), DARTS-style
    /// learning rates, temperature annealed over the full run. Intended for
    /// the full-scale space; laptop experiments use the shorter default.
    #[must_use]
    pub fn paper() -> Self {
        CoSearchConfig {
            epochs: 50,
            weight_lr: 0.025,
            weight_momentum: 0.9,
            arch_lr: 3e-3,
            tau_start: 5.0,
            tau_end: 0.1,
            warmup_epochs: 5,
            bilevel: true,
            clip_grad_norm: Some(5.0),
            loss: LossConfig::default(),
        }
    }
}

impl Default for CoSearchConfig {
    fn default() -> Self {
        CoSearchConfig {
            epochs: 12,
            weight_lr: 0.05,
            weight_momentum: 0.9,
            arch_lr: 0.02,
            tau_start: 3.0,
            tau_end: 0.3,
            warmup_epochs: 2,
            bilevel: true,
            clip_grad_norm: Some(5.0),
            loss: LossConfig::default(),
        }
    }
}

/// Metrics recorded after each search epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Stable target key ([`DeviceTarget::key`]) the record belongs to.
    /// Distinguishes per-target traces when several searches (or one
    /// multi-target sweep) write into the same history or telemetry
    /// stream.
    pub target: String,
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean sampled-path training loss.
    pub train_loss: f32,
    /// Mean sampled-path training accuracy.
    pub train_acc: f32,
    /// Validation accuracy of the current argmax architecture.
    pub val_acc: f32,
    /// Expected Stage-4 performance term (ms).
    pub expected_perf: f32,
    /// Expected Stage-4 resource usage (DSPs; 0 on GPU).
    pub expected_res: f32,
    /// Temperature used this epoch.
    pub tau: f32,
}

/// Result of a finished co-search.
#[derive(Debug)]
pub struct SearchOutcome {
    /// The derived (argmax) architecture at the end of the run.
    pub derived: DerivedArch,
    /// Per-epoch metric history.
    pub history: Vec<EpochRecord>,
    /// The architecture derived at the epoch with the highest validation
    /// accuracy (early-stopping candidate; equals `derived` when the last
    /// epoch was the best).
    pub best_derived: DerivedArch,
    /// Epoch index of `best_derived`.
    pub best_epoch: usize,
}

/// Name of the per-epoch telemetry event emitted by the search loop.
pub const EPOCH_EVENT: &str = "search.epoch";

/// Column order of [`SearchOutcome::history_csv`]; also the leading fields
/// of every [`EPOCH_EVENT`] telemetry record.
pub const EPOCH_CSV_COLUMNS: [&str; 8] = [
    "epoch",
    "train_loss",
    "train_acc",
    "val_acc",
    "expected_perf",
    "expected_res",
    "tau",
    "target",
];

/// The CSV-visible fields of one epoch record, in [`EPOCH_CSV_COLUMNS`]
/// order. `f32` metrics stay `Value::F32` so their `Display` output is
/// byte-identical to formatting the raw `f32`.
pub(crate) fn epoch_fields(h: &EpochRecord) -> [(&'static str, Value); 8] {
    [
        ("epoch", Value::U64(h.epoch as u64)),
        ("train_loss", Value::F32(h.train_loss)),
        ("train_acc", Value::F32(h.train_acc)),
        ("val_acc", Value::F32(h.val_acc)),
        ("expected_perf", Value::F32(h.expected_perf)),
        ("expected_res", Value::F32(h.expected_res)),
        ("tau", Value::F32(h.tau)),
        ("target", Value::Str(h.target.clone())),
    ]
}

/// FNV-1a (64-bit) of `bytes` as 16 hex digits — a cheap stable digest for
/// spotting when the argmax architecture changes between epochs.
pub(crate) fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

impl SearchOutcome {
    /// Serializes the epoch history as CSV (header + one row per epoch),
    /// for plotting search curves.
    #[must_use]
    pub fn history_csv(&self) -> String {
        history_to_csv(&self.history)
    }
}

/// The [`EPOCH_CSV_COLUMNS`] header, then one row per record of its
/// [`epoch_fields`]: the fields of the `search.epoch` event a live sink
/// observes, in column order. Shared by [`SearchOutcome::history_csv`] and
/// the sweep's flattened multi-target history export.
pub(crate) fn history_to_csv(history: &[EpochRecord]) -> String {
    let mut csv = EPOCH_CSV_COLUMNS.join(",");
    csv.push('\n');
    for h in history {
        let row: Vec<String> = epoch_fields(h).iter().map(|(_, v)| v.to_string()).collect();
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    csv
}

/// A configured single-target co-search: a [`SweepSearch`] over one
/// [`DeviceTarget`].
#[derive(Debug)]
pub struct CoSearch {
    sweep: SweepSearch,
}

impl CoSearch {
    /// Creates a co-search for `space` on `target`.
    ///
    /// # Errors
    ///
    /// Returns an error when the space's quantization menu is unsupported by
    /// the target (e.g. 4-bit on GPU).
    pub fn new<R: Rng + ?Sized>(
        space: SearchSpace,
        target: DeviceTarget,
        config: CoSearchConfig,
        rng: &mut R,
    ) -> Result<Self> {
        let sweep =
            SweepSearch::with_weight_span(space, vec![target], config, rng, "search.weight_phase")?;
        Ok(CoSearch { sweep })
    }

    /// Enables crash-safe checkpointing: after qualifying epochs a full
    /// snapshot is written atomically into `dir` as
    /// `ckpt-<target>-<epoch>.edds` (see [`SweepSearch::checkpoint_into`]).
    pub fn checkpoint_into(&mut self, dir: impl Into<PathBuf>) -> &mut Self {
        self.sweep.checkpoint_into(dir);
        self
    }

    /// Checkpoint cadence: write every `n` epochs (default 1). `0` disables
    /// periodic writes; the final epoch of a run is always snapshotted when
    /// a checkpoint directory is set.
    pub fn checkpoint_every(&mut self, n: usize) -> &mut Self {
        self.sweep.checkpoint_every(n);
        self
    }

    /// Retention: keep only the newest `k` snapshots of this target
    /// (default 3, floor 1).
    pub fn checkpoint_keep(&mut self, k: usize) -> &mut Self {
        self.sweep.checkpoint_keep(k);
        self
    }

    /// Schedules a resume from `path` — a snapshot file, or a checkpoint
    /// directory (resolved to this target's newest snapshot). The state is
    /// applied when the next `run*` call starts, which then continues from
    /// the epoch after the snapshotted one.
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot is missing, corrupt, of an earlier
    /// schema version, or was taken by a differently-configured search.
    pub fn resume_from(&mut self, path: &Path) -> Result<&mut Self> {
        self.sweep.resume_from(path)?;
        Ok(self)
    }

    /// The supernet under search.
    #[must_use]
    pub fn supernet(&self) -> &SuperNet {
        &self.sweep.supernet
    }

    /// The current architecture parameters.
    #[must_use]
    pub fn arch(&self) -> &ArchParams {
        &self.sweep.targets[0].arch
    }

    /// The device target.
    #[must_use]
    pub fn target(&self) -> &DeviceTarget {
        &self.sweep.targets[0].target
    }

    /// Temperature at `epoch` (geometric annealing).
    #[must_use]
    pub fn tau_at(&self, epoch: usize) -> f32 {
        self.sweep.tau_at(epoch)
    }

    /// Runs the full co-search over the given train/validation splits and
    /// derives the final architecture.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the supernet or the performance model,
    /// and checkpoint I/O errors when checkpointing is enabled.
    pub fn run<R: SearchRng + ?Sized>(
        &mut self,
        train: &[Batch],
        val: &[Batch],
        rng: &mut R,
    ) -> Result<SearchOutcome> {
        self.sweep.run(train, val, rng).map(only_target)
    }

    /// Runs the search but stops after `stop_after` epochs (clamped to the
    /// configured total), deriving from the state at that point. With
    /// checkpointing enabled the last executed epoch is always snapshotted,
    /// so a partial run models a crash-and-resume boundary exactly.
    ///
    /// # Errors
    ///
    /// Same as [`CoSearch::run`].
    pub fn run_until<R: SearchRng + ?Sized>(
        &mut self,
        train: &[Batch],
        val: &[Batch],
        rng: &mut R,
        stop_after: usize,
    ) -> Result<SearchOutcome> {
        self.sweep
            .run_until(train, val, rng, stop_after)
            .map(only_target)
    }
}

fn only_target(out: SweepOutcome) -> SearchOutcome {
    let mut targets = out.targets.into_iter();
    targets.next().expect("a co-search has one target").outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SweepSnapshot;
    use edd_data::{SynthConfig, SynthDataset};
    use edd_hw::FpgaDevice;
    use edd_runtime::telemetry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_search(bilevel: bool) -> (CoSearch, Vec<Batch>, Vec<Batch>, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
        let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
        let config = CoSearchConfig {
            epochs: 3,
            warmup_epochs: 1,
            bilevel,
            ..CoSearchConfig::default()
        };
        let search = CoSearch::new(space, target, config, &mut rng).unwrap();
        let data = SynthDataset::new(SynthConfig::tiny());
        let train = data.split(3, 8, 1);
        let val = data.split(2, 8, 2);
        (search, train, val, rng)
    }

    #[test]
    fn new_rejects_incompatible_quant_menu() {
        // 4-bit weights are not representable on the GPU target (TensorRT
        // floor is 8-bit); construction must fail up front.
        let mut rng = StdRng::seed_from_u64(1);
        let space = SearchSpace::tiny(2, 16, 4, vec![4, 8, 16]);
        let target = crate::target::DeviceTarget::Gpu(edd_hw::GpuDevice::titan_rtx());
        assert!(CoSearch::new(space, target, CoSearchConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn tau_anneals_geometrically() {
        let (search, _, _, _) = tiny_search(true);
        assert!((search.tau_at(0) - 3.0).abs() < 1e-5);
        assert!((search.tau_at(2) - 0.3).abs() < 1e-5);
        assert!(search.tau_at(1) < search.tau_at(0));
        assert!(search.tau_at(1) > search.tau_at(2));
    }

    #[test]
    fn run_produces_history_and_architecture() {
        let (mut search, train, val, mut rng) = tiny_search(true);
        let outcome = search.run(&train, &val, &mut rng).unwrap();
        assert_eq!(outcome.history.len(), 3);
        assert_eq!(outcome.derived.blocks.len(), 3);
        // Warmup epoch must not have arch updates -> zero expected perf.
        assert_eq!(outcome.history[0].expected_perf, 0.0);
        // Post-warmup epochs estimate performance.
        assert!(outcome.history[2].expected_perf > 0.0);
        assert!(outcome.history[2].expected_res > 0.0);
        // Losses should be finite and positive.
        assert!(outcome.history.iter().all(|h| h.train_loss.is_finite()));
    }

    #[test]
    fn best_epoch_tracks_peak_validation() {
        let (mut search, train, val, mut rng) = tiny_search(true);
        let outcome = search.run(&train, &val, &mut rng).unwrap();
        assert!(outcome.best_epoch < outcome.history.len());
        let best_acc = outcome.history[outcome.best_epoch].val_acc;
        for h in &outcome.history {
            assert!(h.val_acc <= best_acc + 1e-6);
        }
        assert_eq!(outcome.best_derived.blocks.len(), 3);
    }

    #[test]
    fn single_level_ablation_runs() {
        let (mut search, train, val, mut rng) = tiny_search(false);
        let outcome = search.run(&train, &val, &mut rng).unwrap();
        assert_eq!(outcome.history.len(), 3);
    }

    #[test]
    fn debug_format_mentions_target() {
        let (search, _, _, _) = tiny_search(true);
        assert!(format!("{search:?}").contains("FPGA-recursive"));
    }

    #[test]
    fn paper_config_matches_section6() {
        let c = CoSearchConfig::paper();
        assert_eq!(c.epochs, 50);
        assert!(c.bilevel);
        assert!(c.tau_start > c.tau_end);
    }

    #[test]
    fn history_exports_as_csv() {
        let (mut search, train, val, mut rng) = tiny_search(true);
        let outcome = search.run(&train, &val, &mut rng).unwrap();
        let csv = outcome.history_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 1 + outcome.history.len());
        assert!(lines[0].starts_with("epoch,train_loss"));
        assert!(lines[0].ends_with(",target"));
        assert_eq!(lines[1].split(',').count(), 8);
        assert!(lines[1].ends_with(",fpga-recursive"));
    }

    #[test]
    fn history_csv_matches_legacy_format() {
        // The bytes must match the original hand-formatted export.
        let (mut search, train, val, mut rng) = tiny_search(true);
        let outcome = search.run(&train, &val, &mut rng).unwrap();
        let mut expect = String::from(
            "epoch,train_loss,train_acc,val_acc,expected_perf,expected_res,tau,target\n",
        );
        for h in &outcome.history {
            expect.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                h.epoch,
                h.train_loss,
                h.train_acc,
                h.val_acc,
                h.expected_perf,
                h.expected_res,
                h.tau,
                h.target
            ));
        }
        assert_eq!(outcome.history_csv(), expect);
    }

    #[test]
    fn resume_matches_uninterrupted_run() {
        let dir = std::env::temp_dir().join(format!("edd-search-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Reference: uninterrupted 3-epoch run.
        let (mut full, train, val, mut rng) = tiny_search(true);
        let full_out = full.run(&train, &val, &mut rng).unwrap();

        // Interrupted run: checkpoint each epoch, keep only the newest, and
        // stop after 2 of 3 epochs ("crash" boundary).
        let (mut part, train2, val2, mut rng2) = tiny_search(true);
        part.checkpoint_into(&dir).checkpoint_keep(1);
        part.run_until(&train2, &val2, &mut rng2, 2).unwrap();
        let files =
            edd_runtime::snapshot::list_snapshots(&dir, &|n| n.starts_with("ckpt-")).unwrap();
        assert_eq!(files.len(), 1, "retention should prune to 1: {files:?}");
        assert!(files[0].ends_with(SweepSnapshot::file_name("fpga-recursive", 1)));

        // A fresh search resumes from the directory and must finish with a
        // byte-identical derived architecture and history.
        let (mut resumed, train3, val3, _) = tiny_search(true);
        let mut other_rng = StdRng::seed_from_u64(999); // replaced by the snapshot
        resumed.resume_from(&dir).unwrap();
        let res_out = resumed.run(&train3, &val3, &mut other_rng).unwrap();
        assert_eq!(full_out.history, res_out.history);
        assert_eq!(
            full_out.derived.to_json().unwrap(),
            res_out.derived.to_json().unwrap()
        );
        assert_eq!(
            full_out.best_derived.to_json().unwrap(),
            res_out.best_derived.to_json().unwrap()
        );
        assert_eq!(full_out.best_epoch, res_out.best_epoch);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn searches_on_other_targets_share_a_checkpoint_dir() {
        let dir = std::env::temp_dir().join(format!("edd-search-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Two targets write into one directory with keep=1: each target's
        // retention sees only its own snapshots.
        let (mut a, train, val, mut rng_a) = tiny_search(true);
        a.checkpoint_into(&dir).checkpoint_keep(1);
        a.run_until(&train, &val, &mut rng_a, 2).unwrap();
        let pipelined = || {
            let mut rng = StdRng::seed_from_u64(7);
            let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
            let target = DeviceTarget::FpgaPipelined(FpgaDevice::zc706());
            let config = CoSearchConfig {
                epochs: 3,
                warmup_epochs: 1,
                ..CoSearchConfig::default()
            };
            let search = CoSearch::new(space, target, config, &mut rng).unwrap();
            (search, rng)
        };
        let (mut b, mut rng_b) = pipelined();
        b.checkpoint_into(&dir).checkpoint_keep(1);
        b.run_until(&train, &val, &mut rng_b, 1).unwrap();

        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                SweepSnapshot::file_name("fpga-pipelined", 0),
                SweepSnapshot::file_name("fpga-recursive", 1),
            ],
            "each target keeps exactly its own newest snapshot"
        );

        // Each resume resolves to its own target's snapshot, and continues
        // to the same result as an uninterrupted run.
        let (mut full, train_f, val_f, mut rng_f) = tiny_search(true);
        let full_out = full.run(&train_f, &val_f, &mut rng_f).unwrap();
        let (mut resumed, train_r, val_r, _) = tiny_search(true);
        let mut other_rng = StdRng::seed_from_u64(123);
        resumed.resume_from(&dir).unwrap();
        let res_out = resumed.run(&train_r, &val_r, &mut other_rng).unwrap();
        assert_eq!(full_out.history, res_out.history);
        let (mut full_b, mut rng_fb) = pipelined();
        let full_b_out = full_b.run(&train, &val, &mut rng_fb).unwrap();
        let (mut resumed_b, _) = pipelined();
        resumed_b.resume_from(&dir).unwrap();
        let res_b_out = resumed_b.run(&train, &val, &mut other_rng).unwrap();
        assert_eq!(full_b_out.history, res_b_out.history);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_target_sweep_gives_cosearch_bits() {
        // A `SweepSearch` over one target runs the same loop as `CoSearch`,
        // so the same seed gives the same bytes, in bilevel and
        // single-level mode alike.
        for bilevel in [true, false] {
            let (mut search, train, val, mut rng) = tiny_search(bilevel);
            let co = search.run(&train, &val, &mut rng).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
            let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
            let config = CoSearchConfig {
                epochs: 3,
                warmup_epochs: 1,
                bilevel,
                ..CoSearchConfig::default()
            };
            let mut sweep = SweepSearch::new(space, vec![target], config, &mut rng).unwrap();
            let out = sweep.run(&train, &val, &mut rng).unwrap();
            let one = &out.targets[0].outcome;
            assert_eq!(co.history_csv(), one.history_csv());
            assert_eq!(
                co.derived.to_json().unwrap(),
                one.derived.to_json().unwrap()
            );
            assert_eq!(
                co.best_derived.to_json().unwrap(),
                one.best_derived.to_json().unwrap()
            );
            assert_eq!(co.best_epoch, one.best_epoch);
        }
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let dir = std::env::temp_dir().join(format!("edd-search-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut a, train, val, mut rng) = tiny_search(true);
        a.checkpoint_into(&dir);
        a.run_until(&train, &val, &mut rng, 1).unwrap();

        // Same space/target but a different epoch budget: the temperature
        // schedule would diverge, so the fingerprint must reject the resume.
        let mut rng2 = StdRng::seed_from_u64(7);
        let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
        let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
        let config = CoSearchConfig {
            epochs: 5,
            warmup_epochs: 1,
            ..CoSearchConfig::default()
        };
        let mut b = CoSearch::new(space, target, config, &mut rng2).unwrap();
        let err = b.resume_from(&dir).unwrap_err();
        assert!(
            err.to_string().contains("different search configuration"),
            "{err}"
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_records_epochs_and_kernel_gauges() {
        use edd_runtime::telemetry::JsonlSink;
        use std::sync::Arc;

        let path =
            std::env::temp_dir().join(format!("edd-search-trace-{}.jsonl", std::process::id()));
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        let _sink = crate::TELEMETRY_SINK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        telemetry::set_global(sink);
        let (mut search, train, val, mut rng) = tiny_search(true);
        let outcome = search.run(&train, &val, &mut rng);
        telemetry::global().flush();
        telemetry::clear_global();
        outcome.unwrap();

        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"name\":\"search.epoch\""), "{trace}");
        assert!(trace.contains("\"target\":\"fpga-recursive\""), "{trace}");
        assert!(trace.contains("res_penalty"));
        assert!(trace.contains("arch_digest"));
        assert!(trace.contains("kernel.pool_tasks"));
        assert!(trace.contains("search.weight_phase"));
        assert!(trace.contains("search.val_phase"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fnv_digest_is_stable_and_distinct() {
        assert_eq!(fnv1a_hex(b""), "cbf29ce484222325");
        assert_ne!(fnv1a_hex(b"a"), fnv1a_hex(b"b"));
        assert_eq!(fnv1a_hex(b"abc"), fnv1a_hex(b"abc"));
    }
}
