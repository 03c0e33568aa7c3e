//! Full-state search snapshots: everything [`crate::CoSearch`] needs to
//! resume an interrupted run bit-identically.
//!
//! A [`SearchSnapshot`] captures, after a completed epoch:
//!
//! * every supernet weight tensor (in `weight_params()` order) and every
//!   batch-norm running statistic (in `batch_norms()` order);
//! * the architecture variables `Θ`, `Φ`, `pf` (via [`ArchCheckpoint`]);
//! * both optimizers' moments (SGD velocity, Adam `t`/`m`/`v`);
//! * the RNG state (so Gumbel draws continue mid-stream) and the epoch
//!   counter (which pins the temperature-schedule position);
//! * the metric history and the best-so-far derived architecture.
//!
//! All `f32` data is stored as IEEE-754 bit patterns inside an
//! `edd-runtime` snapshot container (magic, version, CRC-32, atomic
//! writes), and a **fingerprint** of the search configuration is embedded
//! so a snapshot cannot be silently applied to a differently-shaped search.
//! Combined with the kernel layer's bitwise thread-count invariance, resume
//! equality holds across `EDD_NUM_THREADS` settings too.

use crate::arch_params::ArchCheckpoint;
use crate::pareto::ParetoPoint;
use crate::search::{CoSearchConfig, EpochRecord};
use crate::space::SearchSpace;
use crate::target::DeviceTarget;
use edd_runtime::snapshot::{self, ByteReader, ByteWriter, SectionWriter, Sections};
use edd_tensor::optim::AdamState;
use edd_tensor::{Array, Result, TensorError};
use rand::rngs::StdRng;
use rand::Rng;
use std::path::Path;

/// Schema version of the search-snapshot payload (inside the container's
/// own format version). Version 2 added the `target` label to each
/// history record.
pub const SEARCH_SNAPSHOT_SCHEMA: u32 = 2;

/// File-name prefix of search snapshots (`search-00000012.edds`).
pub const SNAPSHOT_PREFIX: &str = "search-";

/// Schema version of the sweep-snapshot payload: shared supernet state
/// plus all per-target architecture/optimizer/RNG states of one
/// multi-target sweep.
pub const SWEEP_SNAPSHOT_SCHEMA: u32 = 1;

/// File-name prefix of sweep snapshots (`sweep-00000012.edds`). Distinct
/// from [`SNAPSHOT_PREFIX`] so sweeps and single-target searches can share
/// a checkpoint directory.
pub const SWEEP_PREFIX: &str = "sweep-";

/// RNGs a resumable search can run with: random draws plus full state
/// capture/restore. The vendored [`StdRng`] (xoshiro256++) implements it;
/// any custom generator with serializable state can too.
pub trait SearchRng: Rng {
    /// The generator's complete state.
    fn state_words(&self) -> [u64; 4];
    /// Restores state captured by [`SearchRng::state_words`].
    fn restore_state_words(&mut self, words: [u64; 4]);
}

impl SearchRng for StdRng {
    fn state_words(&self) -> [u64; 4] {
        self.state()
    }

    fn restore_state_words(&mut self, words: [u64; 4]) {
        self.set_state(words);
    }
}

fn snap_err(e: snapshot::SnapshotError) -> TensorError {
    TensorError::InvalidArgument(format!("search snapshot: {e}"))
}

fn io_err(what: &str, e: &std::io::Error) -> TensorError {
    TensorError::InvalidArgument(format!("search snapshot {what}: {e}"))
}

/// The configuration fingerprint embedded in every snapshot. Two searches
/// with equal fingerprints have identically-shaped state, so a snapshot
/// from one can be applied to the other.
#[must_use]
pub fn fingerprint(space: &SearchSpace, target: &DeviceTarget, config: &CoSearchConfig) -> String {
    format!(
        "space={};N={};M={};Q={};bits={:?};target={};epochs={};weight_lr={};\
         weight_momentum={};arch_lr={};tau_start={};tau_end={};warmup={};bilevel={};\
         clip={:?};alpha={};beta={};kappa={}",
        space.name,
        space.num_blocks(),
        space.num_ops(),
        space.num_quant(),
        space.quant_bits,
        target.label(),
        config.epochs,
        config.weight_lr,
        config.weight_momentum,
        config.arch_lr,
        config.tau_start,
        config.tau_end,
        config.warmup_epochs,
        config.bilevel,
        config.clip_grad_norm,
        config.loss.alpha,
        config.loss.beta,
        config.loss.penalty_sharpness,
    )
}

/// Complete serializable state of a search after some epoch.
#[derive(Debug, Clone)]
pub struct SearchSnapshot {
    /// Configuration fingerprint (checked on apply).
    pub fingerprint: String,
    /// Last *completed* epoch; resume starts at `epoch + 1`.
    pub epoch: usize,
    /// RNG state after the completed epoch's draws.
    pub rng: [u64; 4],
    /// Supernet weights in `weight_params()` order.
    pub weights: Vec<Array>,
    /// Batch-norm `(running_mean, running_var)` pairs in `batch_norms()`
    /// order.
    pub bn_stats: Vec<(Array, Array)>,
    /// Architecture variables.
    pub arch: ArchCheckpoint,
    /// SGD momentum buffers.
    pub sgd_velocity: Vec<Option<Array>>,
    /// Adam step count and moments.
    pub adam: AdamState,
    /// Epoch history up to and including `epoch`.
    pub history: Vec<EpochRecord>,
    /// Best validation epoch so far: `(epoch, val_acc, derived-arch JSON)`.
    pub best: Option<(usize, f32, String)>,
}

fn put_array(w: &mut ByteWriter, a: &Array) {
    let shape = a.shape();
    w.put_u64(shape.len() as u64);
    for &d in shape {
        w.put_u64(d as u64);
    }
    w.put_f32_slice(a.data());
}

fn get_array(r: &mut ByteReader<'_>) -> Result<Array> {
    let ndim = r.get_count(8).map_err(snap_err)?;
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        shape.push(r.get_u64().map_err(snap_err)? as usize);
    }
    let data = r.get_f32_vec().map_err(snap_err)?;
    Array::from_vec(data, &shape)
}

fn put_opt_arrays(w: &mut ByteWriter, items: &[Option<Array>]) {
    w.put_u64(items.len() as u64);
    for item in items {
        match item {
            Some(a) => {
                w.put_u8(1);
                put_array(w, a);
            }
            None => w.put_u8(0),
        }
    }
}

fn get_opt_arrays(r: &mut ByteReader<'_>) -> Result<Vec<Option<Array>>> {
    let n = r.get_count(1).map_err(snap_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let present = r.get_u8().map_err(snap_err)?;
        out.push(match present {
            0 => None,
            1 => Some(get_array(r)?),
            other => {
                return Err(TensorError::InvalidArgument(format!(
                    "search snapshot: invalid presence byte {other}"
                )))
            }
        });
    }
    Ok(out)
}

fn put_f64_bits(w: &mut ByteWriter, v: f64) {
    w.put_u64(v.to_bits());
}

fn get_f64_bits(r: &mut ByteReader<'_>) -> Result<f64> {
    Ok(f64::from_bits(r.get_u64().map_err(snap_err)?))
}

pub(crate) fn put_history(w: &mut ByteWriter, history: &[EpochRecord]) {
    w.put_u64(history.len() as u64);
    for h in history {
        w.put_u64(h.epoch as u64);
        w.put_f32(h.train_loss);
        w.put_f32(h.train_acc);
        w.put_f32(h.val_acc);
        w.put_f32(h.expected_perf);
        w.put_f32(h.expected_res);
        w.put_f32(h.tau);
        w.put_str(&h.target);
    }
}

pub(crate) fn get_history(r: &mut ByteReader<'_>) -> Result<Vec<EpochRecord>> {
    let n = r.get_count(8).map_err(snap_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let epoch = r.get_u64().map_err(snap_err)? as usize;
        let train_loss = r.get_f32().map_err(snap_err)?;
        let train_acc = r.get_f32().map_err(snap_err)?;
        let val_acc = r.get_f32().map_err(snap_err)?;
        let expected_perf = r.get_f32().map_err(snap_err)?;
        let expected_res = r.get_f32().map_err(snap_err)?;
        let tau = r.get_f32().map_err(snap_err)?;
        let target = r.get_str().map_err(snap_err)?;
        out.push(EpochRecord {
            target,
            epoch,
            train_loss,
            train_acc,
            val_acc,
            expected_perf,
            expected_res,
            tau,
        });
    }
    Ok(out)
}

pub(crate) fn put_points(w: &mut ByteWriter, points: &[ParetoPoint]) {
    w.put_u64(points.len() as u64);
    for p in points {
        w.put_str(&p.target);
        w.put_u64(p.epoch as u64);
        w.put_f32(p.val_acc);
        put_f64_bits(w, p.perf_ms);
        put_f64_bits(w, p.resource);
        w.put_str(&p.arch_json);
    }
}

pub(crate) fn get_points(r: &mut ByteReader<'_>) -> Result<Vec<ParetoPoint>> {
    let n = r.get_count(8).map_err(snap_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let target = r.get_str().map_err(snap_err)?;
        let epoch = r.get_u64().map_err(snap_err)? as usize;
        let val_acc = r.get_f32().map_err(snap_err)?;
        let perf_ms = get_f64_bits(r)?;
        let resource = get_f64_bits(r)?;
        let arch_json = r.get_str().map_err(snap_err)?;
        out.push(ParetoPoint {
            target,
            epoch,
            val_acc,
            perf_ms,
            resource,
            arch_json,
        });
    }
    Ok(out)
}

fn put_f32_nested(w: &mut ByteWriter, rows: &[Vec<f32>]) {
    w.put_u64(rows.len() as u64);
    for row in rows {
        w.put_f32_slice(row);
    }
}

fn get_f32_nested(r: &mut ByteReader<'_>) -> Result<Vec<Vec<f32>>> {
    let n = r.get_count(8).map_err(snap_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.get_f32_vec().map_err(snap_err)?);
    }
    Ok(out)
}

impl SearchSnapshot {
    /// Serializes into an `edd-runtime` snapshot payload.
    #[must_use]
    pub fn to_payload(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.put_u32(SEARCH_SNAPSHOT_SCHEMA);
        meta.put_str(&self.fingerprint);
        meta.put_u64(self.epoch as u64);
        for w in self.rng {
            meta.put_u64(w);
        }

        let mut weights = ByteWriter::new();
        weights.put_u64(self.weights.len() as u64);
        for a in &self.weights {
            put_array(&mut weights, a);
        }

        let mut bn = ByteWriter::new();
        bn.put_u64(self.bn_stats.len() as u64);
        for (mean, var) in &self.bn_stats {
            put_array(&mut bn, mean);
            put_array(&mut bn, var);
        }

        let mut arch = ByteWriter::new();
        put_f32_nested(&mut arch, &self.arch.theta);
        put_f32_nested(&mut arch, &self.arch.phi);
        arch.put_f32_slice(&self.arch.pf);

        let mut sgd = ByteWriter::new();
        put_opt_arrays(&mut sgd, &self.sgd_velocity);

        let mut adam = ByteWriter::new();
        adam.put_u64(self.adam.t);
        put_opt_arrays(&mut adam, &self.adam.m);
        put_opt_arrays(&mut adam, &self.adam.v);

        let mut history = ByteWriter::new();
        put_history(&mut history, &self.history);

        let mut best = ByteWriter::new();
        match &self.best {
            Some((epoch, acc, json)) => {
                best.put_u8(1);
                best.put_u64(*epoch as u64);
                best.put_f32(*acc);
                best.put_str(json);
            }
            None => best.put_u8(0),
        }

        let mut sections = SectionWriter::new();
        sections.add("meta", &meta.into_bytes());
        sections.add("weights", &weights.into_bytes());
        sections.add("bn", &bn.into_bytes());
        sections.add("arch", &arch.into_bytes());
        sections.add("sgd", &sgd.into_bytes());
        sections.add("adam", &adam.into_bytes());
        sections.add("history", &history.into_bytes());
        sections.add("best", &best.into_bytes());
        sections.into_payload()
    }

    /// Parses a payload produced by [`SearchSnapshot::to_payload`].
    ///
    /// # Errors
    ///
    /// Returns an error on any structural mismatch; never panics on
    /// corrupt input.
    pub fn from_payload(payload: &[u8]) -> Result<Self> {
        let sections = Sections::parse(payload).map_err(snap_err)?;

        let mut meta = ByteReader::new(sections.require("meta").map_err(snap_err)?);
        let schema = meta.get_u32().map_err(snap_err)?;
        if schema != SEARCH_SNAPSHOT_SCHEMA {
            return Err(TensorError::InvalidArgument(format!(
                "search snapshot: unsupported schema version {schema}"
            )));
        }
        let fingerprint = meta.get_str().map_err(snap_err)?;
        let epoch = meta.get_u64().map_err(snap_err)? as usize;
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = meta.get_u64().map_err(snap_err)?;
        }

        let mut wr = ByteReader::new(sections.require("weights").map_err(snap_err)?);
        let n = wr.get_count(8).map_err(snap_err)?;
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            weights.push(get_array(&mut wr)?);
        }

        let mut br = ByteReader::new(sections.require("bn").map_err(snap_err)?);
        let n = br.get_count(8).map_err(snap_err)?;
        let mut bn_stats = Vec::with_capacity(n);
        for _ in 0..n {
            let mean = get_array(&mut br)?;
            let var = get_array(&mut br)?;
            bn_stats.push((mean, var));
        }

        let mut ar = ByteReader::new(sections.require("arch").map_err(snap_err)?);
        let arch = ArchCheckpoint {
            theta: get_f32_nested(&mut ar)?,
            phi: get_f32_nested(&mut ar)?,
            pf: ar.get_f32_vec().map_err(snap_err)?,
        };

        let mut sr = ByteReader::new(sections.require("sgd").map_err(snap_err)?);
        let sgd_velocity = get_opt_arrays(&mut sr)?;

        let mut adr = ByteReader::new(sections.require("adam").map_err(snap_err)?);
        let adam = AdamState {
            t: adr.get_u64().map_err(snap_err)?,
            m: get_opt_arrays(&mut adr)?,
            v: get_opt_arrays(&mut adr)?,
        };

        let mut hr = ByteReader::new(sections.require("history").map_err(snap_err)?);
        let history = get_history(&mut hr)?;

        let mut ber = ByteReader::new(sections.require("best").map_err(snap_err)?);
        let best = match ber.get_u8().map_err(snap_err)? {
            0 => None,
            1 => {
                let epoch = ber.get_u64().map_err(snap_err)? as usize;
                let acc = ber.get_f32().map_err(snap_err)?;
                let json = ber.get_str().map_err(snap_err)?;
                Some((epoch, acc, json))
            }
            other => {
                return Err(TensorError::InvalidArgument(format!(
                    "search snapshot: invalid best-presence byte {other}"
                )))
            }
        };

        Ok(SearchSnapshot {
            fingerprint,
            epoch,
            rng,
            weights,
            bn_stats,
            arch,
            sgd_velocity,
            adam,
            history,
            best,
        })
    }

    /// Writes this snapshot atomically to `path` (container format with
    /// CRC; temp file + fsync + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<()> {
        snapshot::write_atomic(path, &self.to_payload()).map_err(snap_err)
    }

    /// Loads and verifies a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, corruption (bad magic / truncation
    /// / CRC mismatch), or schema mismatch.
    pub fn load(path: &Path) -> Result<Self> {
        let payload = snapshot::read(path).map_err(snap_err)?;
        Self::from_payload(&payload)
    }

    /// The canonical file name for the snapshot of `epoch`
    /// (zero-padded so lexicographic order is epoch order).
    #[must_use]
    pub fn file_name(epoch: usize) -> String {
        format!("{SNAPSHOT_PREFIX}{epoch:08}.{}", snapshot::SNAPSHOT_EXT)
    }

    /// The file name for a *labeled* run's snapshot of `epoch`:
    /// `search-<label>-<epoch>.edds`. An empty label falls back to the
    /// historical unlabeled [`SearchSnapshot::file_name`], so labeled and
    /// unlabeled runs (and differently-labeled runs) can share one
    /// checkpoint directory without overwriting each other.
    #[must_use]
    pub fn labeled_file_name(label: &str, epoch: usize) -> String {
        if label.is_empty() {
            Self::file_name(epoch)
        } else {
            format!(
                "{SNAPSHOT_PREFIX}{label}-{epoch:08}.{}",
                snapshot::SNAPSHOT_EXT
            )
        }
    }
}

/// Whether `name` is exactly a snapshot of the run identified by
/// (`prefix`, `label`): `<prefix>[<label>-]<8 digits>.edds`. Prefix
/// matching alone is not enough — the unlabeled prefix `search-` is a
/// prefix of every labeled name, so retention pruning and resume must
/// match the digits strictly to avoid eating a sibling run's files.
fn snapshot_name_matches(name: &str, prefix: &str, label: &str) -> bool {
    let Some(rest) = name.strip_prefix(prefix) else {
        return false;
    };
    let rest = if label.is_empty() {
        rest
    } else {
        let Some(rest) = rest.strip_prefix(label).and_then(|r| r.strip_prefix('-')) else {
            return false;
        };
        rest
    };
    let Some(digits) = rest.strip_suffix(&format!(".{}", snapshot::SNAPSHOT_EXT)) else {
        return false;
    };
    digits.len() == 8 && digits.bytes().all(|b| b.is_ascii_digit())
}

/// Deletes all but the newest `keep` snapshots of the run identified by
/// `label` (empty = the unlabeled run) in `dir`, leaving other runs'
/// files untouched. Returns the surviving paths, newest last.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn prune_labeled_snapshots(
    dir: &Path,
    label: &str,
    keep: usize,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    snapshot::prune_snapshots_matching(dir, keep, &|name| {
        snapshot_name_matches(name, SNAPSHOT_PREFIX, label)
    })
}

/// Resolves a `--resume` argument for the run identified by `label`: a
/// snapshot file is used as-is, a directory resolves to that run's newest
/// snapshot (other labels' files are ignored).
///
/// # Errors
///
/// Returns an error when the path does not exist or the directory holds no
/// snapshots of this run.
pub fn resolve_labeled_resume_path(path: &Path, label: &str) -> Result<std::path::PathBuf> {
    if path.is_dir() {
        let mut found = snapshot::list_snapshots_matching(path, &|name| {
            snapshot_name_matches(name, SNAPSHOT_PREFIX, label)
        })
        .map_err(|e| io_err("dir scan", &e))?;
        found.pop().ok_or_else(|| {
            TensorError::InvalidArgument(format!(
                "no {} snapshots in {}",
                SearchSnapshot::labeled_file_name(label, 0).replace("00000000", "*"),
                path.display()
            ))
        })
    } else if path.exists() {
        Ok(path.to_path_buf())
    } else {
        Err(TensorError::InvalidArgument(format!(
            "resume path {} does not exist",
            path.display()
        )))
    }
}

/// Resolves a `--resume` argument for an unlabeled run: a snapshot file is
/// used as-is, a directory resolves to its newest `search-<epoch>.edds`
/// (labeled runs' files are ignored; see
/// [`resolve_labeled_resume_path`]).
///
/// # Errors
///
/// Returns an error when the path does not exist or the directory holds no
/// snapshots.
pub fn resolve_resume_path(path: &Path) -> Result<std::path::PathBuf> {
    resolve_labeled_resume_path(path, "")
}

/// The sweep-level configuration fingerprint: the per-target search
/// fingerprints joined in target order, so a sweep snapshot can only be
/// applied to a sweep with the same space, config, and exact target list.
#[must_use]
pub fn sweep_fingerprint(per_target: &[String]) -> String {
    format!(
        "sweep:v{SWEEP_SNAPSHOT_SCHEMA};T={};{}",
        per_target.len(),
        per_target.join("||")
    )
}

/// The per-target slice of a [`SweepSnapshot`]: everything that differs
/// between targets sharing one supernet — arch variables, the arch
/// optimizer, the per-target RNG stream, history, Pareto front, and the
/// best derived architecture.
#[derive(Debug, Clone)]
pub struct SweepTargetSnapshot {
    /// Stable target key (`DeviceTarget::key()`).
    pub key: String,
    /// Per-target arch-step RNG state.
    pub rng: [u64; 4],
    /// Architecture variables.
    pub arch: ArchCheckpoint,
    /// Adam step count and moments.
    pub adam: AdamState,
    /// Per-target epoch history.
    pub history: Vec<EpochRecord>,
    /// Current Pareto front of (accuracy, perf, resource) points.
    pub front: Vec<ParetoPoint>,
    /// Best validation epoch so far: `(epoch, val_acc, derived-arch JSON)`.
    pub best: Option<(usize, f32, String)>,
}

fn put_target_state(w: &mut ByteWriter, t: &SweepTargetSnapshot) {
    w.put_str(&t.key);
    for word in t.rng {
        w.put_u64(word);
    }
    put_f32_nested(w, &t.arch.theta);
    put_f32_nested(w, &t.arch.phi);
    w.put_f32_slice(&t.arch.pf);
    w.put_u64(t.adam.t);
    put_opt_arrays(w, &t.adam.m);
    put_opt_arrays(w, &t.adam.v);
    put_history(w, &t.history);
    put_points(w, &t.front);
    match &t.best {
        Some((epoch, acc, json)) => {
            w.put_u8(1);
            w.put_u64(*epoch as u64);
            w.put_f32(*acc);
            w.put_str(json);
        }
        None => w.put_u8(0),
    }
}

fn get_target_state(r: &mut ByteReader<'_>) -> Result<SweepTargetSnapshot> {
    let key = r.get_str().map_err(snap_err)?;
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.get_u64().map_err(snap_err)?;
    }
    let arch = ArchCheckpoint {
        theta: get_f32_nested(r)?,
        phi: get_f32_nested(r)?,
        pf: r.get_f32_vec().map_err(snap_err)?,
    };
    let adam = AdamState {
        t: r.get_u64().map_err(snap_err)?,
        m: get_opt_arrays(r)?,
        v: get_opt_arrays(r)?,
    };
    let history = get_history(r)?;
    let front = get_points(r)?;
    let best = match r.get_u8().map_err(snap_err)? {
        0 => None,
        1 => {
            let epoch = r.get_u64().map_err(snap_err)? as usize;
            let acc = r.get_f32().map_err(snap_err)?;
            let json = r.get_str().map_err(snap_err)?;
            Some((epoch, acc, json))
        }
        other => {
            return Err(TensorError::InvalidArgument(format!(
                "sweep snapshot: invalid best-presence byte {other}"
            )))
        }
    };
    Ok(SweepTargetSnapshot {
        key,
        rng,
        arch,
        adam,
        history,
        front,
        best,
    })
}

/// Complete serializable state of a multi-target sweep after some epoch:
/// the shared supernet (weights, BN stats, SGD momentum, weight-phase RNG)
/// once, plus one [`SweepTargetSnapshot`] per target. One file resumes the
/// whole sweep bit-identically.
#[derive(Debug, Clone)]
pub struct SweepSnapshot {
    /// Sweep-level fingerprint ([`sweep_fingerprint`]), checked on apply.
    pub fingerprint: String,
    /// Last *completed* epoch; resume starts at `epoch + 1`.
    pub epoch: usize,
    /// Shared weight-phase RNG state.
    pub rng: [u64; 4],
    /// Supernet weights in `weight_params()` order.
    pub weights: Vec<Array>,
    /// Batch-norm `(running_mean, running_var)` pairs.
    pub bn_stats: Vec<(Array, Array)>,
    /// SGD momentum buffers of the shared weight optimizer.
    pub sgd_velocity: Vec<Option<Array>>,
    /// Per-target states, in sweep target order.
    pub targets: Vec<SweepTargetSnapshot>,
}

impl SweepSnapshot {
    /// Serializes into an `edd-runtime` snapshot payload.
    #[must_use]
    pub fn to_payload(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.put_u32(SWEEP_SNAPSHOT_SCHEMA);
        meta.put_str(&self.fingerprint);
        meta.put_u64(self.epoch as u64);
        for w in self.rng {
            meta.put_u64(w);
        }

        let mut weights = ByteWriter::new();
        weights.put_u64(self.weights.len() as u64);
        for a in &self.weights {
            put_array(&mut weights, a);
        }

        let mut bn = ByteWriter::new();
        bn.put_u64(self.bn_stats.len() as u64);
        for (mean, var) in &self.bn_stats {
            put_array(&mut bn, mean);
            put_array(&mut bn, var);
        }

        let mut sgd = ByteWriter::new();
        put_opt_arrays(&mut sgd, &self.sgd_velocity);

        let mut targets = ByteWriter::new();
        targets.put_u64(self.targets.len() as u64);
        for t in &self.targets {
            put_target_state(&mut targets, t);
        }

        let mut sections = SectionWriter::new();
        sections.add("meta", &meta.into_bytes());
        sections.add("weights", &weights.into_bytes());
        sections.add("bn", &bn.into_bytes());
        sections.add("sgd", &sgd.into_bytes());
        sections.add("targets", &targets.into_bytes());
        sections.into_payload()
    }

    /// Parses a payload produced by [`SweepSnapshot::to_payload`].
    ///
    /// # Errors
    ///
    /// Returns an error on any structural mismatch; never panics on
    /// corrupt input.
    pub fn from_payload(payload: &[u8]) -> Result<Self> {
        let sections = Sections::parse(payload).map_err(snap_err)?;

        let mut meta = ByteReader::new(sections.require("meta").map_err(snap_err)?);
        let schema = meta.get_u32().map_err(snap_err)?;
        if schema != SWEEP_SNAPSHOT_SCHEMA {
            return Err(TensorError::InvalidArgument(format!(
                "sweep snapshot: unsupported schema version {schema}"
            )));
        }
        let fingerprint = meta.get_str().map_err(snap_err)?;
        let epoch = meta.get_u64().map_err(snap_err)? as usize;
        let mut rng = [0u64; 4];
        for w in &mut rng {
            *w = meta.get_u64().map_err(snap_err)?;
        }

        let mut wr = ByteReader::new(sections.require("weights").map_err(snap_err)?);
        let n = wr.get_count(8).map_err(snap_err)?;
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            weights.push(get_array(&mut wr)?);
        }

        let mut br = ByteReader::new(sections.require("bn").map_err(snap_err)?);
        let n = br.get_count(8).map_err(snap_err)?;
        let mut bn_stats = Vec::with_capacity(n);
        for _ in 0..n {
            let mean = get_array(&mut br)?;
            let var = get_array(&mut br)?;
            bn_stats.push((mean, var));
        }

        let mut sr = ByteReader::new(sections.require("sgd").map_err(snap_err)?);
        let sgd_velocity = get_opt_arrays(&mut sr)?;

        let mut tr = ByteReader::new(sections.require("targets").map_err(snap_err)?);
        let n = tr.get_count(1).map_err(snap_err)?;
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            targets.push(get_target_state(&mut tr)?);
        }

        Ok(SweepSnapshot {
            fingerprint,
            epoch,
            rng,
            weights,
            bn_stats,
            sgd_velocity,
            targets,
        })
    }

    /// Writes this snapshot atomically to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> Result<()> {
        snapshot::write_atomic(path, &self.to_payload()).map_err(snap_err)
    }

    /// Loads and verifies a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, corruption, or schema mismatch.
    pub fn load(path: &Path) -> Result<Self> {
        let payload = snapshot::read(path).map_err(snap_err)?;
        Self::from_payload(&payload)
    }

    /// The canonical file name for the sweep snapshot of `epoch`.
    #[must_use]
    pub fn file_name(epoch: usize) -> String {
        format!("{SWEEP_PREFIX}{epoch:08}.{}", snapshot::SNAPSHOT_EXT)
    }
}

/// Deletes all but the newest `keep` sweep snapshots in `dir`, leaving
/// single-target (`search-*`) files untouched. Returns survivors, newest
/// last.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn prune_sweep_snapshots(dir: &Path, keep: usize) -> std::io::Result<Vec<std::path::PathBuf>> {
    snapshot::prune_snapshots_matching(dir, keep, &|name| {
        snapshot_name_matches(name, SWEEP_PREFIX, "")
    })
}

/// Resolves a sweep `--resume` argument: a snapshot file is used as-is, a
/// directory resolves to its newest `sweep-<epoch>.edds`.
///
/// # Errors
///
/// Returns an error when the path does not exist or the directory holds no
/// sweep snapshots.
pub fn resolve_sweep_resume_path(path: &Path) -> Result<std::path::PathBuf> {
    if path.is_dir() {
        let mut found = snapshot::list_snapshots_matching(path, &|name| {
            snapshot_name_matches(name, SWEEP_PREFIX, "")
        })
        .map_err(|e| io_err("dir scan", &e))?;
        found.pop().ok_or_else(|| {
            TensorError::InvalidArgument(format!(
                "no {SWEEP_PREFIX}*.{} snapshots in {}",
                snapshot::SNAPSHOT_EXT,
                path.display()
            ))
        })
    } else if path.exists() {
        Ok(path.to_path_buf())
    } else {
        Err(TensorError::InvalidArgument(format!(
            "resume path {} does not exist",
            path.display()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_snapshot() -> SearchSnapshot {
        SearchSnapshot {
            fingerprint: "space=tiny;N=3".into(),
            epoch: 7,
            rng: [1, u64::MAX, 3, 0x0123_4567_89AB_CDEF],
            weights: vec![
                Array::from_vec(vec![0.1, -0.2, f32::MIN_POSITIVE], &[3]).unwrap(),
                Array::from_vec(vec![1.0; 12], &[2, 2, 3]).unwrap(),
            ],
            bn_stats: vec![(
                Array::from_vec(vec![0.5, 0.25], &[2]).unwrap(),
                Array::from_vec(vec![1.5, 2.25], &[2]).unwrap(),
            )],
            arch: ArchCheckpoint {
                theta: vec![vec![0.1, 0.2], vec![-0.3, 0.4]],
                phi: vec![vec![1.0, 2.0, 3.0]],
                pf: vec![6.5],
            },
            sgd_velocity: vec![
                None,
                Some(Array::from_vec(vec![0.0; 12], &[2, 2, 3]).unwrap()),
            ],
            adam: AdamState {
                t: 42,
                m: vec![Some(Array::from_vec(vec![0.125], &[1]).unwrap())],
                v: vec![None],
            },
            history: vec![EpochRecord {
                target: "fpga-recursive".into(),
                epoch: 0,
                train_loss: 1.5,
                train_acc: 0.25,
                val_acc: 0.5,
                expected_perf: 3.25,
                expected_res: 100.0,
                tau: 5.0,
            }],
            best: Some((0, 0.5, "{\"blocks\":[]}".into())),
        }
    }

    fn sample_sweep_snapshot() -> SweepSnapshot {
        let base = sample_snapshot();
        let mk_target = |key: &str, seed: u64| SweepTargetSnapshot {
            key: key.into(),
            rng: [seed, seed + 1, seed + 2, seed + 3],
            arch: base.arch.clone(),
            adam: AdamState {
                t: seed,
                m: vec![Some(Array::from_vec(vec![0.5], &[1]).unwrap())],
                v: vec![None],
            },
            history: base
                .history
                .iter()
                .cloned()
                .map(|mut h| {
                    h.target = key.into();
                    h
                })
                .collect(),
            front: vec![ParetoPoint {
                target: key.into(),
                epoch: 0,
                val_acc: 0.5,
                perf_ms: std::f64::consts::PI,
                resource: 128.0,
                arch_json: "{\"blocks\":[]}".into(),
            }],
            best: Some((0, 0.5, "{\"blocks\":[]}".into())),
        };
        SweepSnapshot {
            fingerprint: sweep_fingerprint(&["a".into(), "b".into()]),
            epoch: 3,
            rng: base.rng,
            weights: base.weights.clone(),
            bn_stats: base.bn_stats.clone(),
            sgd_velocity: base.sgd_velocity.clone(),
            targets: vec![mk_target("gpu", 10), mk_target("fpga-pipelined", 20)],
        }
    }

    fn assert_snapshots_equal(a: &SearchSnapshot, b: &SearchSnapshot) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.rng, b.rng);
        assert_eq!(a.weights.len(), b.weights.len());
        for (x, y) in a.weights.iter().zip(&b.weights) {
            assert_eq!(x.shape(), y.shape());
            assert_eq!(x.data(), y.data());
        }
        assert_eq!(a.bn_stats.len(), b.bn_stats.len());
        for ((m1, v1), (m2, v2)) in a.bn_stats.iter().zip(&b.bn_stats) {
            assert_eq!(m1.data(), m2.data());
            assert_eq!(v1.data(), v2.data());
        }
        assert_eq!(a.arch, b.arch);
        assert_eq!(a.sgd_velocity.len(), b.sgd_velocity.len());
        assert_eq!(a.adam.t, b.adam.t);
        assert_eq!(a.history, b.history);
        assert_eq!(a.best, b.best);
    }

    #[test]
    fn payload_roundtrip() {
        let snap = sample_snapshot();
        let back = SearchSnapshot::from_payload(&snap.to_payload()).unwrap();
        assert_snapshots_equal(&snap, &back);
    }

    #[test]
    fn file_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("edd-core-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SearchSnapshot::file_name(7));
        let snap = sample_snapshot();
        snap.save(&path).unwrap();
        let back = SearchSnapshot::load(&path).unwrap();
        assert_snapshots_equal(&snap, &back);

        // Flip one byte in the middle of the file: load must error (CRC),
        // not panic or return garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(SearchSnapshot::load(&path).is_err());

        // Truncation must error too.
        bytes[mid] ^= 0x10; // restore
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&path, &bytes).unwrap();
        assert!(SearchSnapshot::load(&path).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resolve_resume_path_semantics() {
        let dir = std::env::temp_dir().join(format!("edd-core-resolve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Empty dir: error.
        assert!(resolve_resume_path(&dir).is_err());
        // Missing path: error.
        assert!(resolve_resume_path(&dir.join("nope.edds")).is_err());
        // Two snapshots: dir resolves to the newest.
        let s = sample_snapshot();
        s.save(&dir.join(SearchSnapshot::file_name(3))).unwrap();
        s.save(&dir.join(SearchSnapshot::file_name(11))).unwrap();
        let resolved = resolve_resume_path(&dir).unwrap();
        assert_eq!(resolved, dir.join(SearchSnapshot::file_name(11)));
        // A file resolves to itself.
        let file = dir.join(SearchSnapshot::file_name(3));
        assert_eq!(resolve_resume_path(&file).unwrap(), file);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn labeled_file_names_and_strict_matching() {
        assert_eq!(
            SearchSnapshot::labeled_file_name("", 7),
            SearchSnapshot::file_name(7)
        );
        assert_eq!(
            SearchSnapshot::labeled_file_name("gpu", 7),
            "search-gpu-00000007.edds"
        );
        // Unlabeled matcher must not see labeled files, and vice versa.
        assert!(snapshot_name_matches(
            "search-00000007.edds",
            SNAPSHOT_PREFIX,
            ""
        ));
        assert!(!snapshot_name_matches(
            "search-gpu-00000007.edds",
            SNAPSHOT_PREFIX,
            ""
        ));
        assert!(snapshot_name_matches(
            "search-gpu-00000007.edds",
            SNAPSHOT_PREFIX,
            "gpu"
        ));
        assert!(!snapshot_name_matches(
            "search-00000007.edds",
            SNAPSHOT_PREFIX,
            "gpu"
        ));
        // A label that prefixes another label must not cross-match.
        assert!(!snapshot_name_matches(
            "search-gpu2-00000007.edds",
            SNAPSHOT_PREFIX,
            "gpu"
        ));
        // Digit count and extension are strict.
        assert!(!snapshot_name_matches(
            "search-007.edds",
            SNAPSHOT_PREFIX,
            ""
        ));
        assert!(!snapshot_name_matches(
            "search-00000007.tmp",
            SNAPSHOT_PREFIX,
            ""
        ));
        assert!(!snapshot_name_matches(
            "sweep-00000007.edds",
            SNAPSHOT_PREFIX,
            ""
        ));
        assert!(snapshot_name_matches(
            "sweep-00000007.edds",
            SWEEP_PREFIX,
            ""
        ));
    }

    #[test]
    fn labeled_prune_and_resolve_ignore_sibling_runs() {
        let dir = std::env::temp_dir().join(format!("edd-core-labeled-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = sample_snapshot();
        for epoch in [1, 2, 3] {
            s.save(&dir.join(SearchSnapshot::labeled_file_name("gpu", epoch)))
                .unwrap();
        }
        s.save(&dir.join(SearchSnapshot::labeled_file_name("", 9)))
            .unwrap();
        s.save(&dir.join(SearchSnapshot::labeled_file_name("fpga", 1)))
            .unwrap();

        // Prune "gpu" to one file: unlabeled and "fpga" files survive.
        let removed = prune_labeled_snapshots(&dir, "gpu", 1).unwrap();
        assert_eq!(
            removed,
            vec![
                dir.join(SearchSnapshot::labeled_file_name("gpu", 1)),
                dir.join(SearchSnapshot::labeled_file_name("gpu", 2)),
            ]
        );
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "search-00000009.edds".to_string(),
                "search-fpga-00000001.edds".to_string(),
                "search-gpu-00000003.edds".to_string(),
            ]
        );

        // Labeled resolve picks this run's newest file; unlabeled resolve
        // ignores labeled files entirely.
        assert_eq!(
            resolve_labeled_resume_path(&dir, "gpu").unwrap(),
            dir.join(SearchSnapshot::labeled_file_name("gpu", 3))
        );
        assert_eq!(
            resolve_resume_path(&dir).unwrap(),
            dir.join(SearchSnapshot::file_name(9))
        );
        assert!(resolve_labeled_resume_path(&dir, "missing").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_payload_roundtrip() {
        let snap = sample_sweep_snapshot();
        let back = SweepSnapshot::from_payload(&snap.to_payload()).unwrap();
        assert_eq!(back.fingerprint, snap.fingerprint);
        assert_eq!(back.epoch, snap.epoch);
        assert_eq!(back.rng, snap.rng);
        assert_eq!(back.weights.len(), snap.weights.len());
        for (x, y) in snap.weights.iter().zip(&back.weights) {
            assert_eq!(x.data(), y.data());
        }
        assert_eq!(back.targets.len(), 2);
        for (a, b) in snap.targets.iter().zip(&back.targets) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.rng, b.rng);
            assert_eq!(a.arch, b.arch);
            assert_eq!(a.adam.t, b.adam.t);
            assert_eq!(a.history, b.history);
            assert_eq!(a.front.len(), b.front.len());
            for (p, q) in a.front.iter().zip(&b.front) {
                assert_eq!(p.target, q.target);
                assert_eq!(p.epoch, q.epoch);
                assert_eq!(p.val_acc.to_bits(), q.val_acc.to_bits());
                assert_eq!(p.perf_ms.to_bits(), q.perf_ms.to_bits());
                assert_eq!(p.resource.to_bits(), q.resource.to_bits());
                assert_eq!(p.arch_json, q.arch_json);
            }
            assert_eq!(a.best, b.best);
        }
    }

    #[test]
    fn sweep_file_roundtrip_resolve_and_prune() {
        let dir = std::env::temp_dir().join(format!("edd-core-sweep-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = sample_sweep_snapshot();
        snap.save(&dir.join(SweepSnapshot::file_name(1))).unwrap();
        snap.save(&dir.join(SweepSnapshot::file_name(4))).unwrap();
        // A single-target file in the same dir is invisible to the sweep.
        sample_snapshot()
            .save(&dir.join(SearchSnapshot::file_name(9)))
            .unwrap();

        assert_eq!(
            resolve_sweep_resume_path(&dir).unwrap(),
            dir.join(SweepSnapshot::file_name(4))
        );
        let back = SweepSnapshot::load(&dir.join(SweepSnapshot::file_name(4))).unwrap();
        assert_eq!(back.targets.len(), snap.targets.len());

        let removed = prune_sweep_snapshots(&dir, 1).unwrap();
        assert_eq!(removed, vec![dir.join(SweepSnapshot::file_name(1))]);
        assert!(dir.join(SweepSnapshot::file_name(4)).exists());
        assert!(dir.join(SearchSnapshot::file_name(9)).exists());

        // Loading a search snapshot as a sweep snapshot must fail cleanly.
        assert!(SweepSnapshot::load(&dir.join(SearchSnapshot::file_name(9))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn search_rng_roundtrip() {
        use rand::SeedableRng;
        let mut a = StdRng::seed_from_u64(9);
        a.gen::<u64>();
        let words = a.state_words();
        let expect: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let mut b = StdRng::seed_from_u64(0);
        b.restore_state_words(words);
        let got: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(expect, got);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn payload_roundtrip_arbitrary_fields(
            epoch in 0usize..1_000_000,
            rng_bits in (0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
            weight_bits in prop::collection::vec(0u32..=u32::MAX, 1..32),
            t in 0u64..=u64::MAX,
            acc_bits in 0u32..=u32::MAX,
        ) {
            // Arbitrary f32 bit patterns (NaNs included) must round-trip
            // bit-exactly through the snapshot payload.
            let weights: Vec<f32> = weight_bits.iter().map(|&b| f32::from_bits(b)).collect();
            let snap = SearchSnapshot {
                fingerprint: format!("fp-{epoch}"),
                epoch,
                rng: [rng_bits.0, rng_bits.1, rng_bits.2, rng_bits.3],
                weights: vec![Array::from_vec(weights.clone(), &[weights.len()]).unwrap()],
                bn_stats: vec![],
                arch: ArchCheckpoint { theta: vec![], phi: vec![], pf: vec![] },
                sgd_velocity: vec![None],
                adam: AdamState { t, m: vec![], v: vec![] },
                history: vec![],
                best: Some((epoch, f32::from_bits(acc_bits), "{}".into())),
            };
            let back = SearchSnapshot::from_payload(&snap.to_payload()).unwrap();
            prop_assert_eq!(back.epoch, epoch);
            prop_assert_eq!(back.rng, snap.rng);
            prop_assert_eq!(back.adam.t, t);
            let w = &back.weights[0];
            for (g, &bits) in w.data().iter().zip(&weight_bits) {
                prop_assert_eq!(g.to_bits(), bits);
            }
            let (be, ba, bj) = back.best.unwrap();
            prop_assert_eq!(be, epoch);
            prop_assert_eq!(ba.to_bits(), acc_bits);
            prop_assert_eq!(bj, "{}");
        }

        #[test]
        fn from_payload_never_panics_on_garbage(
            bytes in prop::collection::vec(0u8..=255, 0..256),
        ) {
            let _ = SearchSnapshot::from_payload(&bytes);
            prop_assert!(true);
        }
    }
}
