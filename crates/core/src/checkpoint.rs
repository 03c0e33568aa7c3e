//! Full-state search snapshots: everything a [`crate::SweepSearch`], and so
//! a single-target [`crate::CoSearch`], needs to resume an interrupted run
//! bit-identically.
//!
//! A [`SweepSnapshot`] captures, after a completed epoch, the state the
//! targets share:
//!
//! * every supernet weight tensor (in `weight_params()` order) and every
//!   batch-norm running statistic (in `batch_norms()` order);
//! * the SGD momentum of the shared weight optimizer;
//! * the driver RNG state (so Gumbel draws continue mid-stream) and the
//!   epoch counter (which pins the temperature-schedule position);
//!
//! and one [`SweepTargetSnapshot`] per target: its key, the architecture
//! variables `Θ`, `Φ`, `pf` (via [`ArchCheckpoint`]), its Adam moments, its
//! history, Pareto front and best-so-far derived architecture, and its own
//! RNG stream when the run has more than one target.
//!
//! All `f32` data is stored as IEEE-754 bit patterns inside an
//! `edd-runtime` snapshot container (magic, version, CRC-32, atomic
//! writes), and a **fingerprint** of the configuration is embedded so a
//! snapshot cannot be silently applied to a differently-shaped run.
//! Combined with the kernel layer's bitwise thread-count invariance, resume
//! equality holds across `EDD_NUM_THREADS` settings too.
//!
//! Files are named `ckpt-<run>-<epoch>.edds`, where `<run>` joins the
//! target keys with `+` (`ckpt-fpga-recursive-00000003.edds`,
//! `ckpt-gpu+fpga-pipelined-00000003.edds`), so runs over different targets
//! share a directory without pruning each other's files. No earlier format
//! used the `ckpt-` prefix, so retention and directory resume never match
//! `search-*` or `sweep-*` files; loading one by path fails with an error
//! that names its schema version.

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
use std::path::{Path, PathBuf};

/// Schema version of the snapshot payload (inside the container's own
/// format version). Version 3 replaced the single-target (2) and
/// multi-target (1) payloads with one.
pub const SNAPSHOT_SCHEMA: u32 = 3;

/// File-name prefix of snapshots (`ckpt-<run>-00000012.edds`).
const FILE_PREFIX: &str = "ckpt-";

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

fn invalid(msg: String) -> TensorError {
    TensorError::InvalidArgument(format!("search snapshot: {msg}"))
}

fn snap_err(e: snapshot::SnapshotError) -> TensorError {
    invalid(e.to_string())
}

/// The configuration fingerprint embedded in every snapshot: the space, the
/// config and the exact target list, in order. Two runs with equal
/// fingerprints have identically-shaped state, so a snapshot from one can
/// be applied to the other.
#[must_use]
pub(crate) fn fingerprint<'a>(
    space: &SearchSpace,
    targets: impl IntoIterator<Item = &'a DeviceTarget>,
    config: &CoSearchConfig,
) -> String {
    let targets: Vec<String> = targets.into_iter().map(DeviceTarget::label).collect();
    format!(
        "v{SNAPSHOT_SCHEMA};space={};N={};M={};Q={};bits={:?};targets={};epochs={};\
         weight_lr={};weight_momentum={};arch_lr={};tau_start={};tau_end={};warmup={};\
         bilevel={};clip={:?};alpha={};beta={};kappa={}",
        space.name,
        space.num_blocks(),
        space.num_ops(),
        space.num_quant(),
        space.quant_bits,
        targets.join("||"),
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
    // `Array::from_vec` takes the volume as an unchecked product.
    if shape
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .is_none()
    {
        return Err(invalid(format!("tensor shape {shape:?} overflows")));
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
        out.push(match r.get_u8().map_err(snap_err)? {
            0 => None,
            1 => Some(get_array(r)?),
            other => return Err(invalid(format!("invalid presence byte {other}"))),
        });
    }
    Ok(out)
}

fn put_words(w: &mut ByteWriter, words: [u64; 4]) {
    for word in words {
        w.put_u64(word);
    }
}

fn get_words(r: &mut ByteReader<'_>) -> Result<[u64; 4]> {
    let mut words = [0u64; 4];
    for word in &mut words {
        *word = r.get_u64().map_err(snap_err)?;
    }
    Ok(words)
}

fn put_history(w: &mut ByteWriter, history: &[EpochRecord]) {
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

fn get_history(r: &mut ByteReader<'_>) -> Result<Vec<EpochRecord>> {
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

fn put_points(w: &mut ByteWriter, points: &[ParetoPoint]) {
    w.put_u64(points.len() as u64);
    for p in points {
        w.put_str(&p.target);
        w.put_u64(p.epoch as u64);
        w.put_f32(p.val_acc);
        w.put_u64(p.perf_ms.to_bits());
        w.put_u64(p.resource.to_bits());
        w.put_str(&p.arch_json);
    }
}

fn get_points(r: &mut ByteReader<'_>) -> Result<Vec<ParetoPoint>> {
    let n = r.get_count(8).map_err(snap_err)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let target = r.get_str().map_err(snap_err)?;
        let epoch = r.get_u64().map_err(snap_err)? as usize;
        let val_acc = r.get_f32().map_err(snap_err)?;
        let perf_ms = f64::from_bits(r.get_u64().map_err(snap_err)?);
        let resource = f64::from_bits(r.get_u64().map_err(snap_err)?);
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

/// The per-target slice of a [`SweepSnapshot`]: everything that differs
/// between targets sharing one supernet.
#[derive(Debug, Clone)]
pub struct SweepTargetSnapshot {
    /// Stable target key (`DeviceTarget::key()`).
    pub key: String,
    /// The target's own arch-step RNG stream; `None` for a single-target
    /// run, whose arch steps draw from the driver RNG.
    pub rng: Option<[u64; 4]>,
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
    match t.rng {
        Some(words) => {
            w.put_u8(1);
            put_words(w, words);
        }
        None => w.put_u8(0),
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
    let rng = match r.get_u8().map_err(snap_err)? {
        0 => None,
        1 => Some(get_words(r)?),
        other => return Err(invalid(format!("invalid stream-presence byte {other}"))),
    };
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
        other => return Err(invalid(format!("invalid best-presence byte {other}"))),
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

/// Complete serializable state of a search after some epoch: the shared
/// supernet state (weights, BN stats, SGD momentum, driver RNG) once, plus
/// one [`SweepTargetSnapshot`] per target. One file resumes the whole run
/// bit-identically, for one target or several.
#[derive(Debug, Clone)]
pub struct SweepSnapshot {
    /// Fingerprint of the space, config and target list, checked on
    /// resume.
    pub fingerprint: String,
    /// Last *completed* epoch; resume starts at `epoch + 1`.
    pub epoch: usize,
    /// Driver RNG state after the completed epoch's draws.
    pub rng: [u64; 4],
    /// Supernet weights in `weight_params()` order.
    pub weights: Vec<Array>,
    /// Batch-norm `(running_mean, running_var)` pairs in `batch_norms()`
    /// order.
    pub bn_stats: Vec<(Array, Array)>,
    /// SGD momentum buffers of the shared weight optimizer.
    pub sgd_velocity: Vec<Option<Array>>,
    /// Per-target states, in target order.
    pub targets: Vec<SweepTargetSnapshot>,
}

fn section<'a>(sections: &Sections<'a>, name: &str) -> Result<ByteReader<'a>> {
    Ok(ByteReader::new(sections.require(name).map_err(snap_err)?))
}

impl SweepSnapshot {
    /// Serializes into an `edd-runtime` snapshot payload.
    #[must_use]
    pub fn to_payload(&self) -> Vec<u8> {
        let mut meta = ByteWriter::new();
        meta.put_u32(SNAPSHOT_SCHEMA);
        meta.put_str(&self.fingerprint);
        meta.put_u64(self.epoch as u64);
        put_words(&mut meta, self.rng);

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
    /// Returns an error on any structural mismatch, including a payload of
    /// an earlier schema version; never panics on corrupt input.
    pub fn from_payload(payload: &[u8]) -> Result<Self> {
        let sections = Sections::parse(payload).map_err(snap_err)?;

        let mut meta = section(&sections, "meta")?;
        let schema = meta.get_u32().map_err(snap_err)?;
        if schema != SNAPSHOT_SCHEMA {
            return Err(invalid(format!(
                "schema version {schema} is not supported; this build reads version \
                 {SNAPSHOT_SCHEMA} (search and sweep snapshots written before the two \
                 formats merged cannot be resumed)"
            )));
        }
        let fingerprint = meta.get_str().map_err(snap_err)?;
        let epoch = meta.get_u64().map_err(snap_err)? as usize;
        let rng = get_words(&mut meta)?;

        let mut wr = section(&sections, "weights")?;
        let n = wr.get_count(8).map_err(snap_err)?;
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            weights.push(get_array(&mut wr)?);
        }

        let mut br = section(&sections, "bn")?;
        let n = br.get_count(8).map_err(snap_err)?;
        let mut bn_stats = Vec::with_capacity(n);
        for _ in 0..n {
            let mean = get_array(&mut br)?;
            let var = get_array(&mut br)?;
            bn_stats.push((mean, var));
        }

        let sgd_velocity = get_opt_arrays(&mut section(&sections, "sgd")?)?;

        let mut tr = section(&sections, "targets")?;
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

    /// The file name of run `run`'s snapshot of `epoch`, where `run` is the
    /// target keys joined with `+` (zero-padded epoch, so lexicographic
    /// order is epoch order).
    #[must_use]
    pub fn file_name(run: &str, epoch: usize) -> String {
        format!("{FILE_PREFIX}{run}-{epoch:08}.{}", snapshot::SNAPSHOT_EXT)
    }
}

/// Whether `name` is exactly a snapshot of run `run`:
/// `ckpt-<run>-<8 digits>.edds`. Prefix matching alone is not enough —
/// `ckpt-gpu` prefixes `ckpt-gpu+fpga-recursive-…` — so retention pruning
/// and resume match the digits strictly to leave sibling runs' files alone.
fn snapshot_name_matches(name: &str, run: &str) -> bool {
    let Some(rest) = name
        .strip_prefix(FILE_PREFIX)
        .and_then(|r| r.strip_prefix(run))
        .and_then(|r| r.strip_prefix('-'))
        .and_then(|r| r.strip_suffix(&format!(".{}", snapshot::SNAPSHOT_EXT)))
    else {
        return false;
    };
    rest.len() == 8 && rest.bytes().all(|b| b.is_ascii_digit())
}

/// Deletes all but the newest `keep` snapshots of run `run` in `dir`,
/// leaving other runs' files untouched. Returns the deleted paths.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn prune_sweep_snapshots(
    dir: &Path,
    run: &str,
    keep: usize,
) -> std::io::Result<Vec<PathBuf>> {
    snapshot::prune_snapshots_matching(dir, keep, &|name| snapshot_name_matches(name, run))
}

/// Resolves a `--resume` argument for run `run`: a snapshot file is used
/// as-is, a directory resolves to that run's newest snapshot.
///
/// # Errors
///
/// Returns an error when the path does not exist or the directory holds no
/// snapshots of this run.
pub(crate) fn resolve_sweep_resume_path(path: &Path, run: &str) -> Result<PathBuf> {
    if path.is_dir() {
        let mut found =
            snapshot::list_snapshots_matching(path, &|name| snapshot_name_matches(name, run))
                .map_err(|e| invalid(format!("dir scan: {e}")))?;
        found.pop().ok_or_else(|| {
            invalid(format!(
                "no {} files in {}",
                SweepSnapshot::file_name(run, 0).replace("00000000", "*"),
                path.display()
            ))
        })
    } else if path.exists() {
        Ok(path.to_path_buf())
    } else {
        Err(invalid(format!(
            "resume path {} does not exist",
            path.display()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_target(key: &str, seed: u64, stream: bool) -> SweepTargetSnapshot {
        SweepTargetSnapshot {
            key: key.into(),
            rng: stream.then_some([seed, u64::MAX, seed + 2, 0x0123_4567_89AB_CDEF]),
            arch: ArchCheckpoint {
                theta: vec![vec![0.1, 0.2], vec![-0.3, 0.4]],
                phi: vec![vec![1.0, 2.0, 3.0]],
                pf: vec![6.5],
            },
            adam: AdamState {
                t: seed,
                m: vec![Some(Array::from_vec(vec![0.5], &[1]).unwrap())],
                v: vec![None],
            },
            history: vec![EpochRecord {
                target: key.into(),
                epoch: 0,
                train_loss: 1.5,
                train_acc: 0.25,
                val_acc: 0.5,
                expected_perf: 3.25,
                expected_res: 100.0,
                tau: 5.0,
            }],
            front: vec![ParetoPoint {
                target: key.into(),
                epoch: 0,
                val_acc: 0.5,
                perf_ms: std::f64::consts::PI,
                resource: 128.0,
                arch_json: "{\"blocks\":[]}".into(),
            }],
            best: Some((0, 0.5, "{\"blocks\":[]}".into())),
        }
    }

    fn sample_snapshot(targets: Vec<SweepTargetSnapshot>) -> SweepSnapshot {
        SweepSnapshot {
            fingerprint: "v3;space=edd-tiny-3;targets=a||b".into(),
            epoch: 3,
            rng: [1, u64::MAX, 3, 0x0123_4567_89AB_CDEF],
            weights: vec![
                Array::from_vec(vec![0.1, -0.2, f32::MIN_POSITIVE], &[3]).unwrap(),
                Array::from_vec(vec![1.0; 12], &[2, 2, 3]).unwrap(),
            ],
            bn_stats: vec![(
                Array::from_vec(vec![0.5, 0.25], &[2]).unwrap(),
                Array::from_vec(vec![1.5, 2.25], &[2]).unwrap(),
            )],
            sgd_velocity: vec![
                None,
                Some(Array::from_vec(vec![0.0; 12], &[2, 2, 3]).unwrap()),
            ],
            targets,
        }
    }

    fn two_targets() -> SweepSnapshot {
        sample_snapshot(vec![
            sample_target("gpu", 10, true),
            sample_target("fpga-pipelined", 20, true),
        ])
    }

    /// `payload` with section `name` replaced by `data`, the other sections
    /// kept in order.
    fn with_section(payload: &[u8], name: &str, data: &[u8]) -> Vec<u8> {
        let sections = Sections::parse(payload).unwrap();
        let mut out = SectionWriter::new();
        for n in sections.names() {
            out.add(
                n,
                if n == name {
                    data
                } else {
                    sections.get(n).unwrap()
                },
            );
        }
        out.into_payload()
    }

    fn assert_snapshots_equal(a: &SweepSnapshot, b: &SweepSnapshot) {
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
        assert_eq!(a.sgd_velocity.len(), b.sgd_velocity.len());
        assert_eq!(a.targets.len(), b.targets.len());
        for (x, y) in a.targets.iter().zip(&b.targets) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.rng, y.rng);
            assert_eq!(x.arch, y.arch);
            assert_eq!(x.adam.t, y.adam.t);
            assert_eq!(x.history, y.history);
            assert_eq!(x.front.len(), y.front.len());
            for (p, q) in x.front.iter().zip(&y.front) {
                assert_eq!(p.target, q.target);
                assert_eq!(p.epoch, q.epoch);
                assert_eq!(p.val_acc.to_bits(), q.val_acc.to_bits());
                assert_eq!(p.perf_ms.to_bits(), q.perf_ms.to_bits());
                assert_eq!(p.resource.to_bits(), q.resource.to_bits());
                assert_eq!(p.arch_json, q.arch_json);
            }
            assert_eq!(x.best, y.best);
        }
    }

    #[test]
    fn payload_roundtrip() {
        for snap in [
            two_targets(),
            sample_snapshot(vec![sample_target("fpga-recursive", 1, false)]),
        ] {
            let back = SweepSnapshot::from_payload(&snap.to_payload()).unwrap();
            assert_snapshots_equal(&snap, &back);
        }
    }

    #[test]
    fn file_roundtrip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("edd-core-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(SweepSnapshot::file_name("gpu+fpga-pipelined", 7));
        let snap = two_targets();
        snap.save(&path).unwrap();
        let back = SweepSnapshot::load(&path).unwrap();
        assert_snapshots_equal(&snap, &back);

        // Flip one byte in the middle of the file: load must error (CRC),
        // not panic or return garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(SweepSnapshot::load(&path).is_err());

        // Truncation must error too.
        bytes[mid] ^= 0x10; // restore
        bytes.truncate(bytes.len() - 7);
        std::fs::write(&path, &bytes).unwrap();
        assert!(SweepSnapshot::load(&path).is_err());

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_names_and_strict_matching() {
        assert_eq!(
            SweepSnapshot::file_name("fpga-recursive", 3),
            "ckpt-fpga-recursive-00000003.edds"
        );
        assert_eq!(
            SweepSnapshot::file_name("gpu+fpga-recursive+fpga-pipelined", 3),
            "ckpt-gpu+fpga-recursive+fpga-pipelined-00000003.edds"
        );
        assert!(snapshot_name_matches("ckpt-gpu-00000007.edds", "gpu"));
        // A run whose keys prefix another run's must not cross-match.
        assert!(!snapshot_name_matches(
            "ckpt-gpu+fpga-recursive-00000007.edds",
            "gpu"
        ));
        assert!(!snapshot_name_matches(
            "ckpt-gpu-00000007.edds",
            "gpu+fpga-recursive"
        ));
        // Digit count and extension are strict.
        assert!(!snapshot_name_matches("ckpt-gpu-007.edds", "gpu"));
        assert!(!snapshot_name_matches("ckpt-gpu-00000007.tmp", "gpu"));
        // No file of the earlier formats matches any run.
        for old in [
            "search-00000007.edds",
            "search-gpu-00000007.edds",
            "search-fpga-recursive-00000007.edds",
            "sweep-00000007.edds",
        ] {
            for run in ["gpu", "fpga-recursive", "gpu+fpga-recursive"] {
                assert!(!snapshot_name_matches(old, run), "{old} vs {run}");
            }
        }
    }

    #[test]
    fn prune_and_resolve_ignore_sibling_runs_and_old_files() {
        let dir = std::env::temp_dir().join(format!("edd-core-runs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Empty dir and missing path: errors.
        assert!(resolve_sweep_resume_path(&dir, "gpu").is_err());
        assert!(resolve_sweep_resume_path(&dir.join("nope.edds"), "gpu").is_err());

        let s = two_targets();
        for epoch in [1, 2, 3] {
            s.save(&dir.join(SweepSnapshot::file_name("gpu", epoch)))
                .unwrap();
        }
        s.save(&dir.join(SweepSnapshot::file_name("gpu+fpga-pipelined", 9)))
            .unwrap();
        // Files of the earlier formats, whatever their content.
        for old in [
            "search-00000011.edds",
            "search-gpu-00000011.edds",
            "sweep-00000011.edds",
        ] {
            s.save(&dir.join(old)).unwrap();
        }

        let removed = prune_sweep_snapshots(&dir, "gpu", 1).unwrap();
        assert_eq!(
            removed,
            vec![
                dir.join(SweepSnapshot::file_name("gpu", 1)),
                dir.join(SweepSnapshot::file_name("gpu", 2)),
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
                "ckpt-gpu+fpga-pipelined-00000009.edds".to_string(),
                "ckpt-gpu-00000003.edds".to_string(),
                "search-00000011.edds".to_string(),
                "search-gpu-00000011.edds".to_string(),
                "sweep-00000011.edds".to_string(),
            ]
        );

        // A directory resolves to this run's newest file; a file resolves to
        // itself.
        assert_eq!(
            resolve_sweep_resume_path(&dir, "gpu").unwrap(),
            dir.join(SweepSnapshot::file_name("gpu", 3))
        );
        assert_eq!(
            resolve_sweep_resume_path(&dir, "gpu+fpga-pipelined").unwrap(),
            dir.join(SweepSnapshot::file_name("gpu+fpga-pipelined", 9))
        );
        assert!(resolve_sweep_resume_path(&dir, "fpga-recursive").is_err());
        let file = dir.join("sweep-00000011.edds");
        assert_eq!(resolve_sweep_resume_path(&file, "gpu").unwrap(), file);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn earlier_schema_versions_are_rejected_by_number() {
        // The meta section of the parent formats starts with their schema:
        // 2 for single-target search snapshots, 1 for sweep snapshots.
        for old in [1u32, 2] {
            let mut meta = ByteWriter::new();
            meta.put_u32(old);
            let payload = with_section(&two_targets().to_payload(), "meta", &meta.into_bytes());
            let err = SweepSnapshot::from_payload(&payload).unwrap_err();
            assert!(
                err.to_string().contains(&format!("schema version {old} ")),
                "{err}"
            );
        }
    }

    #[test]
    fn overflowing_tensor_shape_is_an_error() {
        // One weight of shape [2^32, 2^32] and no data: its volume overflows
        // a usize, which must be an error, not a panic or a bogus array.
        let mut weights = ByteWriter::new();
        weights.put_u64(1);
        weights.put_u64(2);
        weights.put_u64(1 << 32);
        weights.put_u64(1 << 32);
        weights.put_f32_slice(&[]);
        let payload = with_section(
            &two_targets().to_payload(),
            "weights",
            &weights.into_bytes(),
        );
        let err = SweepSnapshot::from_payload(&payload).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
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

    /// The payload of a real two-target snapshot: a tiny sweep over gpu and
    /// fpga-recursive, checkpointed after one epoch.
    fn real_payload() -> &'static [u8] {
        static PAYLOAD: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        PAYLOAD.get_or_init(|| {
            use edd_data::{SynthConfig, SynthDataset};
            use edd_hw::{FpgaDevice, GpuDevice};
            use rand::SeedableRng;
            let dir = std::env::temp_dir().join(format!("edd-core-fuzz-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut rng = StdRng::seed_from_u64(5);
            let space = SearchSpace::tiny(1, 8, 2, vec![8, 16]);
            let targets = vec![
                DeviceTarget::Gpu(GpuDevice::titan_rtx()),
                DeviceTarget::FpgaRecursive(FpgaDevice::zcu102()),
            ];
            let config = CoSearchConfig {
                epochs: 1,
                warmup_epochs: 0,
                ..CoSearchConfig::default()
            };
            let mut sweep = crate::SweepSearch::new(space, targets, config, &mut rng).unwrap();
            sweep.checkpoint_into(&dir);
            let data = SynthDataset::new(SynthConfig {
                num_classes: 2,
                image_size: 8,
                ..SynthConfig::tiny()
            });
            sweep
                .run(&data.split(1, 4, 1), &data.split(1, 4, 2), &mut rng)
                .unwrap();
            let file = dir.join(SweepSnapshot::file_name("gpu+fpga-recursive", 0));
            let payload = snapshot::read(&file).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            payload
        })
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
            let rng = [rng_bits.0, rng_bits.1, rng_bits.2, rng_bits.3];
            let target = SweepTargetSnapshot {
                key: "gpu".into(),
                rng: Some(rng),
                arch: ArchCheckpoint { theta: vec![], phi: vec![], pf: vec![] },
                adam: AdamState { t, m: vec![], v: vec![] },
                history: vec![],
                front: vec![],
                best: Some((epoch, f32::from_bits(acc_bits), "{}".into())),
            };
            let snap = SweepSnapshot {
                fingerprint: format!("fp-{epoch}"),
                epoch,
                rng,
                weights: vec![Array::from_vec(weights.clone(), &[weights.len()]).unwrap()],
                bn_stats: vec![],
                sgd_velocity: vec![None],
                targets: vec![target],
            };
            let back = SweepSnapshot::from_payload(&snap.to_payload()).unwrap();
            prop_assert_eq!(back.epoch, epoch);
            prop_assert_eq!(back.rng, snap.rng);
            prop_assert_eq!(back.targets[0].rng, Some(rng));
            prop_assert_eq!(back.targets[0].adam.t, t);
            let w = &back.weights[0];
            for (g, &bits) in w.data().iter().zip(&weight_bits) {
                prop_assert_eq!(g.to_bits(), bits);
            }
            let (be, ba, bj) = back.targets[0].best.clone().unwrap();
            prop_assert_eq!(be, epoch);
            prop_assert_eq!(ba.to_bits(), acc_bits);
            prop_assert_eq!(bj, "{}");
        }

        #[test]
        fn from_payload_never_panics_on_garbage(
            bytes in prop::collection::vec(0u8..=255, 0..256),
        ) {
            let _ = SweepSnapshot::from_payload(&bytes);
            prop_assert!(true);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Structure-aware fuzzing past the CRC: one section of a real
        /// snapshot is mutated and the payload re-sealed, so the decoder
        /// itself sees the damage. It must not panic, and anything it
        /// accepts must re-encode to a payload that decodes to the same
        /// snapshot.
        #[test]
        fn mutated_sections_decode_or_fail_cleanly(
            which in 0usize..5,
            kind in 0u8..4,
            near_start in 0u8..2,
            pos in 0u64..=u64::MAX,
            value in 0u64..=u64::MAX,
            extreme in prop::sample::select(vec![u64::MAX, 1u64 << 32, 0]),
        ) {
            let payload = real_payload();
            let sections = Sections::parse(payload).unwrap();
            let name = sections.names()[which];
            let mut data = sections.get(name).unwrap().to_vec();
            // Half the cases aim at the first eight words, where the counts
            // and shapes of a section's leading entries live.
            let words = if near_start == 1 { (data.len() / 8).min(8) } else { data.len() / 8 };
            let pos = usize::try_from(pos % data.len().max(1) as u64).unwrap();
            match kind {
                0 | 1 if words > 0 => {
                    let at = (pos % words) * 8;
                    let v = if kind == 0 { value } else { extreme };
                    data[at..at + 8].copy_from_slice(&v.to_le_bytes());
                }
                2 if !data.is_empty() => data[pos] ^= 1 << (value % 8),
                _ => data.truncate(pos),
            }
            let mutated = with_section(payload, name, &data);
            if let Ok(snap) = SweepSnapshot::from_payload(&mutated) {
                let again = snap.to_payload();
                let back = SweepSnapshot::from_payload(&again);
                prop_assert!(back.is_ok(), "re-encoded snapshot does not decode");
                prop_assert_eq!(back.unwrap().to_payload(), again);
            }
        }
    }
}
