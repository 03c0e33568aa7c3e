//! The search workload: the float training stack (tensor kernels, batch
//! norm, mixture, perf-model loss) with `serve` and `ir` not involved.
//!
//! A run repeats one single-target `CoSearch` until its time is up, at
//! least twice, and requires every repetition to give byte-identical
//! derived architectures and history. The search runs 12 epochs over two
//! training batches and one validation batch of 16 images, so one
//! repetition takes a few seconds and a run holds many. Epochs are timed by
//! the epoch events the search loop emits, caught by a [`CaptureSink`];
//! latency is the median over every epoch of the run that takes an
//! architecture step (the warm-up epochs do not), and throughput counts
//! every epoch.
//!
//! A traced run keeps the phase spans of its first repetition, which must
//! give the same bytes as the untraced ones, and then runs `SweepSearch`
//! over three targets, whose arch steps fan out over `kernel::pool`, for
//! the `core.sweep.*` metrics. The sweep is left out of the end-to-end
//! metrics: its two pool threads share the host's two cores with whatever
//! else runs there, and its epoch times spread more between runs than a
//! bound may allow.
//!
//! Supernet initialisation and path sampling use a fixed seed, as the zoo
//! weights do; the run seed drives the training and validation data.

use crate::clock::now_ns;
use crate::report::{Outcome, TensorCounts};
use crate::stats::{median, percentile, ratio, sorted};
use crate::trace::{CaptureSink, Trace};
use crate::Run;
use edd_core::{CoSearch, CoSearchConfig, DeviceTarget, SearchSpace, SweepSearch};
use edd_data::{SynthConfig, SynthDataset};
use edd_hw::{FpgaDevice, GpuDevice};
use edd_nn::Batch;
use edd_runtime::telemetry;
use edd_tensor::kernel::pool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Which search driver a repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Driver {
    /// Single-target `CoSearch` on fpga-recursive.
    CoSearch,
    /// `SweepSearch` over gpu, fpga-recursive and fpga-pipelined.
    Sweep,
}

/// Seed of supernet initialisation and path sampling.
const SEARCH_SEED: u64 = 0x00DD_5EED;
/// Epochs of one search.
const EPOCHS: usize = 12;
/// Training and validation batches of 16 images.
const TRAIN_BATCHES: usize = 2;
const VAL_BATCHES: usize = 1;
/// Set-ups per repetition; `setup_s` is the median over the run.
const SETUPS_PER_REP: usize = 4;
/// Repetitions of the search per run, at least.
const MIN_REPS: usize = 2;
/// Pool threads the traced sweep runs with, so that its per-target arch
/// steps fan out; the rest of the benchmark runs one.
const SWEEP_THREADS: usize = 2;

impl Driver {
    /// The telemetry event that closes one epoch.
    fn epoch_event(self) -> &'static str {
        match self {
            Driver::CoSearch => edd_core::search::EPOCH_EVENT,
            Driver::Sweep => "sweep.epoch",
        }
    }

    fn targets(self) -> Vec<DeviceTarget> {
        let recursive = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
        match self {
            Driver::CoSearch => vec![recursive],
            Driver::Sweep => vec![
                DeviceTarget::Gpu(GpuDevice::titan_rtx()),
                recursive,
                DeviceTarget::FpgaPipelined(FpgaDevice::zc706()),
            ],
        }
    }
}

/// The shared search space: four blocks over 16×16 inputs, four classes,
/// a quant menu every target supports.
fn space() -> SearchSpace {
    SearchSpace::tiny(4, 16, 4, vec![8, 16])
}

/// The default search settings, over [`EPOCHS`] epochs.
fn config() -> CoSearchConfig {
    CoSearchConfig {
        epochs: EPOCHS,
        ..CoSearchConfig::default()
    }
}

/// A built search, ready to run.
enum Built {
    CoSearch(Box<CoSearch>),
    Sweep(Box<SweepSearch>),
}

/// Builds `driver`'s search over `targets` (one for `CoSearch`).
fn build(driver: Driver, targets: Vec<DeviceTarget>, rng: &mut StdRng) -> Result<Built, String> {
    let err = |e: edd_tensor::TensorError| e.to_string();
    let config = config();
    Ok(match driver {
        Driver::CoSearch => {
            let target = targets.into_iter().next().ok_or("no target")?;
            Built::CoSearch(Box::new(
                CoSearch::new(space(), target, config, rng).map_err(err)?,
            ))
        }
        Driver::Sweep => Built::Sweep(Box::new(
            SweepSearch::new(space(), targets, config, rng).map_err(err)?,
        )),
    })
}

/// Runs the search and returns its result bytes: derived-architecture
/// JSON followed by the history CSV.
fn run_search(
    built: Built,
    train: &[Batch],
    val: &[Batch],
    rng: &mut StdRng,
) -> Result<String, String> {
    let err = |e: edd_tensor::TensorError| e.to_string();
    let json = |d: &edd_core::DerivedArch| d.to_json().map_err(|e| e.to_string());
    Ok(match built {
        Built::CoSearch(mut s) => {
            let o = s.run(train, val, rng).map_err(err)?;
            format!("{}\n{}", json(&o.derived)?, o.history_csv())
        }
        Built::Sweep(mut s) => {
            let o = s.run(train, val, rng).map_err(err)?;
            let mut bytes = String::new();
            for t in &o.targets {
                bytes.push_str(&json(&t.outcome.derived)?);
                bytes.push('\n');
            }
            bytes.push_str(&o.history_csv());
            bytes.push_str(&o.summary_json());
            bytes
        }
    })
}

/// One repetition: the search's result bytes and what the sink caught.
struct Rep {
    bytes: String,
    start_ns: u64,
    end_ns: u64,
    epochs_ns: Vec<u64>,
    spans: Vec<(String, u64, u64)>,
}

impl Rep {
    /// Wall time of each epoch after the warm-up, from one epoch event to
    /// the next.
    fn epoch_times(&self) -> Vec<u64> {
        std::iter::once(self.start_ns)
            .chain(self.epochs_ns.iter().copied())
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| w[1] - w[0])
            .skip(config().warmup_epochs)
            .collect()
    }

    /// Total duration of the spans named `name`, in ms.
    fn span_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|(_, s, e)| (e - s) as f64 / 1e6)
            .sum()
    }
}

/// Builds and runs one repetition with a capture sink installed; fails
/// unless every epoch event was seen.
fn repetition(
    driver: Driver,
    targets: Vec<DeviceTarget>,
    data: (&[Batch], &[Batch]),
    keep_spans: bool,
) -> Result<Rep, String> {
    let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
    let built = build(driver, targets, &mut rng)?;
    let sink = Arc::new(CaptureSink::new(driver.epoch_event(), keep_spans));
    telemetry::set_global(sink.clone());
    let start_ns = now_ns();
    let result = run_search(built, data.0, data.1, &mut rng);
    let end_ns = now_ns();
    telemetry::clear_global();
    let seen = sink.take();
    let bytes = result?;
    if seen.epochs_ns.len() != EPOCHS {
        return Err(format!(
            "saw {} of {EPOCHS} epoch events",
            seen.epochs_ns.len()
        ));
    }
    Ok(Rep {
        bytes,
        start_ns,
        end_ns,
        epochs_ns: seen.epochs_ns,
        spans: seen.spans,
    })
}

/// The phases of a traced repetition, as per-epoch means in ms: the parts
/// an epoch is cut into, and further layer metrics that are not parts.
/// The spans move into the trace.
#[allow(clippy::type_complexity)]
fn phases(
    driver: Driver,
    rep: &Rep,
    trace: &mut Trace,
) -> (Vec<(&'static str, f64)>, Vec<(&'static str, f64)>) {
    let run = match driver {
        Driver::CoSearch => "core.search.run",
        Driver::Sweep => "core.sweep.run",
    };
    let root = trace.push(run, 0, rep.start_ns, rep.end_ns, None);
    for (name, start, end) in &rep.spans {
        trace.push(name.clone(), root, *start, *end, None);
    }
    let epochs = EPOCHS as f64;
    match driver {
        Driver::CoSearch => (
            vec![
                (
                    "core.search.weight_ms",
                    rep.span_ms("search.weight_phase") / epochs,
                ),
                (
                    "core.search.arch_ms",
                    rep.span_ms("search.arch_phase") / epochs,
                ),
                (
                    "core.search.val_ms",
                    rep.span_ms("search.val_phase") / epochs,
                ),
            ],
            Vec::new(),
        ),
        Driver::Sweep => {
            // Target spans close after their epoch's weight phase and
            // before the epoch event. The targets share the pool, so the
            // phase lasts from the end of the weight phase to the event;
            // the slowest target is reported beside it.
            let weight_ends: Vec<u64> = rep
                .spans
                .iter()
                .filter(|(n, _, _)| n == "sweep.weight_phase")
                .map(|(_, _, e)| *e)
                .collect();
            let targets_ns: u64 = weight_ends
                .iter()
                .zip(&rep.epochs_ns)
                .map(|(w, e)| e.saturating_sub(*w))
                .sum();
            let mut slowest = vec![0.0f64; weight_ends.len()];
            for (name, s, e) in &rep.spans {
                if name.starts_with("sweep.target.") {
                    if let Some(k) = weight_ends.iter().rposition(|w| w <= s) {
                        slowest[k] = slowest[k].max((e - s) as f64 / 1e6);
                    }
                }
            }
            (
                vec![
                    (
                        "core.sweep.weight_ms",
                        rep.span_ms("sweep.weight_phase") / epochs,
                    ),
                    ("core.sweep.targets_ms", targets_ns as f64 / 1e6 / epochs),
                ],
                vec![(
                    "core.sweep.arch_ms_max",
                    slowest.iter().sum::<f64>() / epochs,
                )],
            )
        }
    }
}

/// Sets a traced repetition's phase metrics, moves its spans into the
/// trace, prints the decomposition and returns its residual: |epoch time −
/// sum of the parts| / epoch time.
fn decompose(driver: Driver, rep: &Rep, trace: &mut Trace, out: &mut Outcome) -> f64 {
    let epoch_ms = (rep.end_ns - rep.start_ns) as f64 / 1e6 / EPOCHS as f64;
    let (parts, extra) = phases(driver, rep, trace);
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let residual = ratio((epoch_ms - sum).abs(), epoch_ms);
    let names: Vec<String> = parts.iter().map(|(n, v)| format!("{n} {v:.1}")).collect();
    println!(
        "{driver:?} decomposition (ms/epoch): {} = {sum:.1} against epoch {epoch_ms:.1} \
         (residual {:.2}%)",
        names.join(" + "),
        residual * 100.0
    );
    for (name, v) in parts.iter().chain(&extra) {
        out.set(name, *v);
    }
    residual
}

/// The sweep's layer metrics, from three sweeps on `SWEEP_THREADS` pool
/// threads: a traced three-target sweep, the same sweep untraced, which must
/// give the same bytes, and a sweep of its fpga-recursive target alone for
/// the amortization. Returns the decomposition residual.
fn sweep_layers(
    data: (&[Batch], &[Batch]),
    trace: &mut Trace,
    tensor: &mut TensorCounts,
    out: &mut Outcome,
) -> Option<f64> {
    let threads = pool::num_threads();
    pool::set_num_threads(SWEEP_THREADS);
    let targets = || Driver::Sweep.targets();
    let traced = tensor.measure(|| repetition(Driver::Sweep, targets(), data, true));
    let plain = repetition(Driver::Sweep, targets(), data, false);
    let single = targets().into_iter().skip(1).take(1).collect();
    let one = repetition(Driver::Sweep, single, data, true);
    pool::set_num_threads(threads);
    out.attempted += 3 * EPOCHS as u64;
    let (traced, plain, one) = match (traced, plain, one) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            out.failed += EPOCHS as u64;
            out.problem(format!("sweep failed: {e}"));
            return None;
        }
    };
    if traced.bytes != plain.bytes {
        out.failed += EPOCHS as u64;
        out.problem("the traced sweep derived a different architecture or history");
    }
    let residual = decompose(Driver::Sweep, &traced, trace, out);
    // The shared weight phase of three targets against that of one.
    out.set(
        "core.sweep.amortization",
        ratio(
            traced.span_ms("sweep.weight_phase"),
            one.span_ms("sweep.weight_phase"),
        ),
    );
    Some(residual)
}

/// Runs the `search` workload.
pub fn run(args: &Run, trace: Option<&mut Trace>) -> Outcome {
    let mut out = Outcome::default();
    let data = SynthDataset::new(SynthConfig::tiny());
    let train = data.split(TRAIN_BATCHES, 16, args.seed.wrapping_mul(2).wrapping_add(1));
    let val = data.split(VAL_BATCHES, 16, args.seed.wrapping_mul(2).wrapping_add(2));
    let data = (&train[..], &val[..]);
    let driver = Driver::CoSearch;

    let start = now_ns();
    let budget = (args.seconds * 1e9) as u64;
    let mut setup_ns = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut tensor = TensorCounts::default();
    loop {
        for _ in 0..SETUPS_PER_REP {
            let mut rng = StdRng::seed_from_u64(SEARCH_SEED);
            let t0 = now_ns();
            let built = build(driver, driver.targets(), &mut rng);
            setup_ns.push((now_ns() - t0) as f64);
            if let Err(e) = built {
                out.problem(format!("set-up failed: {e}"));
                return out;
            }
        }
        let traced = trace.is_some() && reps.is_empty();
        let rep = if traced {
            tensor.measure(|| repetition(driver, driver.targets(), data, true))
        } else {
            repetition(driver, driver.targets(), data, false)
        };
        out.attempted += EPOCHS as u64;
        let rep = match rep {
            Ok(r) => r,
            Err(e) => {
                out.failed += EPOCHS as u64;
                out.problem(format!("search failed: {e}"));
                return out;
            }
        };
        if reps.first().is_some_and(|first| first.bytes != rep.bytes) {
            out.failed += EPOCHS as u64;
            out.problem(format!(
                "repetition {} derived a different architecture or history",
                reps.len()
            ));
        }
        reps.push(rep);
        let elapsed = now_ns() - start;
        let per_rep = elapsed / reps.len() as u64;
        if reps.len() >= MIN_REPS && elapsed + per_rep > budget {
            break;
        }
    }

    let epochs = sorted(&reps.iter().flat_map(Rep::epoch_times).collect::<Vec<_>>());
    let p50_ms = percentile(&epochs, 50.0) as f64 / 1e6;
    let p90_ms = percentile(&epochs, 90.0) as f64 / 1e6;
    let run_ns: u64 = reps.iter().map(|r| r.end_ns - r.start_ns).sum();
    let epochs_per_s = (reps.len() * EPOCHS) as f64 / (run_ns as f64 / 1e9);
    println!(
        "CoSearch: {} repetitions x {EPOCHS} epochs, epoch p50 {p50_ms:.1} ms, p90 {p90_ms:.1} \
         ms, {epochs_per_s:.3} epochs/s; identical results across repetitions: {}; set-up \
         {:.2} ms (median of {})",
        reps.len(),
        out.problems.is_empty(),
        median(&setup_ns) / 1e6,
        setup_ns.len()
    );
    out.set("setup_s", median(&setup_ns) / 1e9);
    out.set("latency_p50_ms", p50_ms);
    out.set("throughput_per_s", epochs_per_s);

    let Some(t) = trace else {
        return out;
    };
    let residual = decompose(driver, &reps[0], t, &mut out);
    let sweep_residual = sweep_layers(data, t, &mut tensor, &mut out).unwrap_or(0.0);
    out.set("bench.decomp_residual_frac", residual.max(sweep_residual));
    out.set("traced.latency_p50_ms", p50_ms);
    out.set("traced.latency_p90_ms", p90_ms);
    out.set("traced.throughput_per_s", epochs_per_s);
    // Counted over the traced search and the traced sweep.
    tensor.report(&mut out, 2.0 * EPOCHS as f64);
    out
}
