//! Closed-loop load generation against the multi-tenant dynamic-batching
//! serving front end (`edd_runtime::serve`).
//!
//! Two legs, both driven by the same closed-loop harness (several
//! producer threads, each keeping a bounded window of in-flight requests
//! spread round-robin across the served models):
//!
//! 1. **zoo** — the three compiled tiny-zoo engines
//!    ([`edd_zoo::compile_tiny_zoo`]: mixed 4/8/8-bit, uniform int8,
//!    uniform int4) served concurrently from one [`Server`]. End-to-end
//!    numbers; on a small host these are bound by the integer engine's
//!    own images/s ceiling (compare `exp_quantized`), not the front end.
//! 2. **frontend** — three zero-cost stand-in models with
//!    `tiny_derived_arch`'s exact I/O shape (768-value images, 4 logits),
//!    isolating the serving path itself: queue admission, batching,
//!    shard wakeup, ticket fulfilment, and latency accounting. This is
//!    the leg the ≥10k req/s capacity criterion is checked against.
//!
//! Reports sustained request throughput, per-model p50/p95/p99 latency,
//! batch occupancy, and queue depth, and appends one JSON record per
//! model plus a total record per leg to the file named by
//! `EDD_BENCH_JSON` — `scripts/bench_serve.sh` folds that into
//! `BENCH_serve.json`.
//!
//! Run: `cargo run --release -p edd-bench --bin exp_serve [--quick]`

use edd_bench::print_header;
use edd_ir::{CompiledModel, PassConfig};
use edd_runtime::telemetry::Histogram;
use edd_runtime::{BatchModel, BatcherConfig, ModelServeStats, ServeConfig, Server, Ticket};
use edd_tensor::Array;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// In-flight window per producer thread. The aggregate outstanding count
/// (`PRODUCERS · WINDOW`) stays far below the queue depth, so a closed
/// loop never trips admission control and every request completes.
const WINDOW: usize = 32;
const PRODUCERS: usize = 4;

/// `tiny_derived_arch`'s I/O shape: 3·16·16 input values, 4 classes.
const IMAGE_LEN: usize = 3 * 16 * 16;
const CLASSES: usize = 4;

/// Zero-cost stand-in with the tiny zoo's exact request shape: one
/// strided partial sum per logit, so the work per request is a few
/// hundred adds — negligible next to the serving path being measured.
struct ShapeOnlyModel;

impl BatchModel for ShapeOnlyModel {
    type Error = String;

    fn image_len(&self) -> usize {
        IMAGE_LEN
    }

    fn num_classes(&self) -> usize {
        CLASSES
    }

    fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, String> {
        let mut out = Vec::with_capacity(batch * CLASSES);
        for img in images.chunks_exact(IMAGE_LEN).take(batch) {
            for c in 0..CLASSES {
                out.push(img.iter().skip(c).step_by(CLASSES).sum());
            }
        }
        Ok(out)
    }
}

/// Drives `requests_per_producer · PRODUCERS` closed-loop requests through
/// `server` and returns (reqs_per_sec, elapsed_s, per-model stats).
fn drive<M: BatchModel + Send + Sync + 'static>(
    server: Server<M>,
    num_models: usize,
    pool: &[Vec<f32>],
    requests_per_producer: usize,
) -> (f64, f64, Vec<ModelServeStats>) {
    server
        .infer_one(0, pool[0].clone())
        .expect("warmup request");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let server = &server;
            scope.spawn(move || {
                let mut inflight: VecDeque<Ticket> = VecDeque::with_capacity(WINDOW);
                for i in 0..requests_per_producer {
                    let model = (p + i) % num_models;
                    let img = pool[(p * 31 + i) % pool.len()].clone();
                    let ticket = server.submit(model, img).expect("queue sized for load");
                    inflight.push_back(ticket);
                    if inflight.len() == WINDOW {
                        inflight
                            .pop_front()
                            .expect("window nonempty")
                            .wait()
                            .expect("request completes");
                    }
                }
                for ticket in inflight {
                    ticket.wait().expect("request completes");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.shutdown();
    let submitted = (PRODUCERS * requests_per_producer) as u64 + 1; // + warmup
    let completed: u64 = stats.iter().map(|s| s.completed).sum();
    assert_eq!(completed, submitted, "closed loop must complete all");
    let reqs_per_sec = (PRODUCERS * requests_per_producer) as f64 / elapsed;
    (reqs_per_sec, elapsed, stats)
}

fn print_stats(stats: &[ModelServeStats]) {
    println!(
        "{:<22} {:>9} {:>8} {:>8} {:>8} {:>8} {:>7} {:>6}",
        "model", "completed", "p50us", "p95us", "p99us", "maxus", "occup", "qpeak"
    );
    for s in stats {
        println!(
            "{:<22} {:>9} {:>8} {:>8} {:>8} {:>8} {:>7.2} {:>6}",
            s.name,
            s.completed,
            s.latency.p50_us,
            s.latency.p95_us,
            s.latency.p99_us,
            s.latency.max_us,
            s.mean_occupancy(),
            s.queue_peak,
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let config = ServeConfig {
        batcher: BatcherConfig {
            max_batch: 32,
            max_delay_us: 500,
            queue_depth: 4096,
        },
        shards: 1,
    };

    // ---- Leg 1: the real compiled zoo, end to end. ----
    let zoo: Vec<(String, Arc<CompiledModel>)> =
        edd_zoo::compile_tiny_zoo(0x0DD5EED, &PassConfig::all())
            .into_iter()
            .map(|(name, model, _)| (name, Arc::new(model)))
            .collect();
    let num_models = zoo.len();
    assert_eq!(zoo[0].1.image_len(), IMAGE_LEN, "zoo serves 16x16 RGB");
    // Keep handles past Server::start so the engine leg can call the same
    // compiled models directly, without the serving front end in between.
    let engines = zoo.clone();

    // A small pool of fixed random images, cycled by every producer, so
    // input generation stays off the measured path.
    let mut rng = StdRng::seed_from_u64(7);
    let pool: Vec<Vec<f32>> = (0..16)
        .map(|_| Array::randn(&[1, 3, 16, 16], 1.0, &mut rng).data().to_vec())
        .collect();

    print_header("Multi-tenant dynamic-batching serve throughput");
    let per_producer_zoo: usize = if quick { 500 } else { 2_500 };
    println!(
        "leg 1 (zoo, engine-bound): {num_models} models ({}), {PRODUCERS} producers x \
         {per_producer_zoo} requests, window {WINDOW}, max_batch {}, max_delay {} us, \
         {} shard(s)/model\n",
        zoo.iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        config.batcher.max_batch,
        config.batcher.max_delay_us,
        config.shards,
    );
    let server = Server::start(zoo, config);
    let (zoo_rps, zoo_elapsed, zoo_stats) = drive(server, num_models, &pool, per_producer_zoo);
    print_stats(&zoo_stats);
    println!(
        "\nzoo total: {:.0} req/s over {zoo_elapsed:.2} s (bounded by the integer \
         engine's images/s on this host — see exp_quantized)\n",
        zoo_rps
    );

    // ---- Leg 2: front-end capacity with zero-cost models. ----
    let per_producer_fe: usize = if quick { 10_000 } else { 50_000 };
    println!(
        "leg 2 (frontend, serving-path capacity): {num_models} zero-cost models with \
         the same request shape, {PRODUCERS} producers x {per_producer_fe} requests\n"
    );
    let stubs: Vec<(String, Arc<ShapeOnlyModel>)> = (0..num_models)
        .map(|i| (format!("shape-only-{i}"), Arc::new(ShapeOnlyModel)))
        .collect();
    let server = Server::start(stubs, config);
    let (fe_rps, fe_elapsed, fe_stats) = drive(server, num_models, &pool, per_producer_fe);
    print_stats(&fe_stats);
    println!("\nfrontend total: {fe_rps:.0} req/s over {fe_elapsed:.2} s");

    // ---- Leg 3: raw engine latency, one request at a time. ----
    // Direct `infer_batch` calls on the compiled models, no queue or
    // batcher in the loop: this is the per-model engine cost that bounds
    // the zoo leg above. Comparing `serve_engine_*` p50 against
    // `serve_zoo_*` p50 separates engine time from serving overhead.
    let engine_iters: usize = if quick { 100 } else { 400 };
    println!("\nleg 3 (engine, direct calls): {num_models} models x {engine_iters} single-image requests\n");
    let engine_stats = drive_engines(&engines, &pool, engine_iters);
    print_engine_stats(&engine_stats);

    if let Ok(path) = std::env::var("EDD_BENCH_JSON") {
        if !path.is_empty() {
            write_records(&path, "zoo", &zoo_stats, zoo_rps, zoo_elapsed);
            write_records(&path, "frontend", &fe_stats, fe_rps, fe_elapsed);
            write_engine_records(&path, &engine_stats, engine_iters);
        }
    }

    // Machine-readable summary line (grep-able from CI logs).
    let zoo_p99 = zoo_stats
        .iter()
        .map(|s| s.latency.p99_us)
        .max()
        .unwrap_or(0);
    let fe_p99 = fe_stats.iter().map(|s| s.latency.p99_us).max().unwrap_or(0);
    let engine_p50 = engine_stats.iter().map(|s| s.p50_us).max().unwrap_or(0);
    println!(
        "SERVE_RESULT: zoo_reqs_per_sec={zoo_rps:.0} zoo_worst_p99_us={zoo_p99} \
         frontend_reqs_per_sec={fe_rps:.0} frontend_worst_p99_us={fe_p99} \
         engine_worst_p50_us={engine_p50}"
    );
}

/// Per-model percentile summary from the direct-call engine leg.
struct EngineLatency {
    name: String,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    max_us: u64,
}

/// Times `iters` single-image `infer_batch` calls per model (after one
/// untimed warmup each) and summarizes the latency distribution with the
/// same [`Histogram`] percentile convention the serving stats use.
fn drive_engines(
    engines: &[(String, Arc<CompiledModel>)],
    pool: &[Vec<f32>],
    iters: usize,
) -> Vec<EngineLatency> {
    engines
        .iter()
        .map(|(name, model)| {
            model.infer_batch(&pool[0], 1).expect("engine warmup");
            let hist = Histogram::new();
            for i in 0..iters {
                let img = &pool[i % pool.len()];
                let start = Instant::now();
                model.infer_batch(img, 1).expect("engine forward");
                let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                hist.record(us);
            }
            EngineLatency {
                name: name.clone(),
                p50_us: hist.percentile(50.0),
                p95_us: hist.percentile(95.0),
                p99_us: hist.percentile(99.0),
                max_us: hist.max(),
            }
        })
        .collect()
}

fn print_engine_stats(stats: &[EngineLatency]) {
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>8}",
        "model", "p50us", "p95us", "p99us", "maxus"
    );
    for s in stats {
        println!(
            "{:<22} {:>8} {:>8} {:>8} {:>8}",
            s.name, s.p50_us, s.p95_us, s.p99_us, s.max_us
        );
    }
}

/// Appends one `serve_engine_<model>` JSONL record per model to `path`.
fn write_engine_records(path: &str, stats: &[EngineLatency], iters: usize) {
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    for s in stats {
        let _ = writeln!(
            f,
            "{{\"name\":\"serve_engine_{}\",\"iters\":{iters},\"p50_us\":{},\
             \"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            s.name, s.p50_us, s.p95_us, s.p99_us, s.max_us,
        );
    }
}

/// Appends one JSONL record per model plus a per-leg total to `path`.
fn write_records(
    path: &str,
    leg: &str,
    stats: &[ModelServeStats],
    reqs_per_sec: f64,
    elapsed: f64,
) {
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    for s in stats {
        let _ = writeln!(
            f,
            "{{\"name\":\"serve_{leg}_{}\",\"completed\":{},\"failed\":{},\
             \"rejected_full\":{},\"batches\":{},\"mean_occupancy\":{:.2},\
             \"full_flushes\":{},\"deadline_flushes\":{},\"queue_peak\":{},\
             \"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            s.name,
            s.completed,
            s.failed,
            s.rejected_full,
            s.batches,
            s.mean_occupancy(),
            s.full_flushes,
            s.deadline_flushes,
            s.queue_peak,
            s.latency.p50_us,
            s.latency.p95_us,
            s.latency.p99_us,
            s.latency.max_us,
        );
    }
    let _ = writeln!(
        f,
        "{{\"name\":\"serve_{leg}_total\",\"reqs_per_sec\":{reqs_per_sec:.0},\
         \"elapsed_s\":{elapsed:.3},\"producers\":{PRODUCERS},\"window\":{WINDOW}}}"
    );
}
