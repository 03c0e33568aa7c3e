//! The serving workload: open-loop Poisson traffic against the int8 zoo
//! model on one shard, interleaved with closed-loop capacity probes.
//!
//! A run is a short warm-up followed by rounds of one open-loop segment
//! (one second of scheduled arrivals, some 200 requests) and one
//! closed-loop segment (a fixed number of requests kept outstanding), with
//! one more set-up of the deployment between rounds, until the next round
//! would overrun the run. Latency is taken over every open-loop request of
//! the run and capacity over every closed-loop segment, so both sample the
//! whole run, as `setup_s` does.
//!
//! Open loop uses two driver threads. The submitter sleeps until each
//! request is due and submits it; the collector (the main thread) waits on
//! tickets in submission order. With one model on one shard completions
//! arrive in FIFO order, so waiting in order adds no head-of-line bias.
//! Latency runs from the due time, so a stalled generator is charged to the
//! system. Each segment draws a fresh schedule; the Poisson process is
//! memoryless, so the segments together are one Poisson stream with the
//! capacity probes cut out.

use crate::clock::now_ns;
use crate::report::{Outcome, TensorCounts};
use crate::schedule::{schedule, Arrival};
use crate::stats::{mean, median, percentile, ratio, sorted};
use crate::timed::{attribute, split, BatchRecord, Parts, RequestTimes, Timed};
use crate::trace::Trace;
use crate::zoo::{deploy, DeployTimes};
use crate::Run;
use edd_ir::CompiledModel;
use edd_runtime::{BatchModel, BatcherConfig, ServeConfig, ServeError, Server, Ticket};
use edd_tensor::Array;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The zoo model served.
const MODEL: &str = "edd-tiny-int8";
/// Mean open-loop arrival rate, requests per second. Batches stay near one
/// image, so latency is the batcher deadline, a one-image engine call and
/// the wake-ups. At 400 req/s the one-image engine was half busy whenever
/// the shared host ran slow, and queueing then doubled the p50 from run to
/// run; at 200 it stays a quarter busy.
const RATE: f64 = 200.0;
/// The batching policy.
const CONFIG: ServeConfig = ServeConfig {
    batcher: BatcherConfig {
        max_batch: 32,
        max_delay_us: 500,
        queue_depth: 4096,
    },
    shards: 1,
};
/// Distinct request images, drawn from the seed.
const POOL: usize = 64;
/// Requests kept outstanding in a closed-loop segment.
const OUTSTANDING: usize = 64;
/// Length of one open-loop segment.
const OPEN_NS: u64 = 1_000_000_000;
/// Length of one closed-loop segment.
const CLOSED_NS: u64 = 500_000_000;
/// Unmeasured traffic before the first round (pools and caches fill).
const WARMUP_NS: u64 = 500_000_000;
/// Fewest rounds a run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// A generator later than this at p99 fell behind its schedule: ten mean
/// inter-arrival gaps. Lateness is charged to latency, which runs from the
/// due time; on a shared two-core host a sleeping submitter was seen waking
/// up to 8 ms late at p99 while other tenants kept the host busy, with the
/// schedule still offered in full.
const MAX_GEN_LATE_NS: u64 = 50_000_000;

/// A served model, plain or wrapped in [`Timed`].
trait Served: BatchModel + Send + Sync + Sized + 'static {
    fn wrap(model: CompiledModel) -> Self;
    fn batches(&self) -> Vec<BatchRecord>;
}

impl Served for CompiledModel {
    fn wrap(model: CompiledModel) -> Self {
        model
    }
    fn batches(&self) -> Vec<BatchRecord> {
        Vec::new()
    }
}

impl Served for Timed<CompiledModel> {
    fn wrap(model: CompiledModel) -> Self {
        Timed::new(model)
    }
    fn batches(&self) -> Vec<BatchRecord> {
        self.records()
    }
}

/// Runs the serving workload.
pub fn run(args: &Run, trace: Option<&mut Trace>) -> Outcome {
    match trace {
        Some(t) => run_with::<Timed<CompiledModel>>(args, Some(t)),
        None => run_with::<CompiledModel>(args, None),
    }
}

/// What the submitter hands the collector for each request.
struct Sent {
    image: usize,
    due_ns: u64,
    submit_ns: u64,
    ticket: Result<Ticket, ServeError>,
}

/// A completed open-loop request.
struct Done {
    /// Position in acceptance order (the k-th image the engine sees).
    seq: usize,
    times: RequestTimes,
}

/// The server under test and what the benchmark checks it against.
struct Bench<'a, M: BatchModel + Send + Sync + 'static> {
    server: Server<M>,
    pool: &'a [Vec<f32>],
    /// `CompiledModel::forward` of each pool image.
    expected: Vec<Vec<f32>>,
    /// Requests accepted so far, in submission order.
    accepted: usize,
}

/// Bitwise equality of two logit vectors.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Checks one response against the oracle; returns whether it counts as
/// a success.
fn check(out: &mut Outcome, got: Result<Vec<f32>, ServeError>, want: &[f32]) -> bool {
    match got {
        Ok(logits) if same_bits(&logits, want) => true,
        Ok(_) => {
            out.failed += 1;
            if out.failed == 1 {
                out.problem("served logits differ from CompiledModel::forward");
            }
            false
        }
        Err(e) => {
            out.failed += 1;
            out.problem(format!("request failed: {e}"));
            false
        }
    }
}

impl<M: BatchModel + Send + Sync + 'static> Bench<'_, M> {
    /// Submits image `image` from the calling thread.
    fn submit(&mut self, out: &mut Outcome, image: usize) -> Option<Ticket> {
        out.attempted += 1;
        match self.server.submit(0, self.pool[image].clone()) {
            Ok(t) => {
                self.accepted += 1;
                Some(t)
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("request refused: {e}"));
                None
            }
        }
    }

    /// Drives one open-loop segment, `arrivals` offset to start 2 ms from
    /// now, and returns its correct completions in acceptance order.
    fn open_segment(&mut self, out: &mut Outcome, arrivals: &[Arrival]) -> Vec<Done> {
        let base = now_ns() + 2_000_000;
        let (tx, rx) = mpsc::channel::<Sent>();
        let mut done = Vec::with_capacity(arrivals.len());
        let (server, pool) = (&self.server, self.pool);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for a in arrivals {
                    let image = pool[a.image].clone();
                    let due_ns = base + a.due_ns;
                    let now = now_ns();
                    if due_ns > now {
                        std::thread::sleep(Duration::from_nanos(due_ns - now));
                    }
                    let submit_ns = now_ns();
                    let ticket = server.submit(0, image);
                    let sent = Sent {
                        image: a.image,
                        due_ns,
                        submit_ns,
                        ticket,
                    };
                    if tx.send(sent).is_err() {
                        return;
                    }
                }
            });
            for sent in rx {
                out.attempted += 1;
                let ticket = match sent.ticket {
                    Ok(t) => t,
                    Err(e) => {
                        out.failed += 1;
                        out.problem(format!("request refused: {e}"));
                        continue;
                    }
                };
                let seq = self.accepted;
                self.accepted += 1;
                let result = ticket.wait();
                let done_ns = now_ns();
                if check(out, result, &self.expected[sent.image]) {
                    done.push(Done {
                        seq,
                        times: RequestTimes {
                            due_ns: sent.due_ns,
                            submit_ns: sent.submit_ns,
                            done_ns,
                        },
                    });
                }
            }
        });
        done
    }

    /// Keeps [`OUTSTANDING`] requests in flight for `len_ns`, then drains.
    /// Returns the completions counted for capacity with the time they
    /// took: from the first completion to the last one before the end, not
    /// counting the first batch, whose completions open the interval; and
    /// the latency of each request that completed before the end.
    fn closed_segment(
        &mut self,
        out: &mut Outcome,
        rng: &mut StdRng,
        len_ns: u64,
    ) -> (Option<(f64, u64)>, Vec<u64>) {
        let stats_before = self.server.stats(0);
        let end = now_ns() + len_ns;
        let mut inflight: VecDeque<(usize, u64, Ticket)> = VecDeque::with_capacity(OUTSTANDING);
        let mut completions: Vec<u64> = Vec::new();
        let mut latency: Vec<u64> = Vec::new();
        loop {
            while inflight.len() < OUTSTANDING && now_ns() < end {
                let image = rng.gen_range(0..POOL);
                let submit_ns = now_ns();
                if let Some(t) = self.submit(out, image) {
                    inflight.push_back((image, submit_ns, t));
                }
            }
            let Some((image, submit_ns, ticket)) = inflight.pop_front() else {
                break;
            };
            if check(out, ticket.wait(), &self.expected[image]) {
                let t = now_ns();
                if t < end {
                    completions.push(t);
                    latency.push(t - submit_ns);
                }
            }
        }
        let stats = self.server.stats(0);
        let batch = ratio(
            (stats.batched_images - stats_before.batched_images) as f64,
            (stats.batches - stats_before.batches) as f64,
        );
        let counted = match (completions.first(), completions.last()) {
            (Some(&first), Some(&last)) if last > first => {
                Some((completions.len() as f64 - batch, last - first))
            }
            _ => None,
        };
        (counted, latency)
    }
}

/// Deploys the zoo and picks `model` out of it.
fn deploy_one(model: &str) -> Result<(CompiledModel, DeployTimes), String> {
    let (deployed, times) = deploy()?;
    let d = deployed
        .into_iter()
        .find(|d| d.name == model)
        .ok_or_else(|| format!("zoo has no model {model}"))?;
    Ok((d.model, times))
}

#[allow(clippy::too_many_lines)]
fn run_with<M: Served>(args: &Run, trace: Option<&mut Trace>) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let pool: Vec<Vec<f32>> = (0..POOL)
        .map(|_| Array::randn(&[1, 3, 16, 16], 1.0, &mut rng).data().to_vec())
        .collect();

    // ---- Set-up of the deployment under test. The oracle is the
    // benchmark's own work and is left out of the set-up time.
    let mut setup_ns = Vec::new();
    let mut deploy_times = Vec::new();
    let (compiled, times) = match deploy_one(MODEL) {
        Ok(s) => s,
        Err(e) => {
            out.problem(format!("set-up failed: {e}"));
            return out;
        }
    };
    deploy_times.push(times);
    let expected: Vec<Vec<f32>> = pool
        .iter()
        .map(|img| {
            let x = Array::from_vec(img.clone(), &[1, 3, 16, 16]).expect("image shape");
            compiled
                .forward(&x)
                .expect("oracle forward")
                .data()
                .to_vec()
        })
        .collect();
    let t_start = now_ns();
    let model = Arc::new(M::wrap(compiled));
    let server = Server::start(vec![(MODEL.to_owned(), Arc::clone(&model))], CONFIG);
    setup_ns.push((times.total_ns + now_ns() - t_start) as f64);
    let mut bench = Bench {
        server,
        pool: &pool,
        expected,
        accepted: 0,
    };

    // ---- Warm-up, then rounds until the next would overrun the run.
    let run_end = now_ns() + (args.seconds * 1e9) as u64;
    let warmup = schedule(RATE, WARMUP_NS, POOL, args.seed ^ 0xA11);
    bench.open_segment(&mut out, &warmup);
    let _ = bench.closed_segment(&mut out, &mut rng, CLOSED_NS / 2);
    let warmup_attempts = out.attempted;
    let mut tensor = TensorCounts::default();
    let mut done: Vec<Done> = Vec::new();
    let (mut closed_count, mut closed_ns) = (0.0, 0u64);
    let mut closed_latency: Vec<u64> = Vec::new();
    let mut closed_spans: Vec<(u64, u64)> = Vec::new();
    let mut rounds = 0usize;
    loop {
        let round_start = now_ns();
        let arrivals = schedule(
            RATE,
            OPEN_NS,
            POOL,
            args.seed ^ (rounds as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        done.extend(tensor.measure(|| bench.open_segment(&mut out, &arrivals)));
        let t0 = now_ns();
        let (counted, latency) =
            tensor.measure(|| bench.closed_segment(&mut out, &mut rng, CLOSED_NS));
        closed_spans.push((t0, t0 + CLOSED_NS));
        if let Some((n, ns)) = counted {
            closed_count += n;
            closed_ns += ns;
        }
        closed_latency.extend(latency);

        // One more set-up sample, started and stopped between segments.
        match deploy_one(MODEL) {
            Ok((m, times)) => {
                let t = now_ns();
                let extra = Server::start(vec![(MODEL.to_owned(), Arc::new(m))], CONFIG);
                setup_ns.push((times.total_ns + now_ns() - t) as f64);
                deploy_times.push(times);
                let _ = extra.shutdown();
            }
            Err(e) => out.problem(format!("set-up failed: {e}")),
        }
        rounds += 1;
        let now = now_ns();
        if rounds >= MIN_ROUNDS && now + (now - round_start) > run_end {
            break;
        }
    }
    let accepted = bench.accepted;
    let stats = bench.server.shutdown().remove(0);
    if stats.accepted != accepted as u64 || stats.completed + stats.failed != stats.accepted {
        out.problem(format!(
            "server counted {} accepted / {} completed / {} failed, benchmark {accepted} accepted",
            stats.accepted, stats.completed, stats.failed
        ));
    }

    // ---- End-to-end metrics, over every measured request of the run.
    if done.is_empty() || closed_ns == 0 {
        out.problem("too few measured requests completed");
        return out;
    }
    let latency = sorted(
        &done
            .iter()
            .map(|d| d.times.latency_ns().max(0) as u64)
            .collect::<Vec<_>>(),
    );
    let late = sorted(
        &done
            .iter()
            .map(|d| d.times.submit_ns.saturating_sub(d.times.due_ns))
            .collect::<Vec<_>>(),
    );
    let ms = |ns: u64| ns as f64 / 1e6;
    let (p50_ms, p90_ms, p99_ms) = (
        ms(percentile(&latency, 50.0)),
        ms(percentile(&latency, 90.0)),
        ms(percentile(&latency, 99.0)),
    );
    let gen_late_p99 = percentile(&late, 99.0);
    if gen_late_p99 > MAX_GEN_LATE_NS {
        out.problem(format!(
            "generator ran {:.0} us late at p99, more than {:.0} us",
            gen_late_p99 as f64 / 1e3,
            MAX_GEN_LATE_NS as f64 / 1e3
        ));
    }
    let capacity_rps = closed_count / (closed_ns as f64 / 1e9);
    let closed_p50_ms = ms(percentile(&sorted(&closed_latency), 50.0));
    println!(
        "open loop: {} measured requests in {rounds} rounds, p50 {p50_ms:.3} ms, p90 {p90_ms:.3} \
         ms, p99 {p99_ms:.3} ms, generator late p99 {:.1} us; set-up {:.1} ms (median of {})",
        done.len(),
        gen_late_p99 as f64 / 1e3,
        median(&setup_ns) / 1e6,
        setup_ns.len()
    );
    println!(
        "closed loop: capacity {capacity_rps:.1} req/s with {OUTSTANDING} outstanding, p50 \
         {closed_p50_ms:.3} ms against Little's law {OUTSTANDING} / capacity = {:.3} ms",
        OUTSTANDING as f64 / capacity_rps * 1e3
    );
    out.set("setup_s", median(&setup_ns) / 1e9);
    out.set("latency_p50_ms", p50_ms);
    out.set("throughput_per_s", capacity_rps);

    let Some(t) = trace else {
        return out;
    };

    // ---- Per-layer breakdown from the batch records.
    let batches = model.batches();
    let Some(batch_of) = attribute(&batches, accepted) else {
        out.problem(format!(
            "engine saw {} images for {accepted} accepted requests",
            batches.iter().map(|b| b.images).sum::<usize>()
        ));
        return out;
    };
    let parts: Vec<Parts> = done
        .iter()
        .map(|d| split(&d.times, &batches[batch_of[d.seq]]))
        .collect();
    if let Some(i) = parts.iter().position(|p| !p.is_causal()) {
        out.problem(format!(
            "request {} attributed to a batch outside its lifetime",
            done[i].seq
        ));
    }
    for d in &done {
        let b = &batches[batch_of[d.seq]];
        let r = d.times;
        let req = Some(d.seq as u64);
        let root = t.push("bench.request", 0, r.due_ns, r.done_ns, req);
        t.push("bench.gen_late", root, r.due_ns, r.submit_ns, req);
        t.push("runtime.serve.queue", root, r.submit_ns, b.start_ns, req);
        t.push("ir.exec", root, b.start_ns, b.end_ns, req);
        t.push("runtime.serve.fulfil", root, b.end_ns, r.done_ns, req);
    }
    let in_closed = |b: &BatchRecord| {
        closed_spans
            .iter()
            .any(|&(s, e)| b.start_ns >= s && b.start_ns < e)
    };
    for &(s, e) in &closed_spans {
        let root = t.push("bench.capacity", 0, s, e, None);
        for b in batches.iter().filter(|b| b.start_ns >= s && b.start_ns < e) {
            t.push("ir.exec", root, b.start_ns, b.end_ns, None);
        }
    }

    let us = |ns: i64| ns as f64 / 1e3;
    let mean_of = |f: fn(&Parts) -> i64| mean(&parts.iter().map(|p| us(f(p))).collect::<Vec<_>>());
    let (late_us, queue_us, engine_us, fulfil_us) = (
        mean_of(|p| p.late_ns),
        mean_of(|p| p.queue_ns),
        mean_of(|p| p.engine_ns),
        mean_of(|p| p.fulfil_ns),
    );
    let latency_us = mean(
        &done
            .iter()
            .map(|d| us(d.times.latency_ns()))
            .collect::<Vec<_>>(),
    );
    let sum = late_us + queue_us + engine_us + fulfil_us;
    let residual = ratio((sum - latency_us).abs(), latency_us);
    println!(
        "decomposition (mean us): generator {late_us:.1} + queue {queue_us:.1} + engine \
         {engine_us:.1} + fulfil {fulfil_us:.1} = {sum:.1} against latency {latency_us:.1} \
         (residual {:.3}%)",
        residual * 100.0
    );
    let queue = sorted(
        &parts
            .iter()
            .map(|p| p.queue_ns.max(0) as u64)
            .collect::<Vec<_>>(),
    );
    let fulfil = sorted(
        &parts
            .iter()
            .map(|p| p.fulfil_ns.max(0) as u64)
            .collect::<Vec<_>>(),
    );
    let mut open_batches: Vec<usize> = done.iter().map(|d| batch_of[d.seq]).collect();
    open_batches.dedup();
    let sizes: Vec<f64> = open_batches
        .iter()
        .map(|&b| batches[b].images as f64)
        .collect();
    let durations = sorted(
        &open_batches
            .iter()
            .map(|&b| batches[b].end_ns - batches[b].start_ns)
            .collect::<Vec<_>>(),
    );
    let closed: Vec<&BatchRecord> = batches.iter().filter(|b| in_closed(b)).collect();
    let closed_engine: u64 = closed.iter().map(|b| b.end_ns - b.start_ns).sum();
    let closed_images: usize = closed.iter().map(|b| b.images).sum();
    let closed_busy: u64 = closed_spans
        .iter()
        .map(|&(s, e)| {
            batches
                .iter()
                .map(|b| b.end_ns.min(e).saturating_sub(b.start_ns.max(s)))
                .sum::<u64>()
        })
        .sum();

    out.set("bench.gen_late_us_p99", gen_late_p99 as f64 / 1e3);
    out.set("bench.closed_latency_p50_ms", closed_p50_ms);
    out.set("bench.decomp_residual_frac", residual);
    out.set("traced.latency_p50_ms", p50_ms);
    out.set("traced.latency_p90_ms", p90_ms);
    out.set("traced.throughput_per_s", capacity_rps);
    out.set(
        "runtime.serve.queue_wait_us_p50",
        percentile(&queue, 50.0) as f64 / 1e3,
    );
    out.set(
        "runtime.serve.queue_wait_us_p99",
        percentile(&queue, 99.0) as f64 / 1e3,
    );
    out.set("runtime.serve.batch_size_mean", mean(&sizes));
    out.set(
        "runtime.serve.fulfil_us_p50",
        percentile(&fulfil, 50.0) as f64 / 1e3,
    );
    out.set(
        "ir.exec.batch_us_p50",
        percentile(&durations, 50.0) as f64 / 1e3,
    );
    out.set(
        "ir.exec.us_per_image",
        ratio(closed_engine as f64 / 1e3, closed_images as f64),
    );
    out.set(
        "ir.exec.busy_frac",
        ratio(closed_busy as f64, (rounds as u64 * CLOSED_NS) as f64),
    );
    DeployTimes::report(&deploy_times, &mut out);
    let ops = (out.attempted - warmup_attempts) as f64;
    tensor.report(&mut out, ops);
    out
}
