//! Async multi-tenant dynamic-batching inference service.
//!
//! [`BatchModel::infer_batch`] is a synchronous, caller-batched entry
//! point: one thread, one model, one call at a time. This module puts a
//! production front end over the same trait:
//!
//! - **[`Batcher`]** — a *pure, clock-injected* state machine that
//!   coalesces single-image requests into batches. All inputs are explicit
//!   (`tick(now, events) -> actions`); it never reads a clock, never
//!   sleeps, never spawns. That makes every batching decision — batch
//!   composition, deadline flushes, admission rejections and their order —
//!   exactly reproducible by the deterministic simulation suite
//!   (`tests/serve_sim.rs`) with no threads and no wall time.
//! - **[`Server`]** — the threaded shell: one bounded request queue per
//!   model (mutex + condvar), per-model worker *shards* that each own a
//!   clone of a shared immutable `Arc<M>`, and a ticket-based completion
//!   path ([`Ticket::wait`]). Many models are served concurrently; each
//!   model's shards pull flushed batches and run them through
//!   `M::infer_batch`.
//! - **Admission control** — the queue depth is bounded; a request
//!   arriving at a full queue is rejected immediately with
//!   [`ServeError::QueueFull`] (backpressure, never unbounded buffering),
//!   and requests arriving after shutdown began get
//!   [`ServeError::ShuttingDown`].
//! - **Fault containment** — a forward pass that returns an error, the
//!   wrong number of logits, or panics fails only its own batch's tickets
//!   with [`ServeError::Model`]; the shard keeps serving.
//! - **Telemetry** — per-model latency percentiles (p50/p95/p99 via
//!   [`Histogram`]), queue-depth peaks, batch occupancy, and flush-reason
//!   counters, mirrored into the global [`telemetry`] sink (`serve.*`
//!   counters and gauges) when one is installed.
//!
//! Determinism: batching changes *which* images share a batch, so serving
//! is only output-deterministic if the model's per-image results do not
//! depend on batch composition. The integer engine (`edd-ir`'s
//! `CompiledModel`) guarantees this — i32 accumulation is exact — and
//! `crates/core/tests/serve_determinism.rs` proves outputs are
//! bitwise-identical across 1-shard and 4-shard servers and against the
//! model's own batch-1 `infer_batch`.

use crate::infer::BatchModel;
use crate::telemetry::{self, Histogram};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Microseconds on the injected serve clock (the [`Server`] uses
/// microseconds since its own epoch; the simulation suite uses arbitrary
/// script times).
pub type Micros = u64;

// ---------------------------------------------------------------------------
// Pure batcher state machine
// ---------------------------------------------------------------------------

/// Dynamic-batching policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatcherConfig {
    /// Largest batch handed to the model; reaching it flushes immediately.
    pub max_batch: usize,
    /// Longest a request may wait in the queue before a deadline flush.
    pub max_delay_us: Micros,
    /// Admission bound: a request arriving with this many already pending
    /// is rejected with [`RejectReason::QueueFull`].
    pub queue_depth: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 32,
            max_delay_us: 1_000,
            queue_depth: 256,
        }
    }
}

/// Why the batcher refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// `queue_depth` requests were already pending.
    QueueFull,
    /// The batcher was draining (shutdown) when the request arrived.
    ShuttingDown,
}

/// Why a batch left the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// `max_batch` requests were pending.
    Full,
    /// The oldest pending request reached its `max_delay_us` deadline.
    Deadline,
    /// Shutdown drain: remaining requests flushed unconditionally.
    Drain,
}

/// Input to one [`Batcher::tick`].
#[derive(Debug, PartialEq, Eq)]
pub enum BatchEvent<T> {
    /// A request arrived at the tick's `now`.
    Arrive(T),
    /// Begin draining: flush everything pending, reject later arrivals.
    Drain,
}

/// Output of one [`Batcher::tick`], in decision order.
#[derive(Debug, PartialEq, Eq)]
pub enum BatchAction<T> {
    /// Run these requests as one batch (FIFO order preserved).
    Flush {
        /// What triggered the flush.
        reason: FlushReason,
        /// The batch, oldest request first, `1..=max_batch` items.
        items: Vec<T>,
    },
    /// Refuse this request; it never entered the queue.
    Reject {
        /// The refused request, returned to the caller.
        item: T,
        /// Why it was refused.
        reason: RejectReason,
    },
}

/// Pure dynamic-batching state machine: a FIFO of pending requests with
/// admission control and per-request deadlines. All time is injected
/// through [`Batcher::tick`]'s `now`; the struct holds no clock, no
/// threads, and no interior mutability, so identical event scripts
/// produce identical action streams.
#[derive(Debug)]
pub struct Batcher<T> {
    config: BatcherConfig,
    /// Pending requests with their flush deadlines. Deadlines are
    /// monotonically non-decreasing back to front (FIFO arrivals, constant
    /// delay), so only the front needs checking.
    queue: VecDeque<(T, Micros)>,
    draining: bool,
}

impl<T> Batcher<T> {
    /// An empty batcher with the given policy. `max_batch` and
    /// `queue_depth` are clamped to at least 1.
    #[must_use]
    pub fn new(config: BatcherConfig) -> Self {
        Batcher {
            config: BatcherConfig {
                max_batch: config.max_batch.max(1),
                queue_depth: config.queue_depth.max(1),
                ..config
            },
            queue: VecDeque::new(),
            draining: false,
        }
    }

    /// The (clamped) policy in effect.
    #[must_use]
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    /// Number of pending (accepted, not yet flushed) requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no requests are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether a [`BatchEvent::Drain`] has been processed.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Deadline of the oldest pending request: the next time a
    /// [`FlushReason::Deadline`] flush can fire. Drivers sleep until this.
    #[must_use]
    pub fn next_deadline(&self) -> Option<Micros> {
        self.queue.front().map(|(_, d)| *d)
    }

    fn flush(&mut self, reason: FlushReason) -> BatchAction<T> {
        let n = self.queue.len().min(self.config.max_batch);
        let items = self.queue.drain(..n).map(|(item, _)| item).collect();
        BatchAction::Flush { reason, items }
    }

    /// Advances the machine to `now`, applying `events` in order, and
    /// returns every resulting action in decision order.
    ///
    /// Semantics, in order:
    /// 1. Each [`BatchEvent::Arrive`] is admitted (deadline
    ///    `now + max_delay_us`) or rejected — [`RejectReason::QueueFull`]
    ///    if `queue_depth` are already pending,
    ///    [`RejectReason::ShuttingDown`] if draining. Admission that fills
    ///    the batch (`max_batch` pending) flushes immediately
    ///    ([`FlushReason::Full`]).
    /// 2. [`BatchEvent::Drain`] marks the machine draining.
    /// 3. While the oldest pending deadline is `<= now`, pending requests
    ///    flush ([`FlushReason::Deadline`], up to `max_batch` per action —
    ///    younger requests ride along with the expired one).
    /// 4. If draining, everything still pending flushes
    ///    ([`FlushReason::Drain`]).
    ///
    /// Ticks are cheap when idle: no events and no expired deadline means
    /// no actions.
    pub fn tick(
        &mut self,
        now: Micros,
        events: impl IntoIterator<Item = BatchEvent<T>>,
    ) -> Vec<BatchAction<T>> {
        let mut actions = Vec::new();
        for event in events {
            match event {
                BatchEvent::Arrive(item) => {
                    if self.draining {
                        actions.push(BatchAction::Reject {
                            item,
                            reason: RejectReason::ShuttingDown,
                        });
                    } else if self.queue.len() >= self.config.queue_depth {
                        actions.push(BatchAction::Reject {
                            item,
                            reason: RejectReason::QueueFull,
                        });
                    } else {
                        self.queue
                            .push_back((item, now.saturating_add(self.config.max_delay_us)));
                        if self.queue.len() >= self.config.max_batch {
                            actions.push(self.flush(FlushReason::Full));
                        }
                    }
                }
                BatchEvent::Drain => self.draining = true,
            }
        }
        while self.queue.front().is_some_and(|(_, d)| *d <= now) {
            actions.push(self.flush(FlushReason::Deadline));
        }
        while self.draining && !self.queue.is_empty() {
            actions.push(self.flush(FlushReason::Drain));
        }
        actions
    }
}

// ---------------------------------------------------------------------------
// Errors and tickets
// ---------------------------------------------------------------------------

/// Failure surfaced to a serve client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the model's queue is at `queue_depth`. Back off
    /// and retry; nothing was enqueued.
    QueueFull,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The request was malformed (unknown model, wrong image length).
    BadRequest(String),
    /// The model's forward pass failed or panicked; the message is the
    /// model error or the panic message.
    Model(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "queue full (backpressure): retry later"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Model(msg) => write!(f, "model error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RejectReason> for ServeError {
    fn from(r: RejectReason) -> Self {
        match r {
            RejectReason::QueueFull => ServeError::QueueFull,
            RejectReason::ShuttingDown => ServeError::ShuttingDown,
        }
    }
}

/// One-shot completion slot shared by a [`Ticket`] and the worker shard
/// that eventually serves the request.
#[derive(Debug)]
struct Slot {
    result: Mutex<Option<Result<Vec<f32>, ServeError>>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Self {
        Slot {
            result: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, value: Result<Vec<f32>, ServeError>) {
        let mut guard = self
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        debug_assert!(guard.is_none(), "slot fulfilled twice");
        *guard = Some(value);
        self.cv.notify_all();
    }
}

/// Handle to an accepted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request completes, returning its logits
    /// (`num_classes` values) or the error that killed its batch.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] if the model's forward pass failed.
    pub fn wait(self) -> Result<Vec<f32>, ServeError> {
        let mut guard = self
            .slot
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self
                .slot
                .cv
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

// ---------------------------------------------------------------------------
// Threaded multi-tenant server
// ---------------------------------------------------------------------------

/// Server-level configuration: batching policy plus shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Per-model dynamic-batching policy.
    pub batcher: BatcherConfig,
    /// Worker threads per model (clamped to at least 1). Shards share one
    /// immutable `Arc<M>`; more shards overlap inference on large batches
    /// but never change outputs (see the determinism suite).
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batcher: BatcherConfig::default(),
            shards: 1,
        }
    }
}

/// A request queued inside the server: the flattened image, its arrival
/// time (for latency accounting), and the client's completion slot.
#[derive(Debug)]
struct Request {
    image: Vec<f32>,
    enqueued_at: Micros,
    slot: Arc<Slot>,
}

/// Lock-protected per-model queue state.
#[derive(Debug)]
struct QueueState {
    batcher: Batcher<Request>,
    /// Batches flushed by the batcher, awaiting a free shard.
    ready: VecDeque<(FlushReason, Vec<Request>)>,
    shutdown: bool,
}

/// Relaxed per-model counters (hot path: one submit, one batch completion).
#[derive(Debug, Default)]
struct ModelCounters {
    accepted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_shutdown: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_images: AtomicU64,
    full_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    drain_flushes: AtomicU64,
    queue_peak: AtomicU64,
}

/// Everything the submit path and the worker shards share for one model.
struct ModelShared<M> {
    name: String,
    model: Arc<M>,
    state: Mutex<QueueState>,
    cv: Condvar,
    counters: ModelCounters,
    latency: Histogram,
}

impl<M> std::fmt::Debug for ModelShared<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelShared")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// Latency percentile summary (microseconds), from a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Completed-request count the percentiles are over.
    pub count: u64,
    /// Median queue-to-completion latency.
    pub p50_us: u64,
    /// 95th percentile latency.
    pub p95_us: u64,
    /// 99th percentile latency.
    pub p99_us: u64,
    /// Worst observed latency.
    pub max_us: u64,
}

/// Point-in-time statistics for one served model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelServeStats {
    /// Model name given at [`Server::start`].
    pub name: String,
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests rejected by admission control (queue at `queue_depth`).
    pub rejected_full: u64,
    /// Requests rejected because shutdown had begun.
    pub rejected_shutdown: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that failed inside the model's forward pass (errors and
    /// panics alike).
    pub failed: u64,
    /// Batches run through the model.
    pub batches: u64,
    /// Total images across all batches.
    pub batched_images: u64,
    /// Batches flushed because they reached `max_batch`.
    pub full_flushes: u64,
    /// Batches flushed by the `max_delay_us` deadline.
    pub deadline_flushes: u64,
    /// Batches flushed by the shutdown drain.
    pub drain_flushes: u64,
    /// Highest pending-queue depth observed at admission time.
    pub queue_peak: u64,
    /// Queue-to-completion latency percentiles.
    pub latency: LatencySummary,
}

impl ModelServeStats {
    /// Mean images per batch (batch occupancy); 0 before any batch.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_images as f64 / self.batches as f64
        }
    }
}

/// Multi-tenant dynamic-batching server over any [`BatchModel`].
///
/// Each registered model gets its own bounded queue, [`Batcher`], and
/// `shards` worker threads sharing one immutable `Arc<M>`. Clients call
/// [`Server::submit`] (non-blocking admission, returns a [`Ticket`]) and
/// redeem the ticket with [`Ticket::wait`]. Dropping the server performs a
/// graceful shutdown: intake stops, pending requests drain, workers join.
#[derive(Debug)]
pub struct Server<M: BatchModel + Send + Sync + 'static> {
    models: Vec<Arc<ModelShared<M>>>,
    workers: Vec<JoinHandle<()>>,
    epoch: Instant,
}

impl<M: BatchModel + Send + Sync + 'static> Server<M> {
    /// Starts worker shards for `models` and begins accepting requests.
    /// Models are addressed by their index in `models`.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty or a worker thread cannot be spawned.
    #[must_use]
    pub fn start(models: Vec<(String, Arc<M>)>, config: ServeConfig) -> Self {
        assert!(!models.is_empty(), "Server::start: no models");
        let epoch = Instant::now();
        let shards = config.shards.max(1);
        let shared: Vec<Arc<ModelShared<M>>> = models
            .into_iter()
            .map(|(name, model)| {
                Arc::new(ModelShared {
                    name,
                    model,
                    state: Mutex::new(QueueState {
                        batcher: Batcher::new(config.batcher),
                        ready: VecDeque::new(),
                        shutdown: false,
                    }),
                    cv: Condvar::new(),
                    counters: ModelCounters::default(),
                    latency: Histogram::new(),
                })
            })
            .collect();
        let mut workers = Vec::with_capacity(shared.len() * shards);
        for (mi, ms) in shared.iter().enumerate() {
            for si in 0..shards {
                let ms = Arc::clone(ms);
                let handle = std::thread::Builder::new()
                    .name(format!("edd-serve-{mi}-{si}"))
                    .spawn(move || worker_loop(&ms, epoch))
                    .expect("spawn serve shard");
                workers.push(handle);
            }
        }
        Server {
            models: shared,
            workers,
            epoch,
        }
    }

    fn now(&self) -> Micros {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The shared model at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn model(&self, index: usize) -> &Arc<M> {
        &self.models[index].model
    }

    /// Submits one image to model `model`: non-blocking admission that
    /// either queues the request (returning a [`Ticket`]) or rejects it.
    ///
    /// # Errors
    ///
    /// - [`ServeError::BadRequest`] — unknown model index or wrong image
    ///   length (nothing was enqueued);
    /// - [`ServeError::QueueFull`] — admission control (backpressure);
    /// - [`ServeError::ShuttingDown`] — shutdown already began.
    pub fn submit(&self, model: usize, image: Vec<f32>) -> Result<Ticket, ServeError> {
        let Some(ms) = self.models.get(model) else {
            return Err(ServeError::BadRequest(format!(
                "no model at index {model} ({} registered)",
                self.models.len()
            )));
        };
        let expect = ms.model.image_len();
        if image.len() != expect {
            return Err(ServeError::BadRequest(format!(
                "model {}: expected {expect} image values, got {}",
                ms.name,
                image.len()
            )));
        }
        let now = self.now();
        let slot = Arc::new(Slot::new());
        let request = Request {
            image,
            enqueued_at: now,
            slot: Arc::clone(&slot),
        };
        let mut rejected = None;
        {
            let mut st = ms
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let actions = st.batcher.tick(now, [BatchEvent::Arrive(request)]);
            let mut flushed = false;
            for action in actions {
                match action {
                    BatchAction::Flush { reason, items } => {
                        record_flush(ms, reason);
                        st.ready.push_back((reason, items));
                        flushed = true;
                    }
                    BatchAction::Reject { reason, .. } => rejected = Some(reason),
                }
            }
            let depth = st.batcher.len() as u64;
            ms.counters.queue_peak.fetch_max(depth, Ordering::Relaxed);
            // Wake a shard: either a batch is ready, or the pending queue
            // just became non-empty and a parked shard must start a
            // deadline timer for it.
            if flushed || st.batcher.len() == 1 {
                ms.cv.notify_one();
            }
            if telemetry::enabled() {
                telemetry::gauge("serve.queue_depth", depth);
            }
        }
        match rejected {
            Some(reason) => {
                match reason {
                    RejectReason::QueueFull => &ms.counters.rejected_full,
                    RejectReason::ShuttingDown => &ms.counters.rejected_shutdown,
                }
                .fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.rejected", 1);
                Err(reason.into())
            }
            None => {
                ms.counters.accepted.fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.accepted", 1);
                Ok(Ticket { slot })
            }
        }
    }

    /// Point-in-time statistics for the model at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn stats(&self, index: usize) -> ModelServeStats {
        model_stats(&self.models[index])
    }

    /// Statistics for every model, in registration order.
    #[must_use]
    pub fn stats_all(&self) -> Vec<ModelServeStats> {
        self.models.iter().map(|ms| model_stats(ms)).collect()
    }

    /// Stops intake without blocking: marks every model shutting down and
    /// drains pending requests to the shards. Requests submitted after
    /// this call get [`ServeError::ShuttingDown`]; already-accepted ones
    /// still complete. Call [`Server::shutdown`] (or drop the server) to
    /// also join the workers.
    pub fn begin_shutdown(&self) {
        let now = self.now();
        for ms in &self.models {
            let mut st = ms
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
            let actions = st.batcher.tick(now, [BatchEvent::Drain]);
            for action in actions {
                match action {
                    BatchAction::Flush { reason, items } => {
                        record_flush(ms, reason);
                        st.ready.push_back((reason, items));
                    }
                    BatchAction::Reject { item, reason } => {
                        // Unreachable (Drain produces no rejects), but a
                        // dropped request must still resolve its ticket.
                        item.slot.fulfill(Err(reason.into()));
                    }
                }
            }
            ms.cv.notify_all();
        }
    }

    /// Graceful shutdown: stops intake, drains every pending request
    /// through the shards, joins all workers, and returns final per-model
    /// statistics. Every accepted request is completed before this
    /// returns (exactly-once delivery).
    #[must_use]
    pub fn shutdown(mut self) -> Vec<ModelServeStats> {
        self.shutdown_inner();
        let stats = self.stats_all();
        for ms in &self.models {
            telemetry::event(
                "serve.model",
                &[
                    ("model", ms.name.as_str().into()),
                    (
                        "accepted",
                        ms.counters.accepted.load(Ordering::Relaxed).into(),
                    ),
                    (
                        "completed",
                        ms.counters.completed.load(Ordering::Relaxed).into(),
                    ),
                    ("p50_us", ms.latency.percentile(50.0).into()),
                    ("p99_us", ms.latency.percentile(99.0).into()),
                ],
            );
        }
        stats
    }

    fn shutdown_inner(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.begin_shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl<M: BatchModel + Send + Sync + 'static> Drop for Server<M> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn record_flush<M>(ms: &ModelShared<M>, reason: FlushReason) {
    match reason {
        FlushReason::Full => &ms.counters.full_flushes,
        FlushReason::Deadline => &ms.counters.deadline_flushes,
        FlushReason::Drain => &ms.counters.drain_flushes,
    }
    .fetch_add(1, Ordering::Relaxed);
}

fn model_stats<M>(ms: &ModelShared<M>) -> ModelServeStats {
    let c = &ms.counters;
    ModelServeStats {
        name: ms.name.clone(),
        accepted: c.accepted.load(Ordering::Relaxed),
        rejected_full: c.rejected_full.load(Ordering::Relaxed),
        rejected_shutdown: c.rejected_shutdown.load(Ordering::Relaxed),
        completed: c.completed.load(Ordering::Relaxed),
        failed: c.failed.load(Ordering::Relaxed),
        batches: c.batches.load(Ordering::Relaxed),
        batched_images: c.batched_images.load(Ordering::Relaxed),
        full_flushes: c.full_flushes.load(Ordering::Relaxed),
        deadline_flushes: c.deadline_flushes.load(Ordering::Relaxed),
        drain_flushes: c.drain_flushes.load(Ordering::Relaxed),
        queue_peak: c.queue_peak.load(Ordering::Relaxed),
        latency: LatencySummary {
            count: ms.latency.count(),
            p50_us: ms.latency.percentile(50.0),
            p95_us: ms.latency.percentile(95.0),
            p99_us: ms.latency.percentile(99.0),
            max_us: ms.latency.max(),
        },
    }
}

/// One shard: pull ready batches (or flush expired deadlines) and run
/// them through the shared model. Exits when shutdown is set and both the
/// batcher and the ready queue are empty.
fn worker_loop<M: BatchModel + Send + Sync>(ms: &Arc<ModelShared<M>>, epoch: Instant) {
    let now_us = |epoch: Instant| -> Micros {
        u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    };
    loop {
        let batch = {
            let mut st = ms
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if let Some(batch) = st.ready.pop_front() {
                    // Hand off: if work remains, another shard should wake.
                    if !st.ready.is_empty() || !st.batcher.is_empty() {
                        ms.cv.notify_one();
                    }
                    break Some(batch);
                }
                let actions = st.batcher.tick(now_us(epoch), std::iter::empty());
                if !actions.is_empty() {
                    for action in actions {
                        if let BatchAction::Flush { reason, items } = action {
                            record_flush(ms, reason);
                            st.ready.push_back((reason, items));
                        }
                    }
                    continue;
                }
                if st.shutdown && st.batcher.is_empty() && st.ready.is_empty() {
                    break None;
                }
                st = match st.batcher.next_deadline() {
                    Some(deadline) => {
                        let wait = Duration::from_micros(deadline.saturating_sub(now_us(epoch)));
                        ms.cv
                            .wait_timeout(st, wait)
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .0
                    }
                    None => ms
                        .cv
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner),
                };
            }
        };
        let Some((_, requests)) = batch else { return };
        run_batch(ms, epoch, requests);
    }
}

/// Runs one flushed batch through the model and fulfills every ticket.
fn run_batch<M: BatchModel + Send + Sync>(
    ms: &Arc<ModelShared<M>>,
    epoch: Instant,
    requests: Vec<Request>,
) {
    let n = requests.len();
    debug_assert!(n > 0, "empty flush");
    let image_len = ms.model.image_len();
    let classes = ms.model.num_classes();
    let mut images = Vec::with_capacity(n * image_len);
    for r in &requests {
        images.extend_from_slice(&r.image);
    }
    ms.counters.batches.fetch_add(1, Ordering::Relaxed);
    ms.counters
        .batched_images
        .fetch_add(n as u64, Ordering::Relaxed);
    if telemetry::enabled() {
        telemetry::counter("serve.batches", 1);
        telemetry::counter("serve.images", n as u64);
        telemetry::gauge("serve.batch_occupancy", n as u64);
    }
    // A panicking model fails its own batch only: the shard survives to
    // serve the next one, and every ticket still resolves exactly once.
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| ms.model.infer_batch(&images, n)));
    let result = match outcome {
        Ok(Ok(logits)) if logits.len() == n * classes => Ok(logits),
        Ok(Ok(logits)) => Err(format!(
            "model {} returned {} logits for batch {n} x {classes} classes",
            ms.name,
            logits.len()
        )),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => {
            let what = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            Err(format!("model panicked: {what}"))
        }
    };
    match result {
        Ok(logits) => {
            let done_at = u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
            ms.counters.completed.fetch_add(n as u64, Ordering::Relaxed);
            for (i, r) in requests.into_iter().enumerate() {
                ms.latency.record(done_at.saturating_sub(r.enqueued_at));
                r.slot
                    .fulfill(Ok(logits[i * classes..(i + 1) * classes].to_vec()));
            }
        }
        Err(msg) => {
            ms.counters.failed.fetch_add(n as u64, Ordering::Relaxed);
            telemetry::counter("serve.failed", n as u64);
            for r in requests {
                r.slot.fulfill(Err(ServeError::Model(msg.clone())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-image deterministic toy model: logit c of an image is
    /// `sum_i x[i] * (i + 1) + c`, computed independently per image so
    /// outputs never depend on batch composition.
    #[derive(Debug)]
    struct ToyModel {
        len: usize,
        classes: usize,
    }

    impl BatchModel for ToyModel {
        type Error = String;

        fn image_len(&self) -> usize {
            self.len
        }

        fn num_classes(&self) -> usize {
            self.classes
        }

        fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, String> {
            if images.len() != batch * self.len {
                return Err("bad shape".into());
            }
            let mut out = Vec::with_capacity(batch * self.classes);
            for img in images.chunks_exact(self.len) {
                let mut acc = 0.0f32;
                for (i, &x) in img.iter().enumerate() {
                    acc += x * (i + 1) as f32;
                }
                for c in 0..self.classes {
                    out.push(acc + c as f32);
                }
            }
            Ok(out)
        }
    }

    fn toy_server(shards: usize) -> Server<ToyModel> {
        Server::start(
            vec![("toy".into(), Arc::new(ToyModel { len: 4, classes: 2 }))],
            ServeConfig {
                batcher: BatcherConfig {
                    max_batch: 4,
                    max_delay_us: 200,
                    queue_depth: 64,
                },
                shards,
            },
        )
    }

    #[test]
    fn serves_one_request_end_to_end() {
        let server = toy_server(1);
        let logits = server
            .submit(0, vec![1.0, 0.0, 0.0, 0.0])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(logits, vec![1.0, 2.0]);
        let stats = server.shutdown().remove(0);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.latency.count, 1);
    }

    #[test]
    fn rejects_wrong_image_len_and_bad_model_index() {
        let server = toy_server(1);
        assert!(matches!(
            server.submit(0, vec![0.0; 3]),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            server.submit(7, vec![0.0; 4]),
            Err(ServeError::BadRequest(_))
        ));
        assert_eq!(server.stats(0).accepted, 0);
    }

    #[test]
    fn shutdown_is_idempotent_via_drop() {
        let server = toy_server(2);
        let t = server.submit(0, vec![0.5; 4]).unwrap();
        drop(server); // drains + joins; ticket must still resolve
        assert!(t.wait().is_ok());
    }
}
