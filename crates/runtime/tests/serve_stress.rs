//! Concurrency stress and property tests for the multi-tenant serve path:
//! real threads, real shards, real condvars.
//!
//! Invariants proven here:
//! - **Exactly-once**: every submitted request resolves exactly once —
//!   either rejected at admission or completed with logits; accepted +
//!   rejected == submitted and completed == accepted after shutdown.
//! - **Bitwise equivalence**: whatever batches the dynamic batcher forms,
//!   each response is bit-identical to the same image run through the
//!   synchronous [`InferServer`] path (the toy model is per-image
//!   deterministic, like the integer engine).
//! - **Graceful shutdown**: pending requests are drained, never dropped.
//! - **Fault containment**: a model that panics fails only its own batch,
//!   and its shard keeps serving.
//! - **Property coverage**: the above hold across random
//!   (max_batch, max_delay, queue_depth, shards, arrival pattern).

use edd_runtime::serve::{BatcherConfig, ServeConfig, ServeError, Server, Ticket};
use edd_runtime::{BatchModel, InferServer};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-image deterministic toy model: logit `c` of an image is
/// `sum_i x[i] * (i + 1) + c * x[0]`, computed in a fixed order per image
/// so results never depend on batch composition — the same property the
/// integer engine's i32 accumulation provides.
#[derive(Debug)]
struct ToyModel {
    len: usize,
    classes: usize,
    /// Batches served (to prove shards actually ran them).
    batches: AtomicU64,
}

impl ToyModel {
    fn new(len: usize, classes: usize) -> Self {
        ToyModel {
            len,
            classes,
            batches: AtomicU64::new(0),
        }
    }
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
            return Err(format!(
                "expected {} values, got {}",
                batch * self.len,
                images.len()
            ));
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        let mut out = Vec::with_capacity(batch * self.classes);
        for img in images.chunks_exact(self.len) {
            let mut acc = 0.0f32;
            for (i, &x) in img.iter().enumerate() {
                acc += x * (i + 1) as f32;
            }
            for c in 0..self.classes {
                out.push(acc + c as f32 * img[0]);
            }
        }
        Ok(out)
    }
}

/// Deterministic pseudo-random image for (producer, sequence) — cheap
/// integer hashing so producers need no shared RNG.
fn image_for(len: usize, producer: usize, seq: usize) -> Vec<f32> {
    let mut state = (producer as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 2000) as f32 - 1000.0) / 250.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn producers_times_models_exactly_once_and_bitwise_matches_sync() {
    const PRODUCERS: usize = 6;
    const PER_PRODUCER: usize = 200;
    const MODELS: usize = 3;

    // Models of different shapes — multi-tenant, one server.
    let models: Vec<Arc<ToyModel>> = (0..MODELS)
        .map(|m| Arc::new(ToyModel::new(4 + 2 * m, 2 + m)))
        .collect();
    let server = Arc::new(Server::start(
        models
            .iter()
            .enumerate()
            .map(|(m, model)| (format!("toy-{m}"), Arc::clone(model)))
            .collect(),
        ServeConfig {
            batcher: BatcherConfig {
                max_batch: 8,
                max_delay_us: 300,
                // Deep enough that this test sees no backpressure: the
                // exactly-once accounting below requires acceptance.
                queue_depth: 4096,
            },
            shards: 3,
        },
    ));

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut results = Vec::with_capacity(PER_PRODUCER);
                let mut tickets = Vec::new();
                for seq in 0..PER_PRODUCER {
                    let m = (p + seq) % MODELS;
                    let image = image_for(server.model(m).image_len(), p, seq);
                    let ticket = server.submit(m, image).expect("deep queue never rejects");
                    tickets.push((m, seq, ticket));
                    // Interleave waits to keep many requests in flight.
                    if tickets.len() >= 16 {
                        for (m, seq, t) in tickets.drain(..) {
                            results.push((m, seq, t.wait().expect("toy model never fails")));
                        }
                    }
                }
                for (m, seq, t) in tickets {
                    results.push((m, seq, t.wait().expect("toy model never fails")));
                }
                (p, results)
            })
        })
        .collect();

    let mut all: Vec<(usize, usize, usize, Vec<f32>)> = Vec::new();
    for h in handles {
        let (p, results) = h.join().expect("producer thread");
        for (m, seq, logits) in results {
            all.push((p, m, seq, logits));
        }
    }
    // Exactly-once: every (producer, seq) resolved exactly once.
    assert_eq!(all.len(), PRODUCERS * PER_PRODUCER);

    // Bitwise equivalence against the synchronous path, model by model.
    let sync: Vec<InferServer<&ToyModel>> = models
        .iter()
        .map(|m| InferServer::new(m.as_ref()))
        .collect();
    for (p, m, seq, logits) in &all {
        let image = image_for(models[*m].image_len(), *p, *seq);
        let want = sync[*m].infer(&image, 1).expect("sync reference");
        assert_eq!(
            bits(logits),
            bits(&want),
            "producer {p} seq {seq} model {m}: dynamic batch diverged from sync"
        );
    }

    let stats = server_stats(&server);
    drop(server);
    let (accepted, completed, rejected): (u64, u64, u64) = stats;
    assert_eq!(accepted, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(completed, accepted);
    assert_eq!(rejected, 0);
}

fn server_stats(server: &Server<ToyModel>) -> (u64, u64, u64) {
    let mut accepted = 0;
    let mut completed = 0;
    let mut rejected = 0;
    for s in server.stats_all() {
        accepted += s.accepted;
        completed += s.completed;
        rejected += s.rejected_full + s.rejected_shutdown;
    }
    (accepted, completed, rejected)
}

#[test]
fn graceful_shutdown_drains_every_pending_request() {
    // max_delay far beyond the test duration and max_batch larger than
    // the submission count: nothing can flush on its own. Only the
    // shutdown drain can complete these requests.
    let model = Arc::new(ToyModel::new(4, 2));
    let server = Server::start(
        vec![("toy".into(), Arc::clone(&model))],
        ServeConfig {
            batcher: BatcherConfig {
                max_batch: 1024,
                max_delay_us: 60_000_000,
                queue_depth: 1024,
            },
            shards: 2,
        },
    );
    let tickets: Vec<_> = (0..37)
        .map(|i| server.submit(0, image_for(4, 0, i)).expect("accepted"))
        .collect();
    let stats = server.shutdown().remove(0);
    assert_eq!(stats.accepted, 37);
    assert_eq!(stats.completed, 37, "drain must complete every request");
    assert_eq!(stats.drain_flushes, 1);
    for t in tickets {
        assert!(t.wait().is_ok(), "ticket must resolve after drain");
    }
    assert_eq!(model.batches.load(Ordering::Relaxed), 1);
}

#[test]
fn backpressure_rejects_when_queue_is_full_and_server_recovers() {
    // A model that blocks until released, letting the queue fill
    // deterministically.
    #[derive(Debug)]
    struct GatedModel {
        gate: std::sync::Mutex<bool>,
        cv: std::sync::Condvar,
    }
    impl BatchModel for GatedModel {
        type Error = String;
        fn image_len(&self) -> usize {
            2
        }
        fn num_classes(&self) -> usize {
            1
        }
        fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, String> {
            let mut open = self.gate.lock().unwrap();
            while !*open {
                open = self.cv.wait(open).unwrap();
            }
            Ok(images
                .chunks_exact(2)
                .take(batch)
                .map(|img| img[0] + img[1])
                .collect())
        }
    }
    let model = Arc::new(GatedModel {
        gate: std::sync::Mutex::new(false),
        cv: std::sync::Condvar::new(),
    });
    // max_batch and max_delay both out of reach: requests can only sit in
    // the pending queue, so depth 2 fills deterministically.
    let server = Server::start(
        vec![("gated".into(), Arc::clone(&model))],
        ServeConfig {
            batcher: BatcherConfig {
                max_batch: 64,
                max_delay_us: 60_000_000,
                queue_depth: 2,
            },
            shards: 1,
        },
    );
    let t0 = server.submit(0, vec![1.0, 2.0]).expect("depth 0 -> accept");
    let t1 = server.submit(0, vec![3.0, 4.0]).expect("depth 1 -> accept");
    // Queue is now at depth 2: admission control must reject.
    assert!(matches!(
        server.submit(0, vec![5.0, 6.0]),
        Err(ServeError::QueueFull)
    ));
    let stats = server.stats(0);
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.rejected_full, 1);
    assert_eq!(stats.queue_peak, 2);
    // Open the gate; shutdown drains the two pending requests.
    {
        let mut open = model.gate.lock().unwrap();
        *open = true;
        model.cv.notify_all();
    }
    let stats = server.shutdown().remove(0);
    assert_eq!(stats.completed, 2);
    assert_eq!(t0.wait().unwrap(), vec![3.0]);
    assert_eq!(t1.wait().unwrap(), vec![7.0]);
}

/// Waits for `ticket` on a helper thread for at most 10 s, so a ticket
/// that never resolves fails the test instead of hanging it (its waiter
/// thread is then left blocked; one that resolves is joined).
fn wait_within_10s(ticket: Ticket) -> Option<Result<Vec<f32>, ServeError>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || tx.send(ticket.wait()));
    let got = rx.recv_timeout(Duration::from_secs(10)).ok()?;
    waiter
        .join()
        .expect("waiter thread panicked")
        .expect("the receiver outlives the waiter");
    Some(got)
}

#[test]
fn a_panicking_model_fails_only_its_batch_and_the_shard_keeps_serving() {
    /// The toy model, except that it panics on an image whose first value
    /// is `MARK`.
    #[derive(Debug)]
    struct PanicOnMark(ToyModel);
    const MARK: f32 = 1.0e9;
    impl BatchModel for PanicOnMark {
        type Error = String;
        fn image_len(&self) -> usize {
            self.0.image_len()
        }
        fn num_classes(&self) -> usize {
            self.0.num_classes()
        }
        fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, String> {
            let marked = images.chunks_exact(self.0.len).any(|img| img[0] == MARK);
            assert!(!marked, "poisoned image");
            self.0.infer_batch(images, batch)
        }
    }
    // One shard, one image per batch: the poisoned request's batch panics
    // on the only worker the model has.
    let model = Arc::new(PanicOnMark(ToyModel::new(4, 3)));
    let server = Server::start(
        vec![("poison".into(), Arc::clone(&model))],
        ServeConfig {
            batcher: BatcherConfig {
                max_batch: 1,
                max_delay_us: 60_000_000,
                queue_depth: 64,
            },
            shards: 1,
        },
    );
    let mut poisoned = image_for(4, 0, 0);
    poisoned[0] = MARK;
    let bad = server.submit(0, poisoned).expect("accepted");
    let image = image_for(4, 0, 1);
    let good = server.submit(0, image.clone()).expect("accepted");
    match wait_within_10s(bad) {
        Some(Err(ServeError::Model(msg))) => {
            assert!(msg.contains("model panicked: poisoned image"), "{msg}");
        }
        other => panic!("poisoned ticket: {other:?}"),
    }
    let logits = wait_within_10s(good)
        .expect("the next request on the shard is still pending")
        .expect("the next request fails");
    let want = InferServer::new(&model.0).infer(&image, 1).unwrap();
    assert_eq!(bits(&logits), bits(&want));
    let stats = server.shutdown().remove(0);
    assert_eq!(stats.accepted, 2);
    assert_eq!((stats.completed, stats.failed), (1, 1));
    assert_eq!(stats.accepted, stats.completed + stats.failed);
}

#[test]
fn submits_after_begin_shutdown_are_rejected_but_pending_complete() {
    let model = Arc::new(ToyModel::new(4, 2));
    let server = Server::start(
        vec![("toy".into(), model)],
        ServeConfig {
            batcher: BatcherConfig {
                max_batch: 1024,
                max_delay_us: 60_000_000,
                queue_depth: 64,
            },
            shards: 1,
        },
    );
    let pending = server.submit(0, image_for(4, 0, 0)).expect("accepted");
    server.begin_shutdown();
    // Intake is closed immediately...
    assert!(matches!(
        server.submit(0, image_for(4, 0, 1)),
        Err(ServeError::ShuttingDown)
    ));
    // ...but the already-accepted request still completes.
    assert!(pending.wait().is_ok());
    let stats = server.shutdown().remove(0);
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1);
}

proptest! {
    // Each case spawns real threads; keep the count modest — this still
    // covers ~2.5k served requests across 16 random configurations.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exactly-once + bitwise-vs-sync + drain, across random batching
    /// configs, shard counts, and arrival patterns.
    #[test]
    fn random_configs_preserve_serving_invariants(
        max_batch in 1usize..10,
        max_delay_us in 0u64..2_000,
        queue_depth in 1usize..40,
        shards in 1usize..5,
        producers in 1usize..4,
        per_producer in 1usize..60,
        window in 1usize..20,
    ) {
        let model = Arc::new(ToyModel::new(6, 3));
        let server = Arc::new(Server::start(
            vec![("toy".into(), Arc::clone(&model))],
            ServeConfig {
                batcher: BatcherConfig { max_batch, max_delay_us, queue_depth },
                shards,
            },
        ));
        let handles: Vec<_> = (0..producers).map(|p| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut completed: Vec<(usize, Vec<f32>)> = Vec::new();
                let mut rejected = 0u64;
                let mut tickets = Vec::new();
                for seq in 0..per_producer {
                    match server.submit(0, image_for(6, p, seq)) {
                        Ok(t) => tickets.push((seq, t)),
                        Err(ServeError::QueueFull) => rejected += 1,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                    if tickets.len() >= window {
                        for (seq, t) in tickets.drain(..) {
                            completed.push((seq, t.wait().expect("model never fails")));
                        }
                    }
                }
                for (seq, t) in tickets {
                    completed.push((seq, t.wait().expect("model never fails")));
                }
                (p, completed, rejected)
            })
        }).collect();

        let mut total_completed = 0u64;
        let mut total_rejected = 0u64;
        let sync = InferServer::new(model.as_ref());
        for h in handles {
            let (p, completed, rejected) = h.join().expect("producer");
            total_rejected += rejected;
            total_completed += completed.len() as u64;
            for (seq, logits) in completed {
                let want = sync.infer(&image_for(6, p, seq), 1).expect("sync");
                prop_assert_eq!(bits(&logits), bits(&want),
                    "producer {} seq {} diverged from sync path", p, seq);
            }
        }
        prop_assert_eq!(
            total_completed + total_rejected,
            (producers * per_producer) as u64,
            "requests lost or duplicated"
        );
        let server = Arc::try_unwrap(server).map_err(|_| TestCaseError::fail("arc"))?;
        let stats = server.shutdown().remove(0);
        prop_assert_eq!(stats.accepted, total_completed);
        prop_assert_eq!(stats.completed, total_completed);
        prop_assert_eq!(stats.rejected_full, total_rejected);
        prop_assert_eq!(stats.failed, 0);
        prop_assert_eq!(stats.batched_images, total_completed);
        // Occupancy can never exceed max_batch.
        prop_assert!(stats.mean_occupancy() <= max_batch.max(1) as f64 + 1e-9);
    }
}
