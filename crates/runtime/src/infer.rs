//! Batched inference serving: a model-agnostic [`BatchModel`] trait and an
//! [`InferServer`] wrapper that adds request/latency telemetry.
//!
//! `edd-runtime` sits below the model crates in the workspace graph, so the
//! server is generic over anything that can turn a batch of images into a
//! batch of logits — the integer engine `edd_ir::CompiledModel`
//! implements [`BatchModel`] and is the intended occupant. The server
//! counts requests and images, tracks total and worst-case wall time, and
//! mirrors every request into the global [`telemetry`]
//! sink (`infer.requests` / `infer.images` counters, `infer.latency_us`
//! gauge) so traces line up with search-loop spans.

use crate::telemetry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A model that maps a batch of flat NCHW images to a batch of logits.
pub trait BatchModel {
    /// Error type surfaced by a failed forward pass.
    type Error: std::fmt::Display;

    /// Number of values in one input image (`c·h·w`).
    fn image_len(&self) -> usize;

    /// Number of logits per image.
    fn num_classes(&self) -> usize;

    /// Runs the model on `batch` images packed contiguously in `images`
    /// (`images.len() == batch · image_len()`), returning
    /// `batch · num_classes()` logits.
    ///
    /// # Errors
    ///
    /// Implementation-defined; shape mismatches at minimum.
    fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, Self::Error>;
}

impl<M: BatchModel + ?Sized> BatchModel for &M {
    type Error = M::Error;

    fn image_len(&self) -> usize {
        M::image_len(self)
    }

    fn num_classes(&self) -> usize {
        M::num_classes(self)
    }

    fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, Self::Error> {
        M::infer_batch(self, images, batch)
    }
}

impl<M: BatchModel + ?Sized> BatchModel for std::sync::Arc<M> {
    type Error = M::Error;

    fn image_len(&self) -> usize {
        M::image_len(self)
    }

    fn num_classes(&self) -> usize {
        M::num_classes(self)
    }

    fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, Self::Error> {
        M::infer_batch(self, images, batch)
    }
}

/// Counters accumulated by an [`InferServer`] (atomics: the server is
/// shareable across threads).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    images: AtomicU64,
    total_latency_us: AtomicU64,
    max_latency_us: AtomicU64,
}

/// Point-in-time copy of an [`InferServer`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferStats {
    /// Batched requests served.
    pub requests: u64,
    /// Total images across all requests.
    pub images: u64,
    /// Summed request wall time in microseconds.
    pub total_latency_us: u64,
    /// Worst single-request wall time in microseconds.
    pub max_latency_us: u64,
}

impl InferStats {
    /// Mean wall time per request in microseconds.
    ///
    /// Empty stats (no requests) report `0.0` — never `NaN` — so the
    /// value is always safe to print or aggregate.
    #[must_use]
    pub fn mean_latency_us(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency_us as f64 / self.requests as f64
        }
    }

    /// Sustained throughput in images per second.
    ///
    /// Empty stats (no images served) report `0.0` — never `NaN` or
    /// `inf`. When images *were* served but the summed wall time rounded
    /// down to 0 µs (sub-microsecond requests), the elapsed time is
    /// clamped to 1 µs so real work never reports zero throughput.
    #[must_use]
    pub fn images_per_sec(&self) -> f64 {
        if self.images == 0 {
            0.0
        } else {
            self.images as f64 * 1e6 / self.total_latency_us.max(1) as f64
        }
    }
}

/// Wraps a [`BatchModel`] with request counting and latency tracking.
#[derive(Debug)]
pub struct InferServer<M> {
    model: M,
    counters: Counters,
}

impl<M: BatchModel> InferServer<M> {
    /// Wraps `model`.
    pub fn new(model: M) -> Self {
        InferServer {
            model,
            counters: Counters::default(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Serves one batched request, updating counters on success.
    ///
    /// # Errors
    ///
    /// Propagates the model's error; failed requests are not counted.
    pub fn infer(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, M::Error> {
        let start = Instant::now();
        let logits = self.model.infer_batch(images, batch)?;
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .images
            .fetch_add(batch as u64, Ordering::Relaxed);
        self.counters
            .total_latency_us
            .fetch_add(us, Ordering::Relaxed);
        self.counters
            .max_latency_us
            .fetch_max(us, Ordering::Relaxed);
        telemetry::counter("infer.requests", 1);
        telemetry::counter("infer.images", batch as u64);
        telemetry::gauge("infer.latency_us", us);
        Ok(logits)
    }

    /// Snapshot of the accumulated counters.
    pub fn stats(&self) -> InferStats {
        InferStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            images: self.counters.images.load(Ordering::Relaxed),
            total_latency_us: self.counters.total_latency_us.load(Ordering::Relaxed),
            max_latency_us: self.counters.max_latency_us.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: logit = mean of the image, replicated per class.
    struct MeanModel {
        classes: usize,
        len: usize,
    }

    impl BatchModel for MeanModel {
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
            let mut out = Vec::with_capacity(batch * self.classes);
            for img in images.chunks_exact(self.len) {
                let mean = img.iter().sum::<f32>() / self.len as f32;
                out.extend(std::iter::repeat_n(mean, self.classes));
            }
            Ok(out)
        }
    }

    #[test]
    fn serves_batches_and_counts() {
        let server = InferServer::new(MeanModel { classes: 3, len: 4 });
        let logits = server
            .infer(&[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], 2)
            .unwrap();
        assert_eq!(logits, vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        server.infer(&[0.0; 4], 1).unwrap();
        let s = server.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.images, 3);
        assert!(s.max_latency_us <= s.total_latency_us);
        assert!(s.mean_latency_us() >= 0.0);
        assert_eq!(server.model().num_classes(), 3);
        assert_eq!(server.model().image_len(), 4);
    }

    #[test]
    fn failed_requests_are_not_counted() {
        let server = InferServer::new(MeanModel { classes: 2, len: 4 });
        assert!(server.infer(&[0.0; 3], 1).is_err());
        let s = server.stats();
        assert_eq!(s.requests, 0);
        assert_eq!(s.images, 0);
        assert_eq!(s.mean_latency_us(), 0.0);
        assert_eq!(s.images_per_sec(), 0.0);
    }
}
