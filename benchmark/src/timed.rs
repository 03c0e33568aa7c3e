//! Timing a served model from outside, and attributing each request to the
//! batch that carried it.
//!
//! [`Timed`] wraps any [`BatchModel`] and records when each `infer_batch`
//! call started and ended. With one model on one shard the server runs
//! batches one at a time in FIFO order, so the k-th image the wrapper sees
//! is the k-th accepted request; [`attribute`] turns the batch records into
//! that mapping, and [`split`] cuts a request's latency into its phases.

use crate::clock::now_ns;
use edd_runtime::BatchModel;
use std::sync::Mutex;

/// One `infer_batch` call seen by [`Timed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// Call start, [`now_ns`] clock.
    pub start_ns: u64,
    /// Call end, [`now_ns`] clock.
    pub end_ns: u64,
    /// Images in the batch.
    pub images: usize,
}

/// A [`BatchModel`] that records the start, end and size of every batch.
#[derive(Debug)]
pub struct Timed<M> {
    inner: M,
    records: Mutex<Vec<BatchRecord>>,
}

impl<M> Timed<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        Timed {
            inner,
            records: Mutex::new(Vec::new()),
        }
    }

    /// Every batch so far, in call order.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while recording.
    #[must_use]
    pub fn records(&self) -> Vec<BatchRecord> {
        self.records.lock().expect("batch records poisoned").clone()
    }
}

impl<M: BatchModel> BatchModel for Timed<M> {
    type Error = M::Error;

    fn image_len(&self) -> usize {
        self.inner.image_len()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, M::Error> {
        let start_ns = now_ns();
        let out = self.inner.infer_batch(images, batch);
        let end_ns = now_ns();
        self.records
            .lock()
            .expect("batch records poisoned")
            .push(BatchRecord {
                start_ns,
                end_ns,
                images: batch,
            });
        out
    }
}

/// Maps accepted request `k` (in acceptance order) to the index of the
/// batch that carried it, assuming FIFO batching on one shard. `None` when
/// the batches do not hold exactly `requests` images.
#[must_use]
pub fn attribute(batches: &[BatchRecord], requests: usize) -> Option<Vec<usize>> {
    let mut out = Vec::with_capacity(requests);
    for (b, rec) in batches.iter().enumerate() {
        out.extend(std::iter::repeat_n(b, rec.images));
    }
    (out.len() == requests).then_some(out)
}

/// When one request was due, handed to the server, and seen complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTimes {
    /// Scheduled send time.
    pub due_ns: u64,
    /// When the generator called `submit`.
    pub submit_ns: u64,
    /// When the collector saw the response.
    pub done_ns: u64,
}

impl RequestTimes {
    /// Latency from the due time to the response.
    #[must_use]
    pub fn latency_ns(&self) -> i64 {
        self.done_ns as i64 - self.due_ns as i64
    }
}

/// One request's latency cut at the layer boundaries. The parts telescope:
/// their sum is exactly [`RequestTimes::latency_ns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parts {
    /// Generator lateness: due → submit.
    pub late_ns: i64,
    /// Queue and batching: submit → batch start.
    pub queue_ns: i64,
    /// Engine: batch start → batch end.
    pub engine_ns: i64,
    /// Ticket fulfilment and collector wake-up: batch end → response seen.
    pub fulfil_ns: i64,
}

impl Parts {
    /// Sum of the parts.
    #[must_use]
    pub fn total_ns(&self) -> i64 {
        self.late_ns + self.queue_ns + self.engine_ns + self.fulfil_ns
    }

    /// Whether every part is non-negative; a negative part means the
    /// request was attributed to the wrong batch.
    #[must_use]
    pub fn is_causal(&self) -> bool {
        self.late_ns >= 0 && self.queue_ns >= 0 && self.engine_ns >= 0 && self.fulfil_ns >= 0
    }
}

/// Cuts `req` at the boundaries of the batch that carried it.
#[must_use]
pub fn split(req: &RequestTimes, batch: &BatchRecord) -> Parts {
    let (due, submit, done) = (req.due_ns as i64, req.submit_ns as i64, req.done_ns as i64);
    let (start, end) = (batch.start_ns as i64, batch.end_ns as i64);
    Parts {
        late_ns: submit - due,
        queue_ns: start - submit,
        engine_ns: end - start,
        fulfil_ns: done - end,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(start_ns: u64, end_ns: u64, images: usize) -> BatchRecord {
        BatchRecord {
            start_ns,
            end_ns,
            images,
        }
    }

    #[test]
    fn fifo_attribution_maps_requests_to_batches() {
        let batches = [batch(10, 20, 2), batch(25, 30, 1), batch(40, 60, 3)];
        assert_eq!(attribute(&batches, 6), Some(vec![0, 0, 1, 2, 2, 2]));
        assert_eq!(attribute(&batches, 5), None);
        assert_eq!(attribute(&[], 0), Some(vec![]));
    }

    #[test]
    fn wrapper_records_each_batch() {
        struct Echo;
        impl BatchModel for Echo {
            type Error = String;
            fn image_len(&self) -> usize {
                2
            }
            fn num_classes(&self) -> usize {
                1
            }
            fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, String> {
                Ok(images.chunks(2).take(batch).map(|c| c[0]).collect())
            }
        }
        let t = Timed::new(Echo);
        assert_eq!(t.infer_batch(&[1.0, 0.0, 2.0, 0.0], 2), Ok(vec![1.0, 2.0]));
        assert_eq!(t.infer_batch(&[3.0, 0.0], 1), Ok(vec![3.0]));
        let recs = t.records();
        assert_eq!(recs.iter().map(|r| r.images).collect::<Vec<_>>(), [2, 1]);
        assert!(recs.iter().all(|r| r.start_ns <= r.end_ns));
        assert!(recs[0].end_ns <= recs[1].start_ns);
        assert_eq!(attribute(&recs, 3), Some(vec![0, 0, 1]));
    }

    #[test]
    fn decomposition_identity_holds_on_synthetic_records() {
        let batches = [batch(100, 400, 2), batch(450, 700, 1)];
        let reqs = [
            RequestTimes {
                due_ns: 0,
                submit_ns: 5,
                done_ns: 410,
            },
            RequestTimes {
                due_ns: 50,
                submit_ns: 60,
                done_ns: 420,
            },
            RequestTimes {
                due_ns: 300,
                submit_ns: 320,
                done_ns: 705,
            },
        ];
        let of = attribute(&batches, reqs.len()).expect("counts match");
        let parts: Vec<Parts> = reqs
            .iter()
            .zip(&of)
            .map(|(r, &b)| split(r, &batches[b]))
            .collect();
        for (p, r) in parts.iter().zip(&reqs) {
            assert_eq!(p.total_ns(), r.latency_ns());
            assert!(p.is_causal());
        }
        assert_eq!(
            parts[2],
            Parts {
                late_ns: 20,
                queue_ns: 130,
                engine_ns: 250,
                fulfil_ns: 5,
            }
        );
        // Mean of the parts equals the mean latency.
        let mean_parts: i64 = parts.iter().map(Parts::total_ns).sum::<i64>() / 3;
        let mean_latency: i64 = reqs.iter().map(RequestTimes::latency_ns).sum::<i64>() / 3;
        assert_eq!(mean_parts, mean_latency);
        // Attributing the third request to the first batch breaks causality.
        assert!(!split(&reqs[2], &batches[0]).is_causal());
    }
}
