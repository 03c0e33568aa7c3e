//! Backfill tests for the PR-3/PR-5 runtime surface: the telemetry
//! [`Histogram`] percentile estimator (p50/p95/p99 against known sample
//! sets) and counter sink behavior under concurrent emission.

use edd_runtime::telemetry::{self, Event, EventKind, Sink, Value};
use edd_runtime::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Histogram percentiles
// ---------------------------------------------------------------------------

#[test]
fn percentiles_exact_over_known_sample_set() {
    // 1..=100 µs, one observation each: nearest-rank percentiles are the
    // values themselves (all below the exact-bucket cutoff of 4096).
    let h = Histogram::new();
    for v in 1..=100u64 {
        h.record(v);
    }
    assert_eq!(h.count(), 100);
    assert_eq!(h.percentile(50.0), 50);
    assert_eq!(h.percentile(95.0), 95);
    assert_eq!(h.percentile(99.0), 99);
    assert_eq!(h.percentile(100.0), 100);
    assert_eq!(h.max(), 100);
}

#[test]
fn percentiles_follow_the_distribution_not_the_range() {
    // 99 fast requests at 10 µs and one straggler at 3000 µs: p50 and p95
    // sit on the fast mode, p99-at-rank-100... nearest-rank p99 of 100
    // samples is the 99th value (still 10), p100 is the straggler.
    let h = Histogram::new();
    for _ in 0..99 {
        h.record(10);
    }
    h.record(3000);
    assert_eq!(h.percentile(50.0), 10);
    assert_eq!(h.percentile(95.0), 10);
    assert_eq!(h.percentile(99.0), 10);
    assert_eq!(h.percentile(100.0), 3000);
    assert_eq!(h.max(), 3000);
}

#[test]
fn empty_histogram_reports_zero_everywhere() {
    let h = Histogram::new();
    assert_eq!(h.count(), 0);
    assert_eq!(h.max(), 0);
    assert_eq!(h.percentile(50.0), 0);
    assert_eq!(h.percentile(99.0), 0);
}

#[test]
fn large_values_are_bucketed_within_relative_error() {
    // Above the exact range, log-linear buckets (16 per octave) bound the
    // relative error of the reported lower bound at 1/16 = 6.25 %.
    let h = Histogram::new();
    for v in [5_000u64, 123_456, 1_000_000, 40_000_000] {
        h.record(v);
        let got = h.percentile(100.0);
        assert!(
            got <= v && (v - got) as f64 <= v as f64 / 16.0,
            "value {v} reported as {got}: outside bucket error bound"
        );
    }
    // Exact max is tracked separately from the buckets.
    assert_eq!(h.max(), 40_000_000);
}

#[test]
fn concurrent_recording_loses_nothing() {
    let h = Arc::new(Histogram::new());
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..1000u64 {
                    h.record(t * 1000 + i % 100);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(h.count(), 4000);
    assert!(h.max() >= 3000);
}

// ---------------------------------------------------------------------------
// Sink counters under concurrent emission
// ---------------------------------------------------------------------------

/// Sink that sums counter deltas per name (order-independent, so it is
/// safe to assert under concurrency).
#[derive(Debug, Default)]
struct CountingSink {
    serve: AtomicU64,
    other: AtomicU64,
}

impl Sink for CountingSink {
    fn emit(&self, event: &Event<'_>) {
        if event.kind != EventKind::Counter {
            return;
        }
        let Some(Value::U64(delta)) = &event.value else {
            return;
        };
        if event.name == "test.hits" {
            self.serve.fetch_add(*delta, Ordering::Relaxed);
        } else {
            self.other.fetch_add(*delta, Ordering::Relaxed);
        }
    }
}

#[test]
fn counters_accumulate_across_threads_through_the_global_sink() {
    let sink = Arc::new(CountingSink::default());
    telemetry::set_global(sink.clone());
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                for _ in 0..250 {
                    telemetry::counter("test.hits", 2);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    telemetry::clear_global();
    assert_eq!(sink.serve.load(Ordering::Relaxed), 4 * 250 * 2);
    // Emissions after clear_global go to the no-op sink, not here.
    telemetry::counter("test.hits", 100);
    assert_eq!(sink.serve.load(Ordering::Relaxed), 4 * 250 * 2);
}
