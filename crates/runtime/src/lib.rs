//! `edd-runtime`: operational plumbing for long-running EDD searches.
//!
//! The bilevel co-search is the longest-running path in this workspace —
//! hours of alternating weight/architecture steps — and this crate gives it
//! the two properties a production search job needs:
//!
//! - **Crash-safe checkpointing** ([`snapshot`]): a versioned,
//!   self-describing, CRC-protected container format with atomic writes
//!   (temp + fsync + rename) and keep-last-K retention. The search loop in
//!   `edd-core` serializes its full state (weights, Θ/Φ/pf, optimizer
//!   moments, RNG, epoch) into this container so an interrupted search
//!   resumes bit-identically. `edd-ir`'s `.eddm` model artifacts and its
//!   pulsed streams' state blobs reuse the container under their own
//!   magic, so all three byte inputs pass one CRC-checked decoder
//!   ([`decode_container_as`]).
//! - **Structured telemetry** ([`telemetry`]): counters, gauges, events,
//!   and hierarchical span timers behind a [`telemetry::Sink`] trait, with
//!   a JSONL backend for traces and a no-op backend that keeps disabled
//!   instrumentation off the hot path.
//! - **Batched inference** ([`infer`]): the model-agnostic [`BatchModel`]
//!   trait, which the integer engine in `edd-ir` implements and the
//!   serving front end runs.
//! - **Multi-tenant dynamic batching** ([`serve`]): an async front end
//!   over [`BatchModel`] — a pure, clock-injected [`serve::Batcher`]
//!   state machine (deterministically testable without threads or wall
//!   time), bounded per-model request queues with
//!   backpressure admission control, per-model worker shards sharing one
//!   immutable `Arc<Model>`, and p50/p95/p99 latency + queue-depth +
//!   batch-occupancy telemetry.
//!
//! The crate is dependency-free (std only) and sits below `edd-core`,
//! `edd-nn`, and the CLI in the workspace graph; `edd-tensor` stays
//! independent of it (kernel hot paths use raw atomics in
//! `edd_tensor::stats`, sampled into gauges by the layers above).

#![warn(missing_docs)]

pub mod crc32;
pub mod infer;
pub mod serve;
pub mod snapshot;
pub mod telemetry;

pub use crc32::crc32;
pub use infer::BatchModel;
pub use serve::{
    BatchAction, BatchEvent, Batcher, BatcherConfig, FlushReason, LatencySummary, Micros,
    ModelServeStats, RejectReason, ServeConfig, ServeError, Server, Ticket,
};
pub use snapshot::{
    decode_container_as, encode_container_as, list_snapshots, prune_snapshots,
    read as read_snapshot, write_atomic, write_atomic_raw, ByteReader, ByteWriter, SectionWriter,
    Sections, SnapshotError,
};
pub use telemetry::{Event, EventKind, Histogram, JsonlSink, NoopSink, Sink, Span, Value};
