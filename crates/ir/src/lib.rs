//! `edd-ir`: the typed model-graph IR between architecture derivation and
//! the quantized inference engine.
//!
//! The EDD co-search emits a `DerivedArch`; training/calibration attach
//! weights and activation scales. This crate is the workspace's one
//! integer compiler: it turns that trained model into a runnable integer
//! engine through a first-class, inspectable pipeline:
//!
//! 1. **[`graph`]** — a typed graph of ops (nodes) over tensors (edges),
//!    each node carrying inferred shape/dtype [`Fact`]s plus the
//!    frontend's calibration annotations (activation scale, Φ-searched
//!    weight bits).
//! 2. **[`patch`]** — passes record rewrites in a [`Patch`] against a
//!    frozen graph and apply them as a validated batch.
//! 3. **[`passes`]** — BN folding, optional ReLU6 fusion, and quantize
//!    lowering at the annotated precisions, which emits only the nodes the
//!    output reaches. ReLU6 fusion preserves the quantized output
//!    bit-for-bit (see the [`passes`] docs for why), which the test suite
//!    enforces against the unfused lowering ([`PassConfig::none`]), with
//!    the absolute bits pinned by golden hashes.
//! 4. **[`exec`]** — one validated node table (one executable kernel per
//!    lowered node) that both executors run. [`CompiledModel`] runs it on
//!    whole batches inside one planned int8 buffer and implements
//!    `edd_runtime::BatchModel`, so it serves behind the sharded batching
//!    front end (`serve::Server`).
//! 5. **[`artifact`]** — a versioned, CRC-checked binary format (the
//!    snapshot container with an artifact magic) storing tensors as raw
//!    bits; `edd compile` writes artifacts, `edd serve` hot-loads them.
//! 6. **[`pulse`]** — [`PulsedModel`] runs the same node table in
//!    streaming form: fixed-size input slices in, sliding-window outputs
//!    out at a computed delay, with per-conv ring buffers bounding
//!    carried state at O(window) independent of stream length. Each conv
//!    runs its strips of carried rows through the batch layer's strip
//!    front, so the stream is bitwise equal to the batch executor on the
//!    same windows. It counts its pushes and windows, and its mid-stream
//!    state saves to a blob sealed in the same CRC container as the
//!    artifacts, under its own magic.
//!
//! The crate deliberately knows nothing about search, training, or
//! calibration — `edd-core` builds annotated float graphs out of its
//! models (`edd_core::lower`), and everything downstream of that is pure
//! graph transformation.

pub mod artifact;
pub mod exec;
pub mod graph;
pub mod passes;
pub mod patch;
pub mod pulse;

pub use exec::CompiledModel;
pub use graph::{
    BatchNormOp, ConvOp, DType, DwConvOp, Fact, Graph, GraphMeta, LinearOp, Node, Op, QAddOp,
};
pub use passes::{compile, lower, PassConfig, PassReport};
pub use patch::Patch;
pub use pulse::{PulsedModel, PulsedProgram, PulsedState, Row, StreamWindow};
