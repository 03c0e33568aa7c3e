//! Pulsed (streaming) execution of lowered graphs.
//!
//! The batch executor ([`crate::exec::CompiledModel`]) wants the whole
//! `[b, c, h, w]` window in memory before it runs. Embedded deployments
//! see the opposite shape: a signal arriving one row at a time, under a
//! fixed memory budget, classified over sliding windows. This module
//! runs a lowered quantized graph in that form.
//!
//! **Pulse model.** A *pulse* is one input row — `channels × width`
//! floats. [`PulsedProgram::from_graph`] builds the same node table as
//! the batch executor (`exec::NodeTable`: one validation, one kernel per
//! node) and adds the pulse geometry: a ring buffer of carried rows per
//! conv/dwconv. Rows are stored width-padded (the horizontal zero padding
//! baked in), the vertical padding is replayed per window — `p` zero rows
//! pre-rolled before the first real row, `p` more self-injected when the
//! last real row of the window arrives — so every `[1, c, k, w + 2p]`
//! strip contains exactly the values the batch convolution read at that
//! output row. The strip runs through the batch layer's own strip front
//! (`forward_strip_into`, the layer at padding 0), so weights, bias and
//! requantizers are the batch layer's. Because the integer engine
//! accumulates exactly in i32 and requantizes per element, equal inputs
//! give bitwise-equal outputs, whatever `EDD_NUM_THREADS` or `EDD_SIMD`
//! selected — the equivalence is structural, not numerical luck.
//!
//! **Memory bound.** After emitting output row `j`, a conv ring is
//! trimmed to the rows at index `≥ (j+1)·stride`, so it never holds more
//! than `kernel` rows — for stride 1, exactly `kernel − 1` rows of
//! carried state between emissions. Residual adds hold the skew between
//! their two operand paths; the global pool holds one i32 per channel.
//! None of it grows with stream length.
//!
//! **Delay.** [`PulsedProgram::delay`] computes, by structural recursion,
//! the index of the last input row that must arrive before the first
//! output row can be emitted.
//!
//! **Streams.** [`PulsedModel`] is the sliding-window stream: overlapping
//! windows share the immutable program, each with a recycled
//! [`PulsedState`], and `push(slice)` yields at most one completed
//! [`StreamWindow`] per pushed row. It counts its pushes, windows and peak
//! carried bytes, reports them as `pulse.*` telemetry, and saves its
//! mid-stream state as a CRC-sealed blob ([`PULSE_STATE_MAGIC`]) that
//! restores bit for bit.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use crate::exec::{Kernel, NodeTable};
use crate::graph::{DType, Graph, Op};
use edd_nn::ACT_QMAX;
use edd_runtime::{
    decode_container_as, encode_container_as, telemetry, ByteReader, ByteWriter, SnapshotError,
};
use edd_tensor::qkernel::{quantize_i8_into, Requant};
use edd_tensor::{scratch, Result, TensorError};

/// Leading magic of a pulse-state blob ([`PulsedModel::save_state`]).
pub const PULSE_STATE_MAGIC: [u8; 8] = *b"EDDPULS\0";

/// The one pulse-state payload version this build reads and writes.
/// Version 1 was a hand-rolled `EDD-PULSE-STATE` header without a CRC.
pub const PULSE_STATE_VERSION: u32 = 2;

fn invalid(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

/// A pulse-state blob that does not decode.
fn corrupt(e: SnapshotError) -> TensorError {
    invalid(format!("pulse state: {e}"))
}

/// One row the output node emitted: the logits of a window classifier,
/// or one int8 row of a spatial output.
#[derive(Debug, Clone, PartialEq)]
pub enum Row {
    /// Float row: the logits, or the pushed row itself when the output
    /// is the graph input.
    F(Vec<f32>),
    /// Quantized row, channel-major `[c · w]`.
    Q(Vec<i8>),
}

/// Static per-conv pulse geometry (shared by standard and depthwise).
#[derive(Debug, Clone)]
struct ConvGeom {
    /// Input channels of this node.
    c_in: usize,
    /// Unpadded input row width.
    in_w: usize,
    /// Real input rows per window.
    in_rows: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    out_h: usize,
    /// Bytes of one output row (`out_channels · out_w`).
    out_row: usize,
}

impl ConvGeom {
    /// Width of a stored (horizontally padded) ring row.
    fn padded_w(&self) -> usize {
        self.in_w + 2 * self.padding
    }

    /// Padded rows one window pushes: its real rows and the zero rows of
    /// the top and bottom padding.
    fn window_pushes(&self) -> usize {
        self.in_rows + 2 * self.padding
    }

    /// The ring's `(base, emitted)` once `pushed` padded rows of a window
    /// are in: it carries the padded rows `base..pushed`, and has emitted
    /// `emitted` output rows.
    fn ring_counters(&self, pushed: usize) -> (usize, usize) {
        let emitted = if pushed < self.kernel {
            0
        } else {
            ((pushed - self.kernel) / self.stride + 1).min(self.out_h)
        };
        let base = if emitted == self.out_h {
            pushed
        } else {
            (emitted * self.stride).min(pushed)
        };
        (base, emitted)
    }

    /// Padded rows pushed once `real` input rows of a window are in: the
    /// top padding rolls in with the first, the bottom padding with the
    /// last.
    fn pushed_after(&self, real: usize) -> usize {
        match real {
            0 => 0,
            r if r >= self.in_rows => self.window_pushes(),
            r => r + self.padding,
        }
    }
}

/// The pulse geometry of one node, derived from the facts: the shape of
/// the state the node carries between pushes.
#[derive(Debug, Clone)]
enum Geom {
    /// Carries nothing between pushes.
    Stateless,
    /// A conv or depthwise conv: a ring of carried rows.
    Ring(ConvGeom),
    /// A residual add: a queue of `row_len`-byte rows per operand.
    Pair { row_len: usize },
    /// A global pool over `[channels, in_rows, in_w]`: one running sum
    /// per channel.
    Pool {
        channels: usize,
        in_rows: usize,
        in_w: usize,
    },
}

/// A lowered graph compiled for pulsed execution.
///
/// Immutable and shareable (wrap in [`Arc`] to drive many concurrent
/// windows); all mutable state lives in [`PulsedState`].
pub struct PulsedProgram {
    table: NodeTable,
    /// Pulse geometry of every node, by id.
    geoms: Vec<Geom>,
    input_shape: [usize; 3],
    num_classes: usize,
    name: String,
    /// Whether the output node produces `[num_classes]` f32 logits.
    logits_output: bool,
}

impl std::fmt::Debug for PulsedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PulsedProgram")
            .field("name", &self.name)
            .field("nodes", &self.geoms.len())
            .field("input_shape", &self.input_shape)
            .field("delay", &self.delay())
            .finish_non_exhaustive()
    }
}

impl PulsedProgram {
    /// Compiles a lowered quantized graph for pulsed execution.
    ///
    /// Unlike the batch executor, the output need not be logits: a graph
    /// ending in a spatial node emits one quantized row per output row,
    /// which is what the delay property tests drive directly.
    ///
    /// # Errors
    ///
    /// Errors as the batch executor's node table does (float ops, fact
    /// inference, disagreeing activation scales, a quantize that reads
    /// anything but the graph input), and on a residual add whose
    /// operands are not `[c, h, w]` maps.
    pub fn from_graph(graph: &Graph) -> Result<Self> {
        let table = NodeTable::new(graph)?;
        let dims = |id: usize| match table.facts[id].shape.as_slice() {
            &[c, h, w] => Some([c, h, w]),
            _ => None,
        };
        let mut geoms = Vec::with_capacity(graph.len());
        for (id, n) in graph.nodes().iter().enumerate() {
            // `facts()` has checked that every conv and pool reads and
            // every conv writes a `[c, h, w]` map.
            let ring = |kernel: usize, stride: usize, padding: usize| -> Geom {
                let [c_in, in_rows, in_w] = dims(n.inputs[0]).unwrap_or_default();
                let [out_c, out_h, out_w] = dims(id).unwrap_or_default();
                Geom::Ring(ConvGeom {
                    c_in,
                    in_w,
                    in_rows,
                    kernel,
                    stride,
                    padding,
                    out_h,
                    out_row: out_c * out_w,
                })
            };
            let geom = match (&table.kernels[id], &n.op) {
                (Kernel::Skip, _) => Geom::Stateless,
                (_, Op::QConv(s)) => ring(s.kernel, s.stride, s.padding),
                (_, Op::QDwConv(s)) => ring(s.kernel, s.stride, s.padding),
                (_, Op::QAdd(_)) => {
                    let [c, _, w] = dims(id).ok_or_else(|| {
                        invalid(format!(
                            "QAdd `{}`: pulsed execution needs [c, h, w] operands, got {:?}",
                            n.name, table.facts[id].shape
                        ))
                    })?;
                    Geom::Pair { row_len: c * w }
                }
                (_, Op::QGlobalAvgPool) => {
                    let [channels, in_rows, in_w] = dims(n.inputs[0]).unwrap_or_default();
                    Geom::Pool {
                        channels,
                        in_rows,
                        in_w,
                    }
                }
                _ => Geom::Stateless,
            };
            geoms.push(geom);
        }
        let out = &table.facts[table.output];
        let logits_output = out.dtype == DType::F32 && out.shape == vec![graph.meta.num_classes];
        Ok(PulsedProgram {
            table,
            geoms,
            input_shape: graph.meta.input_shape,
            num_classes: graph.meta.num_classes,
            name: graph.meta.name.clone(),
            logits_output,
        })
    }

    /// Model name from the graph metadata.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Floats per pushed row (`channels × width`).
    #[must_use]
    pub fn slice_len(&self) -> usize {
        self.input_shape[0] * self.input_shape[2]
    }

    /// Input rows per window.
    #[must_use]
    pub fn window_rows(&self) -> usize {
        self.input_shape[1]
    }

    /// Logits per window (graph metadata).
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Whether the output node emits `[num_classes]` f32 logits (required
    /// by [`PulsedModel`]; spatial-output programs drive
    /// [`PulsedState`] directly).
    #[must_use]
    pub fn emits_logits(&self) -> bool {
        self.logits_output
    }

    /// Index of the last input row that must be pushed before output row
    /// `j` of node `id` can be emitted.
    fn node_delay(&self, id: usize, j: usize) -> usize {
        let inputs = &self.table.inputs[id];
        match (&self.table.kernels[id], &self.geoms[id]) {
            (Kernel::Skip, _) => 0,
            (Kernel::Input, _) => j,
            (_, Geom::Ring(geom)) => {
                // Output row j reads padded rows [j·s, j·s + k - 1]; the
                // bottom zero rows are injected when the last real row
                // arrives, so the requirement clamps to in_rows - 1.
                let need = (j * geom.stride + geom.kernel - 1)
                    .saturating_sub(geom.padding)
                    .min(geom.in_rows.saturating_sub(1));
                self.node_delay(inputs[0], need)
            }
            (_, Geom::Pair { .. }) => inputs
                .iter()
                .map(|&i| self.node_delay(i, j))
                .max()
                .unwrap_or(j),
            (_, Geom::Pool { in_rows, .. }) => {
                self.node_delay(inputs[0], in_rows.saturating_sub(1))
            }
            (Kernel::Linear(_), _) => self.node_delay(inputs[0], 0),
            _ => self.node_delay(inputs[0], j),
        }
    }

    /// Rows each node has made, by id, once `fed` input rows of a window
    /// have been pushed: the per-node rules of [`PulsedProgram::delay`]'s
    /// recursion run forward over the ids (every node's inputs come
    /// first), so shared subgraphs are counted once.
    fn rows_made(&self, fed: usize) -> Vec<usize> {
        let mut made = vec![0; self.geoms.len()];
        for id in 0..made.len() {
            let of = |port: usize| made[self.table.inputs[id][port]];
            let rows = match (&self.table.kernels[id], &self.geoms[id]) {
                (Kernel::Skip, _) => 0,
                (Kernel::Input | Kernel::Quantize { .. }, _) => fed,
                (_, Geom::Ring(geom)) => geom.ring_counters(geom.pushed_after(of(0))).1,
                (_, Geom::Pair { .. }) => of(0).min(of(1)),
                (_, Geom::Pool { in_rows, .. }) => usize::from(of(0) == *in_rows),
                _ => of(0),
            };
            made[id] = rows;
        }
        made
    }

    /// Pulse delay: the index of the input row whose arrival emits the
    /// first output row. For a window classifier (global pool before the
    /// head) this is `window_rows - 1`; for a spatial stack it is the
    /// structural receptive-field delay the property tests verify.
    #[must_use]
    pub fn delay(&self) -> usize {
        self.node_delay(self.table.output, 0)
    }
}

// Programs are shared immutably across concurrent windows.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PulsedProgram>();
};

/// Ring of carried (horizontally padded) rows for one conv node: the
/// padded rows `base..pushed` of [`ConvGeom::ring_counters`].
#[derive(Debug, Default)]
struct Ring {
    rows: VecDeque<Vec<i8>>,
    /// Padded rows pushed this window, top padding included; the ring's
    /// other counters follow from it.
    pushed: usize,
}

impl Ring {
    fn clear(&mut self) {
        self.rows.clear();
        self.pushed = 0;
    }

    fn bytes(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }
}

/// Per-node dynamic state, parallel to the program's node list.
#[derive(Debug)]
enum NState {
    None,
    Ring(Ring),
    /// Residual-add operand queues, indexed by port. Depth is bounded by
    /// the delay difference of the two operand paths, not stream length.
    Pair([VecDeque<Vec<i8>>; 2]),
    Pool {
        sums: Vec<i32>,
        rows: usize,
    },
}

impl NState {
    fn bytes(&self) -> usize {
        match self {
            NState::None => 0,
            NState::Ring(r) => r.bytes(),
            NState::Pair(qs) => qs.iter().flat_map(|q| q.iter().map(Vec::len)).sum(),
            NState::Pool { sums, rows } => {
                if *rows > 0 {
                    sums.len() * std::mem::size_of::<i32>()
                } else {
                    0
                }
            }
        }
    }
}

/// Mutable per-window execution state for a [`PulsedProgram`].
///
/// Holds only the carried activation state — rings, residual queues,
/// partial pools — whose total size is geometry-bound (O(window)), never
/// stream-length-bound.
#[derive(Debug)]
pub struct PulsedState {
    ns: Vec<NState>,
    /// Input rows fed this window.
    rows_fed: usize,
}

impl PulsedState {
    /// Fresh (empty) state for `program`.
    #[must_use]
    pub fn new(program: &PulsedProgram) -> Self {
        let ns = program
            .geoms
            .iter()
            .map(|g| match g {
                Geom::Stateless => NState::None,
                Geom::Ring(_) => NState::Ring(Ring::default()),
                Geom::Pair { .. } => NState::Pair([VecDeque::new(), VecDeque::new()]),
                Geom::Pool { channels, .. } => NState::Pool {
                    sums: vec![0i32; *channels],
                    rows: 0,
                },
            })
            .collect();
        PulsedState { ns, rows_fed: 0 }
    }

    /// Bytes of carried activation state currently held.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.ns.iter().map(NState::bytes).sum()
    }

    /// Drops all carried state, readying the window for reuse.
    pub fn reset(&mut self) {
        for n in &mut self.ns {
            match n {
                NState::Ring(r) => r.clear(),
                NState::Pair(qs) => qs.iter_mut().for_each(VecDeque::clear),
                NState::Pool { sums, rows } => {
                    sums.iter_mut().for_each(|s| *s = 0);
                    *rows = 0;
                }
                NState::None => {}
            }
        }
        self.rows_fed = 0;
    }

    /// Feeds one input row (`channels × width` floats) and returns every
    /// row the output node emitted as a consequence — usually none or
    /// one; several at the bottom of a window when the injected padding
    /// cascades.
    ///
    /// # Errors
    ///
    /// Errors on a wrong-length row, on feeding past the window, or on a
    /// layer failure.
    pub fn push_row(&mut self, program: &PulsedProgram, row: &[f32]) -> Result<Vec<Row>> {
        if row.len() != program.slice_len() {
            return Err(invalid(format!(
                "pulse: expected a row of {} floats, got {}",
                program.slice_len(),
                row.len()
            )));
        }
        if self.rows_fed >= program.window_rows() {
            return Err(invalid(format!(
                "pulse: window already complete ({} rows)",
                program.window_rows()
            )));
        }
        let table = &program.table;
        let n = table.kernels.len();
        // The int8 rows of this sweep in the order they were made; node
        // `id` made `made[spans[id]]`. One ascending-id sweep fully
        // propagates the row: every node runs after its inputs and reads
        // their rows directly, and the bottom-padding injection at each
        // conv happens within the same sweep, so a window completes
        // exactly when its last row is fed.
        let mut made: Vec<Vec<i8>> = Vec::with_capacity(n);
        let mut spans: Vec<Range<usize>> = vec![0..0; n];
        let mut logits = Vec::new();
        for (id, kernel) in table.kernels.iter().enumerate() {
            let start = made.len();
            let fed = |port: usize| spans[table.inputs[id][port]].clone();
            match (kernel, &mut self.ns[id], &program.geoms[id]) {
                (Kernel::Skip | Kernel::Input, ..) => {}
                (Kernel::Quantize { scale }, ..) => {
                    let mut q = vec![0i8; row.len()];
                    // Same element-wise kernel the batch boundary runs.
                    quantize_i8_into(&mut q, row, *scale, ACT_QMAX);
                    made.push(q);
                }
                (Kernel::Relu6 { hi }, ..) => {
                    for i in fed(0) {
                        let r = made[i].iter().map(|&v| v.clamp(0, *hi)).collect();
                        made.push(r);
                    }
                }
                (Kernel::Conv(l), NState::Ring(ring), Geom::Ring(geom)) => {
                    let strip = &|x: &[i8], s, y: &mut [i8]| l.forward_strip_into(x, s, y);
                    feed_ring(ring, geom, strip, fed(0), &mut made)?;
                }
                (Kernel::Dw(l), NState::Ring(ring), Geom::Ring(geom)) => {
                    let strip = &|x: &[i8], s, y: &mut [i8]| l.forward_strip_into(x, s, y);
                    feed_ring(ring, geom, strip, fed(0), &mut made)?;
                }
                (Kernel::Add(add), NState::Pair(queues), _) => {
                    for (port, queue) in queues.iter_mut().enumerate() {
                        queue.extend(made[fed(port)].iter().cloned());
                    }
                    // Pair the rows both operands have delivered; the
                    // longer queue keeps its surplus for the next sweep.
                    let [qa, qb] = queues;
                    let paired = qa.len().min(qb.len());
                    made.extend(
                        qa.drain(..paired)
                            .zip(qb.drain(..paired))
                            .map(|(mut a, b)| {
                                add.add_assign(&mut a, &b);
                                a
                            }),
                    );
                }
                (Kernel::Gap, NState::Pool { sums, rows }, Geom::Pool { in_rows, in_w, .. }) => {
                    for i in fed(0) {
                        for (sum, plane_row) in sums.iter_mut().zip(made[i].chunks_exact(*in_w)) {
                            *sum += plane_row.iter().map(|&v| i32::from(v)).sum::<i32>();
                        }
                        *rows += 1;
                        if *rows == *in_rows {
                            // Same requant the batch pool applies; i32 sums
                            // are exact, so accumulation order cannot matter.
                            let rq = Requant::from_scale(1.0 / (in_rows * in_w) as f64);
                            let pooled = sums
                                .iter()
                                .map(|&s| rq.apply_i8(s, -ACT_QMAX, ACT_QMAX))
                                .collect();
                            made.push(pooled);
                        }
                    }
                }
                (Kernel::Linear(l), ..) => {
                    for i in fed(0) {
                        let mut row = vec![0.0; table.facts[id].shape[0]];
                        l.logits(&made[i], 1, &mut row)?;
                        logits.push(Row::F(row));
                    }
                }
                _ => return Err(invalid("pulse: node/state mismatch (corrupted state)")),
            }
            spans[id] = start..made.len();
        }
        self.rows_fed += 1;
        // Only the head emits f32 rows, and nothing reads the logits, so
        // a head is always the output.
        Ok(match table.kernels[table.output] {
            Kernel::Linear(_) => logits,
            Kernel::Input => vec![Row::F(row.to_vec())],
            _ => made
                .drain(spans[table.output].clone())
                .map(Row::Q)
                .collect(),
        })
    }

    /// Writes the carried node state into `w`: per ring its pushed count
    /// and rows, per add its two queues, per pool its sums and rows. The
    /// geometry and the rows fed are not written; the bytes only restore
    /// onto a state of the same program.
    fn save(&self, w: &mut ByteWriter) {
        for n in &self.ns {
            match n {
                NState::None => {}
                NState::Ring(r) => {
                    w.put_u64(r.pushed as u64);
                    put_rows(w, &r.rows);
                }
                NState::Pair(qs) => qs.iter().for_each(|q| put_rows(w, q)),
                NState::Pool { sums, rows } => {
                    w.put_i32_slice(sums);
                    w.put_u64(*rows as u64);
                }
            }
        }
    }

    /// Reads node state written by [`PulsedState::save`] for a window fed
    /// `fed` rows, checking every row length against the program geometry
    /// and every counter and row count against the ones those rows leave
    /// ([`PulsedProgram::rows_made`]).
    fn restore(
        &mut self,
        program: &PulsedProgram,
        fed: usize,
        r: &mut ByteReader<'_>,
    ) -> Result<()> {
        let made = program.rows_made(fed);
        for (id, n) in self.ns.iter_mut().enumerate() {
            let made_by = |port: usize| made[program.table.inputs[id][port]];
            match (&program.geoms[id], n) {
                (Geom::Ring(geom), NState::Ring(ring)) => {
                    // `push_ring_row` takes the ring's first k rows as the
                    // next output row's strip, and `feed_ring` stops at the
                    // window's last row: both hold only for the count the
                    // rows fed leave, and the rows it carries.
                    let want = geom.pushed_after(made_by(0));
                    let pushed = r.get_u64().map_err(corrupt)?;
                    if pushed != want as u64 {
                        return Err(invalid(format!(
                            "pulse state: a conv ring count of {pushed} pushed rows is \
                             unreachable after {fed} rows fed, which push {want}"
                        )));
                    }
                    let rows = get_rows(r, geom.c_in * geom.padded_w())?;
                    let (base, _) = geom.ring_counters(want);
                    if rows.len() != want - base {
                        return Err(invalid(format!(
                            "pulse state: a conv ring holds {} rows, its count {}",
                            rows.len(),
                            want - base
                        )));
                    }
                    *ring = Ring { rows, pushed: want };
                }
                (Geom::Pair { row_len }, NState::Pair(qs)) => {
                    // Each queue holds its operand's rows not yet paired.
                    for (port, q) in qs.iter_mut().enumerate() {
                        *q = get_rows(r, *row_len)?;
                        let want = made_by(port) - made[id];
                        if q.len() != want {
                            return Err(invalid(format!(
                                "pulse state: an add queue holds {} rows, {want} after {fed} \
                                 rows fed",
                                q.len()
                            )));
                        }
                    }
                }
                (
                    Geom::Pool {
                        channels,
                        in_rows,
                        in_w,
                    },
                    NState::Pool { sums, rows },
                ) => {
                    let s = r.get_i32_vec().map_err(corrupt)?;
                    if s.len() != *channels {
                        return Err(invalid(format!(
                            "pulse state: pool of {} channels, expected {channels}",
                            s.len()
                        )));
                    }
                    let filled = r.get_u64().map_err(corrupt)?;
                    // Each pooled row adds at most 128 · in_w to a
                    // channel's sum; larger sums would overflow the i32
                    // accumulator before the window ends.
                    let want = made_by(0);
                    let bound = (want as u64)
                        .saturating_mul(*in_w as u64)
                        .saturating_mul(128);
                    if filled != want as u64
                        || s.iter().any(|&v| u64::from(v.unsigned_abs()) > bound)
                    {
                        return Err(invalid(format!(
                            "pulse state: pool of {filled} rows out of {in_rows} \
                             holds an unreachable sum after {fed} rows fed"
                        )));
                    }
                    *sums = s;
                    *rows = want;
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Writes a row count and the length-prefixed rows.
fn put_rows(w: &mut ByteWriter, rows: &VecDeque<Vec<i8>>) {
    w.put_u32(rows.len() as u32);
    for row in rows {
        w.put_i8_slice(row);
    }
}

/// Reads rows written by [`put_rows`], each of which must be `row_len`
/// bytes.
fn get_rows(r: &mut ByteReader<'_>, row_len: usize) -> Result<VecDeque<Vec<i8>>> {
    let count = r.get_u32().map_err(corrupt)? as usize;
    // Every row carries at least its 8-byte length prefix, so a count the
    // remaining bytes cannot hold is corrupt — reject it before it sizes
    // an allocation.
    if count > r.remaining() / 8 {
        return Err(invalid(format!(
            "pulse state: {count} rows overrun the {} bytes left",
            r.remaining()
        )));
    }
    let mut rows = VecDeque::with_capacity(count);
    for _ in 0..count {
        let row = r.get_i8_vec().map_err(corrupt)?;
        if row.len() != row_len {
            return Err(invalid(format!(
                "pulse state: a row of {} bytes, expected {row_len}",
                row.len()
            )));
        }
        rows.push_back(row);
    }
    Ok(rows)
}

/// Feeds the int8 rows `made[fed]` to a conv's ring: each is stored
/// width-padded, with the top padding rolled in before the first and the
/// bottom padding after the window's last, and every output row this
/// completes is appended to `made`.
fn feed_ring(
    ring: &mut Ring,
    geom: &ConvGeom,
    strip: &Strip<'_>,
    fed: Range<usize>,
    made: &mut Vec<Vec<i8>>,
) -> Result<()> {
    let (c, wp, p) = (geom.c_in, geom.padded_w(), geom.padding);
    for i in fed {
        if ring.pushed >= geom.window_pushes() {
            return Err(invalid(
                "pulse conv: received more rows than the window holds",
            ));
        }
        if ring.pushed == 0 {
            for _ in 0..p {
                push_ring_row(ring, geom, strip, vec![0i8; c * wp], made)?;
            }
        }
        let mut padded = vec![0i8; c * wp];
        for (dst, src) in padded
            .chunks_exact_mut(wp)
            .zip(made[i].chunks_exact(geom.in_w))
        {
            dst[p..p + geom.in_w].copy_from_slice(src);
        }
        push_ring_row(ring, geom, strip, padded, made)?;
        if ring.pushed == geom.in_rows + p {
            // Bottom padding: the window is complete, replay the trailing
            // zero rows now, in this same sweep.
            for _ in 0..p {
                push_ring_row(ring, geom, strip, vec![0i8; c * wp], made)?;
            }
        }
    }
    Ok(())
}

/// A conv layer's strip front: `(strip, [1, c, k, w + 2p], out row)`.
type Strip<'a> = dyn Fn(&[i8], [usize; 4], &mut [i8]) -> Result<()> + 'a;

/// Pushes one padded row into a conv ring, appending the output row it
/// completes (if any) to `made` and trimming the ring to the carried
/// minimum.
fn push_ring_row(
    ring: &mut Ring,
    geom: &ConvGeom,
    strip: &Strip<'_>,
    row: Vec<i8>,
    made: &mut Vec<Vec<i8>>,
) -> Result<()> {
    let (k, wp) = (geom.kernel, geom.padded_w());
    let (_, emitted) = geom.ring_counters(ring.pushed);
    if emitted < geom.out_h {
        ring.rows.push_back(row);
    }
    // Otherwise every output row is out; nothing downstream can read it.
    ring.pushed += 1;
    let (base, now) = geom.ring_counters(ring.pushed);
    if now > emitted {
        // Output row `emitted` reads the padded rows from `emitted · s`,
        // which are the ring's first k: assemble the [1, c, k, w+2p]
        // strip the layer's strip front consumes, channel-major.
        let mut x = scratch::alloc_i8(geom.c_in * k * wp);
        for (kr, src) in ring.rows.iter().take(k).enumerate() {
            for (ch, src) in src.chunks_exact(wp).enumerate() {
                x[(ch * k + kr) * wp..][..wp].copy_from_slice(src);
            }
        }
        let mut y = vec![0i8; geom.out_row];
        strip(&x, [1, geom.c_in, k, wp], &mut y)?;
        made.push(y);
    }
    // Keep the rows `base..pushed`: everything below the next output
    // row's first padded row goes, so for stride 1 exactly kernel - 1
    // rows stay carried after an emission — the O(window) bound.
    let drop = ring.rows.len().saturating_sub(ring.pushed - base);
    ring.rows.drain(..drop);
    Ok(())
}

/// One completed sliding-window classification emitted by a stream.
///
/// Windows are indexed in arrival order; `start_row` is the absolute
/// stream row at which the window began, so `start_row + window_rows - 1`
/// is the row whose arrival completed it (the pulse delay made explicit).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamWindow {
    /// Zero-based index of the window in the stream.
    pub index: u64,
    /// Absolute stream row index of the window's first slice.
    pub start_row: u64,
    /// `[num_classes]` logits, bitwise-equal to the batch engine run on
    /// the same window.
    pub logits: Vec<f32>,
}

impl StreamWindow {
    /// Index of the highest logit (the predicted class).
    #[must_use]
    pub fn argmax(&self) -> usize {
        self.logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map_or(0, |(i, _)| i)
    }
}

/// One in-flight sliding window; it started at row `index · hop`.
#[derive(Debug)]
struct Active {
    index: u64,
    state: PulsedState,
}

/// Sliding-window streaming classifier over a [`PulsedProgram`].
///
/// Pushes consume one input row at a time; a new window opens every `hop`
/// rows, at most `ceil(window/hop)` run concurrently (all sharing the
/// immutable program), and completed windows recycle their state through
/// a free pool — so memory is O(window · depth), independent of how long
/// the stream runs.
///
/// Contract:
///
/// - [`PulsedModel::push`] accepts exactly `program().slice_len()` floats
///   and returns at most one window (window starts are a hop of at least one
///   row apart, so two windows never complete on the same row).
/// - Outputs are bitwise-identical to running the batch engine on the
///   same `window_rows`-row windows, whatever `EDD_NUM_THREADS` or
///   `EDD_SIMD` says.
/// - Carried state ([`PulsedModel::state_bytes`]) depends on the model
///   geometry and the window/hop sizes, never on how many rows the
///   stream has already delivered.
/// - [`PulsedModel::save_state`]/[`PulsedModel::restore_state`]
///   round-trip the full mid-signal state, so a resumed stream continues
///   bit for bit.
///
/// Every push bumps the `pulse.pushes` counter and refreshes the
/// `pulse.state_bytes` gauge; every emitted window bumps `pulse.windows`
/// and emits a `pulse.window` event. The model keeps the same numbers
/// ([`PulsedModel::pushes`], [`PulsedModel::windows_emitted`],
/// [`PulsedModel::peak_state_bytes`]) for callers without a sink.
#[derive(Debug)]
pub struct PulsedModel {
    program: Arc<PulsedProgram>,
    hop: usize,
    active: VecDeque<Active>,
    free: Vec<PulsedState>,
    /// Rows pushed since the stream began (saved with the state).
    t: u64,
    /// Pushes this model accepted.
    pushes: u64,
    /// Windows this model emitted.
    windows: u64,
    /// Largest carried state after any push, in bytes.
    peak_state_bytes: usize,
}

impl PulsedModel {
    /// Wraps a shared program as a sliding-window stream with the given
    /// hop (rows between window starts).
    ///
    /// # Errors
    ///
    /// Errors when the program's output is not `[num_classes]` logits or
    /// the hop is zero.
    pub fn new(program: Arc<PulsedProgram>, hop: usize) -> Result<Self> {
        if !program.emits_logits() {
            return Err(invalid(format!(
                "PulsedModel needs a logits-emitting program; `{}` ends in a spatial node",
                program.name()
            )));
        }
        if hop == 0 {
            return Err(invalid("PulsedModel: hop must be at least one row"));
        }
        Ok(PulsedModel {
            program,
            hop,
            active: VecDeque::new(),
            free: Vec::new(),
            t: 0,
            pushes: 0,
            windows: 0,
            peak_state_bytes: 0,
        })
    }

    /// Compiles a lowered graph and wraps it in one step.
    ///
    /// # Errors
    ///
    /// Propagates [`PulsedProgram::from_graph`] and [`PulsedModel::new`]
    /// errors.
    pub fn from_graph(graph: &Graph, hop: usize) -> Result<Self> {
        Self::new(Arc::new(PulsedProgram::from_graph(graph)?), hop)
    }

    /// The shared program: slice length, window rows, classes and delay.
    #[must_use]
    pub fn program(&self) -> &Arc<PulsedProgram> {
        &self.program
    }

    /// Pushes this model accepted.
    #[must_use]
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Windows this model emitted.
    #[must_use]
    pub fn windows_emitted(&self) -> u64 {
        self.windows
    }

    /// Largest carried state after any accepted push, in bytes.
    #[must_use]
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_state_bytes
    }

    /// Bytes of carried state currently held (rings, queues, partial
    /// pools) — the number the O(window) memory bound is stated over.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.active.iter().map(|a| a.state.state_bytes()).sum()
    }

    /// Feeds one slice; returns the window (if any) completed by it.
    ///
    /// # Errors
    ///
    /// Errors when the slice length is wrong or a layer fails.
    pub fn push(&mut self, slice: &[f32]) -> Result<Option<StreamWindow>> {
        if slice.len() != self.program.slice_len() {
            return Err(invalid(format!(
                "stream push: expected {} floats per slice, got {}",
                self.program.slice_len(),
                slice.len()
            )));
        }
        let next_t = self
            .t
            .checked_add(1)
            .ok_or_else(|| invalid("stream push: the row counter is exhausted"))?;
        let hop = self.hop as u64;
        if self.t.is_multiple_of(hop) {
            let state = self
                .free
                .pop()
                .unwrap_or_else(|| PulsedState::new(&self.program));
            self.active.push_back(Active {
                index: self.t / hop,
                state,
            });
        }
        let mut completed = None;
        for a in &mut self.active {
            let outs = a.state.push_row(&self.program, slice)?;
            if let Some(Row::F(logits)) = outs.into_iter().next() {
                completed = Some(StreamWindow {
                    index: a.index,
                    start_row: a.index * hop,
                    logits,
                });
            }
        }
        self.t = next_t;
        if completed.is_some() {
            // Window starts are a hop (>= 1 row) apart, so only the
            // oldest window can have completed on this row.
            let done = self.active.pop_front();
            self.recycle(done);
        }
        self.pushes += 1;
        telemetry::counter("pulse.pushes", 1);
        let state = self.state_bytes();
        self.peak_state_bytes = self.peak_state_bytes.max(state);
        telemetry::gauge("pulse.state_bytes", state);
        if let Some(w) = &completed {
            self.windows += 1;
            telemetry::counter("pulse.windows", 1);
            telemetry::event(
                "pulse.window",
                &[
                    ("index", telemetry::Value::U64(w.index)),
                    ("start_row", telemetry::Value::U64(w.start_row)),
                    ("state_bytes", telemetry::Value::U64(state as u64)),
                ],
            );
        }
        Ok(completed)
    }

    /// Resets `windows` and returns their states to the free pool.
    fn recycle(&mut self, windows: impl IntoIterator<Item = Active>) {
        for mut a in windows {
            a.state.reset();
            self.free.push(a.state);
        }
    }

    /// Serializes the full mid-stream state (not the weights) as a
    /// [`PULSE_STATE_MAGIC`] container: the rows pushed, the hop, the
    /// program's node count, and each window in flight (its index and its
    /// node state).
    #[must_use]
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.t);
        w.put_u64(self.hop as u64);
        w.put_u32(self.program.geoms.len() as u32);
        w.put_u32(self.active.len() as u32);
        for a in &self.active {
            w.put_u64(a.index);
            a.state.save(&mut w);
        }
        encode_container_as(&PULSE_STATE_MAGIC, PULSE_STATE_VERSION, &w.into_bytes())
    }

    /// Restores a state produced by [`PulsedModel::save_state`] on a
    /// model built from the same program with the same hop. A rejected
    /// blob leaves the stream as it was.
    ///
    /// # Errors
    ///
    /// Errors when the container does not verify (magic, version, CRC)
    /// or the payload does not decode against this model's geometry.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let payload =
            decode_container_as(&PULSE_STATE_MAGIC, PULSE_STATE_VERSION, bytes).map_err(corrupt)?;
        let mut r = ByteReader::new(&payload);
        let t = r.get_u64().map_err(corrupt)?;
        let hop = r.get_u64().map_err(corrupt)?;
        if hop != self.hop as u64 {
            return Err(invalid(format!(
                "pulse state: hop {hop} does not match the model's hop {}",
                self.hop
            )));
        }
        let nodes = r.get_u32().map_err(corrupt)? as usize;
        if nodes != self.program.geoms.len() {
            return Err(invalid(format!(
                "pulse state: a program of {nodes} nodes, this one has {}",
                self.program.geoms.len()
            )));
        }
        let window = self.program.window_rows();
        let count = r.get_u32().map_err(corrupt)? as usize;
        if count > window.div_ceil(self.hop) {
            return Err(invalid(format!(
                "pulse state: {count} windows in flight, at most {} fit",
                window.div_ceil(self.hop)
            )));
        }
        // Decode into fresh windows and swap them in only once all of them
        // fit: a rejected blob leaves the live stream as it was.
        let mut windows = VecDeque::with_capacity(count);
        let decoded = (0..count).try_for_each(|_| -> Result<()> {
            let index = r.get_u64().map_err(corrupt)?;
            // Windows open every hop rows, oldest first, and are fed every
            // row from their start until the last one completes them.
            let fed = index
                .checked_mul(hop)
                .and_then(|start| t.checked_sub(start))
                .and_then(|fed| usize::try_from(fed).ok())
                .filter(|&fed| fed > 0 && fed < window);
            let follows = windows
                .back()
                .is_none_or(|a: &Active| a.index.checked_add(1) == Some(index));
            let Some(fed) = fed.filter(|_| follows) else {
                return Err(invalid(format!(
                    "pulse state: window {index} does not fit a stream at row {t} with hop {hop}"
                )));
            };
            let mut state = self
                .free
                .pop()
                .unwrap_or_else(|| PulsedState::new(&self.program));
            let restored = state.restore(&self.program, fed, &mut r);
            state.rows_fed = fed;
            windows.push_back(Active { index, state });
            restored
        });
        if let Err(e) = decoded {
            self.recycle(windows);
            return Err(e);
        }
        let live = std::mem::replace(&mut self.active, windows);
        self.recycle(live);
        self.t = t;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ConvOp, GraphMeta, LinearOp, Node};
    use crate::passes::{compile, PassConfig};
    use edd_tensor::Array;

    /// Small annotated float graph exercising every executable op
    /// (conv, relu6, residual add, gap, linear) — the exec test twin.
    fn float_graph() -> Graph {
        let mut g = Graph::new(GraphMeta {
            name: "pulse-test".into(),
            input_shape: [2, 6, 5],
            num_classes: 3,
        });
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / f64::from(1u32 << 21) - 16.0) as f32 * 0.04
        };
        let conv = |out_c: usize,
                    in_c: usize,
                    k: usize,
                    stride: usize,
                    pad: usize,
                    next: &mut dyn FnMut() -> f32| {
            Op::Conv2d(Box::new(ConvOp {
                w: (0..out_c * in_c * k * k).map(|_| next()).collect(),
                out_channels: out_c,
                in_channels: in_c,
                kernel: k,
                stride,
                padding: pad,
                bias: None,
                relu6: false,
            }))
        };
        let add = |g: &mut Graph, name: &str, op: Op, inputs: Vec<usize>, scale: f32| {
            g.add(Node {
                name: name.into(),
                op,
                inputs,
                scale: Some(scale),
                bits: None,
            })
            .unwrap()
        };
        let i = add(&mut g, "in", Op::Input, vec![], 0.05);
        let c1 = add(&mut g, "c1", conv(4, 2, 3, 1, 1, &mut next), vec![i], 0.04);
        let r1 = add(&mut g, "r1", Op::Relu6, vec![c1], 0.04);
        let c2 = add(&mut g, "c2", conv(4, 4, 1, 1, 0, &mut next), vec![r1], 0.04);
        let res = add(&mut g, "res", Op::Add, vec![c2, r1], 0.05);
        let p = add(&mut g, "gap", Op::GlobalAvgPool, vec![res], 0.05);
        let fc = add(
            &mut g,
            "fc",
            Op::Linear(Box::new(LinearOp {
                w: (0..4 * 3).map(|_| next()).collect(),
                in_features: 4,
                out_features: 3,
                bias: vec![0.05, -0.1, 0.0],
            })),
            vec![p],
            0.05,
        );
        g.set_output(fc).unwrap();
        g
    }

    fn window(rows: usize, cols: usize, seed: usize) -> Vec<f32> {
        (0..2 * rows * cols)
            .map(|i| (((i * 37 + seed * 11) % 113) as f32 - 56.0) * 0.01)
            .collect()
    }

    /// Splits a `[c, h, w]` window into h channel-major rows.
    fn rows_of(win: &[f32], c: usize, h: usize, w: usize) -> Vec<Vec<f32>> {
        (0..h)
            .map(|r| {
                let mut row = Vec::with_capacity(c * w);
                for ch in 0..c {
                    row.extend_from_slice(&win[(ch * h + r) * w..(ch * h + r) * w + w]);
                }
                row
            })
            .collect()
    }

    #[test]
    fn pulsed_logits_match_batch_bitwise() {
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let program = PulsedProgram::from_graph(batch.graph()).unwrap();
        assert!(program.emits_logits());
        assert_eq!(program.delay(), 5);
        let mut state = PulsedState::new(&program);
        for seed in 0..3 {
            let win = window(6, 5, seed);
            let x = Array::from_vec(win.clone(), &[1, 2, 6, 5]).unwrap();
            let want = batch.forward(&x).unwrap();
            let mut got = Vec::new();
            for (r, row) in rows_of(&win, 2, 6, 5).iter().enumerate() {
                let outs = state.push_row(&program, row).unwrap();
                if r < 5 {
                    assert!(outs.is_empty(), "early output at row {r}");
                } else {
                    got = outs;
                }
            }
            assert_eq!(got.len(), 1);
            let Row::F(logits) = &got[0] else {
                panic!("expected float logits");
            };
            assert_eq!(
                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "pulsed diverges from batch on window {seed}"
            );
            state.reset();
            assert_eq!(state.state_bytes(), 0);
        }
    }

    #[test]
    fn sliding_windows_match_batch_per_window() {
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 2).unwrap();
        assert_eq!(model.program().window_rows(), 6);
        assert_eq!(model.program().slice_len(), 10);
        // A 16-row stream = windows starting at rows 0, 2, 4, .., 10.
        let stream: Vec<Vec<f32>> = (0..16)
            .map(|r| {
                (0..10)
                    .map(|i| (((r * 31 + i * 7) % 97) as f32 - 48.0) * 0.015)
                    .collect()
            })
            .collect();
        let mut windows = Vec::new();
        let mut peak = 0usize;
        for row in &stream {
            if let Some(w) = model.push(row).unwrap() {
                windows.push(w);
            }
            peak = peak.max(model.state_bytes());
        }
        assert_eq!(windows.len(), 6);
        for w in &windows {
            // Assemble the same window [c=2, h=6, w=5] and run batch.
            let start = w.start_row as usize;
            let mut win = vec![0.0f32; 2 * 6 * 5];
            for (r, row) in stream[start..start + 6].iter().enumerate() {
                for ch in 0..2 {
                    win[(ch * 6 + r) * 5..(ch * 6 + r) * 5 + 5]
                        .copy_from_slice(&row[ch * 5..(ch + 1) * 5]);
                }
            }
            let x = Array::from_vec(win, &[1, 2, 6, 5]).unwrap();
            let want = batch.forward(&x).unwrap();
            assert_eq!(
                want.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                w.logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "window {} diverges",
                w.index
            );
        }
        // Bounded state: at most ceil(window/hop) windows in flight.
        assert!(model.active.len() <= 3);
        assert!(peak > 0);
    }

    #[test]
    fn state_save_restore_roundtrips_bitwise() {
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let stream: Vec<Vec<f32>> = (0..20)
            .map(|r| {
                (0..10)
                    .map(|i| (((r * 13 + i * 29) % 101) as f32 - 50.0) * 0.012)
                    .collect()
            })
            .collect();
        let mut whole = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        let mut want = Vec::new();
        for row in &stream {
            if let Some(w) = whole.push(row).unwrap() {
                want.push(w);
            }
        }
        // Split mid-signal (mid-window): run 8 rows, snapshot, resume.
        let mut a = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        let mut got = Vec::new();
        for row in &stream[..8] {
            if let Some(w) = a.push(row).unwrap() {
                got.push(w);
            }
        }
        let blob = a.save_state();
        let mut b = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        b.restore_state(&blob).unwrap();
        for row in &stream[8..] {
            if let Some(w) = b.push(row).unwrap() {
                got.push(w);
            }
        }
        assert_eq!(want, got);
    }

    /// The payload of a pulse-state blob.
    fn payload(blob: &[u8]) -> Vec<u8> {
        decode_container_as(&PULSE_STATE_MAGIC, PULSE_STATE_VERSION, blob).unwrap()
    }

    /// `payload` sealed as a pulse-state blob, with a valid CRC.
    fn seal(payload: &[u8]) -> Vec<u8> {
        encode_container_as(&PULSE_STATE_MAGIC, PULSE_STATE_VERSION, payload)
    }

    #[test]
    fn model_counts_pushes_windows_and_peak_state() {
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 2).unwrap();
        let mut windows = Vec::new();
        let mut peak = 0;
        for r in 0..11 {
            // A rejected push counts nothing and moves nothing.
            let before = model.save_state();
            assert!(model.push(&[0.0; 3]).is_err());
            assert_eq!(model.pushes(), r as u64);
            assert_eq!(model.save_state(), before);
            windows.extend(model.push(&stream_row(r)).unwrap());
            peak = peak.max(model.state_bytes());
        }
        // Windows of 6 rows start at rows 0, 2, 4 and complete at rows 5,
        // 7, 9; the one from row 6 needs row 11.
        let starts: Vec<u64> = windows.iter().map(|w| w.start_row).collect();
        assert_eq!(starts, [0, 2, 4]);
        assert_eq!(model.pushes(), 11);
        assert_eq!(model.windows_emitted(), 3);
        assert!(peak > 0);
        assert_eq!(model.peak_state_bytes(), peak);
        let w = StreamWindow {
            index: 0,
            start_row: 0,
            logits: vec![0.25, -1.0, 0.75],
        };
        assert_eq!(w.argmax(), 2);
    }

    #[test]
    fn restore_names_the_format_of_an_old_or_corrupted_blob() {
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        // A fresh stream at hop 3 as version 1 saved it: a string magic
        // and a version in front of the header, and no CRC.
        let mut v1 = ByteWriter::new();
        v1.put_str("EDD-PULSE-STATE");
        v1.put_u32(1);
        v1.put_u64(0); // rows pushed
        v1.put_u64(3); // hop
        v1.put_u32(model.program.geoms.len() as u32);
        v1.put_u32(0); // windows in flight
        let err = model
            .restore_state(&v1.into_bytes())
            .unwrap_err()
            .to_string();
        assert!(err.contains("not a pulse state file"), "{err}");
        model.push(&stream_row(0)).unwrap();
        let blob = model.save_state();
        let old = encode_container_as(&PULSE_STATE_MAGIC, 1, &payload(&blob));
        let err = model.restore_state(&old).unwrap_err().to_string();
        assert!(err.contains("pulse state format version 1"), "{err}");
        for byte in [24, 40, blob.len() - 1] {
            let mut bad = blob.clone();
            bad[byte] ^= 0x10;
            let err = model.restore_state(&bad).unwrap_err().to_string();
            assert!(err.contains("pulse state") && err.contains("CRC"), "{err}");
        }
        assert!(model.restore_state(&blob).is_ok());
    }

    #[test]
    fn restore_rejects_a_hostile_ring_row_count() {
        // A CRC-valid blob whose header fits the model (one row pushed at
        // hop 3, one window in flight) and whose first conv ring, with
        // the top padding and one real row pushed, claims u32::MAX rows:
        // restore must fail, not size a `VecDeque` from the count.
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        let mut w = ByteWriter::new();
        w.put_u64(1); // rows pushed
        w.put_u64(3); // hop
        w.put_u32(model.program.geoms.len() as u32);
        w.put_u32(1); // windows in flight
        w.put_u64(0); // window index
        w.put_u64(2); // ring rows pushed
        w.put_u32(u32::MAX); // ring rows
        let blob = seal(&w.into_bytes());
        assert_eq!(blob.len(), 24 + 44);
        let err = model.restore_state(&blob).unwrap_err().to_string();
        assert!(err.contains("overrun"), "{err}");
    }

    #[test]
    fn restore_rejects_a_ring_count_no_push_sequence_reaches() {
        // A real blob after one pushed row at hop 3, resealed with the
        // first conv ring's count (k3, padding 1, 6 rows: it reaches 0,
        // 2..=6 and 8) moved into the top padding, past the last real row
        // without the bottom padding, or past the window.
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        model.push(&[0.25; 10]).unwrap();
        let body = payload(&model.save_state());
        assert_eq!(body[32..40], 2u64.to_le_bytes(), "ring rows pushed");
        for pushed in [1u64, 7, 9, u64::MAX] {
            let mut bad = body.clone();
            bad[32..40].copy_from_slice(&pushed.to_le_bytes());
            let mut fresh = PulsedModel::from_graph(batch.graph(), 3).unwrap();
            let err = fresh.restore_state(&seal(&bad)).unwrap_err().to_string();
            assert!(err.contains("unreachable"), "{pushed}: {err}");
        }
    }

    #[test]
    fn restore_rejects_a_ring_count_its_window_has_not_fed() {
        // One row pushed at hop 3: the first conv ring (k3, padding 1, 6
        // rows) has pushed its top padding and that row. A blob that moves
        // the ring's count to the whole window, 8 (a count some push
        // sequence reaches), and drops its rows is consistent on its own,
        // but not with its window's one row fed: restored, every later
        // push would fail with "more rows than the window holds".
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        let mut twin = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        let mut forged = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        for m in [&mut model, &mut twin, &mut forged] {
            m.push(&stream_row(0)).unwrap();
        }
        let ring = forged.active[0]
            .state
            .ns
            .iter_mut()
            .find_map(|n| match n {
                NState::Ring(r) => Some(r),
                _ => None,
            })
            .unwrap();
        assert_eq!((ring.pushed, ring.rows.len()), (2, 2));
        *ring = Ring {
            rows: VecDeque::new(),
            pushed: 8,
        };
        let blob = model.save_state();
        let err = model
            .restore_state(&forged.save_state())
            .unwrap_err()
            .to_string();
        assert!(err.contains("unreachable after 1 rows fed"), "{err}");
        assert_eq!(
            model.save_state(),
            blob,
            "a rejected blob changed the state"
        );
        let mut emitted = 0;
        for r in 1..1 + 2 * model.program().window_rows() {
            let got = model.push(&stream_row(r)).unwrap();
            emitted += usize::from(got.is_some());
            assert_eq!(got, twin.push(&stream_row(r)).unwrap(), "row {r}");
        }
        assert!(emitted > 0);
    }

    #[test]
    fn rows_made_match_a_real_stream_after_every_push() {
        // Every window's carried counters after every push of a stream at
        // hop 2 are the ones `rows_made` derives from its rows fed.
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 2).unwrap();
        let program = Arc::clone(model.program());
        for r in 0..16 {
            model.push(&stream_row(r)).unwrap();
            for a in &model.active {
                let made = program.rows_made(a.state.rows_fed);
                for (id, n) in a.state.ns.iter().enumerate() {
                    let of = |port: usize| made[program.table.inputs[id][port]];
                    match (&program.geoms[id], n) {
                        (Geom::Ring(geom), NState::Ring(ring)) => {
                            assert_eq!(ring.pushed, geom.pushed_after(of(0)), "row {r} node {id}");
                        }
                        (Geom::Pair { .. }, NState::Pair([qa, qb])) => {
                            assert_eq!([qa.len(), qb.len()], [of(0) - made[id], of(1) - made[id]]);
                        }
                        (Geom::Pool { .. }, NState::Pool { rows, .. }) => {
                            assert_eq!(*rows, of(0), "row {r} node {id}");
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Row `r` of the test streams: a fixed pattern over the 10 input
    /// values of [`float_graph`]'s row.
    fn stream_row(r: usize) -> Vec<f32> {
        (0..10)
            .map(|i| (((r * 13 + i * 29) % 101) as f32 - 50.0) * 0.012)
            .collect()
    }

    #[test]
    fn rejected_blob_leaves_the_live_stream_untouched() {
        // Four rows into a stream at hop 3, two windows are in flight. The
        // model's own payload cut short by 3 bytes and resealed fails in
        // the second window; the stream must stay as it was, not keep the
        // first window and a zeroed row counter.
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        let mut twin = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        for r in 0..4 {
            model.push(&stream_row(r)).unwrap();
            twin.push(&stream_row(r)).unwrap();
        }
        assert_eq!(model.active.len(), 2);
        let blob = model.save_state();
        let body = payload(&blob);
        assert!(model.restore_state(&seal(&body[..body.len() - 3])).is_err());
        assert_eq!(
            model.save_state(),
            blob,
            "a rejected blob changed the state"
        );
        let mut emitted = 0;
        for r in 4..4 + 2 * model.program().window_rows() {
            let got = model.push(&stream_row(r)).unwrap();
            emitted += usize::from(got.is_some());
            assert_eq!(got, twin.push(&stream_row(r)).unwrap(), "row {r}");
        }
        assert!(emitted > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Structure-aware fuzzing of the pulse-state decoder past the
        /// CRC: a real mid-stream blob's payload gets one u64 overwritten
        /// (with a random or an extreme value), one bit flipped, or its
        /// tail cut, is resealed, and is restored into the live model. Restoring it and then pushing a
        /// full window must not panic, and a blob that restores must
        /// re-save to bytes that restore to the same bytes. A blob that is
        /// rejected must leave the model as it was: the same saved bytes,
        /// and the same windows as an untouched twin on the next pushes.
        #[test]
        fn mutated_state_blobs_restore_or_fail_cleanly(
            cut in 0usize..20,
            kind in 0u8..4,
            pos in 0u64..=u64::MAX,
            value in 0u64..=u64::MAX,
            extreme in proptest::prop::sample::select(
                vec![u64::MAX, u64::MAX - 1, 1u64 << 32, 1000, 1, 0]
            ),
        ) {
            let g = float_graph();
            let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
            let mut model = PulsedModel::from_graph(batch.graph(), 3).unwrap();
            for r in 0..cut {
                model.push(&stream_row(r)).unwrap();
            }
            let saved = model.save_state();
            let mut twin = PulsedModel::from_graph(batch.graph(), 3).unwrap();
            proptest::prop_assert!(twin.restore_state(&saved).is_ok(), "a real blob is rejected");
            let mut body = payload(&saved);
            let pos = usize::try_from(pos % body.len() as u64).unwrap();
            match kind {
                0 | 1 => {
                    let at = pos.min(body.len() - 8);
                    let v = if kind == 0 { value } else { extreme };
                    body[at..at + 8].copy_from_slice(&v.to_le_bytes());
                }
                2 => body[pos] ^= 1 << (value % 8),
                _ => body.truncate(pos),
            }
            if model.restore_state(&seal(&body)).is_ok() {
                let again = model.save_state();
                let mut back = PulsedModel::from_graph(batch.graph(), 3).unwrap();
                proptest::prop_assert!(back.restore_state(&again).is_ok(), "re-saved blob is rejected");
                proptest::prop_assert_eq!(back.save_state(), again);
                for r in 0..model.program().window_rows() {
                    let _ = model.push(&stream_row(cut + r));
                }
            } else {
                proptest::prop_assert_eq!(model.save_state(), saved, "a rejected blob changed the state");
                for r in 0..model.program().window_rows() {
                    let row = stream_row(cut + r);
                    proptest::prop_assert_eq!(model.push(&row).unwrap(), twin.push(&row).unwrap());
                }
            }
        }
    }

    #[test]
    fn state_is_stream_length_independent() {
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let run = |rows: usize| -> usize {
            let mut model = PulsedModel::from_graph(batch.graph(), 2).unwrap();
            let mut peak = 0usize;
            for r in 0..rows {
                let row: Vec<f32> = (0..10)
                    .map(|i| (((r * 7 + i * 3) % 53) as f32 - 26.0) * 0.02)
                    .collect();
                model.push(&row).unwrap();
                peak = peak.max(model.state_bytes());
            }
            peak
        };
        // Peak carried state for a 12-row stream equals the peak for a
        // stream 20x longer: the memory bound does not grow with length.
        assert_eq!(run(12), run(240));
    }

    #[test]
    fn rejects_unlowered_and_bad_pushes() {
        let g = float_graph();
        let err = PulsedProgram::from_graph(&g).unwrap_err().to_string();
        assert!(err.contains("unlowered"), "{err}");
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let program = PulsedProgram::from_graph(batch.graph()).unwrap();
        let mut state = PulsedState::new(&program);
        assert!(state.push_row(&program, &[0.0; 3]).is_err());
        let mut model = PulsedModel::new(Arc::new(program), 2).unwrap();
        assert!(model.push(&[0.0; 3]).is_err());
        assert!(PulsedModel::from_graph(batch.graph(), 0).is_err());
    }
}
