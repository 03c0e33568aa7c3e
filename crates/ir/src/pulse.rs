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
//! output row can be emitted. [`PulsedModel`] turns the per-window
//! machinery into an [`edd_runtime::StreamModel`]: overlapping windows
//! share the immutable program, each with a recycled [`PulsedState`], and
//! `push(slice)` yields at most one completed window per pushed row.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use crate::exec::{Kernel, NodeTable};
use crate::graph::{DType, Graph, Op};
use edd_nn::ACT_QMAX;
use edd_runtime::{ByteReader, ByteWriter, StreamModel, StreamWindow};
use edd_tensor::qkernel::{quantize_i8_into, Requant};
use edd_tensor::{scratch, Result, TensorError};

fn invalid(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
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

    /// The ring's `(base, pushed, emitted)` after `fed` real rows of a
    /// window (`fed <= in_rows`). Every push sequence that feeds `fed`
    /// rows reaches exactly these counters.
    fn ring_counters(&self, fed: usize) -> (usize, usize, usize) {
        let pushed = match fed {
            0 => 0,
            f if f == self.in_rows => f + 2 * self.padding,
            f => f + self.padding,
        };
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
        (base, pushed, emitted)
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

/// Ring of carried (horizontally padded) rows for one conv node.
#[derive(Debug, Default)]
struct Ring {
    rows: VecDeque<Vec<i8>>,
    /// Padded-row index of `rows.front()`.
    base: usize,
    /// Padded rows pushed so far (top padding included).
    pushed: usize,
    /// Real rows received so far this window.
    fed_real: usize,
    /// Output rows emitted so far this window.
    emitted: usize,
    /// Whether the top padding rows have been rolled in.
    primed: bool,
}

impl Ring {
    fn clear(&mut self) {
        self.rows.clear();
        self.base = 0;
        self.pushed = 0;
        self.fed_real = 0;
        self.emitted = 0;
        self.primed = false;
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

    /// Input rows fed so far this window.
    #[must_use]
    pub fn rows_fed(&self) -> usize {
        self.rows_fed
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

    /// Serializes the carried state into `w` (geometry not included; the
    /// bytes only restore onto a state built from the same program).
    pub fn save(&self, w: &mut ByteWriter) {
        w.put_u64(self.rows_fed as u64);
        for n in &self.ns {
            match n {
                NState::None => {}
                NState::Ring(r) => {
                    w.put_u64(r.base as u64);
                    w.put_u64(r.pushed as u64);
                    w.put_u64(r.fed_real as u64);
                    w.put_u64(r.emitted as u64);
                    w.put_u8(u8::from(r.primed));
                    w.put_u32(r.rows.len() as u32);
                    for row in &r.rows {
                        w.put_i8_slice(row);
                    }
                }
                NState::Pair(qs) => {
                    for q in qs {
                        w.put_u32(q.len() as u32);
                        for row in q {
                            w.put_i8_slice(row);
                        }
                    }
                }
                NState::Pool { sums, rows } => {
                    w.put_i32_slice(sums);
                    w.put_u64(*rows as u64);
                }
            }
        }
    }

    /// Restores state written by [`PulsedState::save`], validating every
    /// decoded row length against the program geometry and every counter
    /// against the values a push sequence can reach.
    ///
    /// # Errors
    ///
    /// Errors when the bytes run dry or disagree with the geometry.
    pub fn restore(&mut self, program: &PulsedProgram, r: &mut ByteReader<'_>) -> Result<()> {
        let snap = |e: edd_runtime::snapshot::SnapshotError| invalid(format!("pulse restore: {e}"));
        self.rows_fed = r.get_u64().map_err(snap)? as usize;
        if self.rows_fed > program.window_rows() {
            return Err(invalid(format!(
                "pulse restore: {} rows fed to a window of {}",
                self.rows_fed,
                program.window_rows()
            )));
        }
        for (id, n) in self.ns.iter_mut().enumerate() {
            match (&program.geoms[id], n) {
                (Geom::Ring(geom), NState::Ring(ring)) => {
                    let base = r.get_u64().map_err(snap)?;
                    let pushed = r.get_u64().map_err(snap)?;
                    let fed_real = r.get_u64().map_err(snap)?;
                    let emitted = r.get_u64().map_err(snap)?;
                    let primed = r.get_u8().map_err(snap)?;
                    // The counters follow from the real rows fed. Any
                    // others would index outside the ring on the next push.
                    let reachable = usize::try_from(fed_real)
                        .ok()
                        .filter(|&f| f <= geom.in_rows)
                        .is_some_and(|f| {
                            let (b, p, e) = geom.ring_counters(f);
                            (base, pushed, emitted, primed)
                                == (b as u64, p as u64, e as u64, u8::from(f > 0))
                        });
                    if !reachable {
                        return Err(invalid(format!(
                            "pulse restore: conv ring counters (base {base}, pushed {pushed}, \
                             fed {fed_real}, emitted {emitted}, primed {primed}) are unreachable"
                        )));
                    }
                    ring.base = base as usize;
                    ring.pushed = pushed as usize;
                    ring.fed_real = fed_real as usize;
                    ring.emitted = emitted as usize;
                    ring.primed = primed == 1;
                    let count = r.get_u32().map_err(snap)? as usize;
                    // Every row carries at least its 8-byte length prefix,
                    // so a count the remaining bytes cannot hold is corrupt
                    // — reject it before it sizes an allocation.
                    if count > r.remaining() / 8 {
                        return Err(invalid(format!(
                            "pulse restore: ring of {count} rows overruns the {} bytes left",
                            r.remaining()
                        )));
                    }
                    if count != ring.pushed - ring.base {
                        return Err(invalid(format!(
                            "pulse restore: ring holds {count} rows, its counters {}",
                            ring.pushed - ring.base
                        )));
                    }
                    let row_len = geom.c_in * geom.padded_w();
                    let mut rows = VecDeque::with_capacity(count);
                    for _ in 0..count {
                        let row = r.get_i8_vec().map_err(snap)?;
                        if row.len() != row_len {
                            return Err(invalid(format!(
                                "pulse restore: ring row of {} bytes, expected {row_len}",
                                row.len()
                            )));
                        }
                        rows.push_back(row);
                    }
                    ring.rows = rows;
                }
                (Geom::Pair { row_len }, NState::Pair(qs)) => {
                    for q in qs.iter_mut() {
                        let count = r.get_u32().map_err(snap)? as usize;
                        q.clear();
                        for _ in 0..count {
                            let row = r.get_i8_vec().map_err(snap)?;
                            if row.len() != *row_len {
                                return Err(invalid(format!(
                                    "pulse restore: add row of {} bytes, expected {row_len}",
                                    row.len()
                                )));
                            }
                            q.push_back(row);
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
                    let s = r.get_i32_vec().map_err(snap)?;
                    if s.len() != *channels {
                        return Err(invalid(format!(
                            "pulse restore: pool of {} channels, expected {channels}",
                            s.len()
                        )));
                    }
                    let filled = r.get_u64().map_err(snap)?;
                    // Each pooled row adds at most 128 · in_w to a
                    // channel's sum; larger sums would overflow the i32
                    // accumulator before the window ends.
                    let bound = filled.saturating_mul(*in_w as u64).saturating_mul(128);
                    if filled > *in_rows as u64
                        || s.iter().any(|&v| u64::from(v.unsigned_abs()) > bound)
                    {
                        return Err(invalid(format!(
                            "pulse restore: pool of {filled} rows out of {in_rows} \
                             holds an unreachable sum"
                        )));
                    }
                    *sums = s;
                    *rows = filled as usize;
                }
                _ => {}
            }
        }
        Ok(())
    }
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
        if ring.fed_real >= geom.in_rows {
            return Err(invalid(
                "pulse conv: received more rows than the window holds",
            ));
        }
        if !ring.primed {
            ring.primed = true;
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
        ring.fed_real += 1;
        if ring.fed_real == geom.in_rows {
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
    let (k, s, wp) = (geom.kernel, geom.stride, geom.padded_w());
    if ring.emitted < geom.out_h {
        ring.rows.push_back(row);
    } else {
        // Every output row is out; nothing downstream can read this.
        ring.base += 1;
    }
    let u = ring.pushed;
    ring.pushed += 1;
    if u + 1 >= k && (u + 1 - k).is_multiple_of(s) {
        let j = (u + 1 - k) / s;
        if j < geom.out_h {
            // Assemble the [1, c, k, w+2p] strip the layer's strip front
            // consumes: the last k padded rows, channel-major.
            let first = u + 1 - k;
            let mut x = scratch::alloc_i8(geom.c_in * k * wp);
            for kr in 0..k {
                let src = &ring.rows[first + kr - ring.base];
                for (ch, src) in src.chunks_exact(wp).enumerate() {
                    x[(ch * k + kr) * wp..][..wp].copy_from_slice(src);
                }
            }
            let mut y = vec![0i8; geom.out_row];
            strip(&x, [1, geom.c_in, k, wp], &mut y)?;
            made.push(y);
            ring.emitted += 1;
        }
    }
    // Trim everything below the next output row's first padded row; for
    // stride 1 this leaves exactly kernel - 1 carried rows after an
    // emission — the O(window) bound.
    let next_start = ring.emitted * s;
    while ring.base < next_start && !ring.rows.is_empty() {
        ring.rows.pop_front();
        ring.base += 1;
    }
    if ring.emitted == geom.out_h {
        ring.base += ring.rows.len();
        ring.rows.clear();
    }
    Ok(())
}

/// One in-flight sliding window.
#[derive(Debug)]
struct Active {
    index: u64,
    start: u64,
    state: PulsedState,
}

/// Sliding-window streaming classifier over a [`PulsedProgram`].
///
/// Pushes consume one input row at a time; a new window opens every `hop`
/// rows, at most `ceil(window/hop)` run concurrently (all sharing the
/// immutable program), and completed windows recycle their state through
/// a free pool — so memory is O(window · depth), independent of how long
/// the stream runs. Implements [`StreamModel`].
#[derive(Debug)]
pub struct PulsedModel {
    program: Arc<PulsedProgram>,
    hop: usize,
    active: VecDeque<Active>,
    free: Vec<PulsedState>,
    /// Rows pushed since the stream began.
    t: u64,
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

    /// The shared program.
    #[must_use]
    pub fn program(&self) -> &Arc<PulsedProgram> {
        &self.program
    }
}

impl StreamModel for PulsedModel {
    type Error = TensorError;

    fn slice_len(&self) -> usize {
        self.program.slice_len()
    }

    fn window_rows(&self) -> usize {
        self.program.window_rows()
    }

    fn hop_rows(&self) -> usize {
        self.hop
    }

    fn num_classes(&self) -> usize {
        self.program.num_classes()
    }

    fn delay_rows(&self) -> usize {
        self.program.delay()
    }

    fn push(&mut self, slice: &[f32]) -> Result<Option<StreamWindow>> {
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
        if self.t.is_multiple_of(self.hop as u64) {
            let state = self
                .free
                .pop()
                .unwrap_or_else(|| PulsedState::new(&self.program));
            self.active.push_back(Active {
                index: self.t / self.hop as u64,
                start: self.t,
                state,
            });
        }
        let mut completed = None;
        for a in &mut self.active {
            let outs = a.state.push_row(&self.program, slice)?;
            if let Some(Row::F(logits)) = outs.into_iter().next() {
                completed = Some(StreamWindow {
                    index: a.index,
                    start_row: a.start,
                    logits,
                });
            }
        }
        self.t = next_t;
        if completed.is_some() {
            // Window starts are a hop (>= 1 row) apart, so only the
            // oldest window can have completed on this row.
            if let Some(mut done) = self.active.pop_front() {
                done.state.reset();
                self.free.push(done.state);
            }
        }
        Ok(completed)
    }

    fn reset(&mut self) {
        while let Some(mut a) = self.active.pop_front() {
            a.state.reset();
            self.free.push(a.state);
        }
        self.t = 0;
    }

    fn state_bytes(&self) -> usize {
        self.active.iter().map(|a| a.state.state_bytes()).sum()
    }

    fn save_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_str("EDD-PULSE-STATE");
        w.put_u32(1); // version
        w.put_u64(self.t);
        w.put_u64(self.hop as u64);
        w.put_u32(self.program.geoms.len() as u32);
        w.put_u32(self.active.len() as u32);
        for a in &self.active {
            w.put_u64(a.index);
            w.put_u64(a.start);
            a.state.save(&mut w);
        }
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = ByteReader::new(bytes);
        let snap = |e: edd_runtime::snapshot::SnapshotError| invalid(format!("pulse restore: {e}"));
        let magic = r.get_str().map_err(snap)?;
        if magic != "EDD-PULSE-STATE" {
            return Err(invalid("pulse restore: not a pulse state blob"));
        }
        let version = r.get_u32().map_err(snap)?;
        if version != 1 {
            return Err(invalid(format!(
                "pulse restore: unsupported version {version}"
            )));
        }
        let t = r.get_u64().map_err(snap)?;
        let hop = r.get_u64().map_err(snap)? as usize;
        if hop != self.hop {
            return Err(invalid(format!(
                "pulse restore: snapshot hop {hop} does not match model hop {}",
                self.hop
            )));
        }
        let nodes = r.get_u32().map_err(snap)? as usize;
        if nodes != self.program.geoms.len() {
            return Err(invalid(format!(
                "pulse restore: snapshot program has {nodes} nodes, this one {}",
                self.program.geoms.len()
            )));
        }
        let window = self.program.window_rows();
        let count = r.get_u32().map_err(snap)? as usize;
        if count > window.div_ceil(self.hop) {
            return Err(invalid(format!(
                "pulse restore: {count} windows in flight, at most {} fit",
                window.div_ceil(self.hop)
            )));
        }
        // Decode into fresh windows and swap them in only once all of them
        // fit: a rejected blob leaves the live stream as it was.
        let mut windows = VecDeque::with_capacity(count);
        let decoded = (0..count).try_for_each(|_| -> Result<()> {
            let index = r.get_u64().map_err(snap)?;
            let start = r.get_u64().map_err(snap)?;
            let mut state = self
                .free
                .pop()
                .unwrap_or_else(|| PulsedState::new(&self.program));
            let restored = state.restore(&self.program, &mut r);
            let rows_fed = state.rows_fed;
            let prev = windows.back().map(|a: &Active| a.index);
            windows.push_back(Active {
                index,
                start,
                state,
            });
            restored?;
            // Windows open every hop rows, oldest first, and are fed every
            // row from their start until the last one completes them.
            let fits = prev.is_none_or(|p| p.checked_add(1) == Some(index))
                && index.checked_mul(self.hop as u64) == Some(start)
                && t.checked_sub(start) == Some(rows_fed as u64)
                && rows_fed < window;
            if !fits {
                return Err(invalid(format!(
                    "pulse restore: window {index} from row {start} with {rows_fed} rows \
                     fed does not fit a stream at row {t}"
                )));
            }
            Ok(())
        });
        if let Err(e) = decoded {
            for mut a in windows {
                a.state.reset();
                self.free.push(a.state);
            }
            return Err(e);
        }
        self.reset();
        self.active = windows;
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
        assert_eq!(model.window_rows(), 6);
        assert_eq!(model.slice_len(), 10);
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

    #[test]
    fn restore_rejects_a_hostile_ring_row_count() {
        // A well-formed header (magic, version, hop, node count), one
        // active window with zeroed counters, and a first conv ring
        // claiming u32::MAX rows: restore must fail, not size a
        // `VecDeque` from the count.
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        let mut w = ByteWriter::new();
        w.put_str("EDD-PULSE-STATE");
        w.put_u32(1);
        w.put_u64(0); // rows pushed
        w.put_u64(3); // hop
        w.put_u32(model.program.geoms.len() as u32);
        w.put_u32(1); // active windows
        w.put_u64(0); // window index
        w.put_u64(0); // window start
        w.put_u64(0); // rows fed
        for _ in 0..4 {
            w.put_u64(0); // base, pushed, fed_real, emitted
        }
        w.put_u8(0); // primed
        w.put_u32(u32::MAX); // ring rows
        let blob = w.into_bytes();
        assert_eq!(blob.len(), 112);
        let err = model.restore_state(&blob).unwrap_err().to_string();
        assert!(err.contains("overruns"), "{err}");
    }

    #[test]
    fn restore_rejects_unreachable_ring_counters() {
        // A real blob after one pushed row at hop 3, with the first conv
        // ring's `base` moved past the rows it holds: the next push would
        // index the ring at `first + kr - base`, below zero.
        let g = float_graph();
        let (batch, _) = compile(&g, &PassConfig::all()).unwrap();
        let mut model = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        model.push(&[0.25; 10]).unwrap();
        let mut blob = model.save_state();
        assert_eq!(blob[75..83], 0u64.to_le_bytes(), "ring base");
        assert_eq!(blob[83..91], 2u64.to_le_bytes(), "ring rows pushed");
        blob[75..83].copy_from_slice(&1000u64.to_le_bytes());
        let mut fresh = PulsedModel::from_graph(batch.graph(), 3).unwrap();
        let err = fresh.restore_state(&blob).unwrap_err().to_string();
        assert!(err.contains("unreachable"), "{err}");
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
        // model's own blob cut short by 3 bytes fails in the second window;
        // the stream must stay as it was, not keep the first window and a
        // zeroed row counter.
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
        assert!(model.restore_state(&blob[..blob.len() - 3]).is_err());
        assert_eq!(
            model.save_state(),
            blob,
            "a rejected blob changed the state"
        );
        let mut emitted = 0;
        for r in 4..4 + 2 * model.window_rows() {
            let got = model.push(&stream_row(r)).unwrap();
            emitted += usize::from(got.is_some());
            assert_eq!(got, twin.push(&stream_row(r)).unwrap(), "row {r}");
        }
        assert!(emitted > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Structure-aware fuzzing of the pulse-state decoder: a real
        /// mid-stream blob gets one u64 overwritten (with a random or an
        /// extreme value), one bit flipped, or its tail cut, and is
        /// restored into the live model. Restoring it and then pushing a
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
            let mut blob = saved.clone();
            let pos = usize::try_from(pos % blob.len() as u64).unwrap();
            match kind {
                0 | 1 => {
                    let at = pos.min(blob.len() - 8);
                    let v = if kind == 0 { value } else { extreme };
                    blob[at..at + 8].copy_from_slice(&v.to_le_bytes());
                }
                2 => blob[pos] ^= 1 << (value % 8),
                _ => blob.truncate(pos),
            }
            if model.restore_state(&blob).is_ok() {
                let again = model.save_state();
                let mut back = PulsedModel::from_graph(batch.graph(), 3).unwrap();
                proptest::prop_assert!(back.restore_state(&again).is_ok(), "re-saved blob is rejected");
                proptest::prop_assert_eq!(back.save_state(), again);
                for r in 0..model.window_rows() {
                    let _ = model.push(&stream_row(cut + r));
                }
            } else {
                proptest::prop_assert_eq!(model.save_state(), saved, "a rejected blob changed the state");
                for r in 0..model.window_rows() {
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
