//! Bitwise equivalence of pulsed (streaming) execution against the batch
//! engines, on the real tiny zoo (mixed int4/int8 precisions, expanding
//! and non-expanding MBConv blocks, residual connections).
//!
//! Each engine's lowered graph comes out of the `edd-ir` pass pipeline and
//! is converted into a [`edd_ir::PulsedModel`] that consumes the shared
//! synthetic signal one row-slice at a time. Every emitted window's logits
//! must match the batch engine run on the identical window bit for bit, a
//! mid-signal save/restore must resume bit-identically, and carried state
//! must not grow with stream length. The determinism CI leg re-runs this
//! suite across the `EDD_NUM_THREADS` × `EDD_SIMD` matrix, which the
//! equivalence inherits for free since pulsed and batch paths execute the
//! same `edd-nn` kernels on the same i32-exact accumulators.

use edd_ir::{CompiledModel, Graph, PassConfig, PulsedModel, StreamWindow};
use edd_tensor::Array;
use edd_zoo::{compile_tiny_zoo, signal_window, synthetic_signal};

const SEED: u64 = 11;
const SIGNAL_SEED: u64 = 2024;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Streams `signal` through `pulsed`, returning every emitted window.
fn stream_all(mut pulsed: PulsedModel, signal: &[Vec<f32>]) -> (Vec<StreamWindow>, usize) {
    let mut out = Vec::new();
    for row in signal {
        if let Some(w) = pulsed.push(row).expect("push") {
            out.push(w);
        }
    }
    (out, pulsed.peak_state_bytes())
}

/// Asserts every window in `windows` matches `oracle` run on the same
/// rows, bit for bit.
fn assert_windows_match_batch(
    name: &str,
    oracle: &CompiledModel,
    signal: &[Vec<f32>],
    windows: &[StreamWindow],
    shape: [usize; 3],
) {
    let [c, h, w] = shape;
    assert!(!windows.is_empty(), "{name}: no window completed");
    for win in windows {
        let buf = signal_window(signal, win.start_row as usize, h, c, w);
        let x = Array::from_vec(buf, &[1, c, h, w]).expect("window shape");
        let want = oracle.forward(&x).expect("batch forward");
        assert_eq!(
            bits(want.data()),
            bits(&win.logits),
            "{name}: pulsed window {} (rows {}..{}) diverges from the batch engine",
            win.index,
            win.start_row,
            win.start_row + h as u64
        );
    }
}

/// The first tiny-zoo model's fully optimized graph.
fn first_zoo_graph() -> (String, Graph) {
    let (name, compiled, _) = compile_tiny_zoo(SEED, &PassConfig::all()).remove(0);
    (name, compiled.graph().clone())
}

/// Every tiny-zoo integer engine must stream bit-identically to its own
/// batch execution — across a divisor hop and a non-divisor hop (windows
/// straddle ring trims differently).
#[test]
fn pulsed_matches_batch_on_every_zoo_engine() {
    for (name, oracle, _) in compile_tiny_zoo(SEED, &PassConfig::all()) {
        let g = oracle.graph();
        let [c, h, w] = g.meta.input_shape;
        let signal = synthetic_signal(c, w, h + 3 * h / 2, SIGNAL_SEED);
        for hop in [h / 2, (h / 3).max(1) + 1] {
            let pulsed = PulsedModel::from_graph(g, hop).expect("pulse");
            assert_eq!(pulsed.program().window_rows(), h);
            assert_eq!(pulsed.program().delay(), h - 1, "{name}: classifier delay");
            let (windows, _) = stream_all(pulsed, &signal);
            assert_windows_match_batch(&name, &oracle, &signal, &windows, [c, h, w]);
            // Window starts are hop-spaced from row 0.
            for (i, win) in windows.iter().enumerate() {
                assert_eq!(win.index as usize, i, "{name}");
                assert_eq!(win.start_row as usize, i * hop, "{name}");
            }
        }
    }
}

/// Both pass configurations pulse bit-identically to their own batch
/// engines: the lowering without ReLU6 fusion (standalone `QRelu6`
/// clamps) and the fused pipeline.
#[test]
fn pulsed_matches_batch_through_ir_pass_pipeline() {
    for (label, cfg) in [("none", PassConfig::none()), ("all", PassConfig::all())] {
        for (name, compiled, _) in compile_tiny_zoo(SEED, &cfg) {
            let [c, h, w] = compiled.graph().meta.input_shape;
            let signal = synthetic_signal(c, w, 3 * h, SIGNAL_SEED ^ 1);
            let pulsed = PulsedModel::from_graph(compiled.graph(), h / 2).expect("pulse");
            let (windows, _) = stream_all(pulsed, &signal);
            assert_eq!(windows.len(), 5, "{name} / {label}");
            let tag = format!("{name} / passes `{label}`");
            assert_windows_match_batch(&tag, &compiled, &signal, &windows, [c, h, w]);
        }
    }
}

/// A stream interrupted mid-window, serialized, and resumed on a freshly
/// built pulsed model continues bit-for-bit: every window emitted after
/// the cut matches the uninterrupted run.
#[test]
fn streaming_resume_mid_signal_is_bitwise() {
    let (name, g) = first_zoo_graph();
    let [c, h, w] = g.meta.input_shape;
    let hop = (h / 4).max(1);
    let rows = 3 * h;
    // Cut mid-window: not on a hop boundary, past the first window start.
    let cut = h + hop / 2 + 1;
    let signal = synthetic_signal(c, w, rows, SIGNAL_SEED ^ 2);

    let (reference, _) = stream_all(PulsedModel::from_graph(&g, hop).expect("pulse"), &signal);

    let mut first = PulsedModel::from_graph(&g, hop).expect("pulse");
    let mut resumed_windows = Vec::new();
    for row in &signal[..cut] {
        if let Some(win) = first.push(row).expect("push") {
            resumed_windows.push(win);
        }
    }
    let snapshot = first.save_state();
    drop(first);

    let mut second = PulsedModel::from_graph(&g, hop).expect("pulse");
    second.restore_state(&snapshot).expect("restore");
    for row in &signal[cut..] {
        if let Some(win) = second.push(row).expect("push") {
            resumed_windows.push(win);
        }
    }

    assert_eq!(reference.len(), resumed_windows.len(), "{name}");
    for (want, got) in reference.iter().zip(&resumed_windows) {
        assert_eq!(want.index, got.index, "{name}");
        assert_eq!(want.start_row, got.start_row, "{name}");
        assert_eq!(
            bits(&want.logits),
            bits(&got.logits),
            "{name}: window {} diverged after resume",
            want.index
        );
    }
}

/// Restore accepts every state a stream reaches, on every engine (stride
/// 2, depthwise k5/k7, residual queues): saved after each row, the state
/// restores onto a fresh model and re-saves to the same bytes.
#[test]
fn every_reached_state_restores() {
    for (name, compiled, _) in compile_tiny_zoo(SEED, &PassConfig::all()) {
        let g = compiled.graph();
        let [c, h, w] = g.meta.input_shape;
        let hop = (h / 4).max(1);
        let mut model = PulsedModel::from_graph(g, hop).expect("pulse");
        for row in &synthetic_signal(c, w, 2 * h, SIGNAL_SEED) {
            model.push(row).expect("push");
            let blob = model.save_state();
            let mut fresh = PulsedModel::from_graph(g, hop).expect("pulse");
            if let Err(e) = fresh.restore_state(&blob) {
                panic!("{name}: a reached state is rejected: {e}");
            }
            assert_eq!(fresh.save_state(), blob, "{name}");
        }
    }
}

/// Carried state is bounded by the window geometry: streaming 10 windows'
/// worth of rows peaks at exactly the same state bytes as streaming 2.
#[test]
fn carried_state_is_stream_length_independent() {
    let (name, g) = first_zoo_graph();
    let [c, h, w] = g.meta.input_shape;
    let hop = h / 2;
    let peak = |rows: usize| {
        let signal = synthetic_signal(c, w, rows, SIGNAL_SEED ^ 3);
        let (windows, peak) = stream_all(PulsedModel::from_graph(&g, hop).expect("pulse"), &signal);
        assert_eq!(windows.len(), (rows - h) / hop + 1, "{name}");
        peak
    };
    let short = peak(2 * h);
    let long = peak(10 * h);
    assert!(short > 0, "{name}: state should be nonzero mid-stream");
    assert_eq!(short, long, "{name}: peak state grew with stream length");
}
