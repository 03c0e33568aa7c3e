//! Pulsed streaming inference with bounded memory.
//!
//! Pipeline: derived arch → brief QAT → calibration → integer engine
//! compiled through the IR ([`edd::ir::CompiledModel`]) → its lowered
//! graph converted to a pulsed model ([`edd::ir::PulsedModel`]) that
//! consumes a long signal one row-slice at a time. Each conv keeps only a
//! small ring of rows, so carried state is bounded by the window geometry
//! — the stream can be arbitrarily long. Every emitted sliding-window
//! classification is checked bitwise against the batch engine run on the
//! identical rows, and the stream is interrupted, serialized, and resumed
//! mid-window to show state save/restore continues bit-for-bit.
//!
//! Run: `cargo run --release --example streaming_infer`

use edd::core::{calibrate, lower_to_graph, QatModel};
use edd::data::{SynthConfig, SynthDataset};
use edd::ir::{PassConfig, PulsedModel};
use edd::nn::Module;
use edd::tensor::optim::Sgd;
use edd::tensor::Array;
use edd::zoo::{signal_window, synthetic_signal};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let arch = edd::zoo::tiny_derived_arch();
    println!("{}", arch.summary());

    // Train, calibrate, and compile the integer engine, as in the
    // quantized_infer example.
    let mut rng = StdRng::seed_from_u64(7);
    let model = QatModel::new(&arch, &mut rng);
    let data = SynthDataset::new(SynthConfig::tiny());
    let train = data.split(6, 16, 1);
    let mut opt = Sgd::new(model.parameters(), 0.05, 0.9, 1e-4);
    for epoch in 0..2 {
        let stats = edd::nn::train_epoch(&model, &mut opt, &train).expect("train epoch");
        println!(
            "qat epoch {epoch}: loss {:.3}, top1 {:.2}",
            stats.loss, stats.top1
        );
    }
    model.set_training(false);
    let calib_batches: Vec<_> = train.iter().map(|b| b.images.clone()).collect();
    let calib = calibrate(&model, &calib_batches).expect("calibration");
    let float_graph = lower_to_graph(&model, &arch, &calib).expect("lowering");
    let (oracle, _) = edd::ir::compile(&float_graph, &PassConfig::all()).expect("compile");

    // Pulse the compiled graph: one 16-row window, new window every 4 rows.
    let graph = oracle.graph();
    let [channels, window, width] = graph.meta.input_shape;
    let hop = 4;
    let mut pulsed = PulsedModel::from_graph(graph, hop).expect("pulse conversion");
    println!(
        "\npulsed `{}`: {} floats/slice, window {window} rows, hop {hop}, delay {} rows",
        arch.name,
        pulsed.program().slice_len(),
        pulsed.program().delay()
    );

    // Stream a 64-row synthetic signal one row at a time, interrupting at
    // row 23 (mid-window) to serialize and resume on a fresh model.
    let rows = 64;
    let cut = 23;
    let signal = synthetic_signal(channels, width, rows, 42);
    let mut windows = Vec::new();
    for row in &signal[..cut] {
        if let Some(w) = pulsed.push(row).expect("push") {
            windows.push(w);
        }
    }
    let snapshot = pulsed.save_state();
    println!(
        "interrupted at row {cut}: {} window(s) out, {} bytes of state serialized",
        windows.len(),
        snapshot.len()
    );
    let mut pulsed = PulsedModel::from_graph(graph, hop).expect("pulse");
    pulsed.restore_state(&snapshot).expect("restore");
    for row in &signal[cut..] {
        if let Some(w) = pulsed.push(row).expect("push") {
            windows.push(w);
        }
    }

    // Verify every emitted window bitwise against the batch engine.
    for w in &windows {
        let buf = signal_window(&signal, w.start_row as usize, window, channels, width);
        let x = Array::from_vec(buf, &[1, channels, window, width]).expect("window shape");
        let want = oracle.forward(&x).expect("batch forward");
        assert!(
            want.data()
                .iter()
                .zip(&w.logits)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "window {} diverged from the batch engine",
            w.index
        );
        println!(
            "  window {:>2} (rows {:>2}..{:>2}): class {} — matches batch bitwise",
            w.index,
            w.start_row,
            w.start_row + window as u64,
            w.argmax()
        );
    }
    println!(
        "\n{} windows classified from a {rows}-row stream; peak carried state \
         {} bytes after the resume, independent of stream length",
        windows.len(),
        pulsed.peak_state_bytes()
    );
}
