//! Steady-state cost of pulsed (streaming) inference.
//!
//! Each tiny-zoo integer engine's lowered graph
//! ([`edd_zoo::compile_tiny_zoo`]) is converted into a pulsed model
//! ([`edd_ir::PulsedModel`]) and fed a long synthetic signal one
//! row-slice at a time after the rings are primed and the sliding-window
//! coordinator has reached steady state. Reported per model:
//!
//! * **µs/pulse** — mean wall-clock per pushed row over the measured
//!   stream (the streaming throughput figure: a device can sustain any
//!   row rate below `1e6 / µs_per_pulse` rows/s);
//! * per-push latency percentiles (rows that complete a window do a full
//!   classifier tail and dominate the p99);
//! * **state bytes** — the peak carried state, which is bounded by the
//!   window geometry and must not depend on stream length.
//!
//! Before measuring, the first emitted window is checked bitwise against
//! the batch engine on the identical rows, so a red pulse bench can never
//! be "fast but wrong". Appends one JSONL record per model to the file
//! named by `EDD_BENCH_JSON` — `scripts/bench_pulse.sh` folds that into
//! `BENCH_pulse.json` and gates µs/pulse and state bytes against the
//! previous snapshot.
//!
//! Run: `cargo run --release -p edd-bench --bin exp_pulse [--quick]`

use edd_bench::print_header;
use edd_ir::{PassConfig, PulsedModel};
use edd_runtime::telemetry::Histogram;
use edd_runtime::StreamSession;
use edd_tensor::Array;
use edd_zoo::{compile_tiny_zoo, signal_row, signal_window, synthetic_signal};
use std::io::Write;
use std::time::Instant;

const SIGNAL_SEED: u64 = 0x5EED;

/// One model's measured figures.
struct PulseResult {
    name: String,
    rows: usize,
    window: usize,
    hop: usize,
    us_per_pulse: f64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
    state_bytes: usize,
    windows: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rows: usize = if quick { 256 } else { 1024 };

    print_header("Pulsed streaming inference: steady-state cost per pushed row");
    println!("measuring {rows} pushed rows per model after warmup (rings primed)\n");

    let mut results = Vec::new();
    for (name, oracle, _) in compile_tiny_zoo(0x0DD5EED, &PassConfig::all()) {
        let g = oracle.graph();
        let [c, h, w] = g.meta.input_shape;
        let hop = (h / 2).max(1);

        // Correctness first: the first emitted window must equal the batch
        // engine bitwise on the same rows, under this process's exact
        // EDD_NUM_THREADS / EDD_SIMD / EDD_GEMM environment.
        let check_rows = synthetic_signal(c, w, h, SIGNAL_SEED);
        let mut check = StreamSession::new(PulsedModel::from_graph(g, hop).expect("pulse"));
        let mut first = None;
        for row in &check_rows {
            if let Some(win) = check.push(row).expect("push") {
                first = Some(win);
            }
        }
        let first = first.expect("one full window emits one result");
        let buf = signal_window(&check_rows, 0, h, c, w);
        let want = oracle
            .forward(&Array::from_vec(buf, &[1, c, h, w]).expect("shape"))
            .expect("batch forward");
        assert!(
            want.data()
                .iter()
                .zip(&first.logits)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{name}: pulsed output diverges from the batch engine"
        );

        // Warmup: one window plus one hop, so every ring is primed and the
        // coordinator is cycling windows, then measure `rows` pushes.
        let warm = h + hop;
        let pulsed = PulsedModel::from_graph(g, hop).expect("pulse");
        let mut session = StreamSession::new(pulsed);
        for r in 0..warm {
            session
                .push(&signal_row(c, w, SIGNAL_SEED, r))
                .expect("push");
        }
        let signal: Vec<Vec<f32>> = (warm..warm + rows)
            .map(|r| signal_row(c, w, SIGNAL_SEED, r))
            .collect();
        let hist = Histogram::new();
        let start = Instant::now();
        for row in &signal {
            let t0 = Instant::now();
            session.push(row).expect("push");
            hist.record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        let elapsed = start.elapsed();
        let stats = session.stats();
        results.push(PulseResult {
            name,
            rows,
            window: h,
            hop,
            us_per_pulse: elapsed.as_secs_f64() * 1e6 / rows as f64,
            p50_ns: hist.percentile(50.0),
            p99_ns: hist.percentile(99.0),
            max_ns: hist.max(),
            state_bytes: stats.peak_state_bytes,
            windows: stats.windows,
        });
    }

    println!(
        "{:<22} {:>6} {:>4} {:>11} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "model", "window", "hop", "us/pulse", "p50us", "p99us", "maxus", "state B", "windows"
    );
    for r in &results {
        println!(
            "{:<22} {:>6} {:>4} {:>11.2} {:>9.2} {:>9.2} {:>9.2} {:>10} {:>8}",
            r.name,
            r.window,
            r.hop,
            r.us_per_pulse,
            r.p50_ns as f64 / 1e3,
            r.p99_ns as f64 / 1e3,
            r.max_ns as f64 / 1e3,
            r.state_bytes,
            r.windows
        );
    }

    if let Ok(path) = std::env::var("EDD_BENCH_JSON") {
        if !path.is_empty() {
            write_records(&path, &results);
        }
    }

    // Machine-readable summary line (grep-able from CI logs).
    let worst_us = results.iter().map(|r| r.us_per_pulse).fold(0.0, f64::max);
    let peak_state = results.iter().map(|r| r.state_bytes).max().unwrap_or(0);
    let windows: u64 = results.iter().map(|r| r.windows).sum();
    println!(
        "\nPULSE_RESULT: models={} worst_us_per_pulse={worst_us:.2} \
         peak_state_bytes={peak_state} windows={windows} bitwise=ok",
        results.len()
    );
}

/// Appends one `pulse_<model>` JSONL record per model to `path`.
fn write_records(path: &str, results: &[PulseResult]) {
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    for r in results {
        let _ = writeln!(
            f,
            "{{\"name\":\"pulse_{}\",\"rows\":{},\"window\":{},\"hop\":{},\
             \"us_per_pulse\":{:.3},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{},\
             \"state_bytes\":{},\"windows\":{}}}",
            r.name,
            r.rows,
            r.window,
            r.hop,
            r.us_per_pulse,
            r.p50_ns,
            r.p99_ns,
            r.max_ns,
            r.state_bytes,
            r.windows,
        );
    }
}
