//! Measured integer-engine throughput vs the Stage-1 `Perf^q(op)`
//! prediction.
//!
//! Compiles the demo derived architecture ([`edd_zoo::tiny_derived_arch`],
//! mixed Φ = 4/8/8-bit) through the `edd-ir` pipeline into the true
//! integer inference engine twice — once at its searched mixed precisions
//! and once at uniform int8 — and measures batched throughput through
//! `edd_runtime::InferServer` against the f32 fake-quant reference. The same architecture is then priced by
//! the Stage-1 dedicated-accelerator model (`edd_hw::accel`), and the
//! measured speedup ratios are compared against the predicted ones.
//!
//! The absolute numbers are not comparable (a 2 TMAC/s bit-serial ASIC
//! model vs this machine's CPU), so the cross-check is on *ratios*: the
//! Stage-1 model predicts int4 weights double an op's throughput on
//! bit-flexible silicon, while the CPU engine unpacks int4 to int8 before
//! the GEMM and only banks the 2× weight-storage saving. EXPERIMENTS.md
//! records both sides.
//!
//! Run: `cargo run --release -p edd-bench --bin exp_quantized [--quick]`

use edd_bench::print_header;
use edd_core::{calibrate, lower_to_graph, DerivedArch, QatModel, ENGINE_MAX_BITS};
use edd_hw::{predicted_throughput_fps, AccelDevice};
use edd_ir::{CompiledModel, PassConfig};
use edd_nn::Module;
use edd_runtime::InferServer;
use edd_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// `[stem, blocks..., head]` per-op weight precisions for the Stage-1
/// model, with stem/head at the engine's 8-bit ceiling.
fn q_per_op(arch: &DerivedArch, block_bits: &[u32]) -> Vec<u32> {
    let mut q = Vec::with_capacity(arch.blocks.len() + 2);
    q.push(8);
    q.extend_from_slice(block_bits);
    q.push(8);
    q
}

/// Measured images/s serving `iters` batches through an [`InferServer`].
fn measure_engine(model: CompiledModel, images: &[f32], batch: usize, iters: usize) -> f64 {
    let server = InferServer::new(model);
    server.infer(images, batch).expect("warmup batch");
    let start = Instant::now();
    for _ in 0..iters {
        server.infer(images, batch).expect("batch");
    }
    batch as f64 * iters as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (batch, iters) = if quick { (4, 8) } else { (16, 40) };

    let arch = edd_zoo::tiny_derived_arch();
    let mut rng = StdRng::seed_from_u64(0x0DD5EED);
    let model = QatModel::new(&arch, &mut rng);
    model.set_training(false);

    // Uniform-int8 twin: same layer construction order, so the same RNG
    // stream yields identical weights — only Φ differs.
    let mut arch8 = arch.clone();
    for b in &mut arch8.blocks {
        b.quant_bits = 8;
    }
    let model8 = QatModel::new(&arch8, &mut StdRng::seed_from_u64(0x0DD5EED));
    model8.set_training(false);

    let calib_data: Vec<Array> = (0..4)
        .map(|i| {
            Array::randn(
                &[batch, 3, 16, 16],
                1.0,
                &mut StdRng::seed_from_u64(100 + i),
            )
        })
        .collect();
    let calib = calibrate(&model, &calib_data).expect("calibration");
    let calib8 = calibrate(&model8, &calib_data).expect("calibration");
    let graph = lower_to_graph(&model, &arch, &calib).expect("lowering");
    let (qmixed, _) = edd_ir::compile(&graph, &PassConfig::all()).expect("compile");
    let graph8 = lower_to_graph(&model8, &arch8, &calib8).expect("lowering");
    let (q8, _) = edd_ir::compile(&graph8, &PassConfig::all()).expect("compile");

    print_header("Integer engine throughput vs Stage-1 Perf^q prediction");
    let block_bits: Vec<u32> = arch
        .blocks
        .iter()
        .map(|b| b.quant_bits.min(ENGINE_MAX_BITS))
        .collect();
    println!(
        "arch {} ({} blocks, Φ = {block_bits:?}), batch {batch}, {iters} timed batches\n",
        arch.name,
        arch.blocks.len(),
    );

    let images = calib_data[0].data().to_vec();
    // f32 reference: the QAT model's own eval forward.
    let xt = Tensor::constant(calib_data[0].clone());
    model.forward(&xt).expect("warmup");
    let start = Instant::now();
    for _ in 0..iters {
        model.forward(&xt).expect("f32 forward");
    }
    let f32_fps = batch as f64 * iters as f64 / start.elapsed().as_secs_f64();

    let bytes_mixed = qmixed.graph().weight_bytes();
    let bytes8 = q8.graph().weight_bytes();
    let int8_fps = measure_engine(q8, &images, batch, iters);
    let mixed_fps = measure_engine(qmixed, &images, batch, iters);

    let device = AccelDevice::loom_like();
    let net = arch.to_network_shape();
    let pred8 = predicted_throughput_fps(&net, &q_per_op(&arch, &[8, 8, 8]), &device);
    let pred_mixed = predicted_throughput_fps(&net, &q_per_op(&arch, &[4, 8, 8]), &device);
    let pred16 = predicted_throughput_fps(&net, &vec![16; net.ops.len()], &device);

    println!("measured on this CPU (images/s):");
    println!("  f32 fake-quant reference  {f32_fps:10.1}");
    println!(
        "  int8 engine (uniform 8b)  {int8_fps:10.1}   ({:.2}x vs f32)",
        int8_fps / f32_fps
    );
    println!(
        "  mixed engine (4/8/8b)     {mixed_fps:10.1}   ({:.2}x vs int8, {} vs {} weight bytes)",
        mixed_fps / int8_fps,
        bytes_mixed,
        bytes8
    );
    println!("\nStage-1 prediction on {} (images/s):", device.name);
    println!("  uniform 16b               {pred16:10.1}");
    println!(
        "  uniform 8b                {pred8:10.1}   ({:.2}x vs 16b)",
        pred8 / pred16
    );
    println!(
        "  mixed 4/8/8b              {pred_mixed:10.1}   ({:.2}x vs 8b)",
        pred_mixed / pred8
    );
    println!("\ncross-check (speedup ratios, measured vs predicted):");
    println!(
        "  int8-vs-f32:  measured {:.2}x   (prediction n/a: Stage-1 has no f32 point)",
        int8_fps / f32_fps
    );
    println!(
        "  mixed-vs-int8: measured {:.2}x  predicted {:.2}x — the engine unpacks int4\n\
         \x20  to int8 MACs, so the predicted bit-serial win shows up as the {:.2}x\n\
         \x20  weight-storage ratio instead",
        mixed_fps / int8_fps,
        pred_mixed / pred8,
        bytes8 as f64 / bytes_mixed as f64
    );

    // Machine-readable summary line (grep-able from CI logs).
    println!(
        "\nQUANT_RESULT: f32_fps={f32_fps:.1} int8_fps={int8_fps:.1} mixed_fps={mixed_fps:.1} \
         pred8_fps={pred8:.1} pred_mixed_fps={pred_mixed:.1} bytes8={bytes8} bytes_mixed={bytes_mixed}"
    );
}
