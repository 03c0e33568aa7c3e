//! Regenerates paper **Table 2**: "EDD-Net-1 accuracy and latency on
//! 1080 Ti" under 32-bit floating, 16-bit floating and 8-bit integer
//! TensorRT precisions.
//!
//! The latency column is the GPU roofline model of EDD-Net-1 on the GTX
//! 1080 Ti descriptor. The accuracy column pairs the paper's published
//! ImageNet errors with a *measured* SynthImageNet proxy: a small
//! EDD-style network is trained once at full precision, and its test error
//! is reported with its weights snapped to each precision's grid
//! (post-training quantization) — checking the paper's shape claim that
//! 16-bit matches 32-bit while 8-bit loses accuracy.
//!
//! Run: `cargo run -p edd-bench --bin table2 [--quick]`

use edd_bench::print_header;
use edd_core::{ArchParams, DerivedArch, DeviceTarget, QatModel, SearchSpace};
use edd_data::{SynthConfig, SynthDataset};
use edd_hw::gpu::GpuPrecision;
use edd_hw::{eval_gpu, GpuDevice};
use edd_nn::{evaluate, train_epoch, Batch, Module, QuantSpec};
use edd_tensor::optim::Sgd;
use edd_zoo::{edd_net_1, TABLE_2};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Trains a tiny EDD-style net at full precision. Precision enters only
/// when [`proxy_error`] evaluates it, so one trained net serves every
/// precision — the TensorRT flow Table 2 describes ("after re-training and
/// fine-tuning using TensorRT under different data precisions").
fn train_proxy(train: &[Batch], epochs: usize) -> QatModel {
    let mut rng = StdRng::seed_from_u64(2024);
    let space = SearchSpace::tiny(3, 16, 16, vec![32]);
    let target = DeviceTarget::Gpu(GpuDevice::gtx_1080_ti());
    // A fixed architecture: the argmax of freshly initialized search
    // variables.
    let params = ArchParams::init(&space, &target, &mut rng);
    let model = DerivedArch::from_params(&space, &target, &params).build_model(&mut rng);
    let mut opt = Sgd::new(model.parameters(), 0.05, 0.9, 1e-4);
    for _ in 0..epochs {
        train_epoch(&model, &mut opt, train).expect("shapes");
    }
    model
}

/// Test error (%) with the weights snapped to the `bits` grid (post-training
/// quantization, mirroring TensorRT calibration; 32 bits is the float net).
fn proxy_error(model: &QatModel, test: &[Batch], bits: u32) -> f32 {
    // Snap every parameter to the grid, evaluate, then restore.
    let params = model.parameters();
    let originals: Vec<_> = params.iter().map(edd_tensor::Tensor::value_clone).collect();
    if bits < 32 {
        let q = QuantSpec::bits(bits);
        for p in &params {
            let range = edd_nn::resolve_range(p, q);
            let levels = (1u64 << (q.bits.clamp(1, 31) - 1)) as f32;
            let step = range / levels;
            p.update_value(|a| a.map_inplace(|v| (v.clamp(-range, range) / step).round() * step));
        }
    }
    let top1 = evaluate(model, test).expect("shapes").top1;
    for (p, orig) in params.iter().zip(originals) {
        p.set_value(orig);
    }
    (1.0 - top1) * 100.0
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let net = edd_net_1();
    let ti = GpuDevice::gtx_1080_ti();

    print_header("Table 2: EDD-Net-1 accuracy and latency on 1080 Ti");

    // Latency side (modeled roofline).
    let mut modeled_ms = Vec::new();
    for entry in &TABLE_2 {
        let prec = GpuPrecision::from_bits(entry.bits).expect("table bits supported");
        modeled_ms.push(eval_gpu(&net, prec, &ti).latency_ms);
    }

    // Accuracy side (SynthImageNet proxy, post-training quantization). A
    // hard configuration (many classes, strong noise) keeps the task off
    // the 0%-error ceiling so precision effects are visible.
    let data = SynthDataset::new(SynthConfig {
        num_classes: 16,
        image_size: 16,
        noise_std: 0.9,
        ..SynthConfig::default()
    });
    let (batches, epochs) = if quick { (4, 2) } else { (12, 8) };
    let train = data.split(batches, 16, 1);
    let test = data.split(6, 16, 2);
    let model = train_proxy(&train, epochs);
    let proxy_err: Vec<f32> = TABLE_2
        .iter()
        .map(|entry| proxy_error(&model, &test, entry.bits))
        .collect();

    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>12}",
        "Precision", "err paper", "err proxy", "lat modeled", "lat paper"
    );
    println!("{}", "-".repeat(68));
    for (i, entry) in TABLE_2.iter().enumerate() {
        println!(
            "{:<18} {:>9.1}% {:>9.1}% {:>10.2}ms {:>10.2}ms",
            entry.precision, entry.test_err, proxy_err[i], modeled_ms[i], entry.latency_ms
        );
    }

    // Extended precision sweep: the paper stops at 8-bit (TensorRT's
    // floor); sweeping further down locates the accuracy cliff the
    // quantization search variable Φ is navigating.
    print_header("Extended precision sweep (beyond Table 2's TensorRT floor)");
    let mut sweep_err = Vec::new();
    for bits in [6u32, 4, 3, 2] {
        let e = proxy_error(&model, &test, bits);
        println!("  {bits:>2}-bit weights: proxy test error {e:.1}%");
        sweep_err.push(e);
    }

    print_header("Shape checks");
    let monotone = modeled_ms[0] > modeled_ms[1] && modeled_ms[1] > modeled_ms[2];
    println!(
        "[{}] latency decreases monotonically 32 -> 16 -> 8 bit",
        if monotone { "PASS" } else { "FAIL" }
    );
    let ratios_ok = (modeled_ms[0] / modeled_ms[1]
        - f64::from(TABLE_2[0].latency_ms / TABLE_2[1].latency_ms))
    .abs()
        < 0.4
        && (modeled_ms[1] / modeled_ms[2]
            - f64::from(TABLE_2[1].latency_ms / TABLE_2[2].latency_ms))
        .abs()
            < 0.4;
    println!(
        "[{}] precision-speedup ratios within 0.4 of paper's",
        if ratios_ok { "PASS" } else { "FAIL" }
    );
    let acc_shape = proxy_err[2] >= proxy_err[1] - 1.0;
    println!(
        "[{}] 8-bit proxy error >= 16-bit proxy error (quantization hurts accuracy)",
        if acc_shape { "PASS" } else { "FAIL" }
    );
    let cliff = sweep_err.last().copied().unwrap_or(0.0) > proxy_err[0] + 5.0;
    println!(
        "[{}] aggressive quantization (2-bit) degrades accuracy well past full precision",
        if cliff { "PASS" } else { "FAIL" }
    );
}
