//! Pinned golden outputs of the integer engine.
//!
//! The determinism suites compare two paths of the *current* code against
//! each other (threads, SIMD, GEMM class, pulsed vs batch); a change that
//! moved every path the same way would pass them all. These hashes pin the
//! absolute bits instead: the logits of every tiny-zoo model compiled
//! through the IR pipeline on a seeded batch, and the windows of one
//! pulsed stream. A kernel rewrite that is meant to be bitwise neutral must
//! leave both hashes unchanged; a deliberate numeric change must update
//! them in the same commit and say why. Each engine's weight bytes and
//! peak carried pulse state are pinned exactly too, as are the demo net's
//! Stage-1 predicted rates: they follow from the architectures alone, so
//! neither seed nor host may move them.

use edd_core::{calibrate, lower_to_graph, DerivedArch, QatModel};
use edd_hw::{predicted_throughput_fps, AccelDevice};
use edd_ir::{PassConfig, PulsedModel};
use edd_nn::{evaluate, train_epoch, Batch, Module};
use edd_tensor::optim::Sgd;
use edd_tensor::{Array, Tensor};
use edd_zoo::{
    compile_tiny_zoo, synthetic_signal, tiny_derived_arch, tiny_mobilenet_v2, tiny_quant_arch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ZOO_SEED: u64 = 11;
const BATCH: usize = 8;

/// FNV-1a over the f32 bit patterns, little-endian.
fn fnv1a(values: impl IntoIterator<Item = f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn zoo_logits_match_pinned_hashes() {
    let want: [(&str, u64); 3] = [
        ("edd-tiny-quant-demo", 4_174_175_781_691_938_491),
        ("edd-tiny-int8", 6_213_582_670_224_689_562),
        ("edd-tiny-int4", 1_824_915_496_353_919_346),
    ];
    let mut rng = StdRng::seed_from_u64(2026);
    let x = Array::randn(&[BATCH, 3, 16, 16], 1.0, &mut rng);
    let got: Vec<(String, u64)> = compile_tiny_zoo(ZOO_SEED, &PassConfig::all())
        .iter()
        .map(|(name, m, _)| {
            let logits = m.forward(&x).expect("forward");
            (name.clone(), fnv1a(logits.data().iter().copied()))
        })
        .collect();
    let got_ref: Vec<(&str, u64)> = got.iter().map(|(n, h)| (n.as_str(), *h)).collect();
    assert_eq!(
        got_ref, want,
        "zoo logits drifted from the pinned golden hashes"
    );
}

#[test]
fn pulsed_stream_matches_pinned_hash() {
    const WANT: (usize, u64) = (9, 18_185_765_228_479_952_876);
    let (_, model, _) = compile_tiny_zoo(ZOO_SEED, &PassConfig::all()).remove(1);
    let [c, h, w] = model.graph().meta.input_shape;
    let signal = synthetic_signal(c, w, 3 * h, 2026);
    let mut pulsed = PulsedModel::from_graph(model.graph(), h / 4).expect("pulse");
    let mut windows = Vec::new();
    for row in &signal {
        if let Some(win) = pulsed.push(row).expect("push") {
            windows.push(win);
        }
    }
    let hash = fnv1a(windows.iter().flat_map(|w| w.logits.iter().copied()));
    assert_eq!(
        (windows.len(), hash),
        WANT,
        "pulsed stream windows drifted from the pinned golden hash"
    );
}

#[test]
fn zoo_weight_and_pulse_state_bytes_match_pins() {
    let want: [(&str, usize, usize); 3] = [
        ("edd-tiny-quant-demo", 9_296, 22_232),
        ("edd-tiny-int8", 16_672, 46_296),
        ("edd-tiny-int4", 9_192, 46_296),
    ];
    for seed in [ZOO_SEED, 0x0DD5EED] {
        let got: Vec<(String, usize, usize)> = compile_tiny_zoo(seed, &PassConfig::all())
            .iter()
            .map(|(name, m, _)| {
                let g = m.graph();
                let [c, h, w] = g.meta.input_shape;
                let mut pulsed = PulsedModel::from_graph(g, h / 2).expect("pulse");
                for row in &synthetic_signal(c, w, 3 * h, 2026) {
                    pulsed.push(row).expect("push");
                }
                let peak = pulsed.peak_state_bytes();
                (name.clone(), g.weight_bytes(), peak)
            })
            .collect();
        let got_ref: Vec<(&str, usize, usize)> =
            got.iter().map(|(n, b, s)| (n.as_str(), *b, *s)).collect();
        assert_eq!(
            got_ref, want,
            "seed {seed:#x}: (weight bytes, peak pulse state bytes at hop h/2) drifted"
        );
    }
}

/// Each engine's int8 activation plan: the bytes of the one buffer a
/// forward takes per image, after liveness reuse and in-place ReLU6/adds,
/// next to the weight bytes pinned above. It follows from the
/// architecture alone, so neither seed nor host may move it.
#[test]
fn zoo_activation_plan_bytes_match_pins() {
    let want: [(&str, usize); 3] = [
        ("edd-tiny-quant-demo", 41_728),
        ("edd-tiny-int8", 58_112),
        ("edd-tiny-int4", 54_016),
    ];
    for seed in [ZOO_SEED, 0x0DD5EED] {
        let got: Vec<(String, usize)> = compile_tiny_zoo(seed, &PassConfig::all())
            .iter()
            .map(|(name, m, _)| (name.clone(), m.plan_bytes()))
            .collect();
        let got_ref: Vec<(&str, usize)> = got.iter().map(|(n, b)| (n.as_str(), *b)).collect();
        assert_eq!(
            got_ref, want,
            "seed {seed:#x}: planned int8 activation bytes per image drifted"
        );
    }
}

/// The demo net's host-independent figures: its weight bytes next to its
/// uniform-int8 twin's (same kernels and expansions, every block at 8
/// bits), and its Stage-1 `Perf^q` throughput on the Loom-like accelerator
/// at uniform 16, uniform 8 and the searched 4/8/8 bits (stem and head at
/// 8 bits except under uniform 16), in img/s to 0.1.
#[test]
fn quant_demo_weight_bytes_and_stage1_rates_match_pins() {
    let weight_bytes = |arch: &DerivedArch| {
        let mut rng = StdRng::seed_from_u64(0x0DD5EED);
        let model = QatModel::new(arch, &mut rng);
        let calib_data = [Array::randn(&[2, 3, 16, 16], 1.0, &mut rng)];
        let calib = calibrate(&model, &calib_data).expect("calibration");
        let graph = lower_to_graph(&model, arch, &calib).expect("lowering");
        let (compiled, _) = edd_ir::compile(&graph, &PassConfig::all()).expect("compile");
        compiled.graph().weight_bytes()
    };
    let demo = tiny_derived_arch();
    let twin = tiny_quant_arch("edd-tiny-quant-demo-int8", [3, 5, 3], [4, 4, 4], [8, 8, 8]);
    assert_eq!((weight_bytes(&demo), weight_bytes(&twin)), (9_296, 10_608));

    let net = demo.to_network_shape();
    let device = AccelDevice::loom_like();
    let fps =
        |q_per_op: &[u32]| format!("{:.1}", predicted_throughput_fps(&net, q_per_op, &device));
    assert_eq!(
        [fps(&[16; 5]), fps(&[8; 5]), fps(&[8, 4, 8, 8, 8])],
        ["723312.7", "1446625.3", "1659233.3"],
        "Stage-1 img/s at uniform 16, uniform 8 and mixed 4/8/8 bits"
    );
}

/// The float side of the zoo: `tiny_mobilenet_v2(16, 6, ..)` trained three
/// epochs with SGD on two seeded batches of random images with fixed
/// labels. Every parameter's bits, the eval-mode logits of the first batch
/// (which read the batch norms' running statistics) and the eval loss are
/// pinned. It uses only `Module`, `train_epoch` and `evaluate`, so it pins
/// the training bits whatever type `tiny_mobilenet_v2` returns.
#[test]
fn tiny_mobilenet_v2_training_matches_pinned_hashes() {
    const WANT: (u64, u64, u32) = (
        17_288_221_350_554_897_475,
        9_795_842_256_327_072_630,
        1_072_248_185,
    );

    let mut rng = StdRng::seed_from_u64(2026);
    let net = tiny_mobilenet_v2(16, 6, &mut rng);
    let batches: Vec<Batch> = (0..2)
        .map(|_| Batch {
            images: Array::randn(&[BATCH, 3, 16, 16], 1.0, &mut rng),
            labels: (0..BATCH).map(|i| i % 6).collect(),
        })
        .collect();
    let mut opt = Sgd::new(net.parameters(), 0.05, 0.9, 1e-4);
    for _ in 0..3 {
        train_epoch(&net, &mut opt, &batches).expect("training");
    }
    let eval = evaluate(&net, &batches[..1]).expect("evaluation");
    let logits = net
        .forward(&Tensor::constant(batches[0].images.clone()))
        .expect("eval-mode forward");

    let params: Vec<f32> = net
        .parameters()
        .iter()
        .flat_map(|p| p.value().data().to_vec())
        .collect();
    assert_eq!(
        (
            fnv1a(params),
            fnv1a(logits.value().data().iter().copied()),
            eval.loss.to_bits()
        ),
        WANT,
        "tiny MobileNet-V2's trained weights, eval-mode logits or eval loss drifted"
    );
}
