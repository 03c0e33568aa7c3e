//! Per-pass bitwise equivalence of the `edd-ir` compilation pipeline on
//! the real tiny zoo (mixed int4/int8 precisions, expanding and
//! non-expanding MBConv blocks, residual connections).
//!
//! The reference is the bare quantize lowering (`PassConfig::none()`):
//! every individual pass and the full pipeline must produce logits whose
//! f32 bit patterns match it exactly, so any difference is a pass bug,
//! not noise. The absolute bits of the optimized pipeline are pinned by
//! `golden_outputs.rs`. The determinism CI leg re-runs this test across
//! the `EDD_NUM_THREADS` × `EDD_SIMD` × `EDD_GEMM` matrix.

mod common;

use edd_ir::PassConfig;
use edd_runtime::BatchModel;
use edd_tensor::Array;
use edd_zoo::compile_tiny_zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 11;
const BATCH: usize = 3;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn test_batch(image_len: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(2024);
    let x = Array::randn(&[BATCH, 3, 16, 16], 1.0, &mut rng);
    assert_eq!(x.len(), BATCH * image_len);
    x.data().to_vec()
}

#[test]
fn every_pass_config_matches_the_unoptimized_lowering() {
    let bare = compile_tiny_zoo(SEED, &PassConfig::none());
    let x = test_batch(bare[0].1.image_len());
    let reference: Vec<(String, Vec<f32>)> = bare
        .iter()
        .map(|(name, m, _)| (name.clone(), m.infer_batch(&x, BATCH).unwrap()))
        .collect();

    // Skip `none`, the reference itself.
    for (label, cfg) in common::pass_configs().into_iter().skip(1) {
        let ir = compile_tiny_zoo(SEED, &cfg);
        assert_eq!(ir.len(), reference.len());
        for ((name, want), (ir_name, compiled, _)) in reference.iter().zip(&ir) {
            assert_eq!(name, ir_name);
            let got = compiled.infer_batch(&x, BATCH).unwrap();
            assert_eq!(
                bits(want),
                bits(&got),
                "passes `{label}` diverge from the unoptimized lowering on {name}"
            );
        }
    }
}

#[test]
fn full_pipeline_optimizes_and_reports() {
    let ir = compile_tiny_zoo(SEED, &PassConfig::all());
    let bare = compile_tiny_zoo(SEED, &PassConfig::none());
    for ((name, opt, report), (_, raw, raw_report)) in ir.iter().zip(&bare) {
        // Three conv+BN stages per MBConv block at most, plus stem and
        // head: every one must fold, and every ReLU6 must fuse.
        assert!(report.bn_folded >= 5, "{name}: folded {}", report.bn_folded);
        assert_eq!(
            report.bn_folded,
            opt.graph()
                .nodes()
                .iter()
                .filter(|n| matches!(n.op, edd_ir::Op::QConv(_) | edd_ir::Op::QDwConv(_)))
                .count(),
            "{name}: every compiled conv came from a conv+BN pair"
        );
        assert!(report.relu6_fused >= 4, "{name}");
        // The zoo nets carry 1×1 expand/project/head convs — the im2col
        // bypass must be selected for them.
        assert!(report.bypassed_1x1 >= 3, "{name}");
        assert!(report.dce_removed > 0, "{name}");
        // Fusion shrinks the executable graph.
        assert!(
            opt.graph().len() < raw.graph().len(),
            "{name}: {} vs {}",
            opt.graph().len(),
            raw.graph().len()
        );
        assert_eq!(*raw_report, edd_ir::PassReport::default(), "{name}");
        // The unfused graph still carries standalone QRelu6 clamps.
        assert!(raw
            .graph()
            .nodes()
            .iter()
            .any(|n| matches!(n.op, edd_ir::Op::QRelu6 { .. })));
    }
}

#[test]
fn ir_models_are_batch_invariant() {
    let (_, compiled, _) = &compile_tiny_zoo(SEED, &PassConfig::all())[0];
    let x = test_batch(compiled.image_len());
    let batched = compiled.infer_batch(&x, BATCH).unwrap();
    let classes = compiled.num_classes();
    for i in 0..BATCH {
        let img = &x[i * compiled.image_len()..(i + 1) * compiled.image_len()];
        let single = compiled.infer_batch(img, 1).unwrap();
        assert_eq!(
            bits(&single),
            bits(&batched[i * classes..(i + 1) * classes]),
            "image {i} depends on batch composition"
        );
    }
}
