//! Bitwise equivalence of the `edd-ir` compilation pipeline's two
//! configurations on the real tiny zoo (mixed int4/int8 precisions,
//! expanding and non-expanding MBConv blocks, residual connections).
//!
//! The reference is the lowering without ReLU6 fusion
//! (`PassConfig::none()`): the fused pipeline (`PassConfig::all()`) must
//! produce logits whose f32 bit patterns match it exactly, so any
//! difference is a pass bug, not noise. The absolute bits of the fused
//! pipeline are pinned by `golden_outputs.rs`. The determinism CI leg
//! re-runs this test across the `EDD_NUM_THREADS` × `EDD_SIMD` matrix.

use edd_ir::{Op, PassConfig, PassReport};
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
fn fused_pipeline_matches_the_unfused_lowering() {
    let bare = compile_tiny_zoo(SEED, &PassConfig::none());
    let fused = compile_tiny_zoo(SEED, &PassConfig::all());
    let x = test_batch(bare[0].1.image_len());
    assert_eq!(fused.len(), bare.len());
    for ((name, want, _), (fused_name, got, _)) in bare.iter().zip(&fused) {
        assert_eq!(name, fused_name);
        assert_eq!(
            bits(&want.infer_batch(&x, BATCH).unwrap()),
            bits(&got.infer_batch(&x, BATCH).unwrap()),
            "ReLU6 fusion diverges from the unfused lowering on {name}"
        );
    }
}

#[test]
fn full_pipeline_optimizes_and_reports() {
    let ir = compile_tiny_zoo(SEED, &PassConfig::all());
    let bare = compile_tiny_zoo(SEED, &PassConfig::none());
    for ((name, opt, report), (_, raw, raw_report)) in ir.iter().zip(&bare) {
        // Stem, head and the expand/dw/project stages of the three blocks
        // fold in both configurations; all() also fuses the ReLU6 after
        // stem, head, expand and dw.
        let folded = PassReport {
            bn_folded: 11,
            relu6_fused: 0,
        };
        assert_eq!(*raw_report, folded, "{name}");
        assert_eq!(
            *report,
            PassReport {
                relu6_fused: 8,
                ..folded
            },
            "{name}"
        );
        // Every folded BN belongs to one compiled conv.
        let convs = opt
            .graph()
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, Op::QConv(_) | Op::QDwConv(_)))
            .count();
        assert_eq!(convs, report.bn_folded, "{name}");
        // Fusion removes the eight standalone QRelu6 clamps and nothing
        // else; no configuration emits an unreachable node.
        assert_eq!(opt.graph().len(), 18, "{name}");
        assert_eq!(raw.graph().len(), 26, "{name}");
        let clamps = |m: &edd_ir::CompiledModel| {
            let g = m.graph();
            assert!(g.reachable().unwrap().iter().all(|&r| r), "{name}");
            g.nodes()
                .iter()
                .filter(|n| matches!(n.op, Op::QRelu6 { .. }))
                .count()
        };
        assert_eq!((clamps(opt), clamps(raw)), (0, 8), "{name}");
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
