//! Property tests for the compiled-model artifact format: serialization
//! round-trips byte-identically for arbitrary lowered graphs, corrupt or
//! truncated files are rejected with a clean error (never a panic, never
//! silent acceptance), and a graph rebuilt from its artifact executes
//! bit-identically to the original.

use edd_ir::passes::{lower, PassConfig};
use edd_ir::{artifact, BatchNormOp, CompiledModel, ConvOp, Graph, GraphMeta, LinearOp, Node, Op};
use edd_runtime::BatchModel;
use proptest::prelude::*;

/// Deterministic xorshift float stream so graph weights are a pure
/// function of the seed.
fn weights(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / f64::from(1u32 << 21) - 16.0) as f32 * 0.04
        })
        .collect()
}

/// Builds a small annotated float graph — conv+bn+relu6 stem, a 1×1
/// residual branch, pool, classifier — then lowers it with the given
/// pass configuration. Covers every serializable op including int4
/// packed weights.
fn lowered_graph(c_mid: usize, kernel: usize, bits: u32, seed: u64, cfg: &PassConfig) -> Graph {
    let mut g = Graph::new(GraphMeta {
        name: format!("prop-{c_mid}-{kernel}-{bits}"),
        input_shape: [2, 6, 6],
        num_classes: 3,
    });
    let add = |g: &mut Graph, name: &str, op: Op, inputs: Vec<usize>, scale: f32, bits| {
        g.add(Node {
            name: name.into(),
            op,
            inputs,
            scale: Some(scale),
            bits,
        })
        .unwrap()
    };
    let pad = kernel / 2;
    let i = add(&mut g, "in", Op::Input, vec![], 0.05, None);
    let c1 = add(
        &mut g,
        "stem",
        Op::Conv2d(Box::new(ConvOp {
            w: weights(seed, c_mid * 2 * kernel * kernel),
            out_channels: c_mid,
            in_channels: 2,
            kernel,
            stride: 1,
            padding: pad,
            bias: None,
            relu6: false,
        })),
        vec![i],
        0.04,
        Some(bits),
    );
    let bn = add(
        &mut g,
        "stem.bn",
        Op::BatchNorm(Box::new(BatchNormOp {
            mul: weights(seed ^ 0xA5, c_mid)
                .iter()
                .map(|v| 1.0 + v.abs())
                .collect(),
            add: weights(seed ^ 0x5A, c_mid),
        })),
        vec![c1],
        0.04,
        None,
    );
    let r = add(&mut g, "stem.act", Op::Relu6, vec![bn], 0.04, None);
    let c2 = add(
        &mut g,
        "branch",
        Op::Conv2d(Box::new(ConvOp {
            w: weights(seed ^ 0xC3, c_mid * c_mid),
            out_channels: c_mid,
            in_channels: c_mid,
            kernel: 1,
            stride: 1,
            padding: 0,
            bias: Some(weights(seed ^ 0x3C, c_mid)),
            relu6: false,
        })),
        vec![r],
        0.04,
        Some(8),
    );
    let res = add(&mut g, "res", Op::Add, vec![c2, r], 0.05, None);
    let p = add(&mut g, "gap", Op::GlobalAvgPool, vec![res], 0.05, None);
    let fc = add(
        &mut g,
        "fc",
        Op::Linear(Box::new(LinearOp {
            w: weights(seed ^ 0xF0, c_mid * 3),
            in_features: c_mid,
            out_features: 3,
            bias: weights(seed ^ 0x0F, 3),
        })),
        vec![p],
        0.05,
        None,
    );
    g.set_output(fc).unwrap();
    lower(&g, cfg).unwrap().0
}

fn configs() -> Vec<PassConfig> {
    vec![PassConfig::none(), PassConfig::all()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn roundtrip_is_byte_identical(
        c_mid in 1usize..=4,
        kernel in prop::sample::select(vec![1usize, 3]),
        bits in prop::sample::select(vec![4u32, 8]),
        seed in 0u64..=u64::MAX,
        all_passes in 0u8..2,
    ) {
        let cfg = if all_passes == 1 { PassConfig::all() } else { PassConfig::none() };
        let g = lowered_graph(c_mid, kernel, bits, seed, &cfg);
        let bytes = artifact::to_bytes(&g).unwrap();
        let g2 = artifact::from_bytes(&bytes).unwrap();
        let bytes2 = artifact::to_bytes(&g2).unwrap();
        prop_assert_eq!(bytes, bytes2);
    }

    #[test]
    fn reloaded_model_is_bitwise_identical(
        c_mid in 1usize..=4,
        kernel in prop::sample::select(vec![1usize, 3]),
        bits in prop::sample::select(vec![4u32, 8]),
        seed in 0u64..=u64::MAX,
    ) {
        for cfg in configs() {
            let g = lowered_graph(c_mid, kernel, bits, seed, &cfg);
            let bytes = artifact::to_bytes(&g).unwrap();
            let direct = CompiledModel::from_graph(g).unwrap();
            let reloaded = CompiledModel::from_graph(artifact::from_bytes(&bytes).unwrap()).unwrap();
            let x: Vec<f32> = (0..2 * direct.image_len())
                .map(|i| ((i * 31 % 97) as f32 - 48.0) * 0.015)
                .collect();
            let a = direct.infer_batch(&x, 2).unwrap();
            let b = reloaded.infer_batch(&x, 2).unwrap();
            let a_bits: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a_bits, b_bits);
        }
    }

    #[test]
    fn flipped_bit_is_always_rejected(
        seed in 0u64..=u64::MAX,
        pos_seed in 0usize..=usize::MAX,
        bit in 0u8..8,
    ) {
        let g = lowered_graph(2, 3, 8, seed, &PassConfig::all());
        let mut bytes = artifact::to_bytes(&g).unwrap();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        // Every single-bit flip — header or payload — must surface as an
        // error from parsing, never a panic or a silently-wrong model.
        prop_assert!(artifact::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_is_always_rejected(
        seed in 0u64..=u64::MAX,
        cut_seed in 0usize..=usize::MAX,
    ) {
        let g = lowered_graph(2, 1, 4, seed, &PassConfig::all());
        let bytes = artifact::to_bytes(&g).unwrap();
        let keep = cut_seed % bytes.len(); // strictly shorter than full
        prop_assert!(artifact::from_bytes(&bytes[..keep]).is_err());
    }
}
