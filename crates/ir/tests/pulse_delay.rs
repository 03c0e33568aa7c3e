//! Property tests for the pulsed executor's delay computation: for random
//! conv/dwconv stacks (depth, kernels, strides, paddings, channel widths
//! all varied), the statically computed [`PulsedProgram::delay`] must
//! equal the index of the first pushed input row at which the pulsed
//! execution actually emits an output row — and every emitted row must be
//! bitwise identical to the batch oracle (the same quantized layers run
//! on the full window at once).
//!
//! The oracle runs each layer at its spec's padding (`forward_into`); the
//! pulsed path runs the same specs' layers on padded strips
//! (`forward_strip_into`). Both reach one layer body, so any disagreement
//! is a scheduling bug (delay math, ring trim, padding replay), not
//! arithmetic noise.

use edd_ir::{Graph, GraphMeta, Node, Op, PulsedProgram, PulsedState, Row};
use edd_nn::{QConv2d, QConvSource, QConvSpec, QDwConv2d, QDwConvSource, QDwConvSpec, ACT_QMAX};
use edd_tensor::qkernel::quantize_i8_into;
use proptest::prelude::*;

const SCALE: f32 = 0.05;

/// Deterministic xorshift float stream so layer weights are a pure
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

/// One randomly drawn layer of the stack, already shape-checked.
enum Layer {
    Std(QConvSpec),
    Dw(QDwConvSpec),
}

impl Layer {
    fn op(&self) -> Op {
        match self {
            Layer::Std(s) => Op::QConv(Box::new(s.clone())),
            Layer::Dw(s) => Op::QDwConv(Box::new(s.clone())),
        }
    }
}

/// Draws a `depth`-layer conv/dwconv stack from the xorshift stream,
/// keeping every intermediate height/width ≥ 1. Returns the layers plus
/// the final spatial size.
fn draw_stack(depth: usize, c0: usize, h0: usize, w0: usize, seed: u64) -> Vec<Layer> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut c, mut h, mut w) = (c0, h0, w0);
    let mut layers = Vec::with_capacity(depth);
    for i in 0..depth {
        let depthwise = next() % 2 == 0;
        let kernel = if depthwise {
            [3usize, 5][(next() % 2) as usize]
        } else {
            [1usize, 3, 5][(next() % 3) as usize]
        };
        let mut stride = 1 + (next() % 2) as usize;
        let mut padding = if next() % 2 == 0 { kernel / 2 } else { 0 };
        // Keep every intermediate ≥ 4×4 — the quantized im2col kernels do
        // not support near-degenerate planes. With odd kernels, the
        // `same`-padding stride-1 fallback preserves the spatial size, so
        // it always fits.
        let fits = h + 2 * padding >= kernel
            && w + 2 * padding >= kernel
            && (h + 2 * padding - kernel) / stride + 1 >= 4
            && (w + 2 * padding - kernel) / stride + 1 >= 4;
        if !fits {
            stride = 1;
            padding = kernel / 2;
        }
        let layer = if depthwise {
            Layer::Dw(QDwConvSpec::quantize(
                &QDwConvSource {
                    w: &weights(seed ^ (i as u64) << 3, c * kernel * kernel),
                    channels: c,
                    kernel,
                    stride,
                    padding,
                    bias: None,
                },
                8,
                SCALE,
                SCALE,
                false,
            ))
        } else {
            let c_out = 2 + (next() % 2) as usize;
            let spec = QConvSpec::quantize(
                &QConvSource {
                    w: &weights(seed ^ (i as u64) << 7, c_out * c * kernel * kernel),
                    out_channels: c_out,
                    in_channels: c,
                    kernel,
                    stride,
                    padding,
                    bias: None,
                },
                8,
                SCALE,
                SCALE,
                false,
            );
            c = c_out;
            Layer::Std(spec)
        };
        h = (h + 2 * padding - kernel) / stride + 1;
        w = (w + 2 * padding - kernel) / stride + 1;
        layers.push(layer);
    }
    layers
}

/// Builds the lowered graph `input → quantize → stack…` with the stack's
/// last conv as the output node.
fn build_graph(layers: &[Layer], c0: usize, h0: usize, w0: usize) -> Graph {
    let mut g = Graph::new(GraphMeta {
        name: "pulse-delay-prop".into(),
        input_shape: [c0, h0, w0],
        num_classes: 1,
    });
    let add = |g: &mut Graph, name: String, op: Op, inputs: Vec<usize>| {
        g.add(Node {
            name,
            op,
            inputs,
            scale: None,
            bits: None,
        })
        .unwrap()
    };
    let input = add(&mut g, "input".into(), Op::Input, vec![]);
    let mut prev = add(
        &mut g,
        "quantize".into(),
        Op::Quantize { scale: SCALE },
        vec![input],
    );
    for (i, layer) in layers.iter().enumerate() {
        prev = add(&mut g, format!("conv{i}"), layer.op(), vec![prev]);
    }
    g.set_output(prev).unwrap();
    g
}

/// Runs the stack as the batch oracle on the full `[1, c0, h0, w0]`
/// window (the layers at their specs' padding), returning the final
/// quantized activation and its `[c, h, w]`.
fn batch_oracle(layers: &[Layer], x: &[f32], [c0, h0, w0]: [usize; 3]) -> (Vec<i8>, [usize; 3]) {
    let mut h = vec![0i8; x.len()];
    quantize_i8_into(&mut h, x, SCALE, ACT_QMAX);
    let mut shape = [c0, h0, w0];
    for layer in layers {
        let [c, ih, iw] = shape;
        let (c_out, k, s, p) = match layer {
            Layer::Std(s) => (s.out_channels, s.kernel, s.stride, s.padding),
            Layer::Dw(s) => (c, s.kernel, s.stride, s.padding),
        };
        shape = [c_out, (ih + 2 * p - k) / s + 1, (iw + 2 * p - k) / s + 1];
        let mut y = vec![0i8; shape.iter().product()];
        match layer {
            Layer::Std(s) => QConv2d::from_spec(s.clone()).forward_into(&h, [1, c, ih, iw], &mut y),
            Layer::Dw(s) => {
                QDwConv2d::from_spec(s.clone()).forward_into(&h, [1, c, ih, iw], &mut y)
            }
        }
        .unwrap();
        h = y;
    }
    (h, shape)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn computed_delay_matches_first_pulsed_emission(
        depth in 1usize..=3,
        h0 in 6usize..=12,
        w0 in 5usize..=9,
        seed in 0u64..1_000_000,
    ) {
        let c0 = 2;
        let layers = draw_stack(depth, c0, h0, w0, seed);
        let g = build_graph(&layers, c0, h0, w0);
        let program = PulsedProgram::from_graph(&g).unwrap();
        let delay = program.delay();
        prop_assert!(delay < h0, "delay {delay} beyond the {h0}-row window");

        // Push the window row by row, recording which input row produced
        // which output rows.
        let signal = weights(seed ^ 0xFACE, c0 * h0 * w0);
        let mut state = PulsedState::new(&program);
        let mut emitted: Vec<Vec<i8>> = Vec::new();
        let mut first_emission: Option<usize> = None;
        for r in 0..h0 {
            let mut row = Vec::with_capacity(c0 * w0);
            for ch in 0..c0 {
                row.extend_from_slice(&signal[(ch * h0 + r) * w0..(ch * h0 + r) * w0 + w0]);
            }
            let outs = state.push_row(&program, &row).unwrap();
            if !outs.is_empty() && first_emission.is_none() {
                first_emission = Some(r);
            }
            for out in outs {
                match out {
                    Row::Q(v) => emitted.push(v),
                    Row::F(_) => prop_assert!(false, "conv stack emitted a float row"),
                }
            }
        }

        // The computed delay is exactly the first row that produced output.
        prop_assert_eq!(
            first_emission,
            Some(delay),
            "first pulsed emission disagrees with PulsedProgram::delay"
        );

        // And the emitted rows reassemble the batch oracle bitwise.
        let (want, [c_out, out_h, out_w]) = batch_oracle(&layers, &signal, [c0, h0, w0]);
        prop_assert_eq!(emitted.len(), out_h, "pulsed row count vs batch output height");
        for (r, row) in emitted.iter().enumerate() {
            prop_assert_eq!(row.len(), c_out * out_w);
            for ch in 0..c_out {
                let batch = &want[(ch * out_h + r) * out_w..(ch * out_h + r) * out_w + out_w];
                prop_assert_eq!(
                    &row[ch * out_w..(ch + 1) * out_w],
                    batch,
                    "output row {} channel {} diverges from the batch oracle", r, ch
                );
            }
        }
    }
}
