//! Property tests for the integer quantized-inference layers: over random
//! convolution geometries, weight precisions (int8 and bit-packed int4)
//! and seeds, the compiled engine's dequantized output must land within
//! one requantization rounding step of the fake-quant f32 oracle evaluated
//! on the same quantization grids.

use edd_nn::{Conv2d, QConv2d, QConvSource, QConvSpec, ACT_QMAX};
use edd_tensor::qkernel::{dequantize_into, max_abs, qmax, quantize_i8_into, scale_for};
use edd_tensor::{Array, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Input whose values sit exactly on the int8 activation grid, so the
/// engine and the oracle see identical inputs.
fn on_grid_input(shape: &[usize], scale: f32, rng: &mut StdRng) -> Array {
    let n: usize = shape.iter().product();
    let v: Vec<f32> = (0..n)
        .map(|_| f32::from(rng.gen_range(-127i8..=127)) * scale)
        .collect();
    Array::from_vec(v, shape).unwrap()
}

/// `x` quantized onto the int8 activation grid of `scale`.
fn quantize(x: &Array, scale: f32) -> Vec<i8> {
    let mut q = vec![0i8; x.len()];
    quantize_i8_into(&mut q, x.data(), scale, ACT_QMAX);
    q
}

/// Int8 values dequantized at `scale`.
fn dequantize(q: &[i8], scale: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; q.len()];
    dequantize_into(&mut out, q, scale);
    out
}

/// Per-output-channel fake quantization of conv weights on exactly the
/// grid `QConvSpec::quantize` uses (`s_r = max_abs(row)/qmax`). Returns the
/// fake-quantized weights and the largest per-channel scale.
fn fake_quant_per_channel(w: &Array, bits: u32) -> (Array, f32) {
    let shape = w.shape().to_vec();
    let (out_c, cols) = (shape[0], shape[1] * shape[2] * shape[3]);
    let qm = qmax(bits) as f32;
    let mut vals = w.data().to_vec();
    let mut s_max = 0.0f32;
    for r in 0..out_c {
        let row = &mut vals[r * cols..(r + 1) * cols];
        let s = scale_for(max_abs(row), bits);
        s_max = s_max.max(s);
        for v in row.iter_mut() {
            *v = (*v / s).round().clamp(-qm, qm) * s;
        }
    }
    (Array::from_vec(vals, &shape).unwrap(), s_max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn qconv_matches_fake_quant_oracle_within_rounding(
        cin in 1usize..4,
        cout in 1usize..6,
        k in prop::sample::select(vec![1usize, 3]),
        bits in prop::sample::select(vec![4u32, 8]),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv2d::new(cin, cout, k, 1, k / 2, true, &mut rng);
        let in_scale = 0.02f32;
        let x = on_grid_input(&[2, cin, 7, 7], in_scale, &mut rng);

        // Oracle: f32 convolution of the engine's own dequantized input
        // with per-channel fake-quantized weights and the exact bias.
        let xq = quantize(&x, in_scale);
        let (w_hat, s_max) = fake_quant_per_channel(&conv.weight().value(), bits);
        let x_hat = Array::from_vec(dequantize(&xq, in_scale), x.shape()).unwrap();
        let oracle = Tensor::constant(x_hat)
            .conv2d(&Tensor::constant(w_hat), conv.bias(), 1, k / 2)
            .unwrap();
        let oracle = oracle.value_clone();

        let out_scale = scale_for(max_abs(oracle.data()), 8);
        let w = conv.weight().value();
        let bias = conv.bias().map(|b| b.value().data().to_vec());
        let spec = QConvSpec::quantize(
            &QConvSource {
                w: w.data(),
                out_channels: cout,
                in_channels: cin,
                kernel: k,
                stride: 1,
                padding: k / 2,
                bias: bias.as_deref(),
            },
            bits,
            in_scale,
            out_scale,
            false,
        );
        let mut y = vec![0i8; oracle.len()];
        QConv2d::from_spec(spec).forward_into(&xq, [2, cin, 7, 7], &mut y).unwrap();
        let got = dequantize(&y, out_scale);

        // One output rounding step, plus the bias-quantization error
        // (≤ half an accumulator step, s_in·s_w/2) and fixed-point slack.
        let bound = out_scale * 0.51 + 0.5 * in_scale * s_max + 1e-4;
        for (g, o) in got.iter().zip(oracle.data()) {
            prop_assert!(
                (g - o).abs() <= bound,
                "bits={}: got {}, oracle {}, step {}", bits, g, o, out_scale
            );
        }
    }

    #[test]
    fn qconv_output_shape_and_scale(
        cin in 1usize..4,
        cout in 1usize..6,
        stride in 1usize..3,
        bits in prop::sample::select(vec![2u32, 4, 6, 8]),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv2d::new(cin, cout, 3, stride, 1, false, &mut rng);
        let (in_scale, out_scale) = (0.03f32, 0.04f32);
        let spec = QConvSpec::quantize(
            &QConvSource {
                w: conv.weight().value().data(),
                out_channels: cout,
                in_channels: cin,
                kernel: 3,
                stride,
                padding: 1,
                bias: None,
            },
            bits,
            in_scale,
            out_scale,
            true,
        );
        // The output is on the spec's grid.
        prop_assert_eq!(spec.out_scale, out_scale);
        let q = QConv2d::from_spec(spec);
        let x = on_grid_input(&[1, cin, 9, 9], in_scale, &mut rng);
        let expect = (9 + 2 - 3) / stride + 1;
        // `forward_into` takes exactly `[1, cout, expect, expect]` outputs.
        let mut y = vec![0i8; cout * expect * expect];
        q.forward_into(&quantize(&x, in_scale), [1, cin, 9, 9], &mut y).unwrap();
        let mut longer = vec![0i8; y.len() + 1];
        prop_assert!(q.forward_into(&quantize(&x, in_scale), [1, cin, 9, 9], &mut longer).is_err());
        // Fused ReLU6 clamp holds in the integer domain.
        for &v in &y {
            prop_assert!(v >= 0, "negative activation {} after fused relu6", v);
        }
    }
}
