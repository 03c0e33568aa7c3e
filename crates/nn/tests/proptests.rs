//! Property-based tests for the layer library: shape algebra, residual
//! invariants, normalization statistics, and quantization monotonicity
//! across randomly drawn layer configurations.

use edd_nn::{BatchNorm2d, Conv2d, DwConv2d, MbConv, Module, QuantSpec, QuantizableModule};
use edd_tensor::{Array, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv_output_shape_formula(
        cin in 1usize..5,
        cout in 1usize..5,
        k in prop::sample::select(vec![1usize, 3, 5]),
        stride in 1usize..3,
        hw in 8usize..17,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv2d::new(cin, cout, k, stride, k / 2, false, &mut rng);
        let x = Tensor::constant(Array::randn(&[2, cin, hw, hw], 1.0, &mut rng));
        let y = conv.forward(&x).unwrap();
        let expect = (hw + 2 * (k / 2) - k) / stride + 1;
        prop_assert_eq!(y.shape(), vec![2, cout, expect, expect]);
    }

    #[test]
    fn dwconv_preserves_channel_count(
        c in 1usize..6,
        k in prop::sample::select(vec![3usize, 5, 7]),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dw = DwConv2d::same(c, k, 1, &mut rng);
        let x = Tensor::constant(Array::randn(&[1, c, 12, 12], 1.0, &mut rng));
        let y = dw.forward(&x).unwrap();
        prop_assert_eq!(y.shape(), vec![1, c, 12, 12]);
    }

    #[test]
    fn mbconv_residual_rule(
        cin in 2usize..6,
        cout in 2usize..6,
        stride in 1usize..3,
        e in prop::sample::select(vec![1usize, 4, 6]),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mb = MbConv::new(cin, cout, 3, e, stride, &mut rng);
        // Residual iff stride 1 and channels match — the MobileNetV2 rule.
        prop_assert_eq!(mb.has_residual(), stride == 1 && cin == cout);
        let x = Tensor::constant(Array::randn(&[1, cin, 8, 8], 1.0, &mut rng));
        let y = mb.forward(&x).unwrap();
        let s = 8usize.div_ceil(stride);
        prop_assert_eq!(y.shape(), vec![1, cout, s, s]);
    }

    #[test]
    fn mbconv_param_count_monotone_in_expansion(
        cin in 2usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m4 = MbConv::new(cin, cin, 3, 4, 1, &mut rng);
        let m6 = MbConv::new(cin, cin, 3, 6, 1, &mut rng);
        prop_assert!(m6.num_parameters() > m4.num_parameters());
    }

    #[test]
    fn quantization_error_monotone_in_bits(
        seed in 0u64..500,
    ) {
        // Output distance to the full-precision forward shrinks as bits
        // grow, for the same weights and input.
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv2d::same(3, 4, 3, 1, &mut rng);
        let x = Tensor::constant(Array::randn(&[1, 3, 8, 8], 1.0, &mut rng));
        let full = conv.forward(&x).unwrap();
        let dist = |bits: u32| -> f32 {
            let q = conv
                .forward_quantized(&x, Some(QuantSpec::bits(bits)))
                .unwrap();
            let qv = q.value_clone();
            full.value()
                .data()
                .iter()
                .zip(qv.data())
                .map(|(a, b)| (a - b).abs())
                .sum()
        };
        let d3 = dist(3);
        let d6 = dist(6);
        let d12 = dist(12);
        prop_assert!(d12 <= d6 + 1e-4, "12-bit {d12} vs 6-bit {d6}");
        prop_assert!(d6 <= d3 + 1e-4, "6-bit {d6} vs 3-bit {d3}");
    }

    #[test]
    fn batchnorm_output_statistics(
        c in 1usize..4,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bn = BatchNorm2d::new(c);
        let x = Tensor::constant(
            Array::randn(&[6, c, 5, 5], 2.0, &mut rng).map(|v| v + 3.0),
        );
        let y = bn.forward(&x).unwrap();
        let v = y.value_clone();
        let mean = v.data().iter().sum::<f32>() / v.len() as f32;
        prop_assert!(mean.abs() < 0.1, "normalized mean {mean}");
    }

    #[test]
    fn all_parameters_receive_gradients(
        e in prop::sample::select(vec![1usize, 4]),
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mb = MbConv::new(3, 3, 3, e, 1, &mut rng);
        let x = Tensor::constant(Array::randn(&[2, 3, 6, 6], 1.0, &mut rng));
        let y = mb.forward(&x).unwrap();
        y.square().sum().backward();
        for (i, p) in mb.parameters().iter().enumerate() {
            prop_assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }
}
