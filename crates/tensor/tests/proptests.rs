//! Property-based tests for the autodiff engine: algebraic identities of
//! `Array`, gradient correctness of composite expressions, and invariants of
//! softmax / Gumbel-Softmax / Log-Sum-Exp.

use edd_tensor::gradcheck::check_gradients;
use edd_tensor::{gumbel_softmax, softmax_last_axis, Array, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a small non-empty shape (rank 1..=3, dims 1..=5).
fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=5, 1..=3)
}

/// Strategy: an array with the given element count, values in [-3, 3].
fn values(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutes(shape in small_shape(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&shape, 1.0, &mut rng);
        let b = Array::randn(&shape, 1.0, &mut rng);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab.data(), ba.data());
    }

    #[test]
    fn mul_distributes_over_add(n in 1usize..20, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&[n], 1.0, &mut rng);
        let b = Array::randn(&[n], 1.0, &mut rng);
        let c = Array::randn(&[n], 1.0, &mut rng);
        let lhs = a.mul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.mul(&b).unwrap().add(&a.mul(&c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn broadcast_matches_manual_expansion(rows in 1usize..5, cols in 1usize..5, seed in 0u64..1000) {
        // [rows, cols] + [cols] == row-by-row addition.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&[rows, cols], 1.0, &mut rng);
        let b = Array::randn(&[cols], 1.0, &mut rng);
        let c = a.add(&b).unwrap();
        for r in 0..rows {
            for j in 0..cols {
                let expect = a.data()[r * cols + j] + b.data()[j];
                prop_assert!((c.data()[r * cols + j] - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn matmul_associates_with_scalar(m in 1usize..4, k in 1usize..4, n in 1usize..4, s in -2.0f32..2.0, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&[m, k], 1.0, &mut rng);
        let b = Array::randn(&[k, n], 1.0, &mut rng);
        let lhs = a.map(|v| v * s).matmul(&b).unwrap();
        let rhs = a.matmul(&b).unwrap().map(|v| v * s);
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_involution(m in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&[m, n], 1.0, &mut rng);
        prop_assert_eq!(a.transpose2d().unwrap().transpose2d().unwrap(), a);
    }

    #[test]
    fn sum_axis_preserves_total(shape in prop::collection::vec(1usize..5, 2..4), axis_pick in 0usize..10, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let axis = axis_pick % shape.len();
        let a = Array::randn(&shape, 1.0, &mut rng);
        let s = a.sum_axis(axis).unwrap();
        prop_assert!((s.sum() - a.sum()).abs() < 1e-3);
    }

    #[test]
    fn softmax_is_distribution(cols in 1usize..8, vals in prop::collection::vec(-10.0f32..10.0, 8)) {
        let v: Vec<f32> = vals.into_iter().take(cols).collect();
        let n = v.len();
        let a = Array::from_vec(v, &[n]).unwrap();
        let s = softmax_last_axis(&a);
        prop_assert!((s.data().iter().sum::<f32>() - 1.0).abs() < 1e-5);
        prop_assert!(s.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn logsumexp_bounds(n in 1usize..8, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&[n], 3.0, &mut rng);
        let t = Tensor::constant(a.clone());
        let lse = t.logsumexp().item();
        let max = a.max();
        prop_assert!(lse >= max - 1e-4, "lse {} < max {}", lse, max);
        prop_assert!(lse <= max + (n as f32).ln() + 1e-4);
    }

    #[test]
    fn gumbel_hard_always_one_hot(m in 2usize..8, tau in 0.2f32..3.0, seed in 0u64..5000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = Tensor::param(Array::randn(&[m], 1.0, &mut rng));
        let y = gumbel_softmax(&logits, tau, true, &mut rng).unwrap();
        let v = y.value_clone();
        let ones = v.data().iter().filter(|&&x| (x - 1.0).abs() < 1e-5).count();
        prop_assert_eq!(ones, 1);
        prop_assert!((v.sum() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn gradcheck_random_composite(seed in 0u64..200) {
        // Random smooth composite expression of two parameters.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::param(Array::randn(&[2, 3], 0.5, &mut rng));
        let b = Tensor::param(Array::randn(&[3], 0.5, &mut rng));
        let (ar, br) = (a.clone(), b.clone());
        let report = check_gradients(
            &[a, b],
            move || {
                ar.add(&br)
                    .unwrap()
                    .tanh()
                    .mul(&ar)
                    .unwrap()
                    .exp()
                    .sum()
            },
            1e-2,
            1,
        );
        prop_assert!(report.max_rel_error < 3e-2, "report {:?}", report);
    }

    #[test]
    fn reduce_to_preserves_mass(rows in 1usize..5, cols in 1usize..5, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Array::randn(&[rows, cols], 1.0, &mut rng);
        let r = g.reduce_to(&[cols]).unwrap();
        prop_assert!((r.sum() - g.sum()).abs() < 1e-3);
    }

    #[test]
    fn fake_quantize_idempotent(bits in 2u32..9, seed in 0u64..1000) {
        // Quantizing an already-quantized tensor is a no-op.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::constant(Array::randn(&[16], 0.5, &mut rng));
        let q1 = x.fake_quantize(bits, 1.0);
        let q2 = q1.fake_quantize(bits, 1.0);
        for (a, b) in q1.value().data().iter().zip(q2.value().data()) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn values_strategy_sane(v in values(4)) {
        prop_assert!(v.iter().all(|x| x.abs() <= 3.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn conv_gradcheck_random_geometry(
        cin in 1usize..3,
        cout in 1usize..3,
        k in prop::sample::select(vec![1usize, 3]),
        stride in 1usize..3,
        seed in 0u64..60,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hw = 5usize;
        let x = Tensor::param(Array::randn(&[1, cin, hw, hw], 0.8, &mut rng));
        let w = Tensor::param(Array::randn(&[cout, cin, k, k], 0.5, &mut rng));
        let (xr, wr) = (x.clone(), w.clone());
        let report = check_gradients(
            &[x, w],
            move || xr.conv2d(&wr, None, stride, k / 2).unwrap().square().sum(),
            1e-2,
            3,
        );
        prop_assert!(report.max_rel_error < 5e-2, "{:?}", report);
    }

    #[test]
    fn dropout_free_ops_preserve_batch_independence(
        batch in 1usize..4,
        seed in 0u64..200,
    ) {
        // Convolution of a batch equals per-item convolution: no cross-batch
        // leakage.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Array::randn(&[batch, 2, 4, 4], 1.0, &mut rng);
        let w = Tensor::constant(Array::randn(&[3, 2, 3, 3], 0.5, &mut rng));
        let full = Tensor::constant(x.clone())
            .conv2d(&w, None, 1, 1)
            .unwrap()
            .value_clone();
        for bi in 0..batch {
            let item = Array::from_vec(
                x.data()[bi * 32..(bi + 1) * 32].to_vec(),
                &[1, 2, 4, 4],
            )
            .unwrap();
            let single = Tensor::constant(item)
                .conv2d(&w, None, 1, 1)
                .unwrap()
                .value_clone();
            let plane = single.len();
            for (a, b) in single
                .data()
                .iter()
                .zip(&full.data()[bi * plane..(bi + 1) * plane])
            {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn scratch_arena_buffers_never_overlap_and_stay_aligned(
        ops in prop::collection::vec((0usize..4, 1usize..600), 1..80),
    ) {
        // Random interleaving of alloc / alloc_zeroed / drop / full-drain +
        // reset against the thread-local arena: every live buffer must be
        // 32-byte aligned and pairwise disjoint, zeroed allocations must
        // actually be zero (the arena recycles dirty memory), and writes
        // through one handle must never show up in another.
        use edd_tensor::scratch;
        let mut live: Vec<(scratch::ScratchBuf, f32)> = Vec::new();
        let mut stamp = 1.0f32;
        for (op, len) in ops {
            match op {
                0 | 1 => {
                    let mut buf = if op == 0 {
                        scratch::alloc(len)
                    } else {
                        let b = scratch::alloc_zeroed(len);
                        prop_assert!(b.iter().all(|&v| v == 0.0), "alloc_zeroed dirty");
                        b
                    };
                    prop_assert_eq!(buf.len(), len);
                    prop_assert_eq!(buf.as_ptr() as usize % 32, 0, "misaligned");
                    let lo = buf.as_ptr() as usize;
                    let hi = lo + len * 4;
                    for (other, _) in &live {
                        let olo = other.as_ptr() as usize;
                        let ohi = olo + other.len() * 4;
                        prop_assert!(hi <= olo || ohi <= lo, "overlapping live buffers");
                    }
                    buf.fill(stamp);
                    live.push((buf, stamp));
                    stamp += 1.0;
                }
                2 => {
                    if !live.is_empty() {
                        live.swap_remove(len % live.len());
                    }
                }
                _ => {
                    live.clear();
                    scratch::reset();
                }
            }
            // Writes through one handle never leak into another.
            for (buf, expect) in &live {
                prop_assert!(buf.iter().all(|&v| v == *expect), "buffer clobbered");
            }
        }
        live.clear();
        scratch::reset();
    }
}
