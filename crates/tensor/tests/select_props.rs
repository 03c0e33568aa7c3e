//! Property tests for the shape-specialized GEMM layer: every selector
//! class (vecmat / skinny-N / square / conv) driven through the public
//! matmul fronts against the scalar reference, and the prepacked int8
//! panel path against `qmatmul_naive` **bitwise** — integer arithmetic
//! makes that equality exact, while the f32 blueprints are held to the
//! same relative tolerance as the kernel oracle tests plus bitwise
//! invariance across thread counts.

use edd_tensor::kernel::pack::{pack_lhs_i8, pack_rhs_i8, packed_lhs_len, packed_rhs_len};
use edd_tensor::kernel::select::{classify, GemmClass};
use edd_tensor::kernel::{matmul_conv_into_threads, matmul_into_threads, matmul_naive};
use edd_tensor::qkernel::{qmatmul_naive, qmatmul_prepacked_into_threads};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_f32(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| rng.gen_range(-127i32..=127) as i8)
        .collect()
}

/// Elementwise agreement within the oracle suite's 1e-4 relative
/// tolerance (absolute near zero).
fn assert_close(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length mismatch", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let tol = 1e-4f32 * w.abs().max(1.0);
        prop_assert!(
            (g - w).abs() <= tol,
            "{}: element {} differs: got {}, want {} (tol {})",
            what,
            i,
            g,
            w,
            tol
        );
    }
    Ok(())
}

/// Runs one f32 shape through the selected front, checks the drawn shape
/// really lands in `class` (so threshold drift can't silently hollow out
/// the coverage), compares against `matmul_naive`, and pins bitwise
/// equality between the single-threaded and `threads`-way partitionings.
fn check_f32_class(
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    seed: u64,
    class: GemmClass,
) -> Result<(), TestCaseError> {
    let conv = class == GemmClass::Conv;
    prop_assert_eq!(classify(m, n, conv), class, "shape fell out of class");
    let mut rng = StdRng::seed_from_u64(seed);
    let a = rand_f32(m * k, &mut rng);
    let b = rand_f32(k * n, &mut rng);
    let run = |t: usize| {
        let mut out = vec![0.0f32; m * n];
        if conv {
            matmul_conv_into_threads(&mut out, &a, &b, m, k, n, t);
        } else {
            matmul_into_threads(&mut out, &a, &b, m, k, n, t);
        }
        out
    };
    let serial = run(1);
    assert_close(&serial, &matmul_naive(&a, &b, m, k, n), "vs naive")?;
    let parallel = run(threads);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    prop_assert_eq!(bits(&serial), bits(&parallel), "threads changed bits");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vecmat_blueprint_matches_naive(
        m in 1usize..4,      // m < MR = 4
        k in 0usize..48,
        n in 1usize..48,
        threads in 2usize..5,
        seed in 0u64..1000,
    ) {
        check_f32_class(m, k, n, threads, seed, GemmClass::VecMat)?;
    }

    #[test]
    fn skinny_n_blueprint_matches_naive(
        m in 4usize..28,
        k in 0usize..48,
        n in 1usize..8,      // n < NR = 8
        threads in 2usize..5,
        seed in 0u64..1000,
    ) {
        check_f32_class(m, k, n, threads, seed, GemmClass::SkinnyN)?;
    }

    #[test]
    fn square_blueprint_matches_naive(
        m in 4usize..28,
        k in 0usize..48,
        n in 8usize..40,
        threads in 2usize..5,
        seed in 0u64..1000,
    ) {
        check_f32_class(m, k, n, threads, seed, GemmClass::Square)?;
    }

    #[test]
    fn conv_blueprint_matches_naive(
        m in 1usize..28,
        k in 0usize..48,
        n in 1usize..40,
        threads in 2usize..5,
        seed in 0u64..1000,
    ) {
        check_f32_class(m, k, n, threads, seed, GemmClass::Conv)?;
    }

    /// The prepacked panel path (pack_lhs_i8 + pack_rhs_i8 feeding the
    /// maddubs kernel) equals `qmatmul_naive` on the unpadded operands
    /// bitwise, for any shape and thread count.
    #[test]
    fn qmatmul_prepacked_matches_naive_bitwise(
        m in 1usize..24,
        k in 0usize..40,
        n in 1usize..28,
        threads in 1usize..5,
        seed in 0u64..1000,
    ) {
        let a = rand_i8(m * k, seed);
        let b = rand_i8(k * n, seed ^ 0xF00D);
        let mut a_packed = vec![0i8; packed_lhs_len(m, k)];
        pack_lhs_i8(&mut a_packed, &a, m, k);
        let mut b_panels = vec![0i8; packed_rhs_len(k, n)];
        pack_rhs_i8(&mut b_panels, &b, k, n);
        let mut got = vec![0i32; m * n];
        qmatmul_prepacked_into_threads(&mut got, &a_packed, &b_panels, m, k, n, threads);
        prop_assert_eq!(got, qmatmul_naive(&a, &b, m, k, n));
    }
}
