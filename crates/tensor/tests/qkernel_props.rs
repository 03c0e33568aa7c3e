//! Property tests for the integer kernel substrate: bitwise-exact GEMM
//! partitioning across explicit thread counts, int4 pack/unpack
//! round-trips, and the fixed-point requantizer against its real-valued
//! reference — over randomly drawn shapes, values and scales.

use edd_tensor::kernel::pack::{pack_lhs_i8, pack_rhs_i8, packed_lhs_len, packed_rhs_len};
use edd_tensor::qkernel::{pack_i4, qmatmul_prepacked_into_threads, unpack_i4_into, Requant};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn qdata(len: usize, seed: u64) -> Vec<i8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| rng.gen_range(-127i32..=127) as i8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qmatmul_partitioning_is_bitwise_exact(
        m in 1usize..24,
        k in 1usize..32,
        n in 1usize..24,
        threads in 2usize..6,
        seed in 0u64..1000,
    ) {
        let a = qdata(m * k, seed);
        let b = qdata(k * n, seed ^ 0xBEEF);
        let mut a_packed = vec![0i8; packed_lhs_len(m, k)];
        pack_lhs_i8(&mut a_packed, &a, m, k);
        let mut b_panels = vec![0i8; packed_rhs_len(k, n)];
        pack_rhs_i8(&mut b_panels, &b, k, n);
        let run = |t: usize| {
            let mut out = vec![0i32; m * n];
            qmatmul_prepacked_into_threads(&mut out, &a_packed, &b_panels, m, k, n, t);
            out
        };
        prop_assert_eq!(run(1), run(threads));
    }

    #[test]
    fn int4_pack_unpack_round_trips(
        vals in prop::collection::vec(-7i8..=7, 1..64),
    ) {
        let packed = pack_i4(&vals);
        prop_assert_eq!(packed.len(), vals.len().div_ceil(2));
        let mut back = vec![0i8; vals.len()];
        unpack_i4_into(&mut back, &packed);
        prop_assert_eq!(back, vals);
    }

    #[test]
    fn requant_tracks_real_valued_reference(
        scale in 1e-6f64..2.0,
        acc in -1_000_000i32..1_000_000,
    ) {
        let rq = Requant::from_scale(scale);
        let got = rq.apply(acc);
        let want = (f64::from(acc) * scale).round();
        // The q31 multiplier quantizes the scale itself, so allow one ulp
        // of the output grid on top of the rounding tie.
        prop_assert!(
            (f64::from(got) - want).abs() <= 1.0,
            "acc {} * scale {} -> {} (reference {})", acc, scale, got, want
        );
    }
}
