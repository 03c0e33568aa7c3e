//! Exact work pin of the int8 engine's activation pack: the bytes of RHS
//! panels that each body of `pack_rhs_i8` writes during one batch-1
//! forward of `edd-tiny-int8`.
//!
//! A regression from the AVX2 transpose back to the scalar walk keeps every
//! output bit, so no golden hash sees it, and its cost hides in timing
//! noise. These counts are exact, invariant under the thread count, and
//! fixed by the dispatch mode alone:
//!
//! * `EDD_GEMM=auto` packs 84 992 B per image: stem 7 168 (3×3 over 3
//!   channels, `k = 27`), expand 12 288, project 61 440 and head 4 096.
//!   Under AVX2 the scalar walk writes only the stem's partial 7th K-group
//!   (256 columns × 4 B); every plane is a whole number of 32-column
//!   blocks. Under `EDD_SIMD=scalar` the walk writes all of it.
//! * `EDD_GEMM=generic` runs the generic GEMM, which packs nothing.
//!
//! The counters are process-global, so this file is its own test binary
//! with a single test.

use edd_ir::PassConfig;
use edd_tensor::kernel::select::{gemm_mode, GemmMode};
use edd_tensor::kernel::{set_num_threads, simd_label};
use edd_tensor::{stats, Array};
use edd_zoo::compile_tiny_zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Panel bytes one auto-mode forward packs, over all eight convolutions.
const TOTAL: u64 = 84_992;
/// The stem's partial last K-group: 256 columns × 4 taps.
const STEM_PARTIAL_GROUP: u64 = 1_024;

#[test]
fn tiny_int8_forward_packs_pinned_bytes() {
    let (name, model, _) = compile_tiny_zoo(11, &PassConfig::all()).remove(1);
    assert_eq!(name, "edd-tiny-int8");
    let x = Array::randn(&[1, 3, 16, 16], 1.0, &mut StdRng::seed_from_u64(2026));
    let want = match (gemm_mode(), simd_label()) {
        (GemmMode::Generic, _) => (0, 0),
        (GemmMode::Auto, "avx2") => (TOTAL - STEM_PARTIAL_GROUP, STEM_PARTIAL_GROUP),
        (GemmMode::Auto, _) => (0, TOTAL),
    };
    // Largest pool first, so the workers exist when smaller counts run.
    for threads in [7, 2, 1] {
        set_num_threads(threads);
        let before = stats::snapshot();
        model.forward(&x).expect("forward");
        let after = stats::snapshot();
        let got = (
            after.pack_rhs_vector_bytes - before.pack_rhs_vector_bytes,
            after.pack_rhs_scalar_bytes - before.pack_rhs_scalar_bytes,
        );
        assert_eq!(
            got,
            want,
            "(vector, scalar) pack bytes per forward at {threads} threads, \
             EDD_SIMD={} EDD_GEMM={:?}",
            simd_label(),
            gemm_mode()
        );
    }
}
