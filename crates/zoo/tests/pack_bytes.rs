//! Exact work pins of the int8 engine: the bytes of RHS panels that each
//! body of `pack_rhs_i8` writes during one batch-1 forward of
//! `edd-tiny-int8`, and, for every tiny-zoo engine, the output rows each
//! requantizer path takes, the depthwise planes each body runs, and the
//! residual-add elements and quantized input values each body takes.
//!
//! A regression from an AVX2 body back to a scalar one keeps every output
//! bit, so no golden hash sees it, and its cost hides in timing noise.
//! These counts are exact, invariant under the thread count, and fixed by
//! the SIMD dispatch alone.
//!
//! *Pack bytes.* One forward packs 84 992 B per image: stem 7 168 (3×3
//! over 3 channels, `k = 27`), expand 12 288, project 61 440 and head
//! 4 096. Under AVX2 the scalar walk writes only the stem's partial 7th
//! K-group (256 columns × 4 B); every plane is a whole number of 32-column
//! blocks. Under `EDD_SIMD=scalar` the walk writes all of it.
//!
//! *Epilogue rows and depthwise planes.* A requantized row is one output
//! channel of one image: a conv's GEMM row, or a depthwise plane. Every
//! layer of the zoo is in the AVX2 requantizer's domain and every
//! depthwise plane is stride 1 with `out_w = 16`, so under AVX2 all rows
//! and planes take the vector bodies, and under `EDD_SIMD=scalar` all take
//! the scalar ones. `edd-tiny-int8` requantizes 608 rows per image: 368
//! conv output channels and 240 depthwise planes (80 + 96 + 64).
//!
//! *Residual adds and the input quantize.* Every residual add of the zoo
//! has tables whose sums fit an i32, and every add and the quantize run
//! whole groups of 8, so under AVX2 all of their elements take the vector
//! bodies and under `EDD_SIMD=scalar` all take the scalar loops.
//! Each engine adds 3 × 4 096 elements (three residual blocks of 16
//! channels × 16 × 16) and quantizes 768 input values (3 × 16 × 16) per
//! image.
//!
//! The counters are process-global, so this file is its own test binary
//! with a single test.

use edd_ir::PassConfig;
use edd_tensor::kernel::{set_num_threads, simd_label};
use edd_tensor::{stats, Array};
use edd_zoo::compile_tiny_zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Panel bytes one forward packs, over all eight convolutions.
const TOTAL: u64 = 84_992;
/// The stem's partial last K-group: 256 columns × 4 taps.
const STEM_PARTIAL_GROUP: u64 = 1_024;
/// Requantized rows, depthwise planes, residual-add elements and quantized
/// input values per batch-1 forward of each tiny-zoo engine.
const EPILOGUE: [(&str, u64, u64, u64, u64); 3] = [
    ("edd-tiny-quant-demo", 512, 192, 12_288, 768),
    ("edd-tiny-int8", 608, 240, 12_288, 768),
    ("edd-tiny-int4", 608, 240, 12_288, 768),
];

#[test]
fn tiny_forward_work_matches_pins() {
    let avx2 = simd_label() == "avx2";
    let x = Array::randn(&[1, 3, 16, 16], 1.0, &mut StdRng::seed_from_u64(2026));
    let want_pack = if avx2 {
        (TOTAL - STEM_PARTIAL_GROUP, STEM_PARTIAL_GROUP)
    } else {
        (0, TOTAL)
    };
    let zoo = compile_tiny_zoo(11, &PassConfig::all());
    // Largest pool first, so the workers exist when smaller counts run.
    for threads in [7, 2, 1] {
        set_num_threads(threads);
        for ((name, model, _), (pin_name, rows, planes, adds, quantized)) in
            zoo.iter().zip(EPILOGUE)
        {
            assert_eq!(name, pin_name);
            let before = stats::snapshot();
            model.forward(&x).expect("forward");
            let after = stats::snapshot();
            let d = |f: fn(&stats::KernelStats) -> u64| f(&after) - f(&before);
            let work = (
                d(|s| s.requant_rows_vector),
                d(|s| s.requant_rows_scalar),
                d(|s| s.dw_planes_vector),
                d(|s| s.dw_planes_scalar),
            );
            let want = if avx2 {
                (rows, 0, planes, 0)
            } else {
                (0, rows, 0, planes)
            };
            assert_eq!(
                work,
                want,
                "{name}: (vector, scalar) requantized rows and (vector, scalar) depthwise \
                 planes per forward at {threads} threads, EDD_SIMD={}",
                simd_label()
            );
            let elems = (
                d(|s| s.qadd_elems_vector),
                d(|s| s.qadd_elems_scalar),
                d(|s| s.quantize_elems_vector),
                d(|s| s.quantize_elems_scalar),
            );
            let want = if avx2 {
                (adds, 0, quantized, 0)
            } else {
                (0, adds, 0, quantized)
            };
            assert_eq!(
                elems,
                want,
                "{name}: (vector, scalar) residual-add elements and (vector, scalar) quantized \
                 values per forward at {threads} threads, EDD_SIMD={}",
                simd_label()
            );
            if name == "edd-tiny-int8" {
                let pack = (
                    d(|s| s.pack_rhs_vector_bytes),
                    d(|s| s.pack_rhs_scalar_bytes),
                );
                assert_eq!(
                    pack,
                    want_pack,
                    "(vector, scalar) pack bytes per forward at {threads} threads, EDD_SIMD={}",
                    simd_label()
                );
            }
        }
    }
}
