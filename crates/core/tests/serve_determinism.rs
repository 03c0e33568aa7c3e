//! Serving-path bitwise determinism: the same requests answered through
//! the dynamic-batching [`edd_runtime::Server`] must be bit-identical to
//! the model's own batch-1 [`BatchModel::infer_batch`], regardless of how
//! many worker shards the server runs or how requests get coalesced into
//! batches. This holds because the compiled integer engine accumulates in
//! `i32` per image — batch composition cannot perturb any output — and it
//! is what lets CI run the serve leg across the
//! `EDD_NUM_THREADS` × `EDD_SIMD` × shard-count matrix.

use edd_core::{
    calibrate, lower_to_graph, ArchParams, DerivedArch, DeviceTarget, QatModel, SearchSpace,
};
use edd_hw::FpgaDevice;
use edd_ir::{CompiledModel, PassConfig};
use edd_runtime::{BatchModel, BatcherConfig, ServeConfig, Server};
use edd_tensor::Array;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn compiled_tiny(seed: u64) -> CompiledModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
    let target = DeviceTarget::FpgaPipelined(FpgaDevice::zc706());
    let arch_params = ArchParams::init(&space, &target, &mut rng);
    let arch = DerivedArch::from_params(&space, &target, &arch_params);
    let model = QatModel::new(&arch, &mut rng);
    let batches: Vec<Array> = (0..2)
        .map(|_| Array::randn(&[2, 3, 16, 16], 1.0, &mut rng))
        .collect();
    let calib = calibrate(&model, &batches).unwrap();
    let graph = lower_to_graph(&model, &arch, &calib).unwrap();
    edd_ir::compile(&graph, &PassConfig::all()).unwrap().0
}

fn request_images(n: usize, image_len: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..n)
        .map(|_| Array::randn(&[1, 3, 16, 16], 1.0, &mut rng).data().to_vec())
        .inspect(|img| assert_eq!(img.len(), image_len))
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Pushes every request through a server with the given shard count and
/// returns each request's logits, in submission order.
fn serve_all(model: &Arc<CompiledModel>, images: &[Vec<f32>], shards: usize) -> Vec<Vec<f32>> {
    let server = Server::start(
        vec![("tiny".to_owned(), Arc::clone(model))],
        ServeConfig {
            batcher: BatcherConfig {
                max_batch: 8,
                max_delay_us: 200,
                queue_depth: images.len() + 1,
            },
            shards,
        },
    );
    let tickets: Vec<_> = images
        .iter()
        .map(|img| server.submit(0, img.clone()).expect("queue sized for all"))
        .collect();
    let out: Vec<Vec<f32>> = tickets
        .into_iter()
        .map(|t| t.wait().expect("model never errors"))
        .collect();
    let stats = server.shutdown();
    assert_eq!(stats[0].completed, images.len() as u64);
    assert_eq!(stats[0].failed, 0);
    out
}

#[test]
fn sharded_serving_is_bitwise_identical_to_sync_inference() {
    let model = Arc::new(compiled_tiny(61));
    let image_len = model.image_len();
    let classes = model.num_classes();
    let images = request_images(48, image_len);

    // Synchronous reference: one request at a time through the engine.
    let reference: Vec<Vec<f32>> = images
        .iter()
        .map(|img| model.infer_batch(img, 1).unwrap())
        .collect();
    for logits in &reference {
        assert_eq!(logits.len(), classes);
    }

    // The same reference inputs batched at width 8: per-image outputs must
    // not depend on batch composition (integer accumulation is exact).
    for (chunk_idx, chunk) in images.chunks(8).enumerate() {
        let flat: Vec<f32> = chunk.concat();
        let batched = model.infer_batch(&flat, chunk.len()).unwrap();
        for (i, logits) in batched.chunks(classes).enumerate() {
            assert_eq!(
                bits(logits),
                bits(&reference[chunk_idx * 8 + i]),
                "batched output diverged from single-image output"
            );
        }
    }

    // 1-shard and 4-shard servers both match the sync path bit for bit.
    for shards in [1usize, 4] {
        let served = serve_all(&model, &images, shards);
        for (i, (got, want)) in served.iter().zip(&reference).enumerate() {
            assert_eq!(
                bits(got),
                bits(want),
                "request {i} diverged through {shards}-shard server"
            );
        }
    }
}

#[test]
fn repeated_serving_runs_are_bitwise_stable() {
    let model = Arc::new(compiled_tiny(61));
    let images = request_images(24, model.image_len());
    let a = serve_all(&model, &images, 2);
    let b = serve_all(&model, &images, 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(bits(x), bits(y));
    }
}
