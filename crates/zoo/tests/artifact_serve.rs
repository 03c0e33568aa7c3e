//! End-to-end artifact deployment: a tiny zoo model compiled through the
//! IR pipeline, serialized to a `.eddm` artifact on disk, hot-loaded back,
//! and served through the dynamic-batching [`edd_runtime::Server`] — all
//! compared bitwise against the in-process [`CompiledModel`] the artifact
//! was written from, answering the same requests synchronously. This is
//! the CI determinism leg's compile → artifact → hot-load → serve
//! contract: 1-shard and 4-shard serving of the reloaded model must equal
//! the sync reference exactly, on every `EDD_NUM_THREADS` × `EDD_SIMD`
//! combo.

use edd_ir::{artifact, CompiledModel, PassConfig};
use edd_runtime::{BatchModel, BatcherConfig, ServeConfig, Server};
use edd_tensor::Array;
use edd_zoo::compile_tiny_zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 11;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("edd-zoo-artifact-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

fn request_images(n: usize, image_len: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..n)
        .map(|_| Array::randn(&[1, 3, 16, 16], 1.0, &mut rng).data().to_vec())
        .inspect(|img| assert_eq!(img.len(), image_len))
        .collect()
}

/// Pushes every request through a server with the given shard count and
/// returns each request's logits, in submission order.
fn serve_all(model: &Arc<CompiledModel>, images: &[Vec<f32>], shards: usize) -> Vec<Vec<f32>> {
    let server = Server::start(
        vec![(model.name().to_owned(), Arc::clone(model))],
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
fn hot_loaded_artifact_serves_bitwise_identical_to_in_process_model() {
    let dir = temp_dir("serve");
    for (name, compiled, _) in &compile_tiny_zoo(SEED, &PassConfig::all()) {
        // Compile → artifact on disk → hot-load.
        let path = dir.join(name).with_extension(artifact::ARTIFACT_EXT);
        artifact::save(&path, compiled.graph()).unwrap();
        let loaded = Arc::new(artifact::load(&path).unwrap());
        assert_eq!(loaded.name(), name);
        assert_eq!(loaded.image_len(), compiled.image_len());
        assert_eq!(loaded.num_classes(), compiled.num_classes());

        // Synchronous reference through the in-process engine.
        let images = request_images(24, compiled.image_len());
        let reference: Vec<Vec<f32>> = images
            .iter()
            .map(|img| compiled.infer_batch(img, 1).unwrap())
            .collect();

        // The hot-loaded artifact served with 1 and 4 shards matches the
        // in-process sync path bit for bit.
        for shards in [1usize, 4] {
            let served = serve_all(&loaded, &images, shards);
            for (i, (got, want)) in served.iter().zip(&reference).enumerate() {
                assert_eq!(
                    bits(got),
                    bits(want),
                    "{name}: request {i} diverged through {shards}-shard server \
                     after artifact round-trip"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_roundtrip_preserves_graph_bytes_for_zoo_models() {
    for (name, compiled, _) in &compile_tiny_zoo(SEED, &PassConfig::all()) {
        let encoded = artifact::to_bytes(compiled.graph()).unwrap();
        let decoded = artifact::from_bytes(&encoded).unwrap();
        let re_encoded = artifact::to_bytes(&decoded).unwrap();
        assert_eq!(encoded, re_encoded, "{name}: artifact encoding not stable");
    }
}
