//! Whole-sweep bitwise determinism: a multi-target sweep must produce
//! byte-identical per-target derived architectures, Pareto fronts, and
//! epoch histories (a) for any logical thread count — the parallel
//! per-target arch phase fans out over the worker pool — and (b) across a
//! kill/resume boundary through a `sweep-*.edds` snapshot. The bytes are
//! also pinned to a golden hash: the sweep's arch steps run with batch
//! norm frozen, so this is the float stack's pin for eval-mode batch norm
//! forward and backward (`golden_search.rs` pins a single-target search).
//!
//! Single `#[test]` because it mutates the global thread-count override.

use edd_core::{CoSearchConfig, DeviceTarget, SearchSpace, SweepSearch};
use edd_data::{SynthConfig, SynthDataset};
use edd_hw::{FpgaDevice, GpuDevice};
use edd_nn::Batch;
use edd_tensor::kernel::set_num_threads;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sweep_setup() -> (SweepSearch, Vec<Batch>, Vec<Batch>, StdRng) {
    let mut rng = StdRng::seed_from_u64(2024);
    // Quant menu = intersection of the GPU ({8,16,32}) and FPGA ({4,8,16})
    // menus, exactly what `edd sweep` computes for this target list.
    let space = SearchSpace::tiny(3, 16, 4, vec![8, 16]);
    let targets = vec![
        DeviceTarget::Gpu(GpuDevice::titan_rtx()),
        DeviceTarget::FpgaRecursive(FpgaDevice::zcu102()),
        DeviceTarget::FpgaPipelined(FpgaDevice::zc706()),
    ];
    let config = CoSearchConfig {
        epochs: 3,
        warmup_epochs: 1,
        ..CoSearchConfig::default()
    };
    let sweep = SweepSearch::new(space, targets, config, &mut rng).unwrap();
    let data = SynthDataset::new(SynthConfig::tiny());
    let train = data.split(3, 8, 1);
    let val = data.split(2, 8, 2);
    (sweep, train, val, rng)
}

/// Runs the full 3-target sweep and flattens everything comparable into
/// byte strings: per-target derived arch JSON, Pareto summary JSON, and
/// the flattened history CSV.
fn run_full() -> (Vec<String>, String, String) {
    let (mut sweep, train, val, mut rng) = sweep_setup();
    let out = sweep.run(&train, &val, &mut rng).unwrap();
    let archs = out
        .targets
        .iter()
        .map(|t| t.outcome.derived.to_json().unwrap())
        .collect();
    (archs, out.summary_json(), out.history_csv())
}

/// FNV-1a over every byte of one [`run_full`] result, in order: the
/// per-target derived JSON, then the summary JSON, then the history CSV.
fn fnv1a(result: &(Vec<String>, String, String)) -> u64 {
    let (archs, summary, history) = result;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in archs.iter().chain([summary, history]) {
        for b in s.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs 2 of 3 epochs with checkpointing ("crash"), then resumes a fresh
/// sweep from the snapshot directory with an unrelated RNG and finishes.
fn run_killed_and_resumed(dir: &std::path::Path) -> (Vec<String>, String, String) {
    let (mut part, train, val, mut rng) = sweep_setup();
    part.checkpoint_into(dir).checkpoint_keep(1);
    part.run_until(&train, &val, &mut rng, 2).unwrap();

    let (mut resumed, train2, val2, _) = sweep_setup();
    let mut other_rng = StdRng::seed_from_u64(555); // replaced by the snapshot
    resumed.resume_from(dir).unwrap();
    let out = resumed.run(&train2, &val2, &mut other_rng).unwrap();
    let archs = out
        .targets
        .iter()
        .map(|t| t.outcome.derived.to_json().unwrap())
        .collect();
    (archs, out.summary_json(), out.history_csv())
}

#[test]
fn sweep_is_bitwise_identical_across_pool_sizes_and_resume() {
    // Largest pool first so workers exist (and the arch phase really runs
    // its per-target tasks concurrently) before the serial count runs.
    set_num_threads(4);
    let four = run_full();
    let four_again = run_full();
    assert_eq!(four, four_again, "same pool, two runs differ");
    assert_eq!(
        fnv1a(&four),
        11_066_333_873_763_897_413,
        "sweep result bytes drifted from the pinned golden hash"
    );

    set_num_threads(1);
    let one = run_full();
    assert_eq!(
        four, one,
        "sweep results differ between 4 worker threads and 1"
    );

    // Kill/resume at the epoch-2 boundary, once per thread count; both
    // must land byte-identically on the uninterrupted result.
    let dir = std::env::temp_dir().join(format!("edd-sweep-det-{}", std::process::id()));
    for threads in [4, 1] {
        set_num_threads(threads);
        let _ = std::fs::remove_dir_all(&dir);
        let resumed = run_killed_and_resumed(&dir);
        assert_eq!(
            four, resumed,
            "kill/resume with {threads} thread(s) diverges from the uninterrupted sweep"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
