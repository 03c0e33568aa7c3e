//! Pinned golden outputs of the float training stack.
//!
//! `golden_outputs.rs` in `edd-zoo` pins the integer engine; this file pins
//! a small single-target `CoSearch` the same way. The determinism suites
//! compare paths of the current code against each other, so a kernel
//! change that moved every path alike would pass them all; these hashes
//! fix the absolute bits. The search's weight and arch steps run
//! train-mode batch norm, and its validation pass runs eval mode, so both
//! halves of the normalization are covered. A change meant to be bitwise
//! neutral must leave the hashes untouched; a deliberate numeric change
//! must update them in the same commit and say why.
//!
//! The sweep's pin (frozen-statistics arch steps, so eval-mode batch norm
//! forward and backward) lives in `sweep_determinism.rs`.

use edd_core::{ArchParams, CoSearch, CoSearchConfig, DerivedArch, DeviceTarget, SearchSpace};
use edd_data::{SynthConfig, SynthDataset};
use edd_hw::FpgaDevice;
use edd_nn::{evaluate, train_epoch, Module};
use edd_tensor::optim::Sgd;
use edd_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn cosearch_matches_pinned_hashes() {
    const WANT_RESULT: u64 = 8_355_967_261_304_116_322;
    const WANT_LOGITS: u64 = 11_655_557_932_424_608_277;

    let mut rng = StdRng::seed_from_u64(2026);
    let space = SearchSpace::tiny(3, 16, 4, vec![8, 16]);
    let config = CoSearchConfig {
        epochs: 3,
        warmup_epochs: 1,
        ..CoSearchConfig::default()
    };
    let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
    let mut search = CoSearch::new(space, target, config, &mut rng).expect("target valid");
    let data = SynthDataset::new(SynthConfig::tiny());
    let train = data.split(2, 8, 1);
    let val = data.split(1, 8, 2);
    let out = search.run(&train, &val, &mut rng).expect("search runs");
    let result = format!("{}\n{}", out.derived.to_json().unwrap(), out.history_csv());

    // The validation pass only feeds an accuracy into the history, so the
    // eval-mode logits behind it are pinned directly as well.
    search.supernet().set_training(false);
    let x = Tensor::constant(val[0].images.clone());
    let logits = search
        .supernet()
        .forward_argmax(&x, search.arch())
        .expect("argmax forward");
    let logit_bytes: Vec<u8> = logits
        .value()
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();

    assert_eq!(
        (fnv1a(result.bytes()), fnv1a(logit_bytes)),
        (WANT_RESULT, WANT_LOGITS),
        "CoSearch result bytes or eval-mode logits drifted from the pinned hashes"
    );
}

/// The paper's final step (§5): the derived network trained from scratch.
/// `build_model` of a seeded four-block tiny-space architecture (its
/// fourth block has stride 2) trains three epochs with SGD; every
/// parameter's bits, the eval-mode logits of one validation batch (which
/// read the batch norms' running statistics) and the eval loss are pinned.
/// It uses only `Module`, `train_epoch` and `evaluate`, so it pins the
/// training bits whatever type `build_model` returns.
#[test]
fn final_training_matches_pinned_hashes() {
    const WANT: (u64, u64, u32) = (
        7_533_566_349_637_577_293,
        10_684_356_413_818_370_215,
        1_065_680_926,
    );

    let mut rng = StdRng::seed_from_u64(2027);
    let space = SearchSpace::tiny(4, 16, 4, vec![4, 8, 16]);
    let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
    let params = ArchParams::init(&space, &target, &mut rng);
    let arch = DerivedArch::from_params(&space, &target, &params);
    let model = arch.build_model(&mut rng);
    let data = SynthDataset::new(SynthConfig::tiny());
    let train = data.split(2, 8, 1);
    let val = data.split(1, 8, 2);
    let mut opt = Sgd::new(model.parameters(), 0.05, 0.9, 1e-4);
    for _ in 0..3 {
        train_epoch(&model, &mut opt, &train).expect("training");
    }
    let eval = evaluate(&model, &val).expect("evaluation");
    let logits = model
        .forward(&Tensor::constant(val[0].images.clone()))
        .expect("eval-mode forward");

    let bits =
        |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect() };
    let param_bytes: Vec<u8> = model
        .parameters()
        .iter()
        .flat_map(|p| bits(p.value().data()))
        .collect();
    assert_eq!(
        (
            fnv1a(param_bytes),
            fnv1a(bits(logits.value().data())),
            eval.loss.to_bits()
        ),
        WANT,
        "final training's weights, eval-mode logits or eval loss drifted from the pins"
    );
}
