//! Bitwise determinism across pool sizes: the kernel layer guarantees that
//! every output element is accumulated through the same single
//! ascending-`k` chain (and every reduction through fixed-size chunks) no
//! matter how work is partitioned, so results under 1, 2 and 7 logical
//! threads must be identical to the last bit — forward values and
//! gradients alike — and so must two runs on the same pool.
//!
//! All scenarios live in one `#[test]` because they mutate the global
//! thread-count override; this file is its own test binary, so no other
//! suite races it.

use edd_tensor::kernel::set_num_threads;
use edd_tensor::{gumbel_softmax, Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Forward outputs and gradients of a workload touching every pooled code
/// path: conv, dwconv (k3/k5/k7, stride 1 and 2), matmul, batch norm
/// (train and eval mode), softmax cross-entropy, Gumbel-Softmax sampling,
/// the fused `add_n` combine, elementwise activations and the chunked
/// `sum` reduction.
fn run_workload() -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(77);
    let x = Tensor::param(Array::randn(&[4, 8, 12, 12], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[16, 8, 3, 3], 0.5, &mut rng));
    let dw = Tensor::param(Array::randn(&[16, 3, 3], 0.5, &mut rng));
    let a = Tensor::param(Array::randn(&[48, 96], 1.0, &mut rng));
    let b = Tensor::param(Array::randn(&[96, 64], 0.5, &mut rng));
    let gamma = Tensor::param(Array::ones(&[16]));
    let beta = Tensor::param(Array::zeros(&[16]));
    let logits = Tensor::param(Array::randn(&[6, 10], 1.0, &mut rng));

    let conv = x.conv2d(&w, None, 1, 1).unwrap();
    let bn = conv.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap();
    let act = bn.output.relu6();
    let dwc = act.dwconv2d(&dw, None, 2, 1).unwrap();
    let mm = a.matmul(&b).unwrap();
    // Mixture-style combine of three transformed views of the same branch.
    let mixed = Tensor::add_n(&[dwc.clone(), dwc.relu(), dwc.mul_scalar(0.5)]).unwrap();
    let gs = gumbel_softmax(&logits, 0.7, true, &mut rng).unwrap();
    let ce = logits.cross_entropy(&[0, 3, 1, 9, 5, 2]).unwrap();
    // The search's wide depthwise kernels on 16-wide planes: a k7 stride-1
    // stencil feeding a k5 stride-2 one.
    let xw = Tensor::param(Array::randn(&[3, 6, 16, 16], 1.0, &mut rng));
    let k7 = Tensor::param(Array::randn(&[6, 7, 7], 0.2, &mut rng));
    let k5 = Tensor::param(Array::randn(&[6, 5, 5], 0.2, &mut rng));
    let dw7 = xw.dwconv2d(&k7, None, 1, 3).unwrap();
    let dw5 = dw7.dwconv2d(&k5, None, 2, 2).unwrap();
    // Eval-mode batch norm + ReLU6 over fixed statistics (the search's
    // validation pass, the sweep's frozen-statistics arch steps), large
    // enough that its channels fan out over the pool.
    let xe = Tensor::param(Array::randn(&[8, 24, 16, 16], 2.0, &mut rng));
    let mean_e = Array::randn(&[24], 0.5, &mut rng);
    let var_e = Array::rand_uniform(&[24], 0.5, 2.0, &mut rng);
    let gamma_e = Tensor::param(Array::rand_uniform(&[24], -1.5, 1.5, &mut rng));
    let beta_e = Tensor::param(Array::full(&[24], 3.0));
    let bne = xe
        .batch_norm2d_relu6_eval(&gamma_e, &beta_e, &mean_e, &var_e, 1e-5)
        .unwrap();
    let loss = mixed
        .square()
        .sum()
        .add(&mm.square().sum())
        .unwrap()
        .add(&dw5.square().sum())
        .unwrap()
        .add(&bne.square().sum())
        .unwrap()
        .add(&gs.sum())
        .unwrap()
        .add(&ce)
        .unwrap();
    loss.backward();

    let bits = |arr: &Array| arr.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    vec![
        bits(&conv.value_clone()),
        bits(&bn.output.value_clone()),
        bits(&dwc.value_clone()),
        bits(&mm.value_clone()),
        bits(&mixed.value_clone()),
        bits(&gs.value_clone()),
        bits(&loss.value_clone()),
        bits(&x.grad().unwrap()),
        bits(&w.grad().unwrap()),
        bits(&dw.grad().unwrap()),
        bits(&a.grad().unwrap()),
        bits(&b.grad().unwrap()),
        bits(&gamma.grad().unwrap()),
        bits(&beta.grad().unwrap()),
        bits(&logits.grad().unwrap()),
        bits(&dw7.value_clone()),
        bits(&dw5.value_clone()),
        bits(&xw.grad().unwrap()),
        bits(&k7.grad().unwrap()),
        bits(&k5.grad().unwrap()),
        bits(&bne.value_clone()),
        bits(&xe.grad().unwrap()),
        bits(&gamma_e.grad().unwrap()),
        bits(&beta_e.grad().unwrap()),
    ]
}

const STAGES: [&str; 24] = [
    "conv2d forward",
    "batch-norm forward",
    "dwconv2d forward",
    "matmul forward",
    "add_n mixture forward",
    "gumbel-softmax sample",
    "total loss",
    "conv input grad",
    "conv weight grad",
    "dw weight grad",
    "matmul lhs grad",
    "matmul rhs grad",
    "bn gamma grad",
    "bn beta grad",
    "cross-entropy logits grad",
    "dwconv2d k7 s1 forward",
    "dwconv2d k5 s2 forward",
    "dwconv2d k7/k5 input grad",
    "dw k7 weight grad",
    "dw k5 weight grad",
    "eval batch-norm relu6 forward",
    "eval bn input grad",
    "eval bn gamma grad",
    "eval bn beta grad",
];

#[test]
fn pool_size_does_not_change_a_single_bit() {
    // Largest pool first so the workers actually exist (and execute tasks)
    // when the smaller logical counts run.
    set_num_threads(7);
    let seven = run_workload();
    let seven_again = run_workload();
    set_num_threads(2);
    let two = run_workload();
    set_num_threads(1);
    let one = run_workload();

    for ((s7, s7b), name) in seven.iter().zip(&seven_again).zip(STAGES) {
        assert_eq!(s7, s7b, "{name} differs between two runs on the same pool");
    }
    for ((s7, s2), name) in seven.iter().zip(&two).zip(STAGES) {
        assert_eq!(s7, s2, "{name} differs between 7 and 2 threads");
    }
    for ((s7, s1), name) in seven.iter().zip(&one).zip(STAGES) {
        assert_eq!(s7, s1, "{name} differs between 7 and 1 threads");
    }
}
