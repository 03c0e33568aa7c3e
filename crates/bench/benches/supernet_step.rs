//! Criterion benchmarks of the co-search inner loops: the single-path
//! sampled supernet forward/backward (the weight step) and the
//! differentiable performance estimate (the implementation side of the
//! architecture step). Demonstrates the paper's efficiency claim for hard
//! Gumbel-Softmax sampling: cost is one path, not `M` paths.

use criterion::{criterion_group, Criterion};
use edd_core::{estimate, ArchParams, DeviceTarget, PerfTables, SearchSpace, SuperNet};
use edd_hw::FpgaDevice;
use edd_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn setup() -> (SearchSpace, SuperNet, ArchParams, PerfTables, DeviceTarget) {
    let mut rng = StdRng::seed_from_u64(10);
    let space = SearchSpace::tiny(4, 16, 8, vec![4, 8, 16]);
    let target = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
    let net = SuperNet::new(&space, &mut rng);
    let arch = ArchParams::init(&space, &target, &mut rng);
    let tables = PerfTables::build(&space, &target).expect("fpga tables");
    (space, net, arch, tables, target)
}

fn bench_sampled_forward(c: &mut Criterion) {
    let (_, net, arch, _, _) = setup();
    let mut rng = StdRng::seed_from_u64(11);
    let x = Tensor::constant(Array::randn(&[4, 3, 16, 16], 1.0, &mut rng));
    c.bench_function("supernet_sampled_forward", |b| {
        b.iter(|| black_box(net.forward_sampled(&x, &arch, 1.0, &mut rng).unwrap()));
    });
}

fn bench_sampled_forward_batch8(c: &mut Criterion) {
    // Larger batch: the conv paths thread over images, so this is the case
    // that scales with EDD_NUM_THREADS on multi-core hosts.
    let (_, net, arch, _, _) = setup();
    let mut rng = StdRng::seed_from_u64(11);
    let x = Tensor::constant(Array::randn(&[8, 3, 16, 16], 1.0, &mut rng));
    c.bench_function("supernet_sampled_forward_b8", |b| {
        b.iter(|| black_box(net.forward_sampled(&x, &arch, 1.0, &mut rng).unwrap()));
    });
}

fn bench_weight_step(c: &mut Criterion) {
    let (_, net, arch, _, _) = setup();
    let mut rng = StdRng::seed_from_u64(12);
    let x = Tensor::constant(Array::randn(&[4, 3, 16, 16], 1.0, &mut rng));
    let labels = vec![0usize, 1, 2, 3];
    c.bench_function("supernet_weight_step", |b| {
        b.iter(|| {
            let (logits, _) = net.forward_sampled(&x, &arch, 1.0, &mut rng).unwrap();
            let loss = logits.cross_entropy(&labels).unwrap();
            loss.backward();
            black_box(loss.item())
        });
    });
}

fn bench_perf_estimate(c: &mut Criterion) {
    let (space, _, arch, tables, target) = setup();
    let mut rng = StdRng::seed_from_u64(13);
    c.bench_function("perf_estimate_recursive", |b| {
        b.iter(|| black_box(estimate(&arch, &tables, &space, &target, 1.0, &mut rng).unwrap()));
    });
}

fn bench_arch_step(c: &mut Criterion) {
    let (space, net, arch, tables, target) = setup();
    let mut rng = StdRng::seed_from_u64(14);
    let x = Tensor::constant(Array::randn(&[4, 3, 16, 16], 1.0, &mut rng));
    let labels = vec![0usize, 1, 2, 3];
    c.bench_function("arch_step_full_loss", |b| {
        b.iter(|| {
            let (logits, _) = net.forward_sampled(&x, &arch, 1.0, &mut rng).unwrap();
            let acc_loss = logits.cross_entropy(&labels).unwrap();
            let est = estimate(&arch, &tables, &space, &target, 1.0, &mut rng).unwrap();
            let total = edd_core::edd_loss(
                &acc_loss,
                &est.perf,
                &est.res,
                target.resource_bound(),
                &edd_core::LossConfig::default(),
            )
            .unwrap();
            total.backward();
            black_box(total.item())
        });
    });
}

criterion_group!(
    benches,
    bench_sampled_forward,
    bench_sampled_forward_batch8,
    bench_weight_step,
    bench_perf_estimate,
    bench_arch_step
);

fn main() {
    // Zero the kernel counters so the lines below reflect only this
    // bench run, then print them after the timing lines.
    edd_tensor::stats::reset();
    benches();
    edd_bench::print_kernel_counters();
}
