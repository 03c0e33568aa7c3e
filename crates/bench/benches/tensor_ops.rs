//! Criterion micro-benchmarks of the autodiff substrate: the dense kernels
//! (GEMM, im2col convolution, depthwise convolution, batch norm) that
//! dominate supernet training time, in both forward and backward modes,
//! plus the int8 engine's pointwise-convolution path, its depthwise layer,
//! bias + requantize epilogue, residual add and input quantize, and one
//! pushed row of pulsed streaming.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edd_ir::{PassConfig, PulsedModel};
use edd_nn::qlayers::{
    QAddTables, QConv2d, QConvSource, QConvSpec, QDwConv2d, QDwConvSource, QDwConvSpec,
};
use edd_tensor::kernel::pack;
use edd_tensor::qkernel::{quantize_i8_into, requantize_rows_into, Requant, RowEpilogue};
use edd_tensor::{Array, Tensor};
use edd_zoo::{compile_tiny_zoo, synthetic_signal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [32usize, 64, 128] {
        let a = Array::randn(&[n, n], 1.0, &mut rng);
        let b = Array::randn(&[n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b).unwrap()));
        });
    }
    group.finish();
}

fn bench_matmul_naive(c: &mut Criterion) {
    // The scalar reference oracle, kept as the "before" baseline so the
    // blocked kernel's win stays measurable from the same bench run.
    let mut group = c.benchmark_group("matmul_naive");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [32usize, 64, 128] {
        let a = Array::randn(&[n, n], 1.0, &mut rng);
        let b = Array::randn(&[n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul_naive(&b).unwrap()));
        });
    }
    group.finish();
}

fn bench_conv_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_forward");
    let mut rng = StdRng::seed_from_u64(2);
    for (cin, hw) in [(16usize, 16usize), (32, 16), (32, 32)] {
        let x = Tensor::constant(Array::randn(&[4, cin, hw, hw], 1.0, &mut rng));
        let w = Tensor::constant(Array::randn(&[cin, cin, 3, 3], 0.1, &mut rng));
        let label = format!("c{cin}_hw{hw}");
        group.bench_function(BenchmarkId::from_parameter(label), |bench| {
            bench.iter(|| black_box(x.conv2d(&w, None, 1, 1).unwrap()));
        });
    }
    group.finish();
}

fn bench_conv_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d_train_step");
    let mut rng = StdRng::seed_from_u64(3);
    let x = Tensor::constant(Array::randn(&[4, 16, 16, 16], 1.0, &mut rng));
    let w = Tensor::param(Array::randn(&[16, 16, 3, 3], 0.1, &mut rng));
    group.bench_function("fwd_bwd", |bench| {
        bench.iter(|| {
            w.zero_grad();
            let y = x.conv2d(&w, None, 1, 1).unwrap();
            let loss = y.square().sum();
            loss.backward();
            black_box(w.grad())
        });
    });
    group.finish();
}

fn bench_dwconv(c: &mut Criterion) {
    let mut group = c.benchmark_group("dwconv2d_forward");
    let mut rng = StdRng::seed_from_u64(4);
    for k in [3usize, 5, 7] {
        let x = Tensor::constant(Array::randn(&[4, 32, 16, 16], 1.0, &mut rng));
        let w = Tensor::constant(Array::randn(&[32, k, k], 0.1, &mut rng));
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| black_box(x.dwconv2d(&w, None, 1, k / 2).unwrap()));
        });
    }
    group.finish();
}

fn bench_dwconv_backward(c: &mut Criterion) {
    // The search's middle expansion width on its 16x16 planes, at the
    // menu's kernels and both strides. Per shape: the forward alone, then
    // forward plus backward seeded with a fixed gradient, taking dx only,
    // dW only, and both.
    let mut group = c.benchmark_group("dwconv2d_backward");
    let mut rng = StdRng::seed_from_u64(6);
    let xv = Array::randn(&[16, 80, 16, 16], 1.0, &mut rng);
    for k in [3usize, 5, 7] {
        for stride in [1usize, 2] {
            let wv = Array::randn(&[80, k, k], 0.1, &mut rng);
            let x = Tensor::param(xv.clone());
            let w = Tensor::param(wv.clone());
            let out = x.dwconv2d(&w, None, stride, k / 2).unwrap().shape();
            let seed = Array::randn(&out, 1.0, &mut rng);
            let shape = format!("k{k}_s{stride}");
            let (xc, wc) = (Tensor::constant(xv.clone()), Tensor::constant(wv));
            group.bench_function(format!("{shape}/fwd"), |bench| {
                bench.iter(|| black_box(xc.dwconv2d(&wc, None, stride, k / 2).unwrap()));
            });
            for (grads, xi, wi) in [("dx", &x, &wc), ("dw", &xc, &w), ("both", &x, &w)] {
                group.bench_function(format!("{shape}/{grads}"), |bench| {
                    bench.iter(|| {
                        xi.zero_grad();
                        wi.zero_grad();
                        let y = xi.dwconv2d(wi, None, stride, k / 2).unwrap();
                        y.backward_with(seed.clone());
                        black_box((xi.grad(), wi.grad()))
                    });
                });
            }
        }
    }
    group.finish();
}

fn bench_batchnorm(c: &mut Criterion) {
    // The search's widest expansion (16 images, 96 channels, 16×16), in
    // both modes, with and without the fused ReLU6, forward alone and
    // forward + backward into the input, gamma and beta.
    let mut group = c.benchmark_group("batch_norm2d");
    let mut rng = StdRng::seed_from_u64(5);
    let shape = [16, 96, 16, 16];
    let x = Tensor::param(Array::randn(&shape, 1.0, &mut rng));
    let gamma = Tensor::param(Array::rand_uniform(&[96], 0.5, 1.5, &mut rng));
    let beta = Tensor::param(Array::full(&[96], 1.0));
    let mean = Array::randn(&[96], 0.1, &mut rng);
    let var = Array::rand_uniform(&[96], 0.5, 1.5, &mut rng);
    let seed = Array::randn(&shape, 1.0, &mut rng);
    let forward = |train: bool, relu6: bool| -> Tensor {
        match (train, relu6) {
            (true, false) => x.batch_norm2d_train(&gamma, &beta, 1e-5).unwrap().output,
            (true, true) => {
                x.batch_norm2d_relu6_train(&gamma, &beta, 1e-5)
                    .unwrap()
                    .output
            }
            (false, false) => x
                .batch_norm2d_eval(&gamma, &beta, &mean, &var, 1e-5)
                .unwrap(),
            (false, true) => x
                .batch_norm2d_relu6_eval(&gamma, &beta, &mean, &var, 1e-5)
                .unwrap(),
        }
    };
    for (mode, train) in [("train", true), ("eval", false)] {
        for (act, relu6) in [("bn", false), ("bn_relu6", true)] {
            group.bench_function(format!("{mode}/{act}/fwd"), |bench| {
                bench.iter(|| black_box(forward(train, relu6)));
            });
            group.bench_function(format!("{mode}/{act}/fwd_bwd"), |bench| {
                bench.iter(|| {
                    for p in [&x, &gamma, &beta] {
                        p.zero_grad();
                    }
                    forward(train, relu6).backward_with(seed.clone());
                    black_box((x.grad(), gamma.grad(), beta.grad()))
                });
            });
        }
    }
    group.finish();
}

/// `x` quantized onto the int8 activation grid of scale 0.05.
fn quantized(x: &Array) -> Vec<i8> {
    let mut q = vec![0i8; x.len()];
    quantize_i8_into(&mut q, x.data(), 0.05, 127);
    q
}

/// The int8 pointwise path at the tiny zoo's shapes, `(m, k, n)` =
/// (80, 16, 256) for an expand conv, (16, 96, 256) for a project conv and
/// (16, 27, 256) for the 3×3 stem through im2col: the per-call activation
/// pack alone, then one `QConv2d::forward_into` (im2col where needed, pack,
/// maddubs GEMM, bias, requantize) at batch 1.
fn bench_qconv_pointwise(c: &mut Criterion) {
    let mut group = c.benchmark_group("qconv_pointwise");
    let mut rng = StdRng::seed_from_u64(6);
    let hw = 16;
    for (label, out_c, in_c, kernel) in [
        ("expand_80x16x256", 80, 16, 1),
        ("project_16x96x256", 16, 96, 1),
        ("stem_16x27x256", 16, 3, 3),
    ] {
        let (k, n) = (in_c * kernel * kernel, hw * hw);
        let cols: Vec<i8> = (0..k * n).map(|_| rng.gen_range(-127..=127)).collect();
        let mut panels = vec![0i8; pack::packed_rhs_len(k, n)];
        group.bench_function(BenchmarkId::new("pack_rhs_i8", label), |bench| {
            bench.iter(|| pack::pack_rhs_i8(black_box(&mut panels), black_box(&cols), k, n));
        });
        let w: Vec<f32> = (0..out_c * k).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let src = QConvSource {
            w: &w,
            out_channels: out_c,
            in_channels: in_c,
            kernel,
            stride: 1,
            padding: kernel / 2,
            bias: None,
        };
        let conv = QConv2d::from_spec(QConvSpec::quantize(&src, 8, 0.05, 0.05, true));
        let x = quantized(&Array::randn(&[1, in_c, hw, hw], 1.0, &mut rng));
        let mut y = vec![0i8; out_c * hw * hw];
        group.bench_function(BenchmarkId::new("forward_b1", label), |bench| {
            bench.iter(|| {
                conv.forward_into(black_box(&x), [1, in_c, hw, hw], &mut y)
                    .unwrap();
                black_box(&y);
            });
        });
    }
    group.finish();
}

/// The int8 depthwise layer, `QDwConv2d::forward_into` at batch 1: the tiny
/// zoo's three 16×16 shapes and one stride-2 shape, all on the AVX2
/// paired-tap bodies with the requantizing epilogue.
fn bench_qdwconv(c: &mut Criterion) {
    let mut group = c.benchmark_group("qdwconv");
    let mut rng = StdRng::seed_from_u64(23);
    for (label, ch, kernel, stride) in [
        ("80x16x16_k5", 80, 5, 1),
        ("96x16x16_k7", 96, 7, 1),
        ("64x16x16_k3", 64, 3, 1),
        ("64x16x16_k3_s2", 64, 3, 2),
    ] {
        let w: Vec<f32> = (0..ch * kernel * kernel)
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect();
        let src = QDwConvSource {
            w: &w,
            channels: ch,
            kernel,
            stride,
            padding: kernel / 2,
            bias: None,
        };
        let dw = QDwConv2d::from_spec(QDwConvSpec::quantize(&src, 8, 0.05, 0.05, true));
        let x = quantized(&Array::randn(&[1, ch, 16, 16], 1.0, &mut rng));
        let out_hw = (16 + 2 * (kernel / 2) - kernel) / stride + 1;
        let mut y = vec![0i8; ch * out_hw * out_hw];
        group.bench_function(label, |bench| {
            bench.iter(|| {
                dw.forward_into(black_box(&x), [1, ch, 16, 16], &mut y)
                    .unwrap();
                black_box(&y);
            });
        });
    }
    group.finish();
}

/// Bias + requantization of one 80 × 256 accumulator block (the first
/// expand conv of `edd-tiny-int8`, one image), with a zero and a nonzero
/// bias.
fn bench_requantize_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("requantize_rows");
    let mut rng = StdRng::seed_from_u64(29);
    let (rows, cols) = (80, 256);
    let acc: Vec<i32> = (0..rows * cols)
        .map(|_| rng.gen_range(-200_000..200_000))
        .collect();
    let mut out = vec![0i8; rows * cols];
    for (label, bias) in [("80x256/no_bias", 0), ("80x256/bias", 1_234)] {
        let epilogues: Vec<RowEpilogue> = (0..rows)
            .map(|r| {
                RowEpilogue::new(
                    Requant::from_scale(0.002 + r as f64 * 1e-5),
                    bias,
                    16,
                    0,
                    127,
                )
            })
            .collect();
        group.bench_function(label, |bench| {
            bench.iter(|| requantize_rows_into(black_box(&mut out), black_box(&acc), &epilogues));
        });
    }
    group.finish();
}

/// One residual add of `edd-tiny-int8` at batch 32 (16 channels × 16 × 16
/// per image), both operands requantized onto the output grid. The
/// operands are activation-like (σ = 20 steps, so few sums clamp), and the
/// add runs in place as the engine runs it, so each iteration first
/// restores the 128 KiB first operand.
fn bench_qadd(c: &mut Criterion) {
    let mut group = c.benchmark_group("qadd");
    let mut rng = StdRng::seed_from_u64(31);
    let a0 = quantized(&Array::randn(&[32, 16, 16, 16], 1.0, &mut rng));
    let b = quantized(&Array::randn(&[32, 16, 16, 16], 1.0, &mut rng));
    let mut a = a0.clone();
    let add = QAddTables::new(
        Some(Requant::from_scale(0.83)),
        Some(Requant::from_scale(0.61)),
    );
    group.bench_function("16x16x16_b32", |bench| {
        bench.iter(|| {
            a.copy_from_slice(&a0);
            add.add_assign(black_box(&mut a), black_box(&b));
        });
    });
    group.finish();
}

/// The input quantize of `edd-tiny-int8` at batch 32: 3 × 16 × 16 floats
/// per image onto the int8 grid.
fn bench_quantize(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantize");
    let x = Array::randn(&[32, 3, 16, 16], 1.0, &mut StdRng::seed_from_u64(37));
    let mut q = vec![0i8; x.len()];
    group.bench_function("3x16x16_b32", |bench| {
        bench.iter(|| quantize_i8_into(black_box(&mut q), black_box(x.data()), 0.05, 127));
    });
    group.finish();
}

/// µs per pulse: one row pushed through each tiny-zoo engine's pulsed
/// twin at hop h/2. A window and a hop of warm-up first prime every ring
/// and start windows cycling; the rows then loop over a fixed signal.
fn bench_stream_push(c: &mut Criterion) {
    let mut group = c.benchmark_group("pulse_push");
    for (name, model, _) in compile_tiny_zoo(0x0DD5EED, &PassConfig::all()) {
        let g = model.graph();
        let [ch, h, w] = g.meta.input_shape;
        let hop = h / 2;
        let mut pulsed = PulsedModel::from_graph(g, hop).unwrap();
        let signal = synthetic_signal(ch, w, 4 * h, 0x5EED);
        for row in &signal[..h + hop] {
            pulsed.push(row).unwrap();
        }
        let mut next = h + hop;
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let row = &signal[next % signal.len()];
                next += 1;
                black_box(pulsed.push(row).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_matmul_naive,
    bench_conv_forward,
    bench_conv_backward,
    bench_dwconv,
    bench_dwconv_backward,
    bench_batchnorm,
    bench_qconv_pointwise,
    bench_qdwconv,
    bench_requantize_rows,
    bench_qadd,
    bench_quantize,
    bench_stream_push
);
criterion_main!(benches);
