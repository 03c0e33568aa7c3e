//! End-to-end integer quantized inference of a derived architecture.
//!
//! Pipeline: derived arch (mixed Φ = 4/8/8-bit) → QAT model → brief
//! quantization-aware training on SynthImageNet → activation calibration →
//! lower to the IR ([`edd::core::lower_to_graph`]) → compile to the integer
//! engine ([`edd::ir::CompiledModel`]) → run batches through
//! [`edd::runtime::BatchModel::infer_batch`]. Everything between the
//! input quantization and the classifier's dequantized logits runs in
//! int8/int4 × int8 → i32 arithmetic.
//!
//! Run: `cargo run --release --example quantized_infer`

use edd::core::{calibrate, lower_to_graph, QatModel};
use edd::data::{SynthConfig, SynthDataset};
use edd::ir::PassConfig;
use edd::nn::Module;
use edd::runtime::BatchModel;
use edd::tensor::optim::Sgd;
use edd::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let arch = edd::zoo::tiny_derived_arch();
    println!("{}", arch.summary());

    let mut rng = StdRng::seed_from_u64(7);
    let model = QatModel::new(&arch, &mut rng);
    let data = SynthDataset::new(SynthConfig::tiny());
    let train = data.split(6, 16, 1);
    let test = data.split(3, 16, 2);

    // Brief QAT so the weights have adapted to their quantization grids.
    let mut opt = Sgd::new(model.parameters(), 0.05, 0.9, 1e-4);
    for epoch in 0..4 {
        let stats = edd::nn::train_epoch(&model, &mut opt, &train).expect("train epoch");
        println!(
            "qat epoch {epoch}: loss {:.3}, top1 {:.2}",
            stats.loss, stats.top1
        );
    }
    model.set_training(false);

    // Calibrate activation scales on the training batches, then compile to
    // integer arithmetic at the searched per-block precisions.
    let calib_batches: Vec<_> = train.iter().map(|b| b.images.clone()).collect();
    let calib = calibrate(&model, &calib_batches).expect("calibration");
    let graph = lower_to_graph(&model, &arch, &calib).expect("lowering");
    let (q, _) = edd::ir::compile(&graph, &PassConfig::all()).expect("compile");
    println!(
        "\ncompiled integer engine: {} nodes, {} weight bytes, input scale {:.5}",
        q.graph().len(),
        q.graph().weight_bytes(),
        calib.input
    );

    // Run the test set through the batched inference entry point and
    // compare the integer argmax against the float model's.
    let mut agree = 0usize;
    let mut correct = 0usize;
    let mut total = 0usize;
    for batch in &test {
        let n = batch.labels.len();
        let logits = q
            .infer_batch(batch.images.data(), n)
            .expect("quantized inference");
        let float = model
            .forward(&Tensor::constant(batch.images.clone()))
            .expect("float forward")
            .value()
            .clone();
        let classes = logits.len() / n;
        for i in 0..n {
            let qrow = &logits[i * classes..(i + 1) * classes];
            let frow = &float.data()[i * classes..(i + 1) * classes];
            let qarg = argmax(qrow);
            if qarg == argmax(frow) {
                agree += 1;
            }
            if qarg == batch.labels[i] {
                correct += 1;
            }
            total += 1;
        }
    }
    println!(
        "\nint8 engine vs f32 model: {agree}/{total} argmax agreement, \
         top1 {:.2} on SynthImageNet",
        correct as f64 / total as f64
    );
}

fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}
