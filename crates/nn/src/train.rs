//! A minimal training / evaluation loop over `(images, labels)` batches,
//! shared by the final-training stage of the co-search, the model zoo and
//! the benchmark harnesses.

use crate::module::Module;
use edd_runtime::telemetry::{self, Value};
use edd_tensor::optim::Optimizer;
use edd_tensor::{accuracy, top_k_accuracy, Array, Result, Tensor};

/// Emits an `EpochStats` record through the global telemetry sink (no-op
/// when no sink is installed).
fn emit_stats(name: &str, stats: &EpochStats) {
    if telemetry::enabled() {
        telemetry::event(
            name,
            &[
                ("loss", Value::F32(stats.loss)),
                ("top1", Value::F32(stats.top1)),
                ("top5", Value::F32(stats.top5)),
                ("examples", Value::U64(stats.examples as u64)),
            ],
        );
    }
}

/// One minibatch: NCHW images plus integer labels.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Input images `[b, c, h, w]`.
    pub images: Array,
    /// Ground-truth class per image.
    pub labels: Vec<usize>,
}

/// Aggregate metrics of a pass over a set of batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean cross-entropy loss.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub top1: f32,
    /// Top-5 accuracy in `[0, 1]`.
    pub top5: f32,
    /// Number of examples seen.
    pub examples: usize,
}

/// Runs one optimization epoch of `model` over `batches`.
///
/// The model is switched to training mode. Returns mean loss/accuracy over
/// the epoch.
///
/// # Errors
///
/// Propagates any shape error raised by the model.
pub fn train_epoch(
    model: &dyn Module,
    opt: &mut dyn Optimizer,
    batches: &[Batch],
) -> Result<EpochStats> {
    model.set_training(true);
    let _span = telemetry::span("nn.train_epoch");
    let mut loss_sum = 0.0;
    let mut top1_sum = 0.0;
    let mut top5_sum = 0.0;
    let mut n = 0usize;
    for batch in batches {
        opt.zero_grad();
        let x = Tensor::constant(batch.images.clone());
        let logits = model.forward(&x)?;
        let loss = logits.cross_entropy(&batch.labels)?;
        loss.backward();
        opt.step();
        // End of step: no scratch buffer may outlive the forward/backward
        // pass that allocated it (reset panics on leaks and reclaims the
        // arena in one block sized to the step's high-water mark).
        edd_tensor::scratch::reset();
        let bsz = batch.labels.len();
        loss_sum += loss.item() * bsz as f32;
        let lv = logits.value_clone();
        top1_sum += accuracy(&lv, &batch.labels) * bsz as f32;
        top5_sum += top_k_accuracy(&lv, &batch.labels, 5) * bsz as f32;
        n += bsz;
    }
    let stats = EpochStats {
        loss: loss_sum / n.max(1) as f32,
        top1: top1_sum / n.max(1) as f32,
        top5: top5_sum / n.max(1) as f32,
        examples: n,
    };
    emit_stats("nn.train_epoch", &stats);
    Ok(stats)
}

/// Evaluates `model` over `batches` without updating parameters.
///
/// The model is switched to evaluation mode.
///
/// # Errors
///
/// Propagates any shape error raised by the model.
pub fn evaluate(model: &dyn Module, batches: &[Batch]) -> Result<EpochStats> {
    model.set_training(false);
    let _span = telemetry::span("nn.evaluate");
    let mut loss_sum = 0.0;
    let mut top1_sum = 0.0;
    let mut top5_sum = 0.0;
    let mut n = 0usize;
    for batch in batches {
        let x = Tensor::constant(batch.images.clone());
        let logits = model.forward(&x)?;
        let loss = logits.cross_entropy(&batch.labels)?;
        let bsz = batch.labels.len();
        loss_sum += loss.item() * bsz as f32;
        let lv = logits.value_clone();
        top1_sum += accuracy(&lv, &batch.labels) * bsz as f32;
        top5_sum += top_k_accuracy(&lv, &batch.labels, 5) * bsz as f32;
        n += bsz;
    }
    let stats = EpochStats {
        loss: loss_sum / n.max(1) as f32,
        top1: top1_sum / n.max(1) as f32,
        top5: top5_sum / n.max(1) as f32,
        examples: n,
    };
    emit_stats("nn.evaluate", &stats);
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use edd_tensor::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two linearly-separable blobs as flat 4-feature "images".
    fn toy_batches(rng: &mut StdRng) -> Vec<Batch> {
        use rand::Rng;
        let mut batches = Vec::new();
        for _ in 0..8 {
            let mut images = Vec::new();
            let mut labels = Vec::new();
            for _ in 0..16 {
                let class = rng.gen_range(0..2usize);
                let center = if class == 0 { -1.0 } else { 1.0 };
                for _ in 0..4 {
                    images.push(center + rng.gen_range(-0.3f32..0.3));
                }
                labels.push(class);
            }
            batches.push(Batch {
                images: Array::from_vec(images, &[16, 4]).unwrap(),
                labels,
            });
        }
        batches
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Linear::new(4, 2, &mut rng);
        let mut opt = Adam::new(net.parameters(), 0.05);
        let batches = toy_batches(&mut rng);
        let first = train_epoch(&net, &mut opt, &batches).unwrap();
        let mut last = first;
        for _ in 0..10 {
            last = train_epoch(&net, &mut opt, &batches).unwrap();
        }
        assert!(last.loss < first.loss, "{} -> {}", first.loss, last.loss);
        let eval = evaluate(&net, &batches).unwrap();
        assert!(eval.top1 > 0.95, "top1 {}", eval.top1);
        assert_eq!(eval.examples, 8 * 16);
        // With 2 classes, top-5 accuracy is trivially 1.
        assert_eq!(eval.top5, 1.0);
    }
}
