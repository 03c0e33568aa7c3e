//! The weight-sharing supernet (paper Fig. 1): a stem, `N` blocks of `M`
//! candidate MBConv operations each, and a classifier head.
//!
//! During search the forward pass samples **one** operation and **one**
//! quantization per block with hard Gumbel-Softmax (straight-through), so
//! only a single path is computed — the memory/compute reduction the paper
//! credits Gumbel-Softmax for (§3.1). The straight-through coefficients
//! multiply the branch output, which is how gradients reach `Θ` and `Φ`
//! through the accuracy loss.

use crate::arch_params::ArchParams;
use crate::space::SearchSpace;
use edd_nn::{BatchNorm2d, Conv2d, Linear, MbConv, Module, QuantSpec, QuantizableModule};
use edd_tensor::{gumbel_softmax, Result, Tensor};
use rand::Rng;
use std::sync::Mutex;

/// The EDD supernet.
pub struct SuperNet {
    space: SearchSpace,
    stem: Conv2d,
    stem_bn: BatchNorm2d,
    /// `blocks[i][m]` = candidate op `m` of block `i`.
    blocks: Vec<Vec<MbConv>>,
    head: Conv2d,
    head_bn: BatchNorm2d,
    classifier: Linear,
}

impl std::fmt::Debug for SuperNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperNet")
            .field("space", &self.space.name)
            .field("blocks", &self.blocks.len())
            .field("ops_per_block", &self.blocks.first().map_or(0, Vec::len))
            .finish()
    }
}

/// Record of the path sampled in one forward pass: per block, the chosen
/// op index and quantization index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledPath {
    /// Chosen candidate per block.
    pub ops: Vec<usize>,
    /// Chosen quantization index per block.
    pub quants: Vec<usize>,
}

impl SuperNet {
    /// Builds the supernet for `space` with fresh Kaiming-initialized
    /// weights.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(space: &SearchSpace, rng: &mut R) -> Self {
        let stem = Conv2d::same(
            space.input_channels,
            space.stem_channels,
            3,
            space.stem_stride,
            rng,
        );
        let stem_bn = BatchNorm2d::new(space.stem_channels);
        let mut blocks = Vec::with_capacity(space.num_blocks());
        for i in 0..space.num_blocks() {
            let cin = space.block_in_channels(i);
            let plan = space.blocks[i];
            let mut ops = Vec::with_capacity(space.num_ops());
            for m in 0..space.num_ops() {
                let (k, e) = space.op_choice(m);
                ops.push(MbConv::new(cin, plan.out_channels, k, e, plan.stride, rng));
            }
            blocks.push(ops);
        }
        let last_c = space
            .blocks
            .last()
            .map_or(space.stem_channels, |b| b.out_channels);
        let head = Conv2d::new(last_c, space.head_channels, 1, 1, 0, false, rng);
        let head_bn = BatchNorm2d::new(space.head_channels);
        let classifier = Linear::new(space.head_channels, space.num_classes, rng);
        SuperNet {
            space: space.clone(),
            stem,
            stem_bn,
            blocks,
            head,
            head_bn,
            classifier,
        }
    }

    /// The search space this supernet was built for.
    #[must_use]
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// All DNN weights `ω` (stem, every candidate, head) — the inner-level
    /// variables of the bilevel optimization.
    #[must_use]
    pub fn weight_params(&self) -> Vec<Tensor> {
        let mut p = self.stem.parameters();
        p.extend(self.stem_bn.parameters());
        for ops in &self.blocks {
            for op in ops {
                p.extend(op.parameters());
            }
        }
        p.extend(self.head.parameters());
        p.extend(self.head_bn.parameters());
        p.extend(self.classifier.parameters());
        p
    }

    /// Every batch-norm layer in deterministic order (stem BN, each
    /// candidate's BNs in block/op order, head BN). Running statistics are
    /// state outside `weight_params()`, so checkpointing serializes them
    /// through this walk; the order is part of the snapshot contract.
    #[must_use]
    pub fn batch_norms(&self) -> Vec<&BatchNorm2d> {
        let mut bns = vec![&self.stem_bn];
        for ops in &self.blocks {
            for op in ops {
                bns.extend(op.batch_norms());
            }
        }
        bns.push(&self.head_bn);
        bns
    }

    /// Switches batch-norm layers between training and evaluation modes.
    pub fn set_training(&self, training: bool) {
        self.stem_bn.set_training(training);
        for ops in &self.blocks {
            for op in ops {
                op.set_training(training);
            }
        }
        self.head_bn.set_training(training);
    }

    fn head_forward(&self, h: &Tensor) -> Result<Tensor> {
        let h = self.head.forward(h)?;
        let h = self.head_bn.forward_relu6(&h)?;
        let h = h.global_avg_pool()?;
        self.classifier.forward(&h)
    }

    /// Single-path sampled forward: hard Gumbel-Softmax over ops and
    /// quantizations at temperature `tau`. Returns the class logits and the
    /// sampled path.
    ///
    /// Exactly one branch executes per block (that is the point of the
    /// single-path supernet), so there is no branch-level fan-out here;
    /// parallelism comes from the pooled convolution / normalization /
    /// elementwise kernels inside the sampled branch.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_sampled<R: Rng + ?Sized>(
        &self,
        x: &Tensor,
        arch: &ArchParams,
        tau: f32,
        rng: &mut R,
    ) -> Result<(Tensor, SampledPath)> {
        let mut h = self.stem.forward(x)?;
        h = self.stem_bn.forward_relu6(&h)?;
        let mut path = SampledPath {
            ops: Vec::with_capacity(self.blocks.len()),
            quants: Vec::with_capacity(self.blocks.len()),
        };
        for (i, ops) in self.blocks.iter().enumerate() {
            // Sample the operation (hard one-hot, straight-through).
            let gs_theta = gumbel_softmax(&arch.theta[i], tau, true, rng)?;
            let m_star = gs_theta.value().argmax().expect("non-empty");
            let theta_coeff = gs_theta.select(m_star)?;
            // Sample the quantization for the chosen op.
            let gs_phi = gumbel_softmax(arch.phi_logits(i, m_star), tau, true, rng)?;
            let q_star = gs_phi.value().argmax().expect("non-empty");
            let phi_coeff = gs_phi.select(q_star)?;
            let bits = self.space.quant_bits[q_star];
            // Only the sampled branch is executed (single-path supernet).
            let branch = ops[m_star].forward_quantized(&h, Some(QuantSpec::bits(bits)))?;
            // Multiply by the ST coefficients (value exactly 1.0) so that
            // gradients reach Θ and Φ through the accuracy loss.
            let coeff = theta_coeff.mul(&phi_coeff)?;
            h = branch.mul(&coeff)?;
            path.ops.push(m_star);
            path.quants.push(q_star);
        }
        let logits = self.head_forward(&h)?;
        Ok((logits, path))
    }

    /// DARTS-style all-branch mixture forward: every candidate of every
    /// block executes and outputs are blended by `softmax(θ/τ)` weights;
    /// quantization is likewise the softmax expectation over `Φ` (executed
    /// at the argmax bit-width, weighted by its probability plus the
    /// straight-through residual of the remaining mass).
    ///
    /// This is the memory-hungry alternative the paper rejects in §3.1 —
    /// provided for the Gumbel-vs-softmax ablation and for users who want
    /// deterministic search gradients.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_mixture(&self, x: &Tensor, arch: &ArchParams, tau: f32) -> Result<Tensor> {
        let mut h = self.stem.forward(x)?;
        h = self.stem_bn.forward_relu6(&h)?;
        for (i, ops) in self.blocks.iter().enumerate() {
            let weights = edd_tensor::softmax_selection(&arch.theta[i], tau)?;
            // Fan the M candidate branches out over the worker pool: each
            // branch owns its slot (and its own batch-norm running stats),
            // and the combine below walks slots in ascending m, so the
            // result is identical to the sequential loop for any thread
            // count. Ops inside a branch that would themselves use the pool
            // run inline on the worker (nested `run` never deadlocks).
            let slots: Vec<Mutex<Option<Result<Tensor>>>> =
                (0..ops.len()).map(|_| Mutex::new(None)).collect();
            edd_tensor::kernel::pool::run(ops.len(), &|m| {
                let q_star = arch.argmax_quant(i, m);
                let bits = self.space.quant_bits[q_star];
                let result = ops[m].forward_quantized(&h, Some(QuantSpec::bits(bits)));
                *slots[m].lock().expect("branch slot poisoned") = Some(result);
            });
            let mut terms = Vec::with_capacity(ops.len());
            for slot in slots {
                terms.push(
                    slot.into_inner()
                        .expect("branch slot poisoned")
                        .expect("every branch task ran")?,
                );
            }
            // Fused weighted combine: a single op node computes
            // `Σ_m w_m · branch_m` (bitwise identical to the per-branch
            // mul + add_n chain) and its backward fans the M branch
            // gradients out over the worker pool.
            h = Tensor::weighted_add_n(&terms, &weights)?;
        }
        self.head_forward(&h)
    }

    /// Deterministic forward along the argmax path of `arch` (used for
    /// validation during the search).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_argmax(&self, x: &Tensor, arch: &ArchParams) -> Result<Tensor> {
        let mut h = self.stem.forward(x)?;
        h = self.stem_bn.forward_relu6(&h)?;
        for (i, ops) in self.blocks.iter().enumerate() {
            let m_star = arch.theta[i].value().argmax().expect("non-empty");
            let q_star = arch.argmax_quant(i, m_star);
            let bits = self.space.quant_bits[q_star];
            h = ops[m_star].forward_quantized(&h, Some(QuantSpec::bits(bits)))?;
        }
        self.head_forward(&h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::DeviceTarget;
    use edd_hw::FpgaDevice;
    use edd_tensor::Array;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SearchSpace, SuperNet, ArchParams, StdRng) {
        let mut rng = StdRng::seed_from_u64(42);
        let space = SearchSpace::tiny(3, 16, 4, vec![4, 8, 16]);
        let net = SuperNet::new(&space, &mut rng);
        let arch = ArchParams::init(
            &space,
            &DeviceTarget::FpgaPipelined(FpgaDevice::zc706()),
            &mut rng,
        );
        (space, net, arch, rng)
    }

    #[test]
    fn sampled_forward_shapes_and_path() {
        let (space, net, arch, mut rng) = setup();
        let x = Tensor::constant(Array::randn(&[2, 3, 16, 16], 1.0, &mut rng));
        let (logits, path) = net.forward_sampled(&x, &arch, 1.0, &mut rng).unwrap();
        assert_eq!(logits.shape(), vec![2, 4]);
        assert_eq!(path.ops.len(), 3);
        assert!(path.ops.iter().all(|&m| m < space.num_ops()));
        assert!(path.quants.iter().all(|&q| q < 3));
    }

    #[test]
    fn gradients_reach_theta_phi_and_weights() {
        let (_, net, arch, mut rng) = setup();
        let x = Tensor::constant(Array::randn(&[2, 3, 16, 16], 1.0, &mut rng));
        let (logits, path) = net.forward_sampled(&x, &arch, 1.0, &mut rng).unwrap();
        let loss = logits.cross_entropy(&[0, 1]).unwrap();
        loss.backward();
        // Theta of every block receives gradient.
        for (i, t) in arch.theta.iter().enumerate() {
            assert!(t.grad().is_some(), "theta {i} has no grad");
        }
        // Phi of the sampled (i, m) receives gradient.
        for (i, &m) in path.ops.iter().enumerate() {
            assert!(
                arch.phi_logits(i, m).grad().is_some(),
                "phi ({i},{m}) has no grad"
            );
        }
        // Stem weights receive gradient.
        assert!(net.stem.parameters()[0].grad().is_some());
    }

    #[test]
    fn argmax_forward_is_deterministic() {
        let (_, net, arch, mut rng) = setup();
        net.set_training(false);
        let x = Tensor::constant(Array::randn(&[1, 3, 16, 16], 1.0, &mut rng));
        let a = net.forward_argmax(&x, &arch).unwrap();
        let b = net.forward_argmax(&x, &arch).unwrap();
        assert_eq!(a.value().data(), b.value().data());
    }

    #[test]
    fn sampled_coefficients_do_not_change_forward_value() {
        // Hard ST coefficients are exactly 1, so the sampled forward equals
        // running the chosen branch directly.
        let (_, net, arch, mut rng) = setup();
        net.set_training(false);
        let x = Tensor::constant(Array::randn(&[1, 3, 16, 16], 1.0, &mut rng));
        let (logits, path) = net.forward_sampled(&x, &arch, 0.5, &mut rng).unwrap();
        // Manually replay the path.
        let mut h = net.stem.forward(&x).unwrap();
        h = net.stem_bn.forward(&h).unwrap().relu6();
        for (i, (&m, &q)) in path.ops.iter().zip(&path.quants).enumerate() {
            let bits = net.space.quant_bits[q];
            h = net.blocks[i][m]
                .forward_quantized(&h, Some(QuantSpec::bits(bits)))
                .unwrap();
        }
        let manual = net.head_forward(&h).unwrap();
        for (a, b) in logits.value().data().iter().zip(manual.value().data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn mixture_forward_blends_all_branches() {
        let (_, net, arch, mut rng) = setup();
        net.set_training(false);
        let x = Tensor::constant(Array::randn(&[1, 3, 16, 16], 1.0, &mut rng));
        let y = net.forward_mixture(&x, &arch, 1.0).unwrap();
        assert_eq!(y.shape(), vec![1, 4]);
        // Deterministic (no Gumbel noise).
        let y2 = net.forward_mixture(&x, &arch, 1.0).unwrap();
        assert_eq!(y.value().data(), y2.value().data());
        // Gradients reach every block's theta (all branches executed).
        y.cross_entropy(&[0]).unwrap().backward();
        for t in &arch.theta {
            assert!(t.grad().is_some());
        }
    }

    #[test]
    fn mixture_concentrates_to_argmax_at_low_tau() {
        let (_, net, arch, mut rng) = setup();
        net.set_training(false);
        // Sharpen theta toward op 0 everywhere.
        for t in &arch.theta {
            t.update_value(|a| {
                for (i, v) in a.data_mut().iter_mut().enumerate() {
                    *v = if i == 0 { 10.0 } else { 0.0 };
                }
            });
        }
        let x = Tensor::constant(Array::randn(&[1, 3, 16, 16], 1.0, &mut rng));
        let mix = net.forward_mixture(&x, &arch, 0.05).unwrap();
        let arg = net.forward_argmax(&x, &arch).unwrap();
        for (a, b) in mix.value().data().iter().zip(arg.value().data()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn weight_param_count_scales_with_m() {
        let mut rng = StdRng::seed_from_u64(1);
        let s1 = SearchSpace::tiny(2, 16, 4, vec![8]);
        let net = SuperNet::new(&s1, &mut rng);
        // 2 blocks × 9 candidates of MBConv params + stem + head.
        assert!(net.weight_params().len() > 2 * 9 * 8);
        assert!(format!("{net:?}").contains("SuperNet"));
    }
}
