//! Analytic GPU latency model (paper §4.2).
//!
//! The paper uses *normalized measured latencies* per operation and
//! precision as constants `Perf^q(opᵢᵐ)` during the search, and constrains
//! the whole DNN to one precision (TensorRT supports 8-bit integer and
//! 16/32-bit floating point). With no GPU available here, the measured LUT
//! is replaced by a **roofline model**: per-op latency is the max of
//! compute time and memory time plus a kernel-launch overhead, derated by a
//! sustained-efficiency factor. The search consumes the model exactly the
//! way the paper consumes measurements — as a per-`(op, q)` constant table.

use crate::shapes::{NetworkShape, OpShape};
use serde::{Deserialize, Serialize};

/// GPU data precisions supported by the model (mirroring TensorRT's
/// 8-bit integer and 16/32-bit floating point as of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuPrecision {
    /// 32-bit floating point.
    Fp32,
    /// 16-bit floating point.
    Fp16,
    /// 8-bit integer.
    Int8,
}

impl GpuPrecision {
    /// Bit-width of the precision.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            GpuPrecision::Fp32 => 32,
            GpuPrecision::Fp16 => 16,
            GpuPrecision::Int8 => 8,
        }
    }

    /// All supported precisions.
    #[must_use]
    pub fn all() -> [GpuPrecision; 3] {
        [GpuPrecision::Fp32, GpuPrecision::Fp16, GpuPrecision::Int8]
    }

    /// The precision for a given bit-width, if supported.
    #[must_use]
    pub fn from_bits(bits: u32) -> Option<Self> {
        match bits {
            32 => Some(GpuPrecision::Fp32),
            16 => Some(GpuPrecision::Fp16),
            8 => Some(GpuPrecision::Int8),
            _ => None,
        }
    }
}

/// A GPU device descriptor for the roofline model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuDevice {
    /// Device name.
    pub name: String,
    /// Peak tera-MACs/s at fp32.
    pub peak_tmacs_fp32: f64,
    /// Peak tera-MACs/s at fp16.
    pub peak_tmacs_fp16: f64,
    /// Peak tera-MACs/s at int8.
    pub peak_tmacs_int8: f64,
    /// Memory bandwidth (GB/s).
    pub mem_bw_gbs: f64,
    /// Kernel launch / framework overhead per *compute layer* at fp32 (ms).
    /// Batch-1 inference of mobile-class CNNs is dominated by this term, so
    /// it is the main calibration constant.
    pub per_layer_overhead_ms: f64,
    /// How strongly the per-layer overhead scales with precision, in
    /// `[0, 1]`: effective overhead factor is
    /// `(1 − s) + s·(bits/32)`. Turing-class devices (tensor cores, fused
    /// low-precision pipelines) sit near 1; Pascal-class near 0.5.
    pub overhead_precision_scaling: f64,
    /// Sustained fraction of peak for small-batch inference.
    pub efficiency: f64,
}

impl GpuDevice {
    /// NVIDIA Titan RTX (Turing): the Table 1 measurement device.
    /// Calibrated against the published Table 1 latencies.
    #[must_use]
    pub fn titan_rtx() -> Self {
        GpuDevice {
            name: "Titan RTX".into(),
            peak_tmacs_fp32: 8.15,
            peak_tmacs_fp16: 16.3,
            peak_tmacs_int8: 32.6,
            mem_bw_gbs: 672.0,
            per_layer_overhead_ms: 0.40,
            overhead_precision_scaling: 1.0,
            efficiency: 0.18,
        }
    }

    /// NVIDIA GTX 1080 Ti (Pascal): the Table 2 measurement device. Pascal
    /// has no fast fp16 path, so fp16 peak equals fp32; int8 uses DP4A.
    /// Calibrated against the published Table 2 latencies.
    #[must_use]
    pub fn gtx_1080_ti() -> Self {
        GpuDevice {
            name: "GTX 1080 Ti".into(),
            peak_tmacs_fp32: 5.65,
            peak_tmacs_fp16: 5.65,
            peak_tmacs_int8: 22.6,
            mem_bw_gbs: 484.0,
            per_layer_overhead_ms: 0.034,
            overhead_precision_scaling: 0.5,
            efficiency: 0.25,
        }
    }

    /// NVIDIA P100 (the paper's search device; provided for completeness).
    #[must_use]
    pub fn p100() -> Self {
        GpuDevice {
            name: "P100".into(),
            peak_tmacs_fp32: 4.7,
            peak_tmacs_fp16: 9.4,
            peak_tmacs_int8: 4.7,
            mem_bw_gbs: 732.0,
            per_layer_overhead_ms: 0.05,
            overhead_precision_scaling: 0.5,
            efficiency: 0.25,
        }
    }

    /// Per-compute-layer overhead (ms) at `precision`.
    #[must_use]
    pub fn layer_overhead_ms(&self, precision: GpuPrecision) -> f64 {
        let s = self.overhead_precision_scaling;
        let factor = (1.0 - s) + s * f64::from(precision.bits()) / 32.0;
        self.per_layer_overhead_ms * factor
    }

    /// Peak MACs/s at `precision`, after the efficiency derating.
    #[must_use]
    pub fn sustained_macs(&self, precision: GpuPrecision) -> f64 {
        let peak = match precision {
            GpuPrecision::Fp32 => self.peak_tmacs_fp32,
            GpuPrecision::Fp16 => self.peak_tmacs_fp16,
            GpuPrecision::Int8 => self.peak_tmacs_int8,
        };
        peak * 1e12 * self.efficiency
    }

    /// Sustained memory bandwidth (bytes/s).
    #[must_use]
    pub fn sustained_bw(&self) -> f64 {
        self.mem_bw_gbs * 1e9 * self.efficiency
    }
}

/// Roofline latency (ms) of one operation at `precision`, batch 1.
///
/// Each *compute* layer (conv / depthwise / linear) is one kernel: its cost
/// is the max of compute time and memory time plus the device's per-layer
/// launch overhead. `Other` layers (batch-norm, activation) fuse into the
/// preceding kernel and are free. Memory traffic counts weights once and
/// activations twice (read + write) at the working precision.
#[must_use]
pub fn op_latency_ms(op: &OpShape, precision: GpuPrecision, device: &GpuDevice) -> f64 {
    let bytes_per_elem = f64::from(precision.bits()) / 8.0;
    let overhead = device.layer_overhead_ms(precision);
    let mut total = 0.0;
    for layer in &op.layers {
        if matches!(layer.kind, crate::shapes::LayerKind::Other { .. }) {
            continue;
        }
        let compute_s = layer.work() / device.sustained_macs(precision);
        let bytes = (layer.params() + 2.0 * layer.activations()) * bytes_per_elem;
        let memory_s = bytes / device.sustained_bw();
        total += compute_s.max(memory_s) * 1e3 + overhead;
    }
    total
}

/// GPU evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuReport {
    /// End-to-end batch-1 latency (ms).
    pub latency_ms: f64,
    /// Per-op latency breakdown (ms).
    pub per_op_latency_ms: Vec<f64>,
    /// Precision evaluated.
    pub precision: GpuPrecision,
}

/// Evaluates a network end-to-end at uniform `precision` (paper §4.2
/// constrains the whole DNN to one precision on GPU).
#[must_use]
pub fn eval_gpu(net: &NetworkShape, precision: GpuPrecision, device: &GpuDevice) -> GpuReport {
    let per_op: Vec<f64> = net
        .ops
        .iter()
        .map(|op| op_latency_ms(op, precision, device))
        .collect();
    GpuReport {
        latency_ms: per_op.iter().sum(),
        per_op_latency_ms: per_op,
        precision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_op() -> OpShape {
        OpShape::mbconv(96, 96, 5, 6, 14, 14, 1)
    }

    #[test]
    fn precision_bits_roundtrip() {
        for p in GpuPrecision::all() {
            assert_eq!(GpuPrecision::from_bits(p.bits()), Some(p));
        }
        assert_eq!(GpuPrecision::from_bits(4), None);
    }

    #[test]
    fn lower_precision_no_slower() {
        let d = GpuDevice::titan_rtx();
        let op = big_op();
        let l32 = op_latency_ms(&op, GpuPrecision::Fp32, &d);
        let l16 = op_latency_ms(&op, GpuPrecision::Fp16, &d);
        let l8 = op_latency_ms(&op, GpuPrecision::Int8, &d);
        assert!(l32 >= l16 && l16 >= l8, "{l32} {l16} {l8}");
    }

    #[test]
    fn pascal_fp16_gains_memory_only() {
        // On the 1080 Ti model fp16 compute equals fp32; the improvement
        // comes from halved memory traffic, so it is modest — the shape of
        // paper Table 2.
        let d = GpuDevice::gtx_1080_ti();
        let op = big_op();
        let l32 = op_latency_ms(&op, GpuPrecision::Fp32, &d);
        let l16 = op_latency_ms(&op, GpuPrecision::Fp16, &d);
        let ratio = l32 / l16;
        assert!(ratio > 1.0 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn network_latency_sums_ops() {
        let d = GpuDevice::titan_rtx();
        let net = NetworkShape {
            name: "n".into(),
            ops: vec![big_op(), big_op()],
        };
        let r = eval_gpu(&net, GpuPrecision::Fp16, &d);
        assert_eq!(r.per_op_latency_ms.len(), 2);
        assert!((r.latency_ms - r.per_op_latency_ms.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn overhead_dominates_tiny_ops() {
        let d = GpuDevice::titan_rtx();
        let tiny = OpShape::mbconv(4, 4, 3, 1, 2, 2, 1);
        // e=1 MBConv has 2 compute layers (dw + project).
        let l = op_latency_ms(&tiny, GpuPrecision::Fp32, &d);
        let oh = 2.0 * d.layer_overhead_ms(GpuPrecision::Fp32);
        assert!((l - oh) / l < 0.1, "latency {l} ≉ overhead {oh}");
    }

    #[test]
    fn overhead_scales_with_precision_on_turing() {
        let d = GpuDevice::titan_rtx();
        let f32oh = d.layer_overhead_ms(GpuPrecision::Fp32);
        let f16oh = d.layer_overhead_ms(GpuPrecision::Fp16);
        assert!((f16oh / f32oh - 0.5).abs() < 1e-9);
        // Pascal scales only half as strongly.
        let p = GpuDevice::gtx_1080_ti();
        let ratio =
            p.layer_overhead_ms(GpuPrecision::Fp16) / p.layer_overhead_ms(GpuPrecision::Fp32);
        assert!((ratio - 0.75).abs() < 1e-9);
    }

    #[test]
    fn devices_have_distinct_profiles() {
        let rtx = GpuDevice::titan_rtx();
        let pascal = GpuDevice::gtx_1080_ti();
        assert!(rtx.sustained_macs(GpuPrecision::Fp16) > pascal.sustained_macs(GpuPrecision::Fp16));
    }
}

/// GPU energy model — the paper's conclusion lists "GPU power and resource
/// formulation" as future work; this implements a first-order version:
/// energy = busy-time × dynamic power + idle leakage, where the dynamic
/// power splits between compute-bound (near-TDP) and memory-bound
/// (bandwidth-limited) phases.
pub mod energy {
    use super::{GpuDevice, GpuPrecision};
    use crate::shapes::{NetworkShape, OpShape};

    /// Power characteristics added on top of a [`GpuDevice`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct GpuPower {
        /// Board power when compute-bound (W).
        pub compute_watts: f64,
        /// Board power when memory-bound (W).
        pub memory_watts: f64,
        /// Idle/leakage power (W).
        pub idle_watts: f64,
    }

    impl GpuPower {
        /// Titan RTX class power profile (280 W TDP).
        #[must_use]
        pub fn titan_rtx() -> Self {
            GpuPower {
                compute_watts: 280.0,
                memory_watts: 160.0,
                idle_watts: 15.0,
            }
        }

        /// GTX 1080 Ti class power profile (250 W TDP).
        #[must_use]
        pub fn gtx_1080_ti() -> Self {
            GpuPower {
                compute_watts: 250.0,
                memory_watts: 150.0,
                idle_watts: 12.0,
            }
        }
    }

    /// Energy (mJ) of one operation at `precision`.
    #[must_use]
    pub fn op_energy_mj(
        op: &OpShape,
        precision: GpuPrecision,
        device: &GpuDevice,
        power: &GpuPower,
    ) -> f64 {
        let bytes_per_elem = f64::from(precision.bits()) / 8.0;
        let mut energy_j = 0.0;
        for layer in &op.layers {
            if matches!(layer.kind, crate::shapes::LayerKind::Other { .. }) {
                continue;
            }
            let compute_s = layer.work() / device.sustained_macs(precision);
            let bytes = (layer.params() + 2.0 * layer.activations()) * bytes_per_elem;
            let memory_s = bytes / device.sustained_bw();
            // Bound phase dominates the power draw; the overhead window
            // draws idle power.
            let (busy_s, watts) = if compute_s >= memory_s {
                (compute_s, power.compute_watts)
            } else {
                (memory_s, power.memory_watts)
            };
            let overhead_s = device.layer_overhead_ms(precision) / 1e3;
            energy_j += busy_s * watts + overhead_s * power.idle_watts;
        }
        energy_j * 1e3
    }

    /// Energy (mJ) of a whole network at uniform `precision`.
    #[must_use]
    pub fn network_energy_mj(
        net: &NetworkShape,
        precision: GpuPrecision,
        device: &GpuDevice,
        power: &GpuPower,
    ) -> f64 {
        net.ops
            .iter()
            .map(|op| op_energy_mj(op, precision, device, power))
            .sum()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::shapes::OpShape;

        #[test]
        fn energy_positive_and_monotone_in_precision() {
            let d = GpuDevice::titan_rtx();
            let p = GpuPower::titan_rtx();
            let op = OpShape::mbconv(64, 64, 5, 6, 14, 14, 1);
            let e32 = op_energy_mj(&op, GpuPrecision::Fp32, &d, &p);
            let e16 = op_energy_mj(&op, GpuPrecision::Fp16, &d, &p);
            let e8 = op_energy_mj(&op, GpuPrecision::Int8, &d, &p);
            assert!(e32 > 0.0);
            assert!(e32 >= e16 && e16 >= e8, "{e32} {e16} {e8}");
        }

        #[test]
        fn network_energy_sums_ops() {
            let d = GpuDevice::titan_rtx();
            let p = GpuPower::titan_rtx();
            let op = OpShape::mbconv(32, 32, 3, 4, 16, 16, 1);
            let net1 = NetworkShape {
                name: "one".into(),
                ops: vec![op.clone()],
            };
            let net2 = NetworkShape {
                name: "two".into(),
                ops: vec![op.clone(), op],
            };
            let e1 = network_energy_mj(&net1, GpuPrecision::Fp16, &d, &p);
            let e2 = network_energy_mj(&net2, GpuPrecision::Fp16, &d, &p);
            assert!((e2 - 2.0 * e1).abs() < 1e-9);
        }

        #[test]
        fn bigger_work_costs_more_energy() {
            let d = GpuDevice::gtx_1080_ti();
            let p = GpuPower::gtx_1080_ti();
            let small = OpShape::mbconv(16, 16, 3, 4, 8, 8, 1);
            let large = OpShape::mbconv(64, 64, 5, 6, 28, 28, 1);
            assert!(
                op_energy_mj(&large, GpuPrecision::Fp32, &d, &p)
                    > op_energy_mj(&small, GpuPrecision::Fp32, &d, &p)
            );
        }
    }
}
