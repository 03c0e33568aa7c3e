//! Device targets for the co-search: GPU (latency), recursive FPGA
//! (latency, resource sharing) and pipelined FPGA (throughput), per paper
//! §4 and §6.

use edd_hw::{AccelDevice, FpgaDevice, GpuDevice};
use serde::{Deserialize, Serialize};

/// Which whole-network performance objective Stage-4 aggregates to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PerfObjective {
    /// End-to-end latency: sum of block terms (Eq. 6).
    Latency,
    /// Throughput: smooth max (Log-Sum-Exp) of block terms (Eq. 7).
    Throughput,
}

/// The hardware target of a search — determines the Stage-1 model, the
/// Stage-4 aggregation, the structure of `Φ`/`pf`, and the resource bound.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeviceTarget {
    /// General-purpose GPU: latency objective, uniform network precision
    /// (`φ_{i,m,q} = φ_q`, §4.2), fixed resources.
    Gpu(GpuDevice),
    /// Recursive FPGA accelerator: latency objective, IP sharing across
    /// blocks (`Iᵢᵐ = Iⱼᵐ`), shared `Φ`/`pf` per op class (§4.1).
    FpgaRecursive(FpgaDevice),
    /// Pipelined FPGA accelerator: throughput objective, per-stage
    /// implementation variables, no sharing (§4.1).
    FpgaPipelined(FpgaDevice),
    /// Dedicated bit-flexible accelerator (Stripes/Loom/Bit-Fusion class,
    /// §4.3): latency objective, per-op mixed precision, fixed silicon
    /// (no parallel factors, no resource bound). The paper sketches this
    /// target as future work; implemented here.
    Dedicated(AccelDevice),
}

impl DeviceTarget {
    /// The Stage-4 performance objective for this target.
    #[must_use]
    pub fn objective(&self) -> PerfObjective {
        match self {
            DeviceTarget::Gpu(_) | DeviceTarget::FpgaRecursive(_) | DeviceTarget::Dedicated(_) => {
                PerfObjective::Latency
            }
            DeviceTarget::FpgaPipelined(_) => PerfObjective::Throughput,
        }
    }

    /// Whether op implementations (and hence resources) are shared across
    /// blocks.
    #[must_use]
    pub fn shares_resource(&self) -> bool {
        matches!(self, DeviceTarget::FpgaRecursive(_))
    }

    /// Whether parallel factors are part of the implementation space.
    #[must_use]
    pub fn has_parallel_factors(&self) -> bool {
        !matches!(self, DeviceTarget::Gpu(_) | DeviceTarget::Dedicated(_))
    }

    /// The default quantization menu of the target: the paper searches
    /// 8/16/32-bit weights on GPU and 4/8/16-bit weights on FPGA (§6).
    #[must_use]
    pub fn default_quant_bits(&self) -> Vec<u32> {
        match self {
            DeviceTarget::Gpu(_) => vec![8, 16, 32],
            DeviceTarget::FpgaRecursive(_) | DeviceTarget::FpgaPipelined(_) => vec![4, 8, 16],
            DeviceTarget::Dedicated(_) => vec![2, 4, 8, 16],
        }
    }

    /// The resource upper bound `RES_ub` (DSP slices for FPGAs; GPUs have
    /// fixed resources, modeled as unbounded).
    #[must_use]
    pub fn resource_bound(&self) -> f64 {
        match self {
            DeviceTarget::Gpu(_) | DeviceTarget::Dedicated(_) => f64::INFINITY,
            DeviceTarget::FpgaRecursive(d) | DeviceTarget::FpgaPipelined(d) => d.dsp_budget,
        }
    }

    /// Stable machine-readable key — the CLI spelling of the target family
    /// (`gpu`, `fpga-recursive`, `fpga-pipelined`, `dedicated`). Used as
    /// the `target` column of epoch records, as the per-target label inside
    /// a sweep, and as the checkpoint-filename label, so it must stay free
    /// of characters that are unsafe in file names or CSV cells.
    #[must_use]
    pub fn key(&self) -> &'static str {
        match self {
            DeviceTarget::Gpu(_) => "gpu",
            DeviceTarget::FpgaRecursive(_) => "fpga-recursive",
            DeviceTarget::FpgaPipelined(_) => "fpga-pipelined",
            DeviceTarget::Dedicated(_) => "dedicated",
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            DeviceTarget::Gpu(d) => format!("GPU({})", d.name),
            DeviceTarget::FpgaRecursive(d) => format!("FPGA-recursive({})", d.name),
            DeviceTarget::FpgaPipelined(d) => format!("FPGA-pipelined({})", d.name),
            DeviceTarget::Dedicated(d) => format!("Dedicated({})", d.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objectives_per_target() {
        let gpu = DeviceTarget::Gpu(GpuDevice::titan_rtx());
        let rec = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
        let pipe = DeviceTarget::FpgaPipelined(FpgaDevice::zc706());
        assert_eq!(gpu.objective(), PerfObjective::Latency);
        assert_eq!(rec.objective(), PerfObjective::Latency);
        assert_eq!(pipe.objective(), PerfObjective::Throughput);
    }

    #[test]
    fn sharing_and_precision_flags() {
        let gpu = DeviceTarget::Gpu(GpuDevice::titan_rtx());
        let rec = DeviceTarget::FpgaRecursive(FpgaDevice::zcu102());
        let pipe = DeviceTarget::FpgaPipelined(FpgaDevice::zc706());
        assert!(rec.shares_resource() && !pipe.shares_resource() && !gpu.shares_resource());
        assert!(!gpu.has_parallel_factors() && rec.has_parallel_factors());
    }

    #[test]
    fn quant_menus_match_paper() {
        assert_eq!(
            DeviceTarget::Gpu(GpuDevice::titan_rtx()).default_quant_bits(),
            vec![8, 16, 32]
        );
        assert_eq!(
            DeviceTarget::FpgaPipelined(FpgaDevice::zc706()).default_quant_bits(),
            vec![4, 8, 16]
        );
    }

    #[test]
    fn resource_bounds() {
        assert_eq!(
            DeviceTarget::FpgaRecursive(FpgaDevice::zcu102()).resource_bound(),
            2520.0
        );
        assert!(DeviceTarget::Gpu(GpuDevice::titan_rtx())
            .resource_bound()
            .is_infinite());
    }

    #[test]
    fn keys_are_cli_spellings() {
        assert_eq!(DeviceTarget::Gpu(GpuDevice::titan_rtx()).key(), "gpu");
        assert_eq!(
            DeviceTarget::FpgaRecursive(FpgaDevice::zcu102()).key(),
            "fpga-recursive"
        );
        assert_eq!(
            DeviceTarget::FpgaPipelined(FpgaDevice::zc706()).key(),
            "fpga-pipelined"
        );
        assert_eq!(
            DeviceTarget::Dedicated(AccelDevice::loom_like()).key(),
            "dedicated"
        );
    }

    #[test]
    fn labels_mention_device() {
        assert!(DeviceTarget::FpgaPipelined(FpgaDevice::zc706())
            .label()
            .contains("ZC706"));
    }

    #[test]
    fn dedicated_target_properties() {
        let ded = DeviceTarget::Dedicated(AccelDevice::loom_like());
        assert_eq!(ded.objective(), PerfObjective::Latency);
        assert!(!ded.shares_resource());
        assert!(!ded.has_parallel_factors());
        assert_eq!(ded.default_quant_bits(), vec![2, 4, 8, 16]);
        assert!(ded.resource_bound().is_infinite());
        assert!(ded.label().contains("Loom"));
    }
}
