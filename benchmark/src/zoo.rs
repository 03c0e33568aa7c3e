//! The deploy pipeline every inference workload sets up with, built only
//! from the IR path: `prepare_tiny_zoo` → `lower_to_graph` → `edd_ir::lower`
//! → artifact bytes → artifact load → `CompiledModel`.

use crate::clock::now_ns;
use crate::report::Outcome;
use crate::stats::median;
use edd_ir::{artifact, CompiledModel, PassConfig};

/// Zoo weights are fixed, so every run serves the same models and outputs
/// can be checked; the run seed drives only inputs and schedules.
pub const ZOO_SEED: u64 = 0x00DD_5EED;

/// One compiled zoo model, as loaded back from its artifact bytes.
#[derive(Debug)]
pub struct Deployed {
    /// Architecture name (`edd-tiny-int8`, ...).
    pub name: String,
    /// The executable model.
    pub model: CompiledModel,
}

/// Where one deploy spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeployTimes {
    /// Whole pipeline, all models.
    pub total_ns: u64,
    /// `edd_ir::lower` (passes + quantize lowering), all models.
    pub lower_ns: u64,
    /// Artifact encode + decode, all models.
    pub artifact_ns: u64,
}

impl DeployTimes {
    /// Sets the set-up-only layer metrics: the median over `samples` of
    /// the passes and of the artifact round trip.
    pub fn report(samples: &[DeployTimes], out: &mut Outcome) {
        if samples.is_empty() {
            return;
        }
        let ms = |f: fn(&DeployTimes) -> u64| {
            median(
                &samples
                    .iter()
                    .map(|t| f(t) as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        out.set("ir.passes.lower_ms", ms(|t| t.lower_ns));
        out.set("ir.artifact.roundtrip_ms", ms(|t| t.artifact_ns));
    }
}

/// Runs the deploy pipeline for the whole tiny zoo.
///
/// # Errors
///
/// Any lowering, artifact or validation failure, as text.
pub fn deploy() -> Result<(Vec<Deployed>, DeployTimes), String> {
    let t0 = now_ns();
    let mut times = DeployTimes::default();
    let mut out = Vec::new();
    for (arch, qat, calib) in edd_zoo::prepare_tiny_zoo(ZOO_SEED) {
        let float = edd_core::lower_to_graph(&qat, &arch, &calib).map_err(|e| e.to_string())?;
        let t = now_ns();
        let (lowered, _) = edd_ir::lower(&float, &PassConfig::all()).map_err(|e| e.to_string())?;
        let t_lowered = now_ns();
        let bytes = artifact::to_bytes(&lowered).map_err(|e| e.to_string())?;
        let loaded = artifact::from_bytes(&bytes).map_err(|e| e.to_string())?;
        let t_loaded = now_ns();
        times.lower_ns += t_lowered - t;
        times.artifact_ns += t_loaded - t_lowered;
        let model = CompiledModel::from_graph(loaded).map_err(|e| e.to_string())?;
        out.push(Deployed {
            name: arch.name,
            model,
        });
    }
    times.total_ns = now_ns() - t0;
    Ok((out, times))
}
