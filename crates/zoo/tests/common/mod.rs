//! Helpers shared by the zoo's integration suites.

use edd_ir::PassConfig;

/// Every pass configuration the equivalence suites exercise: the bare
/// lowering (`none`, the reference), each optional pass on its own, and
/// the full pipeline.
pub fn pass_configs() -> Vec<(&'static str, PassConfig)> {
    let mut out = vec![("none", PassConfig::none())];
    for name in edd_ir::PASS_NAMES {
        let mut cfg = PassConfig::none();
        cfg.set(name, true).unwrap();
        out.push((name, cfg));
    }
    out.push(("all", PassConfig::all()));
    out
}
