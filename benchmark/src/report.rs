//! The metric tables, the result line, and host context.
//!
//! Every workload reports the same metric names, so a name means one thing
//! across workloads; what counts as one operation differs per workload and
//! is documented in the README. A per-layer metric of a layer a workload
//! does not exercise reads 0.

use crate::stats::ratio;
use edd_tensor::stats::KernelStats;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Printed by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Printed by traced runs.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("bench.gen_late_us_p99", "us"),
    ("bench.closed_latency_p50_ms", "ms"),
    ("bench.decomp_residual_frac", "frac"),
    ("traced.latency_p50_ms", "ms"),
    ("traced.latency_p90_ms", "ms"),
    ("traced.throughput_per_s", "1/s"),
    ("runtime.serve.queue_wait_us_p50", "us"),
    ("runtime.serve.queue_wait_us_p99", "us"),
    ("runtime.serve.batch_size_mean", "count"),
    ("runtime.serve.fulfil_us_p50", "us"),
    ("ir.passes.lower_ms", "ms"),
    ("ir.artifact.roundtrip_ms", "ms"),
    ("ir.exec.batch_us_p50", "us"),
    ("ir.exec.us_per_image", "us"),
    ("ir.exec.busy_frac", "frac"),
    ("core.search.weight_ms", "ms"),
    ("core.search.arch_ms", "ms"),
    ("core.search.val_ms", "ms"),
    ("core.sweep.weight_ms", "ms"),
    ("core.sweep.targets_ms", "ms"),
    ("core.sweep.arch_ms_max", "ms"),
    ("core.sweep.amortization", "ratio"),
    ("tensor.select_vecmat_per_op", "count"),
    ("tensor.select_skinny_n_per_op", "count"),
    ("tensor.select_square_per_op", "count"),
    ("tensor.select_conv_per_op", "count"),
    ("tensor.select_generic_per_op", "count"),
    ("tensor.pack_panel_hit_frac", "frac"),
    ("tensor.buffer_pool_hit_frac", "frac"),
    ("tensor.buffer_fresh_bytes_per_op", "B"),
    ("tensor.pool_utilization", "frac"),
    ("tensor.scratch_high_water_bytes", "B"),
];

/// What one run measured and found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the benchmark attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets metric `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither metric table (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("unknown metric `{name}`"));
        self.metrics.insert(key, value);
    }

    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Whether every operation succeeded and every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Fills in the table for this mode and checks it: an untraced run
    /// must have measured every end-to-end metric as a positive finite
    /// number; a traced run reports 0 for layers it did not exercise.
    pub fn finish(&mut self, traced: bool) {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (name, _) in table {
            match self.metrics.get(name).copied() {
                Some(v) if !v.is_finite() => {
                    self.problem(format!("metric {name} is {v}"));
                    self.metrics.insert(name, 0.0);
                }
                Some(v) if !traced && v <= 0.0 => self.problem(format!("metric {name} is {v}")),
                Some(_) => {}
                None if traced => {
                    self.metrics.insert(name, 0.0);
                }
                None => {
                    self.problem(format!("metric {name} was not measured"));
                    self.metrics.insert(name, 0.0);
                }
            }
        }
    }

    /// The JSON result line for this mode's table.
    #[must_use]
    pub fn result_line(&self, traced: bool) -> String {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Host context every result is read against.
#[must_use]
pub fn host_context() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "nproc={nproc} edd_num_threads={} simd={} gemm={}",
        edd_tensor::kernel::pool::num_threads(),
        edd_tensor::kernel::simd_label(),
        edd_tensor::kernel::select::gemm_label()
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), if readable.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Kernel-runtime counters (`edd_tensor::stats`) summed over the measured
/// intervals of a run, leaving out the set-up work done between them.
#[derive(Debug, Default, Clone, Copy)]
pub struct TensorCounts(KernelStats);

impl TensorCounts {
    /// Runs `f` and adds the counts it accumulated.
    pub fn measure<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = edd_tensor::stats::snapshot();
        let result = f();
        self.add(&before, &edd_tensor::stats::snapshot());
        result
    }

    /// Adds the counts accumulated between two snapshots.
    fn add(&mut self, before: &KernelStats, after: &KernelStats) {
        let s = &mut self.0;
        let d = |a: u64, b: u64| a.saturating_sub(b);
        s.select_vecmat += d(after.select_vecmat, before.select_vecmat);
        s.select_skinny_n += d(after.select_skinny_n, before.select_skinny_n);
        s.select_square += d(after.select_square, before.select_square);
        s.select_conv += d(after.select_conv, before.select_conv);
        s.select_generic += d(after.select_generic, before.select_generic);
        s.pack_panel_hits += d(after.pack_panel_hits, before.pack_panel_hits);
        s.pack_panel_misses += d(after.pack_panel_misses, before.pack_panel_misses);
        s.buffer_pool_hits += d(after.buffer_pool_hits, before.buffer_pool_hits);
        s.buffer_pool_misses += d(after.buffer_pool_misses, before.buffer_pool_misses);
        s.buffer_fresh_bytes += d(after.buffer_fresh_bytes, before.buffer_fresh_bytes);
        s.pool_parallel_jobs += d(after.pool_parallel_jobs, before.pool_parallel_jobs);
        s.pool_inline_jobs += d(after.pool_inline_jobs, before.pool_inline_jobs);
        s.scratch_high_water_bytes = s
            .scratch_high_water_bytes
            .max(after.scratch_high_water_bytes);
    }

    /// Sets the `tensor.*` metrics, counts taken per operation of the
    /// workload (`ops` of them).
    pub fn report(&self, out: &mut Outcome, ops: f64) {
        let s = &self.0;
        let per_op = |n: u64| ratio(n as f64, ops);
        let frac = |a: u64, b: u64| ratio(a as f64, (a + b) as f64);
        out.set("tensor.select_vecmat_per_op", per_op(s.select_vecmat));
        out.set("tensor.select_skinny_n_per_op", per_op(s.select_skinny_n));
        out.set("tensor.select_square_per_op", per_op(s.select_square));
        out.set("tensor.select_conv_per_op", per_op(s.select_conv));
        out.set("tensor.select_generic_per_op", per_op(s.select_generic));
        out.set(
            "tensor.pack_panel_hit_frac",
            frac(s.pack_panel_hits, s.pack_panel_misses),
        );
        out.set(
            "tensor.buffer_pool_hit_frac",
            frac(s.buffer_pool_hits, s.buffer_pool_misses),
        );
        out.set(
            "tensor.buffer_fresh_bytes_per_op",
            per_op(s.buffer_fresh_bytes),
        );
        out.set(
            "tensor.pool_utilization",
            frac(s.pool_parallel_jobs, s.pool_inline_jobs),
        );
        out.set(
            "tensor.scratch_high_water_bytes",
            s.scratch_high_water_bytes as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_result_needs_every_end_to_end_metric() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            if i > 0 {
                o.set(name, 1.5);
            }
        }
        o.finish(false);
        assert!(!o.correct(), "setup_s missing");
        let line = o.result_line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"latency_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(!line.contains("tensor."));
    }

    #[test]
    fn traced_result_zero_fills_unexercised_layers() {
        let mut o = Outcome::default();
        o.set("ir.exec.batch_us_p50", 80.25);
        o.finish(true);
        assert!(o.correct());
        let line = o.result_line(true);
        assert!(line.contains("\"ir.exec.batch_us_p50\": {\"value\": 80.25, \"unit\": \"us\"}"));
        assert!(line.contains("\"core.search.weight_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(!line.contains("setup_s"));
        assert!(line.contains("\"attempted\": 1"), "attempted is at least 1");
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "unknown metric")]
    fn unknown_metric_is_a_bug() {
        Outcome::default().set("latency_p42_ms", 1.0);
    }
}
