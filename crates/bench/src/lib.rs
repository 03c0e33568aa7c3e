//! # edd-bench
//!
//! Benchmark harness for the EDD reproduction: one binary per table/figure
//! of the paper's evaluation (`table1`, `table2`, `table3`, `fig4`, plus
//! ablations), each printing modeled values next to the paper's published
//! numbers. This library crate holds the shared report-formatting and
//! model-evaluation helpers.

#![warn(missing_docs)]

use edd_hw::gpu::GpuPrecision;
use edd_hw::{eval_gpu, eval_recursive, tune_recursive, FpgaDevice, GpuDevice, NetworkShape};

/// Evaluates a network's GPU latency (ms) with the roofline model.
#[must_use]
pub fn gpu_latency_ms(net: &NetworkShape, precision: GpuPrecision, device: &GpuDevice) -> f64 {
    eval_gpu(net, precision, device).latency_ms
}

/// Evaluates a network's recursive-FPGA latency (ms) at uniform `bits`
/// precision with post-search-tuned parallel factors.
#[must_use]
pub fn fpga_recursive_latency_ms(net: &NetworkShape, bits: u32, device: &FpgaDevice) -> f64 {
    let imp = tune_recursive(net, bits, device);
    eval_recursive(net, &imp, device)
        .expect("tuned impl covers all classes")
        .latency_ms
}

/// Formats a ratio comparison line: `label: modeled X vs published Y
/// (ratio R)`.
#[must_use]
pub fn compare_line(label: &str, modeled: f64, published: f64) -> String {
    format!(
        "{label:<22} modeled {modeled:8.2}   published {published:8.2}   (model/paper {:.2}x)",
        modeled / published
    )
}

/// Kendall-tau-style ranking agreement between two score vectors: the
/// fraction of concordant pairs (1.0 = identical ranking).
///
/// # Panics
///
/// Panics if the slices have different lengths or fewer than 2 entries.
#[must_use]
pub fn ranking_agreement(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    assert!(a.len() >= 2, "need at least two entries to rank");
    let mut concordant = 0usize;
    let mut total = 0usize;
    for i in 0..a.len() {
        for j in (i + 1)..a.len() {
            total += 1;
            if ((a[i] - a[j]) * (b[i] - b[j])) >= 0.0 {
                concordant += 1;
            }
        }
    }
    concordant as f64 / total as f64
}

/// Prints the kernel-runtime counters accumulated so far: worker-pool
/// jobs, scratch high-water mark, buffer-pool traffic and GEMM selection,
/// with the host context they were counted under.
pub fn print_kernel_counters() {
    let stats = edd_tensor::stats::snapshot();
    let util = stats.pool_utilization().unwrap_or(0.0);
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let threads = edd_tensor::kernel::pool::num_threads();
    let simd = edd_tensor::kernel::simd_label();
    println!(
        "kernel counters: {} parallel / {} inline jobs (utilization {util:.2}), \
         {} tasks, {} workers, scratch high-water {} bytes",
        stats.pool_parallel_jobs,
        stats.pool_inline_jobs,
        stats.pool_tasks,
        stats.pool_workers_spawned,
        stats.scratch_high_water_bytes
    );
    println!(
        "bench context: nproc {nproc}, threads {threads}, simd {simd}; \
         buffer pool {} hits / {} misses, {} fresh / {} recycled bytes",
        stats.buffer_pool_hits,
        stats.buffer_pool_misses,
        stats.buffer_fresh_bytes,
        stats.buffer_recycled_bytes
    );
    println!(
        "gemm selection: {} vecmat / {} skinny-n / {} square / {} conv; \
         panels {} built, {} hits / {} misses",
        stats.select_vecmat,
        stats.select_skinny_n,
        stats.select_square,
        stats.select_conv,
        stats.pack_panels_built,
        stats.pack_panel_hits,
        stats.pack_panel_misses
    );
}

/// Prints a horizontal rule + title for table output.
pub fn print_header(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_agreement_perfect_and_inverted() {
        let a = [1.0, 2.0, 3.0];
        assert_eq!(ranking_agreement(&a, &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(ranking_agreement(&a, &[3.0, 2.0, 1.0]), 0.0);
    }

    #[test]
    fn compare_line_contains_numbers() {
        let s = compare_line("X", 2.0, 4.0);
        assert!(s.contains("0.50x"));
    }

    #[test]
    fn fpga_helper_runs() {
        let net = edd_zoo::mobilenet_v2();
        let ms = fpga_recursive_latency_ms(&net, 16, &FpgaDevice::zcu102());
        assert!(ms > 0.0 && ms.is_finite());
    }

    #[test]
    fn gpu_helper_runs() {
        let net = edd_zoo::resnet18();
        let ms = gpu_latency_ms(&net, GpuPrecision::Fp32, &GpuDevice::titan_rtx());
        assert!(ms > 0.0 && ms.is_finite());
    }
}
