//! Process-wide kernel-runtime counters: relaxed atomics updated from the
//! worker pool and scratch arena, sampled by the layers above.
//!
//! This crate deliberately does **not** depend on `edd-runtime`'s telemetry
//! sink — the pool's dispatch decision and the arena's rewind sit on the
//! hottest paths in the workspace, and a relaxed `fetch_add` is the entire
//! overhead budget they can afford. Consumers (the search loop, the bench
//! harness) read a [`KernelStats`] snapshot and emit it as gauges through
//! whatever sink they use.

use std::sync::atomic::{AtomicU64, Ordering};

/// Parallel-for regions dispatched through the shared job queue.
static POOL_PARALLEL_JOBS: AtomicU64 = AtomicU64::new(0);
/// Parallel-for regions executed inline (single task, one logical thread,
/// or nested inside another region).
static POOL_INLINE_JOBS: AtomicU64 = AtomicU64::new(0);
/// Total tasks executed across all regions, inline and parallel.
static POOL_TASKS: AtomicU64 = AtomicU64::new(0);
/// Physical worker threads spawned over the process lifetime.
static POOL_WORKERS_SPAWNED: AtomicU64 = AtomicU64::new(0);
/// Peak scratch-arena footprint (bytes) observed on any single thread.
static SCRATCH_HIGH_WATER_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes of pool-eligible tensor storage served by fresh system allocations.
static BUFFER_FRESH_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes of pool-eligible tensor storage served from recycling free lists.
static BUFFER_RECYCLED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Pool-eligible buffer requests satisfied from a free list.
static BUFFER_POOL_HITS: AtomicU64 = AtomicU64::new(0);
/// Pool-eligible buffer requests that fell back to the system allocator.
static BUFFER_POOL_MISSES: AtomicU64 = AtomicU64::new(0);
/// GEMM dispatches routed to the vector-matrix (skinny-M) blueprint.
static SELECT_VECMAT: AtomicU64 = AtomicU64::new(0);
/// GEMM dispatches routed to the skinny-N blueprint.
static SELECT_SKINNY_N: AtomicU64 = AtomicU64::new(0);
/// GEMM dispatches routed to the square/general packed blueprint.
static SELECT_SQUARE: AtomicU64 = AtomicU64::new(0);
/// GEMM dispatches arriving from an im2col convolution lowering.
static SELECT_CONV: AtomicU64 = AtomicU64::new(0);
/// Weight panels packed once at compile/construction time.
static PACK_PANELS_BUILT: AtomicU64 = AtomicU64::new(0);
/// Kernel invocations served by a cached prepacked weight panel.
static PACK_PANEL_HITS: AtomicU64 = AtomicU64::new(0);
/// Per-call activation-panel packs (no cache possible: data changes).
static PACK_PANEL_MISSES: AtomicU64 = AtomicU64::new(0);
/// Bytes of int8 RHS panels written by the AVX2 body of `pack_rhs_i8`.
static PACK_RHS_VECTOR_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes of int8 RHS panels written by the scalar walk of `pack_rhs_i8`.
static PACK_RHS_SCALAR_BYTES: AtomicU64 = AtomicU64::new(0);
/// Int8 output rows requantized by the AVX2 body.
static REQUANT_ROWS_VECTOR: AtomicU64 = AtomicU64::new(0);
/// Int8 output rows requantized by the scalar bodies.
static REQUANT_ROWS_SCALAR: AtomicU64 = AtomicU64::new(0);
/// Int8 depthwise planes run by the paired-tap AVX2 body.
static DW_PLANES_VECTOR: AtomicU64 = AtomicU64::new(0);
/// Int8 depthwise planes run by the scalar body.
static DW_PLANES_SCALAR: AtomicU64 = AtomicU64::new(0);
/// Int8 residual-add elements summed by the AVX2 gather body.
static QADD_ELEMS_VECTOR: AtomicU64 = AtomicU64::new(0);
/// Int8 residual-add elements summed by the scalar loop.
static QADD_ELEMS_SCALAR: AtomicU64 = AtomicU64::new(0);
/// Float values quantized to int8 by the AVX2 body.
static QUANTIZE_ELEMS_VECTOR: AtomicU64 = AtomicU64::new(0);
/// Float values quantized to int8 by the scalar loop.
static QUANTIZE_ELEMS_SCALAR: AtomicU64 = AtomicU64::new(0);

/// Point-in-time snapshot of the kernel-runtime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Parallel-for regions that went through the worker-pool job queue.
    pub pool_parallel_jobs: u64,
    /// Parallel-for regions executed inline on the calling thread.
    pub pool_inline_jobs: u64,
    /// Total tasks executed (inline + parallel).
    pub pool_tasks: u64,
    /// Physical worker threads spawned so far.
    pub pool_workers_spawned: u64,
    /// Peak per-thread scratch-arena footprint in bytes.
    pub scratch_high_water_bytes: u64,
    /// Bytes of pool-eligible tensor storage freshly allocated (see
    /// [`crate::recycle`]; sub-threshold vectors are not counted).
    pub buffer_fresh_bytes: u64,
    /// Bytes of pool-eligible tensor storage served from recycling bins.
    pub buffer_recycled_bytes: u64,
    /// Pool-eligible buffer requests satisfied from a free list.
    pub buffer_pool_hits: u64,
    /// Pool-eligible buffer requests that missed and hit the allocator.
    pub buffer_pool_misses: u64,
    /// GEMM dispatches classified vector-matrix (m below the row tile).
    pub select_vecmat: u64,
    /// GEMM dispatches classified skinny-N (n below the column tile).
    pub select_skinny_n: u64,
    /// GEMM dispatches classified square/general.
    pub select_square: u64,
    /// GEMM dispatches tagged as im2col convolution lowerings.
    pub select_conv: u64,
    /// Always 0: every GEMM runs a selected blueprint. Kept because the
    /// repo benchmark's reports (`benchmark/src/report.rs`) still read it.
    pub select_generic: u64,
    /// Weight panels packed once at compile/construction time.
    pub pack_panels_built: u64,
    /// Kernel invocations that reused a cached prepacked weight panel.
    pub pack_panel_hits: u64,
    /// Per-call activation-panel packs (inherently uncacheable).
    pub pack_panel_misses: u64,
    /// Bytes of int8 RHS panels written by the AVX2 transpose of
    /// [`pack_rhs_i8`](crate::kernel::pack::pack_rhs_i8).
    pub pack_rhs_vector_bytes: u64,
    /// Bytes of int8 RHS panels written by its scalar walk: the whole pack
    /// without AVX2, otherwise the partial K-group and the `n % 32` column
    /// tail.
    pub pack_rhs_scalar_bytes: u64,
    /// Int8 output rows (one output channel of one image: a conv's GEMM
    /// row or a depthwise plane) requantized by the AVX2 body of
    /// [`requantize_rows_into`](crate::qkernel::requantize_rows_into) or
    /// of the depthwise kernel.
    pub requant_rows_vector: u64,
    /// Int8 output rows requantized by the scalar bodies (equal to
    /// [`RowEpilogue::apply`](crate::qkernel::RowEpilogue::apply) per
    /// element): every row without AVX2, otherwise the rows outside the
    /// vector domain and the depthwise planes the scalar body runs.
    pub requant_rows_scalar: u64,
    /// Int8 depthwise planes run by the paired-tap AVX2 body of
    /// [`qdw_planes_into`](crate::qkernel::qdw_planes_into).
    pub dw_planes_vector: u64,
    /// Int8 depthwise planes run by its scalar body (stride above 2,
    /// `out_w < 8`, an epilogue outside the vector domain, or no AVX2).
    pub dw_planes_scalar: u64,
    /// Int8 residual-add elements summed by the AVX2 gather body of
    /// [`add_tables_into`](crate::qkernel::add_tables_into).
    pub qadd_elems_vector: u64,
    /// Int8 residual-add elements summed by its scalar loop: every element
    /// without AVX2 or outside the tables' exact domain, otherwise the
    /// `len % 8` tail.
    pub qadd_elems_scalar: u64,
    /// Float values quantized by the AVX2 body of
    /// [`quantize_i8_into`](crate::qkernel::quantize_i8_into).
    pub quantize_elems_vector: u64,
    /// Float values quantized by its scalar loop (calls below 8 values, or
    /// no AVX2).
    pub quantize_elems_scalar: u64,
}

impl KernelStats {
    /// Fraction of parallel-for regions that actually ran parallel; `None`
    /// before any region has executed.
    #[must_use]
    pub fn pool_utilization(&self) -> Option<f64> {
        let total = self.pool_parallel_jobs + self.pool_inline_jobs;
        (total > 0).then(|| self.pool_parallel_jobs as f64 / total as f64)
    }
}

/// Reads all counters (relaxed; values from concurrent updates may be
/// mutually torn across fields, which is fine for monitoring).
#[must_use]
pub fn snapshot() -> KernelStats {
    KernelStats {
        pool_parallel_jobs: POOL_PARALLEL_JOBS.load(Ordering::Relaxed),
        pool_inline_jobs: POOL_INLINE_JOBS.load(Ordering::Relaxed),
        pool_tasks: POOL_TASKS.load(Ordering::Relaxed),
        pool_workers_spawned: POOL_WORKERS_SPAWNED.load(Ordering::Relaxed),
        scratch_high_water_bytes: SCRATCH_HIGH_WATER_BYTES.load(Ordering::Relaxed),
        buffer_fresh_bytes: BUFFER_FRESH_BYTES.load(Ordering::Relaxed),
        buffer_recycled_bytes: BUFFER_RECYCLED_BYTES.load(Ordering::Relaxed),
        buffer_pool_hits: BUFFER_POOL_HITS.load(Ordering::Relaxed),
        buffer_pool_misses: BUFFER_POOL_MISSES.load(Ordering::Relaxed),
        select_vecmat: SELECT_VECMAT.load(Ordering::Relaxed),
        select_skinny_n: SELECT_SKINNY_N.load(Ordering::Relaxed),
        select_square: SELECT_SQUARE.load(Ordering::Relaxed),
        select_conv: SELECT_CONV.load(Ordering::Relaxed),
        select_generic: 0,
        pack_panels_built: PACK_PANELS_BUILT.load(Ordering::Relaxed),
        pack_panel_hits: PACK_PANEL_HITS.load(Ordering::Relaxed),
        pack_panel_misses: PACK_PANEL_MISSES.load(Ordering::Relaxed),
        pack_rhs_vector_bytes: PACK_RHS_VECTOR_BYTES.load(Ordering::Relaxed),
        pack_rhs_scalar_bytes: PACK_RHS_SCALAR_BYTES.load(Ordering::Relaxed),
        requant_rows_vector: REQUANT_ROWS_VECTOR.load(Ordering::Relaxed),
        requant_rows_scalar: REQUANT_ROWS_SCALAR.load(Ordering::Relaxed),
        dw_planes_vector: DW_PLANES_VECTOR.load(Ordering::Relaxed),
        dw_planes_scalar: DW_PLANES_SCALAR.load(Ordering::Relaxed),
        qadd_elems_vector: QADD_ELEMS_VECTOR.load(Ordering::Relaxed),
        qadd_elems_scalar: QADD_ELEMS_SCALAR.load(Ordering::Relaxed),
        quantize_elems_vector: QUANTIZE_ELEMS_VECTOR.load(Ordering::Relaxed),
        quantize_elems_scalar: QUANTIZE_ELEMS_SCALAR.load(Ordering::Relaxed),
    }
}

/// Zeroes every counter (bench harness isolation between phases).
pub fn reset() {
    POOL_PARALLEL_JOBS.store(0, Ordering::Relaxed);
    POOL_INLINE_JOBS.store(0, Ordering::Relaxed);
    POOL_TASKS.store(0, Ordering::Relaxed);
    POOL_WORKERS_SPAWNED.store(0, Ordering::Relaxed);
    SCRATCH_HIGH_WATER_BYTES.store(0, Ordering::Relaxed);
    BUFFER_FRESH_BYTES.store(0, Ordering::Relaxed);
    BUFFER_RECYCLED_BYTES.store(0, Ordering::Relaxed);
    BUFFER_POOL_HITS.store(0, Ordering::Relaxed);
    BUFFER_POOL_MISSES.store(0, Ordering::Relaxed);
    SELECT_VECMAT.store(0, Ordering::Relaxed);
    SELECT_SKINNY_N.store(0, Ordering::Relaxed);
    SELECT_SQUARE.store(0, Ordering::Relaxed);
    SELECT_CONV.store(0, Ordering::Relaxed);
    PACK_PANELS_BUILT.store(0, Ordering::Relaxed);
    PACK_PANEL_HITS.store(0, Ordering::Relaxed);
    PACK_PANEL_MISSES.store(0, Ordering::Relaxed);
    PACK_RHS_VECTOR_BYTES.store(0, Ordering::Relaxed);
    PACK_RHS_SCALAR_BYTES.store(0, Ordering::Relaxed);
    REQUANT_ROWS_VECTOR.store(0, Ordering::Relaxed);
    REQUANT_ROWS_SCALAR.store(0, Ordering::Relaxed);
    DW_PLANES_VECTOR.store(0, Ordering::Relaxed);
    DW_PLANES_SCALAR.store(0, Ordering::Relaxed);
    QADD_ELEMS_VECTOR.store(0, Ordering::Relaxed);
    QADD_ELEMS_SCALAR.store(0, Ordering::Relaxed);
    QUANTIZE_ELEMS_VECTOR.store(0, Ordering::Relaxed);
    QUANTIZE_ELEMS_SCALAR.store(0, Ordering::Relaxed);
}

/// Counts one GEMM dispatch for the given shape class (crate-internal:
/// the selector calls this once per front-level GEMM call).
pub(crate) fn record_select_dispatch(class: crate::kernel::select::GemmClass) {
    use crate::kernel::select::GemmClass;
    let ctr = match class {
        GemmClass::VecMat => &SELECT_VECMAT,
        GemmClass::SkinnyN => &SELECT_SKINNY_N,
        GemmClass::Square => &SELECT_SQUARE,
        GemmClass::Conv => &SELECT_CONV,
    };
    ctr.fetch_add(1, Ordering::Relaxed);
}

/// Counts one weight panel packed at compile/construction time. Public:
/// the layer crates build their panels outside `edd-tensor`.
pub fn record_pack_panel_built() {
    PACK_PANELS_BUILT.fetch_add(1, Ordering::Relaxed);
}

/// Counts one kernel invocation served by a cached prepacked weight panel.
pub fn record_pack_panel_hit() {
    PACK_PANEL_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Counts one per-call activation-panel pack.
pub fn record_pack_panel_miss() {
    PACK_PANEL_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Accounts one `pack_rhs_i8` call: the bytes its vector and scalar
/// bodies wrote.
pub(crate) fn record_pack_rhs_bytes(vector: usize, scalar: usize) {
    PACK_RHS_VECTOR_BYTES.fetch_add(vector as u64, Ordering::Relaxed);
    PACK_RHS_SCALAR_BYTES.fetch_add(scalar as u64, Ordering::Relaxed);
}

/// Accounts one requantizing call: the rows its vector and per-element
/// paths took.
pub(crate) fn record_requant_rows(vector: usize, scalar: usize) {
    add_nonzero(&REQUANT_ROWS_VECTOR, vector);
    add_nonzero(&REQUANT_ROWS_SCALAR, scalar);
}

/// Accounts one depthwise call: the planes its vector and scalar bodies
/// ran.
pub(crate) fn record_dw_planes(vector: usize, scalar: usize) {
    add_nonzero(&DW_PLANES_VECTOR, vector);
    add_nonzero(&DW_PLANES_SCALAR, scalar);
}

/// Accounts one residual-add call: the elements its vector and scalar
/// bodies summed.
pub(crate) fn record_qadd_elems(vector: usize, scalar: usize) {
    add_nonzero(&QADD_ELEMS_VECTOR, vector);
    add_nonzero(&QADD_ELEMS_SCALAR, scalar);
}

/// Accounts one quantize call: the values its vector and scalar bodies
/// converted.
pub(crate) fn record_quantize_elems(vector: usize, scalar: usize) {
    add_nonzero(&QUANTIZE_ELEMS_VECTOR, vector);
    add_nonzero(&QUANTIZE_ELEMS_SCALAR, scalar);
}

/// One relaxed add, skipped when there is nothing to count.
fn add_nonzero(ctr: &AtomicU64, n: usize) {
    if n > 0 {
        ctr.fetch_add(n as u64, Ordering::Relaxed);
    }
}

pub(crate) fn record_pool_job(tasks: usize, inline: bool) {
    if inline {
        POOL_INLINE_JOBS.fetch_add(1, Ordering::Relaxed);
    } else {
        POOL_PARALLEL_JOBS.fetch_add(1, Ordering::Relaxed);
    }
    POOL_TASKS.fetch_add(tasks as u64, Ordering::Relaxed);
}

pub(crate) fn record_worker_spawned() {
    POOL_WORKERS_SPAWNED.fetch_add(1, Ordering::Relaxed);
}

/// Folds one thread's cycle high-water mark (in bytes) into the global max.
pub(crate) fn record_scratch_high_water(bytes: u64) {
    SCRATCH_HIGH_WATER_BYTES.fetch_max(bytes, Ordering::Relaxed);
}

/// Accounts one pool-eligible buffer request from [`crate::recycle`].
pub(crate) fn record_buffer_request(bytes: u64, recycled: bool) {
    if recycled {
        BUFFER_RECYCLED_BYTES.fetch_add(bytes, Ordering::Relaxed);
        BUFFER_POOL_HITS.fetch_add(1, Ordering::Relaxed);
    } else {
        BUFFER_FRESH_BYTES.fetch_add(bytes, Ordering::Relaxed);
        BUFFER_POOL_MISSES.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let s = KernelStats {
            pool_parallel_jobs: 3,
            pool_inline_jobs: 1,
            ..KernelStats::default()
        };
        assert_eq!(s.pool_utilization(), Some(0.75));
        assert_eq!(KernelStats::default().pool_utilization(), None);
    }

    #[test]
    fn high_water_takes_the_max() {
        // Other tests run concurrently in this process, so only assert
        // monotonicity, not exact values.
        record_scratch_high_water(10);
        let a = snapshot().scratch_high_water_bytes;
        assert!(a >= 10);
        record_scratch_high_water(5);
        assert!(snapshot().scratch_high_water_bytes >= a);
    }
}
