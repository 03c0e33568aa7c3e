//! End-to-end benchmark for the EDD workspace.
//!
//! One binary, one workload per process. Each workload measures the
//! system from outside: it drives public entry points (`Server::submit`,
//! `CoSearch::run`, `SweepSearch::run`), checks every output it can against
//! an oracle, and reports the same end-to-end metrics. A traced run additionally times the calls into each
//! layer — a [`timed::Timed`] model wrapper for the engine, the spans the
//! search loop already emits, deltas of `edd_tensor::stats` — and reports
//! the per-layer metrics instead. See `README.md` for the workloads and
//! what each metric should move.

pub mod report;
pub mod schedule;
pub mod search;
pub mod serve;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod zoo;

use report::Outcome;
use trace::Trace;

/// One process-wide monotonic clock, so spans from every thread compare.
pub mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Nanoseconds since the first call in this process.
    #[must_use]
    pub fn now_ns() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Drives every generated input: arrival schedules, image pools and
    /// search data.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
}

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["serve-poisson", "search"];

/// Kernel-pool threads every workload runs with (the traced sweep of
/// `search` excepted). Serving needs the host's second core for its
/// submitter and collector, and on a shared two-core host a second pool
/// thread measured no faster for serving while it made `search` epoch
/// times drift by a quarter from run to run.
pub const KERNEL_THREADS: usize = 1;

/// Runs workload `name`; `None` if there is no such workload.
#[must_use]
pub fn run_workload(name: &str, args: &Run, trace: Option<&mut Trace>) -> Option<Outcome> {
    Some(match name {
        "serve-poisson" => serve::run(args, trace),
        "search" => search::run(args, trace),
        _ => return None,
    })
}
