#!/usr/bin/env bash
# Bitwise-determinism gate, parameterized by environment:
#
#   EDD_NUM_THREADS  initial worker-pool size (the suites then exercise
#                    7/2/1-thread overrides on top of it)
#   EDD_SIMD         kernel dispatch mode: "scalar" or "avx2"
#
# CI runs this script as a {1,2,7} × {scalar,avx2} matrix. The avx2 leg
# skips (exit 0 with a SKIP marker) on hosts whose CPU lacks AVX2, so the
# matrix stays green on any runner while still covering both dispatch
# paths wherever the silicon allows.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${EDD_SIMD:-}"
if [[ "$mode" == "avx2" ]] && ! grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    echo "DETERMINISM_RESULT: SKIP (EDD_SIMD=avx2 requested but CPU lacks AVX2)"
    exit 0
fi

echo "determinism: EDD_NUM_THREADS=${EDD_NUM_THREADS:-<default>} EDD_SIMD=${mode:-<auto>}"

cargo test --locked -q -p edd-tensor --test determinism
cargo test --locked -q -p edd-tensor --test qdeterminism
cargo test --locked -q -p edd-core --test determinism
# Serving leg: requests answered through 1-shard and 4-shard dynamic-
# batching servers must match the synchronous InferServer path bit for
# bit, whatever batches the coalescer happens to form.
cargo test --locked -q -p edd-core --test serve_determinism
# IR-pipeline leg: every edd-ir pass configuration must reproduce the
# unoptimized lowering (--passes none) bitwise on the tiny zoo, and a
# model pushed through compile -> .eddm artifact -> hot-load -> sharded
# serving must match the in-process compiled model's sync path bit for
# bit.
cargo test --locked -q -p edd-zoo --test ir_equivalence
cargo test --locked -q -p edd-zoo --test artifact_serve
# Sweep leg: a 3-target sweep (shared weight phase, per-target arch steps
# fanned over the pool) must produce byte-identical per-target derived
# architectures, Pareto fronts, and histories across 4-vs-1 worker
# threads and across a kill/resume through a ckpt-<targets>-*.edds
# snapshot.
cargo test --locked -q -p edd-core --test sweep_determinism
# Single-target resume leg: the same driver with one target (the paper's
# loop, as CoSearch runs it) killed after epoch 2 of 4 and resumed through
# its snapshot must finish byte-identically at 1 and 7 threads.
cargo test --locked -q -p edd-core --test checkpoint_resume
# Pulse leg: streaming (pulsed) execution of every tiny-zoo engine, under
# every pass configuration, must match the batch engine bit for bit on
# identical sliding windows, a
# stream interrupted and resumed mid-window must continue bitwise, and
# carried state must stay bounded by the window geometry regardless of
# stream length.
cargo test --locked -q -p edd-zoo --test pulse_determinism
# Golden leg: the tiny zoo's logits and one pulsed stream's windows must
# hash to the values pinned in the test on every leg of the matrix.
cargo test --locked -q -p edd-zoo --test golden_outputs
# Work pin: the RHS panel bytes each body of pack_rhs_i8 writes per
# batch-1 forward of edd-tiny-int8 (vector vs scalar walk) must equal the
# counts the test derives from the SIMD dispatch, so a fall back to the
# scalar pack fails an exact check.
cargo test --locked -q -p edd-zoo --test pack_bytes
# Float-stack golden leg: a one-target search's result bytes and eval-mode
# logits must hash to the pinned values (the 3-target sweep's pin runs in
# the sweep leg above).
cargo test --locked -q -p edd-core --test golden_search

echo "DETERMINISM_RESULT: PASS"
