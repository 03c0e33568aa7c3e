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
# batching servers must match the model's own batch-1 infer_batch bit for
# bit, whatever batches the coalescer happens to form.
cargo test --locked -q -p edd-core --test serve_determinism
# IR-pipeline leg: both edd-ir pass configurations, ReLU6 fusion on
# (--passes all) and off (--passes none), must match bitwise on the tiny
# zoo, and a
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
# both pass configurations, must match the batch engine bit for bit on
# identical sliding windows, a
# stream interrupted and resumed mid-window must continue bitwise, and
# carried state must stay bounded by the window geometry regardless of
# stream length.
cargo test --locked -q -p edd-zoo --test pulse_determinism
# Pulse delay leg: random conv/dwconv stacks (kernels 1-5, stride 1 and 2,
# zero or same padding) must emit their first row at the computed delay
# and match the batch layers bit for bit. It is the only pulsed-vs-batch
# check over stride-2 convs and over k > 1 convs at zero padding; the zoo
# is all stride 1.
cargo test --locked -q -p edd-ir --test pulse_delay
# Pulse unit leg: edd-ir's own pulse tests, pulsed vs batch on a small
# graph with every executable op, save/restore mid-window, the counters,
# and the fuzz of the CRC-sealed pulse-state decoder (mutated payloads
# must restore or fail cleanly, leaving the live stream untouched).
cargo test --locked -q -p edd-ir --lib pulse
# Golden leg: the tiny zoo's logits and one pulsed stream's windows must
# hash to the values pinned in the test on every leg of the matrix, and so
# must the float side of the zoo: tiny_mobilenet_v2 trained three epochs
# (its weights, eval-mode logits and eval loss).
cargo test --locked -q -p edd-zoo --test golden_outputs
# Work pin: the RHS panel bytes each body of pack_rhs_i8 writes per
# batch-1 forward of edd-tiny-int8 (vector vs scalar walk) must equal the
# counts the test derives from the SIMD dispatch, so a fall back to the
# scalar pack fails an exact check.
cargo test --locked -q -p edd-zoo --test pack_bytes
# Allocation pin: a warm forward and a warm infer_batch allocate only their
# logits, the arena stops growing, and 32 warm pulsed pushes allocate the
# pinned bytes and calls. The pins count the calling thread only and must
# hold at every thread count and SIMD mode.
cargo test --locked -q -p edd-zoo --test forward_allocations
# Float-stack golden leg: a one-target search's result bytes and eval-mode
# logits must hash to the pinned values, and so must the paper's final
# step, a derived network from build_model trained three epochs (its
# weights, eval-mode logits and eval loss). The 3-target sweep's pin runs
# in the sweep leg above.
cargo test --locked -q -p edd-core --test golden_search

echo "DETERMINISM_RESULT: PASS"
