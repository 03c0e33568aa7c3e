#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green.
#
#   1. release build of the full workspace (benches compile here too);
#   2. format gate: rustfmt clean across the workspace;
#   3. lint gate: clippy clean across the workspace, test code, benches
#      and examples included (--all-targets);
#   4. the default test suite;
#   5. the tensor crate's suite on its own, which carries the kernel
#      oracle, gradcheck, and thread-determinism tests;
#   6. the runtime crate's suite on its own, which carries the serving
#      front end's deterministic batcher simulation (serve_sim), the
#      multi-producer concurrency stress + property suite (serve_stress),
#      and the telemetry histogram and sink tests;
#   7. docs gate: rustdoc for the whole workspace with warnings denied
#      (broken intra-doc links and malformed doc comments are errors),
#      plus a release build of every example in examples/;
#   8. the benchmark package's unit tests (benchmark/ is a package of its
#      own, outside the workspace, so step 4 does not reach it).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --locked --release --workspace
cargo fmt --check
cargo clippy --locked --workspace --all-targets -- -D warnings
cargo test --locked -q --workspace
cargo test --locked -q -p edd-tensor
cargo test --locked -q -p edd-runtime
RUSTDOCFLAGS="-D warnings" cargo doc --locked --no-deps --workspace
cargo build --locked --release --examples
cargo test --locked --offline -q --manifest-path benchmark/Cargo.toml

echo "tier1: all green"
