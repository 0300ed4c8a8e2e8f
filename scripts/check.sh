#!/usr/bin/env bash
# Full local gate: everything CI runs, in the same order.
# Usage: scripts/check.sh [--fast]
#   --fast  build + tier-1 tests + static gates only (skips the
#           release bench smokes and the doc build) — the quick
#           inner-loop check before a full run.
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ -n "${1:-}" ]]; then
  echo "usage: scripts/check.sh [--fast]" >&2
  exit 2
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (NSHD_THREADS=1)"
NSHD_THREADS=1 cargo test -q --workspace

echo "==> cargo test (NSHD_THREADS=4)"
# Second pass with the parallel kernels engaged by default: every test
# must pass bit-identically regardless of the ambient worker count.
NSHD_THREADS=4 cargo test -q --workspace

echo "==> perfbench build + tests"
# The serving benchmark is a package of its own outside the workspace.
# Building and testing it here means a change to a scoring API it calls
# fails this gate instead of the benchmark run.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -p nshd-tensor (NSHD_SIMD=0)"
# Runtime SIMD kill-switch: the same tensor suite must pass with the
# micro-kernels disabled at runtime, serving the scalar reference.
NSHD_SIMD=0 cargo test -q -p nshd-tensor

echo "==> cargo test -p nshd-nn (NSHD_SIMD=0)"
# The layer suite, including the eval-kernel conformance oracles and the
# pinned extractor feature digests, on the scalar GEMM reference: the
# digests must not move when the micro-kernels are switched off.
NSHD_SIMD=0 cargo test -q -p nshd-nn

echo "==> nshd-tensor --no-default-features (scalar fallback)"
# The pure-scalar build (no `simd` feature compiled in at all) must
# build and pass the full tensor suite, including the micro-kernel
# conformance tests (which degrade to scalar-vs-scalar identity).
cargo build --release -q -p nshd-tensor --no-default-features
cargo test -q -p nshd-tensor --no-default-features

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> nshd-lint self-tests"
# The analyzer's own suite: lexer unit + differential property tests
# against the legacy stripper, rule unit tests, and the fixture trees
# proving every rule both fires and stays silent.
cargo test -q -p nshd-lint

echo "==> xtask ledgers"
# The five shrink-only allowlists must parse with no zero-count or
# duplicate entries, and with rationales where required.
cargo run -q -p xtask -- ledgers

echo "==> xtask lint"
# Workspace static gate (rules NSHD-L001..L010, docs/lint-rules.md):
# ledgered unwrap/clock/thread/atomic/unsafe sites, panic-free
# nshd-runtime, #[must_use] + docs contracts, acyclic lock order, and
# no hash-order iteration in the determinism-critical crates.
cargo run -q -p xtask -- lint

if [[ "$FAST" == "1" ]]; then
  echo "==> fast gate passed (bench smokes and docs skipped)"
  exit 0
fi

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> serve_bench --smoke"
# Serving-runtime smoke: tiny model, 2 workers; asserts a well-formed
# JSON report (BENCH_serve.json, with per-stage trace + GFLOP/s) and
# batched == sequential predictions (exits non-zero otherwise).
cargo run --release -q -p nshd-bench --bin serve_bench -- --smoke

echo "==> kernel_bench --smoke"
# Parallel-kernel smoke: serial vs parallel GFLOP/s over a small size
# grid, plus the packed/INT8 batch-scoring cells (BENCH_kernels.json).
# Asserts every parallel output is bitwise identical to serial, that
# the SIMD micro-kernels match the scalar reference bitwise, and —
# when more than one core is available — that at least one GEMM size
# shows a speedup above 1.0x.
cargo run --release -q -p nshd-bench --bin kernel_bench -- --smoke

echo "==> robustness_sweep --smoke"
# Fault-injection smoke: tiny model, short rate list; asserts a
# well-formed BENCH_robustness.json with in-range accuracy curves and a
# smoke teacher meaningfully above chance.
cargo run --release -q -p nshd-bench --bin robustness_sweep -- --smoke

echo "==> cluster_bench --smoke"
# Fault-tolerant serving smoke: replicated cluster under stall / kill /
# degraded / overload chaos (BENCH_cluster.json). Asserts every request
# resolves, surviving replicas stay bit-identical to the fault-free
# baseline, admission control sheds, failover retries, and p99 stays
# inside the request deadline.
cargo run --release -q -p nshd-bench --bin cluster_bench -- --smoke

echo "==> glue_bench --smoke"
# HD-Glue ensemble smoke: three diverse teachers fused into a consensus
# memory, served with mid-traffic memory / head / replica hot-swaps
# (BENCH_glue.json). Asserts the full fusion's accuracy is at least the
# best single teacher's symbolic accuracy and every in-flight reply
# resolves across swaps.
cargo run --release -q -p nshd-bench --bin glue_bench -- --smoke

echo "==> net_bench --smoke"
# Networked serving smoke: real nshd-wire/v1 traffic over loopback TCP
# against a replicated cluster (BENCH_net.json). Asserts every request
# resolves over the wire, all three payload kinds serve, survivors stay
# bit-exact through a mid-traffic replica kill, overload sheds with
# typed frames, and malformed byte streams never wedge the server.
cargo run --release -q -p nshd-bench --bin net_bench -- --smoke

echo "==> all checks passed"
