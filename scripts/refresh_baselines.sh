#!/usr/bin/env bash
# Regenerates every committed BENCH_*.json baseline at the repository
# root in one command:
#
#   BENCH_phase_step.json   <- bench_phase_step (kernel/batch ns/op)
#   BENCH_serve.json        <- serve_bench (in-process rows), then
#                              wire_bench (merges its wire_*/http_*
#                              socket rows into the same file: the
#                              wire_reactor_*/wire_mux_* binary-codec
#                              rows, the idle-connection-scaling row,
#                              and the http_* HTTP-codec rows, all on
#                              the one event loop; wire_* rows the run
#                              no longer produces are dropped)
#   BENCH_problems.json     <- problems_bench (per-class solution-quality
#                              vs greedy baselines; deterministic, so an
#                              exact accuracy gate rather than a timing one)
#
# Run this when a PR intentionally changes performance (or the gate in
# crates/bench/src/baseline.rs reports a stale baseline) and commit the
# rewritten files together with the change. Expect a few minutes on a
# quiet machine; baselines written on a loaded box make the CI gate
# flaky for everyone else.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p msropm-bench"
cargo build --release -p msropm-bench

echo "==> bench_phase_step -> BENCH_phase_step.json"
cargo run --release -p msropm-bench --bin bench_phase_step

echo "==> serve_bench -> BENCH_serve.json (in-process rows)"
cargo run --release -p msropm-bench --bin serve_bench

echo "==> wire_bench -> BENCH_serve.json (socket rows merged in)"
cargo run --release -p msropm-bench --bin wire_bench

echo "==> problems_bench -> BENCH_problems.json (accuracy rows)"
cargo run --release -p msropm-bench --bin problems_bench

echo
git --no-pager diff --stat -- 'BENCH_*.json' || true
echo "Baselines refreshed. Review and commit BENCH_phase_step.json, BENCH_serve.json and BENCH_problems.json."
