#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source inside the checkout, then run it with the driver's arguments.
#   bash bench/run.sh --workload mlp_proto --seed 1 --seconds 10 --trace 0
# The binary and the Go build cache live in .bench_build/ so nothing is
# written outside the checkout; after the first build a rebuild is a no-op.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" go build -o "$build/adafl-bench" ./bench
exec "$build/adafl-bench" "$@"
