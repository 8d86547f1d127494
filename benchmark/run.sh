#!/usr/bin/env bash
# run.sh — BENCHMARK.json's command: builds the harness (benchmark/ is
# its own module beside the repository's) and runs it with the
# arguments given, from the checkout's root.
#
#   bash benchmark/run.sh --workload lp_cached --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ and
# benchmark/results/ in the checkout: the Go build cache and temp
# directory are pointed there, and the harness keeps the server
# binaries, data directories and child logs there too.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

go build -C benchmark -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
