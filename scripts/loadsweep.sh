#!/usr/bin/env bash
# loadsweep.sh — short open-loop capacity sweep with a knee-regression gate.
#
# Builds mpserver and mpload, starts a server, drives an open-loop
# -rps-sweep of a cached repeat-query lp workload against it, writes the
# sweep points and USL fit to BENCH_loadcurve.json, and gates the fitted
# capacity knee against ci/loadcurve_baseline.json via scripts/benchguard
# (fail when the knee regresses more than 2x below baseline).
#
# The defaults are sized for CI: ~5s per step, rates spanning well past
# the knee on a small runner. Override via env:
#
#   RATES=50,100,200 MEASURE=10s scripts/loadsweep.sh
#
# Recalibrate ci/loadcurve_baseline.json deliberately (run this script on
# the CI runner class, take the reported knee with ~2x headroom) whenever
# the serve path changes capacity on purpose.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

RATES="${RATES:-100,200,400,800,1600}"
N="${N:-256}"
WARMUP="${WARMUP:-1s}"
MEASURE="${MEASURE:-4s}"
TIMEOUT="${TIMEOUT:-2s}"
OUT="${OUT:-BENCH_loadcurve.json}"
BASELINE="${BASELINE:-ci/loadcurve_baseline.json}"
PORT="${PORT:-18080}"

bin=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ]; then
    kill "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/mpserver" ./cmd/mpserver
go build -o "$bin/mpload" ./cmd/mpload

"$bin/mpserver" -addr "127.0.0.1:$PORT" &
server_pid=$!

up=""
for _ in $(seq 1 100); do
  if curl -fsS "http://127.0.0.1:$PORT/v1/healthz" >/dev/null 2>&1; then
    up=1
    break
  fi
  sleep 0.1
done
if [ -z "$up" ]; then
  echo "mpserver did not become healthy on port $PORT" >&2
  exit 1
fi

# Cached repeat-query lp workload: -pin-seed keeps every query on the
# sketch-cache fast path, so the sweep measures serve capacity rather
# than per-query sketch derivation.
"$bin/mpload" \
  -addr "http://127.0.0.1:$PORT" \
  -n "$N" -mix lp=1 -pin-seed 7 \
  -rps-sweep "$RATES" -arrivals poisson \
  -warmup "$WARMUP" -measure "$MEASURE" -timeout "$TIMEOUT" \
  -report-interval 0 \
  -loadcurve-out "$OUT"

go run ./scripts/benchguard \
  -loadcurve "$OUT" \
  -loadcurve-baseline "$BASELINE" \
  -knee-max-regress 2 \
  -out BENCH_ci_loadcurve.json
