#!/usr/bin/env bash
# asyncsweep.sh — write-quorum sweep + SLA frontier.
#
# Builds mpserver, mpgateway, and mpload, starts three backends, and
# drives the same closed-loop update-bearing mix twice through a
# replication-3 gateway front, at the two ends of the one replication
# knob: -write-quorum 0 ("sync": every live replica acks before the
# update returns) and -write-quorum 1 ("async": a single ack commits and
# the background apply loop drains the rest). The async pass sweeps
# every consistency level (-sla-sweep) so its BENCH_slacurve.json is the
# measured latency-vs-staleness frontier; the sync pass runs the strong
# level only — the one level whose answers both settings share — for an
# apples-to-apples write-throughput comparison, summarized into
# BENCH_asyncsweep.json.
#
# The job fails when either setting sheds update errors or when the
# async fleet fails to sustain at least the sync fleet's update throughput
# (the deterministic ≥2x separation with a slow replica is pinned by
# TestAsyncThroughputBeatsSyncWithSlowReplica and the
# GatewayUpdateReplicated bench baseline; live local backends are too
# fast to gate a fixed ratio without flakes). Override knobs via env:
#
#   MIX=lp=1,update=8 DURATION=10s scripts/asyncsweep.sh
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

MIX="${MIX:-lp=2,update=4}"
N="${N:-128}"
WORKERS="${WORKERS:-8}"
DURATION="${DURATION:-4s}"
LEVELS="${LEVELS:-eventual,monotonic,rmw,bounded:250ms,strong}"
PORT_BASE="${PORT_BASE:-18190}"

bin=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do
    kill "$pid" 2>/dev/null || true
  done
  rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin/mpserver" ./cmd/mpserver
go build -o "$bin/mpgateway" ./cmd/mpgateway
go build -o "$bin/mpload" ./cmd/mpload

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://127.0.0.1:$1/v1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "no healthy listener on port $1" >&2
  return 1
}

backends=""
for i in 1 2 3; do
  port=$((PORT_BASE + i))
  "$bin/mpserver" -addr "127.0.0.1:$port" &
  pids+=("$!")
  backends="$backends,http://127.0.0.1:$port"
done
backends="${backends#,}"
for i in 1 2 3; do
  wait_healthy $((PORT_BASE + i))
done

# run_mode <matrix> <slacurve-out> <levels> [extra gateway flags...]
run_mode() {
  local matrix="$1" out="$2" levels="$3"
  shift 3
  "$bin/mpgateway" -addr "127.0.0.1:$PORT_BASE" -backends "$backends" \
    -replication 3 -probe-interval 250ms "$@" &
  local gw=$!
  pids+=("$gw")
  wait_healthy "$PORT_BASE"
  "$bin/mpload" -gateway -addr "http://127.0.0.1:$PORT_BASE" \
    -n "$N" -matrix "$matrix" -mix "$MIX" \
    -workers "$WORKERS" -duration "$DURATION" \
    -report-interval 0 \
    -sla-sweep "$levels" -slacurve-out "$out"
  kill "$gw" 2>/dev/null || true
  wait "$gw" 2>/dev/null || true
}

run_mode bench_sync BENCH_slacurve_sync.json strong -write-quorum 0
run_mode bench_async BENCH_slacurve.json "$LEVELS" -write-quorum 1

# Summarize the strong-level update throughput of both settings. The sync
# document has exactly one point; the async document's strong point is
# its last.
jq -n \
  --slurpfile sync BENCH_slacurve_sync.json \
  --slurpfile async BENCH_slacurve.json \
  --arg mix "$MIX" --arg duration "$DURATION" '
  ($sync[0].points[] | select(.level == "strong")) as $s |
  ($async[0].points[] | select(.level == "strong")) as $a |
  ($duration | rtrimstr("s") | tonumber) as $secs |
  {
    mix: $mix,
    duration: $duration,
    sync:  {updates: $s.updates, update_errors: $s.update_errors,
            updates_per_sec: (($s.updates - $s.update_errors) / $secs),
            read_p50_ms: $s.p50_ms, read_p99_ms: $s.p99_ms},
    async: {updates: $a.updates, update_errors: $a.update_errors,
            updates_per_sec: (($a.updates - $a.update_errors) / $secs),
            read_p50_ms: $a.p50_ms, read_p99_ms: $a.p99_ms},
  } | .ratio = (.async.updates_per_sec / ([.sync.updates_per_sec, 0.001] | max))
' >BENCH_asyncsweep.json

cat BENCH_asyncsweep.json

jq -e '
  .sync.update_errors == 0 and .async.update_errors == 0 and
  .sync.updates > 0 and .async.updates > 0 and .ratio >= 1.0
' BENCH_asyncsweep.json >/dev/null || {
  echo "async sweep gate failed: update errors, or async throughput below sync" >&2
  exit 1
}
