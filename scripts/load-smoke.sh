#!/bin/sh
# load-smoke.sh — service-level load smoke test, CI's load-smoke lane.
#
# Boots esteem-serve on a free port, drives it with esteem-load's
# open-loop ramp + burst schedule (~11s of traffic, 50% cache-hot
# mix), and requires the run to pass the report's own sanity checks,
# which esteem-load applies after writing the report: traffic
# completed with positive latency and throughput, at most 1% errors,
# and a cache hit rate within 0.15 of the hot fraction. It compares
# with no baseline; perfbench's serve-openloop workload measures the
# service path's speed across commits on one host.
#
# The report lands in $LOAD_OUT (default: a temp dir) so CI can upload
# it.
set -eu
cd "$(dirname "$0")/.."
. ./scripts/lib.sh

WORK="$(mktemp -d)"
OUT="${LOAD_OUT:-$WORK}"
mkdir -p "$OUT"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== building binaries =="
go build -o "$WORK/" ./cmd/esteem-serve ./cmd/esteem-load

echo "== booting daemon =="
"$WORK/esteem-serve" -addr 127.0.0.1:0 -addr-file "$WORK/addr" \
    -cache "$WORK/store" -workers 4 -queue 128 -job-timeout 1m \
    -log-format json >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_file "$WORK/addr" 10 || { cat "$WORK/serve.log"; exit 1; }
SERVER="http://$(cat "$WORK/addr")"
wait_healthz "$SERVER" 15 || { cat "$WORK/serve.log"; exit 1; }
echo "== daemon up at $SERVER =="

echo "== open-loop ramp + burst (~11s, 50% hot mix) =="
"$WORK/esteem-load" -server "$SERVER" \
    -start-rps 20 -step-rps 20 -target-rps 60 -slot 3s \
    -burst-rps 120 -burst-dur 2s \
    -hot 0.5 -jitter 0.25 -seed 1 \
    -out "$OUT/report.json"

echo "== graceful drain =="
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "daemon exited non-zero on SIGTERM"; cat "$WORK/serve.log"; exit 1; }
SERVE_PID=""

echo "== load smoke OK =="
