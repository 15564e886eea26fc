#!/bin/sh
# load-smoke.sh [record] — service-level load benchmark, CI's
# load-smoke lane.
#
# Boots esteem-serve on a free port, drives it with esteem-load's
# open-loop ramp + burst schedule (~11s of traffic, 50% cache-hot
# mix), and then:
#
#   default: gates the fresh report against the latest BENCH_serve.json
#            entry with esteem-gate, and proves the gate is live by
#            checking a synthetically degraded copy of the same
#            report, which MUST fail;
#   record:  appends the fresh report to BENCH_serve.json instead
#            (`make load-record`, run after intentional service
#            changes on a quiet machine).
#
# Artifacts (report.json, degraded.json) land in $LOAD_OUT (default: a
# temp dir) so CI can upload them.
set -eu
cd "$(dirname "$0")/.."
. ./scripts/lib.sh

MODE="${1:-check}"
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
go build -o "$WORK/" ./cmd/esteem-serve ./cmd/esteem-load ./cmd/esteem-gate

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

case "$MODE" in
record)
    "$WORK/esteem-gate" -record BENCH_serve.json -in "$OUT/report.json"
    ;;
check)
    echo "== service-level gate =="
    "$WORK/esteem-gate" -check BENCH_serve.json -in "$OUT/report.json"

    echo "== gate self-test (degraded copy must fail) =="
    "$WORK/esteem-gate" -degrade 50 -in "$OUT/report.json" >"$OUT/degraded.json"
    if "$WORK/esteem-gate" -check BENCH_serve.json -in "$OUT/degraded.json" >"$WORK/degraded.out" 2>&1; then
        echo "gate PASSED a 50x-degraded report; thresholds are dead" >&2
        cat "$WORK/degraded.out" >&2
        exit 1
    fi
    echo "degraded copy rejected, as it should be"
    ;;
*)
    echo "usage: $0 [record|check]" >&2
    exit 2
    ;;
esac

echo "== graceful drain =="
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "daemon exited non-zero on SIGTERM"; cat "$WORK/serve.log"; exit 1; }
SERVE_PID=""

echo "== load smoke OK =="
