#!/bin/sh
# bench-record.sh — run the pinned hot-path benchmarks (cache access,
# cache construction, active-fraction scan, refresh window, short
# simulator run, cluster task) with a fixed benchtime at -cpu 1 and
# either append a dated entry to BENCH_sim.json (default) or gate the
# fresh numbers (`bench-record.sh check`).
#
# Check mode first proves the gate is live: it records the fresh run
# into a temporary trajectory, degrades a copy by 1.2x ns/op with
# `esteem-gate -degrade`, and fails if that copy passes against the
# fresh run. It then gates the fresh run against the latest
# BENCH_sim.json entry: >15% ns/op regression or any allocs/op
# increase fails. That baseline may come from another host, so its
# ns/op verdict is only as good as the hosts match.
#
# The runs pin -cpu 1 because allocation counts depend on GOMAXPROCS
# (BenchmarkSimRunShort makes 56 allocs/op at -cpu 1 and 57 at
# -cpu 2), and the baseline was recorded at one CPU.
#
# BENCHTIME / COUNT override the fixed budget, e.g. quick local runs
# with BENCHTIME=100ms.
set -eu
cd "$(dirname "$0")/.."

MODE="${1:-record}"
BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-3}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
out="$WORK/bench.txt"
go build -o "$WORK/esteem-gate" ./cmd/esteem-gate

{
    go test ./internal/cache/ -run '^$' -benchmem -cpu 1 -benchtime "$BENCHTIME" -count "$COUNT" \
        -bench '^(BenchmarkCacheAccess|BenchmarkCacheNew|BenchmarkActiveFraction)$'
    go test ./internal/refrint/ -run '^$' -benchmem -cpu 1 -benchtime "$BENCHTIME" -count "$COUNT" \
        -bench '^BenchmarkRefreshWindow$'
    go test ./internal/sim/ -run '^$' -benchmem -cpu 1 -benchtime "$BENCHTIME" -count "$COUNT" \
        -bench '^BenchmarkSimRunShort$'
    go test ./internal/cluster/ -run '^$' -benchmem -cpu 1 -benchtime "$BENCHTIME" -count "$COUNT" \
        -bench '^BenchmarkClusterTask$'
} | tee "$out"

case "$MODE" in
record)
    "$WORK/esteem-gate" -record BENCH_sim.json -benchtime "$BENCHTIME" -in "$out"
    ;;
check)
    echo "== gate self-test (1.2x-degraded copy must fail against the fresh run) =="
    "$WORK/esteem-gate" -record "$WORK/self.json" -in "$out"
    "$WORK/esteem-gate" -degrade 1.2 -in "$out" >"$WORK/degraded.txt"
    if "$WORK/esteem-gate" -check "$WORK/self.json" -in "$WORK/degraded.txt" >"$WORK/degraded.out" 2>&1; then
        echo "gate PASSED a 1.2x-degraded run; the ns/op bound is dead" >&2
        cat "$WORK/degraded.out" >&2
        exit 1
    fi
    echo "degraded copy rejected, as it should be"

    echo "== benchmark gate vs BENCH_sim.json =="
    "$WORK/esteem-gate" -check BENCH_sim.json -in "$out"
    ;;
*)
    echo "usage: $0 [record|check]" >&2
    exit 2
    ;;
esac
