#!/bin/sh
# bench-pair.sh [BASE] — same-host perf check of the pinned hot-path
# microbenchmarks (reference generation, cache access and
# construction, active-fraction scan, refresh window, short simulator
# run, cluster task): the working tree (head) against BASE, by default
# `git merge-base HEAD origin/main`. CI's bench-gate lane.
#
# It extracts BASE into a temp dir and builds one `go test -c` binary
# per tracked package in each tree. It then runs every tracked
# benchmark as PAIRS base/head pairs at -cpu 1: the two runs of a pair
# go back to back, and which side goes first alternates, so both see
# the same host state. esteem-gate judges only the per-pair ratios
# (DESIGN.md §7): the median head/base ns/op ratio must be <= 1.10,
# and head's minimum allocs/op must not exceed base's.
#
# Before gating, a copy of head with ns/op x1.2 must fail against
# base, or the check is dead.
set -eu
cd "$(dirname "$0")/.."

PAIRS=20
BENCHTIME=200ms
# package:benchmark, one per entry of esteem-gate's tracked list.
BENCHES="
trace:BenchmarkGeneratorFill
cache:BenchmarkCacheAccess
cache:BenchmarkCacheNew
cache:BenchmarkActiveFraction
refrint:BenchmarkRefreshWindow
sim:BenchmarkSimRunShort
cluster:BenchmarkClusterTask
"

BASE="$(git rev-parse --verify "${1:-$(git merge-base HEAD origin/main)}^{commit}")"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
trap 'exit 1' INT TERM

echo "== base $BASE, head = working tree =="
mkdir "$WORK/base"
git archive "$BASE" | tar -x -C "$WORK/base"
go build -o "$WORK/esteem-gate" ./cmd/esteem-gate
for pkg in $(for b in $BENCHES; do echo "${b%%:*}"; done | sort -u); do
    go test -c -o "$WORK/head-$pkg.test" "./internal/$pkg"
    (cd "$WORK/base" && go test -c -o "$WORK/base-$pkg.test" "./internal/$pkg")
done

# bench SIDE PKG NAME: one run of benchmark NAME from SIDE's binary,
# in its package directory as `go test` would, appended to SIDE.txt.
bench() {
    dir=.
    [ "$1" = base ] && dir="$WORK/base"
    (cd "$dir/internal/$2" && "$WORK/$1-$2.test" -test.run '^$' -test.bench "^$3\$" \
        -test.benchmem -test.cpu 1 -test.benchtime "$BENCHTIME" -test.timeout 5m) >>"$WORK/$1.txt"
}

echo "== $PAIRS pairs per benchmark, -cpu 1 -benchtime $BENCHTIME =="
i=1
while [ "$i" -le "$PAIRS" ]; do
    for b in $BENCHES; do
        pkg="${b%%:*}" name="${b#*:}"
        if [ $((i % 2)) -eq 1 ]; then
            bench base "$pkg" "$name"
            bench head "$pkg" "$name"
        else
            bench head "$pkg" "$name"
            bench base "$pkg" "$name"
        fi
    done
    echo "pair $i/$PAIRS done"
    i=$((i + 1))
done

echo "== gate self-test (a 1.2x-ns/op copy of head must fail) =="
"$WORK/esteem-gate" -degrade 1.2 "$WORK/head.txt" >"$WORK/degraded.txt"
if "$WORK/esteem-gate" "$WORK/base.txt" "$WORK/degraded.txt" >"$WORK/degraded.out" 2>&1; then
    echo "gate PASSED a 1.2x-degraded head; the ns/op rule is dead" >&2
    cat "$WORK/degraded.out" >&2
    exit 1
fi
echo "degraded copy rejected, as it should be"

echo "== head vs base =="
"$WORK/esteem-gate" "$WORK/base.txt" "$WORK/head.txt"
