#!/usr/bin/env bash
# run.sh — build and run the repository benchmark from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload sweep-fig3 --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (perfbench/go.mod) that builds the
# repository's packages from source through a local replace. Every
# build and run artefact stays under .bench_build/ in the checkout: the
# Go build cache, the Go tool's own config and telemetry files, the
# binary, and each run's scratch stores.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
