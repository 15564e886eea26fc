# Convenience targets; `make check` is the CI/verification gate.

.PHONY: check ci lint golden golden-update verify fuzz-smoke build vet test race bench bench-check results quick-results serve serve-smoke trace-smoke load load-smoke cluster cluster-smoke

check:
	./scripts/check.sh

# Everything CI runs: lint, the full check gate, the golden-output
# drift gate, the differential-verification gate, and the service
# smoke tests (end-to-end workflow, tracing, open-loop load).
ci: lint check golden verify serve-smoke trace-smoke load-smoke cluster-smoke

# Differential verification: oracle reference models vs the optimized
# implementations, plus the simulator rebuilt with runtime invariant
# checks (`-tags verify`). See DESIGN.md "Verification strategy".
verify:
	./scripts/verify.sh

# Short fuzzing pass over every native fuzz target (FUZZTIME=20s each
# by default); the nightly workflow runs the long-budget version.
fuzz-smoke:
	./scripts/fuzz-smoke.sh

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...

# Golden-output gate: quick-run JSON must match results/golden/.
golden:
	./scripts/golden.sh

# Regenerate the golden outputs after an intentional behavioral change.
golden-update:
	./scripts/golden.sh update

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# The runner executes simulations on parallel workers; always keep the
# race pass green.
race:
	go test -race ./...

# Hot-path benchmarks with allocation counts (cache access, simulator
# step, refresh windows, whole short runs).
bench:
	go test -bench . -benchmem -run '^$$' ./internal/cache/ ./internal/sim/ ./internal/refrint/ .

# Same-host perf check (CI's bench-gate lane): the pinned hot-path
# benchmarks run as 20 alternating base/head pairs against the
# merge-base with origin/main; esteem-gate fails a median head/base
# ns/op ratio above 1.10 or a higher minimum allocs/op. A 1.2x-ns/op
# copy of head must fail first, or the check is dead.
bench-check:
	./scripts/bench-pair.sh

# Regenerate the paper evaluation (long; uses every CPU by default —
# tune with JOBS=N).
JOBS ?= 0
results:
	go run ./cmd/esteem-bench -jobs $(JOBS)

quick-results:
	go run ./cmd/esteem-bench -quick -jobs $(JOBS)

# Run the simulation service with a persistent result store (see
# README "Running as a service").
serve:
	go run ./cmd/esteem-serve -cache results/castore

# End-to-end service smoke test: submit/stream/fetch over HTTP, plus
# cmp-proven byte-identity of cached and restart-served results.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end tracing smoke test: bench and serve both export
# Perfetto-loadable span traces; the serve tree is validated for
# well-formedness and >= 95% wall-clock coverage.
trace-smoke:
	./scripts/trace-smoke.sh

# Open-loop load generator against an already-running daemon (see
# README "Load testing"); prints the per-phase table and the JSON
# report to stdout. Point it elsewhere with SERVER=http://host:port.
SERVER ?= http://127.0.0.1:8344
load:
	go run ./cmd/esteem-load -server $(SERVER)

# Service-level smoke lane (CI's load-smoke): boots a daemon, drives
# an ~11s ramp+burst schedule, and fails if the esteem-load report
# fails its own sanity checks (traffic completed, <= 1% errors, cache
# hit rate near the hot fraction).
load-smoke:
	./scripts/load-smoke.sh

# Run a local three-node sweep cluster from the Procfile recipe:
# coordinator on :8344 plus two workers on free ports. Needs a
# Procfile runner (foreman/overmind/hivemind); without one, run the
# three commands from the Procfile in separate terminals.
cluster:
	@command -v foreman >/dev/null 2>&1 && exec foreman start; \
	command -v overmind >/dev/null 2>&1 && exec overmind start; \
	command -v hivemind >/dev/null 2>&1 && exec hivemind; \
	echo "no Procfile runner found; run the Procfile commands manually" >&2; exit 1

# End-to-end cluster smoke test: the same sweep on a standalone
# daemon and on a coordinator + 2 workers, with cmp-proven artifact
# byte-identity, exactly-once compute across workers, and cluster
# metrics checks. (Worker-kill recovery runs in `go test` as
# TestClusterWorkerKill.)
cluster-smoke:
	./scripts/cluster-smoke.sh
