// The cluster-path allocation gate: executing a leased task with
// tracing disabled must cost no more allocations than the pre-
// observability worker did. Tracing is nil-span gated, so a worker
// without a Tracer (or a task without a traceparent) takes the same
// path this benchmark measures, and scripts/bench-pair.sh fails a head
// whose minimum allocs/op is above the base's.
package cluster

import (
	"context"
	"testing"

	"repro/internal/castore"
	"repro/internal/runner"
	"repro/internal/sim"
)

func BenchmarkClusterTask(b *testing.B) {
	store, err := castore.Open("", 64)
	if err != nil {
		b.Fatal(err)
	}
	// Unresolvable coordinator/self URLs: the worker never joins and
	// its shard view is self-only, so the benchmark exercises exactly
	// the local execute path (sweep + content-addressed store), no
	// network.
	w, err := NewWorker(WorkerConfig{
		Coordinator: "http://coordinator.invalid",
		Self:        "http://worker.invalid",
		Local:       store,
		SimWorkers:  1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(1)
	cfg.WarmupInstr = 2000
	cfg.MeasureInstr = 10000
	cfg.IntervalCycles = 10000
	wl := []string{"gcc"}
	key, err := runner.CacheKey(cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	task := Task{Key: key, Label: "bench", Config: cfg, Workload: wl}
	ctx := context.Background()
	// One cold run computes and stores the artifact; the measured loop
	// is the steady-state cache-hit path a re-leased task takes.
	if err := w.execute(ctx, task); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.execute(ctx, task); err != nil {
			b.Fatal(err)
		}
	}
}
