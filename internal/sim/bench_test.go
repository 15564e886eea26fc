package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// benchSim assembles a warmed simulator so BenchmarkSimStep times the
// steady-state per-reference path (core retire, L1, L2, refresh
// engine, memory) rather than construction or cold caches.
func benchSim(b *testing.B, cores int) *Simulator {
	b.Helper()
	cfg := DefaultConfig(cores)
	cfg.Technique = Esteem
	cfg.MeasureInstr = 1_000_000
	cfg.WarmupInstr = 100_000
	cfg.IntervalCycles = 250_000
	wl := []string{"gcc", "gobmk", "lbm", "mcf"}[:cores]
	s, err := New(cfg, wl)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200_000; i++ {
		s.step()
	}
	return s
}

// BenchmarkSimStep measures one simulator step (the innermost hot
// loop of every experiment) at 1, 2 and 4 cores, reporting allocs/op.
func BenchmarkSimStep(b *testing.B) {
	for _, cores := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			s := benchSim(b, cores)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.step()
			}
		})
	}
}

// shortRunCfg is the whole short run of BenchmarkSimRunShort and
// TestRunAllocs.
func shortRunCfg() Config {
	cfg := DefaultConfig(1)
	cfg.Technique = Esteem
	cfg.MeasureInstr = 200_000
	cfg.WarmupInstr = 50_000
	cfg.IntervalCycles = 100_000
	return cfg
}

// BenchmarkSimRunShort measures a whole short run (construction +
// warmup + measurement), the unit of work a sweep schedules per job.
func BenchmarkSimRunShort(b *testing.B) {
	cfg := shortRunCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, []string{"gcc"}); err != nil {
			b.Fatal(err)
		}
	}
}

// runAllocs is what one short run allocates: the simulator, its
// caches, controller and generator tables, and the result.
const runAllocs = 56

// TestRunAllocs pins the allocations of a whole short run on one
// processor, as the benchmark gate measures it (-cpu 1). With more, a
// run this long starts a reference producer, whose blocks come from a
// pool that a collection empties.
//
// The first run after a collection must match too: nothing else a run
// allocates may live in a pool or cache that a collection empties.
// Each collection also makes the runtime allocate on its own
// goroutines (the unique package's map cleanup), so the test lets that
// work finish before it counts, and keeps collection off while
// averaging over runs.
func TestRunAllocs(t *testing.T) {
	if invariantsEnabled {
		t.Skip("the count is the default build's; -tags verify compiles in self-checks that allocate")
	}
	cfg := shortRunCfg()
	run := func() {
		if _, err := Run(cfg, []string{"gcc"}); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run()
	var before, after runtime.MemStats
	for i := 0; ; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		n := after.Mallocs - before.Mallocs
		if n == runAllocs {
			break
		}
		if i == 2 {
			t.Fatalf("the first run after a collection makes %d allocations, want %d", n, runAllocs)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if avg := testing.AllocsPerRun(10, run); avg != runAllocs {
		t.Fatalf("a short run makes %v allocations, want %d", avg, runAllocs)
	}
}
