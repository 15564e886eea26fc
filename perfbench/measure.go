package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

// setupReps is how many times each workload builds its set-up; the
// reported setup_s is the median and the last build serves the timed
// window.
const setupReps = 3

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns the p-th percentile of xs (0 for none).
func pct(xs []float64, p float64) float64 { return stats.Percentile(xs, p) }

// median returns the 50th percentile of xs.
func median(xs []float64) float64 { return pct(xs, 50) }

// tailPct is the highest percentile of n samples that keeps at least
// ten samples beyond it, capped at p99 and floored at p50.
func tailPct(n int) float64 {
	if n <= 0 {
		return 50
	}
	p := 100 * (1 - 10/float64(n))
	return math.Max(50, math.Min(99, p))
}

// pctWithFailures returns the p-th percentile of ok with failed extra
// operations counted as slower than any limit. A percentile that lands
// on a failure reports limit.
func pctWithFailures(ok []float64, failed int, p, limit float64) float64 {
	all := append([]float64(nil), ok...)
	for i := 0; i < failed; i++ {
		all = append(all, math.Inf(1))
	}
	sort.Float64s(all)
	v := stats.Percentile(all, p)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return limit
	}
	return v
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// window snapshots process CPU and Go allocator state at the start of
// a timed window.
type window struct {
	start time.Time
	cpu   time.Duration
	mem   runtime.MemStats
}

func startWindow() window {
	w := window{start: time.Now(), cpu: cpuTime()}
	runtime.ReadMemStats(&w.mem)
	return w
}

// finish records the window's process-level metrics for ops
// operations: max_rss_mb end to end, allocations and GC cycles per
// layer. It returns the CPU time the window used.
func (w window) finish(r *report, ops int) time.Duration {
	cpu := cpuTime() - w.cpu
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.e2e.add("max_rss_mb", "MiB", maxRSSMiB(), 1)
	r.layers.add("go.alloc_bytes_per_op", "B", float64(mem.TotalAlloc-w.mem.TotalAlloc)/float64(ops), ops)
	r.layers.add("go.gc_cycles", "count", float64(mem.NumGC-w.mem.NumGC), 1)
	return cpu
}

// timedSetups runs build setupReps times, closing every build but the
// last, and records the median build time as setup_s.
func timedSetups[T any](r *report, build func(rep int) (T, error), close func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		v, err := build(rep)
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			close(v)
		}
		last = v
	}
	r.e2e.add("setup_s", "s", median(times), len(times))
	return last, nil
}

// sameCounts reports the first work count on which a and b differ.
func sameCounts(a, b map[string]uint64) error {
	for _, k := range sortedKeys(a) {
		if bv, ok := b[k]; !ok || bv != a[k] {
			return fmt.Errorf("work count %s: %d vs %d", k, a[k], b[k])
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			return fmt.Errorf("work count %s: missing vs %d", k, b[k])
		}
	}
	return nil
}

// checkCounts compares this run's work counts with the first run at
// the same workload, seed and window recorded under dir, recording
// them when there is none yet. Work that depends on a race shows up
// here as a failed run instead of hiding in the timing.
func checkCounts(dir, name string, o options, counts map[string]uint64) error {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%ds.json", name, o.seed, int(o.window.Seconds())))
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(counts, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return err
	}
	var prev map[string]uint64
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	if err := sameCounts(prev, counts); err != nil {
		return fmt.Errorf("work differs from an earlier run at the same seed: %w", err)
	}
	return nil
}

// countsEqual checks that every unit of repeated work (a sweep pass, a
// cluster job) did exactly what the first one did, and returns the
// first unit's counts.
func countsEqual(units []map[string]uint64) (map[string]uint64, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("no complete unit of work in the window")
	}
	for i, u := range units[1:] {
		if err := sameCounts(units[0], u); err != nil {
			return nil, fmt.Errorf("unit %d did different work than unit 0: %w", i+1, err)
		}
	}
	return units[0], nil
}
