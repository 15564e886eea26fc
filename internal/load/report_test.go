package load

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuantilesOf(t *testing.T) {
	var ms []float64
	for i := 1; i <= 100; i++ {
		ms = append(ms, float64(i))
	}
	q := quantilesOf(ms)
	if q.P50 != 50 || q.P99 != 99 || q.P999 != 100 || q.Max != 100 {
		t.Fatalf("quantiles %+v", q)
	}
	if math.Abs(q.Mean-50.5) > 1e-9 {
		t.Fatalf("mean %g, want 50.5", q.Mean)
	}
	if got := quantilesOf(nil); got != (Quantiles{}) {
		t.Fatalf("empty input gave %+v", got)
	}
}

// healthyReport is a plausible passing run: 600 requests, all
// completed, ~5ms p50, hit rate matching the 0.5 hot fraction.
func healthyReport() Report {
	return Report{
		Date:        "2026-08-08T00:00:00Z",
		HotFraction: 0.5,
		Overall: PhaseStats{
			Name:        "overall",
			Requests:    600,
			Completed:   600,
			AchievedRPS: 54.5,
			Latency:     Quantiles{P50: 5, P99: 25, P999: 40, Max: 44, Mean: 7},
		},
		Phases: []PhaseReport{{PhaseStats: PhaseStats{
			Name: "rps20", Requests: 600, Completed: 600, AchievedRPS: 54.5,
			Latency: Quantiles{P50: 5, P99: 25, P999: 40, Max: 44, Mean: 7},
		}}},
		Cache: CacheStats{Hits: 250, Coalesced: 49, Misses: 301, HitRate: 0.4983},
	}
}

func TestCheckPassesHealthyReport(t *testing.T) {
	rep := healthyReport()
	if err := Check(nil, rep, Thresholds{}); err != nil {
		t.Fatalf("absolute-only check failed: %v", err)
	}
	base := healthyReport()
	if err := Check(&base, rep, Thresholds{}); err != nil {
		t.Fatalf("self-baseline check failed: %v", err)
	}
}

func TestCheckAbsoluteFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"no requests", func(r *Report) { r.Overall.Requests = 0 }, "no requests"},
		{"nothing completed", func(r *Report) {
			r.Overall.Completed = 0
			r.Overall.Errors = r.Overall.Requests
		}, "no request completed"},
		{"zero latency", func(r *Report) { r.Overall.Latency = Quantiles{} }, "degenerate latency"},
		{"zero throughput", func(r *Report) { r.Overall.AchievedRPS = 0 }, "zero achieved throughput"},
		{"error rate", func(r *Report) { r.Overall.Errors = 60 }, "error rate"},
		{"hit rate drift", func(r *Report) { r.Cache.HitRate = 0.1 }, "hit rate"},
	}
	for _, tc := range cases {
		rep := healthyReport()
		tc.mutate(&rep)
		err := Check(nil, rep, Thresholds{})
		if err == nil {
			t.Errorf("%s: check passed, want failure", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckRelativeBounds(t *testing.T) {
	base := healthyReport()

	slow := healthyReport()
	slow.Overall.Latency.P99 = base.Overall.Latency.P99 * 11
	if err := Check(&base, slow, Thresholds{}); err == nil ||
		!strings.Contains(err.Error(), "p99") {
		t.Fatalf("11x p99 regression not caught: %v", err)
	}

	starved := healthyReport()
	starved.Overall.AchievedRPS = base.Overall.AchievedRPS * 0.2
	if err := Check(&base, starved, Thresholds{}); err == nil ||
		!strings.Contains(err.Error(), "throughput") {
		t.Fatalf("5x throughput collapse not caught: %v", err)
	}

	// Within the loose bounds: 3x slower p99 still passes by design.
	noisy := healthyReport()
	noisy.Overall.Latency.P99 = base.Overall.Latency.P99 * 3
	if err := Check(&base, noisy, Thresholds{}); err != nil {
		t.Fatalf("3x p99 (CI noise territory) rejected: %v", err)
	}
}

func TestCheckHitRateToleranceDisable(t *testing.T) {
	rep := healthyReport()
	rep.Cache.HitRate = 0
	if err := Check(nil, rep, Thresholds{HitRateTolerance: -1}); err != nil {
		t.Fatalf("negative tolerance should disable the hit-rate check: %v", err)
	}
}

// TestDegradeFailsCheck: the gate self-test contract — a degraded copy
// of a passing report must fail against the original as baseline.
func TestDegradeFailsCheck(t *testing.T) {
	base := healthyReport()
	if err := Check(&base, healthyReport(), Thresholds{}); err != nil {
		t.Fatalf("precondition: healthy report must pass: %v", err)
	}
	bad := Degrade(healthyReport(), 20)
	if bad.Overall.Latency.P99 != base.Overall.Latency.P99*20 {
		t.Fatalf("degrade did not scale p99: %g", bad.Overall.Latency.P99)
	}
	if bad.Overall.AchievedRPS != base.Overall.AchievedRPS/20 {
		t.Fatalf("degrade did not deflate throughput: %g", bad.Overall.AchievedRPS)
	}
	if err := Check(&base, bad, Thresholds{}); err == nil {
		t.Fatal("gate passed a 20x-degraded report")
	}
	// Degrade must not mutate its input (phases are shared slices).
	orig := healthyReport()
	_ = Degrade(orig, 20)
	if orig.Phases[0].Latency.P50 != 5 {
		t.Fatal("Degrade mutated its input's phases")
	}
}

func TestTrajectoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")

	tr, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Latest() != nil {
		t.Fatal("missing file should be an empty trajectory")
	}

	tr.Entries = append(tr.Entries, healthyReport())
	if err := SaveTrajectory(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != 1 || len(got.Entries) != 1 {
		t.Fatalf("round trip gave schema=%d entries=%d", got.Schema, len(got.Entries))
	}
	latest := got.Latest()
	if latest == nil || latest.Overall.Requests != 600 {
		t.Fatalf("latest entry %+v", latest)
	}
}

func TestLatencyHistogramCumulative(t *testing.T) {
	h := latencyHistogram([]float64{0.5, 3, 30, 30000})
	if len(h) != len(latencyHistogramBoundsMs) {
		t.Fatalf("%d buckets", len(h))
	}
	// Cumulative: counts never decrease; 0.5ms lands in the first
	// bucket, 30s overflows every bound.
	if h[0].Count != 1 {
		t.Fatalf("le=1ms count %d, want 1", h[0].Count)
	}
	last := h[len(h)-1]
	if last.Count != 3 {
		t.Fatalf("le=%gms count %d, want 3 (30s overflows)", last.LEms, last.Count)
	}
	for i := 1; i < len(h); i++ {
		if h[i].Count < h[i-1].Count {
			t.Fatalf("histogram not cumulative at bucket %d", i)
		}
	}
	// A sample exactly on a bound lands in that bound's bucket (v <= le).
	edges := latencyHistogram([]float64{1, 2.5, 2.5, 10000})
	for i, want := range map[int]uint64{0: 1, 1: 3, 2: 3, len(edges) - 2: 3, len(edges) - 1: 4} {
		if edges[i].Count != want {
			t.Errorf("edges: le=%gms count %d, want %d", edges[i].LEms, edges[i].Count, want)
		}
	}
}
