package load

import (
	"math"
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

// healthyReport is a plausible passing esteem-load run: 600 requests,
// all completed, ~5ms p50, hit rate matching the 0.5 hot fraction.
func healthyReport() Report {
	lat := Quantiles{P50: 5, P99: 25, P999: 40, Max: 44, Mean: 7}
	return Report{
		HotFraction: 0.5,
		Overall: PhaseStats{
			Name: "overall", Requests: 600, Completed: 600, AchievedRPS: 54.5, Latency: lat,
		},
		Cache: CacheStats{Hits: 250, Coalesced: 49, Misses: 301, HitRate: 0.4983},
	}
}

func TestCheckPassesHealthyReport(t *testing.T) {
	if err := healthyReport().Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckAbsoluteFailures puts each check on both sides of its
// bound.
func TestCheckAbsoluteFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Report)
		fail   string // "" = passes; else a substring of the error
	}{
		{"no requests", func(r *Report) { r.Overall.Requests = 0 }, "no requests"},
		{"one request", func(r *Report) { r.Overall.Requests, r.Overall.Completed = 1, 1 }, ""},
		{"nothing completed", func(r *Report) {
			r.Overall.Completed = 0
			r.Overall.Rejected = 600
		}, "no completions"},
		{"zero p50", func(r *Report) { r.Overall.Latency.P50 = 0 }, "p50"},
		{"tiny p50", func(r *Report) { r.Overall.Latency.P50 = 0.001 }, ""},
		{"zero p99", func(r *Report) { r.Overall.Latency.P99 = 0 }, "p99"},
		{"zero throughput", func(r *Report) { r.Overall.AchievedRPS = 0 }, "rps"},
		{"tiny throughput", func(r *Report) { r.Overall.AchievedRPS = 0.01 }, ""},
		{"error rate 0.5%", func(r *Report) { r.Overall.Errors = 3 }, ""},
		{"error rate 1%", func(r *Report) { r.Overall.Errors = 6 }, ""},
		{"error rate 2%", func(r *Report) { r.Overall.Errors = 12 }, "error rate"},
		{"hit rate drift 0.1 below", func(r *Report) { r.Cache.HitRate = 0.4 }, ""},
		{"hit rate drift 0.1 above", func(r *Report) { r.Cache.HitRate = 0.6 }, ""},
		{"hit rate drift 0.2 below", func(r *Report) { r.Cache.HitRate = 0.3 }, "hit rate"},
		{"hit rate drift 0.2 above", func(r *Report) { r.Cache.HitRate = 0.7 }, "hit rate"},
	}
	for _, tc := range cases {
		rep := healthyReport()
		tc.mutate(&rep)
		err := rep.Check()
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%s: %v, want pass", tc.name, err)
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%s: err %v, want one naming %q", tc.name, err, tc.fail)
		}
	}

	// Every failed check is named, not just the first.
	rep := healthyReport()
	rep.Overall.AchievedRPS, rep.Cache.HitRate = 0, 0
	if err := rep.Check(); err == nil || !strings.Contains(err.Error(), "rps") || !strings.Contains(err.Error(), "hit rate") {
		t.Errorf("two failures: err %v, want both named", err)
	}
}
