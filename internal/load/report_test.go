package load

import (
	"math"
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
