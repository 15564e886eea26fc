package metricsz

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	// 10 samples: 4 in (0, 0.1], 4 in (0.1, 1], 2 above 1 (+Inf).
	v := Histogram{
		Count:      10,
		SumSeconds: 5,
		Buckets: []Bucket{
			{LE: 0.1, Count: 4},
			{LE: 1, Count: 8},
		},
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.2, 0.05},  // rank 2 of 4 in the first bucket: half of 0.1
		{0.4, 0.1},   // rank 4: exactly the first bound
		{0.5, 0.325}, // rank 5: a quarter into (0.1, 1]
		{0.8, 1},     // rank 8: exactly the second bound
		{0.99, 1},    // in the +Inf bucket: clamps to the last bound
		{1, 1},
		{0, 0},
	}
	for _, c := range cases {
		if got := v.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("q=%g: got %g, want %g", c.q, got, c.want)
		}
	}
	if got := (Histogram{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram: got %g, want 0", got)
	}
	// A bucket with zero in-bucket samples must not divide by zero.
	flat := Histogram{Count: 2, Buckets: []Bucket{{LE: 0.1, Count: 2}, {LE: 1, Count: 2}}}
	if got := flat.Quantile(1); got != 0.1 {
		t.Errorf("flat tail: got %g, want 0.1", got)
	}
}

// Observe from many goroutines while snapshotting: every snapshot is
// internally consistent (cumulative, never above Count) and the final
// one accounts for every sample. Run under -race in CI's race lane.
func TestRecorderConcurrent(t *testing.T) {
	const goroutines, perG = 8, 500
	r := NewRecorder([]float64{0.5, 1, 2})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Observe(float64((g+i)%4) * 0.5) // 0, 0.5, 1, 1.5
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snapping := true; snapping; {
		select {
		case <-done:
			snapping = false
		default:
		}
		h := r.Snapshot()
		prev := uint64(0)
		for _, b := range h.Buckets {
			if b.Count < prev || b.Count > h.Count {
				t.Fatalf("inconsistent snapshot %+v", h)
			}
			prev = b.Count
		}
	}
	h := r.Snapshot()
	const n = goroutines * perG
	if h.Count != n || h.SumSeconds != n/4*(0+0.5+1+1.5) {
		t.Fatalf("count/sum = %d/%g, want %d/%g", h.Count, h.SumSeconds, n, float64(n/4)*3)
	}
	// 0 and 0.5 land in le=0.5; 1 in le=1; 1.5 in le=2.
	want := []uint64{n / 2, 3 * n / 4, n}
	for i, b := range h.Buckets {
		if b.Count != want[i] {
			t.Errorf("le=%g: %d, want %d", b.LE, b.Count, want[i])
		}
	}
}
