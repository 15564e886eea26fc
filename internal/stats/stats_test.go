package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("GeoMean(1,1,1) = %v, want 1", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
}

func TestGeoMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean with 0 did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestGeoMeanLEArithmetic(t *testing.T) {
	// AM-GM inequality must hold for any positive inputs.
	err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) + 1
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	if Min(xs) != -2 {
		t.Errorf("Min = %v", Min(xs))
	}
	if Max(xs) != 7 {
		t.Errorf("Max = %v", Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max not infinities")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v", got)
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interp p50 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile(101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestRunningMatchesDirect(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", r.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if !almostEqual(r.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
}

func TestRunningFewSamples(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 {
		t.Error("empty Running not zero")
	}
	r.Add(3)
	if r.Variance() != 0 {
		t.Error("single-sample variance not zero")
	}
}

func TestRunningMerge(t *testing.T) {
	err := quick.Check(func(a, b []int8) bool {
		var whole, left, right Running
		for _, v := range a {
			whole.Add(float64(v))
			left.Add(float64(v))
		}
		for _, v := range b {
			whole.Add(float64(v))
			right.Add(float64(v))
		}
		left.Merge(right)
		return left.N() == whole.N() &&
			almostEqual(left.Mean(), whole.Mean(), 1e-9) &&
			almostEqual(left.Variance(), whole.Variance(), 1e-6)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunningStddev(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	want := math.Sqrt(32.0 / 7.0)
	if !almostEqual(r.Stddev(), want, 1e-12) {
		t.Fatalf("stddev = %v, want %v", r.Stddev(), want)
	}
}
