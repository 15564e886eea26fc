// Package stats provides the small statistical toolkit used across the
// simulator: running moments, arithmetic and geometric means, and
// percentiles. The aggregation rules follow the paper
// (Section 6.4): speedups are averaged with the geometric mean; every
// other metric — which can be zero or negative — uses the arithmetic
// mean.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, or 0 for an empty slice.
// It panics if any value is non-positive, because a geometric mean is
// undefined there — callers averaging speedups must have positive
// ratios by construction.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks. It returns 0 for an
// empty slice and panics for p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Running accumulates count, mean and variance incrementally using
// Welford's algorithm, so interval-level metrics can be aggregated
// without storing every sample.
type Running struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations added.
func (r *Running) N() int64 { return r.n }

// Mean returns the running arithmetic mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the sample variance, or 0 with fewer than two
// observations.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Stddev returns the sample standard deviation.
func (r *Running) Stddev() float64 { return math.Sqrt(r.Variance()) }

// Merge folds other into r, as if every observation of other had been
// added to r (Chan et al. parallel variance combination).
func (r *Running) Merge(other Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = other
		return
	}
	n := r.n + other.n
	d := other.mean - r.mean
	r.m2 += other.m2 + d*d*float64(r.n)*float64(other.n)/float64(n)
	r.mean += d * float64(other.n) / float64(n)
	r.n = n
}
