// Package xrand provides a small, deterministic pseudo-random number
// generator and the distributions needed by the synthetic workload
// generators. It is based on splitmix64, which is fast, has a full
// 2^64 period per stream, and — unlike math/rand's default source —
// is guaranteed to produce identical sequences across Go releases.
// Determinism matters here: every experiment in EXPERIMENTS.md must be
// exactly reproducible from a named seed.
package xrand

import (
	"math"
	"sync"
)

// RNG is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; use New to seed explicitly.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. Two generators with the
// same seed produce identical sequences.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator to the given seed.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// State returns the generator's current internal state. Together with
// SetState it lets checkpoints capture and resume a stream exactly:
// splitmix64's whole state is one word, and the next output is a pure
// function of it.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously obtained from State.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is statistically
// independent of the receiver's. It is used to derive per-benchmark
// and per-core substreams from a single experiment seed.
func (r *RNG) Split() *RNG {
	// Mixing two outputs keeps child streams decorrelated from both
	// the parent's future outputs and from sibling children.
	a := r.Uint64()
	b := r.Uint64()
	return New(a ^ (b << 1) ^ 0xD1B54A32D192ED03)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random bits / 2^53, the standard construction.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a sample from the geometric distribution with
// success probability p: the number of failures before the first
// success, so the mean is (1-p)/p. It panics unless 0 < p <= 1.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	u := r.Float64()
	// Avoid log(0).
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(math.Log(u) / math.Log(1-p))
}

// Exponential returns a sample from the exponential distribution with
// the given mean. It panics if mean <= 0.
func (r *RNG) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("xrand: Exponential requires mean > 0")
	}
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s. The CDF is precomputed once per (n, s) pair and shared
// globally between samplers — it is immutable, and rebuilding it with
// math.Pow for every generator phase switch dominated simulator
// construction profiles.
type Zipf struct {
	t   *zipfTable
	rng *RNG
}

// zipfBuckets is the fan-out of the first-level index over the CDF.
// A power of two so that int(u*zipfBuckets) is computed exactly and
// u < (bucket+1)/zipfBuckets holds by construction.
const zipfBuckets = 256

type zipfTable struct {
	cdf []float64
	// For u in bucket b, the first CDF entry >= u lies in
	// [lo[b], hi[b]]: lo[b] is the first entry >= b/zipfBuckets and
	// hi[b] the first entry >= (b+1)/zipfBuckets. The bracketed
	// binary search returns exactly what a full-range search would.
	lo, hi []int32
}

type zipfTableKey struct {
	n     int
	sbits uint64
}

var zipfTables sync.Map // zipfTableKey -> *zipfTable

func zipfTableFor(n int, s float64) *zipfTable {
	key := zipfTableKey{n: n, sbits: math.Float64bits(s)}
	if v, ok := zipfTables.Load(key); ok {
		return v.(*zipfTable)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	t := &zipfTable{
		cdf: cdf,
		lo:  make([]int32, zipfBuckets),
		hi:  make([]int32, zipfBuckets),
	}
	idx := 0
	for b := 0; b < zipfBuckets; b++ {
		thr := float64(b) / zipfBuckets
		for idx < n-1 && cdf[idx] < thr {
			idx++
		}
		t.lo[b] = int32(idx)
		if b > 0 {
			t.hi[b-1] = int32(idx)
		}
	}
	// hi for the last bucket: first entry >= 1, which exists because
	// cdf[n-1] is pinned to 1.
	for idx < n-1 && cdf[idx] < 1 {
		idx++
	}
	t.hi[zipfBuckets-1] = int32(idx)
	v, _ := zipfTables.LoadOrStore(key, t)
	return v.(*zipfTable)
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s >= 0,
// drawing randomness from rng. It panics if n <= 0 or s < 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf requires n > 0")
	}
	if s < 0 {
		panic("xrand: NewZipf requires s >= 0")
	}
	return &Zipf{t: zipfTableFor(n, s), rng: rng}
}

// N returns the size of the sampler's domain.
func (z *Zipf) N() int { return len(z.t.cdf) }

// RNGState returns the internal state of the sampler's RNG stream,
// for checkpointing.
func (z *Zipf) RNGState() uint64 { return z.rng.state }

// SetRNGState restores a state previously obtained from RNGState.
func (z *Zipf) SetRNGState(s uint64) { z.rng.state = s }

// Next returns the next sample in [0, N()): the first CDF entry >= u.
// The bucket index narrows the search range; because the brackets
// provably contain the answer, the result is identical to a binary
// search over the whole CDF (the search path differs, the unique
// answer does not).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	t := z.t
	b := int(u * zipfBuckets)
	lo, hi := int(t.lo[b]), int(t.hi[b])
	cdf := t.cdf
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
