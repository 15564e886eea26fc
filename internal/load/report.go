// Report is the load generator's output: per-phase and overall
// latency/throughput plus server-side cache behaviour, and the sanity
// checks a working service's run passes.
package load

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
)

// Quantiles summarises a latency distribution in milliseconds.
type Quantiles struct {
	P50  float64 `json:"p50_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
}

// quantilesOf computes Quantiles from raw latencies (milliseconds).
func quantilesOf(ms []float64) Quantiles {
	if len(ms) == 0 {
		return Quantiles{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Quantiles{
		P50:  at(0.50),
		P99:  at(0.99),
		P999: at(0.999),
		Max:  sorted[len(sorted)-1],
		Mean: sum / float64(len(sorted)),
	}
}

// PhaseStats is the client-side outcome of one phase (or the run).
type PhaseStats struct {
	Name       string  `json:"name"`
	OfferedRPS float64 `json:"offered_rps"`
	// Requests = Completed + Rejected + Errors.
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	// Rejected counts 429 admission rejections (load shedding, not
	// failure); Errors everything else (transport, job failure).
	Rejected int `json:"rejected_429"`
	Errors   int `json:"errors"`
	// ConnRetries counts transparently retried connection errors
	// (server start/drain windows).
	ConnRetries int `json:"conn_retries"`
	// AchievedRPS is completions over the phase's nominal duration.
	AchievedRPS float64   `json:"achieved_rps"`
	Latency     Quantiles `json:"latency"`
}

// CacheStats is the server-side /metrics delta over a window. For
// per-phase windows the attribution is approximate — an open-loop
// phase's stragglers complete under the next phase's scrape — but the
// overall (post-drain) delta is exact.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Computes  uint64 `json:"computes"`
	// HitRate counts coalesced lookups as hits: they were served by
	// another request's compute.
	HitRate         float64 `json:"hit_rate"`
	SimsExecuted    uint64  `json:"sims_executed"`
	QueueWaitMeanMs float64 `json:"queue_wait_mean_ms"`
}

// PhaseReport pairs the client- and server-side view of one phase.
type PhaseReport struct {
	PhaseStats
	Cache CacheStats `json:"cache"`
}

// HistBucket is one cumulative latency bucket of a report.
type HistBucket struct {
	LEms  float64 `json:"le_ms"`
	Count uint64  `json:"count"`
}

// Report is one dated load-generator run.
type Report struct {
	Date   string `json:"date"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`

	Seed        int64   `json:"seed"`
	HotFraction float64 `json:"hot_fraction"`
	Jitter      float64 `json:"jitter"`

	Phases  []PhaseReport `json:"phases"`
	Overall PhaseStats    `json:"overall"`
	// Cache is the exact post-drain metrics delta for the whole run.
	Cache CacheStats `json:"cache"`
	// Histogram is the end-to-end request latency distribution
	// (cumulative counts, completed requests only).
	Histogram []HistBucket `json:"latency_histogram"`
}

// stampHost fills the host/toolchain fields (Date is set by the
// caller that owns the clock).
func (r *Report) stampHost() {
	r.Go = runtime.Version()
	r.GOOS = runtime.GOOS
	r.GOARCH = runtime.GOARCH
	r.CPUs = runtime.NumCPU()
}

// Sanity bounds of Check. They are absolute: a run is compared with
// nothing but its own schedule.
const (
	maxErrorRate = 0.01 // errors/requests (429s are load shedding, not errors)
	maxHitDrift  = 0.15 // |cache hit rate - configured hot fraction|
)

// Check reports whether the run looks like a working service: traffic
// went out and completed with positive latency and throughput, at most
// 1% of requests failed, and the cache hit rate is within 0.15 of the
// schedule's hot fraction. It returns nil or an error naming every
// failed check.
func (r Report) Check() error {
	var bad []string
	want := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	o := r.Overall
	want(o.Requests > 0, "no requests")
	want(o.Completed > 0, "no completions")
	want(o.Latency.P50 > 0, "p50 %g ms, want > 0", o.Latency.P50)
	want(o.Latency.P99 > 0, "p99 %g ms, want > 0", o.Latency.P99)
	want(o.AchievedRPS > 0, "achieved %g rps, want > 0", o.AchievedRPS)
	if o.Requests > 0 {
		rate := float64(o.Errors) / float64(o.Requests)
		want(rate <= maxErrorRate, "error rate %.3g, want <= %g", rate, maxErrorRate)
	}
	drift := math.Abs(r.Cache.HitRate - r.HotFraction)
	want(drift <= maxHitDrift, "hit rate %.3g is %.3g from hot fraction %g, want <= %g",
		r.Cache.HitRate, drift, r.HotFraction, maxHitDrift)
	if len(bad) > 0 {
		return fmt.Errorf("report fails sanity checks: %s", strings.Join(bad, "; "))
	}
	return nil
}
