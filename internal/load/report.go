// Report is the load generator's output and the input esteem-gate
// records into the BENCH_serve.json trajectory: per-phase and overall
// latency/throughput plus server-side cache behaviour.
package load

import (
	"math"
	"runtime"
	"sort"
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

// Report is one dated load-generator run; esteem-gate flattens it
// into one BENCH_serve.json entry.
type Report struct {
	Date   string `json:"date"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Note   string `json:"note,omitempty"`

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
