// The open-loop run driver: fires requests at their precomputed
// arrival times regardless of completions, snapshots /metrics at
// phase boundaries and after the final drain, and aggregates the
// outcome into a Report.
package load

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/metricsz"
	"repro/internal/serve"
)

// Options configures one load-generator run.
type Options struct {
	// Server is the esteem-serve base URL.
	Server string
	// Schedule is the arrival process.
	Schedule Schedule
	// SpecFor overrides request synthesis (tests). Nil uses
	// serve.FastJobSpec: hot arrivals share one spec keyed off the
	// schedule seed, cold arrivals derive a unique seed from their
	// sequence number.
	SpecFor func(a Arrival) serve.JobSpec
	// ConnRetries bounds per-request retries on connection errors
	// (default 3).
	ConnRetries int
	// DrainTimeout bounds the wait for in-flight requests after the
	// last arrival (default 30s); requests still pending afterwards
	// count as errors.
	DrainTimeout time.Duration
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o *Options) fill() error {
	if o.Server == "" {
		return fmt.Errorf("load: Options.Server is required")
	}
	if err := o.Schedule.Validate(); err != nil {
		return err
	}
	if o.SpecFor == nil {
		seed := uint64(o.Schedule.Seed)
		o.SpecFor = func(a Arrival) serve.JobSpec {
			if a.Hot {
				// One shared hot spec per run: every hot arrival
				// resolves to the same content address.
				return serve.FastJobSpec(seed<<20 | 1)
			}
			// Unique per arrival, disjoint from the hot key space.
			return serve.FastJobSpec(seed<<20 | uint64(a.Seq)<<1)
		}
	}
	if o.ConnRetries == 0 {
		o.ConnRetries = 3
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// Run executes the schedule against the server and returns the
// aggregated report. The report's Date field is stamped with the
// run's start time.
func Run(ctx context.Context, opts Options) (Report, error) {
	if err := opts.fill(); err != nil {
		return Report{}, err
	}
	arrivals, err := opts.Schedule.Arrivals()
	if err != nil {
		return Report{}, err
	}
	if len(arrivals) == 0 {
		return Report{}, fmt.Errorf("load: schedule produced no arrivals")
	}
	c := newClient(opts.Server, opts.ConnRetries)

	baseline, err := c.scrape(ctx)
	if err != nil {
		return Report{}, fmt.Errorf("load: initial metrics scrape: %w", err)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]reqResult, len(arrivals))
	phaseMarks := make([]metricsz.Snapshot, len(opts.Schedule.Phases))
	var wg sync.WaitGroup
	start := time.Now()
	started := start.UTC()
	curPhase := 0
	opts.Logf("load: %d arrivals over %s against %s",
		len(arrivals), opts.Schedule.Duration().Round(time.Millisecond), opts.Server)

	for i := range arrivals {
		a := arrivals[i]
		// Phase boundary: snapshot the previous phase's metrics before
		// the next phase's first request fires.
		for curPhase < a.Phase {
			if phaseMarks[curPhase], err = c.scrape(runCtx); err != nil {
				opts.Logf("load: phase %d metrics scrape failed: %v", curPhase, err)
			}
			opts.Logf("load: phase %q done (offered %.1f rps)",
				opts.Schedule.Phases[curPhase].Name, opts.Schedule.Phases[curPhase].RPS)
			curPhase++
		}
		if d := time.Until(start.Add(a.At)); d > 0 {
			select {
			case <-runCtx.Done():
				return Report{}, runCtx.Err()
			case <-time.After(d):
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[a.Seq] = c.submitAndWait(runCtx, opts.SpecFor(a))
		}()
	}

	// Drain: wait for stragglers, bounded.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(opts.DrainTimeout):
		opts.Logf("load: drain timeout after %s; cancelling stragglers", opts.DrainTimeout)
		cancel()
		<-done
	case <-ctx.Done():
		cancel()
		<-done
	}

	final, err := c.scrape(ctx)
	if err != nil {
		return Report{}, fmt.Errorf("load: final metrics scrape: %w", err)
	}
	for curPhase < len(phaseMarks) {
		phaseMarks[curPhase] = final
		curPhase++
	}

	rep := buildReport(opts, arrivals, results, baseline, phaseMarks, final)
	rep.Date = started.Format("2006-01-02T15:04:05Z")
	rep.stampHost()
	return rep, nil
}

// buildReport aggregates per-request outcomes and metric snapshots.
func buildReport(opts Options, arrivals []Arrival, results []reqResult,
	baseline metricsz.Snapshot, phaseMarks []metricsz.Snapshot, final metricsz.Snapshot) Report {

	sched := opts.Schedule
	rep := Report{
		Seed:        sched.Seed,
		HotFraction: sched.HotFraction,
		Jitter:      sched.Jitter,
		Cache:       cacheDelta(baseline, final),
	}

	perPhase := make([][]float64, len(sched.Phases)) // completed latencies, ms
	var overall []float64
	phase := make([]PhaseStats, len(sched.Phases))
	for i := range phase {
		phase[i].Name = sched.Phases[i].Name
		phase[i].OfferedRPS = sched.Phases[i].RPS
	}
	for i, res := range results {
		p := arrivals[i].Phase
		st := &phase[p]
		st.Requests++
		st.ConnRetries += res.retries
		switch {
		case res.ok:
			st.Completed++
			ms := float64(res.latency.Microseconds()) / 1e3
			perPhase[p] = append(perPhase[p], ms)
			overall = append(overall, ms)
		case res.rejected:
			st.Rejected++
		default:
			st.Errors++
		}
	}

	prev := baseline
	for i := range phase {
		phase[i].Latency = quantilesOf(perPhase[i])
		if sched.Phases[i].Seconds > 0 {
			phase[i].AchievedRPS = float64(phase[i].Completed) / sched.Phases[i].Seconds
		}
		rep.Phases = append(rep.Phases, PhaseReport{
			PhaseStats: phase[i],
			Cache:      cacheDelta(prev, phaseMarks[i]),
		})
		prev = phaseMarks[i]
	}

	o := &rep.Overall
	o.Name = "overall"
	for _, st := range phase {
		o.Requests += st.Requests
		o.Completed += st.Completed
		o.Rejected += st.Rejected
		o.Errors += st.Errors
		o.ConnRetries += st.ConnRetries
	}
	if n := len(arrivals); n > 0 {
		o.OfferedRPS = float64(n) / sched.Duration().Seconds()
	}
	if secs := sched.Duration().Seconds(); secs > 0 {
		o.AchievedRPS = float64(o.Completed) / secs
	}
	o.Latency = quantilesOf(overall)
	rep.Histogram = latencyHistogram(overall)
	return rep
}

// latencyHistogramBoundsMs mirror the server's latency buckets (ms).
var latencyHistogramBoundsMs = []float64{
	1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// latencyHistogram builds the report's cumulative latency histogram.
func latencyHistogram(ms []float64) []HistBucket {
	r := metricsz.NewRecorder(latencyHistogramBoundsMs)
	for _, v := range ms {
		r.Observe(v)
	}
	h := r.Snapshot()
	out := make([]HistBucket, len(h.Buckets))
	for i, b := range h.Buckets {
		out[i] = HistBucket{LEms: b.LE, Count: b.Count}
	}
	return out
}
