package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/castore"
	"repro/internal/obs"
	"repro/internal/tracez"
)

// delays injects latency at the benchmark's own layer boundaries. The
// layer self-test uses it to prove that each end-to-end metric moves
// with the layer it is attributed to; real runs leave it zero.
type delays struct {
	// store delays every artifact read through storeProbe.
	store time.Duration
	// route delays one HTTP route class of routeProbe.
	route     string
	routeWait time.Duration
}

// storeProbe decorates a castore.Backend: it counts the work the store
// layer does and times the compute callback apart from the store's own
// time. It changes no behaviour beyond an injected delay.
type storeProbe struct {
	castore.Backend
	delay time.Duration

	mu          sync.Mutex
	computes    uint64        // compute callbacks that produced an artifact
	putBytes    uint64        // bytes of those artifacts
	computeTime time.Duration // time inside compute callbacks
	instr       uint64        // measured instructions of computed artifacts
	ckptSaves   uint64
	ckptBytes   uint64
	// ckpts keeps up to ckptKeep saved checkpoint envelopes, keyed
	// "<base key>/<seq>", for the traced run's re-encode timing.
	ckpts    map[string][]byte
	ckptKeep int
	// arts keeps each computed artifact's seed and summary.
	arts []computedRun
}

// computedRun is what the layer metrics need from one computed
// artifact.
type computedRun struct {
	seed uint64
	sum  obs.RunSummary
}

func newStoreProbe(b castore.Backend, delay time.Duration) *storeProbe {
	return &storeProbe{Backend: b, delay: delay}
}

// reset zeroes the probe at the start of a timed window and keeps the
// next keep saved checkpoint envelopes.
func (p *storeProbe) reset(keep int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.computes, p.putBytes, p.computeTime, p.instr, p.ckptSaves, p.ckptBytes = 0, 0, 0, 0, 0, 0
	p.arts = nil
	p.ckpts, p.ckptKeep = map[string][]byte{}, keep
}

func (p *storeProbe) Get(key string) ([]byte, bool, error) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.Backend.Get(key)
}

func (p *storeProbe) GetOrCompute(ctx context.Context, key string, compute func(context.Context) ([]byte, error)) ([]byte, bool, error) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	return p.Backend.GetOrCompute(ctx, key, func(ctx context.Context) ([]byte, error) {
		t0 := time.Now()
		data, err := compute(ctx)
		d := time.Since(t0)
		if err != nil {
			return data, err
		}
		art, perr := obs.ParseRun(data)
		p.mu.Lock()
		defer p.mu.Unlock()
		p.computes++
		p.putBytes += uint64(len(data))
		p.computeTime += d
		if perr == nil {
			p.instr += art.Summary.Instructions
			p.arts = append(p.arts, computedRun{art.Manifest.Seed, art.Summary})
		}
		return data, perr
	})
}

func (p *storeProbe) PutCheckpoint(base string, meta castore.CheckpointMeta, data []byte) error {
	p.mu.Lock()
	p.ckptSaves++
	p.ckptBytes += uint64(len(data))
	if len(p.ckpts) < p.ckptKeep {
		p.ckpts[base+"/"+strconv.Itoa(meta.Seq)] = data
	}
	p.mu.Unlock()
	return p.Backend.PutCheckpoint(base, meta, data)
}

// probeCounts is a snapshot of a storeProbe's counters.
type probeCounts struct {
	computes, putBytes, instr, ckptSaves, ckptBytes uint64
	computeTime                                     time.Duration
}

func (p *storeProbe) snapshot() probeCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return probeCounts{p.computes, p.putBytes, p.instr, p.ckptSaves, p.ckptBytes, p.computeTime}
}

// layerInputs fills the simulation and store layers' inputs from the
// computed artifacts.
func (p *storeProbe) layerInputs() layerInputs {
	in := layerInputs{store: p.snapshot()}
	p.mu.Lock()
	defer p.mu.Unlock()
	in.sims = len(p.arts)
	for _, a := range p.arts {
		in.sums = append(in.sums, a.sum)
		in.gens = append(in.gens, streamsOf(a.seed, a.sum)...)
	}
	return in
}

// routeProbe wraps an http.Handler and times every request by route
// class on the server side.
type routeProbe struct {
	next  http.Handler
	delay delays

	mu    sync.Mutex
	times map[string][]float64 // route class -> handler ms
}

func newRouteProbe(next http.Handler, d delays) *routeProbe {
	return &routeProbe{next: next, delay: d, times: map[string][]float64{}}
}

// routeClass names the layer operation a request performs.
func routeClass(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/cluster/lease":
		return "lease"
	case p == "/v1/cluster/complete":
		return "complete"
	case strings.HasPrefix(p, castore.ShardPathPrefix):
		return "shard-" + strings.ToLower(r.Method)
	case p == "/v1/jobs" && r.Method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/v1/artifacts/"):
		return "artifact"
	}
	return "other"
}

// statusRecorder captures the response status (a lease long-poll that
// handed out a task answers 200) and forwards Flush for SSE.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	if s.status == 0 {
		s.status = code
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (p *routeProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	class := routeClass(r)
	if p.delay.route == class && p.delay.routeWait > 0 {
		time.Sleep(p.delay.routeWait)
	}
	rec := &statusRecorder{ResponseWriter: w}
	t0 := time.Now()
	p.next.ServeHTTP(rec, r)
	d := ms(time.Since(t0))
	if class == "lease" && rec.status == http.StatusOK {
		class = "lease-granted"
	}
	p.mu.Lock()
	p.times[class] = append(p.times[class], d)
	p.mu.Unlock()
}

// take returns and clears the recorded times of one route class.
func (p *routeProbe) take(class string) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.times[class]
	delete(p.times, class)
	return out
}

// reset drops every recorded time, so set-up traffic is not measured.
func (p *routeProbe) reset() {
	p.mu.Lock()
	p.times = map[string][]float64{}
	p.mu.Unlock()
}

// mergeTimes concatenates one route class across several probes.
func mergeTimes(class string, probes ...*routeProbe) []float64 {
	var out []float64
	for _, p := range probes {
		out = append(out, p.take(class)...)
	}
	return out
}

// spanRollup accumulates per-span-name self time and counts over
// whole traces.
type spanRollup struct {
	self  map[string]time.Duration // name -> summed self time
	total map[string]time.Duration // name -> summed duration
	count map[string]int
	// taskWait is, per runner "task" span, how long after its parent
	// span began the task started: its wait in the runner's queue.
	taskWait []float64
}

func newSpanRollup() *spanRollup {
	return &spanRollup{self: map[string]time.Duration{}, total: map[string]time.Duration{}, count: map[string]int{}}
}

// add rolls one trace's spans in. A span's self time is its duration
// minus the part of it its children's intervals cover.
func (s *spanRollup) add(spans []tracez.SpanData) {
	children := map[tracez.SpanID][]tracez.SpanData{}
	byID := map[tracez.SpanID]tracez.SpanData{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
		byID[sp.SpanID] = sp
	}
	for _, sp := range spans {
		if parent, ok := byID[sp.Parent]; ok && sp.Name == "task" {
			s.taskWait = append(s.taskWait, ms(sp.Start.Sub(parent.Start)))
		}
		dur := sp.End.Sub(sp.Start)
		s.total[sp.Name] += dur
		s.count[sp.Name]++
		s.self[sp.Name] += dur - covered(sp, children[sp.SpanID])
	}
}

// covered returns how much of parent's interval the union of kids'
// intervals covers.
func covered(parent tracez.SpanData, kids []tracez.SpanData) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			sum += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	return sum + curB.Sub(curA)
}

// selfMs returns name's summed self time in milliseconds.
func (s *spanRollup) selfMs(name string) float64 { return ms(s.self[name]) }

// meanMs returns name's mean span duration in milliseconds.
func (s *spanRollup) meanMs(name string) float64 {
	if s.count[name] == 0 {
		return 0
	}
	return ms(s.total[name]) / float64(s.count[name])
}

// totalMs returns name's summed duration in milliseconds.
func (s *spanRollup) totalMs(name string) float64 { return ms(s.total[name]) }
