package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/castore"
	"repro/internal/cliflags"
	"repro/internal/load"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tracez"
)

// The serve-openloop workload: an in-process serve.Server (one job
// worker, one sim worker, on-disk store) behind a loopback listener,
// driven by an open loop of load.Schedule arrivals at one fixed rate,
// half of them hot (one shared serve.FastJobSpec key) and half cold
// (unique small simulations). On a 2-CPU host 429s begin between 150
// and 200 rps; at 100 rps the queue turned host stalls into a p99 that
// doubled between runs, so the rate is 50 rps.
const (
	serveRPS       = 50
	serveHot       = 0.5
	serveJitter    = 1.0
	serveDrain     = 60 * time.Second
	serveColdCheck = 8 // cold results recomputed after the window
	// serveWarmJobs run closed-loop in set-up, half hot and half cold,
	// so the window starts with a grown heap, open connections and the
	// hot key stored: a long-running server does not pay those per job.
	serveWarmJobs = 200
)

// maxConns caps the benchmark client's connections per server.
const maxConns = 2

// unitConfig expands a one-technique job spec into the simulation the
// service runs for workload wl, the way serve's submission path does.
func unitConfig(spec serve.JobSpec, wl []string) (sim.Config, []string, error) {
	cfg := sim.DefaultConfig(1)
	if err := json.Unmarshal(spec.Config, &cfg); err != nil {
		return cfg, nil, err
	}
	technology, err := cliflags.ParseTechnology(cfg.Technology)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Technology = technology
	if len(spec.Techniques) != 1 {
		return cfg, nil, fmt.Errorf("unitConfig needs a one-technique spec")
	}
	if cfg.Technique, err = cliflags.ParseTechnique(spec.Techniques[0]); err != nil {
		return cfg, nil, err
	}
	return cfg, wl, cfg.Validate()
}

// recompute runs one unit on a standalone sweep with a memory store and
// returns its artifact bytes: the reference served results must match.
func recompute(cfg sim.Config, wl []string) ([]byte, string, error) {
	key, err := runner.CacheKey(cfg, wl)
	if err != nil {
		return nil, "", err
	}
	store, err := castore.Open("", 4)
	if err != nil {
		return nil, "", err
	}
	sw := runner.NewSweep(1)
	sw.SetCache(store)
	sw.Sim(cfg, wl)
	if err := sw.Run(context.Background()); err != nil {
		return nil, "", err
	}
	data, ok, err := store.Get(key)
	if err != nil || !ok {
		return nil, "", fmt.Errorf("recomputed artifact %s missing (err %v)", key[:12], err)
	}
	return data, key, nil
}

// unsampledTracer samples none of a run's roots: a nil serve tracer
// would sample everything.
func unsampledTracer() *tracez.Tracer {
	return tracez.New(tracez.Config{Seed: 1, SampleRatio: math.SmallestNonzeroFloat64})
}

// httpNode is one in-process HTTP listener with the benchmark's route
// probe in front of its handler.
type httpNode struct {
	url    string
	probe  *routeProbe
	hs     *http.Server
	served chan struct{}
}

// listen starts serving h (wrapped in a routeProbe) on a loopback
// port. The handler may be installed after the URL is known.
func listen(d delays) (*httpNode, func(http.Handler), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	var mu sync.RWMutex
	var inner http.Handler = http.NotFoundHandler()
	n := &httpNode{url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	n.probe = newRouteProbe(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.RLock()
		h := inner
		mu.RUnlock()
		h.ServeHTTP(w, r)
	}), d)
	n.hs = &http.Server{Handler: n.probe}
	go func() {
		defer close(n.served)
		n.hs.Serve(ln)
	}()
	set := func(h http.Handler) {
		mu.Lock()
		inner = h
		mu.Unlock()
	}
	return n, set, nil
}

// close stops the listener and waits for its serve loop to exit.
func (n *httpNode) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if n.hs.Shutdown(ctx) != nil {
		n.hs.Close()
	}
	<-n.served
}

// client is the benchmark's HTTP client: at most maxConns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// jobView is the part of the job view the benchmark reads.
type jobView struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id"`
	Units   []struct {
		Technique string   `json:"technique"`
		Workload  []string `json:"workload"`
		Key       string   `json:"key"`
	} `json:"units"`
}

// errRejected marks a submission refused with 429.
var errRejected = errors.New("rejected (429)")

// jobRun is one job's client-side outcome.
type jobRun struct {
	view                jobView
	submit, wait, fetch time.Duration
	// unitDone is each unit's completion time after submit, in SSE
	// order (cluster jobs).
	unitDone []time.Duration
	body     []byte
	spans    []tracez.SpanData // traced runs: the job's whole trace
	err      error
}

// run submits spec, follows the job's events until it is terminal and
// fetches its result bytes.
func (c *client) run(ctx context.Context, spec serve.JobSpec) jobRun {
	var jr jobRun
	body, err := json.Marshal(spec)
	if err != nil {
		jr.err = err
		return jr
	}
	t0 := time.Now()
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		jr.err = err
		return jr
	}
	err = decodeResp(resp, http.StatusAccepted, &jr.view)
	jr.submit = time.Since(t0)
	if err != nil {
		jr.err = err
		return jr
	}
	t1 := time.Now()
	jr.unitDone, jr.err = c.follow(ctx, jr.view.ID, t0)
	jr.wait = time.Since(t1)
	if jr.err != nil {
		return jr
	}
	t2 := time.Now()
	jr.body, jr.err = c.get(ctx, "/v1/jobs/"+jr.view.ID+"/result")
	jr.fetch = time.Since(t2)
	return jr
}

// follow reads the job's SSE stream until the server closes it at the
// terminal state, timestamping unit completions relative to t0.
func (c *client) follow(ctx context.Context, id string, t0 time.Time) ([]time.Duration, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: %s", resp.Status)
	}
	var done []time.Duration
	state := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			State string `json:"state"`
			Task  string `json:"task"`
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		switch {
		case ev.Task == "done":
			done = append(done, time.Since(t0))
		case ev.State != "":
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if state != string(serve.StateDone) {
		return nil, fmt.Errorf("job %s ended %q", id, state)
	}
	return done, nil
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.hc.Do(req)
}

// get fetches path and returns the body of a 200 response.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

func decodeResp(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return errRejected
	}
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// metricsView scrapes the server's JSON metrics.
func (c *client) metricsView(ctx context.Context) (serve.MetricsView, error) {
	var v serve.MetricsView
	data, err := c.get(ctx, "/metrics?format=json")
	if err != nil {
		return v, err
	}
	return v, json.Unmarshal(data, &v)
}

// serveNode is the serve-openloop set-up: a server on a fresh store,
// listening and warmed up by one job.
type serveNode struct {
	node   *httpNode
	srv    *serve.Server
	store  *castore.Store
	probe  *storeProbe
	tracer *tracez.Tracer
	client *client
}

func startServe(o options, rep int) (*serveNode, error) {
	store, err := castore.Open(filepath.Join(o.work, fmt.Sprintf("serve%d", rep)), 256)
	if err != nil {
		return nil, err
	}
	n := &serveNode{store: store, probe: newStoreProbe(store, o.delays.store), tracer: unsampledTracer()}
	if o.traced {
		// Every job's trace is drained as soon as its result is in, so
		// the ring only holds jobs in flight.
		n.tracer = tracez.New(tracez.Config{Seed: 1, RingSize: 1 << 16})
	}
	node, set, err := listen(o.delays)
	if err != nil {
		return nil, err
	}
	n.node = node
	n.srv, err = serve.New(serve.Config{
		Store: n.probe, Workers: 1, SimWorkers: 1, JobTimeout: time.Minute,
		Tracer: n.tracer, Node: node.url,
	})
	if err != nil {
		node.close()
		return nil, err
	}
	set(n.srv.Handler())
	n.client = newClient(node.url)
	ctx := context.Background()
	if err := load.WaitReady(ctx, node.url, 10*time.Second); err != nil {
		n.close()
		return nil, err
	}
	if err := n.warmUp(ctx, hotSpec(o.seed), uint64(o.seed)<<20); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// hotSpec is the one job every hot arrival submits.
func hotSpec(seed int64) serve.JobSpec { return serve.FastJobSpec(uint64(seed)<<20 | 1) }

// coldSpec is arrival seq's unique job. Window arrivals use even
// seeds, warm-up jobs odd ones, and the hot job seed 1.
func coldSpec(seed int64, seq int) serve.JobSpec {
	return serve.FastJobSpec(uint64(seed)<<20 | uint64(seq)<<1)
}

// warmUp runs serveWarmJobs jobs closed-loop over maxConns clients,
// alternately the hot spec and a fresh cold one (odd seeds above base).
func (n *serveNode) warmUp(ctx context.Context, hot serve.JobSpec, base uint64) error {
	jobs := make(chan int)
	errs := make(chan error, maxConns)
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				spec := hot
				if i%2 == 1 {
					spec = serve.FastJobSpec(base | uint64(i)<<1 | 1)
				}
				if jr := n.client.run(ctx, spec); jr.err != nil {
					errs <- fmt.Errorf("warm-up job %d: %w", i, jr.err)
					return
				}
			}
		}()
	}
	for i := 0; i < serveWarmJobs; i++ {
		select {
		case jobs <- i:
		case err := <-errs:
			close(jobs)
			wg.Wait()
			return err
		}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// openLoop fires each arrival at start+At as one client job, never
// waiting for earlier ones, and waits (bounded) for all of them.
func (n *serveNode) openLoop(ctx context.Context, start time.Time, arrivals []load.Arrival,
	spec func(load.Arrival) serve.JobSpec, traced bool) ([]arrivalRun, error) {
	runs := make([]arrivalRun, len(arrivals))
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(a.At)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, a load.Arrival) {
			defer wg.Done()
			fired := time.Now()
			jr := n.client.run(ctx, spec(a))
			if traced && jr.err == nil {
				if tid, ok := tracez.ParseTraceID(jr.view.TraceID); ok {
					jr.spans = n.tracer.Take(tid)
				}
			}
			runs[i] = arrivalRun{a: a, lag: fired.Sub(due), lat: time.Since(due), jr: jr}
		}(i, a)
	}
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
		return runs, nil
	case <-time.After(serveDrain):
		return nil, fmt.Errorf("jobs still in flight %s after the last arrival", serveDrain)
	}
}

func (n *serveNode) close() {
	n.client.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n.srv.Drain(ctx) != nil {
		n.srv.Close()
	}
	n.node.close()
	os.RemoveAll(n.store.Dir())
}

// arrivalRun is one open-loop arrival's outcome.
type arrivalRun struct {
	a   load.Arrival
	lag time.Duration // fire time minus due time
	lat time.Duration // due time to result bytes
	jr  jobRun
}

// runServe is the serve-openloop workload.
func runServe(o options) (*report, error) {
	r := newReport()
	n, err := timedSetups(r, func(rep int) (*serveNode, error) { return startServe(o, rep) }, (*serveNode).close)
	if err != nil {
		return r, err
	}
	defer n.close()
	ctx := context.Background()

	sched := load.Schedule{
		Phases:      []load.Phase{{Name: "steady", RPS: serveRPS, Seconds: o.window.Seconds()}},
		HotFraction: serveHot, Jitter: serveJitter, Seed: o.seed,
	}
	arrivals, err := sched.Arrivals()
	if err != nil {
		return r, err
	}
	spec := func(a load.Arrival) serve.JobSpec {
		if a.Hot {
			return hotSpec(o.seed)
		}
		return coldSpec(o.seed, a.Seq)
	}
	before, err := n.client.metricsView(ctx)
	if err != nil {
		return r, err
	}
	storeBefore := n.store.Stats()
	keep := 0
	if o.traced {
		keep = maxReencode
	}
	n.probe.reset(keep)

	w := startWindow()
	runs, err := n.openLoop(ctx, w.start, arrivals, spec, o.traced)
	if err != nil {
		return r, err
	}
	cpu := w.finish(r, len(arrivals))
	r.e2e.add("cpu_ms_per_op", "ms", ms(cpu)/float64(len(arrivals)), len(arrivals))
	after, err := n.client.metricsView(ctx)
	if err != nil {
		return r, err
	}
	storeAfter := n.store.Stats()
	pc := n.probe.snapshot()

	var hot, cold, all, lags []float64
	var hotBody []byte
	var coldIdx []int
	rejected, failed := 0, 0
	for i, ar := range runs {
		r.attempted++
		if ar.jr.err != nil {
			r.failed++
			if errors.Is(ar.jr.err, errRejected) {
				rejected++
			} else {
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: arrival %d: %v\n", i, ar.jr.err)
			}
			continue
		}
		lat := ms(ar.lat)
		all = append(all, lat)
		lags = append(lags, ms(ar.lag))
		if ar.a.Hot {
			hot = append(hot, lat)
			if hotBody == nil {
				hotBody = ar.jr.body
			} else if !bytes.Equal(hotBody, ar.jr.body) {
				return r, fmt.Errorf("hot arrival %d served different bytes", i)
			}
			continue
		}
		cold = append(cold, lat)
		coldIdx = append(coldIdx, i)
	}
	if failed > 0 {
		return r, fmt.Errorf("%d jobs failed", failed)
	}
	// Recompute a fixed sample of cold results on a standalone sweep.
	for k := 0; k < serveColdCheck && len(coldIdx) > 0; k++ {
		ar := runs[coldIdx[k*len(coldIdx)/serveColdCheck]]
		sp := spec(ar.a)
		cfg, wl, err := unitConfig(sp, sp.Benchmarks[0])
		if err != nil {
			return r, err
		}
		want, key, err := recompute(cfg, wl)
		if err != nil {
			return r, err
		}
		if len(ar.jr.view.Units) != 1 || ar.jr.view.Units[0].Key != key || !bytes.Equal(want, ar.jr.body) {
			return r, fmt.Errorf("cold arrival %d: served result differs from a standalone recompute", ar.a.Seq)
		}
	}

	counter := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
	busy := func(name string) float64 {
		return after.Histograms[name].SumSeconds - before.Histograms[name].SumSeconds
	}
	completed := float64(counter("esteem_serve_jobs_completed_total"))
	r.counts = map[string]uint64{
		"arrivals":             uint64(len(arrivals)),
		"sims":                 counter("esteem_serve_sims_executed_total"),
		"instructions":         counter("esteem_serve_sim_instructions_total"),
		"store_computes":       storeAfter.Computes - storeBefore.Computes,
		"store_put_bytes":      pc.putBytes,
		"store_hits_coalesced": storeAfter.Hits - storeBefore.Hits + storeAfter.Coalesced - storeBefore.Coalesced,
		"ckpt_saves":           pc.ckptSaves,
		"rejected":             uint64(rejected),
	}
	fmt.Fprintf(os.Stderr, "perfbench: job latency ms p50 %.2f p90 %.2f p95 %.2f p98 %.2f p99 %.2f p99.5 %.2f max %.2f\n",
		pct(all, 50), pct(all, 90), pct(all, 95), pct(all, 98), pct(all, 99), pct(all, 99.5), pct(all, 100))
	limit := ms(serveDrain)
	r.e2e.add("sim_minstr_per_s", "Minstr/s", float64(pc.instr)/1e6/pc.computeTime.Seconds(), int(pc.computes))
	r.e2e.add("hot_p50_ms", "ms", median(hot), len(hot))
	r.e2e.add("cold_p50_ms", "ms", median(cold), len(cold))
	r.e2e.add("job_p99_ms", "ms", pctWithFailures(all, r.failed, tailPct(len(arrivals)), limit), len(arrivals))
	r.e2e.add("units_per_s", "units/s",
		completed/(busy("esteem_serve_job_cache_hit_seconds")+busy("esteem_serve_job_compute_seconds")), int(completed))
	r.e2e.add("job_p50_ms", "ms", median(all), len(all))
	if !o.traced {
		if st := n.tracer.Stats(); st.Buffered != 0 {
			return r, fmt.Errorf("untraced run recorded %d spans", st.Buffered)
		}
		return r, nil
	}

	in := n.probe.layerInputs()
	in.spans = newSpanRollup()
	for _, ar := range runs {
		in.spans.add(ar.jr.spans)
		if ar.jr.err == nil {
			in.submit = append(in.submit, ms(ar.jr.submit))
			in.wait = append(in.wait, ms(ar.jr.wait))
			in.fetch = append(in.fetch, ms(ar.jr.fetch))
		}
	}
	in.storeHits = storeAfter.Hits - storeBefore.Hits
	in.storeLookups = in.storeHits + storeAfter.Misses - storeBefore.Misses
	in.storeCoalesce = storeAfter.Coalesced - storeBefore.Coalesced
	in.serveQueueWait = histMeanMs(before, after, "esteem_serve_queue_wait_seconds")
	in.rejected = rejected
	in.lag = lags
	var units []unitRun
	for _, a := range arrivals {
		sp := spec(a)
		cfg, wl, err := unitConfig(sp, sp.Benchmarks[0])
		if err != nil {
			return r, err
		}
		units = append(units, derived(cfg, wl))
	}
	byBase, err := ckptRuns(units)
	if err != nil {
		return r, err
	}
	if in.ckptEncode, err = reencodeCheckpoints(n.probe.ckpts, byBase); err != nil {
		return r, err
	}
	in.dropped = n.tracer.Stats().Dropped
	return r, emitLayers(r, in)
}
