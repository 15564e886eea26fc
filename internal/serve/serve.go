// Package serve exposes the simulation engine as a long-running
// HTTP/JSON service: clients submit sweep specifications as jobs,
// follow their progress over server-sent events, and fetch results as
// the same deterministic run artifacts the batch frontends write.
//
// The service composes three layers the repository already has. Jobs
// execute on internal/runner sweeps (one per job, so a job's units
// share baseline deduplication and worker budget); every simulation
// routes through one shared internal/castore content-addressed store
// (so identical units — across jobs, across restarts, across
// concurrent clients — run at most once and replay byte-identically);
// and results are internal/obs run artifacts, addressable either
// through the owning job or directly by content hash.
//
// Production behaviour: admission is a bounded queue (full -> 429
// with Retry-After), each job runs under a context bounded by the
// configured timeout and cancelled on drain, and Drain stops
// admission, finishes what is queued and in flight within its
// deadline, then cancels the rest. /healthz and /metrics expose
// liveness and counters.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/castore"
	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/metricsz"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracez"
)

// Config parameterises a Server. Zero values select the documented
// defaults.
type Config struct {
	// Store is the content-addressed result store shared by every
	// job — a node-local *castore.Store, or a *castore.Sharded when
	// the server fronts a cluster. Required.
	Store castore.Backend
	// Cluster, when set, makes this server a cluster coordinator: job
	// units are submitted as leases to the coordinator's task table
	// and executed by joined workers instead of a local sweep, and the
	// cluster protocol plus shard transport are mounted on the mux.
	Cluster *cluster.Coordinator
	// Workers is the number of jobs executing concurrently
	// (default 1).
	Workers int
	// SimWorkers is the per-job sweep worker count (default
	// GOMAXPROCS, the runner's convention).
	SimWorkers int
	// QueueDepth bounds the admission queue (default 16). A full
	// queue rejects submissions with 429.
	QueueDepth int
	// JobTimeout bounds each job's execution (default 10m; <0
	// disables).
	JobTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses
	// (default 5s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds submission bodies (default 1 MiB).
	MaxBodyBytes int64
	// Node is this server's advertised name (the cluster member URL in
	// cluster mode). When set, every HTTP response carries it as
	// X-Esteem-Node, job root spans carry it as a "node" attribute (the
	// per-node lane in Chrome exports), and SSE events default their
	// node field to it.
	Node string
	// Tracer records per-job span trees. Nil selects a default tracer
	// (crypto/rand IDs, sample everything, 4096-span ring); requests
	// that carry a W3C traceparent header join the caller's trace.
	Tracer *tracez.Tracer
	// Logger receives structured request/job logs, each correlated
	// with its trace via a trace_id attribute. Nil discards logs.
	Logger *slog.Logger
}

func (c *Config) fill() error {
	if c.Store == nil {
		return fmt.Errorf("serve: Config.Store is required")
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Tracer == nil {
		c.Tracer = tracez.New(tracez.Config{})
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return nil
}

// Server is the HTTP service state: the job registry, the admission
// queue and its workers, and the shared result store.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	queue    chan *Job
	draining bool

	wg sync.WaitGroup

	// testGate, when non-nil, stalls workers before each job until a
	// receive succeeds. Tests use it to hold jobs in the queue and
	// exercise admission deterministically.
	testGate chan struct{}

	inFlight   atomic.Int64
	accepted   atomic.Uint64
	rejected   atomic.Uint64
	completed  atomic.Uint64
	failed     atomic.Uint64
	simsTotal  atomic.Uint64
	instrTotal atomic.Uint64

	// Latency histograms exposed on /metrics: time jobs spend queued,
	// and compute time split by whether the job was served entirely
	// from the content-addressed store (hit) or ran simulations (miss).
	queueWaitHist   *metricsz.Recorder
	computeHitHist  *metricsz.Recorder
	computeMissHist *metricsz.Recorder
}

// New builds a server and starts its job workers. Callers own the
// HTTP listener; mount Handler and call Drain (or Close) on the way
// out.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:             cfg,
		start:           time.Now(),
		baseCtx:         ctx,
		cancel:          cancel,
		jobs:            make(map[string]*Job),
		queue:           make(chan *Job, cfg.QueueDepth),
		queueWaitHist:   metricsz.NewRecorder(latencyBuckets),
		computeHitHist:  metricsz.NewRecorder(latencyBuckets),
		computeMissHist: metricsz.NewRecorder(latencyBuckets),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/artifacts/{key}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Cluster != nil {
		cfg.Cluster.Register(s.mux)
		// The coordinator is itself a shard: serve its local store to
		// worker peers over the same transport they use among
		// themselves.
		if sh, ok := cfg.Store.(*castore.Sharded); ok {
			castore.RegisterShard(s.mux, sh.Local(), cfg.Node)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the service's HTTP handler: the API mux wrapped in
// an access-log middleware that emits one structured line per request,
// trace-correlated when the handler resolved a trace ID.
func (s *Server) Handler() http.Handler { return s.accessLog(s.mux) }

// statusWriter captures the response status for the access log while
// forwarding Flush, so SSE streaming works through the middleware.
type statusWriter struct {
	http.ResponseWriter
	status  int
	traceID string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// setLogTrace tags the in-flight request's access-log line (and the
// response) with the trace ID a handler resolved.
func setLogTrace(w http.ResponseWriter, traceID string) {
	w.Header().Set("X-Trace-Id", traceID)
	if sw, ok := w.(*statusWriter); ok {
		sw.traceID = traceID
	}
}

func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		if s.cfg.Node != "" {
			sw.Header().Set("X-Esteem-Node", s.cfg.Node)
		}
		start := time.Now()
		next.ServeHTTP(sw, r)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(time.Since(start).Microseconds()) / 1e3,
		}
		if sw.traceID != "" {
			attrs = append(attrs, "trace_id", sw.traceID)
		}
		s.cfg.Logger.Info("http", attrs...)
	})
}

// Store returns the shared result store (for stats reporting).
func (s *Server) Store() castore.Backend { return s.cfg.Store }

// worker executes queued jobs until the queue closes or the base
// context is cancelled.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case j, ok := <-s.queue:
			if !ok {
				return
			}
			if s.testGate != nil {
				select {
				case <-s.testGate:
				case <-s.baseCtx.Done():
					j.finish(StateCanceled, s.baseCtx.Err())
					continue
				}
			}
			s.runJob(j)
		}
	}
}

// runJob executes one job's sweep under the server's lifetime and the
// configured timeout.
func (s *Server) runJob(j *Job) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	queueWait := time.Since(j.enqueued)
	s.queueWaitHist.Observe(queueWait.Seconds())
	j.queueSpan.End()

	ctx := s.baseCtx
	if s.cfg.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		j.finish(StateCanceled, fmt.Errorf("serve: job cancelled before start: %w", err))
		s.failed.Add(1)
		return
	}
	j.setState(StateRunning)
	s.cfg.Logger.Info("job running",
		"job_id", j.ID, "trace_id", j.TraceID,
		"queue_wait_ms", float64(queueWait.Microseconds())/1e3)

	// The run span carries the whole sweep; runner tasks open their
	// spans as its children through the context.
	rsp := j.span.Child("run")
	ctx = tracez.ContextWith(ctx, rsp)
	computeStart := time.Now()
	var (
		err         error
		sims, instr uint64
	)
	if s.cfg.Cluster != nil {
		// Coordinator mode: units become cluster leases executed by
		// workers; sims/instr stay zero here (the workers' own metrics
		// account for compute).
		err = s.runClusterJob(ctx, j)
	} else {
		sweep := runner.NewSweep(s.cfg.SimWorkers, runner.WithTaskHook(j.taskEvent))
		sweep.SetCache(s.cfg.Store)
		for _, u := range j.Units {
			sweep.Sim(u.cfg, u.Workload)
		}
		err = sweep.Run(ctx)
		sims, instr = sweep.Stats()
	}
	computeDur := time.Since(computeStart)
	rsp.SetAttrInt("sims", int64(sims))
	rsp.End()
	if sims == 0 {
		s.computeHitHist.Observe(computeDur.Seconds())
	} else {
		s.computeMissHist.Observe(computeDur.Seconds())
	}
	s.simsTotal.Add(sims)
	s.instrTotal.Add(instr)
	if err != nil {
		state := StateFailed
		if ctx.Err() != nil {
			state = StateCanceled
		}
		j.finish(state, err)
		s.failed.Add(1)
		s.cfg.Logger.Error("job failed",
			"job_id", j.ID, "trace_id", j.TraceID, "state", string(state), "err", err)
		return
	}
	j.finish(StateDone, nil)
	s.completed.Add(1)
	s.cfg.Logger.Info("job done",
		"job_id", j.ID, "trace_id", j.TraceID,
		"sims", sims, "instructions", instr,
		"compute_ms", float64(computeDur.Microseconds())/1e3)
}

// Drain performs a graceful shutdown: admission stops immediately,
// queued and in-flight jobs finish within ctx's deadline, and
// whatever remains afterwards is cancelled. It returns ctx's error if
// the deadline cut work short.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels everything immediately (tests and error paths).
func (s *Server) Close() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
}

// ---- submission ----

// JobSpec is the submission body of POST /v1/jobs. Config holds
// overrides applied onto sim.DefaultConfig for the requested core
// count (absent fields keep the paper's defaults); Benchmarks lists
// the workloads (each one benchmark name per core); Techniques names
// the techniques to run, producing one simulation unit per
// (workload, technique) pair; Technology selects the LLC storage
// backend for every unit (empty = eDRAM; it overrides any Technology
// inside Config).
type JobSpec struct {
	Config     json.RawMessage `json:"config,omitempty"`
	Benchmarks [][]string      `json:"benchmarks"`
	Techniques []string        `json:"techniques"`
	Technology string          `json:"technology,omitempty"`
}

// buildUnits validates a spec and expands it into simulation units.
func buildUnits(spec JobSpec) ([]Unit, error) {
	if len(spec.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchmarks must list at least one workload")
	}
	if len(spec.Techniques) == 0 {
		return nil, fmt.Errorf("techniques must list at least one technique")
	}
	// Peek the core count so overrides land on the matching paper
	// defaults (L2 size, bandwidth and module count follow cores).
	cores := struct {
		Cores int `json:"Cores"`
	}{Cores: 1}
	if len(spec.Config) > 0 {
		if err := json.Unmarshal(spec.Config, &cores); err != nil {
			return nil, fmt.Errorf("config: %v", err)
		}
		if cores.Cores == 0 {
			cores.Cores = 1
		}
	}
	base := sim.DefaultConfig(cores.Cores)
	if len(spec.Config) > 0 {
		if err := strictUnmarshal(spec.Config, &base); err != nil {
			return nil, fmt.Errorf("config: %v", err)
		}
	}
	if spec.Technology != "" {
		base.Technology = spec.Technology
	}
	technology, err := cliflags.ParseTechnology(base.Technology)
	if err != nil {
		return nil, fmt.Errorf("technology: %v", err)
	}
	base.Technology = technology
	for _, wl := range spec.Benchmarks {
		if len(wl) != base.Cores {
			return nil, fmt.Errorf("workload %v has %d benchmarks, config has %d cores", wl, len(wl), base.Cores)
		}
		for _, b := range wl {
			if _, ok := trace.ProfileByName(b); !ok {
				return nil, fmt.Errorf("unknown benchmark %q", b)
			}
		}
	}
	var units []Unit
	for _, name := range spec.Techniques {
		tech, err := cliflags.ParseTechnique(name)
		if err != nil {
			return nil, err
		}
		cfg := base
		cfg.Technique = tech
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("config: %v", err)
		}
		for _, wl := range spec.Benchmarks {
			key, err := runner.CacheKey(cfg, wl)
			if err != nil {
				return nil, fmt.Errorf("keying %s/%v: %v", name, wl, err)
			}
			units = append(units, Unit{
				Label:      unitLabel(tech, wl),
				Technique:  name,
				Technology: technology,
				Workload:   append([]string(nil), wl...),
				Key:        key,
				cfg:        cfg,
			})
		}
	}
	return units, nil
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing
// data.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytesReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// newJobID returns a 16-hex-digit random job identifier.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding job spec: %v", err))
		return
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "trailing data after job spec")
		return
	}
	units, err := buildUnits(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	id, err := newJobID()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// The job's root span: joins the client's trace when the request
	// carries a valid W3C traceparent header, otherwise starts fresh.
	var root *tracez.Span
	if tid, parent, ok := tracez.ParseTraceparent(r.Header.Get("traceparent")); ok {
		root = s.cfg.Tracer.RootFrom("job", tid, parent)
	} else {
		root = s.cfg.Tracer.Root("job")
	}
	root.SetAttr("job_id", id)
	root.SetAttrInt("units", int64(len(units)))
	if s.cfg.Node != "" {
		root.SetAttr("node", s.cfg.Node)
	}
	job := newJob(id, spec, units, root, s.cfg.Node)
	setLogTrace(w, job.TraceID)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		root.SetAttr("rejected", "draining")
		root.End()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	select {
	case s.queue <- job:
		s.jobs[id] = job
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.rejected.Add(1)
		root.SetAttr("rejected", "queue-full")
		root.End()
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+0.5)))
		writeError(w, http.StatusTooManyRequests, "admission queue is full")
		return
	}
	s.accepted.Add(1)
	s.cfg.Logger.Info("job accepted",
		"job_id", id, "trace_id", job.TraceID, "units", len(units))
	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, job.view())
}

// ---- job state and results ----

func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	switch j.State() {
	case StateDone:
	case StateFailed, StateCanceled:
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("job %s: %v", j.State(), j.Err()))
		return
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job is not complete")
		return
	}
	// Single-unit jobs return the stored artifact itself — the bytes
	// are content-addressed, so the key doubles as a strong ETag.
	if len(j.Units) == 1 {
		s.serveArtifact(w, r, j.Units[0].Key)
		return
	}
	writeJSON(w, http.StatusOK, j.resultEnvelope())
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !castore.ValidKey(key) {
		writeError(w, http.StatusBadRequest, "malformed artifact key")
		return
	}
	s.serveArtifact(w, r, key)
}

// serveArtifact writes the stored artifact bytes for key.
func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, key string) {
	data, ok, err := s.cfg.Store.Get(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "artifact not found")
		return
	}
	etag := `"` + key + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if match := r.Header.Get("If-None-Match"); match == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// ---- traces ----

// handleTrace exports a completed job's span tree: the canonical tree
// JSON by default, or a Chrome trace-event (Perfetto-loadable) file
// with ?format=chrome. The tree is only complete once the job reaches
// a terminal state; earlier requests get 409 + Retry-After.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	setLogTrace(w, j.TraceID)
	if !j.State().Terminal() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job is not complete; trace is still being recorded")
		return
	}
	spans := s.cfg.Tracer.Spans(j.traceID)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "trace not recorded (unsampled, or evicted from the span ring)")
		return
	}
	tree, err := tracez.BuildTree(spans)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("trace incomplete: %v", err))
		return
	}
	var data []byte
	switch format := r.URL.Query().Get("format"); format {
	case "", "tree":
		data, err = tracez.MarshalTree(tree)
	case "chrome":
		data, err = tracez.ChromeTrace(tree)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (want tree or chrome)", format))
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// ---- events ----

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	setLogTrace(w, j.TraceID)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// A reconnecting client resumes after the last event it saw: SSE
	// ids are the event log's sequence numbers, so Last-Event-ID maps
	// directly to a replay index.
	idx := 0
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		if n, err := strconv.Atoi(last); err == nil && n >= 0 {
			idx = n + 1
		}
	}
	for {
		events, wake, closed := j.log.since(idx)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Event, data)
			idx++
		}
		fl.Flush()
		if closed && idx >= j.log.len() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

// ---- liveness ----

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Service string `json:"service"`
		cliflags.BuildInfo
	}{Service: "esteem-serve", BuildInfo: cliflags.ReadBuildInfo()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	queued := len(s.queue)
	s.mu.Unlock()
	status, code := "ok", http.StatusOK
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, struct {
		Status   string `json:"status"`
		Queued   int    `json:"queued"`
		InFlight int64  `json:"in_flight"`
	}{status, queued, s.inFlight.Load()})
}

// handleMetrics lives in metricsview.go: one snapshot feeds both the
// Prometheus text exposition and the JSON view.

// ---- helpers ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}
