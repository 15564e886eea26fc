// Worker: joins a coordinator, heartbeats, leases tasks and executes
// them with the shared runner against the sharded content-addressed
// store. A worker is deliberately stateless beyond its local store
// shard — killing one loses nothing but the leases it held, which the
// coordinator re-issues to survivors.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/castore"
	"repro/internal/metricsz"
	"repro/internal/runner"
	"repro/internal/tracez"
)

// WorkerConfig parameterises a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL. Required.
	Coordinator string
	// Self is this worker's advertised base URL (shard peers and the
	// coordinator reach it here). Required.
	Self string
	// Local is the node-local content-addressed store backing this
	// worker's shard. Required.
	Local *castore.Store
	// Replicas is the shard replication factor; it must agree with the
	// coordinator's (the join response carries the authoritative value
	// and a mismatch logs a warning). Default 2.
	Replicas int
	// Executors is the number of concurrent lease/execute loops
	// (default 1 — each task is itself a parallel sweep).
	Executors int
	// SimWorkers is the per-task sweep worker count (<= 0 selects
	// GOMAXPROCS).
	SimWorkers int
	// Logger receives lifecycle logs. Nil discards.
	Logger *slog.Logger
	// Client is the HTTP client for coordinator and shard traffic
	// (default: 45s timeout, comfortably above the 30s lease
	// long-poll).
	Client *http.Client
	// Tracer records this worker's spans. A leased task carrying a
	// traceparent starts a local root under the coordinator's lease
	// span; on completion the trace's spans ship back. Nil (or a task
	// without a traceparent) keeps the execute path span-free — zero
	// tracing allocations.
	Tracer *tracez.Tracer
	// Execute overrides task execution (tests only). Nil selects the
	// real sweep-backed executor.
	Execute func(ctx context.Context, t Task) error
}

func (c *WorkerConfig) fill() error {
	if c.Coordinator == "" {
		return fmt.Errorf("cluster: WorkerConfig.Coordinator is required")
	}
	if c.Self == "" {
		return fmt.Errorf("cluster: WorkerConfig.Self is required")
	}
	if c.Local == nil {
		return fmt.Errorf("cluster: WorkerConfig.Local is required")
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Executors <= 0 {
		c.Executors = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 45 * time.Second}
	}
	return nil
}

// Worker is one cluster execution node.
type Worker struct {
	cfg   WorkerConfig
	shard *castore.Sharded

	// members is the latest live member list ([]string) from the
	// coordinator; the sharded store routes by it.
	members atomic.Value

	// cadence learned from the join response.
	heartbeatEvery atomic.Int64 // nanoseconds
	leaseTTL       atomic.Int64 // nanoseconds

	mu   sync.Mutex
	held map[string]struct{}
	// pending buffers worker-observed journal events (replica repairs,
	// version-skew rejections) for the next heartbeat to forward;
	// bounded so a dead coordinator can't grow it without limit.
	pending []JournalEvent

	start time.Time

	tasksExecuted atomic.Uint64
	tasksFailed   atomic.Uint64
	simsComputed  atomic.Uint64
	spansShipped  atomic.Uint64
	eventsDropped atomic.Uint64
}

// maxPendingEvents bounds the worker-side event buffer.
const maxPendingEvents = 256

// NewWorker builds a worker and its sharded store view. Call Run to
// join and start executing.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	w := &Worker{cfg: cfg, held: make(map[string]struct{}), start: time.Now()}
	// Until the first join response arrives, the member view is just
	// this node: puts degrade to self-only and repair once the cluster
	// view lands.
	w.members.Store([]string{cfg.Self})
	w.heartbeatEvery.Store(int64(3 * time.Second))
	w.leaseTTL.Store(int64(15 * time.Second))
	w.shard = castore.NewSharded(cfg.Local, cfg.Self, w.Members, cfg.Replicas, cfg.Client)
	w.shard.SetRepairHook(func(key, node string) {
		w.noteEvent(EventReplicaRepair, key, "repaired onto "+node)
	})
	return w, nil
}

// noteEvent buffers a worker-observed journal event for the next
// heartbeat; the coordinator re-sequences it into the cluster journal.
func (w *Worker) noteEvent(kind EventKind, key, detail string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pending) >= maxPendingEvents {
		w.eventsDropped.Add(1)
		return
	}
	w.pending = append(w.pending, JournalEvent{
		UnixMS: time.Now().UnixMilli(), Kind: kind, Key: key, Detail: detail,
	})
}

// takePending swaps out the buffered events for a heartbeat.
func (w *Worker) takePending() []JournalEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	evs := w.pending
	w.pending = nil
	return evs
}

// restorePending re-buffers events whose heartbeat failed, oldest
// first, dropping overflow.
func (w *Worker) restorePending(evs []JournalEvent) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if room := maxPendingEvents - len(evs); room < len(w.pending) {
		w.eventsDropped.Add(uint64(len(w.pending) - max(room, 0)))
		w.pending = w.pending[:max(room, 0)]
	}
	w.pending = append(evs, w.pending...)
}

// Members returns the latest live member list (the sharded store's
// MembersFunc).
func (w *Worker) Members() []string {
	return w.members.Load().([]string)
}

// Shard returns the worker's cluster-wide store view.
func (w *Worker) Shard() *castore.Sharded { return w.shard }

func (w *Worker) setMembers(members []string) {
	if len(members) == 0 {
		return
	}
	sort.Strings(members)
	w.members.Store(members)
}

func (w *Worker) heldKeys() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	keys := make([]string, 0, len(w.held))
	for k := range w.held {
		keys = append(keys, k)
	}
	return keys
}

func (w *Worker) markHeld(key string, held bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if held {
		w.held[key] = struct{}{}
	} else {
		delete(w.held, key)
	}
}

// post sends one protocol POST and decodes the response into out (if
// non-nil and the status is 200). A 204 returns ok=false, nil error.
func (w *Worker) post(ctx context.Context, path string, in, out any) (ok bool, err error) {
	body, err := json.Marshal(in)
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		if out != nil {
			if err := json.NewDecoder(io.LimitReader(resp.Body, maxClusterBody)).Decode(out); err != nil {
				return false, fmt.Errorf("decoding %s response: %w", path, err)
			}
		}
		return true, nil
	case http.StatusNoContent:
		return false, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
}

// join registers with the coordinator, retrying until ctx is done.
func (w *Worker) join(ctx context.Context) error {
	backoff := 200 * time.Millisecond
	for {
		var resp JoinResponse
		ok, err := w.post(ctx, "/v1/cluster/join", JoinRequest{URL: w.cfg.Self}, &resp)
		if ok && err == nil {
			w.setMembers(resp.Members)
			if resp.HeartbeatMillis > 0 {
				w.heartbeatEvery.Store(resp.HeartbeatMillis * int64(time.Millisecond))
			}
			if resp.LeaseTTLMillis > 0 {
				w.leaseTTL.Store(resp.LeaseTTLMillis * int64(time.Millisecond))
			}
			if resp.Replicas != w.cfg.Replicas {
				w.cfg.Logger.Warn("replica factor mismatch; using coordinator's",
					"ours", w.cfg.Replicas, "coordinator", resp.Replicas)
			}
			w.cfg.Logger.Info("joined cluster",
				"coordinator", w.cfg.Coordinator, "members", len(resp.Members))
			return nil
		}
		if err != nil {
			w.cfg.Logger.Warn("join failed; retrying", "err", err, "backoff", backoff)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 5*time.Second {
			backoff *= 2
		}
	}
}

// heartbeatLoop refreshes membership and extends held leases until
// ctx is done.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		every := time.Duration(w.heartbeatEvery.Load())
		select {
		case <-ctx.Done():
			return
		case <-time.After(every):
		}
		events := w.takePending()
		var resp HeartbeatResponse
		ok, err := w.post(ctx, "/v1/cluster/heartbeat",
			HeartbeatRequest{URL: w.cfg.Self, Held: w.heldKeys(), Events: events}, &resp)
		if err != nil {
			w.restorePending(events)
			w.cfg.Logger.Warn("heartbeat failed", "err", err)
			continue
		}
		if ok {
			w.setMembers(resp.Members)
		}
	}
}

// executorLoop leases and executes tasks until ctx is done.
func (w *Worker) executorLoop(ctx context.Context) {
	for ctx.Err() == nil {
		var resp LeaseResponse
		ok, err := w.post(ctx, "/v1/cluster/lease",
			LeaseRequest{URL: w.cfg.Self, WaitMillis: 15_000}, &resp)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.cfg.Logger.Warn("lease request failed", "err", err)
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Second):
			}
			continue
		}
		if !ok {
			continue // long-poll expired with no work
		}
		t := resp.Task
		// Join the job's trace when the lease carries a traceparent:
		// the worker's spans become a subtree under the coordinator's
		// lease span. Without one (or without a tracer) tsp stays nil
		// and the execute path does no tracing work at all.
		var tsp *tracez.Span
		tctx := ctx
		if w.cfg.Tracer != nil && t.Traceparent != "" {
			if tid, parent, ok := tracez.ParseTraceparent(t.Traceparent); ok {
				tsp = w.cfg.Tracer.RootFrom("worker", tid, parent)
				tsp.SetAttr("node", w.cfg.Self)
				tsp.SetAttr("label", t.Label)
				tctx = tracez.ContextWith(ctx, tsp)
			}
		}
		w.cfg.Logger.Info("task leased",
			"key", t.Key[:12], "label", t.Label, "trace_id", t.TraceID)
		w.markHeld(t.Key, true)
		execErr := w.execute(tctx, t)
		w.markHeld(t.Key, false)
		if ctx.Err() != nil && execErr != nil {
			// Shutdown raced the task: don't report a spurious failure;
			// the lease TTL re-queues it.
			return
		}
		w.tasksExecuted.Add(1)
		var errMsg string
		if execErr != nil {
			w.tasksFailed.Add(1)
			errMsg = execErr.Error()
			w.cfg.Logger.Error("task failed",
				"key", t.Key[:12], "label", t.Label, "trace_id", t.TraceID, "err", execErr)
		}
		// Ship the trace's completed spans home: bulk via bounded
		// /v1/cluster/spans flushes, the final batch on the complete
		// body so the coordinator injects it before resolving the task.
		var tail []tracez.WireSpan
		tsp.End()
		if tsp.Sampled() {
			tail = w.shipSpans(ctx, w.cfg.Tracer.Take(tsp.TraceID()))
		}
		// Completion is best-effort: if it fails, the lease TTL expires
		// and the task re-runs (a cache hit by then).
		if _, err := w.post(ctx, "/v1/cluster/complete",
			CompleteRequest{URL: w.cfg.Self, Key: t.Key, Error: errMsg, Spans: tail}, nil); err != nil {
			w.cfg.Logger.Warn("completion report failed", "key", t.Key[:12], "err", err)
		}
	}
}

// maxSpansPerBatch keeps each shipped span batch comfortably inside
// the coordinator's 1MiB protocol body limit (a wire span is a few
// hundred bytes).
const maxSpansPerBatch = 512

// shipSpans sends all but the final batch of a task's spans through
// POST /v1/cluster/spans and returns the final batch for the caller
// to attach to its complete request — so the last spans land in the
// same round-trip that resolves the task.
func (w *Worker) shipSpans(ctx context.Context, spans []tracez.SpanData) []tracez.WireSpan {
	if len(spans) == 0 {
		return nil
	}
	wire := make([]tracez.WireSpan, len(spans))
	for i, d := range spans {
		wire[i] = d.Wire()
	}
	for len(wire) > maxSpansPerBatch {
		batch := wire[:maxSpansPerBatch]
		wire = wire[maxSpansPerBatch:]
		if _, err := w.post(ctx, "/v1/cluster/spans",
			SpansRequest{URL: w.cfg.Self, Spans: batch}, nil); err != nil {
			w.cfg.Logger.Warn("span flush failed", "spans", len(batch), "err", err)
		} else {
			w.spansShipped.Add(uint64(len(batch)))
		}
	}
	w.spansShipped.Add(uint64(len(wire)))
	return wire
}

// execute runs one leased task. The default executor is a one-task
// sweep against the sharded store: the store's GetOrCompute makes a
// re-run of an already-stored key a cheap hit, checkpoint-prefix
// reuse stays node-local, and the artifact replicates to its owners.
func (w *Worker) execute(ctx context.Context, t Task) error {
	if w.cfg.Execute != nil {
		return w.cfg.Execute(ctx, t)
	}
	// Version-skew guard: the key this node derives for the task's
	// config must match the coordinator's, or the artifact would be
	// stored under a different address than the one the job waits on.
	key, err := runner.CacheKey(t.Config, t.Workload)
	if err != nil {
		return fmt.Errorf("deriving key: %w", err)
	}
	if key != t.Key {
		w.noteEvent(EventVersionSkew, t.Key,
			fmt.Sprintf("local key %s disagrees with coordinator", key[:12]))
		return fmt.Errorf("key mismatch: coordinator %s vs local %s (version skew?)", t.Key[:12], key[:12])
	}
	sweep := runner.NewSweep(w.cfg.SimWorkers)
	sweep.SetCache(w.shard)
	sweep.Sim(t.Config, t.Workload)
	err = sweep.Run(ctx)
	sims, _ := sweep.Stats()
	w.simsComputed.Add(sims)
	return err
}

// Run joins the cluster and executes tasks until ctx is done, then
// sends a best-effort leave.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.join(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1 + w.cfg.Executors)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	for i := 0; i < w.cfg.Executors; i++ {
		go func() {
			defer wg.Done()
			w.executorLoop(ctx)
		}()
	}
	wg.Wait()
	// The parent ctx is done; use a short-lived one for the leave.
	lctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.post(lctx, "/v1/cluster/leave", LeaveRequest{URL: w.cfg.Self}, nil)
	w.cfg.Logger.Info("worker stopped", "tasks", w.tasksExecuted.Load())
	return nil
}

// WorkerStats is the worker's /metrics counter snapshot.
type WorkerStats struct {
	TasksExecuted uint64        `json:"tasks_executed_total"`
	TasksFailed   uint64        `json:"tasks_failed_total"`
	SimsComputed  uint64        `json:"sims_computed_total"`
	LeasesHeld    int           `json:"leases_held"`
	Members       int           `json:"members"`
	Store         castore.Stats `json:"store"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	held := len(w.held)
	w.mu.Unlock()
	return WorkerStats{
		TasksExecuted: w.tasksExecuted.Load(),
		TasksFailed:   w.tasksFailed.Load(),
		SimsComputed:  w.simsComputed.Load(),
		LeasesHeld:    held,
		Members:       len(w.Members()),
		Store:         w.shard.Stats(),
	}
}

// metricsSeries lists the worker's /metrics series in exposition
// order; the text and JSON views are both derived from it.
func (w *Worker) metricsSeries() []metricsz.Series {
	st := w.Stats()
	return []metricsz.Series{
		metricsz.Counter("esteem_worker_tasks_executed_total", "Cluster tasks executed by this worker.", st.TasksExecuted),
		metricsz.Counter("esteem_worker_tasks_failed_total", "Cluster tasks that failed on this worker.", st.TasksFailed),
		metricsz.Counter("esteem_worker_sims_computed_total", "Simulations actually computed (cache hits excluded).", st.SimsComputed),
		metricsz.Counter("esteem_worker_spans_shipped_total", "Completed spans shipped to the coordinator.", w.spansShipped.Load()),
		metricsz.Counter("esteem_worker_events_dropped_total", "Journal events dropped from the worker's pending buffer.", w.eventsDropped.Load()),
		metricsz.Gauge("esteem_worker_leases_held", "Leases currently held.", float64(st.LeasesHeld)),
		metricsz.Gauge("esteem_worker_members", "Cluster members in this worker's placement view.", float64(st.Members)),
		metricsz.Counter("esteem_worker_store_hits_total", "Local store hits.", st.Store.Hits),
		metricsz.Counter("esteem_worker_store_misses_total", "Local store misses.", st.Store.Misses),
		metricsz.Counter("esteem_worker_shard_remote_hits_total", "Artifacts fetched from a peer shard.", st.Store.RemoteHits),
		metricsz.Counter("esteem_worker_shard_remote_misses_total", "Peer shard lookups that found nothing.", st.Store.RemoteMisses),
		metricsz.Counter("esteem_worker_shard_repairs_total", "Read-through replication repairs.", st.Store.Repairs),
		metricsz.Counter("esteem_worker_shard_remote_puts_total", "Artifact replications to peer shards.", st.Store.RemotePuts),
		metricsz.Counter("esteem_worker_shard_remote_put_errors_total", "Failed replications to peer shards.", st.Store.RemotePutErrors),
	}
}

// Register mounts the worker's HTTP surface on mux: health, metrics,
// and the shard transport serving this node's local store. Every
// response carries X-Esteem-Node (satellite: attribute results to the
// node that computed them).
func (w *Worker) Register(mux *http.ServeMux) {
	castore.RegisterShard(mux, w.cfg.Local, w.cfg.Self)
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("X-Esteem-Node", w.cfg.Self)
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(rw, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("X-Esteem-Node", w.cfg.Self)
		series := w.metricsSeries()
		if r.URL.Query().Get("format") == "json" {
			writeJSON(rw, http.StatusOK, metricsz.NewSnapshot(time.Since(w.start).Seconds(), series))
			return
		}
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		metricsz.WriteText(rw, series, "")
	})
}
