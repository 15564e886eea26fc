// The series behind /metrics. metricsSeries lists every exported
// series once, in exposition order; the Prometheus text exposition
// and the JSON view (?format=json) are both derived from that list by
// internal/metricsz, so they can never drift apart. The JSON view
// exists for programmatic delta-scraping — the load generator
// (internal/load) snapshots it before and after each schedule phase to
// attribute cache hits, misses and queue-wait to traffic windows.
package serve

import (
	"net/http"
	"time"

	"repro/internal/metricsz"
)

// MetricsView is the JSON shape of GET /metrics?format=json.
type MetricsView = metricsz.Snapshot

// latencyBuckets are the shared upper bounds (seconds) for every
// serve-side latency histogram: 1ms to 60s, roughly geometric.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metricsSeries snapshots every exported series in exposition order.
func (s *Server) metricsSeries() []metricsz.Series {
	s.mu.Lock()
	queued := len(s.queue)
	s.mu.Unlock()
	st := s.cfg.Store.Stats()
	uptime := time.Since(s.start).Seconds()
	sims := s.simsTotal.Load()
	var simsPerSec float64
	if uptime > 0 {
		simsPerSec = float64(sims) / uptime
	}
	ts := s.cfg.Tracer.Stats()

	gauges := []metricsz.Series{
		metricsz.Gauge("esteem_serve_queue_depth", "Jobs waiting in the admission queue.", float64(queued)),
		metricsz.Gauge("esteem_serve_in_flight_jobs", "Jobs currently executing.", float64(s.inFlight.Load())),
		metricsz.Gauge("esteem_serve_sims_per_second", "Simulations executed per second of uptime.", simsPerSec),
		metricsz.Gauge("esteem_serve_trace_spans_buffered", "Completed spans retained in the tracer's ring.", float64(ts.Buffered)),
	}
	counters := []metricsz.Series{
		metricsz.Counter("esteem_serve_jobs_accepted_total", "Jobs admitted to the queue.", s.accepted.Load()),
		metricsz.Counter("esteem_serve_jobs_rejected_total", "Jobs rejected with 429 (queue full).", s.rejected.Load()),
		metricsz.Counter("esteem_serve_jobs_completed_total", "Jobs finished successfully.", s.completed.Load()),
		metricsz.Counter("esteem_serve_jobs_failed_total", "Jobs finished in failure or cancellation.", s.failed.Load()),
		metricsz.Counter("esteem_serve_sims_executed_total", "Simulations actually executed (cache misses).", sims),
		metricsz.Counter("esteem_serve_sim_instructions_total", "Instructions simulated by executed simulations.", s.instrTotal.Load()),
		metricsz.Counter("esteem_serve_cache_hits_total", "Content-addressed store hits (memory + disk).", st.Hits),
		metricsz.Counter("esteem_serve_cache_memory_hits_total", "Content-addressed store memory-layer hits.", st.MemHits),
		metricsz.Counter("esteem_serve_cache_disk_hits_total", "Content-addressed store disk-layer hits.", st.DiskHits),
		metricsz.Counter("esteem_serve_cache_misses_total", "Content-addressed store misses.", st.Misses),
		metricsz.Counter("esteem_serve_cache_computes_total", "Simulations computed under the store's single-flight lock.", st.Computes),
		metricsz.Counter("esteem_serve_cache_coalesced_total", "Requests coalesced onto an in-progress compute.", st.Coalesced),
		metricsz.Counter("esteem_serve_prefix_checkpoint_hits_total", "Simulations resumed from a stored prefix checkpoint.", st.PrefixHits),
		metricsz.Counter("esteem_serve_prefix_checkpoint_misses_total", "Prefix-checkpoint lookups that found no usable checkpoint.", st.PrefixMisses),
		metricsz.Counter("esteem_serve_prefix_checkpoint_saved_instructions_total", "Measured instructions skipped by resuming from prefix checkpoints.", st.PrefixSavedInstr),
		metricsz.Counter("esteem_serve_trace_spans_dropped_total", "Spans evicted from the tracer's ring.", ts.Dropped),
		metricsz.Counter("esteem_serve_trace_unsampled_total", "Traces head-sampled out.", ts.Unsampled),
		metricsz.Counter("esteem_serve_shard_remote_hits_total", "Artifacts fetched from a peer shard (zero when not clustered).", st.RemoteHits),
		metricsz.Counter("esteem_serve_shard_remote_misses_total", "Peer shard lookups that found nothing.", st.RemoteMisses),
		metricsz.Counter("esteem_serve_shard_repairs_total", "Read-through replication repairs.", st.Repairs),
		metricsz.Counter("esteem_serve_shard_remote_puts_total", "Artifact replications to peer shards.", st.RemotePuts),
		metricsz.Counter("esteem_serve_shard_remote_put_errors_total", "Failed replications to peer shards.", st.RemotePutErrors),
	}
	if s.cfg.Cluster != nil {
		cs := s.cfg.Cluster.Stats()
		gauges = append(gauges,
			metricsz.Gauge("esteem_cluster_workers_live", "Workers currently registered and heartbeating.", float64(cs.WorkersLive)),
			metricsz.Gauge("esteem_cluster_leases_outstanding", "Leases currently held by workers.", float64(cs.LeasesOutstanding)),
			metricsz.Gauge("esteem_cluster_tasks_pending", "Tasks queued waiting for a lease.", float64(cs.TasksPending)),
		)
		counters = append(counters,
			metricsz.Counter("esteem_cluster_workers_joined_total", "Worker join registrations.", cs.WorkersJoined),
			metricsz.Counter("esteem_cluster_workers_expired_total", "Workers expired for missing heartbeats.", cs.WorkersExpired),
			metricsz.Counter("esteem_cluster_leases_issued_total", "Leases granted to workers.", cs.LeasesIssued),
			metricsz.Counter("esteem_cluster_leases_expired_total", "Leases that timed out and re-queued.", cs.LeasesExpired),
			metricsz.Counter("esteem_cluster_leases_reissued_total", "Re-grants of previously expired leases.", cs.LeasesReissued),
			metricsz.Counter("esteem_cluster_tasks_submitted_total", "Tasks entered into the lease table.", cs.TasksSubmitted),
			metricsz.Counter("esteem_cluster_tasks_completed_total", "Tasks completed by workers.", cs.TasksCompleted),
			metricsz.Counter("esteem_cluster_tasks_failed_total", "Tasks that failed on a worker.", cs.TasksFailed),
			metricsz.Counter("esteem_cluster_spans_injected_total", "Worker-shipped spans merged into the coordinator's tracer.", cs.SpansInjected),
			metricsz.Counter("esteem_cluster_spans_dropped_total", "Worker-shipped spans dropped (malformed, or no tracer).", cs.SpansDropped),
		)
	}
	series := append(gauges, counters...)
	return append(series,
		metricsz.Hist("esteem_serve_queue_wait_seconds", "Time jobs spent in the admission queue.", s.queueWaitHist.Snapshot()),
		metricsz.Hist("esteem_serve_job_cache_hit_seconds", "Job compute time for jobs served entirely from the result store.", s.computeHitHist.Snapshot()),
		metricsz.Hist("esteem_serve_job_compute_seconds", "Job compute time for jobs that executed at least one simulation.", s.computeMissHist.Snapshot()),
	)
}

// MetricsSnapshot returns the current metrics as the JSON view (also
// used in-process by tests and the load generator's e2e harness).
func (s *Server) MetricsSnapshot() MetricsView {
	return metricsz.NewSnapshot(time.Since(s.start).Seconds(), s.metricsSeries())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	metricsz.WriteText(w, s.metricsSeries(), "")
}
