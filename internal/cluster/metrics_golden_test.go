package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"

	"repro/internal/castore"
	"repro/internal/metricsz"
)

// The testdata/*.golden.* files were rendered by the hand-written
// fleet and worker renderers that metricsz replaced; these tests pin
// the shared writer to them byte for byte.

// uptimeRE masks the one wall-clock field of a JSON snapshot.
var uptimeRE = regexp.MustCompile(`"uptime_seconds": [0-9.e+-]+`)

func assertGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: output differs from golden\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// goldenFleet is a fixed three-reachable-member fleet: a coordinator
// (serve series, the shared latency bounds), two workers with
// mismatched bucket bounds (exercising the LE-union merge), one
// unreachable member, and gauges that need %g's exponent form.
func goldenFleet() FleetView {
	bounds := []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
	cum := func(counts ...uint64) []metricsz.Bucket {
		var out []metricsz.Bucket
		for i, c := range counts {
			out = append(out, metricsz.Bucket{LE: bounds[i], Count: c})
		}
		return out
	}
	coord := &metricsz.Snapshot{
		UptimeSeconds: 12.5,
		Gauges: map[string]float64{
			"esteem_serve_queue_depth":          0,
			"esteem_serve_sims_per_second":      0.123456789,
			"esteem_cluster_workers_live":       2,
			"esteem_cluster_leases_outstanding": 1,
		},
		Counters: map[string]uint64{
			"esteem_serve_jobs_accepted_total":    5,
			"esteem_serve_sims_executed_total":    0,
			"esteem_serve_sim_instructions_total": 98765432101,
		},
		Histograms: map[string]metricsz.Histogram{
			"esteem_serve_queue_wait_seconds": {Count: 5, SumSeconds: 0.0421, Buckets: cum(1, 2, 2, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5)},
		},
	}
	w1 := &metricsz.Snapshot{
		UptimeSeconds: 11.25,
		Gauges:        map[string]float64{"esteem_worker_leases_held": 1, "esteem_worker_members": 3, "esteem_serve_sims_per_second": 1234567},
		Counters: map[string]uint64{
			"esteem_worker_tasks_executed_total": 40,
			"esteem_worker_sims_computed_total":  38,
			"esteem_serve_jobs_accepted_total":   2,
		},
		Histograms: map[string]metricsz.Histogram{
			"esteem_serve_queue_wait_seconds": {Count: 2, SumSeconds: 61.5, Buckets: cum(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1)},
			"esteem_worker_task_seconds":      {Count: 3, SumSeconds: 1e-7, Buckets: []metricsz.Bucket{{LE: 1e-8, Count: 1}, {LE: 0.5, Count: 3}}},
		},
	}
	w2 := &metricsz.Snapshot{
		UptimeSeconds: 3,
		Gauges:        map[string]float64{"esteem_worker_leases_held": 0, "esteem_worker_members": 3},
		Counters:      map[string]uint64{"esteem_worker_tasks_executed_total": 2},
		Histograms: map[string]metricsz.Histogram{
			"esteem_worker_task_seconds": {Count: 1, SumSeconds: 0.25, Buckets: []metricsz.Bucket{{LE: 0.25, Count: 1}, {LE: 0.5, Count: 1}}},
		},
	}
	view := FleetView{
		Self: "http://coord.test:8344",
		Members: []MemberMetrics{
			{URL: "http://coord.test:8344", Metrics: coord},
			{URL: "http://w1.test:9001", Metrics: w1},
			{URL: "http://w2.test:9002", Error: `Get "http://w2.test:9002/metrics?format=json": connection refused`},
			{URL: "http://w3.test:9003", Metrics: w2},
		},
		Fleet: metricsz.NewSnapshot(0, nil),
	}
	for _, m := range view.Members {
		if m.Metrics != nil {
			view.Fleet.Merge(*m.Metrics)
		}
	}
	return view
}

func TestFleetMetricsGolden(t *testing.T) {
	view := goldenFleet()
	var b bytes.Buffer
	writeFleetText(&b, view)
	assertGolden(t, "fleet.golden.txt", b.String())
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, view)
	assertGolden(t, "fleet.golden.json", rec.Body.String())
}

func TestWorkerMetricsGolden(t *testing.T) {
	store, err := castore.Open("", 64)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := NewWorker(WorkerConfig{Coordinator: "http://coordinator.invalid", Self: "http://worker.invalid", Local: store})
	if err != nil {
		t.Fatal(err)
	}
	wk.tasksExecuted.Store(9)
	wk.tasksFailed.Store(1)
	wk.simsComputed.Store(27)
	wk.spansShipped.Store(314)
	wk.eventsDropped.Store(4)
	wk.held["k1"] = struct{}{}
	wk.held["k2"] = struct{}{}
	wk.setMembers([]string{"http://a.invalid", "http://b.invalid", "http://worker.invalid"})
	mux := http.NewServeMux()
	wk.Register(mux)
	for _, f := range []struct{ path, golden string }{
		{"/metrics", "worker.golden.txt"},
		{"/metrics?format=json", "worker.golden.json"},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, f.path, nil))
		assertGolden(t, f.golden, uptimeRE.ReplaceAllString(rec.Body.String(), `"uptime_seconds": 0`))
	}
}
