package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metricsz"
)

func TestMergeMetrics(t *testing.T) {
	dst := metricsz.Snapshot{
		UptimeSeconds: 10,
		Gauges:        map[string]float64{"g": 1},
		Counters:      map[string]uint64{"c": 5},
		Histograms: map[string]metricsz.Histogram{
			"h": {Count: 2, SumSeconds: 0.5, Buckets: []metricsz.Bucket{{LE: 0.1, Count: 1}, {LE: 1, Count: 2}}},
		},
	}
	src := metricsz.Snapshot{
		UptimeSeconds: 30,
		Gauges:        map[string]float64{"g": 2, "g2": 7},
		Counters:      map[string]uint64{"c": 3, "c2": 1},
		Histograms: map[string]metricsz.Histogram{
			"h": {Count: 4, SumSeconds: 1.5, Buckets: []metricsz.Bucket{{LE: 0.1, Count: 3}, {LE: 1, Count: 4}}},
		},
	}
	dst.Merge(src)
	if dst.UptimeSeconds != 30 {
		t.Errorf("uptime = %g, want max 30", dst.UptimeSeconds)
	}
	if dst.Gauges["g"] != 3 || dst.Gauges["g2"] != 7 {
		t.Errorf("gauges = %v", dst.Gauges)
	}
	if dst.Counters["c"] != 8 || dst.Counters["c2"] != 1 {
		t.Errorf("counters = %v", dst.Counters)
	}
	h := dst.Histograms["h"]
	if h.Count != 6 || h.SumSeconds != 2 {
		t.Errorf("histogram count/sum = %d/%g, want 6/2", h.Count, h.SumSeconds)
	}
	want := []metricsz.Bucket{{LE: 0.1, Count: 4}, {LE: 1, Count: 6}}
	if len(h.Buckets) != 2 || h.Buckets[0] != want[0] || h.Buckets[1] != want[1] {
		t.Errorf("buckets = %v, want %v", h.Buckets, want)
	}
}

func TestFleetMetricsAggregatesMembers(t *testing.T) {
	// Two synthetic members serving metrics snapshots, plus an unreachable
	// third registered but then torn down.
	mkMember := func(sims uint64) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" || r.URL.Query().Get("format") != "json" {
				http.NotFound(w, r)
				return
			}
			json.NewEncoder(w).Encode(metricsz.Snapshot{
				UptimeSeconds: 1,
				Counters:      map[string]uint64{"esteem_worker_sims_computed_total": sims},
				Gauges:        map[string]float64{"esteem_worker_held_leases": 1},
				Histograms: map[string]metricsz.Histogram{
					"esteem_wait_seconds": {Count: 1, SumSeconds: 0.25, Buckets: []metricsz.Bucket{{LE: 1, Count: 1}}},
				},
			})
		}))
	}
	m1, m2 := mkMember(3), mkMember(4)
	defer m1.Close()
	defer m2.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	// The coordinator's Self must also answer /metrics: reuse m1 as
	// self so the fleet is {m1(self), m2, dead}.
	c, err := NewCoordinator(CoordinatorConfig{Self: m1.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.heartbeat(m2.URL, nil, nil)
	c.heartbeat(deadURL, nil, nil)

	view := c.FleetMetrics(context.Background())
	if len(view.Members) != 3 {
		t.Fatalf("members = %d, want 3", len(view.Members))
	}
	var gotErr bool
	for _, m := range view.Members {
		if m.URL == deadURL {
			gotErr = m.Error != "" && m.Metrics == nil
		}
	}
	if !gotErr {
		t.Errorf("dead member not reported as error: %+v", view.Members)
	}
	if got := view.Fleet.Counters["esteem_worker_sims_computed_total"]; got != 7 {
		t.Errorf("fleet sims = %d, want 7", got)
	}
	if got := view.Fleet.Gauges["esteem_worker_held_leases"]; got != 2 {
		t.Errorf("fleet held leases = %g, want 2", got)
	}
	if h := view.Fleet.Histograms["esteem_wait_seconds"]; h.Count != 2 || h.SumSeconds != 0.5 {
		t.Errorf("fleet histogram = %+v", h)
	}

	// Text exposition: unlabeled fleet aggregate (awk-compatible) plus
	// one labeled series per member.
	var buf bytes.Buffer
	writeFleetText(&buf, view)
	text := buf.String()
	for _, want := range []string{
		"esteem_fleet_members 3\n",
		"esteem_fleet_members_reachable 2\n",
		"esteem_worker_sims_computed_total 7\n",
		`esteem_worker_sims_computed_total{node="` + m2.URL + `"} 4` + "\n",
		"esteem_wait_seconds_count 2\n",
		`esteem_wait_seconds_bucket{le="1"} 2` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet text missing %q:\n%s", want, text)
		}
	}
}
