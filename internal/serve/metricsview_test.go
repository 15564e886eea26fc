package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/castore"
	"repro/internal/cluster"
	"repro/internal/metricsz"
)

// goldenServer is a clustered server with fixed counters and
// histogram samples (including samples exactly on bucket bounds, below
// the first and above the last). Sims stay at zero so the
// uptime-derived sims/s gauge is deterministic.
func goldenServer(t *testing.T) *Server {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Self: "http://coord.test:8344"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	s := newTestServer(t, func(c *Config) { c.Cluster = coord })
	s.inFlight.Store(2)
	s.accepted.Store(17)
	s.rejected.Store(3)
	s.completed.Store(12)
	s.failed.Store(1)
	s.instrTotal.Store(123456789012)
	for _, v := range []float64{0.0004, 0.001, 0.003, 0.0251, 0.75, 42, 100} {
		s.queueWaitHist.Observe(v)
	}
	for _, v := range []float64{0.0025, 0.0025, 1e-5} {
		s.computeHitHist.Observe(v)
	}
	s.computeMissHist.Observe(7.125)
	return s
}

// The testdata/metrics.golden.* files were rendered by serve's
// hand-written renderer before metricsz replaced it; the shared
// writer must reproduce them byte for byte.
func TestMetricsGolden(t *testing.T) {
	s := goldenServer(t)
	uptime := regexp.MustCompile(`"uptime_seconds": [0-9.e+-]+`)
	for _, f := range []struct{ path, golden string }{
		{"/metrics", "metrics.golden.txt"},
		{"/metrics?format=json", "metrics.golden.json"},
	} {
		got := uptime.ReplaceAllString(do(t, s, "GET", f.path, "").Body.String(), `"uptime_seconds": 0`)
		want, err := os.ReadFile("testdata/" + f.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from %s\n--- got ---\n%s\n--- want ---\n%s", f.path, f.golden, got, want)
		}
	}
}

// textSeries parses a text exposition into name -> TYPE, checking
// every sample line belongs to a declared series.
func textSeries(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if len(f) != 2 || f[0] == "#" {
			continue
		}
		name, _, _ := strings.Cut(f[0], "{")
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && types[b] == "histogram" {
				base = b
			}
		}
		if types[base] == "" {
			t.Errorf("sample %q has no # TYPE line", sc.Text())
		}
	}
	return types
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The text exposition and the JSON view list the same series, of the
// same kinds, for a standalone server, a coordinator and a worker.
func TestMetricsTextMatchesJSON(t *testing.T) {
	standalone := newTestServer(t, nil)
	store, err := castore.Open("", 8)
	if err != nil {
		t.Fatal(err)
	}
	wk, err := cluster.NewWorker(cluster.WorkerConfig{Coordinator: "http://coordinator.invalid", Self: "http://worker.invalid", Local: store})
	if err != nil {
		t.Fatal(err)
	}
	workerMux := http.NewServeMux()
	wk.Register(workerMux)
	for _, c := range []struct {
		name string
		h    http.Handler
	}{
		{"serve", standalone.Handler()},
		{"serve+cluster", goldenServer(t).Handler()},
		{"worker", workerMux},
	} {
		t.Run(c.name, func(t *testing.T) {
			get := func(path string) string {
				w := httptest.NewRecorder()
				c.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
				if w.Code != http.StatusOK {
					t.Fatalf("GET %s: %d", path, w.Code)
				}
				return w.Body.String()
			}
			text := textSeries(t, get("/metrics"))
			var v metricsz.Snapshot
			if err := json.Unmarshal([]byte(get("/metrics?format=json")), &v); err != nil {
				t.Fatal(err)
			}
			fromJSON := map[string]string{}
			for k := range v.Gauges {
				fromJSON[k] = "gauge"
			}
			for k := range v.Counters {
				fromJSON[k] = "counter"
			}
			for k := range v.Histograms {
				fromJSON[k] = "histogram"
			}
			if len(text) == 0 {
				t.Fatal("no series in text exposition")
			}
			for _, k := range sortedNames(text) {
				if fromJSON[k] != text[k] {
					t.Errorf("%s: text %q, JSON %q", k, text[k], fromJSON[k])
				}
			}
			for _, k := range sortedNames(fromJSON) {
				if text[k] == "" {
					t.Errorf("%s: in JSON (%s), missing from text", k, fromJSON[k])
				}
			}
		})
	}
}
