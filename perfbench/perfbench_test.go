package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// bounds reads the end-to-end regression bounds from BENCHMARK.json.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// measureWith runs one workload for a short window with the given
// injected delays and returns its end-to-end metrics.
func measureWith(t *testing.T, drive func(options) (*report, error), d delays) samples {
	t.Helper()
	o := options{seed: 7, window: 4 * time.Second, root: "..", work: t.TempDir(), delays: d}
	r, err := drive(o)
	if err != nil {
		t.Fatal(err)
	}
	return r.e2e
}

func metricOf(t *testing.T, s samples, name string) float64 {
	t.Helper()
	v, ok := s.get(name)
	if !ok || v <= 0 {
		t.Fatalf("metric %s missing or zero", name)
	}
	return v
}

// TestLayerAttribution injects a delay through each of the benchmark's
// own probes and checks that the end-to-end metric attributed to that
// layer moves on the workload that exercises it, while the workload
// that bypasses the layer stays within the metric's bound.
func TestLayerAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serve and cluster workloads")
	}
	bound := bounds(t)

	t.Run("store", func(t *testing.T) {
		// Every hot job reads the store twice (lookup, result fetch).
		const delay = 5 * time.Millisecond
		plain := metricOf(t, measureWith(t, runServe, delays{}), "hot_p50_ms")
		slowed := metricOf(t, measureWith(t, runServe, delays{store: delay}), "hot_p50_ms")
		if slowed < plain+ms(2*delay)*0.9 || slowed < plain*(1+bound["hot_p50_ms"]) {
			t.Errorf("serve-openloop hot_p50_ms %.2f ms with a %v store delay, %.2f ms without: want +%.0f ms",
				slowed, delay, plain, ms(2*delay))
		}
		// The cluster workers' stores are not decorated: no change.
		base := metricOf(t, measureWith(t, runCluster, delays{}), "units_per_s")
		same := metricOf(t, measureWith(t, runCluster, delays{store: delay}), "units_per_s")
		if same < base*(1-bound["units_per_s"]) {
			t.Errorf("cluster-fanout units_per_s %.1f with a store delay, %.1f without: outside its bound %.2f",
				same, base, bound["units_per_s"])
		}
	})

	t.Run("cluster-complete", func(t *testing.T) {
		// Every unit pays the delay once on its complete RPC. Two workers
		// share the units, so a delay of twice the measured per-unit time
		// should about halve the rate, however fast the build is.
		base := metricOf(t, measureWith(t, runCluster, delays{}), "units_per_s")
		delay := time.Duration(2 * float64(time.Second) / base)
		d := delays{route: "complete", routeWait: delay}
		slowed := metricOf(t, measureWith(t, runCluster, d), "units_per_s")
		if slowed > base*(1-bound["units_per_s"]) {
			t.Errorf("cluster-fanout units_per_s %.1f with a %v complete delay, %.1f without: want worse than its bound %.2f",
				slowed, delay, base, bound["units_per_s"])
		}
		// serve-openloop has no cluster routes.
		plain := metricOf(t, measureWith(t, runServe, delays{}), "hot_p50_ms")
		same := metricOf(t, measureWith(t, runServe, d), "hot_p50_ms")
		if same > plain*(1+bound["hot_p50_ms"]) {
			t.Errorf("serve-openloop hot_p50_ms %.2f with a complete-RPC delay, %.2f without: outside its bound %.2f",
				same, plain, bound["hot_p50_ms"])
		}
	})
}
