package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/load"
)

// benchText is `go test -bench -benchmem` output covering every
// tracked benchmark: -N suffixes, sub-benchmarks, three -count
// repetitions of SimRunShort and one untracked benchmark.
const benchText = `goos: linux
goarch: amd64
pkg: repro/internal/cache
BenchmarkCacheAccess-2     	35108067	        33.96 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheNew-2        	    8157	    149690 ns/op	  701248 B/op	       7 allocs/op
BenchmarkActiveFraction-2  	708183231	         1.591 ns/op	       0 B/op	       0 allocs/op
PASS
BenchmarkRefreshWindow/rpv-2         	  221389	      5365 ns/op	       0 B/op	       0 allocs/op
BenchmarkRefreshWindow/valid-only-2  	  299265	      3879 ns/op	       0 B/op	       0 allocs/op
BenchmarkSimRunShort       	     160	   6900000 ns/op	  713823 B/op	      57 allocs/op
BenchmarkSimRunShort       	     166	   6314192 ns/op	  713823 B/op	      56 allocs/op
BenchmarkSimRunShort       	     163	   6500000 ns/op	  713823 B/op	      57 allocs/op
BenchmarkClusterTask-2     	    6316	    213089 ns/op	   54072 B/op	     554 allocs/op
BenchmarkGeneratorNext-2   	50000000	        24.1 ns/op	       0 B/op	       0 allocs/op
ok  	repro/internal/sim	9.1s
`

// healthyReport is a plausible passing esteem-load run: 600 requests,
// all completed, ~5ms p50, hit rate matching the 0.5 hot fraction.
// It is built from load.Report so the fixture follows the report's
// JSON schema.
func healthyReport() load.Report {
	lat := load.Quantiles{P50: 5, P99: 25, P999: 40, Max: 44, Mean: 7}
	return load.Report{
		Date:        "2026-08-08T00:00:00Z",
		Go:          "go1.24.0",
		CPUs:        2,
		HotFraction: 0.5,
		Overall: load.PhaseStats{
			Name: "overall", Requests: 600, Completed: 600, AchievedRPS: 54.5, Latency: lat,
		},
		Phases: []load.PhaseReport{{PhaseStats: load.PhaseStats{
			Name: "rps20", Requests: 600, Completed: 600, AchievedRPS: 54.5, Latency: lat,
		}}},
		Cache:     load.CacheStats{Hits: 250, Coalesced: 49, Misses: 301, HitRate: 0.4983},
		Histogram: []load.HistBucket{{LEms: 1, Count: 6}, {LEms: 2.5, Count: 600}},
	}
}

func reportJSON(t *testing.T, r load.Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustParse(t *testing.T, raw []byte) entry {
	t.Helper()
	e, err := parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseBench(t *testing.T) {
	e := mustParse(t, []byte(benchText))
	want := map[string]float64{
		// The -N suffix is dropped.
		"BenchmarkCacheAccess.ns_op":     33.96,
		"BenchmarkCacheAccess.iters":     35108067,
		"BenchmarkCacheNew.b_op":         701248,
		"BenchmarkCacheNew.allocs_op":    7,
		"BenchmarkActiveFraction.ns_op":  1.591,
		"BenchmarkClusterTask.allocs_op": 554,
		// Sub-benchmarks keep their full name.
		"BenchmarkRefreshWindow/rpv.ns_op":        5365,
		"BenchmarkRefreshWindow/valid-only.iters": 299265,
		// Best of -count: the whole fastest repetition counts.
		"BenchmarkSimRunShort.ns_op":     6314192,
		"BenchmarkSimRunShort.allocs_op": 56,
		"BenchmarkSimRunShort.iters":     166,
	}
	for name, v := range want {
		if got, ok := e.Metrics[name]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
	if len(e.Metrics) != 4*7 {
		t.Errorf("%d metrics, want 28 (7 tracked results x 4 fields)", len(e.Metrics))
	}
	for name := range e.Metrics {
		if strings.HasPrefix(name, "BenchmarkGeneratorNext") {
			t.Errorf("untracked benchmark recorded: %s", name)
		}
	}
	if e.Date == "" || e.Go == "" || e.CPUs == 0 {
		t.Errorf("host stamp incomplete: %+v", e.stamp)
	}

	drop := func(prefix string) string {
		var kept []string
		for _, l := range strings.Split(benchText, "\n") {
			if !strings.HasPrefix(l, prefix) {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, "\n")
	}
	for _, tc := range []struct{ name, input, want string }{
		{"missing benchmark", drop("BenchmarkClusterTask"), "BenchmarkClusterTask"},
		{"missing every sub-benchmark", drop("BenchmarkRefreshWindow/"), "BenchmarkRefreshWindow"},
		{"empty run", "FAIL\trepro/internal/sim\n", "BenchmarkCacheAccess"},
	} {
		if _, err := parse([]byte(tc.input)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

func TestParseReport(t *testing.T) {
	e := mustParse(t, reportJSON(t, healthyReport()))
	want := map[string]float64{
		"hot_fraction":                0.5,
		"overall.requests":            600,
		"overall.latency.p99_ms":      25,
		"phases.rps20.achieved_rps":   54.5,
		"phases.rps20.latency.p50_ms": 5,
		"cache.coalesced":             49,
		"latency_histogram.1.le_ms":   2.5,
		"latency_histogram.1.count":   600,
	}
	for name, v := range want {
		if got, ok := e.Metrics[name]; !ok || got != v {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
	if _, ok := e.Metrics["cpus"]; ok {
		t.Error("stamp field cpus recorded as a metric")
	}
	if e.Date != "2026-08-08T00:00:00Z" || e.Go != "go1.24.0" || e.CPUs != 2 {
		t.Errorf("stamp %+v not taken from the report", e.stamp)
	}
	if _, err := parse([]byte(`{"overall": {"requests": 3}}`)); err == nil ||
		!strings.Contains(err.Error(), "report carries no") {
		t.Errorf("report without gated metrics: err %v", err)
	}
}

func TestCheckPassesHealthyReport(t *testing.T) {
	for _, raw := range [][]byte{reportJSON(t, healthyReport()), []byte(benchText)} {
		e := mustParse(t, raw)
		if n := checkEntry(new(strings.Builder), entry{}, mustParse(t, raw)); n != 0 {
			t.Errorf("absolute-only check: %d failures", n)
		}
		var out strings.Builder
		if n := checkEntry(&out, e, mustParse(t, raw)); n != 0 {
			t.Errorf("self-baseline check: %d failures\n%s", n, out.String())
		}
	}
}

// TestCheckAbsoluteFailures puts each absolute rule on both sides of
// its bound. The baseline is empty, so no relative rule applies.
func TestCheckAbsoluteFailures(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*load.Report)
		pass   bool
	}{
		{"no requests", func(r *load.Report) { r.Overall.Requests = 0 }, false},
		{"nothing completed", func(r *load.Report) {
			r.Overall.Completed = 0
			r.Overall.Errors = 3
		}, false},
		{"zero p50", func(r *load.Report) { r.Overall.Latency.P50 = 0 }, false},
		{"zero p99", func(r *load.Report) { r.Overall.Latency.P99 = 0 }, false},
		{"zero throughput", func(r *load.Report) { r.Overall.AchievedRPS = 0 }, false},
		{"error rate 0.5%", func(r *load.Report) { r.Overall.Errors = 3 }, true},
		{"error rate 2%", func(r *load.Report) { r.Overall.Errors = 12 }, false},
		{"hit rate drift 0.1", func(r *load.Report) { r.Cache.HitRate = 0.4 }, true},
		{"hit rate drift 0.2", func(r *load.Report) { r.Cache.HitRate = 0.3 }, false},
		{"hit rate drift 0.2 above", func(r *load.Report) { r.Cache.HitRate = 0.7 }, false},
	}
	for _, tc := range cases {
		rep := healthyReport()
		tc.mutate(&rep)
		var out strings.Builder
		if n := checkEntry(&out, entry{}, mustParse(t, reportJSON(t, rep))); (n == 0) != tc.pass {
			t.Errorf("%s: %d failures, want pass=%v\n%s", tc.name, n, tc.pass, out.String())
		}
	}
}

// TestCheckRelativeBounds puts each relative rule on both sides of its
// bound, for bench and report input alike.
func TestCheckRelativeBounds(t *testing.T) {
	bench := mustParse(t, []byte(benchText))
	report := mustParse(t, reportJSON(t, healthyReport()))
	cases := []struct {
		name   string
		base   entry
		metric string
		change func(float64) float64
		pass   bool
	}{
		{"ns/op +14%", bench, "BenchmarkSimRunShort.ns_op", func(v float64) float64 { return v * 1.14 }, true},
		{"ns/op +16%", bench, "BenchmarkSimRunShort.ns_op", func(v float64) float64 { return v * 1.16 }, false},
		{"ns/op -30%", bench, "BenchmarkRefreshWindow/rpv.ns_op", func(v float64) float64 { return v * 0.7 }, true},
		{"allocs -1", bench, "BenchmarkSimRunShort.allocs_op", func(v float64) float64 { return v - 1 }, true},
		{"allocs +1", bench, "BenchmarkSimRunShort.allocs_op", func(v float64) float64 { return v + 1 }, false},
		{"allocs 0 -> 1", bench, "BenchmarkCacheAccess.allocs_op", func(v float64) float64 { return v + 1 }, false},
		{"B/op doubled is not gated", bench, "BenchmarkCacheNew.b_op", func(v float64) float64 { return v * 2 }, true},
		{"p99 x3", report, "overall.latency.p99_ms", func(v float64) float64 { return v * 3 }, true},
		{"p99 x9", report, "overall.latency.p99_ms", func(v float64) float64 { return v * 9 }, true},
		{"p99 x11", report, "overall.latency.p99_ms", func(v float64) float64 { return v * 11 }, false},
		{"rps x0.3", report, "overall.achieved_rps", func(v float64) float64 { return v * 0.3 }, true},
		{"rps x0.2", report, "overall.achieved_rps", func(v float64) float64 { return v * 0.2 }, false},
		{"phase p99 x11 is not gated", report, "phases.rps20.latency.p99_ms", func(v float64) float64 { return v * 11 }, true},
	}
	for _, tc := range cases {
		cur := clone(tc.base)
		cur.Metrics[tc.metric] = tc.change(cur.Metrics[tc.metric])
		var out strings.Builder
		n := checkEntry(&out, tc.base, cur)
		if (n == 0) != tc.pass {
			t.Errorf("%s: %d failures, want pass=%v\n%s", tc.name, n, tc.pass, out.String())
		}
		if !tc.pass && !strings.Contains(out.String(), "FAIL "+tc.metric) {
			t.Errorf("%s: no FAIL line names %s\n%s", tc.name, tc.metric, out.String())
		}
	}

	// A metric the baseline lacks is new, not a regression.
	cur := clone(bench)
	cur.Metrics["BenchmarkRefreshWindow/rpd.ns_op"] = 1e9
	var out strings.Builder
	if n := checkEntry(&out, bench, cur); n != 0 || !strings.Contains(out.String(), "SKIP BenchmarkRefreshWindow/rpd.ns_op") {
		t.Errorf("new metric: %d failures\n%s", n, out.String())
	}
}

func clone(e entry) entry {
	e.Metrics = maps.Clone(e.Metrics)
	return e
}

// TestDegradeFailsCheck: the gate self-test contract. A degraded copy
// of a passing input, in the input's own format, must fail against the
// original as baseline.
func TestDegradeFailsCheck(t *testing.T) {
	for _, tc := range []struct {
		name   string
		raw    []byte
		factor float64
		scaled map[string]float64 // metric -> expected factor on the original
	}{
		{"bench", []byte(benchText), 1.2, map[string]float64{
			"BenchmarkSimRunShort.ns_op":       1.2,
			"BenchmarkRefreshWindow/rpv.ns_op": 1.2,
			"BenchmarkSimRunShort.allocs_op":   1,
			"BenchmarkSimRunShort.iters":       1,
		}},
		{"report", reportJSON(t, healthyReport()), 50, map[string]float64{
			"overall.latency.p99_ms":      50,
			"overall.latency.mean_ms":     50,
			"phases.rps20.latency.p50_ms": 50,
			"overall.achieved_rps":        1.0 / 50,
			"phases.rps20.achieved_rps":   1.0 / 50,
			"overall.requests":            1,
			"cache.hit_rate":              1,
			"latency_histogram.1.le_ms":   1,
		}},
	} {
		base := mustParse(t, tc.raw)
		out, err := degradeInput(tc.raw, tc.factor)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if isReport(out) != isReport(tc.raw) {
			t.Fatalf("%s: degrade changed the input format", tc.name)
		}
		bad := mustParse(t, out)
		for name, f := range tc.scaled {
			if want := base.Metrics[name] * f; math.Abs(bad.Metrics[name]-want) > 1e-9*math.Abs(want) {
				t.Errorf("%s: degraded %s = %v, want %v", tc.name, name, bad.Metrics[name], want)
			}
		}
		if n := checkEntry(new(strings.Builder), base, bad); n == 0 {
			t.Errorf("%s: gate passed a %gx-degraded copy", tc.name, tc.factor)
		}
	}
}

func TestTrajectoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	tr, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Schema != schema || len(tr.Entries) != 0 {
		t.Fatalf("missing file gave %+v, want an empty trajectory", tr)
	}

	e := mustParse(t, reportJSON(t, healthyReport()))
	tr.Benchtime = "300ms"
	tr.Entries = append(tr.Entries, e)
	if err := saveTrajectory(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := loadTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip gave %+v, want %+v", got, tr)
	}

	tr.Schema = 1
	b, _ := json.Marshal(tr)
	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrajectory(old); err == nil || !strings.Contains(err.Error(), "schema 1") {
		t.Fatalf("schema-1 file: err %v", err)
	}
	if err := os.WriteFile(old, []byte(`{"entries": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrajectory(old); err == nil || !strings.Contains(err.Error(), "schema 0") {
		t.Fatalf("file without a schema: err %v", err)
	}
}

// TestCheckedInTrajectories pins the migrated BENCH_*.json files: the
// latest entries still hold the numbers recorded before migration and
// carry every metric the gate needs from a baseline.
func TestCheckedInTrajectories(t *testing.T) {
	sim, err := loadTrajectory("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Entries) != 2 || sim.Benchtime != "1s" {
		t.Fatalf("BENCH_sim.json: %d entries, benchtime %q", len(sim.Entries), sim.Benchtime)
	}
	last := sim.Entries[1]
	for name, want := range map[string]float64{
		"BenchmarkSimRunShort.ns_op":     6314192,
		"BenchmarkSimRunShort.allocs_op": 56,
		"BenchmarkSimRunShort.b_op":      713823,
		"BenchmarkSimRunShort.iters":     166,
		"BenchmarkClusterTask.allocs_op": 554,
		"BenchmarkCacheAccess.ns_op":     50.59,
	} {
		if got := last.Metrics[name]; got != want {
			t.Errorf("BENCH_sim.json %s = %v, want %v", name, got, want)
		}
	}
	if last.Date != "2026-08-09" || last.CPUs != 1 {
		t.Errorf("BENCH_sim.json stamp %+v", last.stamp)
	}
	for _, tb := range tracked {
		found := false
		for name := range last.Metrics {
			found = found || trackedBy(strings.TrimSuffix(name, ".ns_op")) == tb
		}
		if !found {
			t.Errorf("BENCH_sim.json baseline lacks %s", tb)
		}
	}

	serve, err := loadTrajectory("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(serve.Entries) != 1 {
		t.Fatalf("BENCH_serve.json: %d entries", len(serve.Entries))
	}
	s := serve.Entries[0]
	for name, want := range map[string]float64{
		"overall.latency.p99_ms":       4304.899,
		"overall.achieved_rps":         49.18181818181818,
		"phases.burst120.achieved_rps": 90.5,
		"phases.burst120.rejected_429": 59,
		"cache.hit_rate":               0.5027726432532348,
		"latency_histogram.12.count":   541,
	} {
		if got := s.Metrics[name]; got != want {
			t.Errorf("BENCH_serve.json %s = %v, want %v", name, got, want)
		}
	}
	for _, name := range reportMetrics {
		if _, ok := s.Metrics[name]; !ok {
			t.Errorf("BENCH_serve.json baseline lacks %s", name)
		}
	}
}
