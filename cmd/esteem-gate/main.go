// Command esteem-gate records and gates the repository's performance
// trajectories: BENCH_sim.json (the pinned hot-path microbenchmarks)
// and BENCH_serve.json (service-level esteem-load runs).
//
// It reads either `go test -bench -benchmem` output or an esteem-load
// report JSON, told apart by content (a report is a JSON object), and
// parses both into one trajectory entry: a provenance stamp plus a
// flat map from dotted metric name to number, such as
// BenchmarkSimRunShort.allocs_op, overall.latency.p99_ms or
// phases.burst120.achieved_rps. Exactly one mode runs:
//
//	esteem-gate -record BENCH_sim.json -benchtime 1s <bench.txt  # append a dated entry
//	esteem-gate -check BENCH_serve.json -in report.json          # gate against the latest entry
//	esteem-gate -degrade 1.2 <bench.txt >degraded.txt            # emit a regressed copy
//
// Check applies one rule table keyed by metric name (see rules) and
// fails (exit 1) when any rule does. Degrade writes the input back in
// its own format with ns/op and latency multiplied by N and achieved
// RPS divided by N: a synthetic regression a live gate must reject.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// schema is the trajectory file version this tool reads and writes.
const schema = 2

// Gate bounds. Service latency on shared runners is far noisier than
// ns/op microbenchmarks, so the service bounds reject
// order-of-magnitude regressions, not percent-level drift; allocation
// counts are exact, so the alloc bound is absolute.
const (
	maxNsRise    = 0.15 // ns/op may rise by at most 15%
	maxP99Factor = 10.0 // overall p99 at most 10x the baseline
	minRPSFactor = 0.25 // achieved RPS at least 0.25x the baseline
	maxErrorRate = 0.01 // errors/requests (429s are load shedding, not errors)
	maxHitDrift  = 0.15 // |cache hit rate - configured hot fraction|
)

// tracked is the pinned hot-path set: the benchmarks whose trajectory
// BENCH_sim.json records and whose regressions the gate rejects.
var tracked = []string{
	"BenchmarkCacheAccess",
	"BenchmarkCacheNew",
	"BenchmarkActiveFraction",
	"BenchmarkRefreshWindow",
	"BenchmarkSimRunShort",
	"BenchmarkClusterTask",
}

// reportMetrics are the report metrics the rules read. A report
// missing one is malformed, as a bench run missing a tracked
// benchmark is.
var reportMetrics = []string{
	"hot_fraction",
	"overall.requests",
	"overall.completed",
	"overall.errors",
	"overall.achieved_rps",
	"overall.latency.p50_ms",
	"overall.latency.p99_ms",
	"cache.hit_rate",
}

// A rule bounds every metric it matches. A relative rule compares
// against the same metric in the baseline entry and skips a metric
// the baseline lacks; an absolute rule ignores base.
type rule struct {
	metric   string // full metric name, or ".suffix" for every name ending in it
	bound    string
	relative bool
	pass     func(cur, base float64) bool
}

func positive(cur, _ float64) bool { return cur > 0 }

var rules = []rule{
	{".ns_op", fmt.Sprintf("rise <= %g%%", 100*maxNsRise), true, func(c, b float64) bool { return (c-b)/b <= maxNsRise }},
	{".allocs_op", "no increase", true, func(c, b float64) bool { return c <= b }},
	{"overall.latency.p99_ms", fmt.Sprintf("<= %gx baseline", maxP99Factor), true, func(c, b float64) bool { return b <= 0 || c <= maxP99Factor*b }},
	{"overall.achieved_rps", fmt.Sprintf(">= %gx baseline", minRPSFactor), true, func(c, b float64) bool { return c >= minRPSFactor*b }},
	{"overall.error_rate", fmt.Sprintf("<= %g", maxErrorRate), false, func(c, _ float64) bool { return c <= maxErrorRate }},
	{"cache.hit_rate_drift", fmt.Sprintf("<= %g", maxHitDrift), false, func(c, _ float64) bool { return c <= maxHitDrift }},
	{"overall.requests", "> 0", false, positive},
	{"overall.completed", "> 0", false, positive},
	{"overall.latency.p50_ms", "> 0", false, positive},
	{"overall.latency.p99_ms", "> 0", false, positive},
	{"overall.achieved_rps", "> 0", false, positive},
}

func (r rule) matches(name string) bool {
	if strings.HasPrefix(r.metric, ".") {
		return strings.HasSuffix(name, r.metric)
	}
	return name == r.metric
}

// stamp is an entry's provenance: when, with which toolchain and on
// what host shape the numbers were measured.
type stamp struct {
	Date   string `json:"date"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Note   string `json:"note,omitempty"`
}

// entry is one dated trajectory record.
type entry struct {
	stamp
	Metrics map[string]float64 `json:"metrics"`
}

// trajectory is the checked-in BENCH_*.json layout; the last entry is
// the baseline -check compares against.
type trajectory struct {
	Schema    int     `json:"schema"`
	Benchtime string  `json:"benchtime,omitempty"`
	Entries   []entry `json:"entries"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "esteem-gate:", err)
		os.Exit(1)
	}
}

func run() error {
	record := flag.String("record", "", "append the input as a dated entry to this trajectory file")
	check := flag.String("check", "", "gate the input against the latest entry of this trajectory file")
	degrade := flag.Float64("degrade", 0, "write the input with ns/op and latency x N and throughput / N to stdout (gate self-test)")
	in := flag.String("in", "-", "go test -bench output or esteem-load report JSON (- = stdin)")
	benchtime := flag.String("benchtime", "", "benchtime label -record stores in the trajectory file")
	flag.Parse()

	modes := 0
	for _, on := range []bool{*record != "", *check != "", *degrade != 0} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -record, -check or -degrade is required")
	}
	raw, err := readInput(*in)
	if err != nil {
		return err
	}

	if *degrade != 0 {
		if *degrade <= 1 {
			return fmt.Errorf("-degrade wants a factor > 1, got %g", *degrade)
		}
		out, err := degradeInput(raw, *degrade)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}

	cur, err := parse(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	if *record != "" {
		tr, err := loadTrajectory(*record)
		if err != nil {
			return err
		}
		if *benchtime != "" {
			tr.Benchtime = *benchtime
		}
		tr.Entries = append(tr.Entries, cur)
		if err := saveTrajectory(*record, tr); err != nil {
			return err
		}
		fmt.Printf("recorded %d metrics; appended entry %d to %s\n", len(cur.Metrics), len(tr.Entries), *record)
		return nil
	}

	tr, err := loadTrajectory(*check)
	if err != nil {
		return err
	}
	if len(tr.Entries) == 0 {
		return fmt.Errorf("%s holds no baseline entries; record one first", *check)
	}
	base := tr.Entries[len(tr.Entries)-1]
	if failed := checkEntry(os.Stdout, base, cur); failed > 0 {
		return fmt.Errorf("%d rule(s) failed against the %s entry of %s", failed, base.Date, *check)
	}
	fmt.Println("gate passed")
	return nil
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// isReport tells an esteem-load report (a JSON object) from go test
// output (text lines).
func isReport(raw []byte) bool {
	return bytes.HasPrefix(bytes.TrimSpace(raw), []byte("{"))
}

func parse(raw []byte) (entry, error) {
	if isReport(raw) {
		return parseReport(raw)
	}
	return parseBench(raw)
}

// benchLine matches one result line of `go test -bench -benchmem`
// output, e.g.
//
//	BenchmarkCacheAccess-8  35108067  33.96 ns/op  0 B/op  0 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

// trackedBy returns the tracked base name that benchmark result name
// belongs to ("" if untracked). Sub-benchmarks count toward their
// parent: BenchmarkRefreshWindow/rpv is tracked by
// BenchmarkRefreshWindow and recorded under its full name.
func trackedBy(name string) string {
	for _, t := range tracked {
		if name == t || strings.HasPrefix(name, t+"/") {
			return t
		}
	}
	return ""
}

// benchFields names the numbers of a benchLine, in submatch order.
var benchFields = [4]string{"iters", "ns_op", "b_op", "allocs_op"}

// parseBench extracts the tracked benchmarks from go test output as
// <name>.iters, .ns_op, .b_op and .allocs_op, keeping per name the
// repetition with the best (lowest) ns/op so -count repetitions gate
// on the least noisy measurement. The stamp is this host, today.
func parseBench(raw []byte) (entry, error) {
	best := make(map[string][4]float64)
	seen := make(map[string]bool)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil || trackedBy(m[1]) == "" {
			continue
		}
		var v [4]float64
		for i, s := range m[2:] {
			if s == "" {
				continue // -benchmem off
			}
			var err error
			if v[i], err = strconv.ParseFloat(s, 64); err != nil {
				return entry{}, fmt.Errorf("%s: %s %q: %w", m[1], benchFields[i], s, err)
			}
		}
		if old, ok := best[m[1]]; !ok || v[1] < old[1] {
			best[m[1]] = v
		}
		seen[trackedBy(m[1])] = true
	}
	if err := sc.Err(); err != nil {
		return entry{}, err
	}
	var missing []string
	for _, t := range tracked {
		if !seen[t] {
			missing = append(missing, t)
		}
	}
	if len(missing) > 0 {
		return entry{}, fmt.Errorf("no results for %s (did the bench run fail?)", strings.Join(missing, ", "))
	}

	e := entry{Metrics: make(map[string]float64)}
	e.stamp = stamp{
		Date:   time.Now().UTC().Format("2006-01-02"),
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}
	for name, v := range best {
		for i, field := range benchFields {
			e.Metrics[name+"."+field] = v[i]
		}
	}
	return e, nil
}

// parseReport flattens an esteem-load report: its stamp fields become
// the entry's stamp and every other number a metric.
func parseReport(raw []byte) (entry, error) {
	var e entry
	if err := json.Unmarshal(raw, &e.stamp); err != nil {
		return e, err
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return e, err
	}
	for _, k := range []string{"date", "go", "goos", "goarch", "cpus", "note"} {
		delete(doc, k)
	}
	e.Metrics = make(map[string]float64)
	flatten(e.Metrics, "", doc)
	for _, name := range reportMetrics {
		if _, ok := e.Metrics[name]; !ok {
			return e, fmt.Errorf("report carries no %s", name)
		}
	}
	return e, nil
}

// flatten adds every number under v to m, named by its dotted path.
// Array elements are keyed by their "name" field when they have one
// (phases.burst120.achieved_rps), else by index
// (latency_histogram.3.count). Other strings are labels, not metrics.
func flatten(m map[string]float64, prefix string, v any) {
	join := func(k string) string {
		if prefix == "" {
			return k
		}
		return prefix + "." + k
	}
	switch v := v.(type) {
	case float64:
		m[prefix] = v
	case map[string]any:
		for k, c := range v {
			flatten(m, join(k), c)
		}
	case []any:
		for i, c := range v {
			key := strconv.Itoa(i)
			if o, ok := c.(map[string]any); ok {
				if name, ok := o["name"].(string); ok {
					key = name
				}
			}
			flatten(m, join(key), c)
		}
	}
}

// derive adds the report ratios the rules bound. They are computed at
// check time and never recorded: entries keep what the run measured.
func derive(m map[string]float64) {
	if req := m["overall.requests"]; req > 0 {
		m["overall.error_rate"] = m["overall.errors"] / req
	}
	if hr, ok := m["cache.hit_rate"]; ok {
		m["cache.hit_rate_drift"] = math.Abs(hr - m["hot_fraction"])
	}
}

// checkEntry applies every rule to cur against base, writes one line
// per rule application and returns the number that failed. It adds
// the derived ratios to cur.Metrics.
func checkEntry(w io.Writer, base, cur entry) (failed int) {
	derive(cur.Metrics)
	for _, name := range sortedNames(cur.Metrics) {
		c := cur.Metrics[name]
		for _, r := range rules {
			if !r.matches(name) {
				continue
			}
			b, ok := base.Metrics[name]
			if r.relative && !ok {
				fmt.Fprintf(w, "SKIP %-40s no baseline (new metric)\n", name)
				continue
			}
			status := "ok  "
			if !r.pass(c, b) {
				status = "FAIL"
				failed++
			}
			vs := ""
			if r.relative {
				vs = fmt.Sprintf("  base %.6g", b)
			}
			fmt.Fprintf(w, "%s %-40s %14.6g%s  (%s)\n", status, name, c, vs, r.bound)
		}
	}
	return failed
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// degradeInput returns raw in its own format with ns/op and latencies
// multiplied by f and achieved RPS divided by f.
func degradeInput(raw []byte, f float64) ([]byte, error) {
	if !isReport(raw) {
		lines := strings.SplitAfter(string(raw), "\n")
		for i, l := range lines {
			if m := benchLine.FindStringSubmatchIndex(l); m != nil {
				ns, err := strconv.ParseFloat(l[m[6]:m[7]], 64)
				if err != nil {
					return nil, err
				}
				lines[i] = l[:m[6]] + strconv.FormatFloat(ns*f, 'f', -1, 64) + l[m[7]:]
			}
		}
		return []byte(strings.Join(lines, "")), nil
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	degradeTree(doc, f)
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

// degradeTree scales, in place, every number under a "latency" key by
// f and every "achieved_rps" by 1/f.
func degradeTree(v any, f float64) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			if x, ok := c.(float64); ok && k == "achieved_rps" {
				v[k] = x / f
			} else if q, ok := c.(map[string]any); ok && k == "latency" {
				for qk, qv := range q {
					if n, ok := qv.(float64); ok {
						q[qk] = n * f
					}
				}
			} else {
				degradeTree(c, f)
			}
		}
	case []any:
		for _, c := range v {
			degradeTree(c, f)
		}
	}
}

// loadTrajectory reads a trajectory file; a missing file is an empty
// trajectory.
func loadTrajectory(path string) (trajectory, error) {
	var tr trajectory
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return trajectory{Schema: schema}, nil
	} else if err != nil {
		return tr, err
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		return tr, fmt.Errorf("%s: %w", path, err)
	}
	if tr.Schema != schema {
		return tr, fmt.Errorf("%s: trajectory schema %d, want %d", path, tr.Schema, schema)
	}
	return tr, nil
}

func saveTrajectory(path string, tr trajectory) error {
	tr.Schema = schema
	b, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
