// Command perfbench is the repository benchmark: the one program every
// performance claim about the simulator, its result store, the HTTP
// service and the cluster is measured with.
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// It runs one workload in this process for a fixed window, checks the
// outputs it produced, and prints one JSON object as the last line of
// standard output: {"correct", "attempted", "failed", "metrics"}. With
// -trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with -trace 1 the workload runs twice, untraced and then traced,
// and the metrics are the per-layer numbers rolled up from the traced
// run's spans plus the benchmark's own probes. README.md documents the
// workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options is what every workload receives.
type options struct {
	seed   int64
	window time.Duration
	// root is the repository checkout (golden files live under it);
	// work is this run's scratch directory inside it.
	root, work string
	traced     bool
	// delays injects latency into the benchmark's own layer probes;
	// only the layer self-test sets it.
	delays delays
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*report, error){
	"sweep-fig3":     runSweep,
	"serve-openloop": runServe,
	"cluster-fanout": runCluster,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed replays the same inputs")
	seconds := fs.Int("seconds", 20, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository checkout root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	work, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-"+*name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, root: *root, work: work}

	out, err := measure(drive, o, *traceFlag == 1)
	if err == nil {
		err = checkCounts(filepath.Join(*root, ".bench_build", "counts"), *name, o, out.counts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		attempted := 1
		if out != nil && out.attempted > 0 {
			attempted = out.attempted
		}
		printResult(result{Correct: false, Attempted: attempted, Failed: attempted, Metrics: map[string]metric{}})
		return 1
	}
	out.print(os.Stderr, *name)
	detail, _ := json.Marshal(out.detail(*name, o))
	fmt.Println(string(detail))
	metrics := out.e2e
	if *traceFlag == 1 {
		metrics = out.layers
	}
	printResult(result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: metrics.export()})
	return 0
}

// measure runs a workload: once untraced for the end-to-end metrics,
// or untraced then traced for the per-layer ones. The two runs of a
// traced invocation must do identical work.
func measure(drive func(options) (*report, error), o options, traced bool) (*report, error) {
	plain, err := drive(o)
	if err != nil || !traced {
		return plain, err
	}
	o.traced = true
	tr, err := drive(o)
	if err != nil {
		return tr, err
	}
	if err := sameCounts(plain.counts, tr.counts); err != nil {
		return tr, fmt.Errorf("traced run did different work: %w", err)
	}
	base, _ := plain.e2e.get("job_p50_ms")
	withTrace, _ := tr.e2e.get("job_p50_ms")
	tr.layers.add("tracez.overhead_pct", "%", 100*(withTrace-base)/base, 1)
	return tr, nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // every value is finite by construction
	}
	fmt.Println(string(b))
}

// sample is one metric with the number of observations behind it.
type sample struct {
	name, unit string
	value      float64
	n          int
}

// samples keeps metrics in the order they were added.
type samples []sample

func (s *samples) add(name, unit string, value float64, n int) {
	// JSON has no NaN or Inf; a metric without samples reads 0.
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	*s = append(*s, sample{name, unit, value, n})
}

func (s samples) get(name string) (float64, bool) {
	for _, m := range s {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

func (s samples) export() map[string]metric {
	out := make(map[string]metric, len(s))
	for _, m := range s {
		out[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	return out
}

// report is one workload run's outcome.
type report struct {
	e2e, layers       samples
	attempted, failed int
	// counts is the exact work the run did; two runs at the same seed
	// must agree on every entry.
	counts map[string]uint64
}

func newReport() *report { return &report{counts: map[string]uint64{}} }

// print writes a human-readable table to w.
func (r *report) print(w io.Writer, name string) {
	fmt.Fprintf(w, "== perfbench %s: %d ops attempted, %d failed ==\n", name, r.attempted, r.failed)
	for _, group := range []struct {
		title string
		s     samples
	}{{"end-to-end", r.e2e}, {"per-layer", r.layers}} {
		for _, m := range group.s {
			fmt.Fprintf(w, "  %-10s %-26s %14.4f %-9s n=%d\n", group.title, m.name, m.value, m.unit, m.n)
		}
	}
	for _, k := range sortedKeys(r.counts) {
		fmt.Fprintf(w, "  %-10s %-26s %14d\n", "count", k, r.counts[k])
	}
}

// detail is the full record printed before the result line: every
// metric with its sample count, and the work counts.
func (r *report) detail(name string, o options) any {
	type entry struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples"`
	}
	conv := func(s samples) map[string]entry {
		out := map[string]entry{}
		for _, m := range s {
			out[m.name] = entry{m.value, m.unit, m.n}
		}
		return out
	}
	return struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Seconds  float64           `json:"seconds"`
		EndToEnd map[string]entry  `json:"end_to_end"`
		PerLayer map[string]entry  `json:"per_layer,omitempty"`
		Counts   map[string]uint64 `json:"counts"`
	}{name, o.seed, o.window.Seconds(), conv(r.e2e), conv(r.layers), r.counts}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
