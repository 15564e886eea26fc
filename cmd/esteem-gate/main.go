// Command esteem-gate is the repository's same-host performance check.
// It compares two `go test -bench -benchmem` texts of the pinned
// hot-path microbenchmarks, one from a base build and one from a head
// build run alternately on the same host (scripts/bench-pair.sh), and
// judges only head/base ratios, never a figure from another machine:
//
//	esteem-gate base.txt head.txt        # gate head against base
//	esteem-gate -degrade 1.2 head.txt    # write a copy with ns/op x N
//
// The k-th result of a benchmark in head is paired with the k-th
// result of the same name in base. Two constant rules apply to every
// tracked result (see maxNsRatio and gate); any failure exits 1.
// Degrade writes its input back with every ns/op multiplied by N: a
// synthetic regression the gate must reject.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// maxNsRatio bounds the median of the per-pair head/base ns/op
// ratios. Pairs run back to back on one host, and same-binary A/A
// medians fall within 0.98-1.05 there, so 1.10 passes a clean tree
// and still rejects a 20% slowdown.
const maxNsRatio = 1.10

// tracked is the pinned hot-path set, one benchmark per layer the
// simulator's time goes to. A result counts toward a tracked name if
// it is that benchmark or one of its sub-benchmarks.
var tracked = []string{
	"BenchmarkGeneratorFill",
	"BenchmarkCacheAccess",
	"BenchmarkCacheNew",
	"BenchmarkActiveFraction",
	"BenchmarkRefreshWindow",
	"BenchmarkSimRunShort",
	"BenchmarkClusterTask",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "esteem-gate:", err)
		os.Exit(1)
	}
}

func run() error {
	degrade := flag.Float64("degrade", 0, "write the one input with ns/op x N to stdout (gate self-test)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: esteem-gate base.txt head.txt | esteem-gate -degrade N bench.txt")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *degrade != 0 {
		if *degrade <= 1 {
			return fmt.Errorf("-degrade wants a factor > 1, got %g", *degrade)
		}
		if flag.NArg() != 1 {
			return fmt.Errorf("-degrade takes one bench text")
		}
		raw, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		out, err := degradeInput(raw, *degrade)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}

	if flag.NArg() != 2 {
		flag.Usage()
		return fmt.Errorf("want base.txt and head.txt, got %d arguments", flag.NArg())
	}
	var sides [2]map[string][]result
	for i, path := range flag.Args() {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if sides[i], err = parseBench(raw); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	failed, err := gate(os.Stdout, sides[0], sides[1])
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d rule(s) failed", failed)
	}
	fmt.Println("gate passed")
	return nil
}

// benchLine matches one result line of `go test -bench -benchmem`
// output, e.g.
//
//	BenchmarkCacheAccess-8  35108067  33.96 ns/op  0 B/op  0 allocs/op
//
// Submatches: name without the -N suffix, ns/op, allocs/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op.*\s([0-9.]+) allocs/op`)

// trackedBy returns the tracked name that benchmark result name
// belongs to ("" if untracked): BenchmarkRefreshWindow/rpv belongs to
// BenchmarkRefreshWindow.
func trackedBy(name string) string {
	for _, t := range tracked {
		if name == t || strings.HasPrefix(name, t+"/") {
			return t
		}
	}
	return ""
}

// result is one repetition of one benchmark.
type result struct{ ns, allocs float64 }

// parseBench returns every tracked result of a bench text, by full
// name (sub-benchmarks keep theirs) in the order they appear.
func parseBench(raw []byte) (map[string][]result, error) {
	runs := make(map[string][]result)
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil || trackedBy(m[1]) == "" {
			continue
		}
		var r result
		var err error
		if r.ns, err = strconv.ParseFloat(m[2], 64); err != nil {
			return nil, fmt.Errorf("%s ns/op: %w", m[1], err)
		}
		if r.allocs, err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fmt.Errorf("%s allocs/op: %w", m[1], err)
		}
		runs[m[1]] = append(runs[m[1]], r)
	}
	return runs, sc.Err()
}

// gate applies both rules to every result name in head, writes one
// line per rule application and returns the number that failed. A
// tracked benchmark with no result in head is an error (the run
// failed); a name base lacks is new and skipped.
//
// ns/op: the median over pairs of head/base must be at most
// maxNsRatio. allocs/op: head's minimum over its runs must not exceed
// base's. A call's allocations are exact, but allocs/op also counts
// what the runtime allocates on its own goroutines after each
// collection (the unique package's map cleanup, linked in through
// net/netip, makes two per cycle), so a run that collects more often
// reads higher: BenchmarkSimRunShort shows 57 in some runs and 56 in
// the rest. The minimum filters that out, and a real extra allocation
// still shows, because then every head run carries it.
func gate(w io.Writer, base, head map[string][]result) (failed int, err error) {
	var missing []string
	for _, t := range tracked {
		found := false
		for name := range head {
			found = found || trackedBy(name) == t
		}
		if !found {
			missing = append(missing, t)
		}
	}
	if len(missing) > 0 {
		return 0, fmt.Errorf("head has no results for %s (did the bench run fail?)", strings.Join(missing, ", "))
	}

	names := make([]string, 0, len(head))
	for name := range head {
		names = append(names, name)
	}
	sort.Strings(names)
	report := func(ok bool, name, format string, args ...any) {
		status := "ok  "
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(w, "%s %-36s %s\n", status, name, fmt.Sprintf(format, args...))
	}
	for _, name := range names {
		h, b := head[name], base[name]
		if len(b) == 0 {
			fmt.Fprintf(w, "NEW  %-36s not in base; skipped\n", name)
			continue
		}
		ratios := make([]float64, min(len(h), len(b)))
		for k := range ratios {
			ratios[k] = h[k].ns / b[k].ns
		}
		med := stats.Percentile(ratios, 50)
		report(med <= maxNsRatio, name, "ns/op     median head/base %.3f over %d pairs (<= %.2f)", med, len(ratios), maxNsRatio)
		hMin, bMin := minAllocs(h), minAllocs(b)
		report(hMin <= bMin, name, "allocs/op min %g, base min %g (no increase)", hMin, bMin)
	}
	return failed, nil
}

func minAllocs(rs []result) float64 {
	m := math.Inf(1)
	for _, r := range rs {
		m = math.Min(m, r.allocs)
	}
	return m
}

// degradeInput returns raw with every benchmark line's ns/op
// multiplied by f and everything else unchanged.
func degradeInput(raw []byte, f float64) ([]byte, error) {
	lines := strings.SplitAfter(string(raw), "\n")
	for i, l := range lines {
		m := benchLine.FindStringSubmatchIndex(l)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(l[m[4]:m[5]], 64)
		if err != nil {
			return nil, err
		}
		lines[i] = l[:m[4]] + strconv.FormatFloat(ns*f, 'f', -1, 64) + l[m[5]:]
	}
	return []byte(strings.Join(lines, "")), nil
}
