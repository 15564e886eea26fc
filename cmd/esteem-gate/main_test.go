package main

import (
	"fmt"
	"strings"
	"testing"
)

// benchText is `go test -bench -benchmem` output covering every
// tracked benchmark: -N suffixes, sub-benchmarks, three -count
// repetitions of SimRunShort, a custom metric and one untracked
// benchmark.
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
BenchmarkClusterTask-2     	    6316	    213089 ns/op	       12.5 units/s	   54072 B/op	     554 allocs/op
BenchmarkGeneratorFill-2   	50000000	        4.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkGeneratorNext-2   	50000000	        24.1 ns/op	       0 B/op	       0 allocs/op
ok  	repro/internal/sim	9.1s
`

func mustParse(t *testing.T, raw string) map[string][]result {
	t.Helper()
	runs, err := parseBench([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return runs
}

func mustGate(t *testing.T, base, head map[string][]result) (int, string) {
	t.Helper()
	var out strings.Builder
	n, err := gate(&out, base, head)
	if err != nil {
		t.Fatal(err)
	}
	return n, out.String()
}

func TestParseBench(t *testing.T) {
	runs := mustParse(t, benchText)
	want := map[string][]result{
		// The -N suffix is dropped.
		"BenchmarkCacheAccess":    {{33.96, 0}},
		"BenchmarkCacheNew":       {{149690, 7}},
		"BenchmarkActiveFraction": {{1.591, 0}},
		// Sub-benchmarks keep their full name.
		"BenchmarkRefreshWindow/rpv":        {{5365, 0}},
		"BenchmarkRefreshWindow/valid-only": {{3879, 0}},
		// Every -count repetition, in order.
		"BenchmarkSimRunShort": {{6900000, 57}, {6314192, 56}, {6500000, 57}},
		// A custom metric between ns/op and B/op is skipped.
		"BenchmarkClusterTask":   {{213089, 554}},
		"BenchmarkGeneratorFill": {{4.1, 0}},
	}
	if len(runs) != len(want) {
		t.Errorf("%d names parsed, want %d (untracked BenchmarkGeneratorNext must be dropped): %v", len(runs), len(want), runs)
	}
	for name, w := range want {
		if got := fmt.Sprint(runs[name]); got != fmt.Sprint(w) {
			t.Errorf("%s = %s, want %v", name, got, w)
		}
	}
}

// pairText writes n repetitions of each named benchmark, the k-th
// with ns/op ns(k) and allocs/op allocs(k).
func pairText(names []string, n int, ns func(k int) float64, allocs func(k int) int) string {
	var b strings.Builder
	for k := 0; k < n; k++ {
		for _, name := range names {
			fmt.Fprintf(&b, "%s-2\t100\t%g ns/op\t64 B/op\t%d allocs/op\n", name, ns(k), allocs(k))
		}
	}
	return b.String()
}

func constAllocs(k int) int { return 3 }

// TestPairsByNameAndIndex: the k-th head result is divided by the
// k-th base result of the same name, never by another name's or
// another index's. Base alternates fast and slow runs, head follows
// it at 1.05x, so every pair reads 1.05; pairing across indexes would
// give ratios near 0.5 and 2.1.
func TestPairsByNameAndIndex(t *testing.T) {
	scale := map[string]float64{}
	for i, name := range tracked {
		scale[name] = float64(10 * (i + 1))
	}
	side := func(f float64) map[string][]result {
		runs := map[string][]result{}
		for _, name := range tracked {
			for k := 0; k < 9; k++ {
				ns := scale[name] * float64(1+k%2)
				runs[name] = append(runs[name], result{ns * f, 0})
			}
		}
		return runs
	}
	n, out := mustGate(t, side(1), side(1.05))
	if n != 0 {
		t.Fatalf("%d failures\n%s", n, out)
	}
	if want := "median head/base 1.050 over 9 pairs"; strings.Count(out, want) != len(tracked) {
		t.Errorf("want %d lines with %q\n%s", len(tracked), want, out)
	}
}

// TestMedianRule puts the median on both sides of 1.10. The ratio
// varies from pair to pair, with outliers on both sides, and the
// median alone decides.
func TestMedianRule(t *testing.T) {
	for _, tc := range []struct {
		median float64
		pass   bool
	}{{1.09, true}, {1.11, false}} {
		base := pairText(tracked, 21, func(int) float64 { return 1000 }, constAllocs)
		head := pairText(tracked, 21, func(k int) float64 {
			switch {
			case k < 8:
				return 1000 * (tc.median - 0.3) // fast outliers
			case k > 12:
				return 1000 * (tc.median + 2) // slow outliers
			}
			return 1000 * (tc.median + float64(k-10)*0.0001)
		}, constAllocs)
		n, out := mustGate(t, mustParse(t, base), mustParse(t, head))
		if (n == 0) != tc.pass {
			t.Errorf("median %.2f: %d failures, want pass=%v\n%s", tc.median, n, tc.pass, out)
		}
		if !tc.pass && !strings.Contains(out, "FAIL BenchmarkSimRunShort") {
			t.Errorf("median %.2f: no FAIL line for BenchmarkSimRunShort\n%s", tc.median, out)
		}
	}
}

// TestMinAllocsRule: a run that collects more often reads one
// allocation higher, in base and head alike, and the gate must let
// that through; an allocation every head run makes must fail.
func TestMinAllocsRule(t *testing.T) {
	ns := func(int) float64 { return 1000 }
	counts := func(cs ...int) func(int) int { return func(k int) int { return cs[k] } }
	base := mustParse(t, pairText(tracked, 2, ns, counts(56, 57)))
	for _, tc := range []struct {
		name string
		head []int
		pass bool
	}{
		{"flip", []int{57, 56}, true},
		{"fewer", []int{55, 55}, true},
		{"extra allocation", []int{57, 57}, false},
	} {
		n, out := mustGate(t, base, mustParse(t, pairText(tracked, 2, ns, counts(tc.head...))))
		if (n == 0) != tc.pass {
			t.Errorf("%s: head %v against base {56,57}: %d failures, want pass=%v\n%s", tc.name, tc.head, n, tc.pass, out)
		}
		if !tc.pass && !strings.Contains(out, "FAIL BenchmarkSimRunShort") {
			t.Errorf("%s: no FAIL line for BenchmarkSimRunShort\n%s", tc.name, out)
		}
	}
}

func TestTrackedMissingFromHeadIsError(t *testing.T) {
	runs := mustParse(t, benchText)
	for _, drop := range []string{"BenchmarkClusterTask", "BenchmarkRefreshWindow/"} {
		head := map[string][]result{}
		for name, rs := range runs {
			if !strings.HasPrefix(name, drop) {
				head[name] = rs
			}
		}
		want := strings.TrimSuffix(drop, "/")
		if _, err := gate(new(strings.Builder), runs, head); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("head without %s: err %v, want one naming it", want, err)
		}
	}
	if _, err := gate(new(strings.Builder), runs, mustParse(t, "FAIL\trepro/internal/sim\n")); err == nil {
		t.Error("empty head run passed")
	}
}

func TestNewInHeadSkipped(t *testing.T) {
	head := mustParse(t, benchText)
	base := map[string][]result{}
	for name, rs := range head {
		if name != "BenchmarkRefreshWindow/valid-only" && name != "BenchmarkGeneratorFill" {
			base[name] = rs
		}
	}
	head["BenchmarkRefreshWindow/valid-only"] = []result{{1e9, 100}}
	n, out := mustGate(t, base, head)
	if n != 0 {
		t.Errorf("%d failures on benchmarks base lacks\n%s", n, out)
	}
	for _, name := range []string{"BenchmarkRefreshWindow/valid-only", "BenchmarkGeneratorFill"} {
		if !strings.Contains(out, "NEW  "+name) {
			t.Errorf("%s not reported as new\n%s", name, out)
		}
	}
}

// TestDegradeFailsCheck: the gate self-test contract. A 1.2x-degraded
// copy scales ns/op, keeps everything else, and fails against the
// original.
func TestDegradeFailsCheck(t *testing.T) {
	out, err := degradeInput([]byte(benchText), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	base, bad := mustParse(t, benchText), mustParse(t, string(out))
	for name, rs := range base {
		for k, r := range rs {
			got := bad[name][k]
			if want := r.ns * 1.2; got.ns < want*(1-1e-9) || got.ns > want*(1+1e-9) || got.allocs != r.allocs {
				t.Errorf("%s[%d]: degraded %+v, want ns %v allocs %v", name, k, got, want, r.allocs)
			}
		}
	}
	if !strings.Contains(string(out), "12.5 units/s") || !strings.Contains(string(out), "pkg: repro/internal/cache") {
		t.Errorf("degrade changed more than ns/op:\n%s", out)
	}
	if n, _ := mustGate(t, base, bad); n == 0 {
		t.Error("gate passed a 1.2x-degraded copy")
	}
}
