package refrint

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/edram"
	"repro/internal/xrand"
)

// windowPolicies are the refresh policies BenchmarkRefreshWindow and
// TestRefreshWindowAllocatesNothing advance, by name.
var windowPolicies = []struct {
	name string
	make func(c *cache.Cache, clk *edram.Clock) (edram.Policy, error)
}{
	{"baseline", func(c *cache.Cache, clk *edram.Clock) (edram.Policy, error) { return edram.NewRefreshAll(c), nil }},
	{"valid-only", func(c *cache.Cache, clk *edram.Clock) (edram.Policy, error) { return edram.NewValidOnly(c), nil }},
	{"periodic-valid", func(c *cache.Cache, clk *edram.Clock) (edram.Policy, error) { return NewPeriodicValid(c), nil }},
	{"rpv", func(c *cache.Cache, clk *edram.Clock) (edram.Policy, error) { return NewRPV(c, clk, 4, 100_000) }},
	{"rpd", func(c *cache.Cache, clk *edram.Clock) (edram.Policy, error) { return NewRPD(c, clk, 4, 100_000) }},
}

// benchSetup builds the paper's L2 with the given policy installed,
// populates it with a deterministic mixed-dirtiness working set and
// returns the refresh engine, ready to advance.
func benchSetup(tb testing.TB, makePolicy func(c *cache.Cache, clk *edram.Clock) (edram.Policy, error)) (*edram.Engine, *cache.Cache, *edram.Clock) {
	tb.Helper()
	c := cache.MustNew(cache.Params{
		Name: "L2", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64,
		Latency: 12, Modules: 8, SamplingRatio: 64, Banks: 4,
	})
	clk := &edram.Clock{}
	policy, err := makePolicy(c, clk)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := edram.NewEngine(edram.Params{RetentionCycles: 100_000, Banks: 4}, policy)
	if err != nil {
		tb.Fatal(err)
	}
	// Fill ~60% of the cache with valid lines, ~30% of them dirty,
	// touching through Access so observers see every line.
	rng := xrand.New(7)
	for i := 0; i < c.TotalLines()*3/5; i++ {
		clk.Cycle = uint64(i)
		c.Access(cache.Addr(rng.Uint64n(4<<20)&^63), rng.Bool(0.3))
	}
	return eng, c, clk
}

// BenchmarkRefreshWindow measures the cost of advancing the refresh
// engine across one full retention window (every refresh event of
// every bank) for each refresh policy. This is the per-window price
// every simulated 50 µs pays, so it dominates long runs with quiet
// caches.
func BenchmarkRefreshWindow(b *testing.B) {
	for _, pc := range windowPolicies {
		b.Run(pc.name, func(b *testing.B) {
			eng, c, clk := benchSetup(b, pc.make)
			rng := xrand.New(11)
			b.ReportAllocs()
			b.ResetTimer()
			cycle := uint64(200_000)
			for i := 0; i < b.N; i++ {
				// One retention window per iteration, with a sprinkle
				// of touches so polyphase state keeps evolving (RPD
				// invalidates clean lines; re-fill to keep it loaded).
				for j := 0; j < 64; j++ {
					clk.Cycle = cycle + uint64(j)
					c.Access(cache.Addr(rng.Uint64n(4<<20)&^63), rng.Bool(0.3))
				}
				cycle += 100_000
				eng.AdvanceTo(cycle)
			}
			_ = fmt.Sprint(eng.TotalRefreshed())
		})
	}
}

// TestRefreshWindowAllocatesNothing pins the zero allocs/op that
// BenchmarkRefreshWindow reports for every policy, so every `go test`
// checks it: a window of touches and refresh events never allocates.
func TestRefreshWindowAllocatesNothing(t *testing.T) {
	for _, pc := range windowPolicies {
		t.Run(pc.name, func(t *testing.T) {
			eng, c, clk := benchSetup(t, pc.make)
			rng := xrand.New(11)
			cycle := uint64(200_000)
			if avg := testing.AllocsPerRun(20, func() {
				for j := 0; j < 64; j++ {
					clk.Cycle = cycle + uint64(j)
					c.Access(cache.Addr(rng.Uint64n(4<<20)&^63), rng.Bool(0.3))
				}
				cycle += 100_000
				eng.AdvanceTo(cycle)
			}); avg != 0 {
				t.Fatalf("one refresh window allocates %.2f times", avg)
			}
		})
	}
}
