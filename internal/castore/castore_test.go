package castore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

func testKey(t *testing.T, seed uint64) string {
	t.Helper()
	cfg := sim.DefaultConfig(1)
	cfg.Seed = seed
	k, err := Key(cfg, []string{"gobmk"})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyStability(t *testing.T) {
	a := testKey(t, 1)
	if b := testKey(t, 1); b != a {
		t.Fatalf("same inputs hashed differently: %s vs %s", a, b)
	}
	if !ValidKey(a) {
		t.Fatalf("key %q is not 64 hex digits", a)
	}
}

func TestKeySensitivity(t *testing.T) {
	base := sim.DefaultConfig(1)
	ref, err := Key(base, []string{"gobmk"})
	if err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*sim.Config, *[]string){
		"seed":      func(c *sim.Config, _ *[]string) { c.Seed++ },
		"technique": func(c *sim.Config, _ *[]string) { c.Technique = sim.RPV },
		"retention": func(c *sim.Config, _ *[]string) { c.RetentionMicros = 40 },
		"interval":  func(c *sim.Config, _ *[]string) { c.IntervalCycles *= 2 },
		"instr":     func(c *sim.Config, _ *[]string) { c.MeasureInstr++ },
		"esteem":    func(c *sim.Config, _ *[]string) { c.Esteem.AMin = 4 },
		"workload":  func(_ *sim.Config, wl *[]string) { *wl = []string{"gcc"} },
	}
	for name, mutate := range mutations {
		cfg, wl := base, []string{"gobmk"}
		mutate(&cfg, &wl)
		k, err := Key(cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		if k == ref {
			t.Errorf("mutation %q did not change the key", name)
		}
	}
}

func TestValidKey(t *testing.T) {
	good := testKey(t, 1)
	for _, bad := range []string{"", "abc", "../../etc/passwd", strings.ToUpper(good), good + "0", good[:63] + "g"} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true, want false", bad)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	want := []byte(`{"hello":1}` + "\n")
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get = ok %v err %v", ok, err)
	}
	if string(got) != string(want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	st := s.Stats()
	if st.MemHits != 1 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want 1 memory hit", st)
	}
}

func TestMissingIsMissNotError(t *testing.T) {
	s, err := Open(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(testKey(t, 1)); ok || err != nil {
		t.Fatalf("Get on empty store = ok %v err %v, want miss", ok, err)
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st)
	}
}

func TestDiskPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	key := testKey(t, 1)
	want := []byte("artifact-bytes\n")

	s1, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put(key, want); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after reopen = ok %v err %v", ok, err)
	}
	if string(got) != string(want) {
		t.Fatalf("reopened bytes differ: %q vs %q", got, want)
	}
	if st := s2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", st)
	}
}

func TestLRUEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{testKey(t, 1), testKey(t, 2), testKey(t, 3)}
	for i, k := range keys {
		if err := s.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("LRU holds %d entries, want 2", s.Len())
	}
	// keys[0] was evicted from memory but must still load from disk.
	got, ok, err := s.Get(keys[0])
	if err != nil || !ok || string(got) != "v0" {
		t.Fatalf("evicted key: got %q ok %v err %v", got, ok, err)
	}
	if st := s.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want the evicted entry served from disk", st)
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	s, err := Open("", 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{testKey(t, 1), testKey(t, 2), testKey(t, 3)}
	for i, k := range keys {
		if err := s.Put(k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Evicted and gone: no disk layer to fall back to.
	if _, ok, err := s.Get(keys[0]); ok || err != nil {
		t.Fatalf("memory-only evicted key: ok %v err %v, want miss", ok, err)
	}
	if p := s.Path(keys[0]); p != "" {
		t.Fatalf("Path on memory-only store = %q, want empty", p)
	}
}

func TestPutIsAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	if err := s.Put(key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
		t.Fatalf("artifact file missing: %v", err)
	}
}

func TestGetOrComputeSingleFlight(t *testing.T) {
	s, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	var computes atomic.Int32
	gate := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	results := make([][]byte, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _, errs[i] = s.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
				computes.Add(1)
				<-gate // hold the flight open until every caller has piled up
				return []byte("computed"), nil
			})
		}()
	}
	// Let callers reach the flight, then release. (The gate guarantees
	// at most one compute can be past the channel receive; the atomic
	// then proves exactly one entered.)
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes ran, want 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if string(results[i]) != "computed" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
	}
	if st := s.Stats(); st.Computes != 1 {
		t.Fatalf("stats = %+v, want Computes=1", st)
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	s, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	boom := errors.New("boom")
	if _, _, err := s.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the next call recomputes.
	data, cached, err := s.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || cached || string(data) != "ok" {
		t.Fatalf("retry = %q cached %v err %v", data, cached, err)
	}
}

func TestGetOrComputeWaiterCancellation(t *testing.T) {
	s, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	started := make(chan struct{})
	gate := make(chan struct{})

	go func() {
		s.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
			close(started)
			<-gate
			return []byte("slow"), nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.GetOrCompute(ctx, key, func(context.Context) ([]byte, error) {
		t.Error("cancelled waiter must not compute")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(gate)
}

func TestGetOrComputeHitSkipsCompute(t *testing.T) {
	s, err := Open(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	if err := s.Put(key, []byte("stored")); err != nil {
		t.Fatal(err)
	}
	data, cached, err := s.GetOrCompute(context.Background(), key, func(context.Context) ([]byte, error) {
		t.Error("compute ran despite a stored artifact")
		return nil, nil
	})
	if err != nil || !cached || string(data) != "stored" {
		t.Fatalf("got %q cached %v err %v", data, cached, err)
	}
}

// TestGetOrComputeCountsEachCallOnce forces the two interleavings
// where a call's first lookup misses but something other than its own
// compute serves it. Each call must count exactly one of hit, miss
// and coalesced, or the hit rate load reports derive from these
// counters drifts.
func TestGetOrComputeCountsEachCallOnce(t *testing.T) {
	ctx := context.Background()
	key := testKey(t, 1)
	noCompute := func(context.Context) ([]byte, error) {
		t.Error("compute ran for a call another source should serve")
		return nil, errors.New("unexpected compute")
	}

	t.Run("miss-joins-flight", func(t *testing.T) {
		s, err := Open(t.TempDir(), 8)
		if err != nil {
			t.Fatal(err)
		}
		started, release := make(chan struct{}), make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			_, _, err := s.GetOrCompute(ctx, key, func(context.Context) ([]byte, error) {
				close(started)
				<-release
				return []byte("computed"), nil
			})
			leader <- err
		}()
		<-started
		// The leader's flight is registered and nothing is stored yet,
		// so a second call misses the store and joins the flight.
		waiter := make(chan error, 1)
		go func() {
			data, cached, err := s.GetOrCompute(ctx, key, noCompute)
			if err == nil && (!cached || string(data) != "computed") {
				err = fmt.Errorf("waiter got %q cached %v", data, cached)
			}
			waiter <- err
		}()
		for s.Stats().Coalesced == 0 {
			runtime.Gosched()
		}
		close(release)
		if err := <-leader; err != nil {
			t.Fatal(err)
		}
		if err := <-waiter; err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Hits != 0 || st.Misses != 1 || st.Coalesced != 1 || st.Computes != 1 {
			t.Fatalf("stats = %+v, want 0 hits, 1 miss, 1 coalesced, 1 compute", st)
		}
	})

	t.Run("miss-then-recheck-hits", func(t *testing.T) {
		s, err := Open(t.TempDir(), 8)
		if err != nil {
			t.Fatal(err)
		}
		// The artifact lands after the first lookup misses and before
		// the call registers its flight, as when an earlier flight
		// drains in that window.
		s.testHookMiss = func() {
			if err := s.Put(key, []byte("stored")); err != nil {
				t.Error(err)
			}
		}
		data, cached, err := s.GetOrCompute(ctx, key, noCompute)
		if err != nil || !cached || string(data) != "stored" {
			t.Fatalf("got %q cached %v err %v", data, cached, err)
		}
		if st := s.Stats(); st.Hits != 1 || st.Misses != 0 || st.Coalesced != 0 || st.Computes != 0 {
			t.Fatalf("stats = %+v, want 1 hit, 0 misses, 0 coalesced, 0 computes", st)
		}
	})
}
