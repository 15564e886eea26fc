package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// atLeastTwoProcs raises GOMAXPROCS to 2 for the test if it is lower:
// cores start reference producers only when a second processor can
// run them.
func atLeastTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// stepRefs steps s, processing interval boundaries as the run loop
// does, until core 0 has read n more references. Every step reads one
// reference on the core at the heap root, so the count is exact.
func stepRefs(s *Simulator, n int) {
	for n > 0 {
		if s.order[0] == 0 {
			n--
		}
		s.step()
		if f := s.frontier(); f >= s.nextBoundary {
			s.boundary(f)
		}
	}
}

// TestCheckpointInsideBlocks checkpoints at chosen positions of core
// 0's reference blocks and requires (a) the same bytes as a run that
// never started a producer and (b) a resume from them that stays
// byte-identical to the uninterrupted run. A core reads 512-reference
// blocks it fills itself for its first 64Ki references, then
// 4096-reference blocks a producer fills ahead of it; the positions
// cover both phases, mid-block and exactly at a block end, where the
// producer is already ahead of the core.
func TestCheckpointInsideBlocks(t *testing.T) {
	atLeastTwoProcs(t)
	const prefix = 64 << 10
	positions := []struct {
		name string
		refs int
	}{
		{"prefix-mid-block", 10*512 + 100},
		{"prefix-block-end", 10 * 512},
		{"pipelined-block-end", prefix + 3*4096},
		{"pipelined-mid-block", prefix + 3*4096 + 1000},
	}
	for _, cores := range []int{1, 2} {
		for _, pos := range positions {
			t.Run(fmt.Sprintf("cores=%d/%s", cores, pos.name), func(t *testing.T) {
				cfg := testConfig(cores, Esteem)
				cfg.MeasureInstr = 1 << 40 // the window never closes
				cfg.IntervalCycles = 100_000
				bm := []string{"h264ref", "omnetpp"}[:cores]
				build := func(pipelined bool) *Simulator {
					s, err := New(cfg, bm)
					if err != nil {
						t.Fatal(err)
					}
					s.beginMeasurement()
					if pipelined {
						s.pipeline(true)
						t.Cleanup(func() { s.pipeline(false) })
					}
					return s
				}
				checkpoint := func(s *Simulator) []byte {
					b, err := s.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					return b
				}

				sync := build(false)
				stepRefs(sync, pos.refs)
				want := checkpoint(sync)

				before := runtime.NumGoroutine()
				a := build(true)
				stepRefs(a, pos.refs)
				if pos.refs > prefix && runtime.NumGoroutine() <= before {
					t.Fatal("no producer is running in the pipelined phase")
				}
				mid := checkpoint(a)
				if !bytes.Equal(mid, want) {
					t.Fatal("checkpoint differs from one taken without a producer")
				}
				stepRefs(a, 3*4096+7)
				end := checkpoint(a)

				b, err := New(cfg, bm)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.RestoreCheckpoint(mid); err != nil {
					t.Fatal(err)
				}
				b.pipeline(true)
				defer b.pipeline(false)
				stepRefs(b, 3*4096+7)
				if !bytes.Equal(checkpoint(b), end) {
					t.Fatal("resumed run differs from the uninterrupted one")
				}
			})
		}
	}
}

// TestRestoreRebuildsSchedule: a restored simulator steps the core
// with the earliest clock first, as the checkpointed one would, even
// when that is not core 0.
func TestRestoreRebuildsSchedule(t *testing.T) {
	cfg := testConfig(2, Esteem)
	cfg.MeasureInstr = 1 << 40
	bm := []string{"gcc", "mcf"}
	s, err := New(cfg, bm)
	if err != nil {
		t.Fatal(err)
	}
	s.beginMeasurement()
	stepRefs(s, 1000)
	for s.order[0] == 0 {
		s.step()
	}
	b, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(cfg, bm)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpoint(b); err != nil {
		t.Fatal(err)
	}
	if r.order[0] != 1 {
		t.Fatalf("restored schedule steps core %d first, want core 1 (clocks %d, %d)",
			r.order[0], r.cores[0].Clock(), r.cores[1].Clock())
	}
}

// waitGoroutines waits for the goroutine count to fall back to want;
// a goroutine that has signalled its exit may still be counted for a
// moment.
func waitGoroutines(t *testing.T, want int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, want %d", after, runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestNoProducerOutlivesCalls: reference producers run only inside Run
// and ResumeRun, and none survives Run, ResumeRun, a Checkpoint taken
// mid-run, an error return, or a simulator stepped without Run.
func TestNoProducerOutlivesCalls(t *testing.T) {
	atLeastTwoProcs(t)
	base := runtime.NumGoroutine()
	cfg := testConfig(2, Esteem)
	cfg.WarmupInstr = 100_000
	cfg.MeasureInstr = 400_000
	cfg.IntervalCycles = 100_000
	bm := []string{"gcc", "mcf"}

	s, err := New(cfg, bm)
	if err != nil {
		t.Fatal(err)
	}
	var seam []byte
	sawProducers := false
	s.SetCheckpointHook(func(info CheckpointInfo) {
		if runtime.NumGoroutine() > base {
			sawProducers = true
		}
		b, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if info.Seq == 0 {
			seam = b
		}
		waitGoroutines(t, base, fmt.Sprintf("Checkpoint at seq %d", info.Seq))
	})
	cold, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !sawProducers {
		t.Fatal("no producer ran: the test does not reach the pipelined phase")
	}
	waitGoroutines(t, base, "Run")

	r, err := New(cfg, bm)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreCheckpoint(seam); err != nil {
		t.Fatal(err)
	}
	got, err := r.ResumeRun()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cold) {
		t.Fatal("resumed result differs from the cold run")
	}
	waitGoroutines(t, base, "ResumeRun")

	if err := r.RestoreCheckpoint(seam[:len(seam)/2]); err == nil {
		t.Fatal("restore accepted a truncated checkpoint")
	}
	fresh, err := New(cfg, bm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ResumeRun(); err == nil {
		t.Fatal("ResumeRun ran without a restored checkpoint")
	}
	waitGoroutines(t, base, "error returns")

	// Stepped far past the synchronous prefix without Run, as the step
	// benchmark does.
	for i := 0; i < 200_000; i++ {
		fresh.step()
	}
	waitGoroutines(t, base, "stepping without Run")
}
