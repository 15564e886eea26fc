package cpu

import (
	"runtime"
	"testing"

	"repro/internal/trace"
)

func newCore(t testing.TB) *Core {
	t.Helper()
	p, ok := trace.ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	return New(0, trace.MustNewGenerator(p, 1), 0)
}

func TestNextRefAdvancesClockAndInstructions(t *testing.T) {
	c := newCore(t)
	p, _ := trace.ProfileByName("gcc")
	r := trace.MustNewGenerator(p, 1).Next()
	if addr, write := c.NextRef(); addr != r.Addr || write != r.Write {
		t.Fatalf("NextRef = (%#x, %v), want (%#x, %v)", addr, write, r.Addr, r.Write)
	}
	want := uint64(r.Gap) + 1
	if c.Instructions() != want {
		t.Fatalf("instructions = %d, want %d", c.Instructions(), want)
	}
	if c.Clock() != want {
		t.Fatalf("clock = %d, want %d (base CPI 1)", c.Clock(), want)
	}
}

func TestStallAccounting(t *testing.T) {
	c := newCore(t)
	c.Stall(12, StallL2Hit)
	c.Stall(220, StallMemory)
	c.Stall(30, StallRefresh)
	c.Stall(0, StallMemory) // no-op
	if c.Clock() != 262 {
		t.Fatalf("clock = %d, want 262", c.Clock())
	}
	if c.StallCycles(StallL2Hit) != 12 || c.StallCycles(StallMemory) != 220 || c.StallCycles(StallRefresh) != 30 {
		t.Fatal("stall breakdown wrong")
	}
	if c.Instructions() != 0 {
		t.Fatal("stalls must not retire instructions")
	}
}

func TestStallKindString(t *testing.T) {
	if StallL2Hit.String() != "l2-hit" || StallRefresh.String() != "refresh" || StallMemory.String() != "memory" {
		t.Fatal("stall names wrong")
	}
	if StallKind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestMeasurementWindow(t *testing.T) {
	c := newCore(t)
	// Warmup: run some refs before measuring.
	for i := 0; i < 100; i++ {
		c.NextRef()
	}
	warmClock := c.Clock()
	c.BeginMeasurement(1000)
	if c.MeasurementDone() {
		t.Fatal("measurement done immediately")
	}
	for !c.MeasurementDone() {
		c.NextRef()
		c.Stall(5, StallL2Hit)
	}
	mi := c.MeasuredInstructions()
	if mi < 1000 {
		t.Fatalf("measured instructions = %d, want >= 1000", mi)
	}
	// Budget can overshoot by at most one ref's gap.
	if mi > 1100 {
		t.Fatalf("measured instructions = %d, overshot far beyond budget", mi)
	}
	if c.MeasuredCycles() == 0 || c.MeasuredCycles() < mi {
		t.Fatalf("measured cycles = %d implausible (stalls added)", c.MeasuredCycles())
	}
	if c.Clock() <= warmClock {
		t.Fatal("clock did not advance during measurement")
	}
}

func TestIPCExcludesPostWindowExecution(t *testing.T) {
	c := newCore(t)
	c.BeginMeasurement(500)
	for !c.MeasurementDone() {
		c.NextRef()
	}
	ipcAtEnd := c.IPC()
	// Keep running with heavy stalls: IPC must not change.
	for i := 0; i < 200; i++ {
		c.NextRef()
		c.Stall(1000, StallMemory)
	}
	if c.IPC() != ipcAtEnd {
		t.Fatalf("IPC changed after window closed: %v vs %v", c.IPC(), ipcAtEnd)
	}
}

func TestIPCWithNoStallsIsOne(t *testing.T) {
	c := newCore(t)
	c.BeginMeasurement(1000)
	for !c.MeasurementDone() {
		c.NextRef()
	}
	if ipc := c.IPC(); ipc != 1 {
		t.Fatalf("stall-free IPC = %v, want exactly 1 (base CPI 1)", ipc)
	}
}

func TestIPCWithStalls(t *testing.T) {
	c := newCore(t)
	c.BeginMeasurement(1000)
	for !c.MeasurementDone() {
		c.NextRef()
		c.Stall(10, StallMemory)
	}
	if ipc := c.IPC(); ipc >= 1 || ipc <= 0 {
		t.Fatalf("stalled IPC = %v, want in (0,1)", ipc)
	}
}

func TestIPCZeroBeforeMeasurement(t *testing.T) {
	c := newCore(t)
	if c.IPC() != 0 {
		t.Fatal("IPC before measurement should be 0")
	}
}

func TestBeginMeasurementPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero budget accepted")
		}
	}()
	newCore(t).BeginMeasurement(0)
}

func TestID(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	c := New(3, trace.MustNewGenerator(p, 1), 0)
	if c.ID() != 3 {
		t.Fatal("ID wrong")
	}
}

// TestBlocksFollowSource: a core's references are its source's, with
// the core's offset added, through the synchronous prefix and the
// producer's blocks; Sync at any position, including a block end where
// the producer is already ahead, leaves the source exactly where the
// core is, and reading continues seamlessly after it.
func TestBlocksFollowSource(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	const offset = 1 << 44
	p, _ := trace.ProfileByName("xalancbmk")
	for _, at := range []int{0, 100, syncRefs, 7 * syncRefs, prefixRefs + pipeRefs, prefixRefs + 2*pipeRefs + 5} {
		gen, ref := trace.MustNewGenerator(p, 3), trace.MustNewGenerator(p, 3)
		c := New(1, gen, offset)
		c.Pipeline(true)
		read := func(n int) {
			for i := 0; i < n; i++ {
				r := ref.Next()
				if addr, write := c.NextRef(); addr != r.Addr+offset || write != r.Write {
					t.Fatalf("at %d: ref %d: (%#x, %v), want (%#x, %v)", at, i, addr, write, r.Addr+offset, r.Write)
				}
			}
		}
		read(at)
		if pipelined := c.prod != nil; pipelined != (at > prefixRefs) {
			t.Fatalf("at %d: producer running = %v", at, pipelined)
		}
		c.Sync()
		if gen.Refs() != ref.Refs() {
			t.Fatalf("at %d: source at ref %d after Sync, core at %d", at, gen.Refs(), ref.Refs())
		}
		read(pipeRefs + 1)
		c.Pipeline(false)
		if c.prod != nil {
			t.Fatalf("at %d: producer survives Pipeline(false)", at)
		}
	}
}

// TestNoProducerOnOneProc: with a single processor a producer would
// only add switching, so none starts.
func TestNoProducerOnOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := newCore(t)
	c.Pipeline(true)
	for i := 0; i < prefixRefs+2*pipeRefs; i++ {
		c.NextRef()
	}
	if c.prod != nil {
		t.Fatal("producer started with GOMAXPROCS=1")
	}
}

// TestNextSourcesReadOnDemand: a source without Fill is never read
// ahead of the core.
func TestNextSourcesReadOnDemand(t *testing.T) {
	p, _ := trace.ProfileByName("gcc")
	rp, err := trace.NewReplayer("gcc", trace.Record(trace.MustNewGenerator(p, 1), 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(0, rp, 0)
	c.Pipeline(true)
	defer c.Pipeline(false)
	for i := 0; i < 10; i++ {
		c.NextRef()
	}
	if rp.Loops() != 1 {
		t.Fatalf("replayer loops = %d after exactly one pass, want 1", rp.Loops())
	}
	c.NextRef()
	if rp.Loops() != 1 {
		t.Fatal("replayer read ahead of the core")
	}
}
