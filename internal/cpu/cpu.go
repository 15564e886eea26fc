// Package cpu models the cores of the simulated system. The paper's
// evaluation runs an out-of-order x86 core in Sniper; for the
// reproduction the core is abstracted to a unit-base-CPI in-order
// engine whose memory stalls come from the cache hierarchy (see
// DESIGN.md for why this preserves the paper's relative-IPC metrics):
// every instruction retires in one cycle, and memory operations add
// the latency the hierarchy reports (L2 access, refresh-induced bank
// stalls, memory queueing and access latency).
//
// The Core tracks the cycle clock, instruction count and a stall
// breakdown, and implements the paper's measurement protocol: after a
// fast-forward warmup, IPC is recorded for exactly the measured
// instruction budget, while the core may keep running beyond it to
// preserve multi-core interference (Section 6.4).
package cpu

import (
	"fmt"

	"repro/internal/trace"
)

// StallKind classifies where a memory stall came from.
type StallKind int

const (
	// StallL2Hit is time spent on L2 hit latency.
	StallL2Hit StallKind = iota
	// StallRefresh is time spent waiting for eDRAM refresh bursts.
	StallRefresh
	// StallMemory is main-memory latency plus queue delay.
	StallMemory
	numStallKinds
)

// String names the stall kind.
func (k StallKind) String() string {
	switch k {
	case StallL2Hit:
		return "l2-hit"
	case StallRefresh:
		return "refresh"
	case StallMemory:
		return "memory"
	default:
		return fmt.Sprintf("stall(%d)", int(k))
	}
}

// Core is one simulated core executing a workload source.
type Core struct {
	id  int
	src trace.Source
	// fill is src as a block filler; nil when src only has Next.
	fill filler
	// offset relocates the core's addresses into its own address space.
	offset uint64

	// blk is the block being consumed (nil when none is held); the
	// next reference is blk[pos], and blk holds n references.
	blk    *trace.Block
	pos, n int
	// read counts the references taken from src net of dropped
	// look-ahead; the producer may start only once it reaches
	// prefixRefs.
	read uint64
	// pipelined allows a producer (see Pipeline); prod is the running
	// one, if any.
	pipelined bool
	prod      *producer
	// own is the block the core fills itself, backed by the arrays
	// below so that building a core stays one allocation.
	own      trace.Block
	ownAddr  [syncRefs]uint64
	ownGap   [syncRefs]int
	ownWrite [syncRefs]bool

	clock        uint64
	instructions uint64
	stalls       [numStallKinds]uint64

	// Measurement window state (Section 6.4 protocol).
	measureBudget uint64
	measureStart  struct {
		clock, instructions uint64
	}
	measureEnd struct {
		clock, instructions uint64
		done                bool
	}
}

// New builds a core over a reference source (a synthetic generator,
// a trace replayer, or any user-supplied Source). offset is added to
// every address the source produces, so that the cores of a
// multiprogrammed workload do not alias in a shared cache.
func New(id int, src trace.Source, offset uint64) *Core {
	c := &Core{id: id, src: src, offset: offset}
	c.fill, _ = src.(filler)
	c.own = trace.Block{Addr: c.ownAddr[:], Gap: c.ownGap[:], Write: c.ownWrite[:], Offset: offset}
	return c
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// Clock returns the core's current cycle.
func (c *Core) Clock() uint64 { return c.clock }

// Instructions returns the instructions retired so far.
func (c *Core) Instructions() uint64 { return c.instructions }

// NextRef takes the next memory reference from the benchmark and
// retires the instructions leading up to and including it (Gap
// non-memory instructions plus the memory operation itself, at one
// cycle each). It returns the reference's relocated address and
// whether it is a store.
func (c *Core) NextRef() (addr uint64, write bool) {
	if c.pos == c.n {
		c.refill()
	}
	b, i := c.blk, c.pos
	c.pos++
	c.retire(uint64(b.Gap[i]) + 1)
	return b.Addr[i], b.Write[i]
}

// retire advances instructions and the clock at base CPI 1, updating
// the measurement window when its budget is crossed.
func (c *Core) retire(n uint64) {
	c.instructions += n
	c.clock += n
	c.checkMeasureEnd()
}

// Stall adds memory-stall cycles of the given kind.
func (c *Core) Stall(cycles uint64, kind StallKind) {
	if cycles == 0 {
		return
	}
	c.clock += cycles
	c.stalls[kind] += cycles
}

// StallCycles returns the accumulated stall cycles of one kind.
func (c *Core) StallCycles(kind StallKind) uint64 { return c.stalls[kind] }

// BeginMeasurement opens the measurement window: IPC will be computed
// over the next budget instructions. Call it after warmup.
func (c *Core) BeginMeasurement(budget uint64) {
	if budget == 0 {
		panic("cpu: zero measurement budget")
	}
	c.measureBudget = budget
	c.measureStart.clock = c.clock
	c.measureStart.instructions = c.instructions
	c.measureEnd.done = false
}

// checkMeasureEnd snapshots the window end when the budget is
// reached. The core may continue past it (multi-core interference).
func (c *Core) checkMeasureEnd() {
	if c.measureEnd.done || c.measureBudget == 0 {
		return
	}
	if c.instructions-c.measureStart.instructions >= c.measureBudget {
		c.measureEnd.clock = c.clock
		c.measureEnd.instructions = c.instructions
		c.measureEnd.done = true
	}
}

// MeasurementDone reports whether the measured budget has been
// retired.
func (c *Core) MeasurementDone() bool { return c.measureEnd.done }

// MeasuredInstructions returns the instructions retired inside the
// measurement window (0 if the window is still open).
func (c *Core) MeasuredInstructions() uint64 {
	if !c.measureEnd.done {
		return c.instructions - c.measureStart.instructions
	}
	return c.measureEnd.instructions - c.measureStart.instructions
}

// MeasuredCycles returns the cycles elapsed in the measurement
// window; for a still-open window, cycles so far.
func (c *Core) MeasuredCycles() uint64 {
	if !c.measureEnd.done {
		return c.clock - c.measureStart.clock
	}
	return c.measureEnd.clock - c.measureStart.clock
}

// IPC returns instructions per cycle over the measurement window
// (per the paper, recorded only for the first budget instructions
// even if the core continues running).
func (c *Core) IPC() float64 {
	cyc := c.MeasuredCycles()
	if cyc == 0 {
		return 0
	}
	return float64(c.MeasuredInstructions()) / float64(cyc)
}
