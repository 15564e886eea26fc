package cpu

import (
	"runtime"
	"sync"

	"repro/internal/trace"
)

// How references reach a core. A source that can fill blocks
// (trace.Generator) is read a block at a time: first through the
// core's own syncRefs-reference block, filled on the core's goroutine,
// and, once the core has read prefixRefs references in a run that
// allows it and GOMAXPROCS > 1, through pipeBlocks blocks of pipeRefs
// references that a producer goroutine fills ahead of the core.
// Generation depends only on the source's own state, never on
// simulated timing, so running it ahead changes nothing but the wall
// clock. Short runs never reach the prefix, so they never pay for a
// producer's start-up and look-ahead.
//
// Any other source is read one reference per refill, through Next, so
// it is never read past what the core has simulated.
const (
	syncRefs   = 512
	prefixRefs = 64 << 10
	pipeRefs   = 4096
	pipeBlocks = 4
)

// filler is a source that fills blocks itself and can rewind into one.
type filler interface {
	Fill(*trace.Block)
	Rewind(*trace.Block, int)
}

// refill makes the next block current.
func (c *Core) refill() {
	switch {
	case c.fill == nil:
		r := c.src.Next()
		c.ownAddr[0], c.ownGap[0], c.ownWrite[0] = r.Addr+c.offset, r.Gap, r.Write
		c.blk, c.n = &c.own, 1
	case c.prod != nil:
		c.blk = c.prod.next(c.blk)
		c.n = pipeRefs
	case c.pipelined && c.read >= prefixRefs:
		c.prod = startProducer(c.fill, c.offset)
		c.blk = c.prod.next(nil)
		c.n = pipeRefs
	default:
		c.fill.Fill(&c.own)
		c.blk, c.n = &c.own, syncRefs
	}
	c.pos = 0
	c.read += uint64(c.n)
}

// Pipeline allows (on) or forbids a producer goroutine for this core.
// A producer starts only while allowed, once the core has read
// prefixRefs references, and only when GOMAXPROCS > 1: with one
// processor it would only add switching. Pipeline(false) syncs the
// core, so a producer never outlives the call that forbids it.
func (c *Core) Pipeline(on bool) {
	if !on {
		c.Sync()
	}
	c.pipelined = on && runtime.GOMAXPROCS(0) > 1
}

// Sync stops the core's producer, if one runs, and returns the
// source to the core's position, dropping every reference read ahead
// of it. Afterwards the source's state is exactly what per-reference
// reading would have left, so it can be checkpointed or restored.
// Reading resumes with a fresh block.
func (c *Core) Sync() {
	if c.blk == nil || c.fill == nil {
		return
	}
	if c.prod != nil {
		c.prod.stop()
	}
	// The block's mark rewinds past everything filled after it, so
	// this holds at a block end too, where the producer may already be
	// blocks ahead.
	c.fill.Rewind(c.blk, c.pos)
	if c.prod != nil {
		blockPool.Put(c.blk)
		c.prod = nil
	}
	c.read -= uint64(c.n - c.pos)
	c.blk, c.pos, c.n = nil, 0, 0
}

// blockPool recycles producer blocks across cores and runs.
var blockPool = sync.Pool{New: func() any { return trace.NewBlock(pipeRefs) }}

// producer fills blocks from a source on its own goroutine. Blocks
// circulate between free (to fill) and full (to read, in fill order);
// each channel has room for all pipeBlocks blocks, so sends never
// block.
type producer struct {
	free, full chan *trace.Block
	quit, done chan struct{}
}

// startProducer starts a producer continuing f's stream.
func startProducer(f filler, offset uint64) *producer {
	p := &producer{
		free: make(chan *trace.Block, pipeBlocks),
		full: make(chan *trace.Block, pipeBlocks),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < pipeBlocks; i++ {
		b := blockPool.Get().(*trace.Block)
		b.Offset = offset
		p.free <- b
	}
	go p.run(f)
	return p
}

func (p *producer) run(f filler) {
	defer close(p.done)
	for {
		select {
		case <-p.quit:
			return
		case b := <-p.free:
			f.Fill(b)
			p.full <- b
		}
	}
}

// next hands back the consumed block, if any, and waits for the next
// filled one.
func (p *producer) next(consumed *trace.Block) *trace.Block {
	if consumed != nil {
		p.free <- consumed
	}
	return <-p.full
}

// stop ends the goroutine and returns every block but the one the
// core holds to the pool. Once stop returns the producer no longer
// touches the source.
func (p *producer) stop() {
	close(p.quit)
	<-p.done
	for {
		select {
		case b := <-p.free:
			blockPool.Put(b)
		case b := <-p.full:
			blockPool.Put(b)
		default:
			return
		}
	}
}
