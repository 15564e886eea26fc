package trace

// Block is a run of references in struct-of-arrays form: reference i
// accesses Addr[i] after Gap[i] non-memory instructions, and is a
// store when Write[i] is set. The three slices have the same length,
// the block's length. A simulated core reads its references from
// blocks instead of calling Next once per reference.
type Block struct {
	Addr  []uint64
	Gap   []int
	Write []bool
	// Offset is added to every address Fill writes: the core's
	// address-space relocation, folded in while filling.
	Offset uint64

	// from is the generator state the block was filled from, so that
	// Rewind can return the generator to any position inside it.
	from mark
}

// NewBlock returns an empty block of n references.
func NewBlock(n int) *Block {
	return &Block{Addr: make([]uint64, n), Gap: make([]int, n), Write: make([]bool, n)}
}

// mark is every piece of generator state that drawing a reference can
// change.
type mark struct {
	rng      uint64
	zipfKey  int
	zipf     []zipfMark // one per cached sampler, in no particular order
	stream   uint64
	scanPos  []uint64
	scanNext int

	burstLeft           int
	burstLine, burstOff uint64

	refs     uint64
	phaseIdx int
}

// zipfMark is one cached Zipf sampler's substream state.
type zipfMark struct {
	key   int
	state uint64
}

// Fill overwrites b with the generator's next len(b.Addr) references,
// exactly the ones successive Next calls would return, with b.Offset
// added to each address.
func (g *Generator) Fill(b *Block) {
	g.save(&b.from)
	g.fill(b, len(b.Addr))
}

// Rewind returns the generator to the state it had just after
// producing the first n references of b, undoing everything generated
// since. b must be a block this generator filled, with no RestoreState
// since; blocks filled after it may exist and are invalidated.
func (g *Generator) Rewind(b *Block, n int) {
	g.restore(&b.from)
	g.fill(b, n)
}

// fill writes the next n references into b[:n]. Rewind re-fills the
// prefix of a block with the values it already holds.
func (g *Generator) fill(b *Block, n int) {
	addr, gap, write := b.Addr[:n], b.Gap[:n], b.Write[:n]
	off := b.Offset
	for i := range addr {
		a, gp, w, _ := g.next()
		addr[i] = a + off
		gap[i] = gp
		write[i] = w
	}
}

// save records the generator state in m, reusing m's slices.
func (g *Generator) save(m *mark) {
	m.rng = g.rng.State()
	m.zipfKey = g.zipfKey
	m.zipf = m.zipf[:0]
	for k, z := range g.zipfCache {
		m.zipf = append(m.zipf, zipfMark{k, z.RNGState()})
	}
	m.stream = g.streamPos
	m.scanPos = append(m.scanPos[:0], g.scanPos...)
	m.scanNext = g.scanNext
	m.burstLeft, m.burstLine, m.burstOff = g.burstLeft, g.burstLine, g.burstOff
	m.refs = g.refs
	m.phaseIdx = g.phaseIdx
}

// restore puts the generator back into the state recorded in m.
// Samplers cached after m was taken are dropped: a phase switch
// creates its sampler by drawing from the main stream, and replaying
// the switch must draw again.
func (g *Generator) restore(m *mark) {
	for k := range g.zipfCache {
		if !m.cached(k) {
			delete(g.zipfCache, k)
		}
	}
	for _, z := range m.zipf {
		g.zipfCache[z.key].SetRNGState(z.state)
	}
	g.rng.SetState(m.rng)
	g.zipfKey = m.zipfKey
	g.zipf = g.zipfCache[m.zipfKey]
	g.streamPos = m.stream
	copy(g.scanPos, m.scanPos)
	g.scanNext = m.scanNext
	g.burstLeft, g.burstLine, g.burstOff = m.burstLeft, m.burstLine, m.burstOff
	g.refs = m.refs
	g.phaseIdx = m.phaseIdx
}

// cached reports whether the sampler for hot size key existed when m
// was taken.
func (m *mark) cached(key int) bool {
	for _, z := range m.zipf {
		if z.key == key {
			return true
		}
	}
	return false
}
