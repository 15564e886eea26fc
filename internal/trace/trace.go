// Package trace generates deterministic synthetic memory-reference
// streams standing in for the paper's workloads: the 29 SPEC CPU2006
// benchmarks (ref inputs) and 5 HPC proxy apps (amg2013, comd,
// lulesh, nekbone, xsbench), plus the 17 dual-core multiprogrammed
// mixes of Table 1.
//
// The ESTEEM technique is sensitive only to the statistical structure
// of the L2 access stream, so each benchmark is modelled as a mixture
// of three access patterns, parameterised per benchmark:
//
//   - hot-region reuse: Zipf-distributed line selection over a
//     working set, with short spatial bursts of word accesses inside
//     the chosen line. This gives the monotonically decaying
//     LRU-stack hit profile of LRU-friendly applications.
//   - sequential streaming at word granularity over a bounded region
//     (StreamKB): large regions never hit the L2 (libquantum, milc,
//     lbm, ...); small regions wrap and stay resident.
//   - interleaved cyclic scans over several loop-sized regions:
//     hits concentrate at deep, distinct LRU positions, the non-LRU
//     behaviour the paper calls out for omnetpp and xalancbmk (it
//     trips Algorithm 1's anomaly detector).
//
// plus optional working-set phases (h264ref's behaviour in Fig. 2).
// Each profile also carries an MLP factor — how many outstanding
// misses the (abstracted, out-of-order) core overlaps — used by the
// simulator to scale the exposed miss latency; pointer-chasing codes
// (mcf, omnetpp, astar) get MLP 1, array/streaming codes 4–8.
//
// Streams are exactly reproducible: the generator derives all
// randomness from a splitmix64 seed computed from the benchmark name
// and an experiment seed.
package trace

import (
	"fmt"

	"repro/internal/xrand"
)

// Kind classifies which pattern produced a reference.
type Kind uint8

const (
	// KindHot is a working-set reuse access.
	KindHot Kind = iota
	// KindStream is a sequential streaming access.
	KindStream
	// KindScan is a cyclic-scan access.
	KindScan
	// KindPointer is a dependent random access over a huge region
	// (pointer chasing): essentially no reuse at LLC scale.
	KindPointer
	// KindLocal is stack/locals traffic absorbed by the L1.
	KindLocal
)

// Ref is one memory reference of the instruction stream.
type Ref struct {
	// Addr is the byte address accessed.
	Addr uint64
	// Write marks stores.
	Write bool
	// Gap is the number of non-memory instructions executed before
	// this reference.
	Gap int
	// Kind tells which pattern generated the reference.
	Kind Kind
}

// Profile describes a synthetic benchmark.
type Profile struct {
	// Name is the benchmark name (paper Table 1) and Acronym its
	// two-letter code.
	Name    string
	Acronym string
	// MemOpFrac is the fraction of instructions that access memory;
	// instruction gaps between references are geometric with this
	// success probability.
	MemOpFrac float64
	// WriteFrac is the fraction of references that are stores.
	WriteFrac float64
	// HotKB is the hot working-set size. When PhaseHotKB is set, it
	// is the phase-0 size and subsequent phases cycle PhaseHotKB.
	HotKB int
	// ZipfS is the Zipf exponent of hot-region line selection
	// (higher = stronger locality).
	ZipfS float64
	// LocalFrac is the portion of hot-share references that go to a
	// small per-benchmark local region (stack, locals, hot code data)
	// that the L1 absorbs entirely. 0 means the 0.85 default; set a
	// negative value for none. LocalKB sizes the region (0 = 8 KB).
	// This keeps L1 hit rates realistic (~95%), which in turn keeps
	// L2 accesses per kilo-instruction in the range real SPEC
	// workloads show.
	LocalFrac float64
	LocalKB   int
	// BurstRefs is the mean number of consecutive word accesses made
	// inside a chosen hot line (spatial locality); 0 means 1.
	BurstRefs float64
	// StreamFrac is the fraction of references that stream
	// sequentially (8-byte stride) through the StreamKB region.
	StreamFrac float64
	// StreamKB bounds the streaming region; 0 means the 256 MB
	// default (effectively unbounded for any simulated cache).
	StreamKB int
	// ScanFrac is the fraction of references devoted to interleaved
	// cyclic scans over ScanLoopKB-sized loops (non-LRU generator).
	ScanFrac float64
	// ScanLoopKB lists the loop sizes; ignored when ScanFrac is 0.
	ScanLoopKB []int
	// PointerFrac is the fraction of references doing uniform random
	// (pointer-chasing) accesses over the PointerKB region — honest
	// capacity misses with no deep-position hits (mcf, soplex,
	// xsbench style).
	PointerFrac float64
	// PointerKB sizes the pointer region; required when PointerFrac
	// is positive.
	PointerKB int
	// MLP is the number of outstanding misses the core overlaps for
	// this benchmark (>= 1); the simulator divides the fixed memory
	// latency by it. 0 means 1.
	MLP float64
	// PhaseLenRefs is the number of references per working-set phase
	// (0 = single phase). PhaseHotKB lists the per-phase hot sizes,
	// cycled.
	PhaseLenRefs int
	PhaseHotKB   []int
}

// EffectiveMLP returns the MLP factor, defaulting to 1.
func (p Profile) EffectiveMLP() float64 {
	if p.MLP < 1 {
		return 1
	}
	return p.MLP
}

// EffectiveLocalFrac resolves the LocalFrac default (0.85; negative
// means none).
func (p Profile) EffectiveLocalFrac() float64 {
	switch {
	case p.LocalFrac < 0:
		return 0
	case p.LocalFrac == 0:
		return 0.85
	default:
		return p.LocalFrac
	}
}

// EffectiveLocalKB resolves the LocalKB default (8 KB).
func (p Profile) EffectiveLocalKB() int {
	if p.LocalKB <= 0 {
		return 8
	}
	return p.LocalKB
}

// Validate checks profile consistency.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("trace: profile with empty name")
	}
	if p.MemOpFrac <= 0 || p.MemOpFrac > 1 {
		return fmt.Errorf("trace %s: MemOpFrac %v out of (0,1]", p.Name, p.MemOpFrac)
	}
	if p.WriteFrac < 0 || p.WriteFrac > 1 {
		return fmt.Errorf("trace %s: WriteFrac %v out of [0,1]", p.Name, p.WriteFrac)
	}
	if p.HotKB <= 0 {
		return fmt.Errorf("trace %s: HotKB must be positive", p.Name)
	}
	if p.BurstRefs < 0 {
		return fmt.Errorf("trace %s: negative BurstRefs", p.Name)
	}
	if p.StreamFrac < 0 || p.ScanFrac < 0 || p.PointerFrac < 0 ||
		p.StreamFrac+p.ScanFrac+p.PointerFrac > 1 {
		return fmt.Errorf("trace %s: pattern fractions invalid", p.Name)
	}
	if p.PointerFrac > 0 && p.PointerKB <= 0 {
		return fmt.Errorf("trace %s: PointerFrac > 0 needs PointerKB", p.Name)
	}
	if p.StreamKB < 0 {
		return fmt.Errorf("trace %s: negative StreamKB", p.Name)
	}
	if p.ScanFrac > 0 && len(p.ScanLoopKB) == 0 {
		return fmt.Errorf("trace %s: ScanFrac > 0 needs ScanLoopKB", p.Name)
	}
	for _, kb := range p.ScanLoopKB {
		if kb <= 0 {
			return fmt.Errorf("trace %s: non-positive scan loop size", p.Name)
		}
	}
	if p.MLP < 0 {
		return fmt.Errorf("trace %s: negative MLP", p.Name)
	}
	if p.EffectiveLocalFrac() > 1 {
		return fmt.Errorf("trace %s: LocalFrac %v > 1", p.Name, p.LocalFrac)
	}
	if p.PhaseLenRefs < 0 {
		return fmt.Errorf("trace %s: negative phase length", p.Name)
	}
	if p.PhaseLenRefs > 0 && len(p.PhaseHotKB) == 0 {
		return fmt.Errorf("trace %s: phases need PhaseHotKB", p.Name)
	}
	for _, kb := range p.PhaseHotKB {
		if kb <= 0 {
			return fmt.Errorf("trace %s: non-positive phase hot size", p.Name)
		}
	}
	return nil
}

// Address-space layout: the three pattern regions are disjoint so the
// mixture components do not alias.
const (
	hotBase     = 0x0000_0000_0000
	localBase   = 0x0020_0000_0000
	scanBase    = 0x0040_0000_0000
	streamBase  = 0x0080_0000_0000
	pointerBase = 0x00C0_0000_0000
	// defaultStreamBytes is used when StreamKB is 0: far larger than
	// any simulated cache, so streamed lines never survive to reuse.
	defaultStreamBytes = 256 << 20
	lineBytes          = 64
	// strideBytes is the word-granularity stride of streaming and
	// scanning accesses (8 consecutive references touch one line).
	strideBytes = 8
)

// Generator produces the reference stream of one benchmark.
type Generator struct {
	p    Profile
	rng  xrand.RNG
	zipf *xrand.Zipf
	// zipfKey is the hot-size key g.zipf was selected with (needed to
	// re-identify the active sampler after a checkpoint restore).
	zipfKey int
	// zipfCache reuses Zipf samplers across repeated phase sizes.
	zipfCache map[int]*xrand.Zipf
	// geoGap and geoBurst are shared table samplers producing the
	// same draws as rng.Geometric without a math.Log per reference
	// (gap sampling dominated simulator profiles).
	geoGap   *xrand.GeoSampler
	geoBurst *xrand.GeoSampler

	// localFrac and localWords resolve the profile's local-region
	// defaults once: Profile is large, and calling its value-receiver
	// methods per reference copied it every time.
	localFrac  float64
	localWords uint64

	streamPos   uint64
	streamBytes uint64
	scanPos     []uint64
	scanSize    []uint64
	scanNext    int

	// Hot-burst state: remaining word refs inside burstLine.
	burstLeft int
	burstLine uint64
	burstOff  uint64

	refs     uint64
	phaseIdx int
}

// hashName gives a stable 64-bit hash of a benchmark name (FNV-1a).
func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// NewGenerator builds a generator for p. Streams for the same
// (profile, seed) pair are identical.
func NewGenerator(p Profile, seed uint64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		p:           p,
		zipfCache:   make(map[int]*xrand.Zipf),
		localFrac:   p.EffectiveLocalFrac(),
		localWords:  uint64(p.EffectiveLocalKB()) * 1024 / strideBytes,
		streamBytes: defaultStreamBytes,
	}
	g.rng.Seed(seed ^ hashName(p.Name))
	if p.StreamKB > 0 {
		g.streamBytes = uint64(p.StreamKB) * 1024
	}
	g.geoGap = xrand.CachedGeo(p.MemOpFrac)
	if p.BurstRefs > 1 {
		g.geoBurst = xrand.CachedGeo(1 / p.BurstRefs)
	}
	g.zipf = g.zipfFor(p.HotKB)
	g.zipfKey = p.HotKB
	for _, kb := range p.ScanLoopKB {
		g.scanPos = append(g.scanPos, 0)
		g.scanSize = append(g.scanSize, uint64(kb)*1024)
	}
	return g, nil
}

// MustNewGenerator is NewGenerator but panics on error.
func MustNewGenerator(p Profile, seed uint64) *Generator {
	g, err := NewGenerator(p, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// zipfFor returns a sampler over the lines of a hotKB-sized region.
func (g *Generator) zipfFor(hotKB int) *xrand.Zipf {
	if z, ok := g.zipfCache[hotKB]; ok {
		return z
	}
	n := hotKB * 1024 / lineBytes
	if n < 1 {
		n = 1
	}
	// Zipf gets a split substream so adding cache entries does not
	// perturb the main stream's draw sequence.
	z := xrand.NewZipf(xrand.New(g.rng.Uint64()), n, g.p.ZipfS)
	g.zipfCache[hotKB] = z
	return z
}

// Name returns the benchmark name.
func (g *Generator) Name() string { return g.p.Name }

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.p }

// Refs returns how many references have been generated.
func (g *Generator) Refs() uint64 { return g.refs }

// Phase returns the current phase index (always 0 for single-phase
// profiles).
func (g *Generator) Phase() int { return g.phaseIdx }

// Next produces the next memory reference.
func (g *Generator) Next() Ref {
	addr, gap, write, kind := g.next()
	return Ref{Addr: addr, Write: write, Gap: gap, Kind: kind}
}

// next draws one reference. It is the single generation body behind
// Next and Fill, so both produce the same stream from the same state.
func (g *Generator) next() (addr uint64, gap int, write bool, kind Kind) {
	// Phase switching.
	if g.p.PhaseLenRefs > 0 && g.refs > 0 && g.refs%uint64(g.p.PhaseLenRefs) == 0 {
		g.phaseIdx = int(g.refs/uint64(g.p.PhaseLenRefs)) % len(g.p.PhaseHotKB)
		g.zipfKey = g.p.PhaseHotKB[g.phaseIdx]
		g.zipf = g.zipfFor(g.zipfKey)
	}
	g.refs++

	gap = g.geoGap.Next(&g.rng)
	write = g.rng.Bool(g.p.WriteFrac)

	// A hot burst in progress continues regardless of the pattern
	// mixture (it models word accesses to one cached line).
	if g.burstLeft > 0 {
		g.burstLeft--
		g.burstOff = (g.burstOff + strideBytes) % lineBytes
		return g.burstLine + g.burstOff, gap, write, KindHot
	}

	u := g.rng.Float64()
	switch {
	case u < g.p.StreamFrac:
		addr = streamBase + g.streamPos
		g.streamPos = (g.streamPos + strideBytes) % g.streamBytes
		return addr, gap, write, KindStream
	case u < g.p.StreamFrac+g.p.ScanFrac:
		// Round-robin across the scan loops; each loop advances
		// word-by-word through its own region.
		i := g.scanNext
		g.scanNext = (g.scanNext + 1) % len(g.scanPos)
		base := scanBase + uint64(i)<<32 // disjoint region per loop
		addr = base + g.scanPos[i]
		g.scanPos[i] = (g.scanPos[i] + strideBytes) % g.scanSize[i]
		return addr, gap, write, KindScan
	case u < g.p.StreamFrac+g.p.ScanFrac+g.p.PointerFrac:
		lines := uint64(g.p.PointerKB) * 1024 / lineBytes
		return pointerBase + g.rng.Uint64n(lines)*lineBytes, gap, write, KindPointer
	}
	// Hot share: a LocalFrac portion goes to the small local region
	// (pure L1 traffic); the rest draws a Zipf hot line and possibly
	// starts a spatial burst in it.
	if g.localFrac > 0 && g.rng.Float64() < g.localFrac {
		return localBase + g.rng.Uint64n(g.localWords)*strideBytes, gap, write, KindLocal
	}
	g.burstLine = hotBase + uint64(g.zipf.Next())*lineBytes
	g.burstOff = 0
	if g.geoBurst != nil {
		// Geometric burst length with the configured mean.
		g.burstLeft = g.geoBurst.Next(&g.rng)
	}
	return g.burstLine, gap, write, KindHot
}

// profiles is the full benchmark table. Hot sizes, stream mixes,
// bursts and MLP are tuned so each benchmark's qualitative behaviour
// matches its characterisation in the paper (see package comment and
// DESIGN.md): gamess/povray/hmmer fit in (or near) L1 and leave the
// L2 idle; libquantum/milc/lbm stream with near-100% L2 miss rates;
// mcf/soplex/xsbench have working sets far beyond the LLC (slight
// ESTEEM loss); omnetpp/xalancbmk are non-LRU; h264ref changes
// working set across phases; gobmk/nekbone are intense but compact
// (the paper's biggest winners as the GkNe mix).
var profiles = []Profile{
	{Name: "astar", Acronym: "As", MemOpFrac: 0.35, WriteFrac: 0.10, HotKB: 1024, ZipfS: 1.05, BurstRefs: 2, PointerFrac: 0.015, PointerKB: 16 << 10, MLP: 1.5},
	{Name: "bwaves", Acronym: "Bw", MemOpFrac: 0.45, WriteFrac: 0.30, HotKB: 512, ZipfS: 1.00, BurstRefs: 6, StreamFrac: 0.30, MLP: 6},
	{Name: "bzip2", Acronym: "Bz", MemOpFrac: 0.35, WriteFrac: 0.25, HotKB: 1024, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.08, StreamKB: 32 << 10, MLP: 3},
	{Name: "cactusADM", Acronym: "Cd", MemOpFrac: 0.40, WriteFrac: 0.30, HotKB: 1024, ZipfS: 1.00, BurstRefs: 6, StreamFrac: 0.12, MLP: 5},
	{Name: "calculix", Acronym: "Ca", MemOpFrac: 0.35, WriteFrac: 0.20, HotKB: 256, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.03, StreamKB: 4 << 10, MLP: 4},
	{Name: "dealII", Acronym: "Dl", MemOpFrac: 0.40, WriteFrac: 0.20, HotKB: 512, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.03, StreamKB: 8 << 10, MLP: 4},
	{Name: "gamess", Acronym: "Ga", MemOpFrac: 0.30, WriteFrac: 0.15, HotKB: 20, ZipfS: 0.80, BurstRefs: 4, MLP: 4},
	{Name: "gcc", Acronym: "Gc", MemOpFrac: 0.35, WriteFrac: 0.25, HotKB: 768, ZipfS: 1.05, BurstRefs: 3, StreamFrac: 0.05, StreamKB: 32 << 10, MLP: 2},
	{Name: "gemsFDTD", Acronym: "Gm", MemOpFrac: 0.45, WriteFrac: 0.30, HotKB: 768, ZipfS: 1.00, BurstRefs: 6, StreamFrac: 0.30, MLP: 6},
	{Name: "gobmk", Acronym: "Gk", MemOpFrac: 0.30, WriteFrac: 0.15, HotKB: 384, ZipfS: 1.10, BurstRefs: 2, StreamFrac: 0.02, StreamKB: 8 << 10, MLP: 2},
	{Name: "gromacs", Acronym: "Gr", MemOpFrac: 0.35, WriteFrac: 0.20, HotKB: 96, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.02, StreamKB: 2 << 10, MLP: 4},
	{Name: "h264ref", Acronym: "H2", MemOpFrac: 0.35, WriteFrac: 0.20, HotKB: 256, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.04, StreamKB: 16 << 10, MLP: 3,
		PhaseLenRefs: 400_000, PhaseHotKB: []int{256, 1536, 512, 2048}},
	{Name: "hmmer", Acronym: "Hm", MemOpFrac: 0.40, WriteFrac: 0.15, HotKB: 48, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.01, StreamKB: 2 << 10, MLP: 4},
	{Name: "lbm", Acronym: "Lb", MemOpFrac: 0.45, WriteFrac: 0.45, HotKB: 384, ZipfS: 1.00, BurstRefs: 6, StreamFrac: 0.40, MLP: 8},
	{Name: "leslie3d", Acronym: "Ls", MemOpFrac: 0.45, WriteFrac: 0.30, HotKB: 512, ZipfS: 1.00, BurstRefs: 6, StreamFrac: 0.25, MLP: 6},
	{Name: "libquantum", Acronym: "Lq", MemOpFrac: 0.30, WriteFrac: 0.25, HotKB: 32, ZipfS: 0.50, BurstRefs: 2, StreamFrac: 0.85, StreamKB: 64 << 10, MLP: 8},
	{Name: "mcf", Acronym: "Mc", MemOpFrac: 0.40, WriteFrac: 0.20, HotKB: 512, ZipfS: 1.00, BurstRefs: 2, PointerFrac: 0.06, PointerKB: 64 << 10, StreamFrac: 0.03, StreamKB: 32 << 10, MLP: 1},
	{Name: "milc", Acronym: "Mi", MemOpFrac: 0.40, WriteFrac: 0.30, HotKB: 512, ZipfS: 1.00, BurstRefs: 8, PointerFrac: 0.04, PointerKB: 32 << 10, StreamFrac: 0.25, MLP: 6},
	{Name: "namd", Acronym: "Nd", MemOpFrac: 0.35, WriteFrac: 0.15, HotKB: 192, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.02, StreamKB: 4 << 10, MLP: 4},
	{Name: "omnetpp", Acronym: "Om", MemOpFrac: 0.35, WriteFrac: 0.25, HotKB: 768, ZipfS: 1.00, BurstRefs: 2, PointerFrac: 0.03, PointerKB: 16 << 10, MLP: 1,
		ScanFrac: 0.40, ScanLoopKB: []int{1024, 1792, 2560, 3328}},
	{Name: "perlbench", Acronym: "Pe", MemOpFrac: 0.35, WriteFrac: 0.20, HotKB: 640, ZipfS: 1.00, BurstRefs: 3, StreamFrac: 0.03, StreamKB: 16 << 10, MLP: 2},
	{Name: "povray", Acronym: "Po", MemOpFrac: 0.30, WriteFrac: 0.10, HotKB: 24, ZipfS: 0.90, BurstRefs: 4, MLP: 4},
	{Name: "sjeng", Acronym: "Si", MemOpFrac: 0.30, WriteFrac: 0.15, HotKB: 768, ZipfS: 1.00, BurstRefs: 2, StreamFrac: 0.02, StreamKB: 8 << 10, MLP: 2},
	{Name: "soplex", Acronym: "So", MemOpFrac: 0.40, WriteFrac: 0.25, HotKB: 1024, ZipfS: 1.00, BurstRefs: 3, PointerFrac: 0.04, PointerKB: 32 << 10, StreamFrac: 0.08, MLP: 2},
	{Name: "sphinx", Acronym: "Sp", MemOpFrac: 0.40, WriteFrac: 0.20, HotKB: 1024, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.12, MLP: 4},
	{Name: "tonto", Acronym: "To", MemOpFrac: 0.35, WriteFrac: 0.20, HotKB: 128, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.02, StreamKB: 2 << 10, MLP: 4},
	{Name: "wrf", Acronym: "Wr", MemOpFrac: 0.40, WriteFrac: 0.25, HotKB: 768, ZipfS: 1.00, BurstRefs: 5, StreamFrac: 0.12, MLP: 5},
	{Name: "xalancbmk", Acronym: "Xa", MemOpFrac: 0.35, WriteFrac: 0.20, HotKB: 768, ZipfS: 1.00, BurstRefs: 2, PointerFrac: 0.015, PointerKB: 8 << 10, MLP: 1.5,
		ScanFrac: 0.45, ScanLoopKB: []int{1280, 2048, 2816, 3584}},
	{Name: "zeusmp", Acronym: "Ze", MemOpFrac: 0.40, WriteFrac: 0.30, HotKB: 1024, ZipfS: 1.00, BurstRefs: 5, StreamFrac: 0.10, MLP: 5},
	// HPC proxy applications (italicised in the paper's Table 1).
	{Name: "amg2013", Acronym: "Am", MemOpFrac: 0.45, WriteFrac: 0.30, HotKB: 1536, ZipfS: 0.95, BurstRefs: 5, StreamFrac: 0.20, MLP: 5},
	{Name: "comd", Acronym: "Co", MemOpFrac: 0.35, WriteFrac: 0.25, HotKB: 768, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.05, StreamKB: 16 << 10, MLP: 4},
	{Name: "lulesh", Acronym: "Lu", MemOpFrac: 0.40, WriteFrac: 0.30, HotKB: 768, ZipfS: 1.00, BurstRefs: 5, StreamFrac: 0.12, MLP: 5},
	{Name: "nekbone", Acronym: "Ne", MemOpFrac: 0.35, WriteFrac: 0.20, HotKB: 64, ZipfS: 1.00, BurstRefs: 4, StreamFrac: 0.02, StreamKB: 2 << 10, MLP: 4},
	{Name: "xsbench", Acronym: "Xb", MemOpFrac: 0.40, WriteFrac: 0.15, HotKB: 1024, ZipfS: 1.00, BurstRefs: 4, PointerFrac: 0.06, PointerKB: 128 << 10, MLP: 4},
}

// dualCoreMixes is the paper's Table 1 dual-core workload list.
var dualCoreMixes = [][2]string{
	{"gemsFDTD", "dealII"},   // GmDl
	{"astar", "xsbench"},     // AsXb
	{"gcc", "gamess"},        // GcGa
	{"bzip2", "xalancbmk"},   // BzXa
	{"leslie3d", "lbm"},      // LsLb
	{"gobmk", "nekbone"},     // GkNe
	{"omnetpp", "gromacs"},   // OmGr
	{"namd", "cactusADM"},    // NdCd
	{"calculix", "tonto"},    // CaTo
	{"sphinx", "bwaves"},     // SpBw
	{"libquantum", "povray"}, // LqPo
	{"sjeng", "wrf"},         // SjWr
	{"perlbench", "zeusmp"},  // PeZe
	{"hmmer", "h264ref"},     // HmH2
	{"soplex", "milc"},       // SoMi
	{"mcf", "lulesh"},        // McLu
	{"comd", "amg2013"},      // CoAm
}

// quadCoreMixes extends the paper's methodology to 4-core workloads
// (a scalability extension; the paper evaluates 1 and 2 cores). Eight
// mixes of four benchmarks, each benchmark used at most once, pairing
// the paper's dual-core mixes.
var quadCoreMixes = [][4]string{
	{"gemsFDTD", "dealII", "astar", "xsbench"},
	{"gcc", "gamess", "bzip2", "xalancbmk"},
	{"leslie3d", "lbm", "gobmk", "nekbone"},
	{"omnetpp", "gromacs", "namd", "cactusADM"},
	{"calculix", "tonto", "sphinx", "bwaves"},
	{"libquantum", "povray", "sjeng", "wrf"},
	{"perlbench", "zeusmp", "hmmer", "h264ref"},
	{"soplex", "milc", "mcf", "lulesh"},
}

// QuadCoreWorkloads returns 8 four-benchmark mixes for the 4-core
// scalability extension.
func QuadCoreWorkloads() [][4]string {
	return append([][4]string(nil), quadCoreMixes...)
}

// Profiles returns the full single-core benchmark table (34 entries,
// paper Table 1), in a fresh slice.
func Profiles() []Profile {
	return append([]Profile(nil), profiles...)
}

// ProfileByName looks a benchmark up by full name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ProfileByAcronym looks a benchmark up by its Table 1 acronym.
func ProfileByAcronym(ac string) (Profile, bool) {
	for _, p := range profiles {
		if p.Acronym == ac {
			return p, true
		}
	}
	return Profile{}, false
}

// DualCoreWorkloads returns the 17 dual-core mixes of Table 1 as
// pairs of benchmark names.
func DualCoreWorkloads() [][2]string {
	return append([][2]string(nil), dualCoreMixes...)
}

// MixAcronym returns the paper's short name for a dual-core pair
// (e.g. "GkNe" for gobmk+nekbone).
func MixAcronym(a, b string) string {
	pa, _ := ProfileByName(a)
	pb, _ := ProfileByName(b)
	return pa.Acronym + pb.Acronym
}
