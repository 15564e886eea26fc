// Package sim assembles the full simulated system of the ESTEEM paper
// (Section 6.1) and drives it: one or more cores executing synthetic
// benchmarks through private L1 data caches, a shared eDRAM L2 with a
// banked refresh engine, and a bandwidth-limited main memory. It
// implements the paper's measurement protocol (fast-forward, fixed
// measured instruction budget per core, early finishers keep running)
// and its interval machinery (the ESTEEM controller runs every
// IntervalCycles; energy is accounted per interval with Equations
// 2–8).
//
// Simulated defaults mirror the paper: 2 GHz cores; 32 KB 4-way L1;
// 16-way L2 of 4 MB (single-core, 8 modules, 10 GB/s memory) or 8 MB
// (dual-core, 16 modules, 15 GB/s); 12-cycle L2, 220-cycle memory;
// 4 L2 banks with pipelined 1-line/cycle refresh; 50 µs retention.
// Instruction budgets and the interval length are scaled down ~10–20x
// from the paper's 400M/10M-cycle runs so the full evaluation fits in
// CI; every knob is a Config field (see EXPERIMENTS.md).
package sim

import (
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/edram"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/refrint"
	"repro/internal/retention"
	"repro/internal/smartref"
	"repro/internal/tech"
	"repro/internal/trace"
	"repro/internal/tracez"
)

// Technique selects the refresh/energy-management scheme under test.
type Technique int

const (
	// Baseline periodically refreshes every line frame (the paper's
	// reference point).
	Baseline Technique = iota
	// RPV is Refrint polyphase-valid (the paper's comparison
	// technique).
	RPV
	// RPD is Refrint polyphase-dirty (ablation; excluded from the
	// paper's headline results).
	RPD
	// PeriodicValid refreshes valid lines each window (ablation).
	PeriodicValid
	// Esteem is the paper's technique: module-wise selective-way
	// reconfiguration plus valid-only refresh.
	Esteem
	// EsteemAllLineRefresh is an ablation of ESTEEM that refreshes
	// every frame of the active portion, isolating the contribution
	// of valid-only refresh.
	EsteemAllLineRefresh
	// NoRefresh never refreshes (unrealizable lower bound, ablation).
	NoRefresh
	// SmartRefresh is Ghosh & Lee's Smart-Refresh (MICRO'07), cited
	// in the paper's related work: per-line counters skip engine
	// refreshes for recently touched lines entirely.
	SmartRefresh
	// ECCExtended models ECC-based refresh-period extension
	// (Wilkerson et al., cited in related work): the retention period
	// is multiplied by ECCRetentionFactor and every L2 access pays an
	// ECCDynOverheadFrac dynamic-energy surcharge for decode.
	ECCExtended

	maxTechnique = ECCExtended
)

// String names the technique.
func (t Technique) String() string {
	switch t {
	case Baseline:
		return "baseline"
	case RPV:
		return "rpv"
	case RPD:
		return "rpd"
	case PeriodicValid:
		return "periodic-valid"
	case Esteem:
		return "esteem"
	case EsteemAllLineRefresh:
		return "esteem-allline"
	case NoRefresh:
		return "no-refresh"
	case SmartRefresh:
		return "smart-refresh"
	case ECCExtended:
		return "ecc-extended"
	default:
		return fmt.Sprintf("technique(%d)", int(t))
	}
}

// Config describes one simulation run.
type Config struct {
	Cores     int
	Technique Technique

	// Technology selects the LLC storage technology backend from the
	// internal/tech registry ("edram", "sttram", "sttram-relaxed",
	// "reram"); empty means eDRAM, the pre-interface default.
	Technology string

	// L1 (private, per core).
	L1SizeBytes int
	L1Assoc     int

	// L2 (shared).
	L2SizeBytes     int
	L2Assoc         int
	L2LatencyCycles uint64
	LineBytes       int
	Banks           int

	// eDRAM. RetentionMicros sets the retention period directly;
	// alternatively TemperatureC > 0 derives it from the paper's
	// exponential temperature model (40 µs @ 105 °C, 50 µs @ 60 °C),
	// and RetentionSigma > 0 additionally derates it for log-normal
	// per-line process variation (the weakest of the L2's lines
	// bounds the refresh period).
	RetentionMicros float64
	TemperatureC    float64
	RetentionSigma  float64

	// Main memory.
	MemLatencyCycles        uint64
	MemBandwidthBytesPerSec float64
	// WriteBufferEntries bounds in-flight writebacks (0 = unbounded).
	WriteBufferEntries int

	// Clock.
	FreqHz float64

	// ESTEEM parameters.
	IntervalCycles uint64
	Modules        int
	SamplingRatio  int
	Esteem         core.Config

	// Refrint parameters.
	RefrintPhases int

	// Smart-Refresh parameters (technique SmartRefresh): counter
	// range in sub-periods per retention window; 0 means 4.
	SmartRefreshPeriods int

	// ECC-extension parameters (technique ECCExtended): retention
	// multiplier (0 means 4) and per-access dynamic-energy surcharge
	// (0 means 0.10).
	ECCRetentionFactor float64
	ECCDynOverheadFrac float64

	// Run lengths (per core).
	WarmupInstr  uint64
	MeasureInstr uint64

	// Seed drives workload generation.
	Seed uint64

	// LogIntervals records per-interval state (Fig. 2).
	LogIntervals bool
}

// DefaultConfig returns the paper's system configuration for the
// given core count, with run lengths scaled for tractability.
func DefaultConfig(cores int) Config {
	cfg := Config{
		Cores:              cores,
		Technique:          Esteem,
		L1SizeBytes:        32 << 10,
		L1Assoc:            4,
		L2Assoc:            16,
		L2LatencyCycles:    12,
		LineBytes:          64,
		Banks:              4,
		RetentionMicros:    50,
		MemLatencyCycles:   220,
		FreqHz:             2e9,
		WriteBufferEntries: 16,
		IntervalCycles:     2_000_000, // paper: 10M; scaled 5x
		SamplingRatio:      64,
		Esteem:             core.DefaultConfig(),
		RefrintPhases:      4,
		WarmupInstr:        10_000_000, // paper: 10B fast-forward
		MeasureInstr:       20_000_000, // paper: 400M
		Seed:               1,
	}
	switch {
	case cores <= 1:
		cfg.L2SizeBytes = 4 << 20
		cfg.MemBandwidthBytesPerSec = 10e9
		cfg.Modules = 8
	case cores == 2:
		cfg.L2SizeBytes = 8 << 20
		cfg.MemBandwidthBytesPerSec = 15e9
		cfg.Modules = 16
	default:
		// Scalability extension beyond the paper's 1-2 cores: keep
		// the paper's 4 MB-per-core LLC scaling and grow bandwidth
		// by 5 GB/s per extra core.
		cfg.L2SizeBytes = cores * (4 << 20)
		cfg.MemBandwidthBytesPerSec = float64(10+5*(cores-1)) * 1e9
		cfg.Modules = 8 * cores
	}
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores < 1 {
		return fmt.Errorf("sim: cores must be >= 1")
	}
	if c.MeasureInstr == 0 {
		return fmt.Errorf("sim: MeasureInstr must be positive")
	}
	if c.IntervalCycles == 0 {
		return fmt.Errorf("sim: IntervalCycles must be positive")
	}
	if c.RetentionMicros <= 0 && c.TemperatureC <= 0 {
		return fmt.Errorf("sim: retention must be positive (or set TemperatureC)")
	}
	if c.RetentionSigma < 0 {
		return fmt.Errorf("sim: negative retention sigma")
	}
	if c.FreqHz <= 0 {
		return fmt.Errorf("sim: frequency must be positive")
	}
	if c.Technique < Baseline || c.Technique > maxTechnique {
		return fmt.Errorf("sim: unknown technique %d", int(c.Technique))
	}
	if c.ECCRetentionFactor < 0 || c.ECCDynOverheadFrac < 0 {
		return fmt.Errorf("sim: negative ECC parameters")
	}
	tec, err := tech.New(c.Technology)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if !tec.Props().HasRefresh && !techniqueAllowedWithoutRefresh(c.Technique) {
		return fmt.Errorf("sim: technique %v needs a refresh clock, which technology %s does not have", c.Technique, tec.Name())
	}
	return nil
}

// techniqueAllowedWithoutRefresh reports whether a technique is
// meaningful on a non-volatile technology: refresh-scheduling
// techniques (Refrint, Smart-Refresh, periodic/valid-only ablations,
// ECC retention extension) manage a clock that does not exist there,
// so only the refresh-free techniques remain. ESTEEM itself stays
// available: its selective-way reconfiguration attacks leakage, which
// every technology has.
func techniqueAllowedWithoutRefresh(t Technique) bool {
	switch t {
	case Baseline, NoRefresh, Esteem, EsteemAllLineRefresh:
		return true
	default:
		return false
	}
}

// CoreResult reports one core's measured execution.
type CoreResult struct {
	Benchmark    string
	Instructions uint64
	Cycles       uint64
	IPC          float64
	// Stall breakdown over the whole run (including any post-window
	// execution).
	StallL2Hit, StallRefresh, StallMemory uint64
	L1Hits, L1Misses                      uint64
}

// IntervalRecord captures one interval for Fig. 2-style plots.
type IntervalRecord struct {
	// EndCycle is the frontier cycle at which the interval closed.
	EndCycle uint64
	// ActiveRatio is F_A during the interval.
	ActiveRatio float64
	// ActiveWays is the per-module configuration chosen *for the
	// next* interval (nil for non-ESTEEM techniques).
	ActiveWays []int
	// Activity is the measured activity of the interval.
	Activity energy.Activity
}

// Result is the outcome of one simulation run.
type Result struct {
	Config    Config
	Technique Technique
	Cores     []CoreResult

	// Activity aggregates the measured run (cycle count is wall
	// time: the frontier advance from measurement start to finish).
	Activity energy.Activity
	// Energy is the paper's Equations 2–8 evaluated over Activity.
	Energy energy.Breakdown
	// Model holds the constants used.
	Model energy.Model

	// L2 and MM are the measured traffic counters.
	L2 cache.Counters
	MM mem.Counters
	// Refreshes is N_R over the measured run.
	Refreshes uint64
	// ActiveRatio is the time-averaged F_A.
	ActiveRatio float64
	// RefreshStallCycles sums refresh-induced stalls across cores.
	RefreshStallCycles uint64
	// Intervals is the per-interval log (only with LogIntervals).
	Intervals []IntervalRecord
	// ReconfigWritebacks counts dirty lines flushed by ESTEEM
	// reconfigurations.
	ReconfigWritebacks uint64
	// Wear summarises per-line write endurance; nil unless the
	// technology tracks wear (ReRAM).
	Wear *WearStats
}

// WearStats summarises the per-frame write-wear counters of an
// endurance-tracked LLC at the end of a run.
type WearStats struct {
	// MaxWear/MinWear/MeanWear describe the per-frame write
	// distribution over every frame of the L2.
	MaxWear  uint64
	MinWear  uint64
	MeanWear float64
	// TotalWrites is the total writes charged to frames (write hits
	// plus fills, since construction).
	TotalWrites uint64
	// LevelSwaps counts intra-set wear-levelling remaps performed.
	LevelSwaps uint64
	// Histogram is a log2 bucketing of frame wear: bucket 0 counts
	// untouched frames and bucket i counts frames with wear in
	// [2^(i-1), 2^i).
	Histogram []uint64
	// EnduranceWrites is the technology's per-line write budget, for
	// judging MaxWear.
	EnduranceWrites uint64
}

// wearStatsFrom builds the endurance summary from raw frame counters.
func wearStatsFrom(wear []uint64, swaps, endurance uint64) *WearStats {
	ws := &WearStats{MinWear: ^uint64(0), LevelSwaps: swaps, EnduranceWrites: endurance}
	var maxBucket int
	for _, w := range wear {
		ws.TotalWrites += w
		if w > ws.MaxWear {
			ws.MaxWear = w
		}
		if w < ws.MinWear {
			ws.MinWear = w
		}
		if b := bits.Len64(w); b > maxBucket {
			maxBucket = b
		}
	}
	if len(wear) == 0 {
		ws.MinWear = 0
		return ws
	}
	ws.MeanWear = float64(ws.TotalWrites) / float64(len(wear))
	ws.Histogram = make([]uint64, maxBucket+1)
	for _, w := range wear {
		ws.Histogram[bits.Len64(w)]++
	}
	return ws
}

// TotalInstructions sums the measured instructions of all cores.
func (r *Result) TotalInstructions() uint64 {
	var n uint64
	for _, c := range r.Cores {
		n += c.Instructions
	}
	return n
}

// MPKI returns L2 misses per kilo-instruction over the measured run.
func (r *Result) MPKI() float64 {
	ti := r.TotalInstructions()
	if ti == 0 {
		return 0
	}
	return float64(r.L2.Misses) * 1000 / float64(ti)
}

// RPKI returns refreshes per kilo-instruction over the measured run.
func (r *Result) RPKI() float64 {
	ti := r.TotalInstructions()
	if ti == 0 {
		return 0
	}
	return float64(r.Refreshes) * 1000 / float64(ti)
}

// Simulator holds one assembled system.
type Simulator struct {
	cfg        Config
	benchNames []string
	cores      []*cpu.Core
	// srcs holds the per-core workload sources, so checkpointing can
	// reach their state.
	srcs []trace.Source
	// effMemLat[i] is core i's exposed miss latency: the fixed memory
	// latency divided by the benchmark's MLP factor (DESIGN.md —
	// out-of-order overlap abstraction).
	effMemLat []uint64
	l1        []*cache.Cache
	l2        *cache.Cache
	clk       *edram.Clock
	eng       *edram.Engine
	mm        *mem.Memory
	ctl       *core.Controller // nil unless Technique == Esteem*
	rpd       *refrint.RPD     // nil unless Technique == RPD

	// order is a binary min-heap of core indices keyed by
	// (clock, index): order[0] is always the next core to step and the
	// frontier. Only the stepped core's clock changes per step, so one
	// sift-down keeps the heap valid — replacing the O(cores) scans of
	// pickCore/frontier while preserving the lowest-index tie-break.
	order []int32

	measuring     bool
	lastBoundary  uint64
	nextBoundary  uint64
	totalActivity energy.Activity
	l2Measured    cache.Counters
	mmMeasured    mem.Counters
	intervals     []IntervalRecord
	reconfigWB    uint64

	// measuredBoundaries counts interval boundaries processed while
	// measuring; it is the checkpoint sequence number (0 = the
	// warmup/measurement seam).
	measuredBoundaries int
	// ckptHook, when non-nil, fires at the measurement seam and after
	// every measured interval boundary; the hook decides whether to
	// call Checkpoint.
	ckptHook func(CheckpointInfo)

	// model is the energy model for this configuration, built at
	// construction so per-interval telemetry can evaluate it.
	model energy.Model
	// obsv, when non-nil, receives one obs.Interval per boundary
	// (warmup included, flagged). Attaching an observer must not
	// change the simulation: observers only read counters the run
	// already maintains (asserted by TestObserverDoesNotPerturb).
	obsv   obs.Observer
	obsIdx int

	// tspan, when non-nil, is the parent span under which the run
	// records wall-clock phase spans (warmup, measurement, each
	// interval batch, refresh-window rollovers, energy finalization).
	// Same discipline as obsv and the `verify` tag: a nil span is the
	// default and costs one pointer check per boundary — nothing on
	// the per-reference hot path, and zero allocations.
	tspan     *tracez.Span
	phaseSpan *tracez.Span // current phase ("warmup" or "measure")
	ivalSpan  *tracez.Span // currently open interval batch
	retCycles uint64       // retention period (refresh-window length)
	windowIdx uint64       // last refresh window crossed (traced runs)

	// inv carries the state of the runtime self-checks compiled in
	// under the `verify` build tag; in default builds it is an empty
	// struct and every check site is dead code (invariantsEnabled is a
	// false constant).
	inv invariantState
}

// New assembles a simulator for the given benchmarks (one per core).
func New(cfg Config, benchmarks []string) (*Simulator, error) {
	if cfg.Cores >= 1 && len(benchmarks) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d benchmarks for %d cores", len(benchmarks), cfg.Cores)
	}
	sources := make([]trace.Source, len(benchmarks))
	for i, name := range benchmarks {
		prof, ok := trace.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("sim: unknown benchmark %q", name)
		}
		gen, err := trace.NewGenerator(prof, cfg.Seed+uint64(i)*0x9E3779B9)
		if err != nil {
			return nil, err
		}
		sources[i] = gen
	}
	return NewFromSources(cfg, sources)
}

// NewFromSources assembles a simulator over arbitrary workload
// sources (one per core) — synthetic generators, trace replayers, or
// user-supplied implementations of trace.Source.
func NewFromSources(cfg Config, sources []trace.Source) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(sources) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d sources for %d cores", len(sources), cfg.Cores)
	}
	// Store the canonical technology name so results, checkpoints and
	// content-addressed keys derived from the config spell the default
	// backend one way ("" and "edram" are the same simulation).
	cfg.Technology = tech.CanonicalName(cfg.Technology)
	tec, err := tech.New(cfg.Technology)
	if err != nil {
		return nil, err
	}
	props := tec.Props()

	s := &Simulator{cfg: cfg, clk: &edram.Clock{}, srcs: sources}

	// Cores over their workload sources. Each core's program runs in
	// its own address space: a per-core offset keeps multiprogrammed
	// workloads from aliasing in the shared L2 (they are separate
	// processes in the paper's methodology).
	for i, src := range sources {
		if src == nil {
			return nil, fmt.Errorf("sim: nil source for core %d", i)
		}
		s.benchNames = append(s.benchNames, src.Name())
		s.cores = append(s.cores, cpu.New(i, src, uint64(i)<<44))
		mlp := src.MLPFactor()
		if mlp < 1 {
			mlp = 1
		}
		eff := uint64(float64(cfg.MemLatencyCycles) / mlp)
		if eff == 0 {
			eff = 1
		}
		s.effMemLat = append(s.effMemLat, eff)
		l1, err := cache.New(cache.Params{
			Name: "L1D" + strconv.Itoa(i), SizeBytes: cfg.L1SizeBytes,
			Assoc: cfg.L1Assoc, LineBytes: cfg.LineBytes,
			Latency: 2, Modules: 1, Banks: 1,
		})
		if err != nil {
			return nil, err
		}
		s.l1 = append(s.l1, l1)
	}

	// Shared L2. Only ESTEEM needs leader sets; other techniques use
	// the full cache uniformly.
	sampling := 0
	if cfg.Technique == Esteem || cfg.Technique == EsteemAllLineRefresh {
		sampling = cfg.SamplingRatio
	}
	modules := cfg.Modules
	if modules == 0 {
		modules = 1
	}
	l2, err := cache.New(cache.Params{
		Name: "L2", SizeBytes: cfg.L2SizeBytes, Assoc: cfg.L2Assoc,
		LineBytes: cfg.LineBytes, Latency: int(cfg.L2LatencyCycles),
		Modules: modules, SamplingRatio: sampling, Banks: cfg.Banks,
		TrackWear: props.TrackWear, WearLevelPeriod: props.WearLevelPeriod,
	})
	if err != nil {
		return nil, err
	}
	s.l2 = l2

	// Refresh policy and engine.
	retMicros := cfg.RetentionMicros
	if cfg.TemperatureC > 0 {
		retMicros = retention.Micros(cfg.TemperatureC)
	}
	if cfg.Technique == ECCExtended {
		factor := cfg.ECCRetentionFactor
		if factor == 0 {
			factor = 4
		}
		retMicros *= factor
	}
	if cfg.RetentionSigma > 0 {
		d, err := retention.DeratedMicros(retention.NominalTempC, retention.Variation{Sigma: cfg.RetentionSigma}, l2.TotalLines())
		if err != nil {
			return nil, err
		}
		// Apply the derating ratio to whichever nominal retention is
		// in effect.
		retMicros *= d / retention.NominalRetentionMicros
	}
	if props.HasRefresh {
		// The technology's refresh/scrub period scales the eDRAM
		// retention (×1 for eDRAM itself — exact in floating point).
		retMicros *= props.RetentionScale
	}
	retentionCycles := edram.RetentionCyclesFor(retMicros, cfg.FreqHz/1e9)
	var policy edram.Policy
	switch {
	case !props.HasRefresh:
		// Non-volatile technology: no refresh clock exists, so every
		// allowed technique runs with the no-op policy. The engine
		// stays assembled (firing zero events) so interval accounting
		// and checkpoints keep one shape across technologies.
		policy = edram.None{}
	case cfg.Technique == Baseline:
		policy = edram.NewRefreshAll(l2)
	case cfg.Technique == RPV:
		rpv, err := refrint.NewRPV(l2, s.clk, cfg.RefrintPhases, retentionCycles)
		if err != nil {
			return nil, err
		}
		policy = rpv
	case cfg.Technique == RPD:
		rpd, err := refrint.NewRPD(l2, s.clk, cfg.RefrintPhases, retentionCycles)
		if err != nil {
			return nil, err
		}
		s.rpd = rpd
		policy = rpd
	case cfg.Technique == PeriodicValid:
		policy = refrint.NewPeriodicValid(l2)
	case cfg.Technique == Esteem:
		policy = edram.NewValidOnly(l2)
	case cfg.Technique == EsteemAllLineRefresh:
		policy = edram.NewRefreshAll(l2)
	case cfg.Technique == NoRefresh:
		policy = edram.None{}
	case cfg.Technique == SmartRefresh:
		periods := cfg.SmartRefreshPeriods
		if periods == 0 {
			periods = 4
		}
		sr, err := smartref.New(l2, periods)
		if err != nil {
			return nil, err
		}
		policy = sr
	case cfg.Technique == ECCExtended:
		// Wilkerson-style: periodic refresh of every frame, at the
		// ECC-extended period.
		policy = edram.NewRefreshAll(l2)
	}
	eng, err := edram.NewEngine(edram.Params{RetentionCycles: retentionCycles, Banks: cfg.Banks}, policy)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.retCycles = retentionCycles

	// Main memory.
	m, err := mem.New(mem.Params{
		LatencyCycles:        cfg.MemLatencyCycles,
		BandwidthBytesPerSec: cfg.MemBandwidthBytesPerSec,
		FreqHz:               cfg.FreqHz,
		LineBytes:            cfg.LineBytes,
		WriteBufferEntries:   cfg.WriteBufferEntries,
	})
	if err != nil {
		return nil, err
	}
	s.mm = m

	// ESTEEM controller.
	if cfg.Technique == Esteem || cfg.Technique == EsteemAllLineRefresh {
		ctl, err := core.NewController(l2, cfg.Esteem)
		if err != nil {
			return nil, err
		}
		s.ctl = ctl
	}

	// Energy model (Equations 2–8 constants). Built here rather than
	// at result time so interval telemetry can evaluate energy as the
	// run progresses.
	model, err := buildModel(cfg)
	if err != nil {
		return nil, err
	}
	s.model = model

	// All clocks start at zero and indices ascend, so the identity
	// permutation is already a valid (clock, index) min-heap.
	s.order = make([]int32, len(s.cores))
	for i := range s.order {
		s.order[i] = int32(i)
	}

	return s, nil
}

// buildModel evaluates the energy-model constants for cfg, including
// the ECC dynamic-energy surcharge when that technique is selected.
func buildModel(cfg Config) (energy.Model, error) {
	model, err := energy.NewModel(cfg.L2SizeBytes, cfg.FreqHz)
	if err != nil {
		return energy.Model{}, err
	}
	if cfg.Technique == ECCExtended {
		// ECC decode costs extra dynamic energy on every access and
		// refresh.
		frac := cfg.ECCDynOverheadFrac
		if frac == 0 {
			frac = 0.10
		}
		model.L2DynJ *= 1 + frac
	}
	tec, err := tech.New(cfg.Technology)
	if err != nil {
		return energy.Model{}, err
	}
	p := tec.Props()
	model = model.WithTechnology(p.ReadFactor, p.WriteFactor, p.RefreshFactor, p.LeakFactor)
	return model, nil
}

// SetObserver attaches a telemetry observer that receives one
// obs.Interval per interval boundary (warmup intervals are flagged
// Measuring=false). Call before Run. A nil observer disables
// telemetry; disabled telemetry has zero cost on the simulation hot
// path, and an attached observer never perturbs simulated behaviour.
func (s *Simulator) SetObserver(o obs.Observer) { s.obsv = o }

// SetTraceSpan attaches a parent tracing span: the run records child
// spans for warmup, measurement, every interval batch, refresh-window
// rollovers and energy finalization under it, attributing the run's
// wall-clock to simulated phases. Call before Run. A nil span (the
// default) disables tracing entirely; the disabled path adds no
// allocations and no per-reference work (asserted by
// TestTracingDisabledNoAllocs and the SimRunShort benchmark).
func (s *Simulator) SetTraceSpan(sp *tracez.Span) { s.tspan = sp }

// frontier returns the minimum core clock — the simulation's wall
// time. O(1): the heap root is the earliest core.
func (s *Simulator) frontier() uint64 {
	return s.cores[s.order[0]].Clock()
}

// coreLess orders core indices by (clock, index); the index tie-break
// matches the linear scan this heap replaced, so multi-core
// interleavings are unchanged.
func (s *Simulator) coreLess(a, b int32) bool {
	ca, cb := s.cores[a].Clock(), s.cores[b].Clock()
	return ca < cb || (ca == cb && a < b)
}

// fixFront restores the heap after the root core's clock advanced.
func (s *Simulator) fixFront() {
	o := s.order
	n := len(o)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && s.coreLess(o[r], o[l]) {
			m = r
		}
		if !s.coreLess(o[m], o[i]) {
			return
		}
		o[i], o[m] = o[m], o[i]
		i = m
	}
}

// step executes one memory reference on the earliest core, charging
// all hierarchy latencies.
func (s *Simulator) step() {
	s.stepCore(s.cores[s.order[0]])
	s.fixFront()
	if invariantsEnabled {
		s.checkStepInvariants()
	}
}

// stepCore executes one memory reference on core c.
func (s *Simulator) stepCore(c *cpu.Core) {
	a, write := c.NextRef()
	addr := cache.Addr(a)

	var r1 cache.AccessResult
	s.l1[c.ID()].AccessInto(addr, write, &r1)
	if r1.Hit {
		return
	}

	// L1 miss: demand-read the line from L2 (allocate on miss; a
	// store dirties L1, and L2 becomes dirty only via L1 writebacks).
	// The engine clock is published here rather than before the L1
	// access: the only consumer of clk.Cycle on the access path is the
	// Refrint touch bookkeeping, which fires on L2 events only.
	now := c.Clock()
	s.clk.Cycle = now
	bank := s.l2.BankOf(s.l2.SetIndex(addr))
	if d := s.eng.AccessDelay(bank, now); d > 0 {
		c.Stall(d, cpu.StallRefresh)
	}
	var r2 cache.AccessResult
	s.l2.AccessInto(addr, false, &r2)
	c.Stall(s.cfg.L2LatencyCycles, cpu.StallL2Hit)
	if !r2.Hit {
		lat := s.mm.Read(c.Clock())
		// The queue delay (lat minus the fixed latency) is real
		// bandwidth contention; the fixed latency is overlapped by
		// the benchmark's memory-level parallelism.
		stall := lat - s.cfg.MemLatencyCycles + s.effMemLat[c.ID()]
		c.Stall(stall, cpu.StallMemory)
		if r2.WritebackVictim {
			// A full write buffer back-pressures the core.
			if st := s.mm.Writeback(c.Clock()); st > 0 {
				c.Stall(st, cpu.StallMemory)
			}
		}
	}

	// The L1's dirty victim drains through the write-back buffers:
	// no core stall, but it updates (or bypasses) the L2 and counts
	// toward bandwidth and energy.
	if r1.WritebackVictim {
		va := r1.VictimAddr
		if s.l2.Probe(va) {
			s.l2.AccessInto(va, true, &r2)
			if !r2.Hit {
				// Probe/Access race cannot happen single-threaded;
				// defensive only.
				s.mm.Writeback(c.Clock())
			}
		} else {
			// Non-inclusive hierarchy: L1 victim absent from L2 goes
			// straight to memory.
			s.mm.Writeback(c.Clock())
		}
	}
}

// processBoundary closes the interval ending at the current frontier:
// snapshots activity, runs the ESTEEM controller, resets interval
// counters.
func (s *Simulator) processBoundary(frontier uint64) {
	s.eng.AdvanceTo(frontier)
	ic := s.l2.IntervalCounters()
	im := s.mm.IntervalCounters()
	// Telemetry-only snapshots, taken before the resets below wipe
	// them. Guarded so the disabled path does no extra work.
	var wbPeak int
	var engBusy uint64
	if s.obsv != nil {
		wbPeak = s.mm.IntervalWriteBufPeak()
		engBusy = s.eng.IntervalBusyCycles()
	}
	act := energy.Activity{
		Cycles:         frontier - s.lastBoundary,
		L2Hits:         ic.Hits,
		L2WriteHits:    ic.WriteHits,
		L2Misses:       ic.Misses,
		Refreshes:      s.eng.IntervalRefreshed(),
		ActiveFraction: s.l2.ActiveFraction(),
		MMAccesses:     im.Accesses(),
	}

	var waysSnapshot []int
	var reconfigWB int
	if s.ctl != nil {
		dec := s.ctl.EndInterval() // also resets L2 interval counters
		act.LinesTransitioned = uint64(dec.LinesTransitioned)
		// Dirty lines flushed by the shrink drain to memory now; they
		// are charged to the next interval's memory counters.
		for i := 0; i < dec.Writebacks; i++ {
			s.mm.Writeback(frontier)
		}
		reconfigWB = dec.Writebacks
		s.reconfigWB += uint64(dec.Writebacks)
		if s.cfg.LogIntervals || s.obsv != nil {
			waysSnapshot = append([]int(nil), dec.ActiveWays...)
		}
	} else {
		s.l2.ResetInterval()
	}
	s.eng.ResetInterval()
	s.mm.ResetInterval()

	if s.obsv != nil {
		var pstats obs.PolicyStats
		if pt, ok := s.eng.Policy().(edram.PolicyTelemetry); ok {
			pstats = pt.IntervalPolicyStats()
			pt.ResetPolicyStats()
		}
		s.obsv.ObserveInterval(obs.Interval{
			Index:                 s.obsIdx,
			Measuring:             s.measuring,
			EndCycle:              frontier,
			Cycles:                act.Cycles,
			ActiveRatio:           act.ActiveFraction,
			ActiveWays:            waysSnapshot,
			L2Hits:                ic.Hits,
			L2WriteHits:           ic.WriteHits,
			L2Misses:              ic.Misses,
			L2Writebacks:          ic.Writebacks,
			L2Fills:               ic.Fills,
			Refreshes:             act.Refreshes,
			BankBusyCycles:        engBusy,
			Policy:                pstats,
			MMReads:               im.Reads,
			MMWritebacks:          im.Writebacks,
			MMQueueStallCycles:    im.QueueStallCycles,
			MMWriteBufStallCycles: im.WriteBufferStallCycles,
			MMWriteBufPeak:        wbPeak,
			MMChannelBusyCycles:   float64(im.Accesses()) * s.mm.TransferCycles(),
			LinesTransitioned:     act.LinesTransitioned,
			ReconfigWritebacks:    uint64(reconfigWB),
			Energy:                EnergyRecord(s.model.Eval(act)),
		})
		s.obsIdx++
	}

	if s.measuring {
		s.totalActivity.Add(act)
		s.l2Measured.Hits += ic.Hits
		s.l2Measured.WriteHits += ic.WriteHits
		s.l2Measured.Misses += ic.Misses
		s.l2Measured.Writebacks += ic.Writebacks
		s.l2Measured.Fills += ic.Fills
		s.mmMeasured.Reads += im.Reads
		s.mmMeasured.Writebacks += im.Writebacks
		s.mmMeasured.QueueStallCycles += im.QueueStallCycles
		if s.cfg.LogIntervals {
			s.intervals = append(s.intervals, IntervalRecord{
				EndCycle:    frontier,
				ActiveRatio: act.ActiveFraction,
				ActiveWays:  waysSnapshot,
				Activity:    act,
			})
		}
	}
	if s.tspan != nil {
		s.traceBoundary(frontier, act)
	}
	s.lastBoundary = frontier
}

// traceBoundary closes the wall-clock span of the interval batch that
// just ended (annotated with its simulated counters), emits a
// refresh-window marker when the retention window rolled over, and
// opens the next interval span. Only called on traced runs.
func (s *Simulator) traceBoundary(frontier uint64, act energy.Activity) {
	if iv := s.ivalSpan; iv != nil {
		iv.SetAttrInt("end_cycle", int64(frontier))
		iv.SetAttrInt("sim_cycles", int64(act.Cycles))
		iv.SetAttrInt("refreshes", int64(act.Refreshes))
		iv.SetAttrFloat("active_ratio", act.ActiveFraction)
		if !s.measuring {
			iv.SetAttr("warmup", "true")
		}
		iv.End()
	}
	if s.retCycles > 0 {
		if w := frontier / s.retCycles; w > s.windowIdx {
			rw := s.phaseSpan.Child("refresh-window")
			rw.SetAttrInt("window", int64(w))
			rw.SetAttrInt("windows_completed", int64(w-s.windowIdx))
			rw.SetAttrInt("end_cycle", int64(frontier))
			rw.End()
			s.windowIdx = w
		}
	}
	s.ivalSpan = s.phaseSpan.Child("interval")
}

// boundary closes the interval ending at frontier f and schedules the
// next one. While measuring, it advances the checkpoint sequence and
// fires the checkpoint hook.
func (s *Simulator) boundary(f uint64) {
	if invariantsEnabled {
		s.checkBoundaryInvariants(f)
	}
	s.processBoundary(f)
	for s.nextBoundary <= f {
		s.nextBoundary += s.cfg.IntervalCycles
	}
	if s.measuring {
		s.measuredBoundaries++
		if s.ckptHook != nil {
			s.ckptHook(s.checkpointInfo())
		}
	}
}

// runWarmup runs every core to its warmup budget. Interval machinery
// runs (so ESTEEM enters the run adapted) but nothing is recorded.
func (s *Simulator) runWarmup() {
	s.nextBoundary = s.cfg.IntervalCycles
	if s.tspan != nil {
		s.phaseSpan = s.tspan.Child("warmup")
		s.ivalSpan = s.phaseSpan.Child("interval")
	}
	if len(s.cores) == 1 && !invariantsEnabled {
		// Single-core fast path: the frontier is the core's clock and
		// the scheduling heap is a fixed point, so the per-step heap
		// maintenance and completion bookkeeping drop out entirely.
		c := s.cores[0]
		for c.Instructions() < s.cfg.WarmupInstr {
			s.stepCore(c)
			if c.Clock() >= s.nextBoundary {
				s.boundary(c.Clock())
			}
		}
		return
	}
	// Track per-core completion incrementally: only the stepped core's
	// instruction count changes, so the all-cores rescan per step is
	// replaced by one check of the core that just ran.
	warm := make([]bool, len(s.cores))
	pending := 0
	for i, c := range s.cores {
		if c.Instructions() >= s.cfg.WarmupInstr {
			warm[i] = true
		} else {
			pending++
		}
	}
	for pending > 0 {
		c := s.cores[s.order[0]]
		s.stepCore(c)
		s.fixFront()
		if invariantsEnabled {
			s.checkStepInvariants()
		}
		if !warm[c.ID()] && c.Instructions() >= s.cfg.WarmupInstr {
			warm[c.ID()] = true
			pending--
		}
		if f := s.frontier(); f >= s.nextBoundary {
			s.boundary(f)
		}
	}
}

// beginMeasurement crosses the warmup/measurement seam: clears
// interval state and opens every core's measurement window.
func (s *Simulator) beginMeasurement() {
	if s.tspan != nil {
		// The open interval span covers the partial batch cut short by
		// the warmup/measurement seam.
		s.ivalSpan.End()
		s.phaseSpan.End()
		s.phaseSpan = s.tspan.Child("measure")
		s.ivalSpan = s.phaseSpan.Child("interval")
	}
	f := s.frontier()
	s.eng.AdvanceTo(f)
	s.l2.ResetInterval()
	s.eng.ResetInterval()
	s.mm.ResetInterval()
	if s.obsv != nil {
		// Keep the policy's telemetry counters aligned with the other
		// interval counters across the warmup/measurement seam.
		if pt, ok := s.eng.Policy().(edram.PolicyTelemetry); ok {
			pt.ResetPolicyStats()
		}
	}
	s.lastBoundary = f
	s.nextBoundary = f + s.cfg.IntervalCycles
	s.measuring = true
	for _, c := range s.cores {
		c.BeginMeasurement(s.cfg.MeasureInstr)
	}
}

// runMeasured steps the system until every core has retired its
// measured budget, then flushes the final partial interval.
func (s *Simulator) runMeasured() {
	if len(s.cores) == 1 && !invariantsEnabled {
		c := s.cores[0]
		for !c.MeasurementDone() {
			s.stepCore(c)
			if c.Clock() >= s.nextBoundary {
				s.boundary(c.Clock())
			}
		}
	} else {
		finished := make([]bool, len(s.cores))
		pending := 0
		for i, c := range s.cores {
			if c.MeasurementDone() {
				finished[i] = true
			} else {
				pending++
			}
		}
		for pending > 0 {
			c := s.cores[s.order[0]]
			s.stepCore(c)
			s.fixFront()
			if invariantsEnabled {
				s.checkStepInvariants()
			}
			if !finished[c.ID()] && c.MeasurementDone() {
				finished[c.ID()] = true
				pending--
			}
			if fr := s.frontier(); fr >= s.nextBoundary {
				s.boundary(fr)
			}
		}
	}
	// Flush the final partial interval. No checkpoint fires here: this
	// flush happens at the run's own horizon, not at an interval
	// boundary a longer-horizon run would also process.
	if fr := s.frontier(); fr > s.lastBoundary {
		if invariantsEnabled {
			s.checkBoundaryInvariants(fr)
		}
		s.processBoundary(fr)
	}
	if s.tspan != nil {
		// The interval span reopened after the final boundary never
		// closes a batch; abandon it (unended spans are not recorded).
		s.ivalSpan = nil
		s.phaseSpan.End()
	}
}

// pipeline allows (on) or stops the cores' reference producers. Run
// and ResumeRun allow them for their own duration only, so no
// producer goroutine outlives a call into the simulator.
func (s *Simulator) pipeline(on bool) {
	for _, c := range s.cores {
		c.Pipeline(on)
	}
}

// Run executes warmup plus measurement and returns the result.
func (s *Simulator) Run() (*Result, error) {
	s.pipeline(true)
	defer s.pipeline(false)
	s.runWarmup()
	s.beginMeasurement()
	if s.ckptHook != nil {
		// Sequence 0: the warmup/measurement seam. A seam checkpoint is
		// usable by any longer-horizon run of the same configuration.
		s.ckptHook(s.checkpointInfo())
	}
	s.runMeasured()
	if s.tspan != nil {
		fin := s.tspan.Child("energy-finalize")
		defer fin.End()
	}
	return s.buildResult()
}

// ResumeRun continues a simulation whose state was loaded with
// RestoreCheckpoint: it re-enters the measurement loop at the
// restored interval boundary and runs to this configuration's
// measured-instruction horizon. The result is byte-identical to a
// cold Run of the same configuration (asserted by the resume tests
// and the checkpoint fuzz target).
func (s *Simulator) ResumeRun() (*Result, error) {
	if !s.measuring {
		return nil, fmt.Errorf("sim: ResumeRun without a restored checkpoint")
	}
	if s.tspan != nil {
		s.phaseSpan = s.tspan.Child("measure-resumed")
		s.ivalSpan = s.phaseSpan.Child("interval")
	}
	s.pipeline(true)
	defer s.pipeline(false)
	s.runMeasured()
	if s.tspan != nil {
		fin := s.tspan.Child("energy-finalize")
		defer fin.End()
	}
	return s.buildResult()
}

// buildResult evaluates the energy model and packages the outcome.
func (s *Simulator) buildResult() (*Result, error) {
	model := s.model
	res := &Result{
		Config:             s.cfg,
		Technique:          s.cfg.Technique,
		Activity:           s.totalActivity,
		Model:              model,
		L2:                 s.l2Measured,
		MM:                 s.mmMeasured,
		Refreshes:          s.totalActivity.Refreshes,
		ActiveRatio:        s.totalActivity.ActiveFraction,
		Intervals:          s.intervals,
		ReconfigWritebacks: s.reconfigWB,
	}
	if wear := s.l2.WearCounters(); wear != nil {
		tec, err := tech.New(s.cfg.Technology)
		if err != nil {
			return nil, err
		}
		res.Wear = wearStatsFrom(wear, s.l2.WearLevelSwaps(), tec.Props().EnduranceWrites)
	}
	res.Energy = model.Eval(s.totalActivity)
	for i, c := range s.cores {
		res.Cores = append(res.Cores, CoreResult{
			Benchmark:    s.benchNames[i],
			Instructions: c.MeasuredInstructions(),
			Cycles:       c.MeasuredCycles(),
			IPC:          c.IPC(),
			StallL2Hit:   c.StallCycles(cpu.StallL2Hit),
			StallRefresh: c.StallCycles(cpu.StallRefresh),
			StallMemory:  c.StallCycles(cpu.StallMemory),
			L1Hits:       s.l1[i].TotalCounters().Hits,
			L1Misses:     s.l1[i].TotalCounters().Misses,
		})
		res.RefreshStallCycles += c.StallCycles(cpu.StallRefresh)
	}
	return res, nil
}

// Run is the package-level convenience: build and run in one call.
func Run(cfg Config, benchmarks []string) (*Result, error) {
	s, err := New(cfg, benchmarks)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// RunSources builds and runs over arbitrary workload sources.
func RunSources(cfg Config, sources []trace.Source) (*Result, error) {
	s, err := NewFromSources(cfg, sources)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// RunObserved is Run with a telemetry observer attached: o receives
// one obs.Interval per interval boundary while the run executes.
func RunObserved(cfg Config, benchmarks []string, o obs.Observer) (*Result, error) {
	s, err := New(cfg, benchmarks)
	if err != nil {
		return nil, err
	}
	s.SetObserver(o)
	return s.Run()
}

// RunSourcesObserved is RunSources with a telemetry observer.
func RunSourcesObserved(cfg Config, sources []trace.Source, o obs.Observer) (*Result, error) {
	s, err := NewFromSources(cfg, sources)
	if err != nil {
		return nil, err
	}
	s.SetObserver(o)
	return s.Run()
}

// EnergyRecord flattens an evaluated energy breakdown into the
// telemetry export form.
func EnergyRecord(b energy.Breakdown) obs.Energy {
	return obs.Energy{
		L2LeakJ:    b.L2Leak,
		L2DynJ:     b.L2Dyn,
		L2RefreshJ: b.L2Refresh,
		MMLeakJ:    b.MMLeak,
		MMDynJ:     b.MMDyn,
		AlgoJ:      b.Algo,
		TotalJ:     b.Total(),
	}
}
