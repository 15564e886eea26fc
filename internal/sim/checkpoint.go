// Checkpoint/restore: the full simulator state serialised at an
// interval boundary, so a later run of the same configuration with a
// longer measured-instruction horizon can resume from the boundary
// instead of re-simulating the shared prefix.
//
// The checkpoint bytes are horizon-independent: per-core measurement
// budgets and window-end snapshots are excluded (the restoring run
// re-arms them from its own config), so the same boundary produces
// the same bytes whether reached by a short run or a long one. A
// checkpoint is usable for horizon M iff every core's measured-so-far
// instruction count is strictly below M — once a core's window has
// closed, its end snapshot (taken mid-run) is not reconstructible.
package sim

import (
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/energy"
	"repro/internal/tech"
	"repro/internal/trace"
)

// checkpointVersion is bumped whenever the serialised layout changes;
// restore rejects other versions. Version 2 added the technology name
// to the header, write-hit counters to every activity record and the
// cache section, and wear state for endurance-tracked technologies.
const checkpointVersion = 2

// statefulComponent is the serialisation contract shared by every
// checkpointable part of the system (workload generators, refresh
// policies).
type statefulComponent interface {
	AppendState(*ckpt.Writer)
	RestoreState(*ckpt.Reader) error
}

// CheckpointInfo describes one checkpoint opportunity, passed to the
// hook installed with SetCheckpointHook.
type CheckpointInfo struct {
	// Seq is the checkpoint sequence number: the count of measured
	// interval boundaries processed so far. 0 is the
	// warmup/measurement seam.
	Seq int
	// Frontier is the simulated cycle of the boundary.
	Frontier uint64
	// MinMeasured and MaxMeasured bound the per-core measured
	// instruction counts at the boundary. The checkpoint is usable
	// for any horizon strictly greater than MaxMeasured.
	MinMeasured, MaxMeasured uint64
}

// SetCheckpointHook installs a hook that fires at the
// warmup/measurement seam (Seq 0) and after every measured interval
// boundary. The hook decides whether to serialise (by calling
// Checkpoint) — firing is cheap, serialising is not. Call before Run.
func (s *Simulator) SetCheckpointHook(fn func(CheckpointInfo)) { s.ckptHook = fn }

// checkpointInfo summarises the current boundary for the hook.
func (s *Simulator) checkpointInfo() CheckpointInfo {
	info := CheckpointInfo{Seq: s.measuredBoundaries, Frontier: s.frontier(), MinMeasured: ^uint64(0)}
	for _, c := range s.cores {
		m := c.MeasuredSoFar()
		if m < info.MinMeasured {
			info.MinMeasured = m
		}
		if m > info.MaxMeasured {
			info.MaxMeasured = m
		}
	}
	return info
}

// Checkpointable reports whether every workload source supports
// checkpointing (the built-in synthetic generators do; user-supplied
// trace.Source implementations may not).
func (s *Simulator) Checkpointable() bool {
	for _, src := range s.srcs {
		if _, ok := src.(statefulComponent); !ok {
			return false
		}
	}
	return true
}

// Checkpoint serialises the complete simulator state. It must be
// called at an interval boundary (in practice: from a checkpoint
// hook), while measuring.
func (s *Simulator) Checkpoint() ([]byte, error) {
	if !s.measuring {
		return nil, fmt.Errorf("sim: checkpoint outside the measurement phase")
	}
	w := ckpt.NewWriter()
	w.Section("SIMC")
	w.U32(checkpointVersion)
	w.Int(len(s.cores))
	w.Int(int(s.cfg.Technique))
	w.String(tech.CanonicalName(s.cfg.Technology))
	w.U64(s.cfg.Seed)
	w.Int(s.l2.NumSets())
	w.Int(s.l2.Params().Assoc)
	for i, c := range s.cores {
		src, ok := s.srcs[i].(statefulComponent)
		if !ok {
			return nil, fmt.Errorf("sim: source %q (core %d) does not support checkpointing", s.srcs[i].Name(), i)
		}
		// The source's state must be the core's position, not the end
		// of its look-ahead.
		c.Sync()
		c.AppendState(w)
		src.AppendState(w)
	}
	for _, l1 := range s.l1 {
		l1.AppendState(w)
	}
	s.l2.AppendState(w)
	s.eng.AppendState(w)
	if st, ok := s.eng.Policy().(statefulComponent); ok {
		st.AppendState(w)
	}
	s.mm.AppendState(w)
	if s.ctl != nil {
		s.ctl.AppendState(w)
	}
	s.appendSimState(w)
	return w.Bytes(), nil
}

// RestoreCheckpoint loads a checkpoint produced by Checkpoint into a
// freshly constructed simulator of the same configuration (modulo
// MeasureInstr, which may be larger), re-arming the measurement
// windows for this configuration's horizon. Follow with ResumeRun.
func (s *Simulator) RestoreCheckpoint(data []byte) error {
	r := ckpt.NewReader(data)
	r.Section("SIMC")
	if v := r.U32(); r.Err() == nil && v != checkpointVersion {
		return fmt.Errorf("sim: checkpoint version %d, want %d", v, checkpointVersion)
	}
	cores := r.Int()
	technique := r.Int()
	technology := r.String()
	seed := r.U64()
	sets := r.Int()
	assoc := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if cores != len(s.cores) || technique != int(s.cfg.Technique) ||
		technology != tech.CanonicalName(s.cfg.Technology) || seed != s.cfg.Seed ||
		sets != s.l2.NumSets() || assoc != s.l2.Params().Assoc {
		return fmt.Errorf("sim: checkpoint header (cores=%d technique=%d technology=%s seed=%d sets=%d assoc=%d) does not match this configuration",
			cores, technique, technology, seed, sets, assoc)
	}
	for i, c := range s.cores {
		// Drop the look-ahead read from the state being replaced.
		c.Sync()
		if err := c.RestoreState(r); err != nil {
			return err
		}
		src, ok := s.srcs[i].(statefulComponent)
		if !ok {
			return fmt.Errorf("sim: source %q (core %d) does not support checkpointing", s.srcs[i].Name(), i)
		}
		if err := src.RestoreState(r); err != nil {
			return err
		}
	}
	for _, l1 := range s.l1 {
		if err := l1.RestoreState(r); err != nil {
			return err
		}
	}
	// The L2 restores before the refresh policy: policies re-derive
	// their per-line bookkeeping from (and validate it against) the
	// cache's valid/dirty state.
	if err := s.l2.RestoreState(r); err != nil {
		return err
	}
	if err := s.eng.RestoreState(r); err != nil {
		return err
	}
	if st, ok := s.eng.Policy().(statefulComponent); ok {
		if err := st.RestoreState(r); err != nil {
			return err
		}
	}
	if err := s.mm.RestoreState(r); err != nil {
		return err
	}
	if s.ctl != nil {
		if err := s.ctl.RestoreState(r); err != nil {
			return err
		}
	}
	if err := s.restoreSimState(r); err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return err
	}
	// The scheduling heap is derived from the core clocks rather than
	// serialised; a sorted order is a valid heap.
	sort.Slice(s.order, func(i, j int) bool { return s.coreLess(s.order[i], s.order[j]) })
	// Re-arm the measurement windows for this run's horizon. A core
	// whose measured count already reached the horizon cannot resume —
	// its window-end snapshot was taken mid-run and is not part of the
	// checkpoint (by design, so checkpoint bytes are
	// horizon-independent).
	for _, c := range s.cores {
		if !c.ResetMeasureBudget(s.cfg.MeasureInstr) {
			return fmt.Errorf("sim: checkpoint unusable: core %d already measured %d >= horizon %d",
				c.ID(), c.MeasuredSoFar(), s.cfg.MeasureInstr)
		}
	}
	return nil
}

// appendSimState serialises the simulator-level bookkeeping (interval
// accounting, measured aggregates and the per-interval log).
func (s *Simulator) appendSimState(w *ckpt.Writer) {
	w.Section("SIMS")
	w.U64(s.clk.Cycle)
	w.U64(s.lastBoundary)
	w.U64(s.nextBoundary)
	w.Int(s.measuredBoundaries)
	w.Int(s.obsIdx)
	w.U64(s.reconfigWB)
	appendActivity(w, s.totalActivity)
	w.U64(s.l2Measured.Hits)
	w.U64(s.l2Measured.WriteHits)
	w.U64(s.l2Measured.Misses)
	w.U64(s.l2Measured.Writebacks)
	w.U64(s.l2Measured.Fills)
	w.U64(s.mmMeasured.Reads)
	w.U64(s.mmMeasured.Writebacks)
	w.U64(s.mmMeasured.QueueStallCycles)
	w.U64(s.mmMeasured.WriteBufferStallCycles)
	w.Int(len(s.intervals))
	for _, iv := range s.intervals {
		w.U64(iv.EndCycle)
		w.F64(iv.ActiveRatio)
		w.IntSlice(iv.ActiveWays)
		appendActivity(w, iv.Activity)
	}
}

// restoreSimState loads the simulator-level bookkeeping and marks the
// simulator as mid-measurement.
func (s *Simulator) restoreSimState(r *ckpt.Reader) error {
	r.Section("SIMS")
	s.clk.Cycle = r.U64()
	s.lastBoundary = r.U64()
	s.nextBoundary = r.U64()
	s.measuredBoundaries = r.Int()
	s.obsIdx = r.Int()
	s.reconfigWB = r.U64()
	s.totalActivity = readActivity(r)
	s.l2Measured.Hits = r.U64()
	s.l2Measured.WriteHits = r.U64()
	s.l2Measured.Misses = r.U64()
	s.l2Measured.Writebacks = r.U64()
	s.l2Measured.Fills = r.U64()
	s.mmMeasured.Reads = r.U64()
	s.mmMeasured.Writebacks = r.U64()
	s.mmMeasured.QueueStallCycles = r.U64()
	s.mmMeasured.WriteBufferStallCycles = r.U64()
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if s.lastBoundary >= s.nextBoundary {
		r.Failf("sim: restored boundary clock out of order (%d >= %d)", s.lastBoundary, s.nextBoundary)
		return r.Err()
	}
	if s.measuredBoundaries < 0 || s.obsIdx < 0 || n < 0 {
		r.Failf("sim: restored negative bookkeeping counters")
		return r.Err()
	}
	if n > 0 && !s.cfg.LogIntervals {
		r.Failf("sim: checkpoint logs %d intervals but LogIntervals is off", n)
		return r.Err()
	}
	s.intervals = s.intervals[:0]
	for i := 0; i < n; i++ {
		iv := IntervalRecord{
			EndCycle:    r.U64(),
			ActiveRatio: r.F64(),
			ActiveWays:  r.IntSlice(),
			Activity:    readActivity(r),
		}
		if len(iv.ActiveWays) == 0 {
			// Non-reconfiguring techniques log no per-module widths;
			// keep the restored record identical to the original nil.
			iv.ActiveWays = nil
		}
		if r.Err() != nil {
			return r.Err()
		}
		s.intervals = append(s.intervals, iv)
	}
	s.measuring = true
	return r.Err()
}

// appendActivity writes one energy.Activity record.
func appendActivity(w *ckpt.Writer, a energy.Activity) {
	w.U64(a.Cycles)
	w.U64(a.L2Hits)
	w.U64(a.L2WriteHits)
	w.U64(a.L2Misses)
	w.U64(a.Refreshes)
	w.F64(a.ActiveFraction)
	w.U64(a.MMAccesses)
	w.U64(a.LinesTransitioned)
}

// readActivity reads one energy.Activity record.
func readActivity(r *ckpt.Reader) energy.Activity {
	return energy.Activity{
		Cycles:            r.U64(),
		L2Hits:            r.U64(),
		L2WriteHits:       r.U64(),
		L2Misses:          r.U64(),
		Refreshes:         r.U64(),
		ActiveFraction:    r.F64(),
		MMAccesses:        r.U64(),
		LinesTransitioned: r.U64(),
	}
}

// Sources returns the per-core workload sources as supplied to the
// constructor; tests use it to drive source-level assertions.
func (s *Simulator) Sources() []trace.Source { return s.srcs }
