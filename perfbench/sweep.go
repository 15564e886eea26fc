package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/castore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracez"
)

// The sweep-fig3 workload is `esteem-bench -exp fig3 -quick -cache
// <fresh dir>` driven through runner.Sweep with one sim worker: 12
// single-core workloads x {baseline, RPV, ESTEEM} = 36 simulations of
// 5M measured instructions each. One worker because two spread from
// 2.3 to 2.8 s per pass on a 2-CPU host, while one stays within a few
// percent.
const (
	fig3Instr     = 20_000_000 / 4 // esteem-bench default budget, -quick
	fig3Warmup    = 10_000_000 / 4
	fig3Interval  = 2_000_000
	fig3Retention = 50
)

// fig3Sims is the number of simulations in one pass.
const fig3Sims = 36

// The set-up warm-up runs the same sweep at serve.FastJobSpec budgets.
const (
	warmupMeasure = 20_000
	warmupWarmup  = 5_000
)

// fig3 is one scheduled fig3 sweep.
type fig3 struct {
	rows []fig3Row
	// runs lists the 36 simulations in schedule order with their
	// content addresses and checkpoint base keys.
	runs []fig3Run
}

type fig3Row struct {
	tech sim.Technique
	cmp  *runner.CompareJob
}

type fig3Run struct {
	cfg sim.Config // as submitted (before per-job seed derivation)
	wl  []string
	key string
}

// scheduleFig3 schedules the fig3 quick sweep on s exactly as
// esteem-bench does, with measure and warmup instructions per core.
func scheduleFig3(s *runner.Sweep, seed, measure, warmup uint64) (*fig3, error) {
	cfg := sim.DefaultConfig(1)
	cfg.Technology = "edram"
	cfg.RetentionMicros = fig3Retention
	cfg.MeasureInstr = measure
	cfg.WarmupInstr = warmup
	cfg.IntervalCycles = fig3Interval
	cfg.Seed = seed
	f := &fig3{}
	addRun := func(c sim.Config, wl []string) error {
		key, err := runner.CacheKey(c, wl)
		if err != nil {
			return err
		}
		f.runs = append(f.runs, fig3Run{cfg: c, wl: wl, key: key})
		return nil
	}
	profiles := trace.Profiles()
	for i := 0; i < len(profiles); i += 3 { // esteem-bench -quick: every third workload
		wl := []string{profiles[i].Name}
		bcfg := cfg
		bcfg.Technique = sim.Baseline
		base := s.Baseline(bcfg, wl)
		bcfg.LogIntervals = false // what Sweep.Baseline runs
		if err := addRun(bcfg, wl); err != nil {
			return nil, err
		}
		for _, tech := range []sim.Technique{sim.RPV, sim.Esteem} {
			tcfg := cfg
			tcfg.Technique = tech
			f.rows = append(f.rows, fig3Row{tech, s.Compare(wl[0], base, tcfg, wl)})
			if err := addRun(tcfg, wl); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// payload renders the sweep's results as esteem-bench writes
// fig3.json.
func (f *fig3) payload() ([]byte, error) {
	type payload struct {
		Cores           int                        `json:"cores"`
		RetentionMicros float64                    `json:"retention_us"`
		Comparisons     []metrics.Comparison       `json:"comparisons"`
		Summaries       map[string]metrics.Summary `json:"summaries"`
	}
	groups := map[string][]metrics.Comparison{}
	p := payload{Cores: 1, RetentionMicros: fig3Retention, Summaries: map[string]metrics.Summary{}}
	for _, rw := range f.rows {
		c := rw.cmp.Comparison()
		groups[rw.tech.String()] = append(groups[rw.tech.String()], c)
		p.Comparisons = append(p.Comparisons, c)
	}
	for tech, cs := range groups {
		p.Summaries[tech] = metrics.Summarize(cs)
	}
	return obs.MarshalCanonical(p)
}

// digest hashes the pass's 36 artifacts in schedule order. The
// manifests' toolchain fields are cleared first, so the digest names
// the simulation results, not the Go release that built the binary.
func (f *fig3) digest(store castore.Backend) (string, error) {
	h := sha256.New()
	for _, r := range f.runs {
		data, ok, err := store.Get(r.key)
		if err != nil || !ok {
			return "", fmt.Errorf("artifact %s missing after the pass (err %v)", r.key[:12], err)
		}
		art, err := obs.ParseRun(data)
		if err != nil {
			return "", err
		}
		art.Manifest.GoVersion, art.Manifest.GOOS, art.Manifest.GOARCH = "", "", ""
		b, err := obs.MarshalCanonical(art)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", r.key, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sweepSeed maps the benchmark seed onto the sweep seeds whose
// artifact digests are recorded in fig3Digests: seed 1 is the golden
// sweep, and every seed maps to a recorded one.
func sweepSeed(seed int64) uint64 {
	n := int64(len(fig3Digests))
	return uint64(((seed-1)%n+n)%n) + 1
}

// taskTimer records runner task lifecycle times from WithTaskHook.
type taskTimer struct {
	mu      sync.Mutex
	start   time.Time
	started map[int]time.Time
	waits   []float64       // ms from Run start to task start
	lat     map[int]float64 // task id -> ms from start to done
}

func newTaskTimer() *taskTimer {
	return &taskTimer{started: map[int]time.Time{}, lat: map[int]float64{}}
}

func (t *taskTimer) hook(ev runner.TaskEvent) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Type {
	case runner.TaskStarted:
		t.started[ev.TaskID] = now
		t.waits = append(t.waits, ms(now.Sub(t.start)))
	case runner.TaskDone:
		t.lat[ev.TaskID] = ms(now.Sub(t.started[ev.TaskID]))
	}
}

// setupSweep reads the golden fig3.json and runs the fig3 sweep at
// FastJobSpec budgets through a fresh on-disk store, so the first timed
// pass does not pay first-use costs.
func setupSweep(o options, rep int) ([]byte, error) {
	golden, err := os.ReadFile(filepath.Join(o.root, "results", "golden", "fig3.json"))
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, fmt.Sprintf("setup%d", rep))
	store, err := castore.Open(dir, 1024)
	if err != nil {
		return nil, err
	}
	sw := runner.NewSweep(1)
	sw.SetCache(store)
	if _, err := scheduleFig3(sw, sweepSeed(o.seed), warmupMeasure, warmupWarmup); err != nil {
		return nil, err
	}
	if err := sw.Run(context.Background()); err != nil {
		return nil, err
	}
	return golden, os.RemoveAll(dir)
}

// passResult is one cold pass plus its warm re-run.
type passResult struct {
	wall, cpu   time.Duration
	cold, hot   map[int]float64 // task id -> simulation ms
	queueWaits  []float64
	instr       uint64
	counts      map[string]uint64
	probe       *storeProbe
	f           *fig3
	trace       []tracez.SpanData
	storeHits   uint64
	storeLookup uint64
}

// sweepPass runs one cold pass into a fresh store, then re-runs the
// same sweep against that store (every simulation a store hit, as for
// an esteem-bench -cache re-run), and checks the outputs.
func sweepPass(o options, golden []byte, i int, tracer *tracez.Tracer) (*passResult, error) {
	seed := sweepSeed(o.seed)
	dir := filepath.Join(o.work, fmt.Sprintf("pass%03d", i))
	defer os.RemoveAll(dir)
	store, err := castore.Open(filepath.Join(dir, "cache"), 1024)
	if err != nil {
		return nil, err
	}
	sink, err := obs.NewDirSink(filepath.Join(dir, "runs"))
	if err != nil {
		return nil, err
	}
	probe := newStoreProbe(store, o.delays.store)
	if o.traced {
		probe.reset(maxReencode)
	}
	timer := newTaskTimer()
	sw := runner.NewSweep(1, runner.WithTaskHook(timer.hook))
	sw.SetCache(probe)
	sw.SetSink(sink)
	f, err := scheduleFig3(sw, seed, fig3Instr, fig3Warmup)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var root *tracez.Span
	if tracer != nil {
		root = tracer.Root("sweep-pass")
		ctx = tracez.ContextWith(ctx, root)
	}
	cpu0 := cpuTime()
	timer.start = time.Now()
	if err := sw.Run(ctx); err != nil {
		return nil, err
	}
	wall := time.Since(timer.start)
	cpu := cpuTime() - cpu0
	root.End()
	sims, instr := sw.Stats()
	pc := probe.snapshot()

	warmTimer := newTaskTimer()
	warm := runner.NewSweep(1, runner.WithTaskHook(warmTimer.hook))
	warm.SetCache(probe)
	if _, err := scheduleFig3(warm, seed, fig3Instr, fig3Warmup); err != nil {
		return nil, err
	}
	before := store.Stats()
	warmTimer.start = time.Now()
	if err := warm.Run(context.Background()); err != nil {
		return nil, err
	}
	after := store.Stats()
	warmSims, _ := warm.Stats()

	if err := checkFig3(golden, f, store, seed); err != nil {
		return nil, err
	}
	res := &passResult{
		wall: wall, cpu: cpu, cold: timer.lat, hot: warmTimer.lat, queueWaits: timer.waits,
		instr: instr, probe: probe, f: f,
		storeHits:   after.Hits,
		storeLookup: after.Hits + after.Misses,
		counts: map[string]uint64{
			"sims":            sims,
			"instructions":    instr,
			"store_computes":  pc.computes,
			"store_put_bytes": pc.putBytes,
			"store_hits_cold": before.Hits + before.Coalesced,
			"store_hits_warm": after.Hits - before.Hits + after.Coalesced - before.Coalesced,
			"ckpt_saves":      pc.ckptSaves,
			"ckpt_bytes":      pc.ckptBytes,
			"sims_warm":       warmSims,
		},
	}
	if tracer != nil {
		res.trace = tracer.Take(root.TraceID())
	}
	return res, nil
}

// checkFig3 verifies a pass's outputs: the 36 artifacts' digest
// against the recorded table and, at sweep seed 1, the comparisons
// against the golden fig3.json.
func checkFig3(golden []byte, f *fig3, store castore.Backend, seed uint64) error {
	if len(f.runs) != fig3Sims {
		return fmt.Errorf("fig3 scheduled %d simulations, want %d", len(f.runs), fig3Sims)
	}
	got, err := f.digest(store)
	if err != nil {
		return err
	}
	if want := fig3Digests[seed-1]; got != want {
		return fmt.Errorf("sweep seed %d: artifact digest %s, recorded %s", seed, got, want)
	}
	if seed == 1 {
		p, err := f.payload()
		if err != nil {
			return err
		}
		if !bytes.Equal(p, golden) {
			return fmt.Errorf("fig3 comparisons differ from results/golden/fig3.json")
		}
	}
	return nil
}

// runSweep is the sweep-fig3 workload.
func runSweep(o options) (*report, error) {
	r := newReport()
	golden, err := timedSetups(r, func(rep int) ([]byte, error) { return setupSweep(o, rep) }, func([]byte) {})
	if err != nil {
		return r, err
	}
	var tracer *tracez.Tracer
	if o.traced {
		// A pass emits a few thousand spans; it is drained after each.
		tracer = tracez.New(tracez.Config{Seed: 1, RingSize: 1 << 17})
	}
	w := startWindow()
	var passes []*passResult
	for i := 0; i == 0 || time.Since(w.start) < o.window; i++ {
		p, err := sweepPass(o, golden, i, tracer)
		r.attempted += fig3Sims
		if err != nil {
			r.failed += fig3Sims
			return r, fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, p)
	}
	w.finish(r, fig3Sims*len(passes))

	// Each simulation's time is the median over the passes, so a burst
	// of host contention during one pass moves few of the 36 terms;
	// their sum is the typical pass.
	var walls, cpus, cold, hot []float64
	var units []map[string]uint64
	perSim := map[int][]float64{}
	for _, p := range passes {
		walls = append(walls, ms(p.wall))
		cpus = append(cpus, ms(p.cpu)/fig3Sims)
		for id, v := range p.cold {
			perSim[id] = append(perSim[id], v)
			cold = append(cold, v)
		}
		for _, v := range p.hot {
			hot = append(hot, v)
		}
		units = append(units, p.counts)
	}
	if r.counts, err = countsEqual(units); err != nil {
		return r, err
	}
	var typical float64 // ms
	for _, v := range perSim {
		typical += median(v)
	}
	r.e2e.add("sim_minstr_per_s", "Minstr/s", float64(passes[0].instr)/1e3/typical, len(cold))
	r.e2e.add("hot_p50_ms", "ms", median(hot), len(hot))
	r.e2e.add("cold_p50_ms", "ms", median(cold), len(cold))
	r.e2e.add("job_p99_ms", "ms", pct(cold, tailPct(len(cold))), len(cold))
	r.e2e.add("units_per_s", "units/s", 1000*fig3Sims/typical, len(cold))
	r.e2e.add("job_p50_ms", "ms", median(walls), len(walls))
	r.e2e.add("cpu_ms_per_op", "ms", median(cpus), len(cpus))
	if !o.traced {
		return r, nil
	}

	// Per-layer numbers come from the last pass's spans and probes.
	last := passes[len(passes)-1]
	spans := newSpanRollup()
	spans.add(last.trace)
	in := last.probe.layerInputs()
	in.spans = spans
	in.runnerQueueWait = last.queueWaits
	in.storeHits, in.storeLookups = last.storeHits, last.storeLookup
	in.dropped = tracer.Stats().Dropped
	var sims []unitRun
	for _, run := range last.f.runs {
		sims = append(sims, derived(run.cfg, run.wl))
	}
	runs, err := ckptRuns(sims)
	if err != nil {
		return r, err
	}
	if in.ckptEncode, err = reencodeCheckpoints(last.probe.ckpts, runs); err != nil {
		return r, err
	}
	return r, emitLayers(r, in)
}
