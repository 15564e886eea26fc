package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/castore"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// layerInputs is what a traced workload run measured, layer by layer.
// emitLayers turns it into the same per-layer metric set for every
// workload; a layer a workload never reaches reports zero.
type layerInputs struct {
	spans *spanRollup
	// sims counts simulations computed; sums are their artifacts'
	// summaries and gens their reference streams.
	sims int
	sums []obs.RunSummary
	gens []genStream

	// runnerQueueWait is ms from sweep start to task start; nil takes
	// it from the spans.
	runnerQueueWait []float64

	store         probeCounts
	storeHits     uint64 // lookups answered by the store
	storeLookups  uint64 // all lookups
	storeCoalesce uint64
	ckptEncode    []float64 // ms per re-encoded checkpoint

	submit, wait, fetch []float64 // client-side ms per request
	serveQueueWait      float64   // server histogram mean, ms
	rejected            int
	lag                 []float64 // open-loop generator lateness, ms

	leaseGranted, complete, shardPut []float64 // server-side ms per RPC
	leaseParked                      float64   // total ms in lease long-polls
	units                            int
	leasesIssued, leasesReissued     uint64
	workerSkew                       float64
	remotePuts, repairs              uint64

	dropped uint64 // spans the tracer evicted
}

// genStream identifies one simulated core's reference stream.
type genStream struct {
	bench string
	seed  uint64
	refs  uint64
}

// streamsOf lists the reference streams of one computed artifact.
func streamsOf(seed uint64, s obs.RunSummary) []genStream {
	var out []genStream
	for i, c := range s.Cores {
		out = append(out, genStream{bench: c.Benchmark, seed: seed + uint64(i), refs: c.L1Hits + c.L1Misses})
	}
	return out
}

// maxRedraw bounds how many references the trace-layer timing redraws.
const maxRedraw = 20_000_000

// maxReencode bounds how many saved checkpoints are re-encoded.
const maxReencode = 200

// redrawRefs times trace.Generator.Next over the runs' reference
// counts (up to maxRedraw in total) and returns ns per reference.
func redrawRefs(gens []genStream) (float64, error) {
	var drawn uint64
	var elapsed time.Duration
	for _, g := range gens {
		if drawn >= maxRedraw {
			break
		}
		p, ok := trace.ProfileByName(g.bench)
		if !ok {
			return 0, fmt.Errorf("unknown benchmark %q", g.bench)
		}
		gen, err := trace.NewGenerator(p, g.seed)
		if err != nil {
			return 0, err
		}
		n := g.refs
		if drawn+n > maxRedraw {
			n = maxRedraw - drawn
		}
		var sink uint64
		t0 := time.Now()
		for i := uint64(0); i < n; i++ {
			sink += gen.Next().Addr
		}
		elapsed += time.Since(t0)
		drawn += n
		redrawSink += sink
	}
	if drawn == 0 {
		return 0, nil
	}
	return float64(elapsed.Nanoseconds()) / float64(drawn), nil
}

// redrawSink keeps the redraw loop from being optimised away.
var redrawSink uint64

// unitRun is one simulation: its effective (seed-derived) config and
// workload.
type unitRun struct {
	cfg sim.Config
	wl  []string
}

// ckptRuns maps each unit's checkpoint base key to the unit.
func ckptRuns(units []unitRun) (map[string]unitRun, error) {
	out := map[string]unitRun{}
	for _, u := range units {
		base, err := castore.CheckpointBaseKey(u.cfg, u.wl)
		if err != nil {
			return nil, err
		}
		out[base] = u
	}
	return out, nil
}

// derived returns the unit the runner simulates for a submitted
// (cfg, wl): the seed mixed with the workload.
func derived(cfg sim.Config, wl []string) unitRun {
	cfg.Seed = runner.DeriveSeed(cfg.Seed, wl...)
	return unitRun{cfg, wl}
}

// reencodeCheckpoints restores each saved simulator state and times
// sim.Simulator.Checkpoint, the encode the runner's checkpoint hook
// performs. states is keyed "<base key>/<seq>"; runs maps base keys to
// their units.
func reencodeCheckpoints(states map[string][]byte, runs map[string]unitRun) ([]float64, error) {
	var out []float64
	for _, key := range sortedKeys(states) {
		base, _, _ := strings.Cut(key, "/")
		u, ok := runs[base]
		if !ok {
			return nil, fmt.Errorf("checkpoint %s: unknown run", key)
		}
		cfg, wl := u.cfg, u.wl
		state, err := envelopeState(states[key])
		if err != nil {
			return nil, err
		}
		sm, err := sim.New(cfg, wl)
		if err != nil {
			return nil, err
		}
		if err := sm.RestoreCheckpoint(state); err != nil {
			return nil, fmt.Errorf("checkpoint %s: %w", key, err)
		}
		t0 := time.Now()
		again, err := sm.Checkpoint()
		out = append(out, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		if string(again) != string(state) {
			return nil, fmt.Errorf("checkpoint %s: re-encode differs from the saved state", key)
		}
	}
	return out, nil
}

// emitLayers adds every per-layer metric to r.
func emitLayers(r *report, in layerInputs) error {
	sp := in.spans
	if sp == nil {
		sp = newSpanRollup()
	}
	perSim := func(v float64) float64 {
		if in.sims == 0 {
			return 0
		}
		return v / float64(in.sims)
	}
	var refs, instr, l2, l2miss, refreshes uint64
	for _, s := range in.sums {
		instr += s.Instructions
		l2 += s.L2Hits + s.L2Misses
		l2miss += s.L2Misses
		refreshes += s.Refreshes
		for _, c := range s.Cores {
			refs += c.L1Hits + c.L1Misses
		}
	}
	nsPerRef, err := redrawRefs(in.gens)
	if err != nil {
		return fmt.Errorf("trace layer: %w", err)
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	L := &r.layers
	L.add("trace.refs", "count", float64(refs), in.sims)
	L.add("trace.ns_per_ref", "ns", nsPerRef, in.sims)
	simNs := float64(sp.total["sim"].Nanoseconds())
	nsPerInstr := 0.0
	if instr > 0 {
		nsPerInstr = simNs / float64(instr)
	}
	L.add("sim.ns_per_instr", "ns", nsPerInstr, sp.count["sim"])
	L.add("sim.interval_self_ms", "ms", perSim(sp.selfMs("interval")), in.sims)
	L.add("sim.warmup_ms", "ms", perSim(sp.totalMs("warmup")), in.sims)
	L.add("sim.measure_ms", "ms", perSim(sp.totalMs("measure")), in.sims)
	L.add("cache.l2_accesses", "count", float64(l2), in.sims)
	L.add("cache.l2_miss_ratio", "ratio", ratio(l2miss, l2), in.sims)
	L.add("refresh.window_self_ms", "ms", perSim(sp.selfMs("refresh-window")), in.sims)
	L.add("refresh.lines", "count", float64(refreshes), in.sims)
	L.add("energy.finalize_self_ms", "ms", perSim(sp.selfMs("energy-finalize")), in.sims)
	L.add("runner.sims", "count", float64(in.sims), in.sims)
	if in.runnerQueueWait == nil {
		in.runnerQueueWait = sp.taskWait
	}
	L.add("runner.queue_wait_ms", "ms", mean(in.runnerQueueWait), len(in.runnerQueueWait))
	L.add("ckpt.saves", "count", float64(in.store.ckptSaves), in.sims)
	L.add("ckpt.bytes", "B", float64(in.store.ckptBytes), in.sims)
	L.add("ckpt.encode_ms", "ms", mean(in.ckptEncode), len(in.ckptEncode))
	L.add("store.get_ms", "ms", sp.meanMs("store-get"), sp.count["store-get"])
	L.add("store.put_ms", "ms", sp.meanMs("store-put"), sp.count["store-put"])
	L.add("store.puts", "count", float64(in.store.computes), in.sims)
	L.add("store.put_bytes", "B", float64(in.store.putBytes), in.sims)
	L.add("store.hit_ratio", "ratio", ratio(in.storeHits, in.storeLookups), int(in.storeLookups))
	L.add("store.computes", "count", float64(in.store.computes), in.sims)
	L.add("store.coalesced", "count", float64(in.storeCoalesce), int(in.storeLookups))
	L.add("obs.encode_self_ms", "ms", perSim(sp.selfMs("encode")), in.sims)
	L.add("serve.submit_ms", "ms", median(in.submit), len(in.submit))
	L.add("serve.wait_ms", "ms", median(in.wait), len(in.wait))
	L.add("serve.fetch_ms", "ms", median(in.fetch), len(in.fetch))
	L.add("serve.queue_wait_ms", "ms", in.serveQueueWait, len(in.submit))
	L.add("serve.rejected", "count", float64(in.rejected), len(in.submit))
	L.add("load.lag_p99_ms", "ms", pct(in.lag, 99), len(in.lag))
	perUnit := 0.0
	if in.units > 0 {
		perUnit = in.leaseParked / float64(in.units)
	}
	L.add("cluster.lease_wait_ms", "ms", perUnit, in.units)
	L.add("cluster.lease_rpc_ms", "ms", median(in.leaseGranted), len(in.leaseGranted))
	L.add("cluster.complete_rpc_ms", "ms", median(in.complete), len(in.complete))
	L.add("shard.put_rpc_ms", "ms", median(in.shardPut), len(in.shardPut))
	L.add("cluster.leases_issued", "count", float64(in.leasesIssued), in.units)
	L.add("cluster.leases_reissued", "count", float64(in.leasesReissued), in.units)
	L.add("cluster.worker_skew", "ratio", in.workerSkew, in.units)
	L.add("shard.remote_puts", "count", float64(in.remotePuts), in.units)
	L.add("shard.repairs", "count", float64(in.repairs), in.units)
	L.add("tracez.dropped", "count", float64(in.dropped), 1)
	if in.dropped != 0 {
		return fmt.Errorf("tracer dropped %d spans: per-layer totals would be short", in.dropped)
	}
	return nil
}

// histMeanMs is the mean of a served histogram's observations between
// two metric snapshots, in ms.
func histMeanMs(before, after serve.MetricsView, name string) float64 {
	a, b := after.Histograms[name], before.Histograms[name]
	if a.Count == b.Count {
		return 0
	}
	return 1000 * (a.SumSeconds - b.SumSeconds) / float64(a.Count-b.Count)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// envelopeState extracts the simulator state from a runner checkpoint
// envelope (section RENV: version, state, telemetry prefix).
func envelopeState(env []byte) ([]byte, error) {
	rd := ckpt.NewReader(env)
	rd.Section("RENV")
	rd.U32()
	state := rd.Bytes64()
	rd.Bytes64()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("checkpoint envelope: %w", err)
	}
	return state, nil
}
