package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/castore"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/tracez"
)

// The cluster-fanout workload: a coordinator-mode serve.Server and two
// in-process cluster.Workers (one executor and one sim worker each,
// every node on its own on-disk store, rf=2 sharding) over loopback. A
// closed loop submits one job at a time; each job fans out every
// benchmark x {esteem, baseline, rpv} at FastJobSpec budgets with a
// fresh seed, so every unit is cold and computed exactly once and the
// work per job is fixed whichever worker wins each lease. After a job
// ends the client downloads every unit's artifact (the coordinator's
// shard read-through) and re-fetches a fixed sample (its LRU path).
const (
	clusterWorkers   = 2
	clusterHotRefs   = 34 // units per job fetched a second time
	clusterRecompute = 6  // units of the first and last job recomputed
)

var clusterTechniques = []string{"esteem", "baseline", "rpv"}

// clusterSpec is one fan-out job: every benchmark x clusterTechniques.
func clusterSpec(seed uint64) serve.JobSpec {
	spec := serve.FastJobSpec(seed)
	spec.Benchmarks = nil
	for _, p := range trace.Profiles() {
		spec.Benchmarks = append(spec.Benchmarks, []string{p.Name})
	}
	spec.Techniques = clusterTechniques
	return spec
}

// clusterUnits is the unit count of one clusterSpec job.
func clusterUnits() int { return len(trace.Profiles()) * len(clusterTechniques) }

type workerNode struct {
	w     *cluster.Worker
	node  *httpNode
	store *castore.Store
	done  chan struct{}
}

// clusterNet is the cluster-fanout set-up.
type clusterNet struct {
	dir     string
	coord   *cluster.Coordinator
	shard   *castore.Sharded
	srv     *serve.Server
	node    *httpNode
	workers []*workerNode
	tracer  *tracez.Tracer
	client  *client
	stop    context.CancelFunc
}

func startCluster(o options, rep int) (*clusterNet, error) {
	c := &clusterNet{dir: filepath.Join(o.work, fmt.Sprintf("cluster%d", rep)), tracer: unsampledTracer()}
	if o.traced {
		// One job's merged trace is a few thousand spans; it is drained
		// as soon as the job ends.
		c.tracer = tracez.New(tracez.Config{Seed: 1, RingSize: 1 << 16})
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	node, set, err := listen(o.delays)
	if err != nil {
		return nil, err
	}
	c.node = node
	c.coord, err = cluster.NewCoordinator(cluster.CoordinatorConfig{
		Self: node.url, Tracer: c.tracer, HeartbeatEvery: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	store, err := castore.Open(filepath.Join(c.dir, "coordinator"), 256)
	if err != nil {
		return nil, err
	}
	c.shard = castore.NewSharded(store, node.url, c.coord.MemberURLs, 2, nil)
	c.srv, err = serve.New(serve.Config{
		Store: c.shard, Cluster: c.coord, Workers: 1, JobTimeout: time.Minute,
		Tracer: c.tracer, Node: node.url,
	})
	if err != nil {
		return nil, err
	}
	set(c.srv.Handler())
	for i := 0; i < clusterWorkers; i++ {
		wn := &workerNode{done: make(chan struct{})}
		var wset func(http.Handler)
		if wn.node, wset, err = listen(o.delays); err != nil {
			return nil, err
		}
		c.workers = append(c.workers, wn)
		if wn.store, err = castore.Open(filepath.Join(c.dir, fmt.Sprintf("worker%d", i)), 256); err != nil {
			return nil, err
		}
		var wt *tracez.Tracer // nil keeps the worker's execute path span-free
		if o.traced {
			wt = tracez.New(tracez.Config{Seed: uint64(100 + i), RingSize: 1 << 14})
		}
		wn.w, err = cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: node.url, Self: wn.node.url, Local: wn.store,
			Executors: 1, SimWorkers: 1, Tracer: wt,
		})
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		wn.w.Register(mux)
		wset(mux)
		go func() {
			defer close(wn.done)
			wn.w.Run(ctx)
		}()
	}
	// Wait until every node sees the full membership, so shard
	// placement is settled before the warm-up job.
	deadline := time.Now().Add(15 * time.Second)
	for !c.settled() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("workers did not join: %+v", c.coord.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.client = newClient(node.url)
	warm := runner.DeriveSeed(uint64(o.seed), "cluster-warm-up", strconv.Itoa(rep))
	if jr := c.client.run(context.Background(), clusterSpec(warm)); jr.err != nil {
		return nil, fmt.Errorf("warm-up job: %w", jr.err)
	}
	ok = true
	return c, nil
}

func (c *clusterNet) settled() bool {
	if c.coord.Stats().WorkersLive != clusterWorkers {
		return false
	}
	for _, wn := range c.workers {
		if len(wn.w.Members()) != clusterWorkers+1 {
			return false
		}
	}
	return true
}

func (c *clusterNet) close() {
	if c.client != nil {
		c.client.close()
	}
	c.stop()
	for _, wn := range c.workers {
		if wn.w != nil {
			<-wn.done
		}
		wn.node.close()
	}
	if c.srv != nil {
		c.srv.Close()
	}
	if c.coord != nil {
		c.coord.Close()
	}
	if c.node != nil {
		c.node.close()
	}
	os.RemoveAll(c.dir)
}

// clusterStats sums the counters one job moves across the nodes.
type clusterStats struct {
	coord   cluster.Stats
	store   castore.Stats // worker local stores plus shard counters
	sims    uint64
	perNode []uint64 // tasks executed per worker
}

func (c *clusterNet) stats() clusterStats {
	s := clusterStats{coord: c.coord.Stats()}
	for _, wn := range c.workers {
		ws := wn.w.Stats()
		s.sims += ws.SimsComputed
		s.perNode = append(s.perNode, ws.TasksExecuted)
		st := ws.Store
		s.store.Hits += st.Hits
		s.store.Misses += st.Misses
		s.store.Computes += st.Computes
		s.store.Coalesced += st.Coalesced
		s.store.RemotePuts += st.RemotePuts
		s.store.Repairs += st.Repairs
	}
	cs := c.shard.Stats()
	s.store.RemotePuts += cs.RemotePuts
	s.store.Repairs += cs.Repairs
	return s
}

// clusterJob is one closed-loop job's outcome.
type clusterJob struct {
	jr        jobRun
	cold, hot []float64 // artifact fetch ms
	arts      map[string][]byte
	spec      serve.JobSpec
	// counts must be equal for every job; seeded counts depend on the
	// job's seed, so only job 0's are compared across runs.
	counts, seeded map[string]uint64
	// cycle is submit to every artifact downloaded; cpu is the process
	// CPU time over the same span.
	cycle, cpu time.Duration
}

// runJob submits one job with the given seed, downloads every unit's
// artifact and re-fetches a sample, checking the bytes.
func (c *clusterNet) runJob(ctx context.Context, seed uint64, traced bool) (*clusterJob, error) {
	before := c.stats()
	j := &clusterJob{spec: clusterSpec(seed), arts: map[string][]byte{}}
	t0, cpu0 := time.Now(), cpuTime()
	j.jr = c.client.run(ctx, j.spec)
	if j.jr.err != nil {
		return j, j.jr.err
	}
	if traced {
		if tid, ok := tracez.ParseTraceID(j.jr.view.TraceID); ok {
			j.jr.spans = c.tracer.Take(tid)
		}
	}
	after := c.stats()
	var env struct {
		Units []struct {
			Key         string `json:"key"`
			ArtifactURL string `json:"artifact_url"`
		} `json:"units"`
	}
	if err := json.Unmarshal(j.jr.body, &env); err != nil {
		return j, fmt.Errorf("result envelope: %w", err)
	}
	if len(env.Units) != clusterUnits() || len(j.jr.view.Units) != clusterUnits() {
		return j, fmt.Errorf("job has %d units, want %d", len(env.Units), clusterUnits())
	}
	for _, u := range env.Units {
		t0 := time.Now()
		data, err := c.client.get(ctx, u.ArtifactURL)
		j.cold = append(j.cold, ms(time.Since(t0)))
		if err != nil {
			return j, err
		}
		if _, err := obs.ParseRun(data); err != nil {
			return j, fmt.Errorf("unit %s: %w", u.Key[:12], err)
		}
		j.arts[u.Key] = data
	}
	for k := 0; k < clusterHotRefs; k++ {
		u := env.Units[k*len(env.Units)/clusterHotRefs]
		t0 := time.Now()
		data, err := c.client.get(ctx, u.ArtifactURL)
		j.hot = append(j.hot, ms(time.Since(t0)))
		if err != nil {
			return j, err
		}
		if !bytes.Equal(data, j.arts[u.Key]) {
			return j, fmt.Errorf("unit %s: re-fetch served different bytes", u.Key[:12])
		}
	}
	j.cycle, j.cpu = time.Since(t0), cpuTime()-cpu0
	var saves uint64
	for _, u := range j.jr.view.Units {
		cfg, wl, err := unitConfig(unitSpec(j.spec, u.Technique), u.Workload)
		if err != nil {
			return j, err
		}
		base, err := castore.CheckpointBaseKey(derived(cfg, wl).cfg, wl)
		if err != nil {
			return j, err
		}
		for _, wn := range c.workers {
			metas, err := wn.store.Checkpoints(base)
			if err != nil {
				return j, err
			}
			saves += uint64(len(metas))
		}
	}
	j.counts = map[string]uint64{
		"units":                uint64(len(j.jr.view.Units)),
		"leases_issued":        after.coord.LeasesIssued - before.coord.LeasesIssued,
		"leases_reissued":      after.coord.LeasesReissued - before.coord.LeasesReissued,
		"tasks_completed":      after.coord.TasksCompleted - before.coord.TasksCompleted,
		"sims":                 after.sims - before.sims,
		"store_computes":       after.store.Computes - before.store.Computes,
		"store_hits_coalesced": after.store.Hits - before.store.Hits + after.store.Coalesced - before.store.Coalesced,
		"artifacts_served":     uint64(len(j.arts)),
	}
	j.seeded = map[string]uint64{"ckpt_saves": saves}
	for _, data := range j.arts {
		art, err := obs.ParseRun(data)
		if err != nil {
			return j, err
		}
		j.seeded["instructions"] += art.Summary.Instructions
	}
	return j, nil
}

// unitSpec narrows a job spec to one technique.
func unitSpec(spec serve.JobSpec, technique string) serve.JobSpec {
	spec.Techniques = []string{technique}
	return spec
}

// recomputeSample re-runs a fixed sample of a job's units on a
// standalone sweep and compares them with the served bytes.
func (j *clusterJob) recomputeSample() error {
	units := j.jr.view.Units
	for k := 0; k < clusterRecompute; k++ {
		u := units[k*len(units)/clusterRecompute]
		cfg, wl, err := unitConfig(unitSpec(j.spec, u.Technique), u.Workload)
		if err != nil {
			return err
		}
		want, key, err := recompute(cfg, wl)
		if err != nil {
			return err
		}
		if key != u.Key || !bytes.Equal(want, j.arts[key]) {
			return fmt.Errorf("unit %s: served result differs from a standalone recompute", u.Key[:12])
		}
	}
	return nil
}

// runCluster is the cluster-fanout workload.
func runCluster(o options) (*report, error) {
	r := newReport()
	c, err := timedSetups(r, func(rep int) (*clusterNet, error) { return startCluster(o, rep) }, (*clusterNet).close)
	if err != nil {
		return r, err
	}
	defer c.close()
	ctx := context.Background()
	before := c.stats()
	viewBefore, err := c.client.metricsView(ctx)
	if err != nil {
		return r, err
	}

	c.node.probe.reset()
	for _, wn := range c.workers {
		wn.node.probe.reset()
	}
	w := startWindow()
	var jobs []*clusterJob
	for i := 0; i == 0 || time.Since(w.start) < o.window; i++ {
		seed := runner.DeriveSeed(uint64(o.seed), "cluster-job", strconv.Itoa(i))
		j, err := c.runJob(ctx, seed, o.traced)
		r.attempted++
		if err != nil {
			r.failed++
			return r, fmt.Errorf("job %d: %w", i, err)
		}
		jobs = append(jobs, j)
	}
	units := len(jobs) * clusterUnits()
	w.finish(r, units)
	after := c.stats()
	viewAfter, err := c.client.metricsView(ctx)
	if err != nil {
		return r, err
	}
	for _, j := range []*clusterJob{jobs[0], jobs[len(jobs)-1]} {
		if err := j.recomputeSample(); err != nil {
			return r, err
		}
	}

	// Rates come from the median job, so a burst of host contention
	// during a few jobs does not move them.
	var jobLat, unitLat, cold, hot, rate, minstr, cpus []float64
	var perJob []map[string]uint64
	for _, j := range jobs {
		jobLat = append(jobLat, ms(j.jr.submit+j.jr.wait))
		rate = append(rate, float64(clusterUnits())/j.cycle.Seconds())
		minstr = append(minstr, float64(j.seeded["instructions"])/1e6/j.cycle.Seconds())
		cpus = append(cpus, ms(j.cpu)/float64(clusterUnits()))
		for _, d := range j.jr.unitDone {
			unitLat = append(unitLat, ms(d))
		}
		cold = append(cold, j.cold...)
		hot = append(hot, j.hot...)
		perJob = append(perJob, j.counts)
	}
	if r.counts, err = countsEqual(perJob); err != nil {
		return r, err
	}
	for k, v := range jobs[0].seeded {
		r.counts[k+"_job0"] = v
	}
	r.e2e.add("sim_minstr_per_s", "Minstr/s", median(minstr), len(minstr))
	r.e2e.add("hot_p50_ms", "ms", median(hot), len(hot))
	r.e2e.add("cold_p50_ms", "ms", median(cold), len(cold))
	r.e2e.add("job_p99_ms", "ms", pct(unitLat, tailPct(len(unitLat))), len(unitLat))
	r.e2e.add("units_per_s", "units/s", median(rate), len(rate))
	r.e2e.add("job_p50_ms", "ms", median(jobLat), len(jobLat))
	r.e2e.add("cpu_ms_per_op", "ms", median(cpus), len(cpus))
	if !o.traced {
		if st := c.tracer.Stats(); st.Buffered != 0 {
			return r, fmt.Errorf("untraced run recorded %d spans", st.Buffered)
		}
		return r, nil
	}

	in := layerInputs{spans: newSpanRollup(), units: units, sims: units}
	for _, j := range jobs {
		in.spans.add(j.jr.spans)
		in.submit = append(in.submit, ms(j.jr.submit))
		in.wait = append(in.wait, ms(j.jr.wait))
		in.fetch = append(in.fetch, ms(j.jr.fetch))
		in.store.ckptSaves += j.seeded["ckpt_saves"]
		for _, data := range j.arts {
			art, _ := obs.ParseRun(data)
			in.sums = append(in.sums, art.Summary)
			in.gens = append(in.gens, streamsOf(art.Manifest.Seed, art.Summary)...)
			in.store.putBytes += uint64(len(data))
		}
	}
	in.store.computes = after.store.Computes - before.store.Computes
	in.storeHits = after.store.Hits - before.store.Hits
	in.storeLookups = in.storeHits + after.store.Misses - before.store.Misses
	in.storeCoalesce = after.store.Coalesced - before.store.Coalesced
	in.leaseGranted = c.node.probe.take("lease-granted")
	idle := c.node.probe.take("lease")
	in.leaseParked = mean(in.leaseGranted)*float64(len(in.leaseGranted)) + mean(idle)*float64(len(idle))
	in.complete = c.node.probe.take("complete")
	probes := []*routeProbe{c.node.probe}
	for _, wn := range c.workers {
		probes = append(probes, wn.node.probe)
	}
	in.shardPut = mergeTimes("shard-put", probes...)
	in.leasesIssued = after.coord.LeasesIssued - before.coord.LeasesIssued
	in.leasesReissued = after.coord.LeasesReissued - before.coord.LeasesReissued
	in.remotePuts = after.store.RemotePuts - before.store.RemotePuts
	in.repairs = after.store.Repairs - before.store.Repairs
	lo, hi := ^uint64(0), uint64(0)
	for k := range after.perNode {
		n := after.perNode[k] - before.perNode[k]
		lo, hi = min(lo, n), max(hi, n)
	}
	if lo > 0 {
		in.workerSkew = float64(hi) / float64(lo)
	}
	in.serveQueueWait = histMeanMs(viewBefore, viewAfter, "esteem_serve_queue_wait_seconds")
	in.dropped = c.tracer.Stats().Dropped
	// Re-encode the deepest checkpoint of each unit, in job order,
	// reading the envelopes back from the worker stores.
	states, runs := map[string][]byte{}, map[string]unitRun{}
	for _, j := range jobs {
		for _, u := range j.jr.view.Units {
			if len(states) >= maxReencode {
				break
			}
			cfg, wl, err := unitConfig(unitSpec(j.spec, u.Technique), u.Workload)
			if err != nil {
				return r, err
			}
			unit := derived(cfg, wl)
			base, err := castore.CheckpointBaseKey(unit.cfg, wl)
			if err != nil {
				return r, err
			}
			for _, wn := range c.workers {
				meta, data, ok, err := wn.store.BestCheckpoint(base, math.MaxUint64)
				if err != nil {
					return r, err
				}
				if ok {
					states[base+"/"+strconv.Itoa(meta.Seq)] = data
					runs[base] = unit
					break
				}
			}
		}
	}
	if in.ckptEncode, err = reencodeCheckpoints(states, runs); err != nil {
		return r, err
	}
	return r, emitLayers(r, in)
}
