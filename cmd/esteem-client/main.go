// Command esteem-client talks to an esteem-serve daemon: it submits
// sweep jobs, polls or streams their progress, and fetches results as
// run artifacts.
//
// Workloads are written as "a+b,c": "+" joins the benchmarks of one
// multi-core workload, "," separates workloads. Every workload of a
// job must match the configured core count.
//
// Examples:
//
//	esteem-client submit -bench gcc -technique esteem -wait
//	esteem-client submit -bench gobmk+nekbone,gcc+gamess -technique baseline,esteem
//	esteem-client status  <job-id>
//	esteem-client watch   <job-id>
//	esteem-client trace   <job-id> -format chrome -o trace.json
//	esteem-client result  <job-id> -o artifact.json
//	esteem-client artifact <key>
//	esteem-client version
//
// Every submission stamps a W3C traceparent header, so the server's
// span tree joins the client's trace; "trace" fetches that tree after
// the job completes, validates it, and can convert it to a Chrome
// trace-event file loadable in Perfetto (https://ui.perfetto.dev).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/cluster"
	"repro/internal/load"
	"repro/internal/metricsz"
	"repro/internal/serve"
	"repro/internal/tracez"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: esteem-client <submit|status|watch|trace|result|artifact|cluster|version> [flags]")
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(rest)
	case "status":
		return cmdGetJSON(rest, "status", func(id string) string { return "/v1/jobs/" + id })
	case "watch":
		return cmdWatch(rest)
	case "trace":
		return cmdTrace(rest)
	case "result":
		return cmdFetch(rest, "result", func(id string) string { return "/v1/jobs/" + id + "/result" })
	case "artifact":
		return cmdFetch(rest, "artifact", func(key string) string { return "/v1/artifacts/" + key })
	case "cluster":
		return cmdCluster(rest)
	case "version":
		return cmdVersion(rest)
	case "-version", "--version":
		fmt.Println(cliflags.PrintVersion("esteem-client"))
		return nil
	default:
		return usage()
	}
}

// serverFlag registers the shared -server flag.
func serverFlag(fs *flag.FlagSet) *string {
	return fs.String("server", "http://127.0.0.1:8344", "esteem-serve base URL")
}

// get issues a GET and fails on non-2xx statuses.
func get(server, path string) (*http.Response, error) {
	resp, err := http.Get(strings.TrimRight(server, "/") + path)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return resp, nil
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	server := serverFlag(fs)
	bench := fs.String("bench", "gcc", `workloads: "+" joins cores, "," separates workloads (e.g. gobmk+nekbone,gcc+gamess)`)
	techs := fs.String("technique", "esteem", "comma-separated technique names: "+cliflags.TechniqueNames())
	techName := fs.String("tech", "", "LLC storage technology (empty = edram; "+cliflags.TechnologyNames()+")")
	retention := fs.Float64("retention", 50, "eDRAM retention period in microseconds")
	budget := cliflags.RegisterBudget(fs, 2_000_000, 20_000_000, 10_000_000, 1)
	overrides := fs.String("config", "", "extra sim.Config overrides as inline JSON (applied last)")
	wait := fs.Bool("wait", false, "poll until the job finishes; exit non-zero on failure")
	retries := fs.Int("retries", 5, "attempts on 429 (queue full; honors Retry-After) and on connection errors during server start/drain")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var benchmarks [][]string
	cores := 0
	for _, wl := range strings.Split(*bench, ",") {
		names := strings.Split(strings.TrimSpace(wl), "+")
		if cores == 0 {
			cores = len(names)
		} else if len(names) != cores {
			return fmt.Errorf("workload %q has %d benchmarks, first workload has %d", wl, len(names), cores)
		}
		benchmarks = append(benchmarks, names)
	}
	var techniques []string
	for _, t := range strings.Split(*techs, ",") {
		techniques = append(techniques, strings.TrimSpace(t))
	}

	config := map[string]any{
		"Cores":           cores,
		"RetentionMicros": *retention,
		"IntervalCycles":  *budget.Interval,
		"MeasureInstr":    *budget.Instr,
		"WarmupInstr":     *budget.Warmup,
		"Seed":            *budget.Seed,
	}
	if *overrides != "" {
		var extra map[string]any
		if err := json.Unmarshal([]byte(*overrides), &extra); err != nil {
			return fmt.Errorf("-config: %v", err)
		}
		for k, v := range extra {
			config[k] = v
		}
	}
	rawCfg, err := json.Marshal(config)
	if err != nil {
		return err
	}
	if *techName != "" {
		if _, err := cliflags.ParseTechnology(*techName); err != nil {
			return fmt.Errorf("-tech: %v", err)
		}
	}
	body, err := json.Marshal(serve.JobSpec{
		Config:     rawCfg,
		Benchmarks: benchmarks,
		Techniques: techniques,
		Technology: *techName,
	})
	if err != nil {
		return err
	}

	// The submission's root span: the server extracts the traceparent
	// header and joins this trace, so the job's exported span tree
	// carries the client's trace ID end to end.
	root := tracez.New(tracez.Config{}).Root("submit")
	resp, err := postJob(strings.TrimRight(*server, "/"), body, tracez.Traceparent(root), *retries)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	var view struct {
		ID      string `json:"id"`
		State   string `json:"state"`
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(payload, &view); err != nil {
		return err
	}
	if !*wait {
		fmt.Println(strings.TrimSpace(string(payload)))
		return nil
	}

	fmt.Fprintf(os.Stderr, "job %s submitted (trace %s), waiting...\n", view.ID, view.TraceID)
	for {
		resp, err := get(*server, "/v1/jobs/"+view.ID)
		if err != nil {
			return err
		}
		payload, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var v struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(payload, &v); err != nil {
			return err
		}
		switch serve.State(v.State) {
		case serve.StateDone:
			fmt.Println(strings.TrimSpace(string(payload)))
			return nil
		case serve.StateFailed, serve.StateCanceled:
			return fmt.Errorf("job %s %s: %s", view.ID, v.State, v.Error)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// postJob submits the job body, retrying 429 (queue full) responses
// up to attempts times with a jittered backoff that honors the
// server's Retry-After hint, and connection-level failures (refused/
// reset during server start or drain) with a shorter bounded backoff.
// Any other response is returned as-is. Jobs are content-addressed,
// so a retried submission that actually reached the server the first
// time just dedups onto the same units.
func postJob(server string, body []byte, traceparent string, attempts int) (*http.Response, error) {
	if attempts < 1 {
		attempts = 1
	}
	connDelay := 100 * time.Millisecond
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequest(http.MethodPost, server+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			if attempt >= attempts || !load.RetryableConnErr(err) {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "submit: %v, retrying in %s (attempt %d/%d)\n",
				err, connDelay.Round(time.Millisecond), attempt, attempts)
			time.Sleep(connDelay)
			if connDelay *= 2; connDelay > 2*time.Second {
				connDelay = 2 * time.Second
			}
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= attempts {
			return resp, nil
		}
		delay := time.Second
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			delay = time.Duration(secs) * time.Second
		}
		// Jitter ±25% so simultaneous clients don't retry in lockstep.
		delay += time.Duration((rand.Float64() - 0.5) * 0.5 * float64(delay))
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		fmt.Fprintf(os.Stderr, "submit: queue full (429), retrying in %s (attempt %d/%d)\n",
			delay.Round(time.Millisecond), attempt, attempts)
		time.Sleep(delay)
	}
}

// cmdCluster inspects a coordinator: "status" dumps the membership
// and lease-table view, "metrics" the fleet-aggregated metrics,
// "events" the cluster event journal, and "top" a live refreshing
// per-worker table.
func cmdCluster(args []string) error {
	usage := fmt.Errorf("usage: esteem-client cluster <status|metrics|events|top> [flags]")
	if len(args) == 0 {
		return usage
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "status":
		return clusterPassthrough(rest, "cluster status", func(fs *flag.FlagSet) string {
			return "/v1/cluster/status"
		})
	case "metrics":
		var asJSON *bool
		return clusterPassthrough(rest, "cluster metrics", func(fs *flag.FlagSet) string {
			if asJSON == nil {
				asJSON = fs.Bool("json", false, "fetch the JSON fleet view instead of Prometheus text")
				return ""
			}
			if *asJSON {
				return "/v1/cluster/metrics?format=json"
			}
			return "/v1/cluster/metrics"
		})
	case "events":
		var since, max *int64
		return clusterPassthrough(rest, "cluster events", func(fs *flag.FlagSet) string {
			if since == nil {
				since = fs.Int64("since", 0, "return journal events with seq > this")
				max = fs.Int64("max", 0, "cap the number of events returned (0 = server default)")
				return ""
			}
			return fmt.Sprintf("/v1/cluster/events?since=%d&max=%d", *since, *max)
		})
	case "top":
		return cmdClusterTop(rest)
	default:
		return usage
	}
}

// clusterPassthrough GETs one coordinator endpoint and copies the body
// to stdout. path is called once before flag parsing (to register
// flags; ignored return) and once after (to build the URL).
func clusterPassthrough(args []string, name string, path func(*flag.FlagSet) string) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	server := serverFlag(fs)
	path(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	resp, err := get(*server, path(fs))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// cmdClusterTop renders a live refreshing fleet table: one row per
// member with leases held, simulation throughput (counter delta over
// the refresh interval), cumulative cache hit rate and executed tasks,
// headed by fleet totals and the fleet-wide queue-wait p99.
func cmdClusterTop(args []string) error {
	fs := flag.NewFlagSet("cluster top", flag.ExitOnError)
	server := serverFlag(fs)
	interval := fs.Duration("interval", 2*time.Second, "refresh cadence")
	count := fs.Int("count", 0, "exit after this many refreshes (0 = run until interrupted)")
	plain := fs.Bool("plain", false, "append frames instead of clearing the screen (for logs and pipes)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	prevSims := map[string]uint64{}
	prevAt := time.Now()
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		view, err := fetchFleet(*server)
		if err != nil {
			return err
		}
		now := time.Now()
		if !*plain {
			fmt.Print("\033[2J\033[H")
		}
		renderFleet(os.Stdout, view, prevSims, now.Sub(prevAt))
		prevAt = now
	}
	return nil
}

func fetchFleet(server string) (cluster.FleetView, error) {
	var view cluster.FleetView
	resp, err := get(server, "/v1/cluster/metrics?format=json")
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return view, fmt.Errorf("decoding fleet view: %v", err)
	}
	return view, nil
}

// memberSims extracts a member's simulation counter: workers count
// esteem_worker_sims_computed_total, the coordinator (a serve node)
// esteem_serve_sims_executed_total.
func memberSims(m metricsz.Snapshot) uint64 {
	if v, ok := m.Counters["esteem_worker_sims_computed_total"]; ok {
		return v
	}
	return m.Counters["esteem_serve_sims_executed_total"]
}

func renderFleet(w io.Writer, view cluster.FleetView, prevSims map[string]uint64, since time.Duration) {
	reachable := 0
	for _, m := range view.Members {
		if m.Metrics != nil {
			reachable++
		}
	}
	p99 := view.Fleet.Histograms["esteem_serve_queue_wait_seconds"].Quantile(0.99)
	fmt.Fprintf(w, "fleet %s  members %d/%d reachable  workers %.0f  leases %.0f  queue-wait p99 %.1fms  %s\n",
		view.Self, reachable, len(view.Members),
		view.Fleet.Gauges["esteem_cluster_workers_live"],
		view.Fleet.Gauges["esteem_cluster_leases_outstanding"]+view.Fleet.Gauges["esteem_worker_leases_held"],
		p99*1e3, time.Now().Format("15:04:05"))
	fmt.Fprintf(w, "%-32s %6s %8s %6s %7s %9s\n", "NODE", "LEASES", "SIMS/S", "HIT%", "TASKS", "UPTIME")
	for _, m := range view.Members {
		node := strings.TrimPrefix(m.URL, "http://")
		if m.Error != "" {
			fmt.Fprintf(w, "%-32s %s\n", node, "unreachable: "+m.Error)
			continue
		}
		mm := *m.Metrics
		sims := memberSims(mm)
		// Throughput from the counter delta between refreshes; the
		// first frame has no previous sample and falls back to the
		// lifetime average.
		var rate float64
		if prev, ok := prevSims[m.URL]; ok && since > 0 && sims >= prev {
			rate = float64(sims-prev) / since.Seconds()
		} else if mm.UptimeSeconds > 0 {
			rate = float64(sims) / mm.UptimeSeconds
		}
		prevSims[m.URL] = sims
		hits := mm.Counters["esteem_worker_store_hits_total"] + mm.Counters["esteem_serve_cache_hits_total"]
		misses := mm.Counters["esteem_worker_store_misses_total"] + mm.Counters["esteem_serve_cache_misses_total"]
		hitPct := 0.0
		if hits+misses > 0 {
			hitPct = 100 * float64(hits) / float64(hits+misses)
		}
		tasks := mm.Counters["esteem_worker_tasks_executed_total"] + mm.Counters["esteem_serve_jobs_completed_total"]
		leases := mm.Gauges["esteem_worker_leases_held"] + mm.Gauges["esteem_cluster_leases_outstanding"]
		fmt.Fprintf(w, "%-32s %6.0f %8.1f %5.1f%% %7d %8.0fs\n",
			node, leases, rate, hitPct, tasks, mm.UptimeSeconds)
	}
}

func cmdGetJSON(args []string, name string, path func(string) string) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	server := serverFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: esteem-client %s [-server URL] <job-id>", name)
	}
	resp, err := get(*server, path(fs.Arg(0)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	server := serverFlag(fs)
	reconnects := fs.Int("reconnects", 8, "consecutive failed reconnect attempts before giving up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: esteem-client watch [-server URL] <job-id>")
	}
	// A dropped stream reconnects with Last-Event-ID, so the server
	// replays exactly the events this client has not yet printed. The
	// backoff doubles per consecutive failure (jittered, capped) and
	// resets whenever a connection delivers an event.
	lastID := -1
	failures := 0
	var lastErr error
	for {
		terminal, progressed, err := streamEvents(*server, fs.Arg(0), &lastID)
		if terminal {
			return nil
		}
		if progressed {
			failures = 0
		}
		if err != nil {
			lastErr = err
		}
		failures++
		if failures > *reconnects {
			if lastErr == nil {
				lastErr = fmt.Errorf("stream ended without a terminal job state")
			}
			return fmt.Errorf("watch: giving up after %d reconnect attempts: %v", *reconnects, lastErr)
		}
		delay := time.Duration(1<<uint(failures-1)) * 500 * time.Millisecond
		if delay > 15*time.Second {
			delay = 15 * time.Second
		}
		delay += time.Duration(rand.Float64() * 0.25 * float64(delay))
		fmt.Fprintf(os.Stderr, "watch: stream dropped (%v), reconnecting in %s\n", err, delay.Round(time.Millisecond))
		time.Sleep(delay)
	}
}

// streamEvents follows one SSE connection, printing every data
// payload. It reports whether a terminal job state was observed (the
// watch is complete), whether any event arrived on this connection,
// and the error that ended the stream.
func streamEvents(server, id string, lastID *int) (terminal, progressed bool, err error) {
	req, err := http.NewRequest(http.MethodGet, strings.TrimRight(server, "/")+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, false, err
	}
	if *lastID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, false, fmt.Errorf("GET /v1/jobs/%s/events: %s: %s", id, resp.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			if n, err := strconv.Atoi(strings.TrimPrefix(line, "id: ")); err == nil {
				*lastID = n
			}
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			fmt.Println(data)
			progressed = true
			var ev struct {
				State string `json:"state"`
			}
			if json.Unmarshal([]byte(data), &ev) == nil && serve.State(ev.State).Terminal() {
				terminal = true
			}
		}
	}
	if terminal {
		return true, progressed, nil
	}
	return false, progressed, sc.Err()
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	server := serverFlag(fs)
	out := fs.String("o", "", "write the trace to this file instead of stdout")
	format := fs.String("format", "tree", "output format: tree (canonical span tree) or chrome (Perfetto-loadable)")
	minCov := fs.Float64("min-coverage", 0, "fail unless the root's children cover at least this fraction of its wall-clock (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: esteem-client trace [-server URL] [-format tree|chrome] [-o FILE] <job-id>")
	}
	resp, err := get(*server, "/v1/jobs/"+fs.Arg(0)+"/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	tree, err := tracez.ParseTree(raw)
	if err != nil {
		return fmt.Errorf("trace: %v", err)
	}
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("trace: invalid span tree: %v", err)
	}
	cov := tree.Coverage()
	fmt.Fprintf(os.Stderr, "trace %s: %d spans, root %q %.3f ms, phase coverage %.1f%%\n",
		tree.TraceID, tree.Spans, tree.Root.Name, float64(tree.Root.DurUS)/1e3, cov*100)
	if *minCov > 0 && cov < *minCov {
		return fmt.Errorf("trace: coverage %.3f below required %.3f", cov, *minCov)
	}
	var data []byte
	switch *format {
	case "tree":
		data = raw
	case "chrome":
		if data, err = tracez.ChromeTrace(tree); err != nil {
			return err
		}
	default:
		return fmt.Errorf("trace: unknown -format %q (want tree or chrome)", *format)
	}
	if *out == "" {
		_, err = os.Stdout.Write(append(data, '\n'))
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace: wrote %s (%d bytes); open chrome traces at https://ui.perfetto.dev\n", *out, len(data))
	return nil
}

func cmdFetch(args []string, name string, path func(string) string) error {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	server := serverFlag(fs)
	out := fs.String("o", "", "write the response to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: esteem-client %s [-server URL] [-o FILE] <id>", name)
	}
	resp, err := get(*server, path(fs.Arg(0)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

func cmdVersion(args []string) error {
	fs := flag.NewFlagSet("version", flag.ExitOnError)
	server := serverFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println(cliflags.PrintVersion("esteem-client"))
	resp, err := get(*server, "/v1/version")
	if err != nil {
		fmt.Fprintf(os.Stderr, "server unreachable: %v\n", err)
		return nil
	}
	defer resp.Body.Close()
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}
