// Command esteem-load is the open-loop traffic generator for
// esteem-serve: it synthesizes an invitro-style request schedule
// (stepped RPS ramp plus an optional burst slot, seeded arrival
// jitter, a configurable cache-hot/cold mix), drives the service with
// it, and writes the measured service-level outcome — p50/p99/p999
// latency, throughput, 429/error counts, queue wait and the cache
// hit/miss split scraped from /metrics — as a JSON report. After
// writing the report it exits 1 if the run fails the report's sanity
// checks (load.Report.Check): no traffic, zero latency or throughput,
// more than 1% errors, or a cache hit rate more than 0.15 from -hot.
// Rerunning one -seed against a daemon whose store kept the first
// run's results serves the cold specs from cache too, and fails the
// hit-rate check.
//
// Examples:
//
//	esteem-load -server http://127.0.0.1:8344 -out report.json
//	esteem-load -start-rps 10 -step-rps 10 -target-rps 200 -slot 5s -hot 0.5
//	esteem-load -start-rps 50 -step-rps 0 -slot 10s -burst-rps 400 -burst-dur 2s
//
// Arrivals are open-loop: request launch times are precomputed from
// the schedule alone, so a slowing server faces mounting concurrency
// instead of a politely backing-off client. A fixed -seed replays the
// exact same arrival times and hot/cold placement.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/load"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "esteem-load:", err)
		os.Exit(1)
	}
}

func run() error {
	server := flag.String("server", "http://127.0.0.1:8344", "esteem-serve base URL")
	startRPS := flag.Float64("start-rps", 10, "ramp starting RPS")
	stepRPS := flag.Float64("step-rps", 10, "ramp RPS increment per slot (0 = single constant-rate slot)")
	targetRPS := flag.Float64("target-rps", 50, "ramp target RPS (last slot)")
	slot := flag.Duration("slot", 3*time.Second, "duration of each constant-rate slot")
	burstRPS := flag.Float64("burst-rps", 0, "append a burst slot at this RPS after the ramp (0 disables)")
	burstDur := flag.Duration("burst-dur", 2*time.Second, "burst slot duration")
	hot := flag.Float64("hot", 0.5, "fraction of requests reusing the cache-hot duplicate spec [0,1]")
	jitter := flag.Float64("jitter", 0.25, "arrival jitter as a fraction of the mean gap [0,1]")
	seed := flag.Int64("seed", 1, "schedule seed (arrival jitter, hot/cold placement, cold spec seeds)")
	out := flag.String("out", "", "write the JSON report to this file (empty = stdout)")
	waitReady := flag.Duration("wait-ready", 30*time.Second, "wait this long for the server's /healthz before starting (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "wait for in-flight requests after the last arrival")
	connRetries := flag.Int("conn-retries", 3, "per-request retries on connection errors (server start/drain)")
	version := cliflags.VersionFlag(flag.CommandLine)
	flag.Parse()

	if *version {
		fmt.Println(cliflags.PrintVersion("esteem-load"))
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *waitReady > 0 {
		if err := load.WaitReady(ctx, *server, *waitReady); err != nil {
			return err
		}
	}

	sched := load.Schedule{
		Phases:      load.WithBurst(load.Ramp(*startRPS, *stepRPS, *targetRPS, *slot), *burstRPS, *burstDur),
		HotFraction: *hot,
		Jitter:      *jitter,
		Seed:        *seed,
	}
	rep, err := load.Run(ctx, load.Options{
		Server:       *server,
		Schedule:     sched,
		ConnRetries:  *connRetries,
		DrainTimeout: *drainTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	printSummary(rep)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
	} else if err = os.WriteFile(*out, data, 0o644); err == nil {
		fmt.Fprintf(os.Stderr, "report written to %s\n", *out)
	}
	if err != nil {
		return err
	}
	return rep.Check()
}

// printSummary renders the per-phase table humans read on stderr; the
// JSON report is the machine artifact.
func printSummary(rep load.Report) {
	fmt.Fprintf(os.Stderr, "%-10s %9s %6s %6s %5s %5s %9s %9s %9s %8s\n",
		"phase", "offered", "done", "429", "err", "retry", "p50ms", "p99ms", "ach.rps", "hit%")
	row := func(st load.PhaseStats, cache load.CacheStats) {
		fmt.Fprintf(os.Stderr, "%-10s %9.1f %6d %6d %5d %5d %9.2f %9.2f %9.1f %8.1f\n",
			st.Name, st.OfferedRPS, st.Completed, st.Rejected, st.Errors, st.ConnRetries,
			st.Latency.P50, st.Latency.P99, st.AchievedRPS, cache.HitRate*100)
	}
	for _, p := range rep.Phases {
		row(p.PhaseStats, p.Cache)
	}
	row(rep.Overall, rep.Cache)
	fmt.Fprintf(os.Stderr, "queue wait mean %.2f ms, %d sims executed, %d coalesced\n",
		rep.Cache.QueueWaitMeanMs, rep.Cache.SimsExecuted, rep.Cache.Coalesced)
}
