package load

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"repro/internal/castore"
	"repro/internal/serve"
)

// startService boots a real serve.Server over httptest and returns its
// base URL.
func startService(t *testing.T) string {
	t.Helper()
	store, err := castore.Open(t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Config{
		Store:      store,
		Workers:    4,
		SimWorkers: 1,
		QueueDepth: 64,
		JobTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestRunEndToEnd drives a short open-loop schedule against a live
// service and checks the contract the CI gate relies on: every request
// completes, latency and throughput are non-zero, and the recorded
// cache hit rate matches the configured duplicate-spec fraction (hot
// requests share one content address, so N hot arrivals cost one
// compute; cold arrivals are all unique misses).
func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives ~1s of wall-clock traffic")
	}
	url := startService(t)

	const hotFraction = 0.5
	sched := Schedule{
		Phases: []Phase{
			{Name: "p0", RPS: 40, Seconds: 0.5},
			{Name: "p1", RPS: 40, Seconds: 0.5},
		},
		HotFraction: hotFraction,
		Jitter:      0.25,
		Seed:        1,
	}
	rep, err := Run(context.Background(), Options{
		Server:       url,
		Schedule:     sched,
		DrainTimeout: 30 * time.Second,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	o := rep.Overall
	want := sched.Requests()
	if o.Requests != want {
		t.Fatalf("%d requests recorded, schedule offers %d", o.Requests, want)
	}
	if o.Completed != want || o.Rejected != 0 || o.Errors != 0 {
		t.Fatalf("completed=%d rejected=%d errors=%d, want %d/0/0",
			o.Completed, o.Rejected, o.Errors, want)
	}
	if o.Latency.P50 <= 0 || o.Latency.P99 < o.Latency.P50 {
		t.Fatalf("latency quantiles %+v", o.Latency)
	}
	if o.AchievedRPS <= 0 {
		t.Fatal("zero achieved RPS")
	}

	// Hit-rate contract: the first hot request computes, the remaining
	// hot requests hit (or coalesce onto) it, every cold request
	// misses. Expected rate = (hot-1)/N; the 0.05 slack only covers
	// rounding, not coalescing, because coalesced lookups count as hits.
	hot := 0
	arrivals, _ := sched.Arrivals()
	for _, a := range arrivals {
		if a.Hot {
			hot++
		}
	}
	expected := float64(hot-1) / float64(want)
	if d := math.Abs(rep.Cache.HitRate - expected); d > 0.05 {
		t.Fatalf("hit rate %.3f, want %.3f±0.05 (hot=%d/%d; cache=%+v)",
			rep.Cache.HitRate, expected, hot, want, rep.Cache)
	}
	if got := rep.Cache.Hits + rep.Cache.Coalesced; got != uint64(hot-1) {
		t.Fatalf("hits+coalesced=%d, want %d", got, hot-1)
	}
	if rep.Cache.Misses != uint64(want-hot+1) {
		t.Fatalf("misses=%d, want %d", rep.Cache.Misses, want-hot+1)
	}
	if rep.Cache.SimsExecuted == 0 {
		t.Fatal("no simulations recorded")
	}

	if len(rep.Phases) != 2 {
		t.Fatalf("%d phase reports", len(rep.Phases))
	}
	if rep.Date == "" || rep.Go == "" || rep.CPUs == 0 {
		t.Fatalf("host stamp incomplete: %+v", rep)
	}
}

func TestWaitReady(t *testing.T) {
	url := startService(t)
	if err := WaitReady(context.Background(), url, 5*time.Second); err != nil {
		t.Fatalf("live server not ready: %v", err)
	}
	// A port nothing listens on must time out, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := WaitReady(ctx, "http://127.0.0.1:1", 500*time.Millisecond); err == nil {
		t.Fatal("WaitReady succeeded against a dead port")
	}
}

func TestRetryableConnErr(t *testing.T) {
	retryable := []error{
		syscall.ECONNREFUSED,
		syscall.ECONNRESET,
		&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED},
		io.ErrUnexpectedEOF,
		io.EOF,
	}
	for _, err := range retryable {
		if !RetryableConnErr(err) {
			t.Errorf("%v not retryable", err)
		}
	}
	for _, err := range []error{nil, errors.New("boom"), context.Canceled} {
		if RetryableConnErr(err) {
			t.Errorf("%v wrongly retryable", err)
		}
	}
}
