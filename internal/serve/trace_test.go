// End-to-end tracing tests: one trace ID across the job view, the SSE
// stream, the structured log and the exported span tree; plus the
// trace endpoint's formats, sampling behaviour, Last-Event-ID resume
// and the /metrics histograms.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metricsz"
	"repro/internal/tracez"
)

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestTracePropagatesEndToEnd(t *testing.T) {
	logBuf := &syncBuffer{}
	s := newTestServer(t, func(c *Config) {
		c.Tracer = tracez.New(tracez.Config{Seed: 7})
		c.Logger = slog.New(slog.NewJSONHandler(logBuf, nil))
	})

	// Submit with a client-minted traceparent: the server must join
	// the client's trace instead of starting its own.
	client := tracez.New(tracez.Config{Seed: 42}).Root("submit")
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(tinySpec(1)))
	req.Header.Set("traceparent", tracez.Traceparent(client))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	var v jobView
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	wantTID := client.TraceID().String()
	if v.TraceID != wantTID {
		t.Fatalf("job view trace_id %q, want the client's %q", v.TraceID, wantTID)
	}
	if got := w.Header().Get("X-Trace-Id"); got != wantTID {
		t.Fatalf("X-Trace-Id %q, want %q", got, wantTID)
	}
	if waitDone(t, s, v.ID).State != StateDone {
		t.Fatal("job did not complete")
	}

	// Every SSE event carries the trace ID.
	ev := do(t, s, "GET", "/v1/jobs/"+v.ID+"/events", "")
	for _, line := range strings.Split(ev.Body.String(), "\n") {
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e struct {
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		if e.TraceID != wantTID {
			t.Fatalf("event trace_id %q, want %q: %s", e.TraceID, wantTID, line)
		}
	}

	// The exported span tree is well-formed, carries the same trace
	// ID, and its phases account for the job's wall-clock.
	tr := do(t, s, "GET", "/v1/jobs/"+v.ID+"/trace", "")
	if tr.Code != http.StatusOK {
		t.Fatalf("trace: %d %s", tr.Code, tr.Body)
	}
	tree, err := tracez.ParseTree(tr.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("span tree invalid: %v", err)
	}
	if tree.TraceID != wantTID {
		t.Fatalf("tree trace id %q, want %q", tree.TraceID, wantTID)
	}
	if cov := tree.Coverage(); cov < 0.95 {
		t.Fatalf("phase coverage %.3f, want >= 0.95", cov)
	}
	names := map[string]int{}
	var walk func(n *tracez.Node)
	walk = func(n *tracez.Node) {
		names[n.Name]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root)
	for _, want := range []string{"job", "queue", "run", "task", "cache", "store-get", "sim", "warmup", "measure", "interval", "energy-finalize"} {
		if names[want] == 0 {
			t.Fatalf("span tree missing %q; have %v", want, names)
		}
	}

	// The Chrome export is valid trace-event JSON with one complete
	// event per span.
	ch := do(t, s, "GET", "/v1/jobs/"+v.ID+"/trace?format=chrome", "")
	if ch.Code != http.StatusOK {
		t.Fatalf("chrome trace: %d %s", ch.Code, ch.Body)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(ch.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace not JSON: %v", err)
	}
	var complete int
	for _, e := range chrome.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete != tree.Spans {
		t.Fatalf("chrome trace has %d complete events for %d spans", complete, tree.Spans)
	}
	if bad := do(t, s, "GET", "/v1/jobs/"+v.ID+"/trace?format=svg", ""); bad.Code != http.StatusBadRequest {
		t.Fatalf("unknown format: %d, want 400", bad.Code)
	}

	// The structured log correlates job lines with the same trace ID.
	logs := logBuf.String()
	for _, want := range []string{"job accepted", "job running", "job done"} {
		found := false
		for _, line := range strings.Split(logs, "\n") {
			if !strings.Contains(line, want) {
				continue
			}
			found = true
			var rec struct {
				TraceID string `json:"trace_id"`
			}
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("log line not JSON: %q", line)
			}
			if rec.TraceID != wantTID {
				t.Fatalf("log %q trace_id %q, want %q", want, rec.TraceID, wantTID)
			}
		}
		if !found {
			t.Fatalf("log missing %q:\n%s", want, logs)
		}
	}
}

func TestTraceBeforeCompletionConflicts(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1 })
	s.testGate = make(chan struct{})
	v := submit(t, s, tinySpec(1))
	w := do(t, s, "GET", "/v1/jobs/"+v.ID+"/trace", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("trace while running: %d, want 409", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("409 without Retry-After")
	}
	close(s.testGate)
	waitDone(t, s, v.ID)
}

func TestUnsampledTraceReports404ButKeepsIDs(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		// A ratio this small head-samples everything out; the IDs are
		// still minted for log correlation.
		c.Tracer = tracez.New(tracez.Config{Seed: 11, SampleRatio: 1e-12})
	})
	v := submit(t, s, tinySpec(1))
	if v.TraceID == "" || v.TraceID == strings.Repeat("0", 32) {
		t.Fatalf("unsampled job lost its trace ID: %q", v.TraceID)
	}
	waitDone(t, s, v.ID)
	if w := do(t, s, "GET", "/v1/jobs/"+v.ID+"/trace", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unsampled trace: %d %s, want 404", w.Code, w.Body)
	}
}

func TestEventsLastEventIDResumes(t *testing.T) {
	s := newTestServer(t, nil)
	v := submit(t, s, tinySpec(1))
	waitDone(t, s, v.ID)

	full := do(t, s, "GET", "/v1/jobs/"+v.ID+"/events", "")
	total := strings.Count(full.Body.String(), "data: ")
	if total < 3 {
		t.Fatalf("expected several events, got %d:\n%s", total, full.Body)
	}

	// Resuming after event 1 must replay exactly the rest, starting
	// at seq 2.
	req := httptest.NewRequest("GET", "/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "1")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	body := w.Body.String()
	if got := strings.Count(body, "data: "); got != total-2 {
		t.Fatalf("resume replayed %d events, want %d:\n%s", got, total-2, body)
	}
	if !strings.Contains(body, "id: 2\n") || strings.Contains(body, "id: 1\n") {
		t.Fatalf("resume did not start at seq 2:\n%s", body)
	}
}

func TestMetricsHistogramsAndTracerStats(t *testing.T) {
	s := newTestServer(t, nil)
	v := submit(t, s, tinySpec(1))
	waitDone(t, s, v.ID)
	w := do(t, s, "GET", "/metrics", "")
	text := w.Body.String()
	for _, want := range []string{
		"esteem_serve_queue_wait_seconds_bucket{le=\"+Inf\"} 1",
		"esteem_serve_queue_wait_seconds_count 1",
		"esteem_serve_job_compute_seconds_count 1",
		"esteem_serve_job_cache_hit_seconds_count 0",
		"esteem_serve_trace_spans_buffered",
		"esteem_serve_trace_spans_dropped_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	// A second identical submission is served from the store and
	// lands in the cache-hit histogram.
	v2 := submit(t, s, tinySpec(1))
	waitDone(t, s, v2.ID)
	text = do(t, s, "GET", "/metrics", "").Body.String()
	if !strings.Contains(text, "esteem_serve_job_cache_hit_seconds_count 1") {
		t.Fatalf("cache-hit histogram not incremented:\n%s", text)
	}
}

func TestHistogramFormat(t *testing.T) {
	h := metricsz.NewRecorder([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var b bytes.Buffer
	metricsz.WriteText(&b, []metricsz.Series{metricsz.Hist("x_seconds", "help text", h.Snapshot())}, "")
	out := b.String()
	for _, want := range []string{
		"# TYPE x_seconds histogram",
		"x_seconds_bucket{le=\"0.1\"} 1",
		"x_seconds_bucket{le=\"1\"} 2",
		"x_seconds_bucket{le=\"+Inf\"} 3",
		"x_seconds_sum 5.55",
		"x_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("histogram output missing %q:\n%s", want, out)
		}
	}
}

// drainEvents follows an SSE stream until the server closes it,
// failing the test on timeout; used where the recorder-based do()
// would block forever on an unfinished stream.
func drainEvents(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan string, 1)
	go func() {
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				done <- sb.String()
				return
			}
		}
	}()
	select {
	case s := <-done:
		return s
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not complete")
		return ""
	}
}

func TestLiveStreamCarriesTraceIDs(t *testing.T) {
	s := newTestServer(t, nil)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	v := submit(t, s, tinySpec(3))
	text := drainEvents(t, srv.URL, v.ID)
	if !strings.Contains(text, fmt.Sprintf("%q:%q", "trace_id", v.TraceID)) {
		t.Fatalf("live stream missing trace_id %s:\n%s", v.TraceID, text)
	}
	if !strings.Contains(text, `"state":"done"`) {
		t.Fatalf("live stream missing terminal state:\n%s", text)
	}
}
