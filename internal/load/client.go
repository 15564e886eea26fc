// The load generator's HTTP client: readiness probing, metrics
// scraping, and a submit-and-wait request path that treats
// connection-level failures during server start/drain as retryable
// with bounded backoff (429 load-shedding is recorded, never
// retried — an open-loop generator must not convert shed load into
// deferred load).
package load

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"syscall"
	"time"

	"repro/internal/metricsz"
	"repro/internal/serve"
)

// RetryableConnErr reports whether err is a connection-level failure
// worth retrying against a server that is starting up or draining:
// refused/reset connections and abruptly closed responses.
func RetryableConnErr(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.EOF)
}

// WaitReady polls GET /healthz until the server answers 200, retrying
// connection errors with doubling backoff (25ms up to 500ms) within
// timeout. It replaces the smoke scripts' sleep-and-hope loops.
func WaitReady(ctx context.Context, server string, timeout time.Duration) error {
	base := strings.TrimRight(server, "/")
	deadline := time.Now().Add(timeout)
	backoff := 25 * time.Millisecond
	var lastErr error
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("healthz: %s", resp.Status)
		} else {
			lastErr = err
		}
		if time.Now().Add(backoff).After(deadline) {
			return fmt.Errorf("load: server %s not ready within %s: %w", server, timeout, lastErr)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// client drives one esteem-serve daemon.
type client struct {
	base    string
	http    *http.Client
	retries int // connection-error retries per request
}

func newClient(server string, retries int) *client {
	if retries < 0 {
		retries = 0
	}
	return &client{
		base:    strings.TrimRight(server, "/"),
		http:    &http.Client{},
		retries: retries,
	}
}

// scrape fetches the JSON metrics view.
func (c *client) scrape(ctx context.Context) (metricsz.Snapshot, error) {
	var v metricsz.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics?format=json", nil)
	if err != nil {
		return v, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("GET /metrics?format=json: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("decoding metrics view: %w", err)
	}
	return v, nil
}

// cacheDelta converts two metric snapshots into the window's cache
// behaviour.
func cacheDelta(before, after metricsz.Snapshot) CacheStats {
	c := func(name string) uint64 {
		d := after.Counters[name] - before.Counters[name]
		return d
	}
	st := CacheStats{
		Hits:         c("esteem_serve_cache_hits_total"),
		Misses:       c("esteem_serve_cache_misses_total"),
		Coalesced:    c("esteem_serve_cache_coalesced_total"),
		Computes:     c("esteem_serve_cache_computes_total"),
		SimsExecuted: c("esteem_serve_sims_executed_total"),
	}
	if lookups := st.Hits + st.Coalesced + st.Misses; lookups > 0 {
		st.HitRate = float64(st.Hits+st.Coalesced) / float64(lookups)
	}
	qb := before.Histograms["esteem_serve_queue_wait_seconds"]
	qa := after.Histograms["esteem_serve_queue_wait_seconds"]
	if dc := qa.Count - qb.Count; dc > 0 {
		st.QueueWaitMeanMs = (qa.SumSeconds - qb.SumSeconds) / float64(dc) * 1e3
	}
	return st
}

// reqResult is one request's outcome.
type reqResult struct {
	ok       bool
	rejected bool // 429 after admission
	err      error
	latency  time.Duration
	retries  int
}

// submitAndWait posts one job and waits for its terminal state,
// measuring end-to-end latency (submission to completion). Connection
// errors retry with bounded backoff; 429 records a rejection.
func (c *client) submitAndWait(ctx context.Context, spec serve.JobSpec) reqResult {
	body, err := json.Marshal(spec)
	if err != nil {
		return reqResult{err: err}
	}
	start := time.Now()
	res := reqResult{}

	var id string
	backoff := 50 * time.Millisecond
	for attempt := 0; ; attempt++ {
		id, err = c.post(ctx, body)
		if err == nil {
			break
		}
		var rej rejectedErr
		if errors.As(err, &rej) {
			res.rejected = true
			res.latency = time.Since(start)
			return res
		}
		if attempt >= c.retries || !RetryableConnErr(err) {
			res.err = err
			res.latency = time.Since(start)
			return res
		}
		res.retries++
		select {
		case <-ctx.Done():
			res.err = ctx.Err()
			return res
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}

	if err := c.waitTerminal(ctx, id); err != nil {
		res.err = err
		res.latency = time.Since(start)
		return res
	}
	res.ok = true
	res.latency = time.Since(start)
	return res
}

// rejectedErr marks a 429 admission rejection.
type rejectedErr struct{}

func (rejectedErr) Error() string { return "rejected: admission queue full (429)" }

// post submits the job body and returns the job ID.
func (c *client) post(ctx context.Context, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return "", rejectedErr{}
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	var view struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(payload, &view); err != nil {
		return "", err
	}
	if view.ID == "" {
		return "", fmt.Errorf("submit: response carried no job id")
	}
	return view.ID, nil
}

// waitTerminal follows the job's SSE stream until a terminal state;
// if the stream drops it falls back to status polling.
func (c *client) waitTerminal(ctx context.Context, id string) error {
	if done, err := c.streamUntilTerminal(ctx, id); done {
		return err
	}
	// Stream dropped mid-job (drain, proxy, transient): poll status.
	tick := 25 * time.Millisecond
	for {
		state, jobErr, err := c.status(ctx, id)
		if err == nil {
			switch serve.State(state) {
			case serve.StateDone:
				return nil
			case serve.StateFailed, serve.StateCanceled:
				return fmt.Errorf("job %s %s: %s", id, state, jobErr)
			}
		} else if !RetryableConnErr(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(tick):
		}
		if tick *= 2; tick > 500*time.Millisecond {
			tick = 500 * time.Millisecond
		}
	}
}

// streamUntilTerminal consumes the SSE event stream. done reports
// whether a terminal state was seen (err then carries the job's
// outcome); done=false means the stream broke and the caller should
// fall back to polling.
func (c *client) streamUntilTerminal(ctx context.Context, id string) (done bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return false, nil
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) != nil {
			continue
		}
		switch serve.State(ev.State) {
		case serve.StateDone:
			return true, nil
		case serve.StateFailed, serve.StateCanceled:
			return true, fmt.Errorf("job %s %s: %s", id, ev.State, ev.Error)
		}
	}
	return false, nil
}

// status fetches a job's state.
func (c *client) status(ctx context.Context, id string) (state, jobErr string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return "", "", err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", "", fmt.Errorf("GET /v1/jobs/%s: %s: %s", id, resp.Status, strings.TrimSpace(string(body)))
	}
	var v struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", "", err
	}
	return v.State, v.Error, nil
}
