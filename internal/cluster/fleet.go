// Fleet metrics aggregation: GET /v1/cluster/metrics pulls every live
// member's JSON metrics snapshot, merges counters/gauges/histograms
// into fleet totals, and exposes the result as Prometheus text (fleet
// aggregates unlabeled, per-member breakdowns labeled {node="..."})
// or JSON (?format=json). The snapshot type, the merge and the text
// writer are internal/metricsz's, shared with serve and the worker.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/metricsz"
)

// MemberMetrics is one member's row in a fleet view: its snapshot, or
// the error that prevented fetching one (unreachable members are
// reported, not silently excluded — but their zeros don't pollute the
// fleet sums).
type MemberMetrics struct {
	URL     string             `json:"url"`
	Error   string             `json:"error,omitempty"`
	Metrics *metricsz.Snapshot `json:"metrics,omitempty"`
}

// FleetView is the JSON shape of GET /v1/cluster/metrics?format=json.
type FleetView struct {
	Self    string            `json:"self"`
	Members []MemberMetrics   `json:"members"`
	Fleet   metricsz.Snapshot `json:"fleet"`
}

// FleetMetrics fetches every live member's snapshot in parallel and
// returns the merged view. Fetch failures degrade to per-member Error
// fields; the fleet totals cover reachable members only.
func (c *Coordinator) FleetMetrics(ctx context.Context) FleetView {
	members := c.MemberURLs()
	view := FleetView{
		Self:    c.cfg.Self,
		Members: make([]MemberMetrics, len(members)),
		Fleet:   metricsz.NewSnapshot(0, nil),
	}
	var wg sync.WaitGroup
	for i, u := range members {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			view.Members[i] = MemberMetrics{URL: u}
			m, err := c.fetchMemberMetrics(ctx, u)
			if err != nil {
				view.Members[i].Error = err.Error()
				return
			}
			view.Members[i].Metrics = m
		}(i, u)
	}
	wg.Wait()
	for _, m := range view.Members {
		if m.Metrics != nil {
			view.Fleet.Merge(*m.Metrics)
		}
	}
	return view
}

func (c *Coordinator) fetchMemberMetrics(ctx context.Context, base string) (*metricsz.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(base, "/")+"/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var m metricsz.Snapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxClusterBody)).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding metrics: %w", err)
	}
	if m.Gauges == nil {
		m.Gauges = map[string]float64{}
	}
	if m.Counters == nil {
		m.Counters = map[string]uint64{}
	}
	if m.Histograms == nil {
		m.Histograms = map[string]metricsz.Histogram{}
	}
	return &m, nil
}

func (c *Coordinator) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	view := c.FleetMetrics(r.Context())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, view)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeFleetText(w, view)
}

// writeFleetText renders the Prometheus text view: fleet aggregates
// under the original (unlabeled) series names, so existing single-node
// scrapes and the smoke tests' `awk '$1 == metric'` keep working, then
// per-member breakdowns labeled {node="URL"}.
func writeFleetText(w io.Writer, view FleetView) {
	reachable := 0
	for _, m := range view.Members {
		if m.Metrics != nil {
			reachable++
		}
	}
	header := []metricsz.Series{
		metricsz.Gauge("esteem_fleet_members", "", float64(len(view.Members))),
		metricsz.Gauge("esteem_fleet_members_reachable", "", float64(reachable)),
		metricsz.Gauge("esteem_fleet_uptime_seconds", "", view.Fleet.UptimeSeconds),
	}
	metricsz.WriteText(w, append(header, view.Fleet.Series()...), "")
	for _, m := range view.Members {
		if m.Metrics != nil {
			metricsz.WriteText(w, m.Metrics.Series(), m.URL)
		}
	}
}
