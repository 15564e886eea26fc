// Package metricsz is the one metrics core behind every service
// endpoint that reports its own counters: serve's /metrics, the
// cluster worker's /metrics, the coordinator's fleet aggregation, the
// load generator and the client. (internal/metrics is the paper's
// Eq. 2–9 metrics; this package is about the service around them.)
//
// A node describes its metrics once, as an ordered Series list. The
// Prometheus text exposition (WriteText) and the JSON Snapshot
// (NewSnapshot) are both derived from that list, so the two formats
// can never disagree about which series exist. The package imports
// nothing from the repository, so every layer can share it without
// import cycles.
package metricsz

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// Bucket is one cumulative histogram bucket: the count of samples
// <= LE.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// Histogram is a histogram snapshot: cumulative bucket counts below
// each upper bound, plus the total count and sum. The +Inf bucket is
// implied by Count.
type Histogram struct {
	Count      uint64   `json:"count"`
	SumSeconds float64  `json:"sum_seconds"`
	Buckets    []Bucket `json:"buckets"`
}

// Quantile estimates the q-quantile (0 < q <= 1) of the histogram —
// the same linear-interpolation-within-bucket estimate Prometheus's
// histogram_quantile() computes, so dashboards and the client's
// cluster top agree with PromQL. The estimate assumes samples spread
// uniformly across the first cumulative bucket containing the target
// rank; ranks landing in the implicit +Inf bucket clamp to the highest
// finite bound. An empty histogram reports 0.
func (h Histogram) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Buckets) == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	lower := 0.0
	var below uint64
	for _, b := range h.Buckets {
		if float64(b.Count) >= rank {
			in := b.Count - below
			if in == 0 {
				return b.LE
			}
			return lower + (b.LE-lower)*(rank-float64(below))/float64(in)
		}
		lower = b.LE
		below = b.Count
	}
	return h.Buckets[len(h.Buckets)-1].LE
}

// Recorder is a concurrency-safe fixed-bucket histogram.
type Recorder struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; +Inf is implicit
	counts []uint64  // len(bounds)+1; last is the overflow bucket
	sum    float64
	count  uint64
}

// NewRecorder returns an empty histogram over the sorted upper bounds.
func NewRecorder(bounds []float64) *Recorder {
	return &Recorder{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample; it lands in the first bucket whose
// bound is >= v.
func (r *Recorder) Observe(v float64) {
	i := sort.SearchFloat64s(r.bounds, v)
	r.mu.Lock()
	r.counts[i]++
	r.sum += v
	r.count++
	r.mu.Unlock()
}

// Snapshot returns the histogram's current cumulative view.
func (r *Recorder) Snapshot() Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := Histogram{Count: r.count, SumSeconds: r.sum, Buckets: make([]Bucket, len(r.bounds))}
	var cum uint64
	for i, b := range r.bounds {
		cum += r.counts[i]
		h.Buckets[i] = Bucket{LE: b, Count: cum}
	}
	return h
}

// Snapshot is one node's metrics in JSON form, the shape every node
// serves on /metrics?format=json. Keys of Gauges, Counters and
// Histograms are the Prometheus series names of the text exposition.
type Snapshot struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Gauges        map[string]float64   `json:"gauges"`
	Counters      map[string]uint64    `json:"counters"`
	Histograms    map[string]Histogram `json:"histograms"`
}

// NewSnapshot collects series into a snapshot. The maps are never nil,
// so an empty kind encodes as {} rather than null.
func NewSnapshot(uptimeSeconds float64, series []Series) Snapshot {
	s := Snapshot{
		UptimeSeconds: uptimeSeconds,
		Gauges:        map[string]float64{},
		Counters:      map[string]uint64{},
		Histograms:    map[string]Histogram{},
	}
	for _, x := range series {
		switch x.kind {
		case gauge:
			s.Gauges[x.name] = x.gauge
		case counter:
			s.Counters[x.name] = x.counter
		case histogram:
			s.Histograms[x.name] = x.hist
		}
	}
	return s
}

// Merge folds src into s, whose maps must be non-nil: counters and
// gauges sum, histogram buckets merge bucket-wise by LE boundary, and
// uptime takes the max (a fleet is as old as its oldest member).
func (s *Snapshot) Merge(src Snapshot) {
	if src.UptimeSeconds > s.UptimeSeconds {
		s.UptimeSeconds = src.UptimeSeconds
	}
	for k, v := range src.Gauges {
		s.Gauges[k] += v
	}
	for k, v := range src.Counters {
		s.Counters[k] += v
	}
	for k, h := range src.Histograms {
		into := s.Histograms[k]
		into.Count += h.Count
		into.SumSeconds += h.SumSeconds
		byLE := make(map[float64]uint64, len(into.Buckets))
		for _, b := range into.Buckets {
			byLE[b.LE] = b.Count
		}
		for _, b := range h.Buckets {
			byLE[b.LE] += b.Count
		}
		into.Buckets = into.Buckets[:0]
		for le, n := range byLE {
			into.Buckets = append(into.Buckets, Bucket{LE: le, Count: n})
		}
		sort.Slice(into.Buckets, func(i, j int) bool { return into.Buckets[i].LE < into.Buckets[j].LE })
		s.Histograms[k] = into
	}
}

// Series returns the snapshot's series for WriteText, without help
// text: gauges, then counters, then histograms, each sorted by name.
func (s Snapshot) Series() []Series {
	out := make([]Series, 0, len(s.Gauges)+len(s.Counters)+len(s.Histograms))
	for _, k := range sortedKeys(s.Gauges) {
		out = append(out, Gauge(k, "", s.Gauges[k]))
	}
	for _, k := range sortedKeys(s.Counters) {
		out = append(out, Counter(k, "", s.Counters[k]))
	}
	for _, k := range sortedKeys(s.Histograms) {
		out = append(out, Hist(k, "", s.Histograms[k]))
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type kind uint8

const (
	gauge kind = iota
	counter
	histogram
)

var kindNames = [...]string{gauge: "gauge", counter: "counter", histogram: "histogram"}

// Series is one named metric with its value and optional help text.
type Series struct {
	name, help string
	kind       kind
	gauge      float64
	counter    uint64
	hist       Histogram
}

// Gauge is a series whose value can go up and down.
func Gauge(name, help string, v float64) Series {
	return Series{name: name, help: help, kind: gauge, gauge: v}
}

// Counter is a monotonically increasing series.
func Counter(name, help string, v uint64) Series {
	return Series{name: name, help: help, kind: counter, counter: v}
}

// Hist is a histogram series (Prometheus _bucket, _sum and _count).
func Hist(name, help string, h Histogram) Series {
	return Series{name: name, help: help, kind: histogram, hist: h}
}

// WriteText renders series in the Prometheus text exposition format,
// in order. A series with help text gets # HELP and # TYPE lines; a
// non-empty node adds a {node="..."} label to every sample.
func WriteText(w io.Writer, series []Series, node string) {
	// bucketOpen starts a _bucket sample's label set; the le label
	// closes it.
	label, bucketOpen := "", "{"
	if node != "" {
		label = fmt.Sprintf("{node=%q}", node)
		bucketOpen = fmt.Sprintf("{node=%q,", node)
	}
	for _, s := range series {
		if s.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", s.name, s.help, s.name, kindNames[s.kind])
		}
		switch s.kind {
		case gauge:
			fmt.Fprintf(w, "%s%s %g\n", s.name, label, s.gauge)
		case counter:
			fmt.Fprintf(w, "%s%s %d\n", s.name, label, s.counter)
		case histogram:
			// Bucket counts are cumulative, as the format requires.
			for _, b := range s.hist.Buckets {
				fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", s.name, bucketOpen, strconv.FormatFloat(b.LE, 'g', -1, 64), b.Count)
			}
			fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", s.name, bucketOpen, s.hist.Count)
			fmt.Fprintf(w, "%s_sum%s %g\n", s.name, label, s.hist.SumSeconds)
			fmt.Fprintf(w, "%s_count%s %d\n", s.name, label, s.hist.Count)
		}
	}
}
