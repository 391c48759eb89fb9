package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// The snapshot sink. Snapshot flattens a registry into a Dump — a plain
// data struct that marshals to the one JSON document of a run's
// metrics, served as `tputlab -metrics-json FILE`, as the telemetry
// endpoint's /dump, and checked by the CI metrics jobs. A human reads
// it with jq; `-metrics-json /dev/stderr` prints it after a run.

// Dump is a point-in-time export of a registry.
type Dump struct {
	Counters   map[string]uint64        `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]HistogramDump `json:"histograms"`
	Spans      []SpanDump               `json:"spans"`
	// Series carries the simulated-clock time series when a Sampler is
	// attached (timeseries.go); absent otherwise.
	Series map[string]SeriesDump `json:"series,omitempty"`
	// Events carries the progress bus counters when a Bus is attached
	// (events.go); absent otherwise.
	Events *EventStats `json:"events,omitempty"`
}

// HistogramDump is one exported histogram. P50/P90/P99 are
// bucket-interpolated quantile estimates (see Histogram.Quantile).
type HistogramDump struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	P50     float64      `json:"p50"`
	P90     float64      `json:"p90"`
	P99     float64      `json:"p99"`
	Buckets []BucketDump `json:"buckets"`
}

// BucketDump is one histogram bucket; the overflow bucket has
// Upper = +Inf, exported as the string "+Inf".
type BucketDump struct {
	Upper float64 `json:"-"`
	Count uint64  `json:"count"`
}

// MarshalJSON renders the bucket with a JSON-safe upper bound.
func (b BucketDump) MarshalJSON() ([]byte, error) {
	upper := "+Inf"
	if !math.IsInf(b.Upper, 1) {
		upper = fmt.Sprintf("%g", b.Upper)
	}
	return json.Marshal(struct {
		Upper string `json:"le"`
		Count uint64 `json:"count"`
	}{upper, b.Count})
}

// SpanDump is one exported span subtree.
type SpanDump struct {
	Name     string     `json:"name"`
	Millis   float64    `json:"ms"`
	Children []SpanDump `json:"children,omitempty"`

	start, end time.Time // absolute times, for WriteTrace
}

// Snapshot exports the registry's current state. On a nil registry it
// returns an empty (but non-nil) dump, so callers can marshal it
// unconditionally.
func (r *Registry) Snapshot() *Dump {
	d := &Dump{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramDump{},
	}
	if r == nil {
		return d
	}
	r.mu.Lock()
	for name, c := range r.counters {
		d.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		d.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hd := HistogramDump{Count: h.Count(), Sum: h.Sum()}
		counts := make([]uint64, len(h.counts))
		for i := range h.counts {
			upper := math.Inf(1)
			if i < len(h.bounds) {
				upper = h.bounds[i]
			}
			counts[i] = h.counts[i].Load()
			hd.Buckets = append(hd.Buckets, BucketDump{Upper: upper, Count: counts[i]})
		}
		hd.P50 = quantile(h.bounds, counts, 0.50)
		hd.P90 = quantile(h.bounds, counts, 0.90)
		hd.P99 = quantile(h.bounds, counts, 0.99)
		d.Histograms[name] = hd
	}
	r.mu.Unlock()

	if s := r.TimeSeries(); s != nil {
		d.Series = s.DumpSeries()
	}
	if b := r.Events(); b != nil {
		st := b.Stats()
		d.Events = &st
	}

	d.Spans = r.spanForest(time.Now())
	return d
}

// spanForest copies the span tree under the span mutex. Unended spans
// are clamped to now, so a live export (the telemetry endpoint) shows
// in-progress phases up to the present.
func (r *Registry) spanForest(now time.Time) []SpanDump {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	return copySpans(r.roots, now)
}

func copySpans(spans []*Span, now time.Time) []SpanDump {
	var out []SpanDump
	for _, s := range spans {
		end := now
		if s.ended {
			end = s.start.Add(s.dur)
		}
		out = append(out, SpanDump{Name: s.name, Millis: float64(end.Sub(s.start).Microseconds()) / 1000,
			Children: copySpans(s.children, now), start: s.start, end: end})
	}
	return out
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
