package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// The two sinks. Snapshot flattens a registry into a Dump — a plain
// data struct that marshals to the JSON/expvar-style document consumed
// by `tputlab run -metrics-json` and the CI metrics job — and Summary renders the same information for humans on stderr.

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

	r.spanMu.Lock()
	roots := append([]*Span(nil), r.roots...)
	r.spanMu.Unlock()
	for _, s := range roots {
		d.Spans = append(d.Spans, dumpSpan(s))
	}
	return d
}

func dumpSpan(s *Span) SpanDump {
	sd := SpanDump{Name: s.Name(), Millis: float64(s.Duration().Microseconds()) / 1000}
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		sd.Children = append(sd.Children, dumpSpan(c))
	}
	return sd
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Summary renders the phase tree and all metrics as human-readable
// text, names sorted, suitable for stderr. On a nil registry it returns
// "".
func (r *Registry) Summary() string {
	if r == nil {
		return ""
	}
	d := r.Snapshot()
	var sb strings.Builder
	if len(d.Spans) > 0 {
		sb.WriteString("phases:\n")
		for _, s := range d.Spans {
			writeSpanTree(&sb, s, 1)
		}
	}
	writeSection(&sb, "counters", d.Counters, func(v uint64) string {
		return fmt.Sprintf("%d", v)
	})
	writeSection(&sb, "gauges", d.Gauges, func(v int64) string {
		return fmt.Sprintf("%d", v)
	})
	if len(d.Histograms) > 0 {
		sb.WriteString("histograms:\n")
		for _, name := range sortedKeys(d.Histograms) {
			h := d.Histograms[name]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&sb, "  %-44s count=%d mean=%.2f p50=%.2f p90=%.2f p99=%.2f",
				name, h.Count, mean, h.P50, h.P90, h.P99)
			for _, b := range h.Buckets {
				if b.Count == 0 {
					continue
				}
				upper := "+Inf"
				if !math.IsInf(b.Upper, 1) {
					upper = fmt.Sprintf("%g", b.Upper)
				}
				fmt.Fprintf(&sb, " ≤%s:%d", upper, b.Count)
			}
			sb.WriteByte('\n')
		}
	}
	if len(d.Series) > 0 {
		fmt.Fprintf(&sb, "series: %d metrics sampled on the simulated clock\n", len(d.Series))
	}
	if d.Events != nil {
		fmt.Fprintf(&sb, "events: published=%d dropped=%d\n", d.Events.Published, d.Events.Dropped)
	}
	return sb.String()
}

func writeSpanTree(sb *strings.Builder, s SpanDump, depth int) {
	fmt.Fprintf(sb, "%s%-*s %9.1f ms\n",
		strings.Repeat("  ", depth), 46-2*depth, s.Name, s.Millis)
	for _, c := range s.Children {
		writeSpanTree(sb, c, depth+1)
	}
}

func writeSection[V any](sb *strings.Builder, title string, m map[string]V, format func(V) string) {
	if len(m) == 0 {
		return
	}
	sb.WriteString(title + ":\n")
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(sb, "  %-44s %s\n", name, format(m[name]))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
