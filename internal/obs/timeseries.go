package obs

import (
	"slices"
	"sync"
)

// The simulated-clock time-series layer. A campaign runs on a
// simulated clock (minutes since the campaign epoch), and the paper's
// core signals — diurnal throughput dips, per-interconnect congestion
// onset — are functions of that clock, not of wall time. A Sampler
// turns the registry's point-in-time metrics into time series by
// snapshotting every counter, gauge, and histogram count once per
// simulated hour, driven by the collection watermark that
// platform.CollectStreamCtx publishes with each chunk: chunks arrive in
// schedule order, their watermarks are monotone, so Advance observes a
// monotone simulated clock no matter how many workers produced the
// chunks and the sampled series are deterministic modulo the metric
// values themselves.
//
// Series are append-only: a campaign spans a fixed number of simulated
// days (28 by default, 673 hourly points at most), so every point is
// kept.

// SampleStepMin is the sampling cadence: one sample per simulated
// hour, the resolution of the paper's Fig-5 diurnal analysis.
const SampleStepMin = 60

// Point is one sample: the metric's value at a simulated minute.
type Point struct {
	// Minute is the simulated-clock stamp (minutes since campaign
	// epoch); points within one series are strictly increasing.
	Minute int `json:"m"`
	// Value is the sampled value: cumulative count for counters and
	// histogram counts, the current level for gauges.
	Value float64 `json:"v"`
}

// series is the sample history of one metric. All access goes through
// the owning Sampler's lock; points are only ever appended.
type series struct {
	kind   string // "counter", "gauge", "histogram"
	points []Point
}

// Sampler samples the registry on the simulated clock. Obtain one with
// Registry.EnableTimeSeries; a nil *Sampler is the disabled layer and
// every method on it is a no-op, so instrumented code calls
// reg.TimeSeries().Advance(...) unconditionally.
type Sampler struct {
	reg    *Registry
	filter func(name string) bool

	mu     sync.Mutex
	series map[string]*series
	// sampled is the last simulated minute a sample was stamped at
	// (-1 before the first sample).
	sampled int
}

// EnableTimeSeries attaches a simulated-clock sampler to the registry
// and returns it; the first call wins and later calls return the
// existing sampler. filter, when non-nil, selects which metric names
// are sampled — sampling every per-shard gauge of a 16-shard campaign
// is rarely what a dashboard wants. On a nil registry it returns nil.
func (r *Registry) EnableTimeSeries(filter func(name string) bool) *Sampler {
	if r == nil {
		return nil
	}
	s := &Sampler{reg: r, filter: filter, series: make(map[string]*series), sampled: -1}
	if r.sampler.CompareAndSwap(nil, s) {
		return s
	}
	return r.sampler.Load()
}

// TimeSeries returns the attached sampler (nil when none, or on a nil
// registry).
func (r *Registry) TimeSeries() *Sampler {
	if r == nil {
		return nil
	}
	return r.sampler.Load()
}

// Advance moves the simulated clock to watermark (minutes since the
// campaign epoch) and stamps one sample at every step boundary crossed
// since the previous call — a chunk whose watermark jumps several
// simulated hours yields several points, so consumers always see >= 1
// point per elapsed step. Regressing watermarks are ignored. Safe for
// use from the streaming sink goroutine; a no-op on the nil sampler.
func (s *Sampler) Advance(watermark int) {
	if s == nil || watermark < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// First boundary strictly after the last stamped sample; sample
	// boundaries are multiples of the step so the series is a fixed
	// simulated-time grid regardless of chunk sizes.
	next := (s.sampled/SampleStepMin + 1) * SampleStepMin
	if s.sampled < 0 {
		next = SampleStepMin
	}
	if next > watermark {
		return
	}
	// Every boundary in (sampled, watermark] observes the same metric
	// values — the registry is only knowable "now" — so sweep it once
	// and replicate the sample at each crossed boundary rather than
	// re-walking the registry per boundary (a single-chunk campaign can
	// cross hundreds of simulated hours in one call).
	s.sampleRangeLocked(next, watermark)
}

// Finalize stamps one last sample at the given simulated minute if it
// is past the last stamped sample — so a campaign whose final watermark
// lands between boundaries still records its closing totals. No-op on
// the nil sampler.
func (s *Sampler) Finalize(watermark int) {
	if s == nil || watermark < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if watermark > s.sampled {
		s.sampleRangeLocked(watermark, watermark)
	}
}

// sampleRangeLocked sweeps the registry once and stamps a sample of
// every selected metric at each step boundary from `from` through the
// largest boundary <= to (from itself counts as a boundary). Caller
// holds s.mu.
func (s *Sampler) sampleRangeLocked(from, to int) {
	r := s.reg
	r.mu.Lock()
	for name, c := range r.counters {
		s.recordRangeLocked(name, "counter", from, to, float64(c.Value()))
	}
	for name, g := range r.gauges {
		s.recordRangeLocked(name, "gauge", from, to, float64(g.Value()))
	}
	for name, h := range r.histograms {
		s.recordRangeLocked(name, "histogram", from, to, float64(h.Count()))
	}
	r.mu.Unlock()
	s.sampled = from + (to-from)/SampleStepMin*SampleStepMin
}

// recordRangeLocked appends the replicated samples of one metric at
// minutes from, from+step, ... up to to.
func (s *Sampler) recordRangeLocked(name, kind string, from, to int, v float64) {
	if s.filter != nil && !s.filter(name) {
		return
	}
	sr := s.series[name]
	if sr == nil {
		sr = &series{kind: kind}
		s.series[name] = sr
	}
	for m := from; m <= to; m += SampleStepMin {
		sr.points = append(sr.points, Point{Minute: m, Value: v})
	}
}

// SeriesDump is one exported time series.
type SeriesDump struct {
	Kind string `json:"kind"`
	// StepMinutes is the sampling cadence on the simulated clock.
	StepMinutes int     `json:"step_minutes"`
	Points      []Point `json:"points"`
}

// DumpSeries exports every sampled series keyed by metric name (nil on
// the nil sampler). Points are shared with the sampler, clipped so a
// later Advance appends elsewhere: a stamped point never changes.
func (s *Sampler) DumpSeries() map[string]SeriesDump {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]SeriesDump, len(s.series))
	for name, sr := range s.series {
		out[name] = SeriesDump{Kind: sr.kind, StepMinutes: SampleStepMin, Points: slices.Clip(sr.points)}
	}
	return out
}
