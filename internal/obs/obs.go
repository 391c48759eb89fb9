// Package obs is the pipeline's observability layer: a dependency-free
// registry of named counters, gauges, and fixed-bucket histograms, plus
// a phase-span tracer (span.go), one JSON snapshot of all of it
// (sink.go), a simulated-clock sampler (timeseries.go), a progress
// event bus (events.go), a Chrome trace export (traceexport.go) and a
// live HTTP endpoint over the snapshot and trace (http.go).
//
// Design constraints, in order:
//
//   - Invariance. Instrumentation may never change results. Metrics are
//     passive observers of deterministic computations; every golden hash
//     and byte-identity test in the repo runs with and without a live
//     registry and must not notice (asserted by the platform and
//     experiments golden tests).
//   - Disabled is free. A nil *Registry — and every handle obtained from
//     one — is a valid no-op: Add/Set/Observe/Span on nil receivers
//     return immediately without allocating (pinned at 0 allocs/op by
//     BenchmarkCounterAddDisabled and TestDisabledHandlesZeroAlloc), so
//     instrumented hot paths cost one predictable branch when nobody is
//     looking.
//   - Race-safe. Handles are updated from the stream.For workers of
//     CollectStreamCtx and RunParallelCtx: all mutation goes through
//     sync/atomic, and registration is mutex-guarded so two goroutines
//     asking for the same name share one metric.
//
// Typical use: the CLI creates one Registry per run when any telemetry
// flag is set, threads it through topogen.Config,
// platform.CollectConfig, mapit.Opts, and experiments.Options, and
// renders it once at exit. Layers that keep
// their own always-on counters (routing.Resolver) bind to a private
// registry by default and rebind via their Observe method when a shared
// one is supplied.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of metrics plus a span tracer. The
// zero value is not usable; call NewRegistry. A nil *Registry is the
// canonical disabled registry: every method on it returns a no-op
// handle.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	spanMu sync.Mutex
	roots  []*Span
	stack  []*Span // innermost-open sequential spans

	// Live-telemetry attachments (nil until enabled): the
	// simulated-clock sampler (timeseries.go) and the progress event
	// bus (events.go). Loaded lock-free on the hot paths so an
	// unattached registry pays one atomic load.
	sampler atomic.Pointer[Sampler]
	bus     atomic.Pointer[Bus]
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named monotonic counter, creating it on first
// use. On a nil registry it returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// CountersWithPrefix snapshots every counter whose name starts with
// prefix, keyed by full name. On a nil registry it returns nil. The
// fault layer's per-kind outcome counters are read back this way
// ("faults.") by the stats summary and the CLI's JSON sink.
func (r *Registry) CountersWithPrefix(prefix string) map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64)
	for name, c := range r.counters {
		if strings.HasPrefix(name, prefix) {
			out[name] = c.Value()
		}
	}
	return out
}

// Gauge returns the named gauge, creating it on first use. On a nil
// registry it returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with
// the given ascending upper bounds on first use (an implicit +Inf
// overflow bucket is always appended). Later calls with the same name
// return the existing histogram regardless of bounds. On a nil registry
// it returns a nil (no-op) handle.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// Bounds is a convenience constructor for histogram bucket bounds.
func Bounds(bounds ...float64) []float64 { return bounds }

// Counter is a monotonically increasing uint64. The nil handle is a
// no-op; Add is safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level. The nil handle is a no-op; Set and
// Add are safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on the nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets (upper-bound
// inclusive) plus an overflow bucket, and tracks count and sum. The nil
// handle is a no-op; Observe is safe for concurrent use and allocation
// free.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on the nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on the nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the mean observed value (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the p-quantile (p in [0, 1]) by linear
// interpolation inside the bucket that contains the target rank, the
// standard fixed-bucket estimator: a bucket's mass is spread uniformly
// between its lower and upper bound. Observations in the +Inf overflow
// bucket are credited to the largest finite bound (there is nothing to
// interpolate toward), so the estimate is clamped to the configured
// bucket range. Returns 0 on the nil handle or an empty histogram.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return quantile(h.bounds, counts, p)
}

// quantile is the bucket-interpolation estimator shared by
// Histogram.Quantile and the sink's HistogramDump percentiles. bounds
// holds the finite upper bounds; counts has len(bounds)+1 entries, the
// last being the +Inf overflow bucket.
func quantile(bounds []float64, counts []uint64, p float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(total)
	if target < 1 {
		target = 1 // the quantile of a tiny sample is its first point
	}
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			if i >= len(bounds) {
				// Overflow bucket: clamp to the largest finite bound.
				if len(bounds) == 0 {
					return 0
				}
				return bounds[len(bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			return lower + (bounds[i]-lower)*(target-cum)/float64(c)
		}
		cum = next
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}
