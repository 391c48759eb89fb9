package obs

import "testing"

// Benchmarks pinning the two contracts the rest of the pipeline builds
// on: the disabled (nil-handle) path is a branch — 0 allocs/op,
// sub-nanosecond — and the enabled path is one atomic op with 0
// allocs/op. BenchmarkCounterAddDisabled is the regression guard the
// ISSUE requires: the observability layer can never silently put
// allocations back on the PR-2 hot paths.

func BenchmarkCounterAddDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("disabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterAddEnabled(b *testing.B) {
	c := NewRegistry().Counter("enabled")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Value() == 0 {
		b.Fatal("counter not incremented")
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var r *Registry
	h := r.Histogram("disabled", Bounds(1, 2, 4, 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 15))
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := NewRegistry().Histogram("enabled", Bounds(1, 2, 4, 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 15))
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := r.Span("phase")
		sp.End()
	}
}

// BenchmarkEventPublishDisabled pins the disabled event-bus path at 0
// allocs/op: emission sites (chunk sinks, pipeline stages, fault
// retries) publish unconditionally, so a run without -events must pay
// one nil check and nothing else.
func BenchmarkEventPublishDisabled(b *testing.B) {
	var r *Registry
	bus := r.Events()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish("collect.chunk", "", i, int64(i))
	}
}

// BenchmarkEventPublishEnabled measures the live publish path (a
// non-blocking channel send) with a draining consumer.
func BenchmarkEventPublishEnabled(b *testing.B) {
	bus := NewRegistry().EnableEvents(1024)
	bus.AddSink(func(Event) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish("collect.chunk", "", i, int64(i))
	}
	bus.Close()
}

// BenchmarkSamplerAdvanceNoBoundary measures the per-chunk cost of
// Advance when no step boundary is crossed — the common case on the
// streaming sink path.
func BenchmarkSamplerAdvanceNoBoundary(b *testing.B) {
	r := NewRegistry()
	r.Counter("collect.tests").Add(1)
	s := r.EnableTimeSeries(nil)
	s.Advance(60)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Advance(61)
	}
}
