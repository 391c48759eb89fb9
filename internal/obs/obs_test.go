package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	if r.Counter("c") != c {
		t.Error("re-registration returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}

	h := r.Histogram("h", Bounds(1, 2, 4))
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("histogram count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Errorf("histogram sum = %g, want 106", got)
	}
	if got := h.Mean(); got != 106.0/5 {
		t.Errorf("histogram mean = %g, want %g", got, 106.0/5)
	}
	d := r.Snapshot()
	hd := d.Histograms["h"]
	wantBuckets := []uint64{2, 1, 1, 1} // ≤1, ≤2, ≤4, +Inf
	if len(hd.Buckets) != len(wantBuckets) {
		t.Fatalf("bucket count = %d, want %d", len(hd.Buckets), len(wantBuckets))
	}
	for i, want := range wantBuckets {
		if hd.Buckets[i].Count != want {
			t.Errorf("bucket %d = %d, want %d", i, hd.Buckets[i].Count, want)
		}
	}
}

// TestNilRegistryNoOps asserts the disabled path: every operation on a
// nil registry and on the handles it returns is a safe no-op.
func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter not zero")
	}
	g := r.Gauge("g")
	g.Set(5)
	g.Add(1)
	if g.Value() != 0 {
		t.Error("nil gauge not zero")
	}
	h := r.Histogram("h", Bounds(1))
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Error("nil histogram not zero")
	}
	sp := r.Span("phase")
	child := sp.Child("sub")
	child.End()
	sp.End()
	if sp.Name() != "" || sp.Duration() != 0 {
		t.Error("nil span not inert")
	}
	d := r.Snapshot()
	if d == nil || len(d.Counters) != 0 || len(d.Spans) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	outer := r.Span("outer")
	inner := r.Span("inner")
	leaf := r.Span("leaf")
	leaf.End()
	inner.End()
	// Concurrent-style children attach explicitly.
	c1 := outer.Child("c1")
	c2 := outer.Child("c2")
	c2.End()
	c1.End()
	outer.End()
	sibling := r.Span("sibling")
	sibling.End()

	d := r.Snapshot()
	if len(d.Spans) != 2 || d.Spans[0].Name != "outer" || d.Spans[1].Name != "sibling" {
		t.Fatalf("roots = %+v, want [outer sibling]", d.Spans)
	}
	names := make([]string, 0, 3)
	for _, c := range d.Spans[0].Children {
		names = append(names, c.Name)
	}
	if strings.Join(names, ",") != "inner,c1,c2" {
		t.Errorf("outer children = %v, want [inner c1 c2]", names)
	}
	if len(d.Spans[0].Children[0].Children) != 1 || d.Spans[0].Children[0].Children[0].Name != "leaf" {
		t.Errorf("inner children = %+v, want [leaf]", d.Spans[0].Children[0].Children)
	}
}

// TestSpanEndOutOfOrder asserts a missing inner End cannot wedge the
// sequential stack: ending an outer span pops everything above it.
func TestSpanEndOutOfOrder(t *testing.T) {
	r := NewRegistry()
	outer := r.Span("outer")
	_ = r.Span("forgotten") // never ended
	outer.End()
	after := r.Span("after")
	after.End()
	d := r.Snapshot()
	if len(d.Spans) != 2 || d.Spans[1].Name != "after" {
		t.Fatalf("roots = %+v, want [outer after]", d.Spans)
	}
	outer.End() // double End is a no-op
	if got := outer.Duration(); got <= 0 {
		t.Errorf("outer duration = %v, want > 0", got)
	}
}

func TestSpanDurationRecorded(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("sleep")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if d := sp.Duration(); d < 2*time.Millisecond {
		t.Errorf("duration = %v, want >= 2ms", d)
	}
	fixed := sp.Duration()
	time.Sleep(time.Millisecond)
	if sp.Duration() != fixed {
		t.Error("ended span duration not fixed")
	}
}

// TestWriteJSONRoundTrip asserts the dump is valid JSON with the keys
// the CI metrics job requires.
func TestWriteJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("resolver.segment.hits").Add(7)
	r.Gauge("collect.shard.00.tests").Set(19)
	r.Histogram("resolver.resolve.hops", Bounds(4, 8)).Observe(6)
	sp := r.Span("generate")
	sp.Child("generate.bgp").End()
	sp.End()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Counters   map[string]uint64 `json:"counters"`
		Gauges     map[string]int64  `json:"gauges"`
		Histograms map[string]struct {
			Count   uint64 `json:"count"`
			Buckets []struct {
				Upper string `json:"le"`
				Count uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
		Spans []struct {
			Name     string          `json:"name"`
			Millis   float64         `json:"ms"`
			Children json.RawMessage `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if d.Counters["resolver.segment.hits"] != 7 {
		t.Error("counter missing from dump")
	}
	if d.Gauges["collect.shard.00.tests"] != 19 {
		t.Error("gauge missing from dump")
	}
	h := d.Histograms["resolver.resolve.hops"]
	if h.Count != 1 || len(h.Buckets) != 3 || h.Buckets[2].Upper != "+Inf" {
		t.Errorf("histogram dump wrong: %+v", h)
	}
	if len(d.Spans) != 1 || d.Spans[0].Name != "generate" {
		t.Errorf("spans dump wrong: %+v", d.Spans)
	}
}

// TestRegistryConcurrentShards hammers one registry from many
// goroutines — counters, gauges, histograms, registration of the same
// and distinct names, and child spans — mirroring how the stream.For
// workers of CollectStreamCtx and RunParallelCtx share the CLI
// registry. Run under -race in CI.
func TestRegistryConcurrentShards(t *testing.T) {
	r := NewRegistry()
	parent := r.Span("parallel")
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sp := parent.Child("shard")
			shared := r.Counter("shared")
			own := r.Counter("own." + string(rune('a'+w)))
			g := r.Gauge("level")
			h := r.Histogram("hist", Bounds(10, 100, 1000))
			for i := 0; i < perWorker; i++ {
				shared.Inc()
				own.Inc()
				g.Add(1)
				h.Observe(float64(i))
			}
			sp.End()
		}(w)
	}
	wg.Wait()
	parent.End()

	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("level").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("hist", nil)
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(workers) * float64(perWorker*(perWorker-1)) / 2
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %g, want %g", got, wantSum)
	}
	d := r.Snapshot()
	if len(d.Spans) != 1 || len(d.Spans[0].Children) != workers {
		t.Errorf("span tree: %d roots, %d children; want 1 root with %d children",
			len(d.Spans), len(d.Spans[0].Children), workers)
	}
}

// TestDisabledHandlesZeroAlloc pins the disabled-path contract: metric
// updates through nil handles must never allocate, so uninstrumented
// hot paths (the PR-2 resolver and collection loops) cannot regress.
func TestDisabledHandlesZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", Bounds(1))
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(3)
		h.Observe(2)
	}); n != 0 {
		t.Errorf("disabled metric update allocates %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sp := r.Span("s")
		sp.Child("c").End()
		sp.End()
	}); n != 0 {
		t.Errorf("disabled span allocates %v allocs/op, want 0", n)
	}
	bus := r.Events()
	if n := testing.AllocsPerRun(100, func() {
		bus.Publish("collect.chunk", "", 0, 1)
	}); n != 0 {
		t.Errorf("disabled event publish allocates %v allocs/op, want 0", n)
	}
}

// TestEnabledUpdateZeroAlloc pins the enabled hot increment path at
// zero allocations too — only registration (name lookup) may allocate.
func TestEnabledUpdateZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", Bounds(1, 2, 4))
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		h.Observe(3)
	}); n != 0 {
		t.Errorf("enabled metric update allocates %v allocs/op, want 0", n)
	}
}
