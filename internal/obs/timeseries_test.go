package obs

import (
	"strings"
	"testing"
)

// points returns the named series' samples from the sampler's dump
// (nil when the metric was never sampled).
func points(s *Sampler, name string) []Point {
	return s.DumpSeries()[name].Points
}

// TestSamplerAdvanceStampsStepGrid asserts the core cadence contract:
// Advance stamps one sample at every step boundary crossed since the
// previous call, on a fixed simulated-time grid, no matter how the
// watermarks chunk the clock.
func TestSamplerAdvanceStampsStepGrid(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("collect.tests")
	s := r.EnableTimeSeries(nil)
	if got := r.TimeSeries(); got != s {
		t.Fatal("TimeSeries did not return the attached sampler")
	}

	c.Add(10)
	s.Advance(59) // before the first boundary: nothing stamped
	if pts := points(s, "collect.tests"); pts != nil {
		t.Fatalf("sample before first boundary: %+v", pts)
	}
	c.Add(5)
	s.Advance(60) // exactly on the boundary
	c.Add(100)
	s.Advance(61)  // same step: no new sample
	s.Advance(350) // jumps steps 120, 180, 240, 300 in one watermark
	c.Add(1)
	s.Finalize(350) // between boundaries: one closing stamp

	pts := points(s, "collect.tests")
	wantMinutes := []int{60, 120, 180, 240, 300, 350}
	if len(pts) != len(wantMinutes) {
		t.Fatalf("points = %+v, want minutes %v", pts, wantMinutes)
	}
	for i, m := range wantMinutes {
		if pts[i].Minute != m {
			t.Errorf("point %d minute = %d, want %d", i, pts[i].Minute, m)
		}
	}
	// Counter samples are cumulative: 15 at minute 60, 115 from 120 on,
	// 116 at the finalize stamp.
	wantValues := []float64{15, 115, 115, 115, 115, 116}
	for i, v := range wantValues {
		if pts[i].Value != v {
			t.Errorf("point %d value = %g, want %g", i, pts[i].Value, v)
		}
	}

	// Regressing watermarks (possible in no case today, but cheap to
	// pin) and a stale Finalize are ignored.
	s.Advance(100)
	s.Finalize(200)
	if got := len(points(s, "collect.tests")); got != len(wantMinutes) {
		t.Errorf("regressing watermark added samples: %d points", got)
	}
	// A dump taken earlier is not changed by later samples.
	c.Add(1)
	s.Advance(420)
	if len(pts) != len(wantMinutes) || pts[len(pts)-1].Value != 116 {
		t.Errorf("earlier dump changed by a later Advance: %+v", pts)
	}

	// Series are append-only: a whole 28-day campaign crossed in one
	// watermark keeps every hourly point, the first included.
	long := NewRegistry()
	long.Counter("collect.tests").Inc()
	ls := long.EnableTimeSeries(nil)
	ls.Advance(28 * 1440)
	if pts := points(ls, "collect.tests"); len(pts) != 28*24 || pts[0].Minute != 60 {
		t.Errorf("28-day campaign kept %d points from minute %d, want %d from 60",
			len(pts), pts[0].Minute, 28*24)
	}
}

// TestSamplerFilterAndKinds asserts the name filter and the per-kind
// sampling semantics (counter and histogram sample cumulative counts,
// gauges sample levels).
func TestSamplerFilterAndKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("collect.tests").Add(7)
	r.Gauge("collect.shard.00.tests").Set(3)
	r.Histogram("resolver.hops", Bounds(4, 8)).Observe(6)
	s := r.EnableTimeSeries(func(name string) bool {
		return !strings.HasPrefix(name, "collect.shard.")
	})
	s.Advance(60)
	dump := s.DumpSeries()
	if _, ok := dump["collect.shard.00.tests"]; ok {
		t.Error("filtered name was sampled")
	}
	if d := dump["collect.tests"]; d.Kind != "counter" || d.Points[0].Value != 7 {
		t.Errorf("counter series = %+v", d)
	}
	if d := dump["resolver.hops"]; d.Kind != "histogram" || d.Points[0].Value != 1 {
		t.Errorf("histogram series = %+v", d)
	}
}

// TestSamplerFirstEnableWins pins the CAS attachment contract shared
// with the event bus.
func TestSamplerFirstEnableWins(t *testing.T) {
	r := NewRegistry()
	r.Counter("collect.tests").Inc()
	a := r.EnableTimeSeries(nil)
	b := r.EnableTimeSeries(func(string) bool { return false })
	if a != b {
		t.Error("second EnableTimeSeries returned a different sampler")
	}
	b.Advance(60)
	if points(b, "collect.tests") == nil {
		t.Error("second enable replaced the filter")
	}
}

// TestSamplerNilDisabled asserts the disabled layer: a nil registry
// yields a nil sampler and every method on it is a safe no-op.
func TestSamplerNilDisabled(t *testing.T) {
	var r *Registry
	if s := r.EnableTimeSeries(nil); s != nil {
		t.Fatal("nil registry returned a sampler")
	}
	s := r.TimeSeries()
	s.Advance(120)
	s.Finalize(500)
	if s.DumpSeries() != nil {
		t.Error("nil sampler not inert")
	}
	if n := testing.AllocsPerRun(100, func() { s.Advance(60) }); n != 0 {
		t.Errorf("disabled Advance allocates %v allocs/op, want 0", n)
	}
}

// TestHistogramQuantile asserts the bucket-interpolation estimator.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", Bounds(10, 20, 40))
	// 10 observations ≤10, 10 in (10,20], none in (20,40], 5 overflow.
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	for i := 0; i < 5; i++ {
		h.Observe(100)
	}
	// p50: rank 12.5 of 25 → 2.5 into the (10,20] bucket of mass 10.
	if got := h.Quantile(0.5); got != 12.5 {
		t.Errorf("p50 = %g, want 12.5", got)
	}
	// p20: rank 5 of 25 → halfway up the [0,10] bucket.
	if got := h.Quantile(0.2); got != 5 {
		t.Errorf("p20 = %g, want 5", got)
	}
	// p99: rank 24.75 lands in the overflow bucket → clamped to 40.
	if got := h.Quantile(0.99); got != 40 {
		t.Errorf("p99 = %g, want 40 (overflow clamp)", got)
	}
	// Out-of-range p clamps; empty and nil histograms return 0.
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Error("p<0 not clamped")
	}
	empty := r.Histogram("empty", Bounds(1))
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile != 0")
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile != 0")
	}
}

// TestSnapshotPercentiles asserts the dump carries the p50/p90/p99
// estimates.
func TestSnapshotPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", Bounds(10, 100))
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	d := r.Snapshot()
	hd := d.Histograms["lat"]
	if hd.P50 != 5 || hd.P90 != 9 || hd.P99 != 9.9 {
		t.Errorf("percentiles = p50=%g p90=%g p99=%g, want 5/9/9.9", hd.P50, hd.P90, hd.P99)
	}
}
