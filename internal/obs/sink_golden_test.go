package obs

import (
	"encoding/json"
	"testing"
)

// zeroSpanMillis strips the only nondeterministic field of a dump —
// measured wall durations — so the remainder can be compared to a
// golden document byte for byte.
func zeroSpanMillis(spans []SpanDump) {
	for i := range spans {
		spans[i].Millis = 0
		zeroSpanMillis(spans[i].Children)
	}
}

// TestSnapshotGoldenSchema pins the exact serialized shape of a fully
// telemetered dump — counters, gauges, histograms with percentiles,
// spans, simulated-clock series, and event stats. The CI metrics and
// telemetry jobs, and any external dashboard, parse this document; a
// key rename or structural change must show up here as a diff, not in
// a broken consumer.
func TestSnapshotGoldenSchema(t *testing.T) {
	r := NewRegistry()
	r.Counter("collect.tests").Add(42)
	r.Gauge("collect.stream.chunks").Set(3)
	r.Histogram("match.delay", Bounds(10, 100)).Observe(50)
	sp := r.Span("collect")
	sp.Child("collect.execute").End()
	sp.End()
	r.EnableTimeSeries(func(name string) bool { return name == "collect.tests" }).Advance(60)
	bus := r.EnableEvents(8)
	bus.Publish("collect.chunk", "", 60, 0)
	bus.Close()

	d := r.Snapshot()
	zeroSpanMillis(d.Spans)
	got, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{
  "counters": {
    "collect.tests": 42
  },
  "gauges": {
    "collect.stream.chunks": 3
  },
  "histograms": {
    "match.delay": {
      "count": 1,
      "sum": 50,
      "p50": 100,
      "p90": 100,
      "p99": 100,
      "buckets": [
        {
          "le": "10",
          "count": 0
        },
        {
          "le": "100",
          "count": 1
        },
        {
          "le": "+Inf",
          "count": 0
        }
      ]
    }
  },
  "spans": [
    {
      "name": "collect",
      "ms": 0,
      "children": [
        {
          "name": "collect.execute",
          "ms": 0
        }
      ]
    }
  ],
  "series": {
    "collect.tests": {
      "kind": "counter",
      "step_minutes": 60,
      "points": [
        {
          "m": 60,
          "v": 42
        }
      ]
    }
  },
  "events": {
    "published": 1,
    "dropped": 0,
    "by_kind": {
      "collect.chunk": 1
    }
  }
}`
	if string(got) != golden {
		t.Errorf("dump schema drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}
