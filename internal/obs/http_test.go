package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// get fetches one path from the telemetry server and returns the body.
func get(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
	}
	return string(body)
}

// TestTelemetryServerEndpoints spins the endpoint on a loopback port
// and smoke-tests every route, and pins that the retired re-encodings
// of /dump (/metrics, /spans, /series) are gone.
func TestTelemetryServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("collect.tests").Add(42)
	r.Gauge("collect.stream.chunks").Set(8)
	r.Histogram("resolver.hops", Bounds(4, 8)).Observe(6)
	sp := r.Span("collect")
	sp.End()
	s := r.EnableTimeSeries(nil)
	s.Advance(60)

	srv, err := r.ServeTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()

	var dump Dump
	if err := json.Unmarshal([]byte(get(t, addr, "/dump")), &dump); err != nil {
		t.Fatalf("/dump not valid JSON: %v", err)
	}
	if dump.Counters["collect.tests"] != 42 || dump.Gauges["collect.stream.chunks"] != 8 {
		t.Errorf("/dump counters = %+v, gauges = %+v", dump.Counters, dump.Gauges)
	}
	if h := dump.Histograms["resolver.hops"]; h.Count != 1 || h.Sum != 6 {
		t.Errorf("/dump histogram = %+v", h)
	}
	if len(dump.Spans) != 1 || dump.Spans[0].Name != "collect" {
		t.Errorf("/dump spans = %+v", dump.Spans)
	}
	if d := dump.Series["collect.tests"]; len(d.Points) != 1 || d.Points[0].Value != 42 {
		t.Errorf("/dump series collect.tests = %+v", d)
	}

	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get(t, addr, "/trace")), &trace); err != nil {
		t.Fatalf("/trace not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) < 2 {
		t.Errorf("/trace has %d events, want >= 2", len(trace.TraceEvents))
	}

	if idx := get(t, addr, "/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%.300s", idx)
	}
	if root := get(t, addr, "/"); !strings.Contains(root, "/dump") || strings.Contains(root, "/metrics") {
		t.Errorf("index page route list wrong:\n%s", root)
	}
	for _, path := range []string{"/metrics", "/spans", "/series"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestTelemetryServerNilRegistry asserts the endpoint refuses a
// disabled registry instead of serving empty pages forever.
func TestTelemetryServerNilRegistry(t *testing.T) {
	var r *Registry
	if _, err := r.ServeTelemetry("127.0.0.1:0"); err == nil {
		t.Fatal("nil registry ServeTelemetry did not error")
	}
	var srv *TelemetryServer
	if srv.Addr() != "" || srv.Close() != nil {
		t.Error("nil server handle not inert")
	}
}
