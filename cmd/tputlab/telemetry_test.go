package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	saved := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = saved
	w.Close()
	return <-out, runErr
}

// TestReportTelemetryInvariance drives every telemetry output at once
// through the CLI: the report must be byte-identical to a plain run,
// each output must parse, and the event stream must end with
// campaign.done.
func TestReportTelemetryInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	args := []string{"-scale", "small", "-tests", "1500"}
	plain, err := captureStdout(t, func() error { return reportCmd(args) })
	if err != nil {
		t.Fatalf("plain report: %v", err)
	}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	events := filepath.Join(dir, "events.ndjson")
	trace := filepath.Join(dir, "trace.json")
	telemetered, err := captureStdout(t, func() error {
		return reportCmd(append(args, "-metrics-json", metrics, "-events", events,
			"-trace-out", trace, "-telemetry-addr", "127.0.0.1:0"))
	})
	if err != nil {
		t.Fatalf("telemetered report: %v", err)
	}
	if plain == "" || telemetered != plain {
		t.Fatalf("telemetry changed the report:\n--- plain ---\n%s\n--- telemetered ---\n%s", plain, telemetered)
	}

	var dump struct {
		Counters map[string]uint64          `json:"counters"`
		Spans    []json.RawMessage          `json:"spans"`
		Series   map[string]json.RawMessage `json:"series"`
		Events   struct {
			ByKind map[string]uint64 `json:"by_kind"`
		} `json:"events"`
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("-metrics-json does not parse: %v", err)
	}
	if dump.Counters["collect.tests"] == 0 || len(dump.Spans) == 0 || len(dump.Series) == 0 ||
		dump.Events.ByKind["campaign.done"] != 1 {
		t.Errorf("-metrics-json lacks a section: %d counters, %d spans, %d series, events %v",
			len(dump.Counters), len(dump.Spans), len(dump.Series), dump.Events.ByKind)
	}

	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if raw, err = os.ReadFile(trace); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("-trace-out: %d events, err %v", len(doc.TraceEvents), err)
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var last struct {
		Kind string `json:"kind"`
	}
	lines := 0
	for sc := bufio.NewScanner(f); sc.Scan(); lines++ {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("-events line %d does not parse: %v", lines+1, err)
		}
	}
	if lines == 0 || last.Kind != "campaign.done" {
		t.Errorf("-events: %d lines ending in %q, want a stream ending in campaign.done", lines, last.Kind)
	}
}

// TestEmitMetricsReleasesOnWriteError pins that a failed -metrics-json
// write still closes the -events file and the -telemetry-addr
// listener, and surfaces the write error.
func TestEmitMetricsReleasesOnWriteError(t *testing.T) {
	dir := t.TempDir()
	cf := &commonFlags{
		metricsJSON:   filepath.Join(dir, "missing", "metrics.json"),
		events:        filepath.Join(dir, "events.ndjson"),
		telemetryAddr: "127.0.0.1:0",
	}
	reg, err := cf.telemetry()
	if err != nil {
		t.Fatal(err)
	}
	addr := cf.server.Addr()
	err = cf.emitMetrics(reg, nil)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("emitMetrics = %v, want the missing-directory error", err)
	}
	if err := cf.eventsFile.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("-events file left open (second Close = %v)", err)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Errorf("telemetry listener %s still accepts connections", addr)
	}
}

// TestTelemetryServeErrorClosesEvents pins that an endpoint that fails
// to listen does not leak the already-opened -events file.
func TestTelemetryServeErrorClosesEvents(t *testing.T) {
	cf := &commonFlags{
		events:        filepath.Join(t.TempDir(), "events.ndjson"),
		telemetryAddr: "127.0.0.1:-1",
	}
	if _, err := cf.telemetry(); err == nil {
		t.Fatal("telemetry with an unusable address did not error")
	}
	if err := cf.eventsFile.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("-events file left open (second Close = %v)", err)
	}
}

// TestRetiredTelemetryFlags pins that the outputs another output
// already carries are gone from the run/report flag set.
func TestRetiredTelemetryFlags(t *testing.T) {
	for _, args := range [][]string{{"-metrics"}, {"-progress"}, {"-telemetry-linger", "1s"}} {
		fs := flag.NewFlagSet("report", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cf := addCommonFlags(fs)
		if err := cf.parse(fs, args); err == nil {
			t.Errorf("%v accepted, want an unknown-flag error", args)
		}
	}
}
