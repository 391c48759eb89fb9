package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"throughputlab/internal/obs"
)

// runSerial is the reference sweep: every registry experiment in
// order on the calling goroutine, stopping at the first failure with
// the output of the entries before it.
func runSerial(e *Env) (string, error) {
	var sb strings.Builder
	for _, entry := range Registry() {
		r, err := entry.Run(e)
		if err != nil {
			return sb.String(), fmt.Errorf("experiment %s: %w", entry.Name, err)
		}
		sb.WriteString(renderEntry(entry, r))
	}
	return sb.String(), nil
}

// TestRunParallelGolden asserts the engine's core contract:
// RunParallelCtx output is byte-identical to the serial reference for
// every worker count.
func TestRunParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry four times")
	}
	want, err := runSerial(env)
	if err != nil {
		t.Fatalf("runSerial: %v", err)
	}
	if len(want) < 1000 {
		t.Fatalf("serial output suspiciously small (%d bytes)", len(want))
	}
	for _, workers := range []int{1, 2, 8} {
		got, stats, err := RunParallelCtx(context.Background(), env, workers)
		if err != nil {
			t.Fatalf("RunParallelCtx(%d): %v", workers, err)
		}
		if got != want {
			t.Errorf("RunParallelCtx(%d) output differs from the serial reference (%d vs %d bytes)",
				workers, len(got), len(want))
		}
		if stats == nil {
			t.Fatalf("RunParallelCtx(%d): nil stats", workers)
		}
		entries := Registry()
		if len(stats.Experiments) != len(entries) {
			t.Fatalf("RunParallelCtx(%d): %d stats, want %d", workers, len(stats.Experiments), len(entries))
		}
		for i, st := range stats.Experiments {
			if st.Name != entries[i].Name {
				t.Errorf("stats[%d] = %q, want registry order %q", i, st.Name, entries[i].Name)
			}
			if st.Wall <= 0 {
				t.Errorf("experiment %s has non-positive wall time", st.Name)
			}
		}
		if stats.Wall <= 0 {
			t.Errorf("RunParallelCtx(%d): non-positive sweep wall time", workers)
		}
		if s := stats.Summary(); len(s) < 100 {
			t.Errorf("stats summary too short: %q", s)
		}
	}
}

// TestSummaryDeterministicTieBreak pins the Summary ordering contract:
// slowest experiment first, and equal wall times break ties by name so
// two renderings of the same stats are always byte-identical.
func TestSummaryDeterministicTieBreak(t *testing.T) {
	s := &RunStats{
		Workers: 2,
		Wall:    2 * time.Second,
		Experiments: []ExperimentStat{
			{Name: "fig5", Wall: time.Second},
			{Name: "ablation", Wall: time.Second},
			{Name: "table1", Wall: 2 * time.Second},
			{Name: "coverage", Wall: time.Second},
		},
	}
	out := s.Summary()
	want := []string{"table1", "ablation", "coverage", "fig5"}
	pos := make([]int, len(want))
	for i, name := range want {
		pos[i] = strings.Index(out, name)
		if pos[i] < 0 {
			t.Fatalf("summary missing %q:\n%s", name, out)
		}
	}
	for i := 1; i < len(pos); i++ {
		if pos[i] < pos[i-1] {
			t.Errorf("summary order wrong: want %v (slowest first, ties by name), got:\n%s", want, out)
			break
		}
	}
	if s.Summary() != out {
		t.Error("Summary not deterministic across calls")
	}
}

// TestRunParallelGoldenWithObs pins the observability invariance
// guarantee on the experiment sweep: running with a live registry
// attached produces output byte-identical to the uninstrumented serial
// baseline, and the registry ends up holding one child span per
// experiment under the "experiments" phase.
func TestRunParallelGoldenWithObs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry three times")
	}
	want, err := runSerial(env)
	if err != nil {
		t.Fatalf("runSerial: %v", err)
	}
	defer func() { env.Opts.Obs = nil }()
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		env.Opts.Obs = reg
		got, stats, err := RunParallelCtx(context.Background(), env, workers)
		if err != nil {
			t.Fatalf("RunParallelCtx(%d): %v", workers, err)
		}
		if got != want {
			t.Errorf("instrumented RunParallelCtx(%d) output differs from the serial reference (%d vs %d bytes)",
				workers, len(got), len(want))
		}
		d := reg.Snapshot()
		if len(d.Spans) != 1 || d.Spans[0].Name != "experiments" {
			t.Fatalf("want one experiments root span, got %+v", d.Spans)
		}
		entries := Registry()
		if len(d.Spans[0].Children) != len(entries) {
			t.Fatalf("experiments span has %d children, want %d", len(d.Spans[0].Children), len(entries))
		}
		seen := map[string]bool{}
		for _, c := range d.Spans[0].Children {
			seen[c.Name] = true
		}
		for _, e := range entries {
			if !seen[e.Name] {
				t.Errorf("no span recorded for experiment %q", e.Name)
			}
			// Allocation is measured only serially: overlapping
			// experiments would share one process-wide delta.
			v, ok := d.Gauges["experiments."+e.Name+".alloc_bytes"]
			if workers == 1 && (!ok || v <= 0) {
				t.Errorf("serial sweep: alloc gauge for %q = %d (set=%v), want > 0", e.Name, v, ok)
			}
			if workers > 1 && ok {
				t.Errorf("parallel sweep set alloc gauge for %q", e.Name)
			}
		}
		// The stats table is a view over the same registry.
		for _, st := range stats.Experiments {
			if st.Wall <= 0 {
				t.Errorf("experiment %s span recorded no duration", st.Name)
			}
			if workers > 1 && st.AllocBytes != 0 {
				t.Errorf("parallel sweep attributed %d bytes to %s", st.AllocBytes, st.Name)
			}
		}
		if hasMB := strings.Contains(stats.Summary(), " MB\n"); hasMB != (workers == 1) {
			t.Errorf("workers=%d: Summary alloc column present=%v, want %v:\n%s",
				workers, hasMB, workers == 1, stats.Summary())
		}
	}
}

// TestRunParallelFullyInstrumented wires the registry the way the CLI
// does — before NewEnvCtx, so world generation, collection, and the
// sub-environments some experiments rebuild are all traced — and runs
// the sweep with several workers. Sub-environment experiments push
// phase spans on the shared registry stack concurrently; under -race
// this asserts that is safe, and the output must still match an
// uninstrumented serial run of the same environment.
func TestRunParallelFullyInstrumented(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an extra world and runs the registry twice")
	}
	reg := obs.NewRegistry()
	opts := QuickOptions()
	opts.Obs = reg
	instrumented, err := NewEnvCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runSerial(instrumented)
	if err != nil {
		t.Fatalf("runSerial: %v", err)
	}
	got, _, err := RunParallelCtx(context.Background(), instrumented, 4)
	if err != nil {
		t.Fatalf("RunParallelCtx: %v", err)
	}
	if got != want {
		t.Errorf("fully instrumented parallel output differs from serial (%d vs %d bytes)",
			len(got), len(want))
	}
	d := reg.Snapshot()
	names := map[string]bool{}
	for _, s := range d.Spans {
		names[s.Name] = true
	}
	for _, wantRoot := range []string{"generate", "collect", "mapit", "match", "experiments"} {
		if !names[wantRoot] {
			t.Errorf("missing root phase span %q (have %+v)", wantRoot, d.Spans)
		}
	}
	if reg.Counter("collect.tests").Value() == 0 {
		t.Error("collect.tests counter empty on instrumented env")
	}
	if reg.Counter("resolver.segment.hits").Value() == 0 {
		t.Error("resolver counters not rebound onto the pipeline registry")
	}
}

// TestNewEnvWorkerIndependence asserts that the worker knob never
// changes the environment: corpus sizes, inference, and matching are
// identical for serial and parallel construction.
func TestNewEnvWorkerIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an extra world")
	}
	opts := QuickOptions()
	opts.Collect.Tests = 2000
	serial, err := NewEnvCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	par, err := NewEnvCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Corpus.Tests) != len(serial.Corpus.Tests) ||
		len(par.Corpus.Traces) != len(serial.Corpus.Traces) ||
		par.Corpus.TestsWithoutTrace != serial.Corpus.TestsWithoutTrace {
		t.Fatalf("corpus differs: %d/%d/%d vs %d/%d/%d",
			len(par.Corpus.Tests), len(par.Corpus.Traces), par.Corpus.TestsWithoutTrace,
			len(serial.Corpus.Tests), len(serial.Corpus.Traces), serial.Corpus.TestsWithoutTrace)
	}
	for i := range serial.Corpus.Tests {
		a, b := serial.Corpus.Tests[i], par.Corpus.Tests[i]
		if a.ClientAddr != b.ClientAddr || a.StartMinute != b.StartMinute || a.DownMbps != b.DownMbps {
			t.Fatalf("test %d differs between worker counts", i)
		}
	}
	if len(par.Inference.Links) != len(serial.Inference.Links) {
		t.Fatalf("inference differs: %d vs %d links",
			len(par.Inference.Links), len(serial.Inference.Links))
	}
	for i := range serial.Inference.Links {
		if par.Inference.Links[i] != serial.Inference.Links[i] {
			t.Fatalf("link %d differs between worker counts", i)
		}
	}
	if par.Matching.Matched() != serial.Matching.Matched() {
		t.Fatalf("matching differs: %d vs %d", par.Matching.Matched(), serial.Matching.Matched())
	}
}
