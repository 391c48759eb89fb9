package experiments

import (
	"context"
	"testing"

	"throughputlab/internal/obs"
)

// sweep runs RunParallelCtx over e and checks the engine's core
// contract: output byte-identical to the serial reference. The sweep
// tests share the worker counts between them, so the registry runs
// once per count: 8 uninstrumented here, 4 and 1 with a registry
// attached (on an Env with Opts.Workers 4), 2 on a fully instrumented
// Env, and 1 again for the metric-name walk.
func sweep(t *testing.T, e *Env, workers int) {
	t.Helper()
	got, err := RunParallelCtx(context.Background(), e, workers)
	if err != nil {
		t.Fatalf("RunParallelCtx(%d): %v", workers, err)
	}
	if want := serial(t).out; got != want {
		t.Errorf("RunParallelCtx(%d) output differs from the serial reference (%d vs %d bytes)",
			workers, len(got), len(want))
	}
}

// TestRunParallelGolden asserts the engine's core contract on the
// shared, uninstrumented Env: RunParallelCtx output is byte-identical
// to the serial reference.
func TestRunParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	if out := serial(t).out; len(out) < 1000 {
		t.Fatalf("serial output suspiciously small (%d bytes)", len(out))
	}
	sweep(t, env(), 8)
}

// TestNoCoreFallbacks guards the topology: after world generation,
// collection and the serial reference sweep have all resolved through
// the world's resolver, no AS may have been routed through a metro it
// has no presence in. A fallback is a topology bug the metro-keyed
// caches would otherwise mask.
func TestNoCoreFallbacks(t *testing.T) {
	serial(t)
	if n := env().World.Resolver.Stats().CoreFallbacks; n != 0 {
		t.Errorf("resolver took %d core fallbacks, want 0", n)
	}
}

// TestRunParallelGoldenWithObs pins the observability invariance
// guarantee on the experiment sweep: running with a live registry
// attached produces output byte-identical to the uninstrumented serial
// reference, and the registry ends up holding one child span per
// experiment under the "experiments" phase. Its Env has Opts.Workers 4,
// so the experiments' own parallel paths run too: the per-VP fan-out
// (the 4-worker leg goes first, so it builds the VP cache) and the
// collections inside matching, snapshots and battlefornet.
func TestRunParallelGoldenWithObs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry twice")
	}
	// This test's own Env: the shared one's world, corpus and inference,
	// read-only, under options it can attach a registry to.
	shared := env()
	own := &Env{Opts: shared.Opts, World: shared.World, Corpus: shared.Corpus,
		Inference: shared.Inference, Matching: shared.Matching}
	own.Opts.Workers = 4
	for _, workers := range []int{4, 1} {
		reg := obs.NewRegistry()
		own.Opts.Obs = reg
		sweep(t, own, workers)
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
	}
}

// TestRunParallelFullyInstrumented wires the registry the way the CLI
// does — before NewEnvCtx, so world generation, collection, and the
// sub-environments some experiments rebuild are all traced — and runs
// the sweep with several workers. Sub-environment experiments push
// phase spans on the shared registry stack concurrently; under -race
// this asserts that is safe, and the output must still match the
// uninstrumented serial reference.
func TestRunParallelFullyInstrumented(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an extra world and runs the registry")
	}
	reg := obs.NewRegistry()
	opts := QuickOptions()
	opts.Obs = reg
	instrumented, err := NewEnvCtx(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	sweep(t, instrumented, 2)
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
