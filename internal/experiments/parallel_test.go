package experiments

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
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

// serialGolden is the sha256 of the serial reference's bytes: the
// registry's output over QuickOptions, which `tputlab run all -scale
// small -seed 1` prints too. Like TestReportGolden's pins, it follows
// the host's math.Exp (ROADMAP item 6).
const serialGolden = "c41efb9f145bcc4aa274bc5cf1433957d16973574431d3bdb68c261a9eea01f4"

// TestRunParallelGolden asserts the engine's core contract on the
// shared, uninstrumented Env: the serial reference renders the pinned
// bytes, and RunParallelCtx output is byte-identical to it.
func TestRunParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(serial(t).out))); got != serialGolden {
		t.Errorf("serial output sha256 %s, want %s", got, serialGolden)
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

// checkSweepTree asserts the experiment sweep's span tree in d: one
// "experiments" root with one child per registry entry, and every
// generate and collect span an experiment opens on its own directly
// under that experiment's span — one collect under matching, two under
// battlefornet and one generate under snapshots — and nowhere else
// under "experiments".
func checkSweepTree(t *testing.T, d *obs.Dump) {
	t.Helper()
	var sweeps []obs.SpanDump
	for _, s := range d.Spans {
		if s.Name == "experiments" {
			sweeps = append(sweeps, s)
		}
	}
	if len(sweeps) != 1 {
		t.Fatalf("%d experiments root spans, want 1", len(sweeps))
	}
	entries := Registry()
	children := sweeps[0].Children
	if len(children) != len(entries) {
		t.Fatalf("experiments span has %d children, want %d", len(children), len(entries))
	}
	want := map[string][2]int{"matching": {1, 0}, "battlefornet": {2, 0}, "snapshots": {0, 1}}
	seen := map[string]bool{}
	for _, c := range children {
		if seen[c.Name] {
			t.Errorf("experiment %q has two spans", c.Name)
		}
		seen[c.Name] = true
		var direct, nested [2]int
		for _, g := range c.Children {
			direct[0] += btoi(g.Name == "collect")
			direct[1] += btoi(g.Name == "generate")
		}
		var walk func(obs.SpanDump)
		walk = func(s obs.SpanDump) {
			for _, g := range s.Children {
				nested[0] += btoi(g.Name == "collect")
				nested[1] += btoi(g.Name == "generate")
				walk(g)
			}
		}
		walk(c)
		if w := want[c.Name]; direct != w || nested != w {
			t.Errorf("experiment %s: (collect, generate) spans %v directly under it, %v in its subtree, want %v",
				c.Name, direct, nested, w)
		}
	}
	for _, e := range entries {
		if !seen[e.Name] {
			t.Errorf("no span recorded for experiment %q", e.Name)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRunParallelGoldenWithObs pins the observability invariance
// guarantee on the experiment sweep: running with a live registry
// attached the way the CLI attaches it (Opts.Obs, Opts.Topo.Obs and
// Opts.Collect.Obs, so the experiments' own generation and collection
// are traced too) produces output byte-identical to the uninstrumented
// serial reference, and the span tree is the one checkSweepTree pins,
// at both worker counts. Its Env has Opts.Workers 4, so the
// experiments' own parallel paths run too: the per-VP fan-out (the
// 4-worker leg goes first, so it builds the VP cache) and the
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
		own.Opts.Obs, own.Opts.Topo.Obs, own.Opts.Collect.Obs = reg, reg, reg
		sweep(t, own, workers)
		d := reg.Snapshot()
		if len(d.Spans) != 1 {
			t.Errorf("want one root span (experiments), got %d", len(d.Spans))
		}
		checkSweepTree(t, d)
		for _, e := range Registry() {
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
// does — before NewEnvCtx, so world generation, the Env's pass, and the
// worlds and corpora some experiments build on their own are all
// traced — and runs the sweep with several workers. Under -race this
// asserts that concurrent span opening is safe; the output must still
// match the uninstrumented serial reference, the sweep's span tree
// is the one checkSweepTree pins, and the sweep leaves the Env's
// inference telemetry as the Env's own pass set it.
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
	built := inferenceMetrics(reg.Snapshot())
	sweep(t, instrumented, 2)
	d := reg.Snapshot()
	// The run's inference metrics describe the Env's own pass: the
	// experiments' MAP-IT and matching runs (ablation, the VP analyses,
	// battlefornet's Envs) leave them as the Env left them.
	if after := inferenceMetrics(d); !maps.Equal(after, built) {
		for name, v := range after {
			if built[name] != v {
				t.Errorf("%s = %d after the sweep, %d when the Env was built", name, v, built[name])
			}
		}
	}
	var names []string
	for _, s := range d.Spans {
		names = append(names, s.Name)
	}
	if got, want := strings.Join(names, " "), "generate pipeline.pass1 mapit match experiments"; got != want {
		t.Errorf("root spans = %s, want %s", got, want)
	}
	// The Env's one pass: its four stages, and the collection feeding
	// them under it.
	var pass []string
	for _, c := range d.Spans[1].Children {
		pass = append(pass, c.Name)
	}
	slices.Sort(pass)
	if got, want := strings.Join(pass, " "), "collect corpus mapit match"; got != want {
		t.Errorf("pipeline.pass1 children = %s, want %s", got, want)
	}
	checkSweepTree(t, d)
	if reg.Counter("collect.tests").Value() == 0 {
		t.Error("collect.tests counter empty on instrumented env")
	}
	if reg.Counter("resolver.segment.hits").Value() == 0 {
		t.Error("resolver counters not rebound onto the pipeline registry")
	}
}

// inferenceMetrics is the Env's inference telemetry in d: every mapit.*
// and match.* counter and gauge, and every pipeline.pass1.*.items
// counter.
func inferenceMetrics(d *obs.Dump) map[string]int64 {
	out := map[string]int64{}
	inference := func(name string) bool {
		return strings.HasPrefix(name, "mapit.") || strings.HasPrefix(name, "match.") ||
			strings.HasPrefix(name, "pipeline.pass1.") && strings.HasSuffix(name, ".items")
	}
	for name, v := range d.Counters {
		if inference(name) {
			out[name] = int64(v)
		}
	}
	for name, v := range d.Gauges {
		if inference(name) {
			out[name] = v
		}
	}
	return out
}

// TestExperimentsHonorCancellation runs the experiments that generate
// or collect on their own under an already-cancelled context: each
// fails with an error that names it and wraps the context's cause.
func TestExperimentsHonorCancellation(t *testing.T) {
	cause := errors.New("stop")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	for _, name := range []string{"matching", "battlefornet", "snapshots"} {
		entry, _ := Find(name)
		_, err := entry.RunCtx(ctx, env())
		if !errors.Is(err, cause) || !strings.Contains(fmt.Sprint(err), "experiment "+name) {
			t.Errorf("%s under a cancelled context: err = %v, want one naming it and wrapping %v", name, err, cause)
		}
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
