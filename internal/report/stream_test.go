package report

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"throughputlab/internal/core"
	"throughputlab/internal/experiments"
	"throughputlab/internal/faults"
	"throughputlab/internal/mapit"
	"throughputlab/internal/ndt"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
	"throughputlab/internal/stream"
	"throughputlab/internal/traceroute"
)

// streamBuild runs the streaming assembly over the shared world's
// campaign under ccfg in the two-read order the builder also accepts:
// the traces of one collection, then FinishInference, then the rest
// from a second collection of the deterministic stream.
// TestStreamReportPipelinedStages covers the one-read order. ccfg.Obs,
// when set, also instruments the builder.
func streamBuild(cfg Config, ccfg platform.CollectConfig, workers int) (*Report, error) {
	opts := env().MapItOpts()
	opts.Obs = ccfg.Obs
	b := NewStreamBuilder(cfg, MetroHourOf(), opts)
	if _, err := platform.CollectStreamCtx(context.Background(), env().World, ccfg, workers, func(c *platform.Chunk) error {
		b.AddTraces(c.Traces)
		return nil
	}); err != nil {
		return nil, err
	}
	b.FinishInference()
	st, err := platform.CollectStreamCtx(context.Background(), env().World, ccfg, workers, func(c *platform.Chunk) error {
		b.AddTests(c.Tests)
		b.AddMatch(c.Tests, c.Traces, c.Watermark)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Finish(st.Completeness), nil
}

// streamReport is streamBuild under the default grading, failing t on
// a collection error.
func streamReport(t *testing.T, ccfg platform.CollectConfig, workers int) *Report {
	t.Helper()
	r, err := streamBuild(DefaultConfig(), ccfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStreamReportMatchesBatch is the report-level parity pin: the
// chunked two-pass assembly renders byte-for-byte the same report as
// the batch reference.
func TestStreamReportMatchesBatch(t *testing.T) {
	want := batchBuild(env(), DefaultConfig()).Render()
	for _, workers := range []int{1, 4} {
		cfg := env().Opts.Collect
		cfg.ChunkTests = 1024
		got := streamReport(t, cfg, workers).Render()
		if got != want {
			t.Fatalf("streamed report (workers=%d) diverges from batch:\n%s",
				workers, firstDiff(want, got))
		}
	}
}

// TestStreamReportPipelinedStages runs the one pass the CLI runs:
// operator inference, aggregation and matching on separate goroutines
// behind a stream.Pipeline, fed by one collection. The rendered report
// must still be byte-identical to the batch reference. The three
// stages hold disjoint state, so only their per-stage publication
// order matters, which the pipeline preserves.
func TestStreamReportPipelinedStages(t *testing.T) {
	want := batchBuild(env(), DefaultConfig()).Render()
	cfg := env().Opts.Collect
	cfg.ChunkTests = 512
	for _, workers := range []int{1, 2, 8} {
		b := NewStreamBuilder(DefaultConfig(), MetroHourOf(), env().MapItOpts())
		p := stream.NewPipeline("report", nil,
			stream.Stage[*platform.Chunk]{Name: "mapit", Fn: func(c *platform.Chunk) error {
				b.AddTraces(c.Traces)
				return nil
			}},
			stream.Stage[*platform.Chunk]{Name: "aggregate", Fn: func(c *platform.Chunk) error {
				b.AddTests(c.Tests)
				return nil
			}},
			stream.Stage[*platform.Chunk]{Name: "match", Fn: func(c *platform.Chunk) error {
				b.AddMatch(c.Tests, c.Traces, c.Watermark)
				return nil
			}},
		)
		st, err := platform.CollectStreamCtx(context.Background(), env().World, cfg, workers, p.Send)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		got := b.Finish(st.Completeness).Render()
		if got != want {
			t.Fatalf("pipelined-stage report (workers=%d) diverges from batch:\n%s",
				workers, firstDiff(want, got))
		}
	}
}

// TestStreamReportTelemetryByteIdentical is the telemetry-invariance
// pin at the report level: the streamed assembly with the
// FULL live-telemetry stack attached — metrics registry, simulated-
// clock sampler, progress event bus with an active sink — renders a
// report byte-identical to the uninstrumented batch reference.
// Telemetry observes the campaign; it must never steer it.
func TestStreamReportTelemetryByteIdentical(t *testing.T) {
	want := batchBuild(env(), DefaultConfig()).Render()
	cfg := env().Opts.Collect
	cfg.ChunkTests = 1024
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		reg.EnableTimeSeries(nil)
		bus := reg.EnableEvents(4096)
		var delivered int
		bus.AddSink(func(obs.Event) { delivered++ })
		cfg.Obs = reg
		got := streamReport(t, cfg, workers).Render()
		bus.Close()
		if got != want {
			t.Fatalf("telemetered streamed report (workers=%d) diverges from batch:\n%s",
				workers, firstDiff(want, got))
		}
		st := bus.Stats()
		if st.ByKind["collect.chunk"] == 0 || st.ByKind["report.pass"] == 0 {
			t.Errorf("telemetry did not observe the run (workers=%d): %+v", workers, st.ByKind)
		}
		if delivered == 0 {
			t.Errorf("sink saw no events (workers=%d)", workers)
		}
	}
}

// TestStreamReportMatchesBatchUnderFaults extends the parity to a
// degraded campaign, where completeness ledgers and degraded-pair
// exclusions flow through the streamed path too.
func TestStreamReportMatchesBatchUnderFaults(t *testing.T) {
	cfg := env().Opts.Collect
	cfg.Tests = 4000
	cfg.Faults = faults.Heavy()
	cfg.ChunkTests = 512

	corpus, err := platform.CollectParallelCtx(context.Background(), env().World, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe := &experiments.Env{
		Opts:      env().Opts,
		World:     env().World,
		Corpus:    corpus,
		Inference: mapit.Run(corpus.Traces, env().MapItOpts()),
		Matching:  core.MatchTraces(corpus.Tests, corpus.Traces, core.PrimaryWindowMin, core.PrimaryMode),
	}
	want := batchBuild(fe, DefaultConfig()).Render()
	got := streamReport(t, cfg, 4).Render()
	if got != want {
		t.Fatalf("faulted streamed report diverges from batch:\n%s", firstDiff(want, got))
	}
	if !strings.Contains(want, "data completeness:") {
		t.Fatal("faulted report missing completeness section (fixture too clean)")
	}
}

// TestStreamMatchPairsGauge pins the match.pairs gauge on the streamed
// path, where the matcher hands pairs to the builder instead of filling
// ByTest: it must equal the batch matcher's pair count over the same
// campaign.
func TestStreamMatchPairsGauge(t *testing.T) {
	cfg := env().Opts.Collect
	cfg.Tests = 2000
	cfg.ChunkTests = 256
	corpus, err := platform.CollectParallelCtx(context.Background(), env().World, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := core.MatchTraces(corpus.Tests, corpus.Traces, core.PrimaryWindowMin, core.PrimaryMode).Matched()
	if want == 0 {
		t.Fatal("campaign matched no pairs (fixture too small)")
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	streamReport(t, cfg, 2)
	if got := reg.Gauge("match.pairs").Value(); got != int64(want) {
		t.Errorf("streamed match.pairs = %d, batch matcher paired %d", got, want)
	}
}

// firstDiff renders the first differing line for a readable failure.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  batch:  %s\n  stream: %s", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("length differs: batch %d lines, stream %d", len(w), len(g))
}

// matchedPairs is every pair the batch matcher associates over the
// shared campaign, at most n of them.
func matchedPairs(t *testing.T, n int) (tests []*ndt.Test, traces []*traceroute.Trace) {
	t.Helper()
	for _, tst := range env().Corpus.Tests {
		if tr := env().Matching.ByTest[tst.ID]; tr != nil && len(tests) < n {
			tests, traces = append(tests, tst), append(traces, tr)
		}
	}
	if len(tests) == 0 {
		t.Fatal("campaign matched no pairs")
	}
	return tests, traces
}

// TestOnPairAllocFree: once the arena holding the deferred router paths
// is reserved, deferring a pair allocates nothing, and once every
// pair's group and link set exist, Finish's labelling allocates nothing
// either, whatever the number of pairs.
func TestOnPairAllocFree(t *testing.T) {
	b := NewStreamBuilder(DefaultConfig(), MetroHourOf(), env().MapItOpts())
	b.AddTraces(env().Corpus.Traces)
	b.FinishInference()
	tests, traces := matchedPairs(t, 500)
	deferAll := func() {
		b.routers, b.deferred = b.routers[:0], b.deferred[:0]
		for i := range tests {
			b.onPair(0, tests[i], traces[i])
		}
	}
	deferAll()
	if allocs := testing.AllocsPerRun(5, deferAll); allocs != 0 {
		t.Errorf("onPair over %d pairs: %v allocations, want 0", len(tests), allocs)
	}
	if len(b.deferred) == 0 {
		t.Fatal("no pair was deferred")
	}
	b.label()
	if allocs := testing.AllocsPerRun(5, b.label); allocs != 0 {
		t.Errorf("labelling %d deferred pairs: %v allocations, want 0", len(b.deferred), allocs)
	}
}

// refPairs is the immediate-labelling reference for the pair consumer:
// it reads the campaign twice, and its onPair labels each finalized
// pair at once with the inference the first read sealed.
// TestDeferredLabellingMatchesImmediate checks the builder against it.
type refPairs struct {
	inf      *mapit.Inference
	pairs    map[gkey]*pairGroup
	degraded int       // pairs whose trace is degraded
	clean    []refPair // the other pairs, in finalization order
}

type refPair struct {
	k  gkey
	tr *traceroute.Trace
}

func (r *refPairs) onPair(_ int, t *ndt.Test, tr *traceroute.Trace) {
	if tr == nil {
		return
	}
	k := gkey{t.ServerNet, t.ServerMetro, t.ClientISP}
	g := r.pairs[k]
	if g == nil {
		g = &pairGroup{linkSet: map[uint32]bool{}}
		r.pairs[k] = g
	}
	g.matched++
	if tr.Degraded {
		r.degraded++
	} else {
		r.clean = append(r.clean, refPair{k, tr})
	}
	path := r.inf.ASPathOf(tr)
	if len(path) >= 2 {
		g.pathKnown++
		if len(path) == 2 {
			g.oneHop++
		}
	}
	if links := r.inf.LinksOf(tr); len(links) > 0 {
		g.linkSet[uint32(links[0].Far)] = true
	}
}

// TestDeferredLabellingMatchesImmediate pins the one-read builder —
// pairs counted as they finalize, their router paths labelled at
// Finish — to the immediate-labelling reference over two reads: equal
// pair groups, equal mapit.* counters and equal match gauges, at chunk
// sizes 1, 7 and the whole campaign and at one and two workers, clean
// and under the heavy fault profile (where degraded pairs occur).
func TestDeferredLabellingMatchesImmediate(t *testing.T) {
	for _, profile := range []faults.Profile{faults.Off(), faults.Heavy()} {
		for _, chunk := range []int{1, 7, 600} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/chunk=%d/workers=%d", profile.Name, chunk, workers)
				cfg := env().Opts.Collect
				cfg.Tests, cfg.ChunkTests, cfg.Faults = 600, chunk, profile
				collect := func(fn func(*platform.Chunk) error) platform.Completeness {
					st, err := platform.CollectStreamCtx(context.Background(), env().World, cfg, workers, fn)
					if err != nil {
						t.Fatal(err)
					}
					return st.Completeness
				}

				reg := obs.NewRegistry()
				opts := env().MapItOpts()
				opts.Workers, opts.Obs = workers, reg
				b := NewStreamBuilder(DefaultConfig(), MetroHourOf(), opts)
				comp := collect(func(c *platform.Chunk) error {
					b.AddTraces(c.Traces)
					b.AddTests(c.Tests)
					b.AddMatch(c.Tests, c.Traces, c.Watermark)
					return nil
				})
				b.Finish(comp)

				refReg := obs.NewRegistry()
				opts.Obs = refReg
				mb := mapit.NewBuilder(opts)
				collect(func(c *platform.Chunk) error { mb.Add(c.Traces); return nil })
				ref := &refPairs{inf: mb.Finish(), pairs: map[gkey]*pairGroup{}}
				m := core.NewStreamMatcher(core.Window{Min: core.PrimaryWindowMin, Mode: core.PrimaryMode})
				m.OnPair = ref.onPair
				collect(func(c *platform.Chunk) error { m.Add(c.Tests, c.Traces, c.Watermark); return nil })
				refDegraded := m.Finish()[0].Degraded

				if len(b.pairs) != len(ref.pairs) {
					t.Fatalf("%s: %d pair groups, reference %d", name, len(b.pairs), len(ref.pairs))
				}
				pairs := 0
				for k, want := range ref.pairs {
					i, ok := b.groupOf[k]
					if !ok {
						t.Fatalf("%s: group %v missing", name, k)
					}
					got := b.pairs[i]
					if got.matched != want.matched || got.oneHop != want.oneHop || got.pathKnown != want.pathKnown ||
						!maps.Equal(got.linkSet, want.linkSet) {
						t.Fatalf("%s: group %v = %d/%d/%d %v, reference %d/%d/%d %v", name, k,
							got.matched, got.oneHop, got.pathKnown, got.linkSet,
							want.matched, want.oneHop, want.pathKnown, want.linkSet)
					}
					pairs += want.matched
				}
				if pairs == 0 {
					t.Fatalf("%s: the reference matched no pairs", name)
				}
				if profile.Name != "off" && ref.degraded == 0 {
					t.Errorf("%s: no degraded pair (fixture too clean)", name)
				}
				if got := reg.Gauge("match.pairs").Value(); got != int64(pairs) {
					t.Errorf("%s: match.pairs = %d, reference %d", name, got, pairs)
				}
				if got := reg.Gauge("match.degraded").Value(); got != int64(refDegraded) {
					t.Errorf("%s: match.degraded = %d, reference %d", name, got, refDegraded)
				}
				if got, want := reg.CountersWithPrefix("mapit."), refReg.CountersWithPrefix("mapit."); !maps.Equal(got, want) {
					t.Errorf("%s: mapit counters %v, reference %v", name, got, want)
				}
				// Each deferred record is its trace's router path and
				// destination: in this world a reached destination's AS
				// always collapses into the last router's, so the groups
				// alone would not show a wrong one.
				if len(b.deferred) != len(ref.clean) {
					t.Fatalf("%s: %d deferred pairs, reference %d non-degraded", name, len(b.deferred), len(ref.clean))
				}
				start := int32(0)
				for i, d := range b.deferred {
					tr := ref.clean[i].tr
					if !slices.Equal(b.routers[start:d.end], mapit.AppendRouters(nil, tr)) ||
						d.reached != tr.Reached || d.dst != tr.DstAddr || b.groupOf[ref.clean[i].k] != d.group {
						t.Fatalf("%s: deferred pair %d = %+v %v, trace %+v", name, i, d, b.routers[start:d.end], tr)
					}
					start = d.end
				}
			}
		}
	}
}
