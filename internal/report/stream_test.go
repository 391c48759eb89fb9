package report

import (
	"context"
	"fmt"
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

// streamBuild runs the two-pass streaming assembly over the shared
// world's campaign under ccfg, re-collecting the deterministic stream
// for pass 2. ccfg.Obs, when set, also instruments the builder.
func streamBuild(cfg Config, ccfg platform.CollectConfig, workers int) (*Report, error) {
	opts := env.MapItOpts()
	opts.Obs = ccfg.Obs
	b := NewStreamBuilder(cfg, MetroHourOf(), opts)
	if _, err := platform.CollectStreamCtx(context.Background(), env.World, ccfg, workers, func(c *platform.Chunk) error {
		b.AddTraces(c.Traces)
		return nil
	}); err != nil {
		return nil, err
	}
	b.FinishInference()
	st, err := platform.CollectStreamCtx(context.Background(), env.World, ccfg, workers, func(c *platform.Chunk) error {
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
// the batch reference, including the world-free MetroHourOf standing
// in for Env.HourOf.
func TestStreamReportMatchesBatch(t *testing.T) {
	want := batchBuild(env, DefaultConfig()).Render()
	for _, workers := range []int{1, 4} {
		cfg := env.Opts.Collect
		cfg.ChunkTests = 1024
		got := streamReport(t, cfg, workers).Render()
		if got != want {
			t.Fatalf("streamed report (workers=%d) diverges from batch:\n%s",
				workers, firstDiff(want, got))
		}
	}
}

// TestStreamReportPipelinedStages runs pass 2 with the aggregation and
// matching stages on separate goroutines behind a stream.Pipeline —
// the deployment shape of the CLI's report passes — and pins that the
// rendered report is still byte-identical to the batch reference. The
// two stages hold disjoint halves of the group state, so only their
// per-stage publication order matters, which the pipeline preserves.
func TestStreamReportPipelinedStages(t *testing.T) {
	want := batchBuild(env, DefaultConfig()).Render()
	cfg := env.Opts.Collect
	cfg.ChunkTests = 512
	for _, workers := range []int{1, 2, 8} {
		b := NewStreamBuilder(DefaultConfig(), MetroHourOf(), env.MapItOpts())
		if _, err := platform.CollectStreamCtx(context.Background(), env.World, cfg, workers, func(c *platform.Chunk) error {
			b.AddTraces(c.Traces)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		b.FinishInference()
		p := stream.NewPipeline("report", 4, nil,
			stream.Stage[*platform.Chunk]{Name: "aggregate", Fn: func(c *platform.Chunk) error {
				b.AddTests(c.Tests)
				return nil
			}},
			stream.Stage[*platform.Chunk]{Name: "match", Fn: func(c *platform.Chunk) error {
				b.AddMatch(c.Tests, c.Traces, c.Watermark)
				return nil
			}},
		)
		st, err := platform.CollectStreamCtx(context.Background(), env.World, cfg, workers, p.Send)
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
	want := batchBuild(env, DefaultConfig()).Render()
	cfg := env.Opts.Collect
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
	cfg := env.Opts.Collect
	cfg.Tests = 4000
	cfg.Faults = faults.Heavy()
	cfg.ChunkTests = 512

	corpus, err := platform.CollectParallelCtx(context.Background(), env.World, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe := &experiments.Env{
		Opts:      env.Opts,
		World:     env.World,
		Corpus:    corpus,
		Inference: mapit.Run(corpus.Traces, env.MapItOpts()),
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
	cfg := env.Opts.Collect
	cfg.Tests = 2000
	cfg.ChunkTests = 256
	corpus, err := platform.CollectParallelCtx(context.Background(), env.World, cfg, 1)
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

// TestOnPairAllocFree: once a pair's group and the scratch buffers
// exist, the per-pair callback allocates nothing.
func TestOnPairAllocFree(t *testing.T) {
	b := NewStreamBuilder(DefaultConfig(), MetroHourOf(), env.MapItOpts())
	b.AddTraces(env.Corpus.Traces)
	b.FinishInference()
	type pair struct {
		t  *ndt.Test
		tr *traceroute.Trace
	}
	var pairs []pair
	for _, tst := range env.Corpus.Tests {
		if tr := env.Matching.ByTest[tst.ID]; tr != nil && len(pairs) < 500 {
			pairs = append(pairs, pair{tst, tr})
		}
	}
	if len(pairs) == 0 {
		t.Fatal("campaign matched no pairs")
	}
	onAll := func() {
		for _, p := range pairs {
			b.onPair(p.t, p.tr)
		}
	}
	onAll()
	if allocs := testing.AllocsPerRun(5, onAll); allocs != 0 {
		t.Errorf("onPair over %d pairs: %v allocations, want 0", len(pairs), allocs)
	}
}
