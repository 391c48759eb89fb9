// Package campaign composes one measurement campaign end to end, the
// chain behind every `tputlab run` and `tputlab report`: a world (or a
// persisted corpus standing in for one), one chunk source, the corpus
// tee that persists the collected chunks, and the report's one pass
// over report.StreamBuilder. A report reads every chunk once, from one
// of two sources: over a world, collection (a resumed campaign's
// durable prefix first), with no chunk retained; over a persisted
// corpus (-corpus), the corpus decoded once, with no world. A run
// collects once and keeps its chunks for the experiments (Collect).
// The rendered report is byte-identical for every source, chunk size
// and worker count.
package campaign

import (
	"context"
	"fmt"
	"io"
	"os"

	"throughputlab/internal/bdrmap"
	"throughputlab/internal/checkpoint"
	"throughputlab/internal/experiments"
	"throughputlab/internal/export"
	"throughputlab/internal/mapit"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
	"throughputlab/internal/report"
	"throughputlab/internal/stream"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// pipelineDepth bounds each report-pipeline stage's input channel: a
// stalled stage backpressures the producer after this many chunks.
// Depth 1 keeps stages overlapped while holding the fan-out's share of
// resident chunks to one queued plus one in-process per stage.
const pipelineDepth = 1

// corpusFormat is the only corpus format a tee writes.
const corpusFormat = "columnar"

// source feeds a campaign's chunks to fn in publication order and
// returns the campaign's completeness ledger.
type source func(fn func(*platform.Chunk) error) (platform.Completeness, error)

// Campaign is an opened campaign: its options, its world (nil over a
// persisted corpus), the source behind its report, and the tee that
// persists what it collects.
type Campaign struct {
	opts   experiments.Options
	world  *topogen.World
	public *export.Public // the world's bundle or the corpus header's; see bundle
	src    source
	// chunks are a collected campaign's retained chunks, or a resumed
	// report's durable prefix until its pass replays them, in
	// publication order.
	chunks []*platform.Chunk
	tee    *tee
}

// Report runs the campaign s describes and renders its report in one
// pass. Its world computes BGP route trees on demand: collection and
// bdrmap read a few dozen of them, so the n×n eager tables would be
// set-up work nobody reads.
func Report(ctx context.Context, s Spec, reg *obs.Registry) (string, error) {
	c, err := open(ctx, s, true, reg)
	if err != nil {
		return "", err
	}
	if c.src == nil {
		c.src = c.live(ctx)
	}
	return c.report(reg)
}

// report renders the opened campaign's report. Its one pass overlaps
// operator inference, per-test aggregation, trace matching and, over a
// world with a registry, the bdrmap path recorder; the matched pairs
// and the recorded paths are labelled once MAP-IT is sealed.
func (c *Campaign) report(reg *obs.Registry) (string, error) {
	mopts := (&export.Dataset{Public: *c.bundle()}).Lookups().MapItOpts()
	mopts.Workers = c.opts.Workers
	mopts.Obs = reg
	b := report.NewStreamBuilder(report.DefaultConfig(), report.MetroHourOf(), mopts)

	stages := []stream.Stage[*platform.Chunk]{
		{Name: "mapit", Fn: func(ch *platform.Chunk) error { b.AddTraces(ch.Traces); return nil }},
		{Name: "aggregate", Fn: func(ch *platform.Chunk) error { b.AddTests(ch.Tests); return nil }},
		{Name: "match", Fn: func(ch *platform.Chunk) error { b.AddMatch(ch.Tests, ch.Traces, ch.Watermark); return nil }},
	}
	// The border map over a world surfaces through gauges only, so it is
	// built only when a registry can show them; stdout is the same with
	// or without it.
	var rec *bdrmap.Recorder
	if c.world != nil && reg != nil {
		rec = &bdrmap.Recorder{}
		stages = append(stages, stream.Stage[*platform.Chunk]{Name: "bdrmap",
			Fn: func(ch *platform.Chunk) error { rec.Add(ch.Traces); return nil }})
	}
	comp, err := c.pass(stages...)
	if err != nil {
		return "", err
	}
	inf := b.FinishInference()
	if rec != nil {
		sp := reg.Span("bdrmap")
		acc := borderAccumulator(c.world, inf, mopts)
		acc.AddRecorded(rec)
		reg.Gauge("bdrmap.neighbors").Set(int64(len(acc.Result().Borders)))
		sp.End()
		reg.Gauge("topogen.routes.trees").Set(int64(c.world.Routes.ComputedTrees()))
	}
	sp := reg.Span("report")
	out := b.Finish(comp).Render()
	sp.End()
	return out, nil
}

// Collect collects (or resumes) the campaign s describes and keeps it
// in memory for the experiments (see Env). Its world keeps eager BGP
// tables: the experiments' traceroute sweeps read every destination.
func Collect(ctx context.Context, s Spec, reg *obs.Registry) (*Campaign, error) {
	if s.Stream || s.Corpus != "" {
		return nil, fmt.Errorf("-stream and -corpus are report modes; a collected campaign sets neither")
	}
	c, err := open(ctx, s, false, reg)
	if err != nil {
		return nil, err
	}
	// Each chunk is kept and persisted on the collecting goroutine, and
	// the tee is sealed with the collection's outcome.
	err = c.collect(ctx, func(ch *platform.Chunk) error {
		c.chunks = append(c.chunks, ch)
		return c.tee.write(ch)
	})
	if err := c.tee.seal(err); err != nil {
		return nil, err
	}
	c.tee = nil
	return c, nil
}

// open validates s and builds the campaign's world (computing its
// route trees on demand when lazyRoutes is set) and tee, or, under
// -corpus, opens the corpus as its source. A resumed campaign adopts
// its identity from the manifest, regenerates the world, and replays
// the durable prefix into the retained chunks.
func open(ctx context.Context, s Spec, lazyRoutes bool, reg *obs.Registry) (*Campaign, error) {
	var m *checkpoint.Manifest
	if s.Resume != "" {
		var err error
		if m, err = checkpoint.LoadManifest(s.Resume); err != nil {
			return nil, err
		}
		fp := m.Fingerprint // the campaign identity is the manifest's
		s.Scale, s.Seed, s.Tests, s.Faults = fp.Scale, fp.Seed, fp.Tests, fp.Faults
		s.FaultSeed, s.ChunkTests, s.CorpusFormat = fp.FaultSeed, fp.ChunkTests, fp.Format
	}
	if err := s.Validate(nil); err != nil {
		return nil, err
	}
	opts, err := s.options(reg)
	if err != nil {
		return nil, err
	}
	if s.Corpus != "" {
		return openCorpus(s.Corpus, opts)
	}
	if m != nil {
		opts.Collect.Shards = m.Fingerprint.Shards
		fmt.Fprintf(os.Stderr, "resuming campaign from %s: %d of %d tests durable, regenerating world (scale=%s seed=%d)...\n",
			s.Resume, m.Durable.Tests, m.Fingerprint.Tests, s.Scale, s.Seed)
	}
	opts.Topo.LazyRoutes = lazyRoutes
	w, err := topogen.GenerateCtx(ctx, opts.Topo)
	if err != nil {
		return nil, err
	}
	c := &Campaign{opts: opts, world: w}
	if c.tee, err = c.openTee(s, m); err != nil {
		return nil, err
	}
	return c, nil
}

// collect runs the campaign from its first chunk not yet retained,
// handing every published chunk to sink.
func (c *Campaign) collect(ctx context.Context, sink func(*platform.Chunk) error) error {
	cfg := c.opts.Collect
	cfg.StartChunk = len(c.chunks)
	_, err := platform.CollectStreamCtx(ctx, c.world, cfg, c.opts.Workers, sink)
	return err
}

// live is the source over a world: a resumed campaign's durable prefix,
// then the rest of the campaign as it is collected. No chunk is kept
// beyond its pass through the stages, and the ledger is the merge of
// the chunks' own, as a sealed corpus's footer is.
func (c *Campaign) live(ctx context.Context) source {
	return func(fn func(*platform.Chunk) error) (platform.Completeness, error) {
		var comp platform.Completeness
		sink := func(ch *platform.Chunk) error {
			comp.Merge(ch.Completeness)
			return fn(ch)
		}
		for i, ch := range c.chunks {
			c.chunks[i] = nil
			if err := sink(ch); err != nil {
				return comp, err
			}
		}
		return comp, c.collect(ctx, sink)
	}
}

// openCorpus is the source over a persisted corpus: no world is
// generated, the header's public bundle stands in for it, and the
// footer supplies the completeness ledger. Chunks decode once, every
// column family, on -parallel workers. The reader is opened here
// because its header arms the report builder. The replay does not
// watch for interrupts: it persists nothing, so it has nothing to
// checkpoint.
func openCorpus(path string, opts experiments.Options) (*Campaign, error) {
	r, err := openReader(path, opts.Workers)
	if err != nil {
		return nil, err
	}
	c := &Campaign{opts: opts, public: r.Public()}
	c.src = func(fn func(*platform.Chunk) error) (platform.Completeness, error) {
		return r.replay(context.Background(), fn)
	}
	return c, nil
}

// corpusReader is a persisted corpus opened for one replay.
type corpusReader struct {
	f *os.File
	export.CorpusReader
}

// openReader opens the corpus at path for one replay that decodes
// every column family on workers decoders.
func openReader(path string, workers int) (*corpusReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	cr, err := export.OpenCorpusProjected(f, workers, export.EverythingProjection())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &corpusReader{f: f, CorpusReader: cr}, nil
}

// replay feeds every chunk to fn in publication order, then closes the
// reader and returns the footer's completeness ledger. Between chunks
// it stops with ctx's cause once ctx is done.
func (r *corpusReader) replay(ctx context.Context, fn func(*platform.Chunk) error) (platform.Completeness, error) {
	defer r.f.Close()
	defer r.Close()
	for {
		if err := context.Cause(ctx); err != nil {
			return platform.Completeness{}, err
		}
		sc, err := r.Next()
		if err == io.EOF {
			return r.Footer().Completeness, nil
		}
		if err != nil {
			return platform.Completeness{}, err
		}
		if err := fn(toChunk(sc)); err != nil {
			return platform.Completeness{}, err
		}
	}
}

// toChunk is a persisted chunk as the collector published it.
func toChunk(sc *export.StreamChunk) *platform.Chunk {
	return &platform.Chunk{
		Index: sc.Chunk, Tests: sc.Tests, Traces: sc.Traces,
		TestsWithoutTrace: sc.TestsWithoutTrace, Completeness: sc.Completeness,
		Watermark: sc.Watermark,
	}
}

// bundle is the public bundle that arms MAP-IT and heads a persisted
// corpus: the corpus header's, or derived from the world on first use.
func (c *Campaign) bundle() *export.Public {
	if c.public == nil {
		c.public = &export.FromWorld(c.world, nil).Public
	}
	return c.public
}

// pass runs the report's one pass: the source feeds every chunk to
// stages, each on its own goroutine behind a bounded channel. A tee
// persists the collected chunks as one more stage (a resumed prefix is
// already durable) and is sealed with the pass's outcome. The pipeline
// is named pass1: CI and the benchmark tooling read its metric names.
func (c *Campaign) pass(stages ...stream.Stage[*platform.Chunk]) (platform.Completeness, error) {
	if c.tee != nil {
		durable := len(c.chunks)
		stages = append(stages, stream.Stage[*platform.Chunk]{Name: "export", Fn: func(ch *platform.Chunk) error {
			if ch.Index < durable {
				return nil
			}
			return c.tee.write(ch)
		}})
	}
	pipe := stream.NewPipeline("pass1", pipelineDepth, c.opts.Obs, stages...)
	comp, err := c.src(pipe.Send)
	if cErr := pipe.Close(); err == nil {
		err = cErr
	}
	return comp, c.tee.seal(err)
}

// borderAccumulator arms a border accumulator over the campaign's
// inference from the M-Lab host networks' point of view — the VP-side
// org whose interconnects the paper's border analysis cares about.
func borderAccumulator(w *topogen.World, inf *mapit.Inference, mopts mapit.Opts) *bdrmap.BorderAccumulator {
	seen := map[topology.ASN]bool{}
	var org []topology.ASN
	for _, srv := range w.MLabServers() {
		if asn, ok := w.Topo.OriginOf(srv.Endpoint.Addr); ok && !seen[asn] {
			seen[asn] = true
			org = append(org, asn)
		}
	}
	az := bdrmap.NewAnalyzerFromInference(inf, bdrmap.Opts{OrgASNs: org, MapIt: mopts})
	return az.NewBorderAccumulator()
}

// Env concatenates the retained chunks into the corpus the experiments
// read and runs their shared inference over it.
func (c *Campaign) Env() *experiments.Env {
	corpus := &platform.Corpus{}
	for _, ch := range c.chunks {
		corpus.Tests = append(corpus.Tests, ch.Tests...)
		corpus.Traces = append(corpus.Traces, ch.Traces...)
		corpus.TestsWithoutTrace += ch.TestsWithoutTrace
		corpus.Completeness.Merge(ch.Completeness)
	}
	return experiments.NewEnvWithCorpus(c.opts, c.world, corpus)
}
