// Package campaign composes one measurement campaign end to end, the
// chain behind every `tputlab run` and `tputlab report`: a world (or a
// persisted corpus standing in for one), one chunk source feeding each
// report pass, the corpus tee that persists the collected chunks, and
// the two-pass report assembly over report.StreamBuilder. The sources
// differ only in where chunks come from: retained (collect once before
// the passes, replay; the default), resume (the retained source primed
// with an interrupted campaign's durable prefix), spool (-stream:
// pass 1 collects while the tee persists, pass 2 replays the sealed
// corpus), and corpus (-corpus: replay a persisted corpus, no world).
// Every mode collects the campaign at most once. The rendered report
// is byte-identical for every source, chunk size and worker count.
package campaign

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"

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

// source feeds a campaign's chunks to fn in publication order for
// report pass 1 or 2 and returns the campaign's completeness ledger.
type source func(pass int, fn func(*platform.Chunk) error) (platform.Completeness, error)

// Campaign is an opened campaign: its options, its world (nil over a
// persisted corpus), the source behind its passes, and, under -stream,
// the tee that persists pass 1 for pass 2 to replay (the retained and
// resume sources seal theirs while collecting).
type Campaign struct {
	opts   experiments.Options
	world  *topogen.World
	public *export.Public // the world's bundle or the corpus header's; see bundle
	src    source
	chunks []*platform.Chunk // retained chunks, in publication order
	tee    *tee
}

// Report runs the campaign s describes and renders its report over two
// passes. Its world computes BGP route trees on demand: collection and
// bdrmap read a few dozen of them, so the n×n eager tables would be
// set-up work nobody reads.
func Report(ctx context.Context, s Spec, reg *obs.Registry) (string, error) {
	c, err := open(ctx, s, true, reg)
	if err != nil {
		return "", err
	}
	return c.report(reg)
}

// report renders the opened campaign's report. Pass 1 feeds operator
// inference; pass 2 overlaps per-test aggregation, trace matching and,
// over a world, the bdrmap border accumulator. A -stream spill is
// removed on every return.
func (c *Campaign) report(reg *obs.Registry) (string, error) {
	defer c.tee.removeSpill()
	mopts := (&export.Dataset{Public: *c.bundle()}).Lookups().MapItOpts()
	mopts.Workers = c.opts.Workers
	mopts.Obs = reg
	b := report.NewStreamBuilder(report.DefaultConfig(), report.MetroHourOf(), mopts)

	if _, err := c.pass(1, stream.Stage[*platform.Chunk]{Name: "mapit",
		Fn: func(ch *platform.Chunk) error { b.AddTraces(ch.Traces); return nil }}); err != nil {
		return "", err
	}
	inf := b.FinishInference()

	p2 := []stream.Stage[*platform.Chunk]{
		{Name: "aggregate", Fn: func(ch *platform.Chunk) error { b.AddTests(ch.Tests); return nil }},
		{Name: "match", Fn: func(ch *platform.Chunk) error { b.AddMatch(ch.Tests, ch.Traces, ch.Watermark); return nil }},
	}
	// The border accumulator shares the sealed inference; its result
	// surfaces through gauges only, so stdout is the same with or
	// without it.
	var acc *bdrmap.BorderAccumulator
	if c.world != nil {
		acc = borderAccumulator(c.world, inf, mopts)
		p2 = append(p2, stream.Stage[*platform.Chunk]{Name: "bdrmap",
			Fn: func(ch *platform.Chunk) error { acc.Add(ch.Traces); return nil }})
	}
	comp, err := c.pass(2, p2...)
	if err != nil {
		return "", err
	}
	if acc != nil && reg != nil {
		reg.Gauge("bdrmap.neighbors").Set(int64(len(acc.Result().Borders)))
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
	return open(ctx, s, false, reg)
}

// open validates s, builds the campaign's world (computing its route
// trees on demand when lazyRoutes is set) and tee, and picks its
// source. A resumed campaign adopts its identity from the manifest,
// regenerates the world, and replays the durable prefix into the
// retained chunks. The retained and resume sources then collect the
// rest of the campaign once, here, before any report pass: each chunk
// is kept and persisted on the collecting goroutine, and the tee is
// sealed with the collection's outcome.
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
	if s.Stream {
		c.src = c.spool(ctx)
		return c, nil
	}
	_, err = c.collect(ctx, func(ch *platform.Chunk) error {
		c.chunks = append(c.chunks, ch)
		return c.tee.write(ch)
	})
	if err := c.tee.seal(err); err != nil {
		return nil, err
	}
	c.tee, c.src = nil, c.replay
	return c, nil
}

// collect runs the campaign from its first chunk not yet retained,
// handing every published chunk to sink, and returns its completeness
// ledger.
func (c *Campaign) collect(ctx context.Context, sink func(*platform.Chunk) error) (platform.Completeness, error) {
	cfg := c.opts.Collect
	cfg.StartChunk = len(c.chunks)
	st, err := platform.CollectStreamCtx(ctx, c.world, cfg, c.opts.Workers, sink)
	if err != nil {
		return platform.Completeness{}, err
	}
	return st.Completeness, nil
}

// replay is the retained and resume sources: every pass replays the
// retained chunks.
func (c *Campaign) replay(_ int, fn func(*platform.Chunk) error) (platform.Completeness, error) {
	var comp platform.Completeness
	for _, ch := range c.chunks {
		if err := fn(ch); err != nil {
			return comp, err
		}
		comp.Merge(ch.Completeness)
	}
	return comp, nil
}

// spool is the -stream source: pass 1 collects the campaign while the
// tee, pass 1's export stage, persists it, and pass 2 replays the corpus
// the tee sealed. Only a few chunks are ever resident, and the campaign
// is collected once.
func (c *Campaign) spool(ctx context.Context) source {
	return func(pass int, fn func(*platform.Chunk) error) (platform.Completeness, error) {
		if pass == 1 {
			return c.collect(ctx, fn)
		}
		// Pass 1's chunks are all garbage now, but the heap goal grown
		// during collection would leave them uncollected while pass 2
		// allocates its decode buffers on top of them; collecting here
		// keeps peak RSS at pass 1's.
		runtime.GC()
		return replayCorpus(ctx, c.tee.path, c.opts.Workers, export.EverythingProjection(), fn)
	}
}

// openCorpus is the source over a persisted corpus: no world is
// generated, the header's public bundle stands in for it, and the
// footer supplies the completeness ledger. Chunks decode on -parallel
// workers. Pass 1 only needs traces, so it reads a traces-only
// projection and never parses a test stripe; its reader is opened here
// because its header arms the report builder. The replay does not
// watch for interrupts: it persists nothing, so it has nothing to
// checkpoint.
func openCorpus(path string, opts experiments.Options) (*Campaign, error) {
	first, err := openReader(path, opts.Workers, export.Projection{Traces: true})
	if err != nil {
		return nil, err
	}
	c := &Campaign{opts: opts, public: first.Public()}
	c.src = func(pass int, fn func(*platform.Chunk) error) (platform.Completeness, error) {
		if pass == 1 {
			return first.replay(context.Background(), fn)
		}
		return replayCorpus(context.Background(), path, opts.Workers, export.EverythingProjection(), fn)
	}
	return c, nil
}

// corpusReader is a persisted corpus opened for one replay.
type corpusReader struct {
	f *os.File
	export.CorpusReader
}

// openReader opens the corpus at path for a replay that decodes the
// column families proj selects on workers decoders.
func openReader(path string, workers int, proj export.Projection) (*corpusReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	cr, err := export.OpenCorpusProjected(f, workers, proj)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &corpusReader{f: f, CorpusReader: cr}, nil
}

// replayCorpus replays the corpus at path, decoding the column families
// proj selects on workers decoders (see replay).
func replayCorpus(ctx context.Context, path string, workers int, proj export.Projection, fn func(*platform.Chunk) error) (platform.Completeness, error) {
	r, err := openReader(path, workers, proj)
	if err != nil {
		return platform.Completeness{}, err
	}
	return r.replay(ctx, fn)
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

// pass runs one report pass: the source feeds every chunk to stages,
// each on its own goroutine behind a bounded channel. An unsealed tee
// (-stream's) persists pass 1 as one more stage and is sealed with the
// pass's outcome.
func (c *Campaign) pass(n int, stages ...stream.Stage[*platform.Chunk]) (platform.Completeness, error) {
	if n == 1 && c.tee != nil {
		stages = append(stages, stream.Stage[*platform.Chunk]{Name: "export", Fn: c.tee.write})
	}
	pipe := stream.NewPipeline(fmt.Sprintf("pass%d", n), pipelineDepth, c.opts.Obs, stages...)
	comp, err := c.src(n, pipe.Send)
	if cErr := pipe.Close(); err == nil {
		err = cErr
	}
	if n == 1 {
		err = c.tee.seal(err)
	}
	return comp, err
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
