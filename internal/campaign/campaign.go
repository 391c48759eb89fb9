// Package campaign composes one measurement campaign end to end, the
// chain behind every `tputlab run` and `tputlab report`: a world (or a
// persisted corpus standing in for one), one chunk source, the corpus
// tee that persists the collected chunks, and the report's one pass
// over report.StreamBuilder. A report reads every chunk once, from one
// of two sources: over a world, collection, with no chunk retained;
// over a persisted corpus (-corpus), the corpus decoded once, with no
// world. A run collects once into the experiments' Env
// (experiments.CollectEnv), with the tee as one more stage of that
// pass (Collect). The rendered report is byte-identical for every source,
// chunk size and worker count. The offline tools behind `tputlab
// corpus` live here too (corpus.go): the Ark prefix campaign, published
// through the same tee, and MAP-IT, bdrmap and the NDJSON dump over a
// persisted corpus, read through the same reader.
package campaign

import (
	"context"
	"fmt"
	"io"
	"os"

	"throughputlab/internal/bdrmap"
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

// corpusFormat is the only corpus format a tee writes.
const corpusFormat = "columnar"

// source feeds a campaign's chunks to fn in publication order and
// returns the campaign's completeness ledger. ctx carries the span its
// own spans open under.
type source func(ctx context.Context, fn func(*platform.Chunk) error) (platform.Completeness, error)

// Campaign is an opened campaign: its options, its world (nil over a
// persisted corpus), the source behind its report, and the tee that
// persists what it collects.
type Campaign struct {
	opts   experiments.Options
	world  *topogen.World
	public *export.Public // the world's bundle or the corpus header's; see bundle
	src    source
	tee    *tee
}

// Report runs the campaign s describes and renders its report in one
// pass.
func Report(ctx context.Context, s Spec, reg *obs.Registry) (string, error) {
	c, err := open(ctx, s, reg)
	if err != nil {
		return "", err
	}
	if c.src == nil {
		c.src = c.live
	}
	return c.report(ctx, reg)
}

// report renders the opened campaign's report. Its one pass overlaps
// operator inference, per-test aggregation, trace matching and, over a
// world with a registry, the bdrmap path recorder; the matched pairs
// and the recorded paths are labelled once MAP-IT is sealed.
func (c *Campaign) report(ctx context.Context, reg *obs.Registry) (string, error) {
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
	comp, err := c.pass(ctx, stages...)
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

// Collect collects the campaign s describes and builds the
// experiments' Env over it with experiments.CollectEnv, whose one pass
// also feeds the -corpus-out tee as its export stage.
func Collect(ctx context.Context, s Spec, reg *obs.Registry) (*experiments.Env, error) {
	if s.Stream || s.Corpus != "" {
		return nil, fmt.Errorf("-stream and -corpus are report modes; a collected campaign sets neither")
	}
	c, err := open(ctx, s, reg)
	if err != nil {
		return nil, err
	}
	env, err := experiments.CollectEnv(ctx, c.opts, c.world, c.teeStages()...)
	if err := c.tee.seal(err); err != nil {
		return nil, err
	}
	return env, nil
}

// open validates s and builds the campaign's world and tee, or, under
// -corpus, opens the corpus as its source.
func open(ctx context.Context, s Spec, reg *obs.Registry) (*Campaign, error) {
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
	w, err := topogen.GenerateCtx(ctx, opts.Topo)
	if err != nil {
		return nil, err
	}
	w.Observe(reg)
	c := &Campaign{opts: opts, world: w}
	meta := export.StreamMeta{Scale: s.Scale, Seed: opts.Topo.Seed, Tests: opts.Collect.Tests}
	if c.tee, err = c.openTee(s.CorpusOut, meta); err != nil {
		return nil, err
	}
	return c, nil
}

// live is the source over a world: the campaign as it is collected. No
// chunk is kept beyond its pass through the stages, and the ledger is
// the merge of the chunks' own, as a sealed corpus's footer is.
func (c *Campaign) live(ctx context.Context, fn func(*platform.Chunk) error) (platform.Completeness, error) {
	var comp platform.Completeness
	_, err := platform.CollectStreamCtx(ctx, c.world, c.opts.Collect, c.opts.Workers, func(ch *platform.Chunk) error {
		comp.Merge(ch.Completeness)
		return fn(ch)
	})
	return comp, err
}

// openCorpus is the source over a persisted corpus: no world is
// generated, the header's public bundle stands in for it, and the
// footer supplies the completeness ledger. Chunks decode once, every
// column family, on -parallel workers. The reader is opened here
// because its header arms the report builder. The replay does not
// watch for interrupts: it persists nothing, so stopping early would
// save nothing.
func openCorpus(path string, opts experiments.Options) (*Campaign, error) {
	r, err := openReader(path, opts.Workers)
	if err != nil {
		return nil, err
	}
	c := &Campaign{opts: opts, public: r.Public()}
	c.src = func(_ context.Context, fn func(*platform.Chunk) error) (platform.Completeness, error) {
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

// close releases the reader and its file; replay calls it.
func (r *corpusReader) close() {
	r.Close()
	r.f.Close()
}

// replay feeds every chunk to fn in publication order, then closes the
// reader and returns the footer's completeness ledger. Between chunks
// it stops with ctx's cause once ctx is done.
func (r *corpusReader) replay(ctx context.Context, fn func(*platform.Chunk) error) (platform.Completeness, error) {
	defer r.close()
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
// persists the collected chunks as one more stage and is sealed with
// the pass's outcome. The pipeline is named pass1: CI and the
// benchmark tooling read its metric names. The source's spans (a live
// collection's) open under the pipeline's.
func (c *Campaign) pass(ctx context.Context, stages ...stream.Stage[*platform.Chunk]) (platform.Completeness, error) {
	stages = append(stages, c.teeStages()...)
	pipe := stream.NewPipeline("pass1", c.opts.Obs, stages...)
	comp, err := c.src(obs.WithSpan(ctx, pipe.Span()), pipe.Send)
	if cErr := pipe.Close(); err == nil {
		err = cErr
	}
	return comp, c.tee.seal(err)
}

// teeStages is the pass stage that persists the collected chunks: one
// named export when the campaign has a tee, none otherwise.
func (c *Campaign) teeStages() []stream.Stage[*platform.Chunk] {
	if c.tee == nil {
		return nil
	}
	return []stream.Stage[*platform.Chunk]{{Name: "export", Fn: c.tee.write}}
}

// borderAccumulator arms a border accumulator over the campaign's
// inference from the M-Lab host networks' point of view — the VP-side
// org whose interconnects the paper's border analysis cares about —
// with the hosts' origins from MAP-IT's published prefix→AS lookup.
// No relationship lookup is set: the border map feeds gauges of
// neighbor counts only.
func borderAccumulator(w *topogen.World, inf *mapit.Inference, mopts mapit.Opts) *bdrmap.BorderAccumulator {
	seen := map[topology.ASN]bool{}
	var org []topology.ASN
	for _, srv := range w.MLabServers() {
		if asn, ok := mopts.Prefix2AS(srv.Endpoint.Addr); ok && !seen[asn] {
			seen[asn] = true
			org = append(org, asn)
		}
	}
	az := bdrmap.NewAnalyzerFromInference(inf, bdrmap.Opts{OrgASNs: org, MapIt: mopts})
	return az.NewBorderAccumulator()
}
