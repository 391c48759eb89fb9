// Command trace is the benchmark's traced run. It mirrors one tputlab
// workload in process — the layer calls cmd/tputlab composes for
// `report -stream -corpus-out`, `report -corpus` and `run all` — but
// calls the layers one after another and times every call from here, so
// the layers' self times add up to the run's wall time. Collection runs
// in barrier mode, and the corpus writer and reader run with one encode
// or decode worker, so no layer's work continues on a goroutine after
// its call returns.
//
// It prints one JSON object: the text tputlab prints to stdout for the
// same flags, and every per-layer metric, 0 for layers the workload
// does not reach.
//
//	trace -workload campaign -scale medium -tests 120000 -seed 1 -corpus out.col
//	trace -workload reload -corpus in.col
//	trace -workload paper -scale default -seed 1
//	trace -env
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"throughputlab/internal/bdrmap"
	"throughputlab/internal/checkpoint"
	"throughputlab/internal/core"
	"throughputlab/internal/datasets"
	"throughputlab/internal/experiments"
	"throughputlab/internal/export"
	"throughputlab/internal/faults"
	"throughputlab/internal/mapit"
	"throughputlab/internal/platform"
	"throughputlab/internal/report"
	"throughputlab/internal/routing"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// layerMetrics lists the per-layer metrics every workload emits, in
// addition to one experiments.<name>_s per registry entry.
var layerMetrics = []string{
	"topogen.generate_s", "topogen.alloc_mb",
	"platform.collect_s", "platform.passes", "platform.tests", "platform.traces", "platform.alloc_mb",
	"routing.segment_hit_ratio", "routing.inter_hit_ratio", "routing.aspath_hit_ratio",
	"checkpoint.write_s", "checkpoint.alloc_mb",
	"export.decode_s", "export.decode_mb_per_s", "export.corpus_mb", "export.alloc_mb",
	"mapit.add_s", "mapit.finish_s", "mapit.traces", "mapit.alloc_mb",
	"core.match_s", "core.matched_ratio", "core.alloc_mb",
	"bdrmap.add_s", "bdrmap.borders", "bdrmap.alloc_mb",
	"report.aggregate_s", "report.render_s", "report.findings", "report.alloc_mb",
	"experiments.alloc_mb",
	"traced.wall_s", "unattributed_s",
}

const mib = 1 << 20

// workers mirrors the -parallel 2 -genworkers 2 every benchmark
// invocation of tputlab passes.
const workers = 2

type config struct {
	workload, scale, corpus string
	seed                    int64
	tests                   int
}

type result struct {
	Stdout  string             `json:"stdout"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "campaign, reload or paper")
	flag.StringVar(&c.scale, "scale", "default", "tputlab -scale: small, default or medium")
	flag.StringVar(&c.corpus, "corpus", "", "corpus the campaign writes or the reload reads")
	flag.Int64Var(&c.seed, "seed", 1, "tputlab -seed")
	flag.IntVar(&c.tests, "tests", 0, "tputlab -tests (0 = scale default)")
	env := flag.Bool("env", false, "print the Go runtime environment as JSON and exit")
	flag.Parse()

	enc := json.NewEncoder(os.Stdout)
	if *env {
		if err := enc.Encode(map[string]any{
			"go_version": runtime.Version(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		}); err != nil {
			fatal(err)
		}
		return
	}
	res, err := run(context.Background(), c)
	if err != nil {
		fatal(err)
	}
	if err := enc.Encode(res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace:", err)
	os.Exit(1)
}

func run(ctx context.Context, c config) (*result, error) {
	if c.workload != "paper" && c.corpus == "" {
		return nil, fmt.Errorf("-workload %s needs -corpus", c.workload)
	}
	l := &ledger{m: map[string]float64{}, self: map[string]bool{}}
	var out string
	var err error
	start := time.Now()
	switch c.workload {
	case "campaign":
		out, err = campaign(ctx, l, c)
	case "reload":
		out, err = reload(l, c)
	case "paper":
		out, err = paper(ctx, l, c)
	default:
		return nil, fmt.Errorf("unknown -workload %q (want campaign, reload or paper)", c.workload)
	}
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	res := &result{Stdout: out, Metrics: l.metrics(wall)}
	if c.workload != "paper" {
		fi, err := os.Stat(c.corpus)
		if err != nil {
			return nil, err
		}
		res.Metrics["export.corpus_mb"] = float64(fi.Size()) / mib
		if d := res.Metrics["export.decode_s"]; d > 0 {
			res.Metrics["export.decode_mb_per_s"] = res.Metrics["export.corpus_mb"] / d
		}
	}
	return res, nil
}

// ledger accumulates per-layer metrics. Self-time metrics are those
// passed to time; they partition the traced run's wall time, up to the
// gaps between calls that unattributed_s reports.
type ledger struct {
	m    map[string]float64
	self map[string]bool
	// childWall and childAlloc accumulate the nested time calls of the
	// call in progress, which its own metrics exclude.
	childWall  time.Duration
	childAlloc uint64
}

// time runs fn, charging its wall time minus that of nested time calls
// to the metric self and its heap allocation, likewise net of nested
// calls, to the metric alloc.
func (l *ledger) time(self, alloc string, fn func()) {
	outerWall, outerAlloc := l.childWall, l.childAlloc
	l.childWall, l.childAlloc = 0, 0
	start := time.Now()
	a0 := totalAlloc()
	fn()
	a := totalAlloc() - a0
	d := time.Since(start)
	l.self[self] = true
	l.m[self] += (d - l.childWall).Seconds()
	l.m[alloc] += float64(a-l.childAlloc) / mib
	l.childWall, l.childAlloc = outerWall+d, outerAlloc+a
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// metrics returns every declared metric, 0 where nothing was recorded,
// with the traced run's wall time and the part of it no layer claimed.
func (l *ledger) metrics(wall time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, name := range layerMetrics {
		out[name] = 0
	}
	for _, e := range experiments.Registry() {
		out["experiments."+e.Name+"_s"] = 0
	}
	attributed := 0.0
	for name, v := range l.m {
		out[name] = v
		if l.self[name] {
			attributed += v
		}
	}
	out["traced.wall_s"] = wall.Seconds()
	out["unattributed_s"] = wall.Seconds() - attributed
	return out
}

// options mirrors tputlab's flag handling for the flags the benchmark
// passes: -scale, -seed, -tests, -parallel and -genworkers, with
// faults off.
func (c config) options() (experiments.Options, error) {
	var opts experiments.Options
	switch c.scale {
	case "small":
		opts = experiments.QuickOptions()
	case "default":
		opts = experiments.DefaultOptions()
	case "medium":
		opts = experiments.DefaultOptions()
		opts.Topo.Scale = datasets.MediumScale()
	default:
		return opts, fmt.Errorf("unsupported -scale %q (want small, default or medium)", c.scale)
	}
	prof, err := faults.ByName("off")
	if err != nil {
		return opts, err
	}
	opts.Topo.Seed = c.seed
	opts.Topo.Workers = workers
	if c.tests > 0 {
		opts.Collect.Tests = c.tests
	}
	opts.Collect.Faults = prof
	opts.Workers = workers
	return opts, nil
}

// generate times world generation.
func generate(ctx context.Context, l *ledger, opts experiments.Options) (*topogen.World, error) {
	var w *topogen.World
	var err error
	l.time("topogen.generate_s", "topogen.alloc_mb", func() { w, err = topogen.GenerateCtx(ctx, opts.Topo) })
	return w, err
}

// collect times one collection pass, net of the sink's own layer calls,
// and adds its routing cache traffic to rs.
func collect(ctx context.Context, l *ledger, w *topogen.World, opts experiments.Options, rs *routing.Stats, sink func(*platform.Chunk) error) (*platform.StreamStats, error) {
	before := w.Resolver.Stats()
	var st *platform.StreamStats
	var err error
	l.time("platform.collect_s", "platform.alloc_mb", func() {
		st, err = platform.CollectStreamCtx(ctx, w, opts.Collect, opts.Workers, sink)
	})
	addStats(rs, before, w.Resolver.Stats())
	if err != nil {
		return nil, err
	}
	l.m["platform.passes"]++
	l.m["platform.tests"] = float64(st.Tests)
	l.m["platform.traces"] = float64(st.Traces)
	return st, nil
}

func addStats(rs *routing.Stats, before, after routing.Stats) {
	rs.SegmentHits += after.SegmentHits - before.SegmentHits
	rs.SegmentMisses += after.SegmentMisses - before.SegmentMisses
	rs.InterHits += after.InterHits - before.InterHits
	rs.InterMisses += after.InterMisses - before.InterMisses
	rs.ASPathHits += after.ASPathHits - before.ASPathHits
	rs.ASPathMisses += after.ASPathMisses - before.ASPathMisses
}

func (l *ledger) routing(rs routing.Stats) {
	l.m["routing.segment_hit_ratio"] = ratio(rs.SegmentHits, rs.SegmentHits+rs.SegmentMisses)
	l.m["routing.inter_hit_ratio"] = ratio(rs.InterHits, rs.InterHits+rs.InterMisses)
	l.m["routing.aspath_hit_ratio"] = ratio(rs.ASPathHits, rs.ASPathHits+rs.ASPathMisses)
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// campaign mirrors `tputlab report -stream -corpus-out F -corpus-format
// columnar`: pass 1 feeds MAP-IT and the checkpointing corpus writer,
// pass 2 re-collects the identical stream into aggregation, matching and
// the bdrmap border accumulator, and the report renders.
func campaign(ctx context.Context, l *ledger, c config) (string, error) {
	opts, err := c.options()
	if err != nil {
		return "", err
	}
	w, err := generate(ctx, l, opts)
	if err != nil {
		return "", err
	}
	var mopts mapit.Opts
	var b *report.StreamBuilder
	l.time("mapit.add_s", "mapit.alloc_mb", func() {
		mopts = export.FromWorld(w, nil).Lookups().MapItOpts()
		mopts.Workers = workers
		b = report.NewStreamBuilder(report.DefaultConfig(), report.MetroHourOf(), mopts)
	})
	const format = "columnar"
	var cw *checkpoint.Writer
	l.time("checkpoint.write_s", "checkpoint.alloc_mb", func() {
		cw, err = checkpoint.Create(c.corpus, format, export.FromWorld(w, nil).Public,
			export.StreamMeta{Scale: c.scale, Seed: opts.Topo.Seed, Tests: opts.Collect.Tests},
			checkpoint.Fingerprint{
				Scale: c.scale, Seed: opts.Topo.Seed, Tests: opts.Collect.Tests,
				Shards: opts.Collect.Shards, ChunkTests: opts.Collect.ChunkTests,
				Faults: opts.Collect.Faults.Name, FaultSeed: opts.Collect.FaultSeed, Format: format,
			}, 1, checkpoint.Options{})
	})
	if err != nil {
		return "", err
	}

	var rs routing.Stats
	_, err = collect(ctx, l, w, opts, &rs, func(ch *platform.Chunk) error {
		l.time("mapit.add_s", "mapit.alloc_mb", func() { b.AddTraces(ch.Traces) })
		l.m["mapit.traces"] += float64(len(ch.Traces))
		var werr error
		l.time("checkpoint.write_s", "checkpoint.alloc_mb", func() { werr = cw.WriteChunk(ch) })
		return werr
	})
	if err != nil {
		cw.Discard()
		return "", err
	}
	l.time("checkpoint.write_s", "checkpoint.alloc_mb", func() { err = cw.Close() })
	if err != nil {
		return "", err
	}
	var inf *mapit.Inference
	l.time("mapit.finish_s", "mapit.alloc_mb", func() { inf = b.FinishInference() })
	var acc *bdrmap.BorderAccumulator
	l.time("bdrmap.add_s", "bdrmap.alloc_mb", func() { acc = borderAccumulator(w, inf, mopts) })

	st, err := collect(ctx, l, w, opts, &rs, func(ch *platform.Chunk) error {
		l.time("report.aggregate_s", "report.alloc_mb", func() { b.AddTests(ch.Tests) })
		l.time("core.match_s", "core.alloc_mb", func() { b.AddMatch(ch.Tests, ch.Traces, ch.Watermark) })
		l.time("bdrmap.add_s", "bdrmap.alloc_mb", func() { acc.Add(ch.Traces) })
		return nil
	})
	if err != nil {
		return "", err
	}
	l.routing(rs)
	l.time("bdrmap.add_s", "bdrmap.alloc_mb", func() { l.m["bdrmap.borders"] = float64(len(acc.Result().Borders)) })
	var out string
	l.time("report.render_s", "report.alloc_mb", func() {
		rep := b.Finish(st.Completeness)
		l.findings(rep)
		out = rep.Render() + "\n"
	})
	return out, nil
}

// findings records the report's finding count and, because the
// streamed matcher keeps no campaign-wide pair count, the matched share
// of the tests in the reported groups as core.matched_ratio.
func (l *ledger) findings(rep *report.Report) {
	l.m["report.findings"] = float64(len(rep.Findings))
	matched, tests := 0.0, 0
	for _, f := range rep.Findings {
		matched += f.MatchedFrac * float64(f.Tests)
		tests += f.Tests
	}
	if tests > 0 {
		l.m["core.matched_ratio"] = matched / float64(tests)
	}
}

// borderAccumulator is tputlab's bdrmapAccumulator: border inference
// from the point of view of the M-Lab host networks.
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

// reload mirrors `tputlab report -corpus F`: a traces-only pass for
// MAP-IT, then a full pass into aggregation and matching.
func reload(l *ledger, c config) (string, error) {
	// pass replays the corpus once. With one decode worker each chunk is
	// decoded inside the Next call that returns it.
	pass := func(proj export.Projection, onHeader func(export.CorpusReader), fn func(*export.StreamChunk)) (export.CorpusReader, error) {
		f, err := os.Open(c.corpus)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var cr export.CorpusReader
		l.time("export.decode_s", "export.alloc_mb", func() { cr, err = export.OpenCorpusProjected(f, 1, proj) })
		if err != nil {
			return nil, err
		}
		defer cr.Close()
		if onHeader != nil {
			onHeader(cr)
		}
		for {
			var ch *export.StreamChunk
			l.time("export.decode_s", "export.alloc_mb", func() { ch, err = cr.Next() })
			if err == io.EOF {
				return cr, nil
			}
			if err != nil {
				return nil, err
			}
			fn(ch)
		}
	}

	var b *report.StreamBuilder
	if _, err := pass(export.Projection{Traces: true}, func(cr export.CorpusReader) {
		l.time("mapit.add_s", "mapit.alloc_mb", func() {
			mopts := (&export.Dataset{Public: *cr.Public()}).Lookups().MapItOpts()
			mopts.Workers = workers
			b = report.NewStreamBuilder(report.DefaultConfig(), report.MetroHourOf(), mopts)
		})
	}, func(ch *export.StreamChunk) {
		l.time("mapit.add_s", "mapit.alloc_mb", func() { b.AddTraces(ch.Traces) })
		l.m["mapit.traces"] += float64(len(ch.Traces))
	}); err != nil {
		return "", err
	}
	l.time("mapit.finish_s", "mapit.alloc_mb", func() { b.FinishInference() })

	sr, err := pass(export.EverythingProjection(), nil, func(ch *export.StreamChunk) {
		l.time("report.aggregate_s", "report.alloc_mb", func() { b.AddTests(ch.Tests) })
		l.time("core.match_s", "core.alloc_mb", func() { b.AddMatch(ch.Tests, ch.Traces, ch.Watermark) })
	})
	if err != nil {
		return "", err
	}
	var out string
	l.time("report.render_s", "report.alloc_mb", func() {
		rep := b.Finish(sr.Footer().Completeness)
		l.findings(rep)
		out = rep.Render() + "\n"
	})
	return out, nil
}

// paper mirrors `tputlab run all`: a batch collection, MAP-IT and
// matching over the whole corpus, then every registry experiment, here
// one at a time.
func paper(ctx context.Context, l *ledger, c config) (string, error) {
	opts, err := c.options()
	if err != nil {
		return "", err
	}
	w, err := generate(ctx, l, opts)
	if err != nil {
		return "", err
	}
	corpus := &platform.Corpus{}
	var rs routing.Stats
	st, err := collect(ctx, l, w, opts, &rs, func(ch *platform.Chunk) error {
		corpus.Tests = append(corpus.Tests, ch.Tests...)
		corpus.Traces = append(corpus.Traces, ch.Traces...)
		return nil
	})
	if err != nil {
		return "", err
	}
	corpus.TestsWithoutTrace = st.TestsWithoutTrace
	corpus.Completeness = st.Completeness
	l.routing(rs)

	env := &experiments.Env{Opts: opts, World: w, Corpus: corpus}
	l.time("mapit.add_s", "mapit.alloc_mb", func() { env.Inference = mapit.Run(corpus.Traces, env.MapItOpts()) })
	l.m["mapit.traces"] = float64(len(corpus.Traces))
	l.time("core.match_s", "core.alloc_mb", func() {
		env.Matching = core.MatchTraces(corpus.Tests, corpus.Traces, 10, core.WindowAfter)
	})
	l.m["core.matched_ratio"] = ratio(uint64(env.Matching.Matched()), uint64(len(corpus.Tests)))

	var sb strings.Builder
	for _, entry := range experiments.Registry() {
		l.time("experiments."+entry.Name+"_s", "experiments.alloc_mb", func() {
			var r experiments.Renderer
			if r, err = entry.Run(env); err == nil {
				sb.WriteString("=== " + entry.Name + " — " + entry.Paper + " ===\n" + r.Render() + "\n")
			}
		})
		if err != nil {
			return "", fmt.Errorf("experiment %s: %w", entry.Name, err)
		}
	}
	return sb.String(), nil
}
