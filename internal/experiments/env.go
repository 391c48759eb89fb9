// Package experiments regenerates every table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index). Each
// experiment consumes the shared Env — a generated world plus a
// collected NDT/traceroute corpus — and returns a typed result whose
// Render method prints the same rows or series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"

	"throughputlab/internal/bdrmap"
	"throughputlab/internal/core"
	"throughputlab/internal/export"
	"throughputlab/internal/mapit"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
	"throughputlab/internal/stream"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// Options parameterizes an experiment environment.
type Options struct {
	Topo    topogen.Config
	Collect platform.CollectConfig
	// Workers bounds engine parallelism (0 or 1 = serial): corpus
	// collection and MAP-IT inference, and inside the experiment sweep
	// the per-VP analyses and the corpora some experiments collect on
	// their own. Results are identical for every worker count — see the
	// determinism contract in DESIGN.md.
	Workers int
	// Obs, when non-nil, instruments the whole pipeline: NewEnvCtx
	// threads it through world generation and corpus collection,
	// CollectEnv through its pass and the shared inference stages, and
	// RunParallelCtx records per-experiment spans on it. Experiment
	// output is byte-identical with and without it.
	Obs *obs.Registry
}

// workers returns the effective worker count (at least 1).
func (o Options) workers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// DefaultOptions is the full-scale configuration used by cmd/tputlab.
func DefaultOptions() Options {
	return Options{Topo: topogen.DefaultConfig(), Collect: platform.DefaultCollect()}
}

// QuickOptions is a reduced configuration for tests and examples.
func QuickOptions() Options {
	cfg := platform.DefaultCollect()
	cfg.Tests = 8000
	cfg.PerPoolClients = 10
	return Options{Topo: topogen.SmallConfig(), Collect: cfg}
}

// Env is the shared state for all experiments.
type Env struct {
	Opts   Options
	World  *topogen.World
	Corpus *platform.Corpus
	// Inference is MAP-IT over the corpus traceroutes.
	Inference *mapit.Inference
	// Matching associates tests with traceroutes under the paper's
	// primary window (core.PrimaryWindowMin, core.PrimaryMode).
	Matching *core.Matching

	// lk caches the world's published lookups; lkOnce guards the build,
	// which keeps an lk set before first use (an Env over the same
	// world shares its lookups that way).
	lkOnce sync.Once
	lk     *export.Lookups

	// vps caches the §5 per-VP analyses; vpsOnce guards the build,
	// which fans the VPs out on Opts.Workers, so concurrent experiments
	// share one computation (Env must not be copied).
	vpsOnce sync.Once
	vps     []*VPAnalysis
}

// NewEnvCtx generates the world and builds the Env over it with
// CollectEnv. When opts.Obs is set, every phase is traced and the
// layers report their metrics to it. Generation stops at its next
// phase boundary and collection at its next chunk boundary once ctx is
// cancelled, returning an error that wraps the context's cause.
func NewEnvCtx(ctx context.Context, opts Options) (*Env, error) {
	opts.Topo.Obs = opts.Obs
	opts.Collect.Obs = opts.Obs
	w, err := topogen.GenerateCtx(ctx, opts.Topo)
	if err != nil {
		return nil, err
	}
	w.Observe(opts.Obs)
	return CollectEnv(ctx, opts, w)
}

// CollectEnv is the one way from a world to an Env: it collects
// opts.Collect's campaign over w on opts.Workers workers and infers
// while it collects. Every chunk goes through one stream.Pipeline
// (pass1, as the report's) whose stages keep it in the corpus, feed it
// to MAP-IT over the world's published lookups (MapItOpts) and to the
// primary-window matcher; extra stages (a corpus tee) see the same
// chunks in the same order. MAP-IT and the matcher are sealed once the
// pass ends. opts.Obs instruments the pass, MAP-IT and the matching;
// collection reports to opts.Collect.Obs, so an experiment that builds
// its own Env can trace its collection without touching the run's
// inference metrics. The Env is the same for every worker count and
// chunk size.
func CollectEnv(ctx context.Context, opts Options, w *topogen.World, extra ...stream.Stage[*platform.Chunk]) (*Env, error) {
	e := &Env{Opts: opts, World: w}
	if err := e.collect(ctx, extra...); err != nil {
		return nil, err
	}
	return e, nil
}

// collect is CollectEnv over e's options and world: it fills e's
// corpus, inference and matching.
func (e *Env) collect(ctx context.Context, extra ...stream.Stage[*platform.Chunk]) error {
	opts := e.Opts
	reg := opts.Obs
	e.Corpus = &platform.Corpus{}
	mopts := e.MapItOpts()
	mopts.Obs = reg
	mb := mapit.NewBuilder(mopts)
	sm := core.NewStreamMatcher(core.Window{Min: core.PrimaryWindowMin, Mode: core.PrimaryMode})
	stages := append([]stream.Stage[*platform.Chunk]{
		{Name: "corpus", Fn: func(ch *platform.Chunk) error {
			c := e.Corpus
			c.Tests = append(c.Tests, ch.Tests...)
			c.Traces = append(c.Traces, ch.Traces...)
			c.TestsWithoutTrace += ch.TestsWithoutTrace
			c.Completeness.Merge(ch.Completeness)
			return nil
		}},
		{Name: "mapit", Fn: func(ch *platform.Chunk) error { mb.Add(ch.Traces); return nil }},
		{Name: "match", Fn: func(ch *platform.Chunk) error { sm.Add(ch.Tests, ch.Traces, ch.Watermark); return nil }},
	}, extra...)
	pipe := stream.NewPipeline("pass1", reg, stages...)
	_, err := platform.CollectStreamCtx(obs.WithSpan(ctx, pipe.Span()), e.World, opts.Collect, opts.workers(), pipe.Send)
	if cErr := pipe.Close(); err == nil {
		err = cErr
	}
	if err != nil {
		return err
	}
	sp := reg.Span("mapit")
	e.Inference = mb.Finish()
	sp.End()
	sp = reg.Span("match")
	e.Matching = sm.Finish()[0]
	sp.End()
	reg.Gauge("match.pairs").Set(int64(e.Matching.Matched()))
	reg.Gauge("match.degraded").Set(int64(e.Matching.Degraded))
	return nil
}

// lookups are the world's published lookups (export.FromWorld:
// CAIDA-style prefix→AS, AS relationships, AS→organization and IXP
// prefixes), the data the paper's tools ran on and all that the Env's
// inference reads of the world. They are built once per Env, also on
// an Env literal.
func (e *Env) lookups() *export.Lookups {
	e.lkOnce.Do(func() {
		if e.lk == nil {
			e.lk = export.FromWorld(e.World, nil).Lookups()
		}
	})
	return e.lk
}

// MapItOpts is MAP-IT's options over the Env's published lookups, with
// Opts.Workers. They carry no registry: only CollectEnv's own
// inference is instrumented.
func (e *Env) MapItOpts() mapit.Opts {
	mopts := e.lookups().MapItOpts()
	mopts.Workers = e.Opts.workers()
	return mopts
}

// bdrmapOpts arms bdrmap for vp from the Env's published lookups: the
// VP's org is the AS→org row of its address's origin, its
// relationships are the published ones, and MAP-IT is MapItOpts.
func (e *Env) bdrmapOpts(vp topogen.ArkVP) bdrmap.Opts {
	lk := e.lookups()
	asn, _ := lk.OriginOf(vp.Host.Endpoint.Addr)
	return bdrmap.Opts{OrgASNs: lk.Siblings(asn), MapIt: e.MapItOpts(), Rel: lk.Rel}
}

// OrgName returns the organization name for an ASN ("AS<n>" fallback).
func (e *Env) OrgName(asn topology.ASN) string {
	if as := e.World.Topo.AS(asn); as != nil {
		if as.Org != nil {
			return as.Org.Name
		}
		return as.Name
	}
	return fmt.Sprintf("AS%d", asn)
}

// table renders rows with tab alignment.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	fmt.Fprintln(tw, strings.Repeat("-", 4+8*len(header)))
	for _, r := range rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	return sb.String()
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
