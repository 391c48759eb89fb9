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

	"throughputlab/internal/core"
	"throughputlab/internal/mapit"
	"throughputlab/internal/ndt"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
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
	// threads it through world generation, corpus collection, and the
	// shared inference stages, and RunParallelCtx records
	// per-experiment spans on it. Experiment output is byte-identical
	// with and without it.
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

	// vps caches the §5 per-VP analyses; vpsOnce guards the build,
	// which fans the VPs out on Opts.Workers, so concurrent experiments
	// share one computation (Env must not be copied).
	vpsOnce sync.Once
	vps     []*VPAnalysis
}

// NewEnvCtx generates the world, collects the corpus, and runs the
// shared inference stages, using opts.Workers goroutines for the
// collection and inference phases. When opts.Obs is set, every phase
// is traced and the layers report their metrics to it. Generation
// stops at its next phase boundary and collection at its next chunk
// boundary once ctx is cancelled, returning an error that wraps the
// context's cause.
func NewEnvCtx(ctx context.Context, opts Options) (*Env, error) {
	opts.Topo.Obs = opts.Obs
	opts.Collect.Obs = opts.Obs
	w, err := topogen.GenerateCtx(ctx, opts.Topo)
	if err != nil {
		return nil, err
	}
	w.Observe(opts.Obs)
	corpus, err := platform.CollectParallelCtx(ctx, w, opts.Collect, opts.workers())
	if err != nil {
		return nil, err
	}
	return NewEnvWithCorpus(opts, w, corpus), nil
}

// NewEnvWithCorpus builds an Env over an already-collected corpus —
// the CLI's path, which collects the campaign itself —
// running only the shared inference stages. The result is identical to
// NewEnvCtx when the corpus is: inference is a pure function of
// (world, corpus).
func NewEnvWithCorpus(opts Options, w *topogen.World, corpus *platform.Corpus) *Env {
	reg := opts.Obs
	opts.Topo.Obs = reg
	opts.Collect.Obs = reg
	e := &Env{Opts: opts, World: w, Corpus: corpus}
	sp := reg.Span("mapit")
	e.Inference = mapit.Run(corpus.Traces, e.MapItOpts())
	sp.End()
	sp = reg.Span("match")
	e.Matching = core.MatchTraces(corpus.Tests, corpus.Traces, core.PrimaryWindowMin, core.PrimaryMode)
	sp.End()
	reg.Gauge("match.pairs").Set(int64(e.Matching.Matched()))
	reg.Gauge("match.degraded").Set(int64(e.Matching.Degraded))
	return e
}

// MapItOpts builds the public-dataset options for this world.
func (e *Env) MapItOpts() mapit.Opts {
	w := e.World
	return mapit.Opts{
		Workers:   e.Opts.workers(),
		Obs:       e.Opts.Obs,
		Prefix2AS: w.Topo.OriginOf,
		IsIXP: func(a netaddr.Addr) bool {
			for _, p := range w.Topo.IXPPrefixes {
				if p.Contains(a) {
					return true
				}
			}
			return false
		},
		SameOrg: func(x, y topology.ASN) bool { return x == y || w.Topo.SameOrg(x, y) },
	}
}

// HourOf returns a test's client-local hour.
func (e *Env) HourOf(t *ndt.Test) float64 {
	return e.World.Topo.MustMetro(t.ClientMetro).LocalHour(t.StartMinute)
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
