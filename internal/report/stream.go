// Report assembly: the §7 checklist fed chunk by chunk. Every report
// mode — a live campaign whose chunks are retained in memory, a live
// campaign whose pass 2 replays the corpus pass 1 persisted (bounded
// memory), a persisted corpus replayed off disk, and a resumed
// campaign — drives the one
// StreamBuilder, so their rendered reports are byte-identical. The
// reduction is two-pass — operator inference must see every trace
// before any path can be labeled — and every per-group aggregate is
// either accumulated in corpus order (the float-summation sensitive
// series and bias bins) or order-independent (integer counters, link
// sets), so chunk size and worker count never show in the report.
package report

import (
	"sort"

	"throughputlab/internal/core"
	"throughputlab/internal/datasets"
	"throughputlab/internal/mapit"
	"throughputlab/internal/ndt"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
	"throughputlab/internal/signatures"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// MetroHourOf returns a world-free client-local-hour function backed by
// the static metro table. Persisted corpora carry metro codes, not
// geometry, and the generator sources its metros from the same table,
// so this agrees exactly with the world's own metro local hours.
func MetroHourOf() func(*ndt.Test) float64 {
	offsets := map[string]int{}
	for _, m := range datasets.USMetros() {
		offsets[m.Code] = m.UTCOffset
	}
	return func(t *ndt.Test) float64 {
		// Inline geo.Metro.LocalHour for the known code set; unknown
		// metros fall back to UTC rather than panicking on foreign data.
		h := float64(t.StartMinute)/60 + float64(offsets[t.ClientMetro])
		h -= float64(int(h/24) * 24)
		if h < 0 {
			h += 24
		}
		return h
	}
}

// aggGroup is the per-test half of the group accumulator: everything
// derived from the test stream alone, in publication order (the float
// summation inside series is order-sensitive). Owned by the
// aggregation stage.
type aggGroup struct {
	tests     int
	series    core.Series
	perClient map[uint32]int
	det, ext  int
}

// pairGroup is the association half: counters and sets fed by the
// matcher's finalized pairs, all order-independent. Owned by the
// matching stage, so aggregation and matching can run on separate
// goroutines without sharing a map.
type pairGroup struct {
	matched, oneHop, pathKnown int
	linkSet                    map[uint32]bool
}

// StreamBuilder assembles a Report incrementally. Protocol:
//
//	b := NewStreamBuilder(cfg, hourOf, mapitOpts)
//	for each chunk { b.AddTraces(chunk.Traces) }           // pass 1
//	b.FinishInference()
//	for each chunk {                                       // pass 2, same order
//		b.AddTests(chunk.Tests)
//		b.AddMatch(chunk.Tests, chunk.Traces, chunk.Watermark)
//	}
//	rep := b.Finish(completeness)
//
// Pass 2 replays the same chunks, from memory or from a persisted
// corpus (under -stream, the one pass 1 wrote as it went). Beyond the
// chunks themselves, the builder holds the matcher's watermark buffer
// plus per-group aggregates.
//
// Pass 2's two consumers — AddTests (per-test aggregation) and
// AddMatch (trace association) — hold disjoint state, so a
// stream.Pipeline can run them on separate goroutines. Each must see
// the chunks in publication order; the interleaving BETWEEN them is
// free. Finish (called after both consumers drain) merges their group
// halves.
type StreamBuilder struct {
	cfg    Config
	hourOf func(*ndt.Test) float64
	reg    *obs.Registry

	mb  *mapit.Builder
	inf *mapit.Inference

	matcher *core.StreamMatcher
	agg     map[gkey]*aggGroup
	pairs   map[gkey]*pairGroup
	// path and links are onPair's scratch, reused across pairs.
	path  []topology.ASN
	links []mapit.Link
}

type gkey struct{ net, metro, isp string }

// NewStreamBuilder starts a streaming report assembly.
func NewStreamBuilder(cfg Config, hourOf func(*ndt.Test) float64, opts mapit.Opts) *StreamBuilder {
	if cfg.MinTests == 0 {
		cfg = DefaultConfig()
	}
	return &StreamBuilder{
		cfg:    cfg,
		hourOf: hourOf,
		reg:    opts.Obs,
		mb:     mapit.NewBuilder(opts),
		agg:    map[gkey]*aggGroup{},
		pairs:  map[gkey]*pairGroup{},
	}
}

// AddTraces folds one chunk of traces into the operator inference
// (pass 1).
func (b *StreamBuilder) AddTraces(traces []*traceroute.Trace) {
	if b.inf != nil {
		panic("report: AddTraces after FinishInference")
	}
	b.mb.Add(traces)
}

// FinishInference seals MAP-IT and arms the matcher; it returns the
// inference for callers that also need border analysis
// (bdrmap.NewAnalyzerFromInference).
func (b *StreamBuilder) FinishInference() *mapit.Inference {
	if b.inf != nil {
		return b.inf
	}
	sp := b.reg.Span("mapit")
	b.inf = b.mb.Finish()
	sp.End()
	b.mb = nil
	b.matcher = core.NewStreamMatcher(core.PrimaryWindowMin, core.PrimaryMode)
	b.matcher.OnPair = b.onPair
	b.reg.Events().Publish("report.pass", "inference", -1, int64(len(b.inf.Links)))
	return b.inf
}

// AddTests is the pass-2 aggregation stage: per-test group statistics,
// folded in publication order so the float summation inside each
// group's series is the same for every chunking. It touches only the
// aggregation half of the group state and may run concurrently with
// AddMatch on another goroutine.
func (b *StreamBuilder) AddTests(tests []*ndt.Test) {
	if b.inf == nil {
		panic("report: AddTests before FinishInference")
	}
	for _, t := range tests {
		k := gkey{t.ServerNet, t.ServerMetro, t.ClientISP}
		g := b.agg[k]
		if g == nil {
			g = &aggGroup{perClient: map[uint32]int{}}
			b.agg[k] = g
		}
		g.tests++
		h := b.hourOf(t)
		g.series.Add(h, t)
		g.perClient[uint32(t.ClientAddr)]++
		if h >= 19 && h < 23 {
			switch signatures.Classify(signatures.Extract(t), b.cfg.Signature) {
			case signatures.ExternalCongestion:
				g.det++
				g.ext++
			case signatures.SelfInduced:
				g.det++
			}
		}
	}
}

// AddMatch is the pass-2 association stage: it feeds the watermark
// matcher and accumulates pair statistics. watermark is the chunk's
// scheduling watermark (platform.Chunk.Watermark /
// export.StreamChunk.Watermark). It touches only the pair half of the
// group state and may run concurrently with AddTests on another
// goroutine.
func (b *StreamBuilder) AddMatch(tests []*ndt.Test, traces []*traceroute.Trace, watermark int) {
	if b.inf == nil {
		panic("report: AddMatch before FinishInference")
	}
	b.matcher.Add(tests, traces, watermark)
	if b.reg != nil {
		pt, pr := b.matcher.InFlight()
		b.reg.Gauge("report.stream.pending_tests").Set(int64(pt))
		b.reg.Gauge("report.stream.buffered_traces").Set(int64(pr))
	}
}

// onPair receives finalized associations from the matcher. Everything
// it touches is order-independent (counters and set inserts), so the
// matcher's finalization order — which differs from group order — never
// shows in the report.
func (b *StreamBuilder) onPair(t *ndt.Test, tr *traceroute.Trace) {
	if tr == nil {
		return
	}
	k := gkey{t.ServerNet, t.ServerMetro, t.ClientISP}
	g := b.pairs[k]
	if g == nil {
		g = &pairGroup{linkSet: map[uint32]bool{}}
		b.pairs[k] = g
	}
	g.matched++
	b.path = b.inf.AppendASPath(b.path[:0], tr)
	if len(b.path) >= 2 {
		g.pathKnown++
		if len(b.path) == 2 {
			g.oneHop++
		}
	}
	if b.links = b.inf.AppendLinks(b.links[:0], tr); len(b.links) > 0 {
		g.linkSet[uint32(b.links[0].Far)] = true
	}
}

// Finish drains the matcher, merges the aggregation and pair halves of
// every group, grades them, and returns the report. It must run only
// after both pass-2 stages have drained.
func (b *StreamBuilder) Finish(completeness platform.Completeness) *Report {
	if b.inf == nil {
		b.FinishInference()
	}
	m := b.matcher.Finish()
	if b.reg != nil {
		// The matcher hands pairs to onPair instead of filling ByTest, so
		// m.Matched() is 0 here: count the finalized pairs instead.
		pairs := 0
		for _, p := range b.pairs {
			pairs += p.matched
		}
		b.reg.Gauge("match.pairs").Set(int64(pairs))
		b.reg.Gauge("match.degraded").Set(int64(m.Degraded))
	}

	// Every pair comes from a finalized test, so the aggregation map
	// covers every key the pair map can hold; iterating agg loses
	// nothing.
	keys := make([]gkey, 0, len(b.agg))
	for k, g := range b.agg {
		if g.tests >= b.cfg.MinTests {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, c := keys[i], keys[j]
		if a.net != c.net {
			return a.net < c.net
		}
		if a.metro != c.metro {
			return a.metro < c.metro
		}
		return a.isp < c.isp
	})

	rep := &Report{Completeness: completeness, MatchedDegraded: m.Degraded}
	var none pairGroup
	for _, k := range keys {
		g := b.agg[k]
		p := b.pairs[k]
		if p == nil {
			p = &none
		}
		f := Finding{
			ServerNet: k.net, ServerMetro: k.metro, ClientISP: k.isp,
			Tests:       g.tests,
			MatchedFrac: frac(p.matched, g.tests),
			OneHopFrac:  frac(p.oneHop, p.pathKnown),
			IPLinks:     len(p.linkSet),
		}
		f.Detector = core.Detect(&g.series, b.cfg.Detector)
		f.Bias = core.BiasFromBins(&g.series.Throughput, g.perClient, b.cfg.Detector.MinSamples)
		f.ExternalSigFrac = frac(g.ext, g.det)
		grade(&f, b.cfg)
		switch f.Grade {
		case CongestedHighConfidence, CongestedLowConfidence:
			rep.Congested++
		case Ambiguous:
			rep.Ambiguous++
		}
		rep.Findings = append(rep.Findings, f)
	}
	b.reg.Events().Publish("report.pass", "final", -1, int64(len(rep.Findings)))
	return rep
}
