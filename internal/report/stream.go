// Report assembly: the §7 checklist fed chunk by chunk. Every report
// mode — a live campaign, a resumed one, and a persisted corpus
// replayed off disk — reads its chunks once into the one StreamBuilder,
// so their rendered reports are byte-identical. Operator inference must
// see every trace before any path can be labelled, so matched pairs
// keep their traces' router paths until MAP-IT is sealed; every
// per-group aggregate is either accumulated in corpus order (the
// float-summation sensitive series and bias bins) or order-independent
// (integer counters, link sets), so chunk size and worker count never
// show in the report.
package report

import (
	"sort"

	"throughputlab/internal/core"
	"throughputlab/internal/datasets"
	"throughputlab/internal/mapit"
	"throughputlab/internal/ndt"
	"throughputlab/internal/netaddr"
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
// matching stage until Finish labels the deferred pairs, so
// aggregation and matching can run on separate goroutines without
// sharing a map.
type pairGroup struct {
	matched, oneHop, pathKnown int
	linkSet                    map[uint32]bool
}

// deferredPair is a matched pair whose trace is labelled at Finish: its
// pair group, the end of its router path in the builder's arena (the
// path starts where the previous pair's ends), and the trace's
// destination as AppendPathAS reads it.
type deferredPair struct {
	group, end int32
	dst        netaddr.Addr
	reached    bool
}

// StreamBuilder assembles a Report incrementally, in one read of the
// chunks. Protocol:
//
//	b := NewStreamBuilder(cfg, hourOf, mapitOpts)
//	for each chunk, in publication order {
//		b.AddTraces(chunk.Traces)
//		b.AddTests(chunk.Tests)
//		b.AddMatch(chunk.Tests, chunk.Traces, chunk.Watermark)
//	}
//	rep := b.Finish(completeness)
//
// The three consumers hold disjoint state, so a stream.Pipeline can
// run them on separate goroutines. Each must see the chunks in
// publication order; the interleaving between them is free. Matching
// reads nothing inferred: a matched pair's group counts it at once and
// its trace's router path is kept in a flat arena, and Finish — after
// every consumer has drained — seals MAP-IT (FinishInference), drains
// the matcher, labels the kept paths, and merges the group halves.
// Beyond the chunks in flight, the builder holds MAP-IT's adjacency
// table, the matcher's watermark buffer, the router paths of the
// matched non-degraded pairs, and per-group aggregates.
//
// FinishInference may also be called between the traces and the other
// consumers, when a caller reads the chunks twice; the report is the
// same.
type StreamBuilder struct {
	cfg    Config
	hourOf func(*ndt.Test) float64
	reg    *obs.Registry

	mb  *mapit.Builder
	inf *mapit.Inference

	matcher *core.StreamMatcher
	agg     map[gkey]*aggGroup
	// groupOf indexes pairs by group key; routers and deferred hold the
	// matched pairs awaiting labelling (see deferredPair).
	groupOf  map[gkey]int32
	pairs    []pairGroup
	routers  []netaddr.Addr
	deferred []deferredPair
	// path and links are label's scratch, reused across pairs.
	path  []topology.ASN
	links []mapit.Link
}

type gkey struct{ net, metro, isp string }

// NewStreamBuilder starts a streaming report assembly.
func NewStreamBuilder(cfg Config, hourOf func(*ndt.Test) float64, opts mapit.Opts) *StreamBuilder {
	if cfg.MinTests == 0 {
		cfg = DefaultConfig()
	}
	b := &StreamBuilder{
		cfg:     cfg,
		hourOf:  hourOf,
		reg:     opts.Obs,
		mb:      mapit.NewBuilder(opts),
		matcher: core.NewStreamMatcher(core.PrimaryWindowMin, core.PrimaryMode),
		agg:     map[gkey]*aggGroup{},
		groupOf: map[gkey]int32{},
	}
	b.matcher.OnPair = b.onPair
	return b
}

// AddTraces folds one chunk of traces into the operator inference.
func (b *StreamBuilder) AddTraces(traces []*traceroute.Trace) {
	if b.inf != nil {
		panic("report: AddTraces after FinishInference")
	}
	b.mb.Add(traces)
}

// FinishInference seals MAP-IT once every trace is added and returns
// the inference, for callers that also need border analysis
// (bdrmap.NewAnalyzerFromInference). Finish calls it if nobody has.
func (b *StreamBuilder) FinishInference() *mapit.Inference {
	if b.inf != nil {
		return b.inf
	}
	sp := b.reg.Span("mapit")
	b.inf = b.mb.Finish()
	sp.End()
	b.mb = nil
	b.reg.Events().Publish("report.pass", "inference", -1, int64(len(b.inf.Links)))
	return b.inf
}

// AddTests is the aggregation consumer: per-test group statistics,
// folded in publication order so the float summation inside each
// group's series is the same for every chunking. It touches only the
// aggregation half of the group state and may run concurrently with
// AddTraces and AddMatch on other goroutines.
func (b *StreamBuilder) AddTests(tests []*ndt.Test) {
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

// AddMatch is the association consumer: it feeds the watermark matcher
// and defers each finalized pair's labelling to Finish. watermark is
// the chunk's scheduling watermark (platform.Chunk.Watermark /
// export.StreamChunk.Watermark). It touches only the pair half of the
// group state and may run concurrently with AddTraces and AddTests on
// other goroutines.
func (b *StreamBuilder) AddMatch(tests []*ndt.Test, traces []*traceroute.Trace, watermark int) {
	b.matcher.Add(tests, traces, watermark)
	if b.reg != nil {
		pt, pr := b.matcher.InFlight()
		b.reg.Gauge("report.stream.pending_tests").Set(int64(pt))
		b.reg.Gauge("report.stream.buffered_traces").Set(int64(pr))
	}
}

// onPair receives finalized associations from the matcher: it counts
// the pair in its group and, for a non-degraded trace, keeps the
// trace's router path for Finish to label (a degraded trace has no AS
// path and no links). Everything a pair feeds is order-independent
// (counters and set inserts), so the matcher's finalization order —
// which differs from group order — never shows in the report.
func (b *StreamBuilder) onPair(t *ndt.Test, tr *traceroute.Trace) {
	if tr == nil {
		return
	}
	k := gkey{t.ServerNet, t.ServerMetro, t.ClientISP}
	gi, ok := b.groupOf[k]
	if !ok {
		gi = int32(len(b.pairs))
		b.groupOf[k] = gi
		b.pairs = append(b.pairs, pairGroup{linkSet: map[uint32]bool{}})
	}
	b.pairs[gi].matched++
	if tr.Degraded {
		return
	}
	b.routers = mapit.AppendRouters(b.routers, tr)
	b.deferred = append(b.deferred, deferredPair{
		group: gi, end: int32(len(b.routers)), dst: tr.DstAddr, reached: tr.Reached,
	})
}

// label folds every deferred pair's AS path and first link into its
// group, as the sealed inference labels them.
func (b *StreamBuilder) label() {
	start := int32(0)
	for _, d := range b.deferred {
		routers := b.routers[start:d.end]
		start = d.end
		g := &b.pairs[d.group]
		b.path = b.inf.AppendPathAS(b.path[:0], routers, d.reached, d.dst)
		if len(b.path) >= 2 {
			g.pathKnown++
			if len(b.path) == 2 {
				g.oneHop++
			}
		}
		if b.links = b.inf.AppendPathLinks(b.links[:0], routers); len(b.links) > 0 {
			g.linkSet[uint32(b.links[0].Far)] = true
		}
	}
}

// Finish seals the inference if needed, drains the matcher, labels the
// deferred pairs, merges the aggregation and pair halves of every
// group, grades them, and returns the report. It must run only after
// every consumer has drained.
func (b *StreamBuilder) Finish(completeness platform.Completeness) *Report {
	b.FinishInference()
	m := b.matcher.Finish()
	b.label()
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
		p := &none
		if i, ok := b.groupOf[k]; ok {
			p = &b.pairs[i]
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
