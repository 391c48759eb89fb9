// Package bdrmap implements the analysis phase of bdrmap (Luckie et
// al., IMC 2016): from a vantage point inside a network, infer ALL of
// that network's interdomain interconnections — at the AS level and, by
// alias-resolving border interfaces into routers, at the router level —
// annotated with the business relationship to each neighbor.
//
// Collection is a traceroute campaign from the VP toward every routed
// prefix (package platform provides it); this package consumes the
// traces. Operator assignment of interface addresses reuses the MAP-IT
// machinery of package mapit, which handles the same far-side numbering
// ambiguities; bdrmap's own heuristics beyond that (per-vendor
// TTL-expired behaviour) are out of scope (DESIGN.md §7).
//
// Table 3 of the reproduced paper is a direct printout of this
// package's Result for 16 Ark VPs; Figures 2–4 intersect Results with
// the crossings observed on traces toward measurement servers and
// popular content.
package bdrmap

import (
	"math/rand"
	"slices"

	"throughputlab/internal/alias"
	"throughputlab/internal/mapit"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/obs"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// Opts parameterizes a bdrmap run.
type Opts struct {
	// OrgASNs are the VP network's ASNs (the org's siblings).
	OrgASNs []topology.ASN
	// MapIt supplies the public datasets for operator inference.
	MapIt mapit.Opts
	// Rel is the published AS-relationship lookup: b's relationship as
	// seen from a (RelNone → reported as unknown). The org's
	// relationship to a neighbor is Analyzer.Rel; nil leaves every
	// border unclassified.
	Rel func(a, b topology.ASN) topology.Rel
	// Alias groups border interfaces into routers; nil skips
	// router-level analysis.
	Alias *alias.Resolver
	// AliasSeed seeds the alias resolver's probabilistic probing.
	AliasSeed int64
}

// Crossing is the first interdomain crossing on one trace out of the
// VP network.
type Crossing struct {
	Near, Far netaddr.Addr
	Neighbor  topology.ASN
}

// Border is one inferred AS-level interconnection of the VP network.
type Border struct {
	Neighbor topology.ASN
	Rel      topology.Rel
	// RouterPairs is the number of router-level interconnections
	// realizing this AS adjacency (0 when alias resolution is off).
	RouterPairs int
	// Traces is how many campaign traces crossed this border.
	Traces int
}

// Result is the border map of one VP network.
type Result struct {
	Borders []Border
	// ASCount and RouterCount are the Table 3 "ALL borders" columns.
	ASCount, RouterCount int
	// ByRel splits the counts by relationship (customer / provider /
	// peer; unknown under RelNone).
	ByRel map[topology.Rel]struct{ AS, Router int }
}

// Analyzer holds the operator inference shared between the border map
// and coverage analyses.
type Analyzer struct {
	opts Opts
	inf  *mapit.Inference
	org  map[topology.ASN]bool

	groupOnce bool
	groupOf   map[netaddr.Addr]int
}

// groups alias-resolves every labeled address once (deterministically
// for the configured seed) so the campaign's denominator and the
// coverage numerators count router pairs in the same identity space.
func (az *Analyzer) groups() map[netaddr.Addr]int {
	if az.groupOnce {
		return az.groupOf
	}
	az.groupOnce = true
	if az.opts.Alias == nil {
		az.groupOf = map[netaddr.Addr]int{}
		return az.groupOf
	}
	all := make([]netaddr.Addr, 0, len(az.inf.Operator))
	for a := range az.inf.Operator {
		all = append(all, a)
	}
	slices.Sort(all)
	az.groupOf = make(map[netaddr.Addr]int, len(all))
	rng := rand.New(rand.NewSource(az.opts.AliasSeed))
	for gi, g := range az.opts.Alias.Group(all, rng) {
		for _, a := range g {
			az.groupOf[a] = gi
		}
	}
	return az.groupOf
}

// RouterKey maps a crossing to its router-pair identity. Without an
// alias resolver, each address is its own router.
func (az *Analyzer) RouterKey(c Crossing) [2]int {
	if az.opts.Alias == nil {
		return [2]int{int(c.Near), int(c.Far)}
	}
	g := az.groups()
	return [2]int{g[c.Near], g[c.Far]}
}

// NewAnalyzer runs operator inference over the trace corpus. For
// coverage analyses pass the union of the prefix campaign and the
// server-directed traces so every address is labeled consistently.
func NewAnalyzer(traces []*traceroute.Trace, opts Opts) *Analyzer {
	return NewAnalyzerFromInference(mapit.Run(traces, opts.MapIt), opts)
}

// NewAnalyzerFromInference wraps an existing operator inference —
// typically one accumulated chunk-by-chunk with mapit.Builder during a
// streamed campaign — without re-running MAP-IT over the corpus.
func NewAnalyzerFromInference(inf *mapit.Inference, opts Opts) *Analyzer {
	org := make(map[topology.ASN]bool, len(opts.OrgASNs))
	for _, a := range opts.OrgASNs {
		org[a] = true
	}
	return &Analyzer{opts: opts, inf: inf, org: org}
}

// FirstCrossing finds where a trace first leaves the VP network: the
// last org-operated hop and the first hop operated by someone else.
// ok is false when the trace never visibly leaves (intra-network
// destination, unresponsive border, or inference gaps) and always for
// degraded traces — a hop lost to the fault layer exactly at the border
// would attribute the crossing to the wrong neighbor.
func (az *Analyzer) FirstCrossing(tr *traceroute.Trace) (Crossing, bool) {
	if tr.Degraded {
		return Crossing{}, false
	}
	var buf [64]netaddr.Addr // keeps a usual path off the heap
	return az.firstCrossing(mapit.AppendRouters(buf[:0], tr))
}

// firstCrossing is FirstCrossing over a non-degraded trace's router
// path (mapit.AppendRouters).
func (az *Analyzer) firstCrossing(routers []netaddr.Addr) (Crossing, bool) {
	prevInOrg := false
	var prevAddr netaddr.Addr
	for _, a := range routers {
		op, known := az.inf.Operator[a]
		if !known {
			prevInOrg = false
			continue
		}
		if az.org[op] {
			prevInOrg, prevAddr = true, a
			continue
		}
		if prevInOrg {
			return Crossing{Near: prevAddr, Far: a, Neighbor: op}, true
		}
		// Left the network without seeing the near side (missing hop):
		// unusable for border attribution.
		return Crossing{}, false
	}
	return Crossing{}, false
}

// Rel is the VP org's relationship to neighbor n: the first non-None
// Opts.Rel(o, n) over the org's ASNs o, in OrgASNs order, or RelNone
// when none has one or Opts.Rel is nil.
func (az *Analyzer) Rel(n topology.ASN) topology.Rel {
	if az.opts.Rel == nil {
		return topology.RelNone
	}
	for _, o := range az.opts.OrgASNs {
		if r := az.opts.Rel(o, n); r != topology.RelNone {
			return r
		}
	}
	return topology.RelNone
}

// Borders aggregates crossings of the given traces into the border
// map. When the analyzer's MAP-IT options carry an obs registry,
// crossing-match and border-classification counters accumulate there.
func (az *Analyzer) Borders(traces []*traceroute.Trace) *Result {
	acc := az.NewBorderAccumulator()
	acc.Add(traces)
	return acc.Result()
}

// BorderAccumulator folds trace chunks into the border map
// incrementally. Crossing attribution is per-trace and the neighbor
// aggregation is additive, so feeding a campaign chunk-by-chunk yields
// the identical Result to one Borders call over the concatenation, and
// so does folding a Recorder that kept the same traces' router paths.
type BorderAccumulator struct {
	az         *Analyzer
	byNeighbor map[topology.ASN]*neighborAgg

	matched, unmatched, skippedDegraded *obs.Counter
}

type neighborAgg struct {
	traces int
	pairs  map[[2]int]bool
}

// NewBorderAccumulator starts an empty border aggregation over this
// analyzer's inference.
func (az *Analyzer) NewBorderAccumulator() *BorderAccumulator {
	reg := az.opts.MapIt.Obs
	return &BorderAccumulator{
		az:              az,
		byNeighbor:      map[topology.ASN]*neighborAgg{},
		matched:         reg.Counter("bdrmap.crossings.matched"),
		unmatched:       reg.Counter("bdrmap.crossings.unmatched"),
		skippedDegraded: reg.Counter("bdrmap.traces.skipped_degraded"),
	}
}

// Add folds one chunk of traces into the aggregation.
func (acc *BorderAccumulator) Add(traces []*traceroute.Trace) {
	var buf [64]netaddr.Addr
	for _, tr := range traces {
		if tr.Degraded {
			acc.skippedDegraded.Inc()
			continue
		}
		acc.addPath(mapit.AppendRouters(buf[:0], tr))
	}
}

// AddRecorded folds every trace r recorded into the aggregation, as Add
// over the same traces would.
func (acc *BorderAccumulator) AddRecorded(r *Recorder) {
	acc.skippedDegraded.Add(uint64(r.degraded))
	start := 0
	for _, end := range r.ends {
		acc.addPath(r.addrs[start:end])
		start = int(end)
	}
}

// addPath folds one non-degraded trace's router path.
func (acc *BorderAccumulator) addPath(routers []netaddr.Addr) {
	c, ok := acc.az.firstCrossing(routers)
	if !ok {
		acc.unmatched.Inc()
		return
	}
	acc.matched.Inc()
	a := acc.byNeighbor[c.Neighbor]
	if a == nil {
		a = &neighborAgg{pairs: map[[2]int]bool{}}
		acc.byNeighbor[c.Neighbor] = a
	}
	a.traces++
	a.pairs[acc.az.RouterKey(c)] = true
}

// Recorder keeps what a border accumulator reads of a trace stream —
// each non-degraded trace's router path, in one flat arena, and the
// count of degraded ones — so the stream can be read once, before the
// operator inference the accumulator needs is sealed
// (BorderAccumulator.AddRecorded). The zero Recorder is ready to use.
type Recorder struct {
	addrs    []netaddr.Addr
	ends     []int32 // ends[i] is the end of path i in addrs
	degraded int
}

// Add records one chunk of traces.
func (r *Recorder) Add(traces []*traceroute.Trace) {
	for _, tr := range traces {
		if tr.Degraded {
			r.degraded++
			continue
		}
		r.addrs = mapit.AppendRouters(r.addrs, tr)
		r.ends = append(r.ends, int32(len(r.addrs)))
	}
}

// Result finalizes the aggregation into the sorted border map.
func (acc *BorderAccumulator) Result() *Result {
	az := acc.az
	res := &Result{ByRel: map[topology.Rel]struct{ AS, Router int }{}}
	neighbors := make([]topology.ASN, 0, len(acc.byNeighbor))
	for n := range acc.byNeighbor {
		neighbors = append(neighbors, n)
	}
	slices.Sort(neighbors)

	for _, n := range neighbors {
		a := acc.byNeighbor[n]
		b := Border{Neighbor: n, Traces: a.traces, RouterPairs: len(a.pairs), Rel: az.Rel(n)}
		res.Borders = append(res.Borders, b)
		res.ASCount++
		res.RouterCount += b.RouterPairs
		e := res.ByRel[b.Rel]
		e.AS++
		e.Router += b.RouterPairs
		res.ByRel[b.Rel] = e
	}
	reg := az.opts.MapIt.Obs
	reg.Counter("bdrmap.borders.as").Add(uint64(res.ASCount))
	reg.Counter("bdrmap.borders.router").Add(uint64(res.RouterCount))
	return res
}

// CoverageSets returns the AS-level and router-level interconnections
// crossed by the given traces (typically traces toward one platform's
// servers), keyed compatibly with Borders' counting: neighbor ASN and
// alias-grouped router pair. Figures 2–4 intersect these with a
// campaign's Result.
func (az *Analyzer) CoverageSets(traces []*traceroute.Trace) (asSet map[topology.ASN]bool, routerSet map[[2]int]bool) {
	asSet = map[topology.ASN]bool{}
	routerSet = map[[2]int]bool{}
	for _, tr := range traces {
		c, ok := az.FirstCrossing(tr)
		if !ok {
			continue
		}
		asSet[c.Neighbor] = true
		routerSet[az.RouterKey(c)] = true
	}
	return asSet, routerSet
}

// CoverageAS returns CoverageSets' AS-level set alone, for callers that
// compare interconnections at the AS level only.
func (az *Analyzer) CoverageAS(traces []*traceroute.Trace) map[topology.ASN]bool {
	asSet := map[topology.ASN]bool{}
	for _, tr := range traces {
		if c, ok := az.FirstCrossing(tr); ok {
			asSet[c.Neighbor] = true
		}
	}
	return asSet
}
