// Package mapit implements the core of MAP-IT (Marder & Smith, IMC
// 2016): multipass inference of interdomain links from a corpus of
// already-collected traceroutes, using only public data — the
// prefix→AS mapping, IXP prefix lists, and AS→organization data.
//
// The central difficulty (§4.2 of the reproduced paper, and [25]) is
// that a point-to-point interdomain link between ASes A and B is
// numbered out of ONE of their address spaces, so the far-side
// interface — operated by B — carries an address that the prefix→AS
// mapping attributes to A. No single traceroute can resolve this;
// MAP-IT's premise is that collating many traces provides constraints:
// an interface whose predecessors predominantly belong to A but whose
// successors predominantly belong to B is B's ingress on an A–B link.
//
// This implementation performs the published algorithm's essential
// passes: per-interface neighbor-set construction, majority-vote
// operator inference with threshold f, IXP-prefix handling, and
// iterated refinement where votes use previously inferred operators
// rather than raw prefix origins. Vendor-specific special cases of the
// original are out of scope (DESIGN.md §7).
package mapit

import (
	"cmp"
	"slices"
	"sort"

	"throughputlab/internal/netaddr"
	"throughputlab/internal/obs"
	"throughputlab/internal/stream"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// Opts supplies the public datasets.
type Opts struct {
	// Prefix2AS is the public origin lookup (CAIDA prefix→AS).
	Prefix2AS func(netaddr.Addr) (topology.ASN, bool)
	// IsIXP reports whether an address falls in a known IXP peering
	// LAN.
	IsIXP func(netaddr.Addr) bool
	// SameOrg collapses sibling ASes (CAIDA AS→organization).
	SameOrg func(a, b topology.ASN) bool
	// DisableFarSide turns off the far-side operator correction — the
	// ablation showing what breaks when point-to-point numbering is
	// taken at face value (links get attributed one hop late, inside
	// the neighbor).
	DisableFarSide bool
	// Workers parallelizes Add over that many contiguous trace chunks,
	// each filling its own adjacency table on a goroutine; 0 or 1 runs
	// Add serially. Finish sums the tables and always runs serially.
	// The inference is identical for every worker count. Add calls none
	// of the Prefix2AS/IsIXP/SameOrg callbacks, so Workers places no
	// concurrency demand on them.
	Workers int
	// Obs, when non-nil, receives inference counters (links classified,
	// majority-vote ties, far-side flips) and, from Finish, the
	// adjacency table's size as the gauges mapit.edges (distinct
	// adjacent pairs) and mapit.interfaces. Counters accumulate across
	// runs sharing one registry (the ablation experiments rerun the
	// inference), while the gauges hold the last run's size; neither
	// influences the inference itself.
	Obs *obs.Registry
}

// majorityFrac is MAP-IT's f: the majority fraction of neighbors
// required to reassign an interface's operator.
const majorityFrac = 0.5

// refinePasses bounds the successor-majority refinement iterations.
const refinePasses = 3

func (o *Opts) withDefaults() {
	if o.SameOrg == nil {
		o.SameOrg = func(a, b topology.ASN) bool { return a == b }
	}
	if o.IsIXP == nil {
		o.IsIXP = func(netaddr.Addr) bool { return false }
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// Link is one inferred IP-level interdomain link, identified by the
// near (egress) and far (ingress) interface addresses.
type Link struct {
	Near, Far     netaddr.Addr
	NearAS, FarAS topology.ASN
	// Traces is how many traceroutes crossed this link.
	Traces int
}

// Inference is the result of a MAP-IT run.
type Inference struct {
	// Operator is the inferred operating AS per interface address.
	Operator map[netaddr.Addr]topology.ASN
	// Links are the inferred IP-level interdomain links, sorted by
	// descending trace count then address.
	Links []Link

	opts Opts
}

// Builder accumulates traces incrementally into one adjacency table —
// a count per ordered pair of adjacent responsive addresses — and runs
// the vote passes once over it. Feeding the corpus in any chunking and
// at any worker count — including one Add of everything, which is
// exactly what Run does — produces the identical Inference: the table
// is a sum of per-trace contributions, and every order-sensitive step
// (the interface graph, vote passes, far-side detection, link sorting)
// runs only at Finish over sorted state.
type Builder struct {
	opts Opts
	// parts holds one table per Add chunk index, kept across Adds so
	// that Finish sums them once.
	parts []*table
}

// table is a share of the adjacency table. pairs maps every ordered
// pair (a, b) of adjacent responsive addresses in a non-degraded trace,
// keyed by pairKey, to the number of traces that crossed it router to
// router; a reached trace's final router→destination step enters it
// with no count, since it makes a and b neighbors but is no link. The
// destination hop of each trace is a host, not a router interface; it
// is a vote source for its predecessor but gets no vote of its own, so
// dsts records it. lone holds the address of every trace with a single
// responsive hop: the only interfaces that no pair names. Distinct
// pairs are bounded by the interface adjacency of the topology, not by
// the trace count.
type table struct {
	pairs map[uint64]uint32
	dsts  map[netaddr.Addr]struct{}
	lone  map[netaddr.Addr]struct{}
}

func newTable() *table {
	return &table{
		pairs: make(map[uint64]uint32),
		dsts:  make(map[netaddr.Addr]struct{}),
		lone:  make(map[netaddr.Addr]struct{}),
	}
}

func pairKey(a, b netaddr.Addr) uint64 { return uint64(a)<<32 | uint64(b) }

// add folds one trace into the table with one update per adjacent pair.
func (t *table) add(tr *traceroute.Trace) {
	var prev netaddr.Addr
	n := 0
	eachResponsive(tr, func(a netaddr.Addr, final bool) {
		if n > 0 {
			inc := uint32(1)
			if final && tr.Reached {
				inc = 0
			}
			t.pairs[pairKey(prev, a)] += inc
		}
		prev = a
		n++
	})
	if n == 1 {
		t.lone[prev] = struct{}{}
	}
	if tr.Reached && n > 0 {
		t.dsts[prev] = struct{}{}
	}
}

// merge adds o into t; addition makes the merge order irrelevant.
func (t *table) merge(o *table) {
	for k, n := range o.pairs {
		t.pairs[k] += n
	}
	for a := range o.dsts {
		t.dsts[a] = struct{}{}
	}
	for a := range o.lone {
		t.lone[a] = struct{}{}
	}
}

// NewBuilder prepares an incremental MAP-IT run.
func NewBuilder(opts Opts) *Builder {
	opts.withDefaults()
	return &Builder{opts: opts}
}

// Add folds one batch of traces into the builder. Safe to call many
// times; not safe for concurrent calls (it parallelizes internally over
// opts.Workers).
func (b *Builder) Add(traces []*traceroute.Trace) {
	reg := b.opts.Obs
	reg.Counter("mapit.traces").Add(uint64(len(traces)))
	// Degraded traces (fault-layer probe loss / rate limiting) are
	// excluded from the table: their responsive hops can be
	// non-adjacent on the real path, and ingesting them would seed the
	// neighbor sets — and the link extraction — with false adjacencies.
	// Clean corpora carry no degraded traces, so the guard is free.
	skippedDegraded := reg.Counter("mapit.traces.skipped_degraded")
	for _, tr := range traces {
		if tr.Degraded {
			skippedDegraded.Inc()
		}
	}

	// Each contiguous trace chunk, one stream.For index, fills the
	// table of its index.
	chunks := max(min(b.opts.Workers, len(traces)), 1)
	for len(b.parts) < chunks {
		b.parts = append(b.parts, newTable())
	}
	stream.For(chunks, chunks, nil, func(_, c int) {
		t := b.parts[c]
		for _, tr := range traces[c*len(traces)/chunks : (c+1)*len(traces)/chunks] {
			if !tr.Degraded {
				t.add(tr)
			}
		}
	})
}

// Run executes MAP-IT over the trace corpus.
func Run(traces []*traceroute.Trace, opts Opts) *Inference {
	b := NewBuilder(opts)
	b.Add(traces)
	return b.Finish()
}

// label is an operator vote: an ASN, when ok.
type label struct {
	asn topology.ASN
	ok  bool
}

// graph is the interface graph in index form. addrs are the interface
// addresses, sorted; every other slice is indexed by position in addrs
// (origin, isIXP, isDst) or by out-edge (link).
type graph struct {
	addrs []netaddr.Addr
	// origin is the prefix-origin AS, when Prefix2AS knows the address.
	origin       []label
	isIXP, isDst []bool
	// out and in are the successor and predecessor sets.
	out, in runs
	// link[p] is the router→router trace count of out-edge p.
	link []uint32
}

// runs lists each interface's neighbors, as interface indices, in one
// slice: interface i's are nbr[off[i]:off[i+1]].
type runs struct{ off, nbr []int32 }

func (r runs) of(i int) []int32 { return r.nbr[r.off[i]:r.off[i+1]] }

// newGraph derives the interface graph from the summed table: the
// interfaces are the pair endpoints plus the single-hop addresses, the
// out-neighbor runs are the sorted keys' runs of equal near address,
// and the in-neighbor runs are the same edges counting-sorted by far
// address. The public-data callbacks run once per interface.
func newGraph(t *table, opts Opts) *graph {
	keys := make([]uint64, 0, len(t.pairs))
	for k := range t.pairs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	addrs := make([]netaddr.Addr, 0, 2*len(keys)+len(t.lone))
	for _, k := range keys {
		addrs = append(addrs, netaddr.Addr(k>>32), netaddr.Addr(k))
	}
	for a := range t.lone {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	addrs = slices.Compact(addrs)

	n := len(addrs)
	g := &graph{
		addrs:  addrs,
		origin: make([]label, n),
		isIXP:  make([]bool, n),
		isDst:  make([]bool, n),
		out:    runs{off: make([]int32, n+1), nbr: make([]int32, len(keys))},
		in:     runs{off: make([]int32, n+1), nbr: make([]int32, len(keys))},
		link:   make([]uint32, len(keys)),
	}
	p := 0
	for i, a := range addrs {
		g.out.off[i] = int32(p)
		for ; p < len(keys) && netaddr.Addr(keys[p]>>32) == a; p++ {
			j, _ := slices.BinarySearch(addrs, netaddr.Addr(keys[p]))
			g.out.nbr[p] = int32(j)
			g.link[p] = t.pairs[keys[p]]
			g.in.off[j+1]++
		}
		if asn, ok := opts.Prefix2AS(a); ok {
			g.origin[i] = label{asn, true}
		}
		g.isIXP[i] = opts.IsIXP(a)
		_, g.isDst[i] = t.dsts[a]
	}
	g.out.off[n] = int32(p)
	for i := range n {
		g.in.off[i+1] += g.in.off[i]
	}
	next := slices.Clone(g.in.off[:n])
	for i := range n {
		for _, j := range g.out.of(i) {
			g.in.nbr[next[j]] = int32(i)
			next[j]++
		}
	}
	return g
}

// Finish runs the vote passes, the far-side correction, and the link
// extraction over everything added so far, and returns the Inference.
// The builder should not be used after Finish.
func (b *Builder) Finish() *Inference {
	opts := b.opts
	reg := opts.Obs
	t := newTable()
	if len(b.parts) > 0 {
		t = b.parts[0]
		for _, o := range b.parts[1:] {
			t.merge(o)
		}
	}
	g := newGraph(t, opts)
	n := len(g.addrs)
	reg.Gauge("mapit.edges").Set(int64(len(t.pairs)))
	reg.Gauge("mapit.interfaces").Set(int64(n))
	v := &voter{g: g, sameOrg: opts.SameOrg, ties: reg.Counter("mapit.majority.ties")}

	// originVote holds pure prefix-origin labels; voteOp additionally
	// accumulates IXP/unknown addresses resolved in earlier passes
	// (needed to chain through exchange LANs). Crucially, far-side
	// REASSIGNMENTS enter neither, and the far-side pass votes over
	// originVote only: inferred labels cascading into votes would let
	// the relabeled far side of one link (or a resolved IXP port)
	// out-vote the genuine near-side interfaces of every other link on
	// a shared border router. This mirrors MAP-IT's half-link
	// constraints.
	originVote := make([]label, n)
	for i, o := range g.origin {
		if !g.isIXP[i] {
			originVote[i] = o
		}
	}
	voteOp := slices.Clone(originVote)

	// Passes 1..n-1: resolve IXP ports and unknown-origin addresses by
	// successor majority (the replying router belongs to the member the
	// probe enters next), in address order. Multiple passes handle
	// chains.
	for range refinePasses {
		changed := 0
		for i := range n {
			if !g.isIXP[i] && g.origin[i].ok {
				continue
			}
			succAS, succFrac := v.majority(g.out.of(i), voteOp)
			if succAS == 0 || succFrac < majorityFrac {
				continue
			}
			if cur := voteOp[i]; !cur.ok || !opts.SameOrg(cur.asn, succAS) {
				voteOp[i] = label{succAS, true}
				changed++
			}
		}
		reg.Counter("mapit.vote.resolved").Add(uint64(changed))
		if changed == 0 {
			break
		}
	}

	// Final pass: far-side detection. An interface numbered from A
	// whose predecessors are A but whose successors are B is B's
	// ingress on an A–B point-to-point link; it is operated by B. The
	// signature is ambiguous in one corner: when an A–B link is
	// numbered from B's space, A's border-ingress interface shows the
	// same (preds=own, succs=foreign) pattern and gets flipped wrongly
	// if B dominates its observed successors. One-directional
	// traceroute corpora cannot break that tie (the /30 mate never
	// appears); this is part of why MAP-IT reports >90% rather than
	// 100% accuracy, and why §4.3 warns the algorithm "could fail or
	// produce an incorrect inference".
	op := slices.Clone(voteOp)
	for i := 0; i < n && !opts.DisableFarSide; i++ {
		cur := originVote[i] // never set on an IXP address
		if !cur.ok {
			continue
		}
		succAS, succFrac := v.majority(g.out.of(i), originVote)
		// Unanimity required: a genuine far side forwards into exactly
		// one foreign network. A mere majority would let the busiest
		// neighbor of a shared border router capture the router's
		// uplink interface, injecting a phantom third organization into
		// every other neighbor's paths.
		if succAS == 0 || opts.SameOrg(cur.asn, succAS) || succFrac < 0.999 {
			continue
		}
		preds := g.in.of(i)
		if len(preds) == 0 {
			continue
		}
		predAS, predFrac := v.majority(preds, originVote)
		if predAS != 0 && opts.SameOrg(predAS, cur.asn) && predFrac >= majorityFrac {
			op[i] = label{succAS, true}
			reg.Counter("mapit.farside.flips").Inc()
		}
	}

	inf := &Inference{Operator: make(map[netaddr.Addr]topology.ASN, n), opts: opts}
	for i, l := range op {
		if l.ok {
			inf.Operator[g.addrs[i]] = l.asn
		}
	}

	// Link extraction: router→router pairs whose operators belong to
	// different organizations.
	for i := range n {
		for p := g.out.off[i]; p < g.out.off[i+1]; p++ {
			j := g.out.nbr[p]
			near, far := op[i], op[j]
			if g.link[p] == 0 || !near.ok || !far.ok || opts.SameOrg(near.asn, far.asn) {
				continue
			}
			inf.Links = append(inf.Links, Link{
				Near: g.addrs[i], Far: g.addrs[j], NearAS: near.asn, FarAS: far.asn, Traces: int(g.link[p]),
			})
		}
	}
	sort.Slice(inf.Links, func(i, j int) bool {
		if inf.Links[i].Traces != inf.Links[j].Traces {
			return inf.Links[i].Traces > inf.Links[j].Traces
		}
		if inf.Links[i].Near != inf.Links[j].Near {
			return inf.Links[i].Near < inf.Links[j].Near
		}
		return inf.Links[i].Far < inf.Links[j].Far
	})
	reg.Counter("mapit.links.classified").Add(uint64(len(inf.Links)))
	reg.Counter("mapit.operators.labeled").Add(uint64(len(inf.Operator)))
	return inf
}

// voter runs majority votes over one graph, reusing its tally buffers
// across calls.
type voter struct {
	g          *graph
	sameOrg    func(a, b topology.ASN) bool
	ties       *obs.Counter
	per, votes []tally
}

type tally struct {
	asn topology.ASN
	n   int
}

// addVote adds n votes for asn to ts.
func addVote(ts []tally, asn topology.ASN, n int) []tally {
	for k := range ts {
		if ts[k].asn == asn {
			ts[k].n += n
			return ts
		}
	}
	return append(ts, tally{asn, n})
}

// majority tallies operator votes over a neighbor SET (one vote per
// distinct neighbor interface, not per trace — MAP-IT reasons over the
// interface graph, and volume weighting would let one busy link
// out-vote the rest of a shared border router's neighbors), collapsing
// siblings onto the smallest ASN of the organization so the outcome
// never depends on iteration order (the previous "first key seen
// wins" collapse made tie-breaks, and hence the whole inference,
// nondeterministic across runs). Destination-host neighbors are
// excluded (they are not router interfaces). It returns the winning
// ASN and its vote fraction (0 when no votes). A tie between distinct
// organizations for the top vote count — resolved by the smallest-ASN
// rule — is recorded on the ties counter (nil-safe), since ties are
// exactly where the deterministic tie-break is load-bearing.
func (v *voter) majority(neigh []int32, op []label) (topology.ASN, float64) {
	per := v.per[:0]
	total := 0
	for _, j := range neigh {
		if l := op[j]; l.ok && !v.g.isDst[j] {
			per = addVote(per, l.asn, 1)
			total++
		}
	}
	v.per = per
	if total == 0 {
		return 0, 0
	}
	slices.SortFunc(per, func(x, y tally) int { return cmp.Compare(x.asn, y.asn) })
	votes := v.votes[:0]
	for i, t := range per {
		rep := t.asn
		for _, other := range per[:i] {
			if v.sameOrg(other.asn, t.asn) {
				rep = other.asn
				break
			}
		}
		votes = addVote(votes, rep, t.n)
	}
	v.votes = votes
	var best topology.ASN
	bestN := -1
	for _, t := range votes {
		if t.n > bestN || (t.n == bestN && t.asn < best) {
			best, bestN = t.asn, t.n
		}
	}
	atTop := 0
	for _, t := range votes {
		if t.n == bestN {
			atTop++
		}
	}
	if atTop > 1 {
		v.ties.Inc()
	}
	return best, float64(bestN) / float64(total)
}

// eachResponsive calls fn for each responsive address of tr in path
// order, collapsing consecutive repeats as Trace.ResponsiveAddrs does,
// without allocating; final marks the last one, which is the
// destination host when tr.Reached.
func eachResponsive(tr *traceroute.Trace, fn func(a netaddr.Addr, final bool)) {
	var last netaddr.Addr
	for i := range tr.Hops {
		a := tr.Hops[i].Addr
		if a.IsZero() || a == last {
			continue
		}
		if !last.IsZero() {
			fn(last, false)
		}
		last = a
	}
	if !last.IsZero() {
		fn(last, true)
	}
}

// AppendRouters appends tr's router path to dst and returns the
// extended slice: its responsive addresses less a reached trace's
// destination host. Every labelling walk over an inference (AS paths,
// links, bdrmap's first crossing) reads a trace through this path, so a
// caller may keep the path and label it once the inference is sealed.
func AppendRouters(dst []netaddr.Addr, tr *traceroute.Trace) []netaddr.Addr {
	eachResponsive(tr, func(a netaddr.Addr, final bool) {
		if !final || !tr.Reached {
			dst = append(dst, a)
		}
	})
	return dst
}

// maxStackPath is the router-path length the per-trace wrappers keep on
// the stack; a longer path still works, through one heap allocation.
const maxStackPath = 64

// ASPathOf maps a trace to the organization-collapsed AS-level path of
// its responsive router hops (unknown hops are skipped; consecutive
// same-org hops collapse). The destination's origin AS is appended
// when the trace reached it, since the client itself proves the final
// AS (§4.2's analysis counts AS hops between server and client).
// Degraded traces yield nil: hops lost to the fault layer would make
// the collapsed path skip organizations that were really crossed.
func (inf *Inference) ASPathOf(tr *traceroute.Trace) []topology.ASN {
	return inf.AppendASPath(nil, tr)
}

// AppendASPath appends tr's AS path, as ASPathOf defines it, to dst
// and returns the extended slice; with a reused dst it allocates
// nothing.
func (inf *Inference) AppendASPath(dst []topology.ASN, tr *traceroute.Trace) []topology.ASN {
	if tr.Degraded {
		return dst
	}
	var buf [maxStackPath]netaddr.Addr
	return inf.AppendPathAS(dst, AppendRouters(buf[:0], tr), tr.Reached, tr.DstAddr)
}

// AppendPathAS appends the AS path of a non-degraded trace's router
// path (AppendRouters) to dst and returns the extended slice; reached
// and dstAddr are the trace's. It is the body of AppendASPath.
func (inf *Inference) AppendPathAS(dst []topology.ASN, routers []netaddr.Addr, reached bool, dstAddr netaddr.Addr) []topology.ASN {
	start := len(dst)
	push := func(asn topology.ASN) {
		if len(dst) > start && inf.opts.SameOrg(dst[len(dst)-1], asn) {
			return
		}
		dst = append(dst, asn)
	}
	for _, a := range routers {
		if asn, ok := inf.Operator[a]; ok {
			push(asn)
		}
	}
	if reached {
		if asn, ok := inf.opts.Prefix2AS(dstAddr); ok {
			push(asn)
		}
	}
	return dst
}

// LinksOf returns the inferred interdomain links a single trace
// crossed, in path order. Degraded traces yield nil — adjacency in a
// maimed trace does not imply adjacency on the path.
func (inf *Inference) LinksOf(tr *traceroute.Trace) []Link {
	return inf.AppendLinks(nil, tr)
}

// AppendLinks appends the links LinksOf returns for tr to dst and
// returns the extended slice; with a reused dst it allocates nothing.
func (inf *Inference) AppendLinks(dst []Link, tr *traceroute.Trace) []Link {
	if tr.Degraded {
		return dst
	}
	var buf [maxStackPath]netaddr.Addr
	return inf.AppendPathLinks(dst, AppendRouters(buf[:0], tr))
}

// AppendPathLinks appends the links a non-degraded trace's router path
// (AppendRouters) crossed to dst, in path order, and returns the
// extended slice. It is the body of AppendLinks.
func (inf *Inference) AppendPathLinks(dst []Link, routers []netaddr.Addr) []Link {
	if len(routers) == 0 {
		return dst
	}
	a := routers[0]
	asA, okA := inf.Operator[a]
	for _, b := range routers[1:] {
		asB, okB := inf.Operator[b]
		if okA && okB && !inf.opts.SameOrg(asA, asB) {
			dst = append(dst, Link{Near: a, Far: b, NearAS: asA, FarAS: asB})
		}
		a, asA, okA = b, asB, okB
	}
	return dst
}
