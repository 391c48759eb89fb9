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
	// Threshold is the majority fraction f required to reassign an
	// interface's operator (MAP-IT's f; 0 → default 0.5).
	Threshold float64
	// Passes bounds refinement iterations (0 → default 3).
	Passes int
	// DisableFarSide turns off the far-side operator correction — the
	// ablation showing what breaks when point-to-point numbering is
	// taken at face value (links get attributed one hop late, inside
	// the neighbor).
	DisableFarSide bool
	// Workers parallelizes the per-trace pass (interface-graph
	// construction, over that many contiguous trace chunks) on
	// goroutines; 0 or 1 runs serially, and link extraction in Finish
	// always does. The inference is identical for every worker count.
	// The Prefix2AS/IsIXP/SameOrg callbacks must be safe for concurrent
	// calls when Workers > 1.
	Workers int
	// Obs, when non-nil, receives inference counters (links classified,
	// majority-vote ties, far-side flips). Counters accumulate across
	// runs sharing one registry (the ablation experiments rerun the
	// inference); they never influence the inference itself.
	Obs *obs.Registry
}

func (o *Opts) withDefaults() {
	if o.Threshold == 0 {
		o.Threshold = 0.5
	}
	if o.Passes == 0 {
		o.Passes = 3
	}
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

type ifaceStats struct {
	origin topology.ASN
	hasOrg bool
	isIXP  bool
	// prev/next neighbor addresses with multiplicity.
	prev map[netaddr.Addr]int
	next map[netaddr.Addr]int
}

// Builder accumulates traces incrementally and runs the vote passes
// once over the merged state. Feeding the corpus in any chunking —
// including one Add of everything, which is exactly what Run does —
// produces the identical Inference: pass 0 and the pair counts are
// additive merges, and every order-sensitive step (vote passes,
// far-side detection, link sorting) runs only at Finish over
// deterministically sorted state.
type Builder struct {
	opts Opts
	// stats/dsts are pass 0's merged neighbor sets and destination-host
	// addresses.
	stats map[netaddr.Addr]*ifaceStats
	dsts  map[netaddr.Addr]struct{}
	// pairCount counts every adjacent responsive pair. Unlike the old
	// single-pass extraction it is built before operators are known, so
	// it is unfiltered; Finish applies the operator/same-org filter.
	// Distinct pairs are bounded by the interface adjacency of the
	// topology, not by the trace count.
	pairCount map[[2]netaddr.Addr]int
}

// NewBuilder prepares an incremental MAP-IT run.
func NewBuilder(opts Opts) *Builder {
	opts.withDefaults()
	return &Builder{
		opts:      opts,
		stats:     make(map[netaddr.Addr]*ifaceStats),
		dsts:      make(map[netaddr.Addr]struct{}),
		pairCount: make(map[[2]netaddr.Addr]int),
	}
}

// Add folds one batch of traces into the builder. Safe to call many
// times; not safe for concurrent calls (it parallelizes internally over
// opts.Workers).
func (b *Builder) Add(traces []*traceroute.Trace) {
	reg := b.opts.Obs
	reg.Counter("mapit.traces").Add(uint64(len(traces)))
	// Degraded traces (fault-layer probe loss / rate limiting) are
	// excluded from every per-trace pass: their responsive hops can be
	// non-adjacent on the real path, and ingesting them would seed the
	// neighbor sets — and the link extraction — with false adjacencies.
	// Clean corpora carry no degraded traces, so the guard is free.
	skippedDegraded := reg.Counter("mapit.traces.skipped_degraded")
	for _, tr := range traces {
		if tr.Degraded {
			skippedDegraded.Inc()
		}
	}

	// Pass 0: neighbor sets, built in parallel over contiguous trace
	// chunks and merged by count addition — merge order cannot affect
	// the result. The destination hop of each trace is a host, not a
	// router interface; it contributes as a vote source for its
	// predecessor but gets no operator of its own. Adjacent pairs are
	// counted in the same sweep.
	chunks := max(min(b.opts.Workers, len(traces)), 1)
	partStats := make([]map[netaddr.Addr]*ifaceStats, chunks)
	partDsts := make([]map[netaddr.Addr]struct{}, chunks)
	partPairs := make([]map[[2]netaddr.Addr]int, chunks)
	stream.For(chunks, chunks, nil, func(_, c int) {
		lo, hi := c*len(traces)/chunks, (c+1)*len(traces)/chunks
		local := make(map[netaddr.Addr]*ifaceStats)
		get := func(a netaddr.Addr) *ifaceStats {
			s := local[a]
			if s == nil {
				s = &ifaceStats{prev: map[netaddr.Addr]int{}, next: map[netaddr.Addr]int{}}
				if origin, ok := b.opts.Prefix2AS(a); ok {
					s.origin, s.hasOrg = origin, true
				}
				s.isIXP = b.opts.IsIXP(a)
				local[a] = s
			}
			return s
		}
		dsts := map[netaddr.Addr]struct{}{}
		pairs := map[[2]netaddr.Addr]int{}
		for _, tr := range traces[lo:hi] {
			if tr.Degraded {
				continue
			}
			addrs := tr.ResponsiveAddrs()
			if tr.Reached && len(addrs) > 0 {
				dsts[addrs[len(addrs)-1]] = struct{}{}
			}
			end := len(addrs)
			if tr.Reached {
				end-- // final hop is the destination host
			}
			for i, a := range addrs {
				s := get(a)
				if i > 0 {
					s.prev[addrs[i-1]]++
				}
				if i+1 < len(addrs) {
					s.next[addrs[i+1]]++
				}
				if i >= 1 && i < end {
					pairs[[2]netaddr.Addr{addrs[i-1], a}]++
				}
			}
		}
		partStats[c], partDsts[c], partPairs[c] = local, dsts, pairs
	})
	for c := range partStats {
		for a, s := range partStats[c] {
			dst := b.stats[a]
			if dst == nil {
				b.stats[a] = s
				continue
			}
			for n, k := range s.prev {
				dst.prev[n] += k
			}
			for n, k := range s.next {
				dst.next[n] += k
			}
		}
		for a := range partDsts[c] {
			b.dsts[a] = struct{}{}
		}
		for k, n := range partPairs[c] {
			b.pairCount[k] += n
		}
	}
}

// Run executes MAP-IT over the trace corpus.
func Run(traces []*traceroute.Trace, opts Opts) *Inference {
	b := NewBuilder(opts)
	b.Add(traces)
	return b.Finish()
}

// Finish runs the vote passes, the far-side correction, and the link
// extraction over everything added so far, and returns the Inference.
// The builder should not be used after Finish.
func (b *Builder) Finish() *Inference {
	opts := b.opts
	reg := opts.Obs
	ties := reg.Counter("mapit.majority.ties")
	stats, dsts := b.stats, b.dsts

	// originVote holds pure prefix-origin labels; voteOp additionally
	// accumulates IXP/unknown addresses resolved in earlier passes
	// (needed to chain through exchange LANs). Crucially, far-side
	// REASSIGNMENTS enter neither map, and the far-side pass votes over
	// originVote only: inferred labels cascading into votes would let
	// the relabeled far side of one link (or a resolved IXP port)
	// out-vote the genuine near-side interfaces of every other link on
	// a shared border router. This mirrors MAP-IT's half-link
	// constraints.
	originVote := make(map[netaddr.Addr]topology.ASN, len(stats))
	for a, s := range stats {
		if s.hasOrg && !s.isIXP {
			originVote[a] = s.origin
		}
	}
	voteOp := make(map[netaddr.Addr]topology.ASN, len(originVote))
	for a, v := range originVote {
		voteOp[a] = v
	}

	// Deterministic iteration order.
	addrs := make([]netaddr.Addr, 0, len(stats))
	for a := range stats {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	// Passes 1..n-1: resolve IXP ports and unknown-origin addresses by
	// successor majority (the replying router belongs to the member the
	// probe enters next). Multiple passes handle chains.
	for pass := 0; pass < opts.Passes; pass++ {
		changed := 0
		for _, a := range addrs {
			s := stats[a]
			if !s.isIXP && s.hasOrg {
				continue
			}
			succAS, succFrac := majority(s.next, voteOp, opts.SameOrg, dsts, ties)
			if succAS == 0 || succFrac < opts.Threshold {
				continue
			}
			if cur, ok := voteOp[a]; !ok || !opts.SameOrg(cur, succAS) {
				voteOp[a] = succAS
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
	op := make(map[netaddr.Addr]topology.ASN, len(voteOp))
	for a, v := range voteOp {
		op[a] = v
	}
	for _, a := range addrs {
		if opts.DisableFarSide {
			break
		}
		s := stats[a]
		cur, hasCur := originVote[a]
		if !hasCur || s.isIXP {
			continue
		}
		succAS, succFrac := majority(s.next, originVote, opts.SameOrg, dsts, ties)
		// Unanimity required: a genuine far side forwards into exactly
		// one foreign network. A mere majority would let the busiest
		// neighbor of a shared border router capture the router's
		// uplink interface, injecting a phantom third organization into
		// every other neighbor's paths.
		if succAS == 0 || opts.SameOrg(cur, succAS) || succFrac < 0.999 {
			continue
		}
		predAS, predFrac := majority(s.prev, originVote, opts.SameOrg, dsts, ties)
		if len(s.prev) == 0 {
			continue
		}
		if predAS != 0 && opts.SameOrg(predAS, cur) && predFrac >= opts.Threshold {
			op[a] = succAS
			reg.Counter("mapit.farside.flips").Inc()
		}
	}

	inf := &Inference{Operator: op, opts: opts}

	// Link extraction: adjacent responsive pairs whose operators belong
	// to different organizations. The pair counts were accumulated
	// during Add; the operator filter applies here, once op is final.
	for k, n := range b.pairCount {
		asA, okA := op[k[0]]
		asB, okB := op[k[1]]
		if !okA || !okB || opts.SameOrg(asA, asB) {
			continue
		}
		inf.Links = append(inf.Links, Link{
			Near: k[0], Far: k[1], NearAS: asA, FarAS: asB, Traces: n,
		})
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
	reg.Counter("mapit.operators.labeled").Add(uint64(len(op)))
	return inf
}

// majority tallies operator votes over a neighbor SET (one vote per
// distinct neighbor interface, not per trace — MAP-IT reasons over the
// interface graph, and volume weighting would let one busy link
// out-vote the rest of a shared border router's neighbors), collapsing
// siblings onto the smallest ASN of the organization so the outcome
// never depends on map iteration order (the previous "first key seen
// wins" collapse made tie-breaks, and hence the whole inference,
// nondeterministic across runs). Destination-host neighbors are
// excluded (they are not router interfaces). It returns the winning
// ASN and its vote fraction (0 when no votes). A tie between distinct
// organizations for the top vote count — resolved by the smallest-ASN
// rule — is recorded on the ties counter (nil-safe), since ties are
// exactly where the deterministic tie-break is load-bearing.
func majority(neigh map[netaddr.Addr]int, op map[netaddr.Addr]topology.ASN,
	sameOrg func(a, b topology.ASN) bool, dsts map[netaddr.Addr]struct{},
	ties *obs.Counter) (topology.ASN, float64) {

	perAS := map[topology.ASN]int{}
	total := 0
	for a := range neigh {
		if _, isDst := dsts[a]; isDst {
			continue
		}
		asn, ok := op[a]
		if !ok {
			continue
		}
		perAS[asn]++
		total++
	}
	if total == 0 {
		return 0, 0
	}
	asns := make([]topology.ASN, 0, len(perAS))
	for asn := range perAS {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	votes := map[topology.ASN]int{}
	for _, asn := range asns {
		rep := asn
		for _, other := range asns {
			if other >= asn {
				break
			}
			if sameOrg(other, asn) {
				rep = other
				break
			}
		}
		votes[rep] += perAS[asn]
	}
	var best topology.ASN
	bestN := -1
	for asn, n := range votes {
		if n > bestN || (n == bestN && asn < best) {
			best, bestN = asn, n
		}
	}
	if ties != nil {
		atTop := 0
		for _, n := range votes {
			if n == bestN {
				atTop++
			}
		}
		if atTop > 1 {
			ties.Inc()
		}
	}
	return best, float64(bestN) / float64(total)
}

// ASPathOf maps a trace to the organization-collapsed AS-level path of
// its responsive router hops (unknown hops are skipped; consecutive
// same-org hops collapse). The destination's origin AS is appended
// when the trace reached it, since the client itself proves the final
// AS (§4.2's analysis counts AS hops between server and client).
// Degraded traces yield nil: hops lost to the fault layer would make
// the collapsed path skip organizations that were really crossed.
func (inf *Inference) ASPathOf(tr *traceroute.Trace) []topology.ASN {
	if tr.Degraded {
		return nil
	}
	var out []topology.ASN
	addrs := tr.ResponsiveAddrs()
	end := len(addrs)
	if tr.Reached {
		end--
	}
	push := func(asn topology.ASN) {
		if len(out) > 0 && inf.opts.SameOrg(out[len(out)-1], asn) {
			return
		}
		out = append(out, asn)
	}
	for _, a := range addrs[:end] {
		if asn, ok := inf.Operator[a]; ok {
			push(asn)
		}
	}
	if tr.Reached {
		if asn, ok := inf.opts.Prefix2AS(tr.DstAddr); ok {
			push(asn)
		}
	}
	return out
}

// LinksOf returns the inferred interdomain links a single trace
// crossed, in path order. Degraded traces yield nil — adjacency in a
// maimed trace does not imply adjacency on the path.
func (inf *Inference) LinksOf(tr *traceroute.Trace) []Link {
	if tr.Degraded {
		return nil
	}
	var out []Link
	addrs := tr.ResponsiveAddrs()
	end := len(addrs)
	if tr.Reached {
		end--
	}
	for i := 1; i < end; i++ {
		a, b := addrs[i-1], addrs[i]
		asA, okA := inf.Operator[a]
		asB, okB := inf.Operator[b]
		if !okA || !okB || inf.opts.SameOrg(asA, asB) {
			continue
		}
		out = append(out, Link{Near: a, Far: b, NearAS: asA, FarAS: asB})
	}
	return out
}
