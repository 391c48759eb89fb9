package mapit

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"throughputlab/internal/faults"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
	"throughputlab/internal/stream"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// inferenceEqual compares two inferences field by field.
func inferenceEqual(t *testing.T, label string, a, b *Inference) {
	t.Helper()
	if len(a.Operator) != len(b.Operator) {
		t.Fatalf("%s: operator map sizes %d vs %d", label, len(a.Operator), len(b.Operator))
	}
	for addr, asn := range a.Operator {
		if b.Operator[addr] != asn {
			t.Fatalf("%s: operator of %v differs: %v vs %v", label, addr, asn, b.Operator[addr])
		}
	}
	if len(a.Links) != len(b.Links) {
		t.Fatalf("%s: link counts %d vs %d", label, len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("%s: link %d differs: %+v vs %+v", label, i, a.Links[i], b.Links[i])
		}
	}
}

// TestBuilderChunkedMatchesRun pins the incremental contract: feeding
// the corpus through Add in chunks of any size — and at any worker
// count — produces the identical inference to one batch Run.
func TestBuilderChunkedMatchesRun(t *testing.T) {
	traces := cleanCorpus(t, 400)
	want := Run(traces, worldOpts())
	for _, chunk := range []int{1, 7, 100, 1000} {
		for _, workers := range []int{1, 4} {
			opts := worldOpts()
			opts.Workers = workers
			b := NewBuilder(opts)
			for lo := 0; lo < len(traces); lo += chunk {
				hi := lo + chunk
				if hi > len(traces) {
					hi = len(traces)
				}
				b.Add(traces[lo:hi])
			}
			got := b.Finish()
			inferenceEqual(t, "chunked", want, got)
		}
	}
}

// TestBuilderEmpty finishes cleanly with nothing added.
func TestBuilderEmpty(t *testing.T) {
	inf := NewBuilder(worldOpts()).Finish()
	if len(inf.Operator) != 0 || len(inf.Links) != 0 {
		t.Fatalf("empty builder inferred %d operators, %d links", len(inf.Operator), len(inf.Links))
	}
}

// The per-interface reference: the builder as it stood before the
// adjacency table, kept verbatim in its logic.

type refIface struct {
	origin topology.ASN
	hasOrg bool
	isIXP  bool
	// prev/next neighbor addresses with multiplicity.
	prev map[netaddr.Addr]int
	next map[netaddr.Addr]int
}

// refBuilder is the per-interface builder the adjacency table replaced,
// kept as the reference the table must reproduce: per-interface
// predecessor and successor count maps plus a separate pair-count map,
// rebuilt per chunk and merged per interface.
type refBuilder struct {
	opts Opts
	// stats/dsts are pass 0's merged neighbor sets and destination-host
	// addresses.
	stats map[netaddr.Addr]*refIface
	dsts  map[netaddr.Addr]struct{}
	// pairCount counts every adjacent responsive pair. Unlike the old
	// single-pass extraction it is built before operators are known, so
	// it is unfiltered; Finish applies the operator/same-org filter.
	// Distinct pairs are bounded by the interface adjacency of the
	// topology, not by the trace count.
	pairCount map[[2]netaddr.Addr]int
}

func newRefBuilder(opts Opts) *refBuilder {
	opts.withDefaults()
	return &refBuilder{
		opts:      opts,
		stats:     make(map[netaddr.Addr]*refIface),
		dsts:      make(map[netaddr.Addr]struct{}),
		pairCount: make(map[[2]netaddr.Addr]int),
	}
}

func (b *refBuilder) add(traces []*traceroute.Trace) {
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
	partStats := make([]map[netaddr.Addr]*refIface, chunks)
	partDsts := make([]map[netaddr.Addr]struct{}, chunks)
	partPairs := make([]map[[2]netaddr.Addr]int, chunks)
	stream.For(chunks, chunks, nil, func(_, c int) {
		lo, hi := c*len(traces)/chunks, (c+1)*len(traces)/chunks
		local := make(map[netaddr.Addr]*refIface)
		get := func(a netaddr.Addr) *refIface {
			s := local[a]
			if s == nil {
				s = &refIface{prev: map[netaddr.Addr]int{}, next: map[netaddr.Addr]int{}}
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

func (b *refBuilder) finish() *Inference {
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
	for range refinePasses {
		changed := 0
		for _, a := range addrs {
			s := stats[a]
			if !s.isIXP && s.hasOrg {
				continue
			}
			succAS, succFrac := refMajority(s.next, voteOp, opts.SameOrg, dsts, ties)
			if succAS == 0 || succFrac < majorityFrac {
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
		succAS, succFrac := refMajority(s.next, originVote, opts.SameOrg, dsts, ties)
		// Unanimity required: a genuine far side forwards into exactly
		// one foreign network. A mere majority would let the busiest
		// neighbor of a shared border router capture the router's
		// uplink interface, injecting a phantom third organization into
		// every other neighbor's paths.
		if succAS == 0 || opts.SameOrg(cur, succAS) || succFrac < 0.999 {
			continue
		}
		predAS, predFrac := refMajority(s.prev, originVote, opts.SameOrg, dsts, ties)
		if len(s.prev) == 0 {
			continue
		}
		if predAS != 0 && opts.SameOrg(predAS, cur) && predFrac >= majorityFrac {
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

// refMajority is majority over a neighbor count map.
func refMajority(neigh map[netaddr.Addr]int, op map[netaddr.Addr]topology.ASN,
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

// refASPathOf and refLinksOf are ASPathOf and LinksOf over
// Trace.ResponsiveAddrs, as they stood before the shared hop walk.
func (inf *Inference) refASPathOf(tr *traceroute.Trace) []topology.ASN {
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

func (inf *Inference) refLinksOf(tr *traceroute.Trace) []Link {
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

// handOpts is a toy public dataset: 10.0.X.Y is originated by AS X,
// 80.0.0.0/24 is an IXP LAN (originated by AS 99), 99.0.0.0/24 has no
// origin, and ASes 1 and 2 are siblings.
func handOpts() Opts {
	return Opts{
		Prefix2AS: func(a netaddr.Addr) (topology.ASN, bool) {
			switch a >> 24 {
			case 10:
				return topology.ASN(a >> 8 & 0xff), true
			case 80:
				return 99, true
			}
			return 0, false
		},
		IsIXP:   func(a netaddr.Addr) bool { return a>>24 == 80 },
		SameOrg: func(x, y topology.ASN) bool { return x == y || min(x, y) == 1 && max(x, y) == 2 },
	}
}

// handTrace builds a trace over addrs, one hop per TTL; a zero address
// is a star. A reached trace's destination is its last address.
func handTrace(reached bool, addrs ...netaddr.Addr) *traceroute.Trace {
	tr := &traceroute.Trace{Reached: reached}
	for i, a := range addrs {
		tr.Hops = append(tr.Hops, traceroute.Hop{TTL: i + 1, Addr: a})
	}
	if reached {
		tr.DstAddr = addrs[len(addrs)-1]
	}
	return tr
}

// handTraces covers the table's corner cases: single responsive hops
// (unreached and reached), unreached traces, a destination that is
// also a mid-path hop of another trace, a destination in another
// organization than its last router, an a→b→a loop, IXP ports (one
// resolved, one tied), an unknown-origin hop, siblings, stars and
// repeated hops, an empty trace and a degraded trace. It also drives
// every MAP-IT counter above zero: a far-side flip (10.0.1.3, numbered
// from AS 1 but forwarding only into AS 3), a resolution and a tie.
func handTraces() []*traceroute.Trace {
	ip := func(a, b, c, d byte) netaddr.Addr { return netaddr.AddrFrom4(a, b, c, d) }
	var star netaddr.Addr
	degraded := handTrace(false, ip(10, 0, 1, 1), ip(10, 0, 9, 1), ip(10, 0, 9, 2))
	degraded.Degraded = true
	return []*traceroute.Trace{
		handTrace(true, ip(10, 0, 1, 1), ip(10, 0, 1, 2), ip(10, 0, 1, 3), ip(10, 0, 3, 1), ip(10, 0, 3, 2), ip(10, 0, 3, 100)),
		handTrace(false, ip(10, 0, 1, 1), ip(10, 0, 1, 2), ip(10, 0, 1, 3), ip(10, 0, 3, 1), ip(10, 0, 3, 5), star, star),
		handTrace(true, ip(10, 0, 1, 2), ip(10, 0, 1, 3), ip(10, 0, 3, 1), ip(10, 0, 3, 2)), // 10.0.3.2 is also mid-path above
		handTrace(true, ip(10, 0, 1, 1), ip(10, 0, 1, 2), ip(80, 0, 0, 1), ip(10, 0, 4, 1), ip(10, 0, 4, 2), ip(10, 0, 4, 100)),
		handTrace(false, ip(10, 0, 1, 2), ip(80, 0, 0, 2), ip(10, 0, 5, 1)),
		handTrace(false, ip(10, 0, 1, 2), ip(80, 0, 0, 2), ip(10, 0, 6, 1), ip(10, 0, 6, 2)),
		handTrace(false, ip(10, 0, 1, 1), ip(99, 0, 0, 1), ip(10, 0, 4, 1)),
		handTrace(false, ip(10, 0, 1, 2), ip(10, 0, 2, 1), ip(10, 0, 2, 2), ip(10, 0, 3, 1)),
		handTrace(false, star, ip(10, 0, 7, 1), star),
		handTrace(true, ip(10, 0, 8, 100)),
		handTrace(true, ip(10, 0, 1, 1), ip(10, 0, 1, 2), ip(10, 0, 5, 100)), // the last router→destination step crosses organizations
		handTrace(false, ip(10, 0, 1, 1), ip(10, 0, 3, 1), ip(10, 0, 1, 1), ip(10, 0, 3, 7)),
		handTrace(true, ip(10, 0, 1, 1), ip(10, 0, 1, 1), star, ip(10, 0, 1, 1), ip(10, 0, 1, 2), ip(10, 0, 1, 2), ip(10, 0, 3, 1), ip(10, 0, 3, 100)),
		{},
		degraded,
	}
}

// heavyCorpus is a small campaign's traces under the heavy fault
// profile, which marks some of them degraded.
func heavyCorpus(t testing.TB) []*traceroute.Trace {
	t.Helper()
	cfg := platform.DefaultCollect()
	cfg.Tests, cfg.PerPoolClients = 1500, 5
	cfg.Faults = faults.Heavy()
	c, err := platform.CollectParallelCtx(context.Background(), world(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	return c.Traces
}

// graphSize counts the distinct responsive addresses and ordered
// adjacent pairs of the non-degraded traces.
func graphSize(traces []*traceroute.Trace) (ifaces, edges int) {
	addrs := map[netaddr.Addr]bool{}
	pairs := map[[2]netaddr.Addr]bool{}
	for _, tr := range traces {
		if tr.Degraded {
			continue
		}
		rs := tr.ResponsiveAddrs()
		for i, a := range rs {
			addrs[a] = true
			if i > 0 {
				pairs[[2]netaddr.Addr{rs[i-1], a}] = true
			}
		}
	}
	return len(addrs), len(pairs)
}

// feed adds traces to add in chunks of the given size.
func feed(traces []*traceroute.Trace, chunk int, add func([]*traceroute.Trace)) {
	for lo := 0; lo < len(traces); lo += chunk {
		add(traces[lo:min(lo+chunk, len(traces))])
	}
}

// TestBuilderMatchesReference pins the adjacency table to the
// per-interface builder it replaced: the same operators, links and
// mapit.* counters at every chunking and worker count, over
// hand-built corner cases and a fault-heavy campaign.
func TestBuilderMatchesReference(t *testing.T) {
	corpora := []struct {
		name   string
		traces []*traceroute.Trace
		opts   Opts
	}{
		{"hand", handTraces(), handOpts()},
		{"heavy", heavyCorpus(t), worldOpts()},
	}
	for _, c := range corpora {
		for _, chunk := range []int{1, 7, 1000, len(c.traces)} {
			for _, workers := range []int{1, 4} {
				refOpts, opts := c.opts, c.opts
				refOpts.Obs, opts.Obs = obs.NewRegistry(), obs.NewRegistry()
				refOpts.Workers, opts.Workers = workers, workers
				rb := newRefBuilder(refOpts)
				feed(c.traces, chunk, rb.add)
				want := rb.finish()
				b := NewBuilder(opts)
				feed(c.traces, chunk, b.Add)
				got := b.Finish()

				label := c.name
				inferenceEqual(t, label, want, got)
				wantC := refOpts.Obs.CountersWithPrefix("mapit.")
				gotC := opts.Obs.CountersWithPrefix("mapit.")
				if !maps.Equal(wantC, gotC) {
					t.Fatalf("%s chunk=%d workers=%d: counters %v, reference %v", label, chunk, workers, gotC, wantC)
				}
				for _, name := range []string{"farside.flips", "majority.ties", "vote.resolved", "traces.skipped_degraded"} {
					if c.name == "hand" && gotC["mapit."+name] == 0 {
						t.Errorf("hand corpus leaves mapit.%s at 0", name)
					}
				}
				if c.name == "heavy" && gotC["mapit.traces.skipped_degraded"] == 0 {
					t.Error("heavy corpus has no degraded traces")
				}
				ifaces, edges := graphSize(c.traces)
				if n := opts.Obs.Gauge("mapit.interfaces").Value(); n != int64(ifaces) {
					t.Errorf("%s: mapit.interfaces = %d, want %d", label, n, ifaces)
				}
				if n := opts.Obs.Gauge("mapit.edges").Value(); n != int64(edges) {
					t.Errorf("%s: mapit.edges = %d, want %d", label, n, edges)
				}
			}
		}
	}
}

// TestAppendWalksMatchReference pins AppendASPath and AppendLinks (and
// so ASPathOf and LinksOf) to the ResponsiveAddrs-based walks, and
// checks that appending leaves dst's prefix alone and never collapses
// the path into it.
func TestAppendWalksMatchReference(t *testing.T) {
	for _, c := range []struct {
		traces []*traceroute.Trace
		opts   Opts
	}{{handTraces(), handOpts()}, {heavyCorpus(t), worldOpts()}} {
		inf := Run(c.traces, c.opts)
		for i, tr := range c.traces {
			if got, want := inf.ASPathOf(tr), inf.refASPathOf(tr); !slices.Equal(got, want) {
				t.Fatalf("trace %d: ASPathOf %v, reference %v", i, got, want)
			}
			if got, want := inf.LinksOf(tr), inf.refLinksOf(tr); !slices.Equal(got, want) {
				t.Fatalf("trace %d: LinksOf %v, reference %v", i, got, want)
			}
			want := inf.refASPathOf(tr)
			if len(want) == 0 {
				continue
			}
			prefix := []topology.ASN{want[0]}
			got := inf.AppendASPath(prefix, tr)
			if got[0] != want[0] || !slices.Equal(got[1:], want) {
				t.Fatalf("trace %d: AppendASPath(%v) = %v, want the prefix then %v", i, prefix, got, want)
			}
		}
	}
}

// TestASPathOfEndsAtReachedDestination pins AppendPathAS's reached
// branch, which generated worlds never exercise (there the client's
// origin always collapses into the last router's organization). Here
// the last responsive router is operated by AS 1 and the destination
// is originated by AS 5, another organization: a reached trace's AS
// path must end with AS 5, and its unreached twin's, whose hops stop at
// the same router, must not.
func TestASPathOfEndsAtReachedDestination(t *testing.T) {
	ip := func(a, b, c, d byte) netaddr.Addr { return netaddr.AddrFrom4(a, b, c, d) }
	dst := ip(10, 0, 5, 100)
	reached := handTrace(true, ip(10, 0, 1, 1), ip(10, 0, 1, 2), dst)
	unreached := handTrace(false, ip(10, 0, 1, 1), ip(10, 0, 1, 2))
	unreached.DstAddr = dst
	opts := handOpts()
	inf := Run([]*traceroute.Trace{reached, unreached}, opts)
	origin, _ := opts.Prefix2AS(dst)
	if op, ok := inf.Operator[ip(10, 0, 1, 2)]; !ok || opts.SameOrg(op, origin) {
		t.Fatalf("last router's operator = %d (known %v), want one outside AS %d's organization", op, ok, origin)
	}
	if got := inf.ASPathOf(reached); len(got) < 2 || got[len(got)-1] != origin {
		t.Errorf("reached trace: AS path %v, want it to end with the destination's origin AS %d", got, origin)
	}
	if got := inf.ASPathOf(unreached); len(got) == 0 || got[len(got)-1] == origin {
		t.Errorf("unreached trace: AS path %v, want it not to end with AS %d", got, origin)
	}
}

// TestAppendWalksAllocFree: with warm scratch buffers the per-trace
// walks allocate nothing, which is what lets the report's per-pair
// callback run allocation-free.
func TestAppendWalksAllocFree(t *testing.T) {
	traces := cleanCorpus(t, 200)
	inf := Run(traces, worldOpts())
	var path []topology.ASN
	var links []Link
	for _, tr := range traces {
		path = inf.AppendASPath(path[:0], tr)
		links = inf.AppendLinks(links[:0], tr)
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, tr := range traces {
			path = inf.AppendASPath(path[:0], tr)
			links = inf.AppendLinks(links[:0], tr)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendASPath+AppendLinks over %d traces: %v allocations, want 0", len(traces), allocs)
	}
}

// BenchmarkBuilderAdd feeds a small campaign's traces to Add in 8
// chunks; Finish, which sums the per-worker tables, is left out of the
// timing (BenchmarkRun covers it).
func BenchmarkBuilderAdd(b *testing.B) {
	cfg := platform.DefaultCollect()
	cfg.Tests, cfg.PerPoolClients = 3000, 5
	c, err := platform.CollectParallelCtx(context.Background(), world(), cfg, 2)
	if err != nil {
		b.Fatal(err)
	}
	traces := c.Traces
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := worldOpts()
			opts.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bld := NewBuilder(opts)
				feed(traces, (len(traces)+7)/8, bld.Add)
			}
		})
	}
}
