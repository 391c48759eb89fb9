package bdrmap

import (
	"context"
	"sync"
	"testing"

	"throughputlab/internal/alias"
	"throughputlab/internal/asrank"
	"throughputlab/internal/mapit"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// world is the package's shared small world, generated on first use.
var world = sync.OnceValue(func() *topogen.World {
	return topogen.MustGenerate(topogen.SmallConfig())
})

func optsFor(isp string) Opts {
	return Opts{
		OrgASNs: world().Access[isp].Org.ASNs,
		MapIt: mapit.Opts{
			Prefix2AS: world().Topo.OriginOf,
			IsIXP: func(a netaddr.Addr) bool {
				for _, p := range world().Topo.IXPPrefixes {
					if p.Contains(a) {
						return true
					}
				}
				return false
			},
			SameOrg: func(x, y topology.ASN) bool { return x == y || world().Topo.SameOrg(x, y) },
		},
		Rel:       world().Topo.RelOf,
		Alias:     alias.Perfect(world().Topo),
		AliasSeed: 11,
	}
}

// run is the full analysis of a prefix campaign: MAP-IT over it, then
// its border map.
func run(traces []*traceroute.Trace, opts Opts) *Result {
	return NewAnalyzer(traces, opts).Borders(traces)
}

// trueNeighbors returns the ground-truth non-sibling neighbor ASNs of
// an org.
func trueNeighbors(isp string) map[topology.ASN]bool {
	an := world().Access[isp]
	out := map[topology.ASN]bool{}
	for _, o := range an.Org.ASNs {
		for _, n := range world().Topo.Neighbors(o) {
			if world().Topo.RelOf(o, n) == topology.RelSibling {
				continue
			}
			out[n] = true
		}
	}
	return out
}

func campaignFor(t testing.TB, vpLabel string) ([]*traceroute.Trace, string) {
	t.Helper()
	for _, vp := range world().ArkVPs {
		if vp.Label == vpLabel {
			targets := platform.RoutedPrefixTargets(world())
			traces, _ := platform.Campaign(context.Background(), world(), vp.Host.Endpoint, targets, traceroute.Clean(), 3)
			return traces, vp.ISP
		}
	}
	t.Fatalf("no VP %s", vpLabel)
	return nil, ""
}

func TestBordersPrecision(t *testing.T) {
	traces, isp := campaignFor(t, "bed-us")
	res := run(traces, optsFor(isp))
	if res.ASCount < 5 {
		t.Fatalf("only %d AS borders found", res.ASCount)
	}
	truth := trueNeighbors(isp)
	wrong := 0
	for _, b := range res.Borders {
		if !truth[b.Neighbor] && !world().Topo.SameOrg(b.Neighbor, world().Access[isp].Org.ASNs[0]) {
			wrong++
		}
	}
	prec := 1 - float64(wrong)/float64(res.ASCount)
	// bdrmap validates >90% on ground truth.
	if prec < 0.9 {
		t.Errorf("border precision %.3f < 0.9 (%d wrong of %d)", prec, wrong, res.ASCount)
	}
}

func TestBordersRecallOfRoutedNeighbors(t *testing.T) {
	// Every neighbor that actually carries traffic from the VP to some
	// routed prefix should be discovered. Neighbors never on any best
	// path (e.g. backup providers) legitimately stay invisible, so
	// compare against the set of neighbors appearing as first AS hop in
	// ground-truth paths.
	traces, isp := campaignFor(t, "bed-us")
	an := world().Access[isp]
	orgSet := map[topology.ASN]bool{}
	for _, o := range an.Org.ASNs {
		orgSet[o] = true
	}
	reachable := map[topology.ASN]bool{}
	vpASN := func() topology.ASN {
		for _, vp := range world().ArkVPs {
			if vp.Label == "bed-us" {
				return vp.Host.Endpoint.ASN
			}
		}
		return 0
	}()
	for _, dst := range world().Topo.ASNs() {
		p := world().Routes.Path(vpASN, dst)
		for i := 1; i < len(p); i++ {
			if orgSet[p[i-1]] && !orgSet[p[i]] {
				reachable[p[i]] = true
				break
			}
		}
	}
	res := run(traces, optsFor(isp))
	found := map[topology.ASN]bool{}
	for _, b := range res.Borders {
		found[b.Neighbor] = true
	}
	missed := 0
	for n := range reachable {
		if !found[n] {
			missed++
		}
	}
	recall := 1 - float64(missed)/float64(len(reachable))
	if recall < 0.85 {
		t.Errorf("border recall %.3f < 0.85 (missed %d of %d)", recall, missed, len(reachable))
	}
}

func TestRelationshipClassification(t *testing.T) {
	traces, isp := campaignFor(t, "bed-us")
	res := run(traces, optsFor(isp))
	cust := res.ByRel[topology.RelCustomer]
	peer := res.ByRel[topology.RelPeer]
	if cust.AS == 0 {
		t.Error("Comcast VP should see customer borders")
	}
	if peer.AS == 0 {
		t.Error("Comcast VP should see peer borders")
	}
	// Comcast sells transit: customers dominate (Table 3 shape).
	if cust.AS <= peer.AS {
		t.Errorf("customers (%d) should outnumber peers (%d) for Comcast", cust.AS, peer.AS)
	}
	// Router-level counts at least match AS-level.
	if res.RouterCount < res.ASCount {
		t.Errorf("router count %d below AS count %d", res.RouterCount, res.ASCount)
	}
}

func TestSmallISPSeesFewerBorders(t *testing.T) {
	tc, _ := campaignFor(t, "bed-us")
	comcast := run(tc, optsFor("Comcast"))
	tf, _ := campaignFor(t, "igx-us")
	frontier := run(tf, optsFor("Frontier"))
	if frontier.ASCount >= comcast.ASCount {
		t.Errorf("Frontier borders (%d) should be far fewer than Comcast (%d)",
			frontier.ASCount, comcast.ASCount)
	}
}

func TestCoverageSetsSubsetOfBorders(t *testing.T) {
	campaign, isp := campaignFor(t, "mnz-us")
	var vp topogen.ArkVP
	for _, v := range world().ArkVPs {
		if v.Label == "mnz-us" {
			vp = v
		}
	}
	mlabTraces, _ := platform.Campaign(context.Background(), world(), vp.Host.Endpoint,
		platform.HostTargets(world().MLabServers()), traceroute.Clean(), 4)

	all := append(append([]*traceroute.Trace{}, campaign...), mlabTraces...)
	az := NewAnalyzer(all, optsFor(isp))
	res := az.Borders(campaign)
	asCov, routerCov := az.CoverageSets(mlabTraces)

	borderSet := map[topology.ASN]bool{}
	for _, b := range res.Borders {
		borderSet[b.Neighbor] = true
	}
	inBorders := 0
	for n := range asCov {
		if borderSet[n] {
			inBorders++
		}
	}
	if len(asCov) == 0 {
		t.Fatal("no coverage at all")
	}
	if inBorders == 0 {
		t.Error("covered neighbors disjoint from campaign borders")
	}
	// Coverage is a small fraction of all borders (the Figure 2 point).
	if len(asCov)*3 > res.ASCount {
		t.Errorf("M-Lab covers %d of %d AS borders; expected a small fraction",
			len(asCov), res.ASCount)
	}
	if len(routerCov) == 0 {
		t.Error("no router-level coverage")
	}
}

func TestFirstCrossingSkipsUnusableTraces(t *testing.T) {
	traces, isp := campaignFor(t, "bed-us")
	az := NewAnalyzer(traces, optsFor(isp))
	// A trace that never leaves the org (destination inside Comcast)
	// yields no crossing.
	none := 0
	for _, tr := range traces {
		if _, ok := az.FirstCrossing(tr); !ok {
			none++
		}
	}
	if none == 0 {
		t.Error("expected some intra-network traces without crossings")
	}
}

func BenchmarkBdrmapRun(b *testing.B) {
	traces, isp := campaignFor(b, "bed-us")
	opts := optsFor(isp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(traces, opts)
	}
}

// TestBordersWithInferredRelationships runs the full bdrmap analysis
// with asrank-inferred relationships instead of ground truth — the
// paper's actual setup, where CAIDA's AS-rank supplies the rel data.
func TestBordersWithInferredRelationships(t *testing.T) {
	traces, isp := campaignFor(t, "bed-us")

	// Build collector feeds and infer relationships.
	var paths [][]topology.ASN
	asns := world().Topo.ASNs()
	for vi := 0; vi < len(asns); vi += len(asns)/20 + 1 {
		for _, origin := range asns {
			if p := world().Routes.Path(asns[vi], origin); len(p) >= 2 {
				paths = append(paths, p)
			}
		}
	}
	inferred := asrank.Infer(paths, asrank.DefaultConfig())

	opts := optsFor(isp)
	opts.Rel = inferred.Rel
	res := run(traces, opts)
	if res.ASCount < 5 {
		t.Fatal("no borders with inferred rels")
	}
	cust := res.ByRel[topology.RelCustomer]
	peer := res.ByRel[topology.RelPeer]
	if cust.AS == 0 || peer.AS == 0 {
		t.Errorf("inferred-rel split degenerate: cust=%d peer=%d unknown=%d",
			cust.AS, peer.AS, res.ByRel[topology.RelNone].AS)
	}
	// The Table 3 shape must survive inference noise: customers dominate.
	if cust.AS <= peer.AS {
		t.Errorf("customers (%d) should outnumber peers (%d) under inferred rels", cust.AS, peer.AS)
	}
}

// TestOrgRelIsFirstNonNone pins the org-relationship rule: the org's
// relationship to a neighbor is the first non-None pairwise
// relationship over its ASNs in OrgASNs order, RelNone when every ASN
// has none, and RelNone for every neighbor without a Rel lookup.
func TestOrgRelIsFirstNonNone(t *testing.T) {
	// AS 1 peers with 9 and has no relationship to 8; AS 2 sells 9
	// transit and peers with 8. Neither has a relationship to 7.
	rels := map[[2]topology.ASN]topology.Rel{
		{1, 9}: topology.RelPeer,
		{2, 9}: topology.RelCustomer,
		{2, 8}: topology.RelPeer,
	}
	rel := func(a, b topology.ASN) topology.Rel { return rels[[2]topology.ASN{a, b}] }
	for _, tc := range []struct {
		org  []topology.ASN
		rel  func(a, b topology.ASN) topology.Rel
		n    topology.ASN
		want topology.Rel
	}{
		{[]topology.ASN{1, 2}, rel, 9, topology.RelPeer},
		{[]topology.ASN{2, 1}, rel, 9, topology.RelCustomer},
		{[]topology.ASN{1, 2}, rel, 8, topology.RelPeer},
		{[]topology.ASN{1, 2}, rel, 7, topology.RelNone},
		{[]topology.ASN{1, 2}, nil, 9, topology.RelNone},
	} {
		az := NewAnalyzerFromInference(&mapit.Inference{}, Opts{OrgASNs: tc.org, Rel: tc.rel})
		if got := az.Rel(tc.n); got != tc.want {
			t.Errorf("org %v (Rel set: %t): Rel(%d) = %v, want %v", tc.org, tc.rel != nil, tc.n, got, tc.want)
		}
	}
}
