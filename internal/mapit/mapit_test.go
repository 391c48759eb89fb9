package mapit

import (
	"context"
	"math/rand"
	"sync"
	"testing"

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

func worldOpts() Opts {
	return Opts{
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
	}
}

// corpus generates clean server->client traces across ISPs.
func cleanCorpus(t testing.TB, n int) []*traceroute.Trace {
	t.Helper()
	tracer := traceroute.New(world().Topo, world().Resolver, traceroute.Clean())
	var out []*traceroute.Trace
	servers := world().MLabServers()
	isps := []string{"Comcast", "AT&T", "Verizon", "Cox", "Time Warner Cable", "CenturyLink", "Charter", "Frontier"}
	metros := []string{"nyc", "atl", "lax", "chi", "dfw", "sea", "den", "clt"}
	i := 0
	for len(out) < n {
		isp := isps[i%len(isps)]
		metro := metros[(i/len(isps))%len(metros)]
		i++
		cli, ok := world().NewClient(isp, metro)
		if !ok {
			continue
		}
		srv := servers[i%len(servers)]
		tr, err := tracer.Trace(srv.Endpoint, cli, uint32(i), i, nil)
		if err != nil {
			continue
		}
		out = append(out, tr)
	}
	return out
}

func TestFarSideCorrection(t *testing.T) {
	// The defining MAP-IT case: the far-side interface of a /30
	// numbered from the transit's space must be assigned to the access
	// network operating it.
	traces := cleanCorpus(t, 400)
	inf := Run(traces, worldOpts())

	checked := 0
	for _, tr := range traces {
		addrs := tr.ResponsiveAddrs()
		end := len(addrs)
		if tr.Reached {
			end--
		}
		for _, a := range addrs[:end] {
			ifc := world().Topo.IfaceByAddr[a]
			if ifc == nil {
				t.Fatalf("clean trace hop %v unknown", a)
			}
			// Only look at mislabeled-by-origin interfaces.
			origin, ok := world().Topo.OriginOf(a)
			if !ok || origin == ifc.Router.AS || world().Topo.SameOrg(origin, ifc.Router.AS) {
				continue
			}
			checked++
			got, ok := inf.Operator[a]
			if !ok {
				continue
			}
			if got == ifc.Router.AS || world().Topo.SameOrg(got, ifc.Router.AS) {
				continue // corrected ✓
			}
		}
	}
	if checked == 0 {
		t.Fatal("no far-side interfaces exercised; topology lacks the phenomenon")
	}
}

func TestOperatorAccuracy(t *testing.T) {
	traces := cleanCorpus(t, 600)
	inf := Run(traces, worldOpts())

	total, correct := 0, 0
	for a, got := range inf.Operator {
		ifc := world().Topo.IfaceByAddr[a]
		if ifc == nil {
			continue // destination hosts etc.
		}
		total++
		if got == ifc.Router.AS || world().Topo.SameOrg(got, ifc.Router.AS) {
			correct++
		}
	}
	if total < 100 {
		t.Fatalf("only %d interfaces assessed", total)
	}
	acc := float64(correct) / float64(total)
	// Marder et al. report >90% on their datasets; clean traces should
	// reach that here too.
	if acc < 0.9 {
		t.Errorf("operator accuracy %.3f < 0.9 (%d/%d)", acc, correct, total)
	}
}

func TestLinkPrecision(t *testing.T) {
	traces := cleanCorpus(t, 600)
	inf := Run(traces, worldOpts())
	if len(inf.Links) == 0 {
		t.Fatal("no links inferred")
	}
	good := 0
	for _, l := range inf.Links {
		na := world().Topo.IfaceByAddr[l.Near]
		fa := world().Topo.IfaceByAddr[l.Far]
		if na == nil || fa == nil {
			continue
		}
		// A true interdomain crossing: the two routers belong to
		// different orgs and the far interface's link really spans them.
		if !world().Topo.SameOrg(na.Router.AS, fa.Router.AS) && na.Router.AS != fa.Router.AS {
			good++
		}
	}
	prec := float64(good) / float64(len(inf.Links))
	if prec < 0.9 {
		t.Errorf("link precision %.3f < 0.9 (%d/%d)", prec, good, len(inf.Links))
	}
}

func TestLinkRecallOnTraversedBorders(t *testing.T) {
	traces := cleanCorpus(t, 600)
	inf := Run(traces, worldOpts())

	// Ground truth: interdomain (near,far) address pairs traversed.
	truth := map[[2]netaddr.Addr]bool{}
	for _, tr := range traces {
		addrs := tr.ResponsiveAddrs()
		end := len(addrs)
		if tr.Reached {
			end--
		}
		for i := 1; i < end; i++ {
			ia := world().Topo.IfaceByAddr[addrs[i-1]]
			ib := world().Topo.IfaceByAddr[addrs[i]]
			if ia == nil || ib == nil {
				continue
			}
			if ia.Router.AS != ib.Router.AS && !world().Topo.SameOrg(ia.Router.AS, ib.Router.AS) {
				truth[[2]netaddr.Addr{addrs[i-1], addrs[i]}] = true
			}
		}
	}
	found := map[[2]netaddr.Addr]bool{}
	for _, l := range inf.Links {
		found[[2]netaddr.Addr{l.Near, l.Far}] = true
	}
	hit := 0
	for k := range truth {
		if found[k] {
			hit++
		}
	}
	recall := float64(hit) / float64(len(truth))
	if recall < 0.85 {
		t.Errorf("link recall %.3f < 0.85 (%d/%d)", recall, hit, len(truth))
	}
}

func TestASPathOfCollapsesSiblings(t *testing.T) {
	traces := cleanCorpus(t, 200)
	inf := Run(traces, worldOpts())
	for _, tr := range traces[:50] {
		p := inf.ASPathOf(tr)
		if len(p) == 0 {
			continue
		}
		for i := 1; i < len(p); i++ {
			if p[i] == p[i-1] || world().Topo.SameOrg(p[i], p[i-1]) {
				t.Fatalf("AS path %v has un-collapsed sibling hops", p)
			}
		}
	}
}

func TestASPathServerToAdjacentClientIsTwoOrgs(t *testing.T) {
	// A Comcast client one AS hop from a Level3 server: the inferred
	// org-level path should have exactly 2 entries.
	tracer := traceroute.New(world().Topo, world().Resolver, traceroute.Clean())
	var srv topogen.Host
	for _, s := range world().MLabSites {
		if s.HostNet == "Level3" {
			srv = s.Servers[0]
			break
		}
	}
	cli, _ := world().NewClient("Comcast", "nyc")
	tr, err := tracer.Trace(srv.Endpoint, cli, 3, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	inf := Run(cleanCorpus(t, 300), worldOpts())
	p := inf.ASPathOf(tr)
	if len(p) != 2 {
		t.Errorf("Level3->Comcast AS path = %v, want 2 orgs", p)
	}
}

func TestRobustToArtifacts(t *testing.T) {
	// With realistic artifact rates, accuracy degrades gracefully, not
	// catastrophically.
	tracer := traceroute.New(world().Topo, world().Resolver, traceroute.DefaultArtifacts())
	rng := rand.New(rand.NewSource(5))
	var traces []*traceroute.Trace
	servers := world().MLabServers()
	for i := 0; i < 600; i++ {
		cli, ok := world().NewClient([]string{"Comcast", "AT&T", "Cox"}[i%3], []string{"nyc", "atl", "lax"}[(i/3)%3])
		if !ok {
			continue
		}
		tr, err := tracer.Trace(servers[i%len(servers)].Endpoint, cli, uint32(i), i, rng)
		if err == nil {
			traces = append(traces, tr)
		}
	}
	inf := Run(traces, worldOpts())
	total, correct := 0, 0
	for a, got := range inf.Operator {
		ifc := world().Topo.IfaceByAddr[a]
		if ifc == nil {
			continue
		}
		total++
		if got == ifc.Router.AS || world().Topo.SameOrg(got, ifc.Router.AS) {
			correct++
		}
	}
	if total == 0 {
		t.Fatal("nothing inferred")
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Errorf("artifact-corpus accuracy %.3f < 0.8", acc)
	}
}

func TestIXPAddressesResolved(t *testing.T) {
	// Campaign traces from an Ark VP cross IXP links; their LAN
	// addresses must get an operator via successor majority.
	vp := world().ArkVPs[0]
	targets := platform.RoutedPrefixTargets(world())
	if len(targets) > 400 {
		targets = targets[:400]
	}
	traces, _ := platform.Campaign(context.Background(), world(), vp.Host.Endpoint, targets, traceroute.Clean(), 9)
	inf := Run(traces, worldOpts())
	isIXP := worldOpts().IsIXP
	seen, resolved := 0, 0
	for a := range inf.Operator {
		if isIXP(a) {
			seen++
			resolved++
		}
	}
	// Count IXP addrs observed in traces at all.
	observed := 0
	for _, tr := range traces {
		for _, a := range tr.ResponsiveAddrs() {
			if isIXP(a) {
				observed++
			}
		}
	}
	if observed > 0 && seen == 0 {
		t.Error("IXP addresses observed but none resolved")
	}
	_ = resolved
}

func TestLinksOfMatchesGroundTruthCount(t *testing.T) {
	traces := cleanCorpus(t, 300)
	inf := Run(traces, worldOpts())
	for _, tr := range traces[:40] {
		inferred := inf.LinksOf(tr)
		// Ground truth crossings.
		truth := 0
		addrs := tr.ResponsiveAddrs()
		end := len(addrs)
		if tr.Reached {
			end--
		}
		for i := 1; i < end; i++ {
			ia := world().Topo.IfaceByAddr[addrs[i-1]]
			ib := world().Topo.IfaceByAddr[addrs[i]]
			if ia != nil && ib != nil && !world().Topo.SameOrg(ia.Router.AS, ib.Router.AS) && ia.Router.AS != ib.Router.AS {
				truth++
			}
		}
		if len(inferred) > truth+1 || len(inferred) < truth-1 {
			t.Errorf("trace links inferred %d vs truth %d", len(inferred), truth)
		}
	}
}

func BenchmarkRun(b *testing.B) {
	traces := cleanCorpus(b, 500)
	opts := worldOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(traces, opts)
	}
}

// TestRobustToMalformedTraces: empty traces, single-hop traces, and
// repeated adjacent addresses must not panic or poison the inference.
func TestRobustToMalformedTraces(t *testing.T) {
	good := cleanCorpus(t, 200)
	var weird []*traceroute.Trace
	weird = append(weird, &traceroute.Trace{}) // no hops at all
	weird = append(weird, &traceroute.Trace{   // only stars
		Hops: []traceroute.Hop{{TTL: 1}, {TTL: 2}},
	})
	// A trace with every hop duplicated (some boxes answer twice).
	dup := *good[0]
	dup.Hops = nil
	for _, h := range good[0].Hops {
		dup.Hops = append(dup.Hops, h, h)
	}
	weird = append(weird, &dup)
	// Single responsive hop, unreached.
	weird = append(weird, &traceroute.Trace{
		Hops: []traceroute.Hop{good[1].Hops[0]},
	})

	inf := Run(append(weird, good...), worldOpts())
	if len(inf.Links) == 0 {
		t.Fatal("malformed traces suppressed all inference")
	}
	total, correct := 0, 0
	for a, got := range inf.Operator {
		ifc := world().Topo.IfaceByAddr[a]
		if ifc == nil {
			continue
		}
		total++
		if got == ifc.Router.AS || world().Topo.SameOrg(got, ifc.Router.AS) {
			correct++
		}
	}
	if float64(correct)/float64(total) < 0.9 {
		t.Errorf("accuracy degraded to %d/%d with malformed traces", correct, total)
	}
	// The duplicated-hop trace still yields a sane AS path.
	p := inf.ASPathOf(&dup)
	for i := 1; i < len(p); i++ {
		if p[i] == p[i-1] {
			t.Error("duplicate hops produced repeated AS path entries")
		}
	}
}
