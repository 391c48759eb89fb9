package routing

import (
	"testing"

	"throughputlab/internal/bgp"
	"throughputlab/internal/geo"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/topology"
)

// testNet builds a two-AS topology with router-level structure:
//
//	AS100 (transit): cores in atl/nyc/lax, borders in atl (x2 parallel
//	links) and nyc toward AS200.
//	AS200 (access): cores+access routers in atl/nyc, borders in atl/nyc.
type testNet struct {
	topo   *topology.Topology
	rv     *Resolver
	server Endpoint
	// clients by metro
	clientATL, clientNYC, clientLAX Endpoint
	atlLinks                        []*topology.Link // parallel atl links
	nycLink                         *topology.Link
}

func buildTestNet(t testing.TB) *testNet {
	metros := []geo.Metro{
		{Code: "atl", Name: "Atlanta", Lat: 33.75, Lon: -84.39, UTCOffset: -5, Weight: 1},
		{Code: "nyc", Name: "New York", Lat: 40.71, Lon: -74.01, UTCOffset: -5, Weight: 1},
		{Code: "lax", Name: "Los Angeles", Lat: 34.05, Lon: -118.24, UTCOffset: -8, Weight: 1},
	}
	tp := topology.New(metros)
	tOrg := &topology.Org{Name: "Transit", ASNs: []topology.ASN{100}}
	aOrg := &topology.Org{Name: "Access", ASNs: []topology.ASN{200}}
	tp.Orgs = append(tp.Orgs, tOrg, aOrg)
	tp.AddAS(&topology.AS{ASN: 100, Name: "Transit", Org: tOrg, Type: topology.ASTypeTransit, Metros: []string{"atl", "nyc", "lax"}})
	tp.AddAS(&topology.AS{ASN: 200, Name: "Access", Org: aOrg, Type: topology.ASTypeAccess, Metros: []string{"atl", "nyc", "lax"}})
	tp.SetRel(100, 200, topology.RelPeer)

	alloc := topology.NewAllocator(netaddr.MustParsePrefix("10.0.0.0/8"))
	infra100 := alloc.MustAlloc(16)
	infra200 := alloc.MustAlloc(16)
	tp.Originate(100, infra100)
	tp.Originate(200, infra200)
	nextAddr := map[topology.ASN]uint64{100: 0, 200: 0}
	addrOf := func(asn topology.ASN) netaddr.Addr {
		p := infra100
		if asn == 200 {
			p = infra200
		}
		nextAddr[asn]++
		return p.Nth(nextAddr[asn])
	}

	// Routers.
	cores100 := map[string]*topology.Router{}
	for _, m := range []string{"atl", "nyc", "lax"} {
		cores100[m] = tp.AddRouter(100, m, topology.RouterCore, "core."+m)
	}
	cores200 := map[string]*topology.Router{}
	access200 := map[string]*topology.Router{}
	for _, m := range []string{"atl", "nyc", "lax"} {
		cores200[m] = tp.AddRouter(200, m, topology.RouterCore, "bb."+m)
		access200[m] = tp.AddRouter(200, m, topology.RouterAccess, "agg."+m)
	}
	b100atl := tp.AddRouter(100, "atl", topology.RouterBorder, "edge1.atl")
	b100nyc := tp.AddRouter(100, "nyc", topology.RouterBorder, "edge1.nyc")
	b200atl := tp.AddRouter(200, "atl", topology.RouterBorder, "br1.atl")
	b200nyc := tp.AddRouter(200, "nyc", topology.RouterBorder, "br1.nyc")

	intra := func(asn topology.ASN, a, b *topology.Router) {
		tp.AddLink(a, b, topology.LinkSpec{
			Kind: topology.LinkIntra, Metro: a.Metro, CapacityMbps: 100000,
			AddrA: addrOf(asn), AddrOwnerA: asn,
			AddrB: addrOf(asn), AddrOwnerB: asn,
		})
	}
	// AS100: core mesh + border attach.
	intra(100, cores100["atl"], cores100["nyc"])
	intra(100, cores100["atl"], cores100["lax"])
	intra(100, cores100["nyc"], cores100["lax"])
	intra(100, cores100["atl"], b100atl)
	intra(100, cores100["nyc"], b100nyc)
	// AS200: core mesh + border/access attach.
	intra(200, cores200["atl"], cores200["nyc"])
	intra(200, cores200["atl"], cores200["lax"])
	intra(200, cores200["nyc"], cores200["lax"])
	intra(200, cores200["atl"], b200atl)
	intra(200, cores200["nyc"], b200nyc)
	for _, m := range []string{"atl", "nyc", "lax"} {
		intra(200, cores200[m], access200[m])
	}

	// Interdomain links: two parallel in atl, one in nyc.
	interdomain := func(ra, rb *topology.Router, metro string) *topology.Link {
		p2p := alloc.MustAlloc(30)
		tp.Originate(100, p2p)
		return tp.AddLink(ra, rb, topology.LinkSpec{
			Kind: topology.LinkInterdomain, Metro: metro, CapacityMbps: 10000,
			BaseUtil: 0.2, PeakUtil: 0.6,
			AddrA: p2p.Nth(1), AddrOwnerA: 100,
			AddrB: p2p.Nth(2), AddrOwnerB: 100,
		})
	}
	atl1 := interdomain(b100atl, b200atl, "atl")
	atl2 := interdomain(b100atl, b200atl, "atl")
	nyc1 := interdomain(b100nyc, b200nyc, "nyc")

	// Client pools and access lines.
	clientEP := func(m string) Endpoint {
		pool := alloc.MustAlloc(20)
		tp.Originate(200, pool)
		tp.AS(200).ClientPools[m] = pool
		line := tp.AddLink(access200[m], nil, topology.LinkSpec{
			Kind: topology.LinkAccessLine, Metro: m, CapacityMbps: 1000,
			BaseUtil: 0.2, PeakUtil: 0.8,
			AddrA: addrOf(200), AddrOwnerA: 200,
		})
		return Endpoint{
			Addr: pool.Nth(10), ASN: 200, Metro: m,
			Router: access200[m].ID, AccessLine: line,
		}
	}
	epATL := clientEP("atl")
	epNYC := clientEP("nyc")
	epLAX := clientEP("lax")

	if errs := tp.Validate(1, nil); len(errs) != 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatal("invalid test topology")
	}

	routes := bgp.ComputeLazy(tp)
	rv := New(tp, routes)
	server := Endpoint{
		Addr: infra100.Nth(9999), ASN: 100, Metro: "atl",
		Router: cores100["atl"].ID,
	}
	return &testNet{
		topo: tp, rv: rv, server: server,
		clientATL: epATL, clientNYC: epNYC, clientLAX: epLAX,
		atlLinks: []*topology.Link{atl1, atl2}, nycLink: nyc1,
	}
}

func TestResolveLocalClient(t *testing.T) {
	n := buildTestNet(t)
	p, err := n.rv.Resolve(n.server, n.clientATL, FlowKey(n.server.Addr, n.clientATL.Addr, 1))
	if err != nil {
		t.Fatal(err)
	}
	inter := p.InterdomainLinks()
	if len(inter) != 1 {
		t.Fatalf("crossed %d interdomain links, want 1", len(inter))
	}
	if inter[0].Metro != "atl" {
		t.Errorf("atl server to atl client crossed %s link", inter[0].Metro)
	}
	// Path: core.atl -> edge1.atl -> br1.atl -> bb.atl -> agg.atl.
	if len(p.Hops) != 5 {
		t.Errorf("hop count %d, want 5: %v", len(p.Hops), hopNames(&p))
	}
	// Access line present at the client end.
	last := p.Links[len(p.Links)-1]
	if last.Kind != topology.LinkAccessLine {
		t.Error("path should end with the client's access line")
	}
}

func hopNames(p *Path) []string {
	var out []string
	for _, h := range p.Hops {
		out = append(out, h.Router.Name)
	}
	return out
}

func TestResolveRemoteClientUsesNearerLink(t *testing.T) {
	n := buildTestNet(t)
	// Server in atl, client in lax: the atl interconnect minimizes
	// total distance (atl->atl->lax beats atl->nyc->lax).
	p, err := n.rv.Resolve(n.server, n.clientLAX, FlowKey(n.server.Addr, n.clientLAX.Addr, 1))
	if err != nil {
		t.Fatal(err)
	}
	inter := p.InterdomainLinks()
	if len(inter) != 1 || inter[0].Metro != "atl" {
		t.Errorf("expected atl egress toward lax, got %v", inter[0].Metro)
	}
}

func TestParallelLinkECMPDeterministic(t *testing.T) {
	n := buildTestNet(t)
	seen := map[topology.LinkID]int{}
	for entropy := uint32(0); entropy < 64; entropy++ {
		key := FlowKey(n.server.Addr, n.clientATL.Addr, entropy)
		p, err := n.rv.Resolve(n.server, n.clientATL, key)
		if err != nil {
			t.Fatal(err)
		}
		seen[p.InterdomainLinks()[0].ID]++
		// Same key resolves identically.
		p2, _ := n.rv.Resolve(n.server, n.clientATL, key)
		if p2.InterdomainLinks()[0].ID != p.InterdomainLinks()[0].ID {
			t.Fatal("same flow key chose different links")
		}
	}
	if len(seen) != 2 {
		t.Errorf("ECMP used %d of 2 parallel links: %v", len(seen), seen)
	}
	// Roughly balanced.
	for id, c := range seen {
		if c < 16 {
			t.Errorf("link %d got only %d of 64 flows", id, c)
		}
	}
}

func TestIngressInterfaces(t *testing.T) {
	n := buildTestNet(t)
	p, err := n.rv.Resolve(n.server, n.clientNYC, FlowKey(n.server.Addr, n.clientNYC.Addr, 7))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range p.Hops {
		if i == 0 {
			if h.InLink != nil || h.Ingress != nil {
				t.Error("first hop should have no in-link")
			}
			continue
		}
		if h.InLink == nil || h.Ingress == nil {
			t.Fatalf("hop %d (%s) missing in-link/ingress", i, h.Router.Name)
		}
		if h.Ingress.Router.ID != h.Router.ID {
			t.Errorf("hop %d ingress interface belongs to router %d, not %d",
				i, h.Ingress.Router.ID, h.Router.ID)
		}
	}
	// The interdomain ingress interface must be on the AS200 side.
	for _, h := range p.Hops {
		if h.InLink != nil && h.InLink.Kind == topology.LinkInterdomain {
			if h.Router.AS != 200 {
				t.Error("interdomain ingress should be the AS200 border router")
			}
		}
	}
}

func TestUpstreamPathStartsWithAccessLine(t *testing.T) {
	n := buildTestNet(t)
	p, err := n.rv.Resolve(n.clientATL, n.server, FlowKey(n.clientATL.Addr, n.server.Addr, 3))
	if err != nil {
		t.Fatal(err)
	}
	if p.Links[0].Kind != topology.LinkAccessLine {
		t.Error("upstream path should start with the access line")
	}
	if p.Hops[0].Router.Kind != topology.RouterAccess {
		t.Error("first hop should be the access router")
	}
	if p.Hops[len(p.Hops)-1].Router.ID != topology.RouterID(n.server.Router) {
		t.Error("last hop should be the server's attachment router")
	}
}

func TestASPathRecorded(t *testing.T) {
	n := buildTestNet(t)
	p, err := n.rv.Resolve(n.server, n.clientATL, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.ASPath) != 2 || p.ASPath[0] != 100 || p.ASPath[1] != 200 {
		t.Errorf("ASPath = %v", p.ASPath)
	}
}

func TestRTTGrowsWithDistance(t *testing.T) {
	n := buildTestNet(t)
	near, _ := n.rv.Resolve(n.server, n.clientATL, 1)
	far, _ := n.rv.Resolve(n.server, n.clientLAX, 1)
	rttNear := n.rv.RTTms(&near)
	rttFar := n.rv.RTTms(&far)
	if rttNear <= 0 || rttFar <= rttNear {
		t.Errorf("RTT near=%v far=%v", rttNear, rttFar)
	}
	// Cross-country RTT should be tens of ms.
	if rttFar < 20 || rttFar > 120 {
		t.Errorf("atl->lax RTT = %v ms, implausible", rttFar)
	}
}

func TestNoRouteError(t *testing.T) {
	n := buildTestNet(t)
	bad := Endpoint{Addr: netaddr.MustParseAddr("203.0.113.1"), ASN: 999, Metro: "atl", Router: 0}
	if _, err := n.rv.Resolve(n.server, bad, 1); err == nil {
		t.Error("resolve to unknown AS should fail")
	}
}

func TestFlowKeyDistribution(t *testing.T) {
	// FlowKey must vary with each input.
	a := netaddr.MustParseAddr("10.0.0.1")
	b := netaddr.MustParseAddr("10.0.0.2")
	k1 := FlowKey(a, b, 1)
	if FlowKey(a, b, 2) == k1 {
		t.Error("entropy change should change key")
	}
	if FlowKey(b, a, 1) == k1 {
		t.Error("direction change should change key")
	}
	// Parity balance over entropy values.
	odd := 0
	for e := uint32(0); e < 1000; e++ {
		if FlowKey(a, b, e)%2 == 1 {
			odd++
		}
	}
	if odd < 400 || odd > 600 {
		t.Errorf("flow key parity skewed: %d/1000 odd", odd)
	}
}

func BenchmarkResolve(b *testing.B) {
	n := buildTestNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.rv.Resolve(n.server, n.clientLAX, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
