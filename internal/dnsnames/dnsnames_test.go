package dnsnames

import (
	"strings"
	"testing"

	"throughputlab/internal/geo"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/topology"
)

func TestDomain(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Level3 Communications", "level3.net"},
		{"Cox Communications", "cox.net"},
		{"AT&T Services", "att.net"},
		{"GTT", "gtt.net"},
		{"", "unknown.net"},
	}
	for _, c := range cases {
		if got := Domain(c.in); got != c.want {
			t.Errorf("Domain(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPeerToken(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Cox Communications", "COX-COMMUNI"},
		{"Level3 Communications", "LEVEL3-COMM"},
		{"AT&T Services", "AT-T-SERVIC"},
		{"GTT", "GTT"},
		{"", "PEER"},
	}
	for _, c := range cases {
		if got := PeerToken(c.in); got != c.want {
			t.Errorf("PeerToken(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func buildNamedNet(t *testing.T, noPTR float64) (*topology.Topology, *topology.Link) {
	tp := topology.New([]geo.Metro{{Code: "dfw", Name: "Dallas", Lat: 32.8, Lon: -96.8, UTCOffset: -6, Weight: 1}})
	lOrg := &topology.Org{Name: "Level3 Communications"}
	cOrg := &topology.Org{Name: "Cox Communications"}
	tp.AddAS(&topology.AS{ASN: 3356, Name: "Level3", Org: lOrg, Type: topology.ASTypeTransit, Metros: []string{"dfw"}})
	tp.AddAS(&topology.AS{ASN: 22773, Name: "Cox", Org: cOrg, Type: topology.ASTypeAccess, Metros: []string{"dfw"}})
	tp.SetRel(3356, 22773, topology.RelPeer)
	r1 := tp.AddRouter(3356, "dfw", topology.RouterBorder, "edge5.Dallas3")
	r2 := tp.AddRouter(22773, "dfw", topology.RouterBorder, "bb1.Dallas")
	p2p := netaddr.MustParsePrefix("4.68.70.0/30")
	tp.Originate(3356, netaddr.MustParsePrefix("4.68.0.0/16"))
	link := tp.AddLink(r1, r2, topology.LinkSpec{
		Kind: topology.LinkInterdomain, Metro: "dfw", CapacityMbps: 10000,
		AddrA: p2p.Nth(1), AddrOwnerA: 3356,
		AddrB: p2p.Nth(2), AddrOwnerB: 3356,
	})
	Assign(tp, 1, noPTR, 1, nil)
	return tp, link
}

func TestAssignInterdomainNames(t *testing.T) {
	_, link := buildNamedNet(t, 0)
	// Level3-side interface carries the Cox peer token and Level3's
	// domain — the paper's exact convention.
	want := "COX-COMMUNI.edge5.Dallas3.level3.net"
	if link.A.DNSName != want {
		t.Errorf("A-side name = %q, want %q", link.A.DNSName, want)
	}
	if !strings.HasSuffix(link.B.DNSName, ".cox.net") {
		t.Errorf("B-side name = %q, want cox.net suffix", link.B.DNSName)
	}
	if !strings.HasPrefix(link.B.DNSName, "LEVEL3-COMM.") {
		t.Errorf("B-side name = %q, want Level3 peer token", link.B.DNSName)
	}
}

func TestAssignNoPTRFraction(t *testing.T) {
	tp, _ := buildNamedNet(t, 1.0)
	for addr, ifc := range tp.IfaceByAddr {
		if ifc.DNSName != "" {
			t.Errorf("interface %v should have no PTR, got %q", addr, ifc.DNSName)
		}
	}
}

func TestRouterFQDN(t *testing.T) {
	cases := []struct{ in, want string }{
		{"COX-COMMUNI.edge5.Dallas3.level3.net", "edge5.Dallas3.level3.net"},
		{"core1.Atlanta.level3.net", "core1.Atlanta.level3.net"},
		{"", ""},
		{"singlelabel", "singlelabel"},
	}
	for _, c := range cases {
		if got := RouterFQDN(c.in); got != c.want {
			t.Errorf("RouterFQDN(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParallelLinksShareRouterFQDN(t *testing.T) {
	// Two parallel links on the same router pair must produce the same
	// RouterFQDN, which is how the Table 2 analysis groups Cox's 39
	// links into a few router-level interconnects.
	tp, link1 := buildNamedNet(t, 0)
	r1 := link1.A.Router
	r2 := link1.B.Router
	p2p := netaddr.MustParsePrefix("4.68.70.4/30")
	link2 := tp.AddLink(r1, r2, topology.LinkSpec{
		Kind: topology.LinkInterdomain, Metro: "dfw", CapacityMbps: 10000,
		AddrA: p2p.Nth(1), AddrOwnerA: 3356,
		AddrB: p2p.Nth(2), AddrOwnerB: 3356,
	})
	Assign(tp, 2, 0, 1, nil)
	if RouterFQDN(link1.A.DNSName) != RouterFQDN(link2.A.DNSName) {
		t.Errorf("parallel links group differently: %q vs %q",
			RouterFQDN(link1.A.DNSName), RouterFQDN(link2.A.DNSName))
	}
	if link1.A.DNSName != link2.A.DNSName {
		// Same peer, same router: identical names are expected (and
		// harmless — grouping is by suffix).
		t.Logf("names differ: %q vs %q", link1.A.DNSName, link2.A.DNSName)
	}
}
