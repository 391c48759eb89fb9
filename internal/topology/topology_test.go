package topology

import (
	"testing"

	"throughputlab/internal/geo"
	"throughputlab/internal/netaddr"
)

func testMetros() []geo.Metro {
	return []geo.Metro{
		{Code: "atl", Name: "Atlanta", Lat: 33.7, Lon: -84.4, UTCOffset: -5, Weight: 1},
		{Code: "nyc", Name: "New York", Lat: 40.7, Lon: -74.0, UTCOffset: -5, Weight: 2},
	}
}

// buildTiny builds a two-AS topology with one interdomain link, used by
// several tests.
func buildTiny(t *testing.T) (*Topology, *Link) {
	t.Helper()
	tp := New(testMetros())
	org1 := &Org{Name: "TransitCo", ASNs: []ASN{100}}
	org2 := &Org{Name: "AccessCo", ASNs: []ASN{200}}
	tp.Orgs = append(tp.Orgs, org1, org2)
	tp.AddAS(&AS{ASN: 100, Name: "TransitCo", Org: org1, Type: ASTypeTransit, Metros: []string{"atl"}})
	tp.AddAS(&AS{ASN: 200, Name: "AccessCo", Org: org2, Type: ASTypeAccess, Metros: []string{"atl"}})
	tp.SetRel(100, 200, RelPeer)

	b1 := tp.AddRouter(100, "atl", RouterBorder, "edge1.Atlanta1")
	b2 := tp.AddRouter(200, "atl", RouterBorder, "bb1.Atlanta")

	p2p := netaddr.MustParsePrefix("4.68.0.0/30")
	tp.Originate(100, netaddr.MustParsePrefix("4.68.0.0/16"))
	link := tp.AddLink(b1, b2, LinkSpec{
		Kind:         LinkInterdomain,
		Metro:        "atl",
		CapacityMbps: 10000,
		BaseUtil:     0.3,
		PeakUtil:     0.7,
		AddrA:        p2p.Nth(1),
		AddrB:        p2p.Nth(2),
		AddrOwnerA:   100,
		AddrOwnerB:   100, // far side numbered out of AS100's space
	})

	pool := netaddr.MustParsePrefix("24.0.0.0/16")
	tp.Originate(200, pool)
	tp.AS(200).ClientPools["atl"] = pool
	return tp, link
}

func TestBuildTinyValid(t *testing.T) {
	tp, _ := buildTiny(t)
	if errs := tp.Validate(1, nil); len(errs) != 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
}

func TestRelSymmetry(t *testing.T) {
	tp, _ := buildTiny(t)
	if tp.RelOf(100, 200) != RelPeer || tp.RelOf(200, 100) != RelPeer {
		t.Error("peer relationship should be symmetric")
	}
	tp.SetRel(100, 200, RelCustomer)
	if tp.RelOf(100, 200) != RelCustomer {
		t.Error("SetRel did not update")
	}
	if tp.RelOf(200, 100) != RelProvider {
		t.Error("inverse relationship should be provider")
	}
	if tp.RelOf(100, 999) != RelNone {
		t.Error("unknown pair should be RelNone")
	}
}

func TestRelInvert(t *testing.T) {
	cases := []struct{ in, want Rel }{
		{RelCustomer, RelProvider},
		{RelProvider, RelCustomer},
		{RelPeer, RelPeer},
		{RelSibling, RelSibling},
		{RelNone, RelNone},
	}
	for _, c := range cases {
		if got := c.in.Invert(); got != c.want {
			t.Errorf("%v.Invert() = %v, want %v", c.in, got, c.want)
		}
	}
	// Invert is an involution.
	for _, r := range []Rel{RelNone, RelCustomer, RelProvider, RelPeer, RelSibling} {
		if r.Invert().Invert() != r {
			t.Errorf("Invert not involutive for %v", r)
		}
	}
}

func TestNeighbors(t *testing.T) {
	tp, _ := buildTiny(t)
	n := tp.Neighbors(100)
	if len(n) != 1 || n[0] != 200 {
		t.Errorf("Neighbors(100) = %v", n)
	}
	if len(tp.Neighbors(999)) != 0 {
		t.Error("unknown AS should have no neighbors")
	}
}

func TestSameOrg(t *testing.T) {
	tp, _ := buildTiny(t)
	org := tp.AS(100).Org
	tp.AddAS(&AS{ASN: 101, Name: "TransitCo-East", Org: org, Type: ASTypeTransit})
	org.ASNs = append(org.ASNs, 101)
	if !tp.SameOrg(100, 101) {
		t.Error("100 and 101 share an org")
	}
	if tp.SameOrg(100, 200) {
		t.Error("100 and 200 do not share an org")
	}
	if tp.SameOrg(100, 999) {
		t.Error("unknown AS never shares an org")
	}
}

func TestOriginLookup(t *testing.T) {
	tp, _ := buildTiny(t)
	asn, ok := tp.OriginOf(netaddr.MustParseAddr("24.0.5.9"))
	if !ok || asn != 200 {
		t.Errorf("OriginOf client addr = (%d, %v)", asn, ok)
	}
	asn, ok = tp.OriginOf(netaddr.MustParseAddr("4.68.0.1"))
	if !ok || asn != 100 {
		t.Errorf("OriginOf p2p addr = (%d, %v), want AS100", asn, ok)
	}
	if _, ok := tp.OriginOf(netaddr.MustParseAddr("99.99.99.99")); ok {
		t.Error("unannounced space should not resolve")
	}
}

func TestIfaceByAddr(t *testing.T) {
	tp, link := buildTiny(t)
	ifc := tp.IfaceByAddr[link.A.Addr]
	if ifc == nil || ifc.Router.AS != 100 {
		t.Fatalf("IfaceByAddr[%v] = %v", link.A.Addr, ifc)
	}
	// The B end is numbered from AS100's space but operated by AS200:
	// the MAP-IT challenge in miniature.
	ifb := tp.IfaceByAddr[link.B.Addr]
	if ifb.Router.AS != 200 {
		t.Errorf("B end operated by %d, want 200", ifb.Router.AS)
	}
	if ifb.AddrOwner != 100 {
		t.Errorf("B end address owner %d, want 100", ifb.AddrOwner)
	}
	origin, _ := tp.OriginOf(ifb.Addr)
	if origin != 100 {
		t.Errorf("public origin of B end = %d; the prefix→AS view disagrees with operation", origin)
	}
}

func TestInterdomainLinksFilter(t *testing.T) {
	tp, link := buildTiny(t)
	all := tp.InterdomainLinks(0, 0)
	if len(all) != 1 || all[0] != link {
		t.Fatalf("InterdomainLinks(0,0) = %v", all)
	}
	if got := tp.InterdomainLinks(200, 100); len(got) != 1 {
		t.Error("filter should be order-insensitive")
	}
	if got := tp.InterdomainLinks(100, 999); len(got) != 0 {
		t.Error("no links to unknown AS")
	}
}

func TestDuplicateASNPanics(t *testing.T) {
	tp, _ := buildTiny(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate ASN should panic")
		}
	}()
	tp.AddAS(&AS{ASN: 100})
}

func TestDuplicateIfaceAddrPanics(t *testing.T) {
	tp, link := buildTiny(t)
	r1 := tp.AddRouter(100, "atl", RouterCore, "core1.Atlanta")
	r2 := tp.AddRouter(100, "atl", RouterCore, "core2.Atlanta")
	defer func() {
		if recover() == nil {
			t.Error("duplicate interface address should panic")
		}
	}()
	tp.AddLink(r1, r2, LinkSpec{
		Kind: LinkIntra, Metro: "atl", CapacityMbps: 1,
		AddrA: link.A.Addr, AddrOwnerA: 100,
	})
}

func TestValidateCatchesBadInterdomainLink(t *testing.T) {
	tp, _ := buildTiny(t)
	// A border-to-border link whose interfaces are numbered from an
	// uninvolved AS must be flagged.
	tp.AddAS(&AS{ASN: 300, Name: "Other", Type: ASTypeStub, Metros: []string{"atl"}})
	tp.SetRel(100, 300, RelCustomer)
	b1 := tp.AddRouter(100, "atl", RouterBorder, "edge2.Atlanta1")
	b3 := tp.AddRouter(300, "atl", RouterBorder, "gw.Other")
	tp.AddLink(b1, b3, LinkSpec{
		Kind: LinkInterdomain, Metro: "atl", CapacityMbps: 1000,
		AddrA: netaddr.MustParseAddr("203.0.113.1"), AddrOwnerA: 555,
		AddrB: netaddr.MustParseAddr("203.0.113.2"), AddrOwnerB: 555,
	})
	errs := tp.Validate(1, nil)
	if len(errs) == 0 {
		t.Fatal("Validate should flag interfaces numbered from uninvolved AS")
	}
}

func TestValidateCatchesMetroMismatch(t *testing.T) {
	tp, _ := buildTiny(t)
	b1 := tp.AddRouter(100, "atl", RouterBorder, "edge3.Atlanta1")
	b2 := tp.AddRouter(200, "nyc", RouterBorder, "bb2.NewYork")
	tp.AddLink(b1, b2, LinkSpec{
		Kind: LinkInterdomain, Metro: "atl", CapacityMbps: 1000,
		AddrA: netaddr.MustParseAddr("4.68.1.1"), AddrOwnerA: 100,
		AddrB: netaddr.MustParseAddr("4.68.1.2"), AddrOwnerB: 100,
	})
	if errs := tp.Validate(1, nil); len(errs) == 0 {
		t.Fatal("Validate should flag interdomain link spanning metros")
	}
}

func TestValidateCatchesAsymmetricRel(t *testing.T) {
	tp, _ := buildTiny(t)
	// Break symmetry by writing the raw map entry.
	tp.rel[[2]ASN{100, 200}] = RelCustomer
	if errs := tp.Validate(1, nil); len(errs) == 0 {
		t.Fatal("Validate should flag asymmetric relationships")
	}
}

func TestAllocator(t *testing.T) {
	a := NewAllocator(netaddr.MustParsePrefix("10.0.0.0/8"))
	p1 := a.MustAlloc(16)
	if p1.String() != "10.0.0.0/16" {
		t.Errorf("first /16 = %v", p1)
	}
	p2 := a.MustAlloc(24)
	if p2.String() != "10.1.0.0/24" {
		t.Errorf("next /24 = %v", p2)
	}
	// A /16 now must skip ahead to alignment.
	p3 := a.MustAlloc(16)
	if p3.String() != "10.2.0.0/16" {
		t.Errorf("aligned /16 = %v", p3)
	}
	if p1.Overlaps(p2) || p2.Overlaps(p3) || p1.Overlaps(p3) {
		t.Error("allocations overlap")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator(netaddr.MustParsePrefix("192.0.2.0/24"))
	if _, err := a.Alloc(25); err != nil {
		t.Fatalf("first /25: %v", err)
	}
	if _, err := a.Alloc(25); err != nil {
		t.Fatalf("second /25: %v", err)
	}
	if _, err := a.Alloc(25); err == nil {
		t.Fatal("third /25 should exhaust the /24")
	}
	if _, err := a.Alloc(8); err == nil {
		t.Fatal("allocating larger than pool should fail")
	}
}

func TestAllocatorNoOverlapProperty(t *testing.T) {
	a := NewAllocator(netaddr.MustParsePrefix("10.0.0.0/8"))
	var allocs []netaddr.Prefix
	sizes := []int{30, 24, 16, 30, 20, 28, 18, 30, 31, 32, 12}
	for _, bits := range sizes {
		p := a.MustAlloc(bits)
		for _, q := range allocs {
			if p.Overlaps(q) {
				t.Fatalf("%v overlaps %v", p, q)
			}
		}
		allocs = append(allocs, p)
	}
}

func TestASTypeAndKindStrings(t *testing.T) {
	if ASTypeAccess.String() != "access" || ASTypeIXP.String() != "ixp" {
		t.Error("ASType strings wrong")
	}
	if RouterBorder.String() != "border" {
		t.Error("RouterKind string wrong")
	}
	if RelPeer.String() != "peer" {
		t.Error("Rel string wrong")
	}
	if ASType(99).String() == "" || RouterKind(99).String() == "" || Rel(99).String() == "" {
		t.Error("unknown values should still stringify")
	}
}

func TestMustMetro(t *testing.T) {
	tp, _ := buildTiny(t)
	if m := tp.MustMetro("atl"); m.Code != "atl" {
		t.Errorf("MustMetro = %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown metro should panic")
		}
	}()
	tp.MustMetro("zzz")
}

func TestCollectStats(t *testing.T) {
	tp, _ := buildTiny(t)
	s := tp.CollectStats()
	if s.ASes != 2 || s.ByType[ASTypeTransit] != 1 || s.ByType[ASTypeAccess] != 1 {
		t.Errorf("AS stats wrong: %+v", s)
	}
	if s.Routers != 2 || s.ByKind[RouterBorder] != 2 {
		t.Errorf("router stats wrong: %+v", s)
	}
	if s.Links != 1 || s.ByLink[LinkInterdomain] != 1 {
		t.Errorf("link stats wrong: %+v", s)
	}
	if s.SaturatedLinks != 0 {
		t.Errorf("no link saturates in the tiny topology: %+v", s)
	}
	if s.Prefixes != 2 {
		t.Errorf("prefix count %d, want 2", s.Prefixes)
	}
	if s.String() == "" {
		t.Error("banner empty")
	}
}
