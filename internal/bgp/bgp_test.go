package bgp

import (
	"math/rand"
	"testing"

	"throughputlab/internal/geo"
	"throughputlab/internal/topology"
)

// buildTopo assembles a topology from a compact edge list.
// Edges are (a, b, rel-of-b-as-seen-from-a).
type edge struct {
	a, b topology.ASN
	rel  topology.Rel
}

func buildTopo(asns []topology.ASN, edges []edge) *topology.Topology {
	t := topology.New([]geo.Metro{{Code: "m", Name: "Metro", Weight: 1}})
	org := &topology.Org{Name: "shared"}
	for _, a := range asns {
		t.AddAS(&topology.AS{ASN: a, Name: "AS", Org: org, Type: topology.ASTypeStub, Metros: []string{"m"}})
	}
	for _, e := range edges {
		t.SetRel(e.a, e.b, e.rel)
	}
	return t
}

// A small reference topology:
//
//	      T1 ---peer--- T2
//	     /  \             \
//	   M1    M2            M3        (customers of transits)
//	  /  \     \          /
//	S1    S2    S3      S4           (stubs)
//
// M1 and M2 peer with each other.
func refTopo() *topology.Topology {
	asns := []topology.ASN{10, 20, 101, 102, 103, 1001, 1002, 1003, 1004}
	edges := []edge{
		{10, 20, topology.RelPeer},
		{10, 101, topology.RelCustomer},
		{10, 102, topology.RelCustomer},
		{20, 103, topology.RelCustomer},
		{101, 102, topology.RelPeer},
		{101, 1001, topology.RelCustomer},
		{101, 1002, topology.RelCustomer},
		{102, 1003, topology.RelCustomer},
		{103, 1004, topology.RelCustomer},
	}
	return buildTopo(asns, edges)
}

func TestNextHopAndPathBasics(t *testing.T) {
	r := Compute(refTopo(), 1, nil)

	// Stub to its own provider: direct.
	if p := r.Path(1001, 101); len(p) != 2 {
		t.Errorf("path 1001->101 = %v", p)
	}
	// Sibling stubs under same provider: via the provider.
	if p := r.Path(1001, 1002); len(p) != 3 || p[1] != 101 {
		t.Errorf("path 1001->1002 = %v", p)
	}
	// Across the peer link M1-M2, not up through T1: peer route at 101
	// (3 hops via peer 102) ties with provider route length but peer
	// class wins.
	p := r.Path(1001, 1003)
	want := []topology.ASN{1001, 101, 102, 1003}
	if len(p) != 4 || p[1] != 101 || p[2] != 102 {
		t.Errorf("path 1001->1003 = %v, want %v", p, want)
	}
	// Far side of the transit peer link.
	p = r.Path(1001, 1004)
	if len(p) != 6 {
		t.Errorf("path 1001->1004 = %v, want 5 hops", p)
	}
}

func TestRouteClassPreference(t *testing.T) {
	r := Compute(refTopo(), 1, nil)
	// 101's route to 1003: peer class via 102 even though a provider
	// route through T1 exists.
	if c := r.Class(101, 1003); c != ClassPeer {
		t.Errorf("class 101->1003 = %v, want peer", c)
	}
	// 101's route to 1001: customer.
	if c := r.Class(101, 1001); c != ClassCustomer {
		t.Errorf("class 101->1001 = %v, want customer", c)
	}
	// 101's route to 1004: provider (up through T1).
	if c := r.Class(101, 1004); c != ClassProvider {
		t.Errorf("class 101->1004 = %v, want provider", c)
	}
	// Self.
	if c := r.Class(101, 101); c != ClassCustomer {
		t.Errorf("class self = %v", c)
	}
}

func TestNoValleyThroughPeerStub(t *testing.T) {
	// S3 (customer of 102) must not be used as transit between 101 and
	// anything; and 103's only path to 1003 goes up through T2, across
	// the T1-T2 peer link, then down — never via the M1-M2 peer edge
	// (that would be peer->peer).
	r := Compute(refTopo(), 1, nil)
	p := r.Path(103, 1003)
	// Expected: 103 -> 20 -> 10 -> 102 -> 1003.
	if len(p) != 5 || p[1] != 20 || p[2] != 10 || p[3] != 102 {
		t.Errorf("path 103->1003 = %v", p)
	}
}

func TestUnreachable(t *testing.T) {
	asns := []topology.ASN{1, 2, 3}
	edges := []edge{{1, 2, topology.RelCustomer}} // 3 is isolated
	r := Compute(buildTopo(asns, edges), 1, nil)
	if r.HasRoute(1, 3) || r.HasRoute(3, 1) {
		t.Error("isolated AS should be unreachable")
	}
	if p := r.Path(1, 3); p != nil {
		t.Errorf("path to isolated AS = %v", p)
	}
	if r.PathLen(1, 3) != -1 {
		t.Error("PathLen to unreachable should be -1")
	}
	if _, ok := r.NextHop(1, 3); ok {
		t.Error("NextHop to unreachable should fail")
	}
}

func TestPeerRoutesNotExportedToPeers(t *testing.T) {
	// A - peer - B - peer - C: A must NOT reach C (no provider chain).
	asns := []topology.ASN{1, 2, 3}
	edges := []edge{
		{1, 2, topology.RelPeer},
		{2, 3, topology.RelPeer},
	}
	r := Compute(buildTopo(asns, edges), 1, nil)
	if r.HasRoute(1, 3) {
		t.Error("peer routes must not be exported to peers (valley)")
	}
	if !r.HasRoute(1, 2) || !r.HasRoute(2, 3) {
		t.Error("direct peers should reach each other")
	}
}

func TestSiblingPropagation(t *testing.T) {
	// Sibling pair B1-B2; customer C under B1; peer P of B2.
	// P should reach C via B2 -> B1 (peer route relayed by sibling).
	asns := []topology.ASN{11, 12, 100, 200}
	edges := []edge{
		{11, 12, topology.RelSibling},
		{11, 100, topology.RelCustomer},
		{12, 200, topology.RelPeer},
	}
	tp := buildTopo(asns, edges)
	r := Compute(tp, 1, nil)
	p := r.Path(200, 100)
	want := []topology.ASN{200, 12, 11, 100}
	if len(p) != 4 || p[1] != want[1] || p[2] != want[2] {
		t.Errorf("path 200->100 = %v, want %v", p, want)
	}
	if c := r.Class(200, 100); c != ClassPeer {
		t.Errorf("class 200->100 = %v, want peer", c)
	}
	// And the reverse: C reaches P going up through sibling pair.
	p = r.Path(100, 200)
	if len(p) != 4 {
		t.Errorf("path 100->200 = %v", p)
	}
}

func TestMultihomedStubPrefersShorterCustomerlessPath(t *testing.T) {
	// Stub S multihomed to M1 and T1 (M1 is T1's customer). Traffic
	// from another T1 customer M2 to S: T1 prefers its direct customer
	// route to S (2 hops) over via M1 (3 hops).
	asns := []topology.ASN{10, 101, 102, 1001}
	edges := []edge{
		{10, 101, topology.RelCustomer},
		{10, 102, topology.RelCustomer},
		{101, 1001, topology.RelCustomer},
		{10, 1001, topology.RelCustomer},
	}
	r := Compute(buildTopo(asns, edges), 1, nil)
	p := r.Path(102, 1001)
	if len(p) != 3 || p[1] != 10 {
		t.Errorf("path 102->1001 = %v, want direct via T1", p)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	// Two equal-length customer routes: next hop must be the lowest ASN,
	// and repeated computation must agree.
	asns := []topology.ASN{10, 30, 20, 1001}
	edges := []edge{
		{10, 30, topology.RelCustomer},
		{10, 20, topology.RelCustomer},
		{30, 1001, topology.RelCustomer},
		{20, 1001, topology.RelCustomer},
	}
	tp := buildTopo(asns, edges)
	r1 := Compute(tp, 1, nil)
	r2 := Compute(tp, 1, nil)
	nh1, _ := r1.NextHop(10, 1001)
	nh2, _ := r2.NextHop(10, 1001)
	if nh1 != nh2 {
		t.Errorf("non-deterministic next hop: %v vs %v", nh1, nh2)
	}
	if nh1 != 20 {
		t.Errorf("next hop = %v, want lowest-ASN 20", nh1)
	}
}

// validPathState checks the valley-free property of a path.
func validPath(t *topology.Topology, path []topology.ASN) bool {
	const (
		up = iota
		down
	)
	state := up
	for i := 1; i < len(path); i++ {
		switch t.RelOf(path[i-1], path[i]) {
		case topology.RelProvider: // uphill
			if state != up {
				return false
			}
		case topology.RelPeer: // at most one, at the top
			if state != up {
				return false
			}
			state = down
		case topology.RelCustomer: // downhill
			state = down
		case topology.RelSibling:
			// allowed anywhere
		default:
			return false // non-adjacent consecutive hops
		}
	}
	return true
}

// randomHierarchy builds a random 3-tier topology for property tests.
func randomHierarchy(rng *rand.Rand) *topology.Topology {
	nT, nM, nS := 3+rng.Intn(3), 6+rng.Intn(6), 20+rng.Intn(20)
	var asns []topology.ASN
	var edges []edge
	for i := 0; i < nT+nM+nS; i++ {
		asns = append(asns, topology.ASN(100+i))
	}
	transit := asns[:nT]
	mid := asns[nT : nT+nM]
	stub := asns[nT+nM:]
	// Transit full mesh of peers.
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			edges = append(edges, edge{transit[i], transit[j], topology.RelPeer})
		}
	}
	// Mids buy from 1-2 transits; some mid-mid peering.
	for _, m := range mid {
		p := transit[rng.Intn(nT)]
		edges = append(edges, edge{p, m, topology.RelCustomer})
		if rng.Intn(2) == 0 {
			q := transit[rng.Intn(nT)]
			if q != p {
				edges = append(edges, edge{q, m, topology.RelCustomer})
			}
		}
	}
	for i := 0; i < nM/2; i++ {
		a, b := mid[rng.Intn(nM)], mid[rng.Intn(nM)]
		if a != b {
			edges = append(edges, edge{a, b, topology.RelPeer})
		}
	}
	// Stubs buy from mids (sometimes transits).
	for _, s := range stub {
		var p topology.ASN
		if rng.Intn(4) == 0 {
			p = transit[rng.Intn(nT)]
		} else {
			p = mid[rng.Intn(nM)]
		}
		edges = append(edges, edge{p, s, topology.RelCustomer})
		if rng.Intn(3) == 0 {
			q := mid[rng.Intn(nM)]
			if q != p {
				edges = append(edges, edge{q, s, topology.RelCustomer})
			}
		}
	}
	return buildTopo(asns, edges)
}

func TestValleyFreePropertyOnRandomTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		tp := randomHierarchy(rng)
		r := Compute(tp, 1, nil)
		asns := tp.ASNs()
		checked := 0
		for _, src := range asns {
			for _, dst := range asns {
				if src == dst {
					continue
				}
				p := r.Path(src, dst)
				if p == nil {
					// Everything has a provider chain to the transit
					// mesh, so full reachability is expected.
					t.Fatalf("trial %d: no route %v->%v", trial, src, dst)
				}
				if !validPath(tp, p) {
					t.Fatalf("trial %d: valley in path %v", trial, p)
				}
				if int(r.PathLen(src, dst)) != len(p)-1 {
					t.Fatalf("trial %d: PathLen %d != len(path)-1 %d", trial, r.PathLen(src, dst), len(p)-1)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no paths checked")
		}
	}
}

func TestPathEndpointsAndAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tp := randomHierarchy(rng)
	r := Compute(tp, 1, nil)
	asns := tp.ASNs()
	for _, src := range asns[:10] {
		for _, dst := range asns[len(asns)-10:] {
			if src == dst {
				continue
			}
			p := r.Path(src, dst)
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("path endpoints wrong: %v", p)
			}
			for i := 1; i < len(p); i++ {
				if tp.RelOf(p[i-1], p[i]) == topology.RelNone {
					t.Fatalf("non-adjacent hop in %v", p)
				}
			}
			// No AS loops.
			seen := map[topology.ASN]bool{}
			for _, a := range p {
				if seen[a] {
					t.Fatalf("loop in path %v", p)
				}
				seen[a] = true
			}
		}
	}
}

func BenchmarkComputeMediumTopology(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	tp := randomHierarchy(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(tp, 1, nil)
	}
}
