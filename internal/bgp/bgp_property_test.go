package bgp

import (
	"math/rand"
	"testing"

	"throughputlab/internal/topology"
)

// TestReachabilitySymmetry: in a Gao-Rexford world with a full transit
// peer mesh and provider chains everywhere, reachability is symmetric:
// a reaches b iff b reaches a. (Policy can break symmetry in pathological
// configurations, but not in the hierarchy randomHierarchy builds.)
func TestReachabilitySymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 8; trial++ {
		tp := randomHierarchy(rng)
		r := ComputeLazy(tp)
		asns := tp.ASNs()
		for i, a := range asns {
			for _, b := range asns[i+1:] {
				if r.HasRoute(a, b) != r.HasRoute(b, a) {
					t.Fatalf("trial %d: asymmetric reachability %v/%v", trial, a, b)
				}
			}
		}
	}
}

// TestCustomerClassImpliesDownhillPath: when the route class at src is
// Customer, every edge of the path goes provider→customer (or sibling).
func TestCustomerClassImpliesDownhillPath(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tp := randomHierarchy(rng)
	r := ComputeLazy(tp)
	checked := 0
	for _, src := range tp.ASNs() {
		for _, dst := range tp.ASNs() {
			if src == dst || r.Class(src, dst) != ClassCustomer {
				continue
			}
			p := r.Path(src, dst)
			for i := 1; i < len(p); i++ {
				rel := tp.RelOf(p[i-1], p[i])
				if rel != topology.RelCustomer && rel != topology.RelSibling {
					t.Fatalf("customer-class path %v has %v edge", p, rel)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no customer-class routes checked")
	}
}

// TestPeerClassHasExactlyOnePeerEdge: peer-class paths cross exactly
// one peer edge and it is the first non-sibling edge.
func TestPeerClassHasExactlyOnePeerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tp := randomHierarchy(rng)
	r := ComputeLazy(tp)
	checked := 0
	for _, src := range tp.ASNs() {
		for _, dst := range tp.ASNs() {
			if src == dst || r.Class(src, dst) != ClassPeer {
				continue
			}
			p := r.Path(src, dst)
			peers := 0
			for i := 1; i < len(p); i++ {
				switch tp.RelOf(p[i-1], p[i]) {
				case topology.RelPeer:
					peers++
				case topology.RelProvider:
					t.Fatalf("peer-class path %v climbs to a provider", p)
				}
			}
			if peers != 1 {
				t.Fatalf("peer-class path %v has %d peer edges", p, peers)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no peer-class routes checked")
	}
}

// TestPathLenMatchesClassDistances: PathLen equals the walked path
// length for every reachable pair (consistency of dist bookkeeping).
func TestPathLenMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tp := randomHierarchy(rng)
	r := ComputeLazy(tp)
	asns := tp.ASNs()
	for _, src := range asns[:12] {
		for _, dst := range asns {
			if src == dst {
				continue
			}
			p := r.Path(src, dst)
			if p == nil {
				continue
			}
			if r.PathLen(src, dst) != len(p)-1 {
				t.Fatalf("PathLen(%v,%v)=%d but path %v", src, dst, r.PathLen(src, dst), p)
			}
		}
	}
}

// TestSelfRoute: every AS trivially reaches itself with length 0.
func TestSelfRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tp := randomHierarchy(rng)
	r := ComputeLazy(tp)
	for _, a := range tp.ASNs() {
		if !r.HasRoute(a, a) {
			t.Fatalf("AS %v does not reach itself", a)
		}
		if r.PathLen(a, a) != 0 {
			t.Fatalf("self path length %d", r.PathLen(a, a))
		}
		if p := r.Path(a, a); len(p) != 1 || p[0] != a {
			t.Fatalf("self path %v", p)
		}
	}
}

// TestProviderConePrefersCustomerRoutes: a transit AS must reach every
// AS in its customer cone via a customer-class route (never via a peer
// or provider, which would be economically irrational).
func TestProviderConePrefersCustomerRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	tp := randomHierarchy(rng)
	r := ComputeLazy(tp)
	// Build the customer cone by downhill BFS.
	for _, root := range tp.ASNs()[:3] {
		cone := map[topology.ASN]bool{}
		queue := []topology.ASN{root}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, n := range tp.Neighbors(cur) {
				if tp.RelOf(cur, n) == topology.RelCustomer && !cone[n] {
					cone[n] = true
					queue = append(queue, n)
				}
			}
		}
		for member := range cone {
			if c := r.Class(root, member); c != ClassCustomer {
				t.Fatalf("route %v->%v (in customer cone) has class %v", root, member, c)
			}
		}
	}
}
