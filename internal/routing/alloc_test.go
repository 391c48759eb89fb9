//go:build !race

package routing

import "testing"

// TestRouteCacheHitAllocsNothing pins that a route-cache hit returns
// the admitted leaf's path without allocating.
func TestRouteCacheHitAllocsNothing(t *testing.T) {
	n := buildTestNet(t)
	// Two misses admit the key's leaf.
	for i := 0; i < 2; i++ {
		if _, err := n.rv.Resolve(n.server, n.clientLAX, 7); err != nil {
			t.Fatal(err)
		}
	}
	before := n.rv.Stats().RouteHits
	allocs := testing.AllocsPerRun(100, func() {
		if p, err := n.rv.Resolve(n.server, n.clientLAX, 7); err != nil || len(p.Hops) == 0 {
			t.Fatalf("resolve: %v, %d hops", err, len(p.Hops))
		}
	})
	if allocs != 0 {
		t.Errorf("route-cache hit: %.1f allocs/op, want 0", allocs)
	}
	if hits := n.rv.Stats().RouteHits - before; hits != 101 {
		t.Errorf("%d route hits over 101 resolves, want every one a hit", hits)
	}
}
