package routing

import (
	"testing"

	"throughputlab/internal/obs"
)

// TestCoreFallbackCounted pins the resolver stats counter for coreAt's
// any-router fallback: an AS asked for a metro it has no presence in
// must be visible in Stats, not silently absorbed.
func TestCoreFallbackCounted(t *testing.T) {
	n := buildTestNet(t)
	if got := n.rv.Stats().CoreFallbacks; got != 0 {
		t.Fatalf("fresh resolver CoreFallbacks = %d, want 0", got)
	}
	r, err := n.rv.coreAt(200, "no-such-metro")
	if err != nil || r == nil {
		t.Fatalf("coreAt fallback: %v, %v", r, err)
	}
	if r.ID != n.rv.anyRouter[200].ID {
		t.Errorf("fallback router = %d, want anyRouter %d", r.ID, n.rv.anyRouter[200].ID)
	}
	if got := n.rv.Stats().CoreFallbacks; got != 1 {
		t.Errorf("CoreFallbacks after fallback = %d, want 1", got)
	}
	// A metro the AS is present in must not count.
	if _, err := n.rv.coreAt(200, "atl"); err != nil {
		t.Fatal(err)
	}
	if got := n.rv.Stats().CoreFallbacks; got != 1 {
		t.Errorf("CoreFallbacks after present-metro lookup = %d, want 1", got)
	}
}

// TestObserveRebindsStats pins the Observe contract: after rebinding
// onto a shared registry, resolver activity lands on that registry
// under the resolver.* names, Stats() reads the same counters, and the
// hop/candidate histograms fill in.
func TestObserveRebindsStats(t *testing.T) {
	n := buildTestNet(t)
	reg := obs.NewRegistry()
	n.rv.Observe(reg)
	for i := 0; i < 5; i++ {
		if _, err := n.rv.Resolve(n.server, n.clientNYC, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := n.rv.Stats()
	if st.RouteHits == 0 {
		t.Fatal("no route hits recorded after rebind")
	}
	if st.SegmentHits == 0 {
		t.Fatal("no segment hits recorded after rebind")
	}
	if got := reg.Counter("resolver.route.hits").Value(); got != st.RouteHits {
		t.Errorf("registry route hits = %d, Stats() = %d; want equal", got, st.RouteHits)
	}
	if got := reg.Counter("resolver.route.misses").Value(); got != st.RouteMisses {
		t.Errorf("registry route misses = %d, Stats() = %d; want equal", got, st.RouteMisses)
	}
	if got := reg.Counter("resolver.segment.hits").Value(); got != st.SegmentHits {
		t.Errorf("registry segment hits = %d, Stats() = %d; want equal", got, st.SegmentHits)
	}
	if got := reg.Counter("resolver.segment.misses").Value(); got != st.SegmentMisses {
		t.Errorf("registry segment misses = %d, Stats() = %d; want equal", got, st.SegmentMisses)
	}
	if h := reg.Histogram("resolver.resolve.hops", nil); h.Count() != 5 {
		t.Errorf("hop histogram count = %d, want 5", h.Count())
	}
	if h := reg.Histogram("resolver.inter.candidates", nil); h.Count() == 0 {
		t.Error("candidate-set histogram empty after resolves")
	}
	// Observe(nil) is a no-op, not a detach.
	n.rv.Observe(nil)
	if _, err := n.rv.Resolve(n.server, n.clientNYC, 99); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("resolver.route.hits").Value(); got != n.rv.Stats().RouteHits {
		t.Error("Observe(nil) detached the registry; want no-op")
	}
}

// TestSegmentCacheReused verifies that repeated resolution of one pair
// is served from the route cache once admitted, and that the route
// cache's misses reuse the intra-AS segment, interdomain choice and
// AS path from theirs.
func TestSegmentCacheReused(t *testing.T) {
	n := buildTestNet(t)
	for i := 0; i < 5; i++ {
		if _, err := n.rv.Resolve(n.server, n.clientNYC, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := n.rv.Stats()
	if st.RouteHits == 0 {
		t.Errorf("no route cache hits after repeated resolves: %+v", st)
	}
	if st.SegmentHits == 0 {
		t.Errorf("no segment cache hits after repeated resolves: %+v", st)
	}
	if st.InterHits == 0 {
		t.Errorf("no interdomain cache hits after repeated resolves: %+v", st)
	}
	if st.ASPathHits == 0 {
		t.Errorf("no AS-path cache hits after repeated resolves: %+v", st)
	}
}
