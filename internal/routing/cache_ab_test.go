package routing_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"

	"throughputlab/internal/platform"
	"throughputlab/internal/routing"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// pathFingerprint digests every field of a resolved path that
// downstream consumers (netsim, traceroute, ndt ground truth) read, in
// the style of the platform corpus hash: two paths fingerprint equal
// only if they are observably identical.
func pathFingerprint(rv *routing.Resolver, p *routing.Path) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "src=%d dst=%d rtt=%.9g\n", uint32(p.Src.Addr), uint32(p.Dst.Addr), rv.RTTms(p))
	for _, hop := range p.Hops {
		fmt.Fprintf(h, "h %d", hop.Router.ID)
		if hop.InLink != nil {
			fmt.Fprintf(h, " l%d", hop.InLink.ID)
		}
		if hop.Ingress != nil {
			fmt.Fprintf(h, " i%d", uint32(hop.Ingress.Addr))
		}
		fmt.Fprintln(h)
	}
	for _, l := range p.Links {
		fmt.Fprintf(h, "L %d %d\n", l.ID, l.Kind)
	}
	for _, asn := range p.ASPath {
		fmt.Fprintf(h, "a %d\n", asn)
	}
	for _, l := range p.InterdomainLinks() {
		fmt.Fprintf(h, "x %d\n", l.ID)
	}
	return h.Sum64()
}

// abEndpoints draws a deterministic sample of (src, dst, flowKey)
// resolution requests over a world: server→client and client→server
// pairs, the two shapes every NDT test and traceroute resolves.
type abCase struct {
	src, dst routing.Endpoint
	key      uint64
}

func abCases(w *topogen.World, seed int64, n int) []abCase {
	rng := rand.New(rand.NewSource(seed))
	households := platform.BuildPopulation(w, 3, seed)
	servers := w.MLabServers()
	out := make([]abCase, 0, 2*n)
	for i := 0; i < n; i++ {
		h := households[rng.Intn(len(households))]
		s := servers[rng.Intn(len(servers))]
		entropy := rng.Uint32()
		down := routing.FlowKey(s.Endpoint.Addr, h.Endpoint.Addr, entropy)
		up := routing.FlowKey(h.Endpoint.Addr, s.Endpoint.Addr, entropy)
		out = append(out,
			abCase{src: s.Endpoint, dst: h.Endpoint, key: down},
			abCase{src: h.Endpoint, dst: s.Endpoint, key: up})
	}
	return out
}

// maxParallelLinks bounds the near-tie set size of any AS crossing in
// the world: the most interdomain links realizing one AS adjacency.
func maxParallelLinks(w *topogen.World) int {
	count := map[[2]topology.ASN]int{}
	most := 1
	for _, l := range w.Topo.Links() {
		if l.Kind != topology.LinkInterdomain {
			continue
		}
		k := [2]topology.ASN{l.ASA(), l.ASB()}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		count[k]++
		most = max(most, count[k])
	}
	return most
}

// everyMember widens each case to the flow keys key, key+1, …,
// key+fan-1. Consecutive keys cover every residue modulo any set size
// up to fan, so at every crossing a case reaches, some key picks each
// near-tie member.
func everyMember(cases []abCase, fan int) []abCase {
	out := make([]abCase, 0, len(cases)*fan)
	for _, c := range cases {
		for j := 0; j < fan; j++ {
			out = append(out, abCase{src: c.src, dst: c.dst, key: c.key + uint64(j)})
		}
	}
	return out
}

// TestCachedResolverByteIdentical is the memoization layer's identity
// contract: for random worlds, endpoints, and flow keys landing on
// every member of each near-tie set, the cached resolver produces
// paths observably identical to a cache-disabled resolver. Three
// passes: the first records each route key, the second admits its
// leaves, and the third is served from admitted leaves.
func TestCachedResolverByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		cfg := topogen.SmallConfig()
		cfg.Seed = seed
		w := topogen.MustGenerate(cfg)
		cached := w.Resolver // topogen builds the caching resolver
		uncached := routing.New(w.Topo, w.Routes)
		uncached.DisableCache()

		fan := maxParallelLinks(w)
		cases := everyMember(abCases(w, seed*1000+13, 150), fan)
		// paths collects, per widened case, the distinct paths its flow
		// keys resolve onto.
		paths := make([]map[uint64]bool, len(cases)/fan)
		for i := range paths {
			paths[i] = map[uint64]bool{}
		}
		for pass := 0; pass < 3; pass++ {
			before := cached.Stats()
			for i, c := range cases {
				pc, errC := cached.Resolve(c.src, c.dst, c.key)
				pu, errU := uncached.Resolve(c.src, c.dst, c.key)
				if (errC == nil) != (errU == nil) {
					t.Fatalf("seed %d case %d: cached err=%v uncached err=%v", seed, i, errC, errU)
				}
				if errC != nil {
					continue
				}
				got, want := pathFingerprint(cached, &pc), pathFingerprint(uncached, &pu)
				if got != want {
					t.Fatalf("seed %d pass %d case %d (%d->%d key %d): cached path %#x != uncached %#x",
						seed, pass, i, c.src.Addr, c.dst.Addr, c.key, got, want)
				}
				paths[i/fan][want] = true
			}
			if st := cached.Stats(); pass == 2 && st.RouteMisses != before.RouteMisses {
				t.Errorf("seed %d: third pass missed the route cache %d times; want every case served by an admitted leaf",
					seed, st.RouteMisses-before.RouteMisses)
			}
		}
		multi := 0
		for _, ps := range paths {
			if len(ps) > 1 {
				multi++
			}
		}
		if multi == 0 {
			t.Errorf("seed %d: no case reached a multi-candidate crossing", seed)
		}
		st := cached.Stats()
		if st.RouteHits == 0 || st.SegmentHits == 0 || st.InterHits == 0 || st.ASPathHits == 0 {
			t.Errorf("seed %d: expected warm-cache hits, got %+v", seed, st)
		}
		if ust := uncached.Stats(); ust != (routing.Stats{}) {
			t.Errorf("seed %d: cache-disabled resolver recorded cache traffic: %+v", seed, ust)
		}
	}
}

// TestRouteCacheLeavesStayImmutable guards the route cache's sharing
// contract: a hit hands every caller the leaf's own Hops, Links and
// ASPath slices, so a caller that wrote to them would corrupt every
// later path on that route. After a collection (NDT tests, their
// traceroutes and netsim flows) and an Ark traceroute campaign over
// the same endpoints have been served from the cache, every admitted
// case must still resolve, as a hit, to the cache-disabled path.
func TestRouteCacheLeavesStayImmutable(t *testing.T) {
	w := topogen.MustGenerate(topogen.SmallConfig())
	uncached := routing.New(w.Topo, w.Routes)
	uncached.DisableCache()
	cases := abCases(w, 5, 100)
	want := make([]uint64, len(cases))
	for i, c := range cases {
		p, err := uncached.Resolve(c.src, c.dst, c.key)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pathFingerprint(uncached, &p)
	}
	// Two sightings admit every case's leaf.
	for pass := 0; pass < 2; pass++ {
		for _, c := range cases {
			if _, err := w.Resolver.Resolve(c.src, c.dst, c.key); err != nil {
				t.Fatal(err)
			}
		}
	}

	cfg := platform.DefaultCollect()
	cfg.Tests = 3000
	cfg.PerPoolClients = 3
	if _, err := platform.CollectParallelCtx(context.Background(), w, cfg, 2); err != nil {
		t.Fatal(err)
	}
	targets := make([]routing.Endpoint, 0, len(cases))
	for _, c := range cases {
		targets = append(targets, c.dst)
	}
	vp := w.ArkVPs[0].Host.Endpoint
	for pass := 0; pass < 2; pass++ {
		platform.Campaign(context.Background(), w, vp, targets, traceroute.DefaultArtifacts(), int64(pass))
	}

	before := w.Resolver.Stats()
	for i, c := range cases {
		p, err := w.Resolver.Resolve(c.src, c.dst, c.key)
		if err != nil {
			t.Fatal(err)
		}
		if got := pathFingerprint(w.Resolver, &p); got != want[i] {
			t.Fatalf("case %d (%d->%d key %d): served path %#x != uncached %#x; a caller mutated a shared leaf",
				i, c.src.Addr, c.dst.Addr, c.key, got, want[i])
		}
	}
	after := w.Resolver.Stats()
	if hits := after.RouteHits - before.RouteHits; hits != uint64(len(cases)) {
		t.Errorf("re-resolve: %d route hits for %d cases (%d misses); want every case a hit",
			hits, len(cases), after.RouteMisses-before.RouteMisses)
	}
}

// TestResolverConcurrentWarmup exercises cold-cache warm-up under
// concurrent Resolve calls (run with -race): many goroutines resolve
// an overlapping request set against a fresh resolver, and every
// result must match the serial uncached resolution.
func TestResolverConcurrentWarmup(t *testing.T) {
	w := topogen.MustGenerate(topogen.SmallConfig())
	fresh := routing.New(w.Topo, w.Routes)
	uncached := routing.New(w.Topo, w.Routes)
	uncached.DisableCache()

	cases := abCases(w, 99, 120)
	want := make([]uint64, len(cases))
	for i, c := range cases {
		p, err := uncached.Resolve(c.src, c.dst, c.key)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pathFingerprint(uncached, &p)
	}

	const goroutines = 8
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the cases from a different offset so
			// cold keys are hit from several goroutines at once.
			for i := range cases {
				c := cases[(i+g*17)%len(cases)]
				p, err := fresh.Resolve(c.src, c.dst, c.key)
				if err != nil {
					errs[g] = err
					return
				}
				if got := pathFingerprint(fresh, &p); got != want[(i+g*17)%len(cases)] {
					errs[g] = fmt.Errorf("goroutine %d: path fingerprint mismatch at case %d", g, (i+g*17)%len(cases))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := fresh.Stats()
	if st.SegmentMisses == 0 || st.SegmentHits == 0 {
		t.Errorf("expected both misses and hits after concurrent warm-up, got %+v", st)
	}
}
