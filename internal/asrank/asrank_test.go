package asrank

import (
	"sync"
	"testing"

	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// world is the package's shared small world, generated on first use.
var world = sync.OnceValue(func() *topogen.World {
	return topogen.MustGenerate(topogen.SmallConfig())
})

// collectorFeeds emulates route collectors: full tables as seen from a
// sample of vantage ASes (this is what CAIDA's AS-rank consumes).
func collectorFeeds(nVantage int) [][]topology.ASN {
	asns := world().Topo.ASNs()
	var paths [][]topology.ASN
	step := len(asns) / nVantage
	if step == 0 {
		step = 1
	}
	for vi := 0; vi < len(asns); vi += step {
		vantage := asns[vi]
		for _, origin := range asns {
			if origin == vantage {
				continue
			}
			if p := world().Routes.Path(vantage, origin); len(p) >= 2 {
				paths = append(paths, p)
			}
		}
	}
	return paths
}

func TestInferAccuracy(t *testing.T) {
	res := Infer(collectorFeeds(25), DefaultConfig())
	total, correct := 0, 0
	wrongByTruth := map[topology.Rel]int{}
	for _, e := range res.Edges() {
		truth := world().Topo.RelOf(e.A, e.B)
		if truth == topology.RelNone {
			t.Fatalf("inferred edge %d-%d not adjacent in ground truth", e.A, e.B)
		}
		total++
		if e.Rel == truth {
			correct++
		} else {
			wrongByTruth[truth]++
		}
	}
	if total < 200 {
		t.Fatalf("only %d edges classified", total)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.8 {
		t.Errorf("relationship accuracy %.3f < 0.8 (errors by truth: %v)", acc, wrongByTruth)
	}
}

func TestCustomerProviderOrientation(t *testing.T) {
	res := Infer(collectorFeeds(25), DefaultConfig())
	// Check orientation on known ground truth: stubs buy from transits.
	checked := 0
	for _, e := range res.Edges() {
		truth := world().Topo.RelOf(e.A, e.B)
		if truth != topology.RelCustomer && truth != topology.RelProvider {
			continue
		}
		if e.Rel != topology.RelCustomer && e.Rel != topology.RelProvider {
			continue
		}
		checked++
		// Rel must be consistent when queried from both sides.
		if res.Rel(e.A, e.B) != res.Rel(e.B, e.A).Invert() {
			t.Fatalf("asymmetric inference for %d-%d", e.A, e.B)
		}
	}
	if checked == 0 {
		t.Fatal("no provider-customer edges checked")
	}
}

func TestTransitMeshInferredAsPeers(t *testing.T) {
	res := Infer(collectorFeeds(25), DefaultConfig())
	// The transit full mesh: most pairwise relationships should come
	// out peer (their links sit at path peaks between high-degree
	// ASes).
	transits := []topology.ASN{3356, 3257, 174, 6453, 2828, 6461, 1299, 2914}
	peer, other := 0, 0
	for i, a := range transits {
		for _, b := range transits[i+1:] {
			switch res.Rel(a, b) {
			case topology.RelPeer:
				peer++
			case topology.RelNone:
				// not adjacent or never observed
			default:
				other++
			}
		}
	}
	if peer == 0 {
		t.Fatal("no transit-transit peerings inferred")
	}
	if frac := float64(peer) / float64(peer+other); frac < 0.7 {
		t.Errorf("only %.0f%% of observed transit-mesh edges inferred peer", 100*frac)
	}
}

func TestUnknownPairIsNone(t *testing.T) {
	res := Infer(collectorFeeds(10), DefaultConfig())
	if res.Rel(1, 2) != topology.RelNone {
		t.Error("unobserved pair should be RelNone")
	}
}

func TestDegreeOrdering(t *testing.T) {
	res := Infer(collectorFeeds(25), DefaultConfig())
	// Transits out-degree any stub.
	stubDeg := res.Degree[50001]
	if res.Degree[3356] <= stubDeg {
		t.Errorf("Level3 degree %d not above stub degree %d", res.Degree[3356], stubDeg)
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	paths := [][]topology.ASN{{1, 2, 3}, {3, 2, 1}, {4, 2, 3}}
	res := Infer(paths, Config{})
	if len(res.Edges()) == 0 {
		t.Error("zero config should default and classify something")
	}
}

func TestEmptyAndTrivialPaths(t *testing.T) {
	res := Infer([][]topology.ASN{{}, {7}, nil}, DefaultConfig())
	if len(res.Edges()) != 0 {
		t.Error("no edges should be inferred from trivial paths")
	}
}

func BenchmarkInfer(b *testing.B) {
	feeds := collectorFeeds(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer(feeds, DefaultConfig())
	}
}
