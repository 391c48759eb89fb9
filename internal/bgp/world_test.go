package bgp_test

import (
	"testing"

	"throughputlab/internal/bgp"
	"throughputlab/internal/topogen"
)

// TestTreesMatchReferenceOnWorlds pins the relationship-split kernel
// to the reference kernel on generated worlds, whose access ISPs carry
// sibling ASNs and whose IXPs add dense peering: every tree of the
// small world at three seeds and of the default world agrees in next
// hop, distance and class at every source.
func TestTreesMatchReferenceOnWorlds(t *testing.T) {
	type world struct {
		scale string
		cfg   topogen.Config
		seed  int64
	}
	var worlds []world
	for _, seed := range []int64{1, 2, 1001} {
		worlds = append(worlds, world{"small", topogen.SmallConfig(), seed})
	}
	worlds = append(worlds, world{"default", topogen.DefaultConfig(), 1})
	for _, w := range worlds {
		w.cfg.Seed = w.seed
		tp := topogen.MustGenerate(w.cfg).Topo
		if err := bgp.ComputeLazy(tp).MatchesReference(); err != nil {
			t.Errorf("%s world, seed %d: %v", w.scale, w.seed, err)
		}
	}
}

// BenchmarkWorldTrees builds the default world's adjacency and computes
// every route tree through the public accessors, one first use per
// destination; ns/tree is the per-tree cost.
func BenchmarkWorldTrees(b *testing.B) {
	tp := topogen.MustGenerate(topogen.DefaultConfig()).Topo
	asns := tp.ASNs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bgp.ComputeLazy(tp)
		for _, dst := range asns {
			r.HasRoute(asns[0], dst)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(asns)), "ns/tree")
}
