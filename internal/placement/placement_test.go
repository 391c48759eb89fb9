package placement

import (
	"sync"
	"testing"

	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// world and its candidate matrix are the package's shared fixtures,
// built on first use.
var (
	world = sync.OnceValue(func() *topogen.World {
		return topogen.MustGenerate(topogen.SmallConfig())
	})
	matrix = sync.OnceValue(func() *Matrix {
		return BuildMatrix(world(), Candidates(world()))
	})
)

func TestCandidatesExcludeAccessISPs(t *testing.T) {
	cands := Candidates(world())
	if len(cands) < 50 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for _, c := range cands {
		if world().Topo.AS(c.ASN).Type == topology.ASTypeAccess {
			t.Fatalf("access ISP %s among candidates", c.Network)
		}
		if c.Endpoint.Addr.IsZero() {
			t.Fatalf("candidate %s/%s has no address", c.Network, c.Metro)
		}
	}
}

func TestMatrixCoversSomething(t *testing.T) {
	if len(matrix().Universe) < 20 {
		t.Fatalf("universe only %d keys", len(matrix().Universe))
	}
	if len(matrix().PeerUniverse) == 0 {
		t.Fatal("no peer keys")
	}
	if len(matrix().PeerUniverse) >= len(matrix().Universe) {
		t.Error("peer universe should be a strict subset")
	}
	nonEmpty := 0
	for _, cov := range matrix().Covers {
		if len(cov) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(matrix().Cands)/2 {
		t.Errorf("only %d/%d candidates cover anything", nonEmpty, len(matrix().Cands))
	}
}

func TestGreedyMonotoneAndDiminishing(t *testing.T) {
	plan := matrix().Greedy(12, true)
	if len(plan.Chosen) == 0 {
		t.Fatal("greedy chose nothing")
	}
	prev := 0
	prevGain := 1 << 30
	for i, c := range plan.CoveredAfter {
		if c <= prev && i > 0 {
			t.Errorf("step %d added no coverage (greedy should stop instead)", i)
		}
		gain := c - prev
		if gain > prevGain {
			t.Errorf("marginal gain increased at step %d (%d > %d)", i, gain, prevGain)
		}
		prev, prevGain = c, gain
	}
	if plan.CoveredAfter[len(plan.CoveredAfter)-1] > plan.Universe {
		t.Error("covered more than the universe")
	}
}

func TestGreedyBeatsLatencyFirst(t *testing.T) {
	// The paper's point quantified: at the same server budget,
	// topology-aware placement covers more peer interconnections than
	// latency-driven placement.
	const k = 10
	greedy := matrix().Greedy(k, true)
	latency := matrix().LatencyFirst(world(), k, true)
	if len(greedy.CoveredAfter) == 0 || len(latency.CoveredAfter) == 0 {
		t.Fatal("empty plans")
	}
	g := greedy.CoveredAfter[len(greedy.CoveredAfter)-1]
	l := latency.CoveredAfter[len(latency.CoveredAfter)-1]
	if g <= l {
		t.Errorf("greedy covers %d, latency-first %d of %d; topology-awareness should win",
			g, l, greedy.Universe)
	}
	// Both strategies are well below full coverage at small k with
	// per-ISP duplication in the universe.
	if g > greedy.Universe {
		t.Error("overcount")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	p1 := matrix().Greedy(6, false)
	p2 := matrix().Greedy(6, false)
	if len(p1.Chosen) != len(p2.Chosen) {
		t.Fatal("nondeterministic plan length")
	}
	for i := range p1.Chosen {
		if p1.Chosen[i] != p2.Chosen[i] {
			t.Fatal("nondeterministic choice")
		}
	}
}

func TestGreedyStopsWhenExhausted(t *testing.T) {
	plan := matrix().Greedy(1000000, false)
	if len(plan.Chosen) >= len(matrix().Cands) {
		t.Error("greedy should stop when no candidate adds coverage")
	}
	final := plan.CoveredAfter[len(plan.CoveredAfter)-1]
	if final != plan.Universe {
		t.Errorf("unbounded greedy covered %d != universe %d", final, plan.Universe)
	}
}

func TestLatencyFirstPrefersCentralTransit(t *testing.T) {
	plan := matrix().LatencyFirst(world(), 5, false)
	for _, c := range plan.Chosen {
		if world().Topo.AS(c.ASN).Type != topology.ASTypeTransit {
			t.Errorf("latency-first picked non-transit host %s", c.Network)
		}
	}
}

func BenchmarkBuildMatrix(b *testing.B) {
	cands := Candidates(world())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildMatrix(world(), cands)
	}
}

func BenchmarkGreedy(b *testing.B) {
	m := matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Greedy(20, true)
	}
}
