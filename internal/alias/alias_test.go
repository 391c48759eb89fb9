package alias

import (
	"math/rand"
	"sync"
	"testing"

	"throughputlab/internal/netaddr"
	"throughputlab/internal/topogen"
)

// world is the package's shared small world, generated on first use.
var world = sync.OnceValue(func() *topogen.World {
	return topogen.MustGenerate(topogen.SmallConfig())
})

// borderAddrs collects some interdomain interface addresses.
func borderAddrs(n int) []netaddr.Addr {
	var out []netaddr.Addr
	for _, l := range world().Topo.InterdomainLinks(0, 0) {
		out = append(out, l.A.Addr, l.B.Addr)
		if len(out) >= n {
			break
		}
	}
	return out
}

func TestPerfectGrouping(t *testing.T) {
	addrs := borderAddrs(200)
	groups := Perfect(world().Topo).Group(addrs, nil)
	// Perfect resolution: groups exactly match ground-truth routers.
	for _, g := range groups {
		first := world().Topo.IfaceByAddr[g[0]]
		for _, a := range g[1:] {
			ifc := world().Topo.IfaceByAddr[a]
			if ifc.Router.ID != first.Router.ID {
				t.Fatalf("group mixes routers %d and %d", first.Router.ID, ifc.Router.ID)
			}
		}
	}
	// And no router is split.
	groupOf := map[netaddr.Addr]int{}
	for gi, g := range groups {
		for _, a := range g {
			groupOf[a] = gi
		}
	}
	for i, a := range addrs {
		for _, b := range addrs[i+1:] {
			ia, ib := world().Topo.IfaceByAddr[a], world().Topo.IfaceByAddr[b]
			if ia.Router.ID == ib.Router.ID && groupOf[a] != groupOf[b] {
				t.Fatalf("same router split: %v vs %v", a, b)
			}
		}
	}
}

func TestImperfectGroupingDegradesGracefully(t *testing.T) {
	addrs := borderAddrs(300)
	r := New(world().Topo)
	rng := rand.New(rand.NewSource(1))
	groups := r.Group(addrs, rng)
	perfect := Perfect(world().Topo).Group(addrs, nil)
	// Imperfect probing splits some groups: at least as many groups.
	if len(groups) < len(perfect) {
		t.Errorf("imperfect grouping has %d groups < perfect %d", len(groups), len(perfect))
	}
	// But not catastrophically: within 40%.
	if float64(len(groups)) > 1.4*float64(len(perfect)) {
		t.Errorf("imperfect grouping exploded: %d vs perfect %d", len(groups), len(perfect))
	}
}

func TestDeterministicForSeed(t *testing.T) {
	addrs := borderAddrs(150)
	r := New(world().Topo)
	g1 := r.Group(addrs, rand.New(rand.NewSource(7)))
	g2 := r.Group(addrs, rand.New(rand.NewSource(7)))
	if len(g1) != len(g2) {
		t.Fatalf("group counts differ: %d vs %d", len(g1), len(g2))
	}
	for i := range g1 {
		if len(g1[i]) != len(g2[i]) || g1[i][0] != g2[i][0] {
			t.Fatalf("group %d differs", i)
		}
	}
}

func TestUnknownAddressesAreSingletons(t *testing.T) {
	unknown := netaddr.MustParseAddr("203.0.113.99")
	groups := Perfect(world().Topo).Group([]netaddr.Addr{unknown}, nil)
	if len(groups) != 1 || len(groups[0]) != 1 || groups[0][0] != unknown {
		t.Errorf("unknown address grouping = %v", groups)
	}
}

func TestDuplicateInputCollapsed(t *testing.T) {
	a := borderAddrs(2)[0]
	groups := Perfect(world().Topo).Group([]netaddr.Addr{a, a, a}, nil)
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != 1 {
		t.Errorf("duplicates not collapsed: %d members", total)
	}
}
