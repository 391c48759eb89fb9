package alias

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"throughputlab/internal/netaddr"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
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

// refGroup is the map-and-sort.Slice grouping that Group replaced,
// kept as the reference Group must equal output for output and draw
// for draw.
func refGroup(r *Resolver, addrs []netaddr.Addr, rng *rand.Rand) [][]netaddr.Addr {
	// Partition by true router first.
	byRouter := make(map[topology.RouterID][]netaddr.Addr)
	var orphans []netaddr.Addr
	seen := map[netaddr.Addr]bool{}
	for _, a := range addrs {
		if seen[a] {
			continue
		}
		seen[a] = true
		ifc := r.topo.IfaceByAddr[a]
		if ifc == nil {
			orphans = append(orphans, a)
			continue
		}
		byRouter[ifc.Router.ID] = append(byRouter[ifc.Router.ID], a)
	}

	var groups [][]netaddr.Addr
	routerIDs := make([]topology.RouterID, 0, len(byRouter))
	for id := range byRouter {
		routerIDs = append(routerIDs, id)
	}
	sort.Slice(routerIDs, func(i, j int) bool { return routerIDs[i] < routerIDs[j] })

	for _, id := range routerIDs {
		members := byRouter[id]
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		// Probabilistically split members the probing failed to merge.
		cur := []netaddr.Addr{members[0]}
		for _, a := range members[1:] {
			if rng != nil && rng.Float64() > r.MergeProb {
				groups = append(groups, cur)
				cur = []netaddr.Addr{a}
				continue
			}
			cur = append(cur, a)
		}
		groups = append(groups, cur)
	}
	for _, a := range orphans {
		groups = append(groups, []netaddr.Addr{a})
	}

	// Rare false merges between groups in the same metro.
	if rng != nil && r.FalseMergeProb > 0 {
		metroOf := func(g []netaddr.Addr) string {
			if ifc := r.topo.IfaceByAddr[g[0]]; ifc != nil {
				return ifc.Router.Metro
			}
			return ""
		}
		for i := 0; i+1 < len(groups); i++ {
			if rng.Float64() < r.FalseMergeProb && metroOf(groups[i]) != "" &&
				metroOf(groups[i]) == metroOf(groups[i+1]) {
				groups[i] = append(groups[i], groups[i+1]...)
				groups = append(groups[:i+1], groups[i+2:]...)
			}
		}
	}

	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

// randomAddrs draws n addresses, with repeats and in no order, from
// the interfaces of a window of consecutive routers (neighbouring IDs
// share ASes and metros, so false merges have same-metro neighbours)
// plus a few addresses no interface owns.
func randomAddrs(rng *rand.Rand, n int) []netaddr.Addr {
	routers := world().Topo.Routers()
	lo := rng.Intn(len(routers) - 40)
	var pool []netaddr.Addr
	for _, rt := range routers[lo : lo+5+rng.Intn(35)] {
		for _, ifc := range rt.Ifaces {
			pool = append(pool, ifc.Addr)
		}
	}
	for k := rng.Intn(6); k > 0; k-- {
		pool = append(pool, netaddr.MustParseAddr("203.0.113.0")+netaddr.Addr(rng.Intn(16)))
	}
	out := make([]netaddr.Addr, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// TestGroupMatchesReference holds Group to refGroup on random inputs —
// duplicates, orphans, unsorted order — for a nil rng, the perfect
// resolver, the paper's regime and one that splits and falsely merges
// often. Equal next draws pin that both consumed the same stream.
func TestGroupMatchesReference(t *testing.T) {
	topo := world().Topo
	resolvers := map[string]*Resolver{
		"perfect": Perfect(topo),
		"paper":   New(topo),
		"lossy":   {topo: topo, MergeProb: 0.6, FalseMergeProb: 0.5},
	}
	gen := rand.New(rand.NewSource(1))
	for c := 0; c < 300; c++ {
		addrs := randomAddrs(gen, 1+gen.Intn(120))
		seed := gen.Int63()
		for name, r := range resolvers {
			for _, withRNG := range []bool{false, true} {
				var got, want *rand.Rand
				if withRNG {
					got, want = rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				}
				g := r.Group(append([]netaddr.Addr(nil), addrs...), got)
				w := refGroup(r, append([]netaddr.Addr(nil), addrs...), want)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("case %d %s rng=%v: Group\n%v\nrefGroup\n%v", c, name, withRNG, g, w)
				}
				if withRNG && got.Int63() != want.Int63() {
					t.Fatalf("case %d %s: Group and refGroup drew different counts", c, name)
				}
			}
		}
	}
}
