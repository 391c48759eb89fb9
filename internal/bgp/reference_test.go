package bgp

import (
	"fmt"
	"math/rand"
	"testing"

	"throughputlab/internal/topology"
)

// refAdj is one edge of the reference adjacency: every neighbor of an
// AS with its relationship, in Neighbors' order.
type refAdj struct {
	j   int32
	rel topology.Rel // relationship of j as seen from i
}

// refNeighbors builds the reference adjacency over r's AS index.
func refNeighbors(r *Routes) [][]refAdj {
	neigh := make([][]refAdj, len(r.asns))
	for i, a := range r.asns {
		for _, b := range r.topo.Neighbors(a) {
			if j, ok := r.idx[b]; ok {
				neigh[i] = append(neigh[i], refAdj{j: int32(j), rel: r.topo.RelOf(a, b)})
			}
		}
	}
	return neigh
}

// refComputeTree is the three-phase kernel as first written: every
// phase walks every edge of the adjacency and filters it by
// relationship, and every AS is scanned for peers, queued for phase 3
// and reset. computeTree must fill exactly these rows.
func refComputeTree(r *Routes, neigh [][]refAdj, d int) (nh []int32, dist []uint8, class []RouteClass) {
	n := len(r.asns)
	nh, dist, class = make([]int32, n), make([]uint8, n), make([]RouteClass, n)
	for i := range nh {
		nh[i] = -1
		dist[i] = maxDist
		class[i] = ClassNone
	}

	// Phase 1: customer routes.
	dist[d], class[d] = 0, ClassCustomer
	queue := []int32{int32(d)}
	for qi := 0; qi < len(queue); qi++ {
		y := queue[qi]
		for _, a := range neigh[y] {
			if a.rel != topology.RelProvider && a.rel != topology.RelSibling {
				continue
			}
			x := a.j
			nd := dist[y] + 1
			if class[x] == ClassCustomer && dist[x] <= nd {
				if dist[x] == nd && nh[x] >= 0 && r.asns[y] < r.asns[nh[x]] {
					nh[x] = y
				}
				continue
			}
			if class[x] == ClassCustomer && dist[x] > nd || class[x] != ClassCustomer {
				class[x], dist[x], nh[x] = ClassCustomer, nd, y
				queue = append(queue, x)
			}
		}
	}

	// Phase 2: peer routes, then the sibling relay.
	peer := make([]cand, n)
	for i := range peer {
		peer[i] = cand{dist: maxDist, nh: -1}
	}
	for x := 0; x < n; x++ {
		for _, a := range neigh[x] {
			if a.rel != topology.RelPeer {
				continue
			}
			y := a.j
			if class[y] != ClassCustomer {
				continue
			}
			nd := dist[y] + 1
			if nd < peer[x].dist || (nd == peer[x].dist && peer[x].nh >= 0 && r.asns[y] < r.asns[peer[x].nh]) {
				peer[x] = cand{dist: nd, nh: y}
			}
		}
	}
	queue = queue[:0]
	for x := 0; x < n; x++ {
		if peer[x].nh >= 0 {
			queue = append(queue, int32(x))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		y := queue[qi]
		for _, a := range neigh[y] {
			if a.rel != topology.RelSibling {
				continue
			}
			x := a.j
			nd := peer[y].dist + 1
			if nd < peer[x].dist {
				peer[x] = cand{dist: nd, nh: y}
				queue = append(queue, x)
			}
		}
	}
	for x := 0; x < n; x++ {
		if class[x] == ClassCustomer {
			continue
		}
		if peer[x].nh >= 0 {
			class[x], dist[x], nh[x] = ClassPeer, peer[x].dist, peer[x].nh
		}
	}

	// Phase 3: provider routes, bucket BFS by distance.
	buckets := make([][]int32, maxDist+1)
	for x := 0; x < n; x++ {
		if class[x] != ClassNone {
			buckets[dist[x]] = append(buckets[dist[x]], int32(x))
		}
	}
	for dcur := 0; dcur <= maxDist; dcur++ {
		for qi := 0; qi < len(buckets[dcur]); qi++ {
			y := buckets[dcur][qi]
			if int(dist[y]) != dcur {
				continue
			}
			if dcur+1 > maxDist {
				continue
			}
			for _, a := range neigh[y] {
				if a.rel != topology.RelCustomer && a.rel != topology.RelSibling {
					continue
				}
				x := a.j
				if class[x] == ClassCustomer || class[x] == ClassPeer {
					continue
				}
				nd := uint8(dcur + 1)
				switch {
				case class[x] == ClassNone || dist[x] > nd:
					class[x], dist[x], nh[x] = ClassProvider, nd, y
					buckets[nd] = append(buckets[nd], x)
				case dist[x] == nd && nh[x] >= 0 && r.asns[y] < r.asns[nh[x]]:
					nh[x] = y
				}
			}
		}
	}

	nh[d] = -1
	class[d] = ClassCustomer
	return nh, dist, class
}

// MatchesReference computes every destination's tree in index order,
// through the accessors' path, and returns an error naming the first
// source whose next hop, distance or class differs from
// refComputeTree's.
func (r *Routes) MatchesReference() error {
	neigh := refNeighbors(r)
	for d := range r.asns {
		gotNH, gotDist, gotClass := r.rows(d)
		nh, dist, class := refComputeTree(r, neigh, d)
		for s := range r.asns {
			if gotNH[s] != nh[s] || gotDist[s] != dist[s] || gotClass[s] != class[s] {
				return fmt.Errorf("tree of AS %v at AS %v: next hop %d, dist %d, class %v; reference %d, %d, %v",
					r.asns[d], r.asns[s], gotNH[s], gotDist[s], gotClass[s], nh[s], dist[s], class[s])
			}
		}
	}
	return nil
}

// withSiblings adds up to k sibling edges between random ASes of tp
// that are not yet adjacent, so the sibling relay and the sibling
// edges of phases 1 and 3 carry routes.
func withSiblings(rng *rand.Rand, tp *topology.Topology, k int) *topology.Topology {
	asns := tp.ASNs()
	for i := 0; i < k; i++ {
		a, b := asns[rng.Intn(len(asns))], asns[rng.Intn(len(asns))]
		if a != b && tp.RelOf(a, b) == topology.RelNone {
			tp.SetRel(a, b, topology.RelSibling)
		}
	}
	return tp
}

// TestTreesMatchReference pins the relationship-split kernel to the
// reference kernel: on random hierarchies with peers and siblings, every
// tree agrees in next hop, distance and class at every source.
func TestTreesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		tp := withSiblings(rng, randomHierarchy(rng), 2*(trial%8))
		if err := ComputeLazy(tp).MatchesReference(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestTreesMatchReferenceOnEdgeCases covers the shapes random
// hierarchies rarely reach: unreachable islands, sibling chains that
// relay peer routes several hops, and peers of a lone AS.
func TestTreesMatchReferenceOnEdgeCases(t *testing.T) {
	for name, tp := range map[string]*topology.Topology{
		"reference": refTopo(),
		"islands": buildTopo([]topology.ASN{1, 2, 3, 4, 5}, []edge{
			{1, 2, topology.RelCustomer}, {4, 5, topology.RelPeer},
		}),
		"sibling-chain": buildTopo([]topology.ASN{1, 2, 3, 4, 5, 6, 7}, []edge{
			{1, 2, topology.RelPeer}, {2, 3, topology.RelSibling}, {3, 4, topology.RelSibling},
			{4, 5, topology.RelSibling}, {5, 6, topology.RelCustomer}, {1, 7, topology.RelCustomer},
			{6, 7, topology.RelPeer},
		}),
		"lone-peers": buildTopo([]topology.ASN{1, 2, 3}, []edge{
			{1, 2, topology.RelPeer}, {1, 3, topology.RelPeer},
		}),
	} {
		if err := ComputeLazy(tp).MatchesReference(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
