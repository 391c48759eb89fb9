// Package bgp computes AS-level routes over the topology using the
// standard Gao–Rexford policy model: routes learned from customers are
// preferred over routes from peers, which are preferred over routes
// from providers; ties break on AS-path length, then on lowest next-hop
// ASN (deterministic). Export rules make every path valley-free: a
// customer route is exported to everyone, while peer and provider
// routes are exported only to customers. Sibling links (same
// organization) propagate routes of any class in both directions, with
// the class preserved and the hop counted.
//
// The AS-hop distributions of Figure 1, the interconnection each NDT
// test traverses (Table 2), and the coverage sets of Figures 2–4 are
// all consequences of these routing decisions.
package bgp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"throughputlab/internal/obs"
	"throughputlab/internal/stream"
	"throughputlab/internal/topology"
)

// RouteClass orders route preference (higher is better).
type RouteClass uint8

const (
	// ClassNone means no route.
	ClassNone RouteClass = iota
	// ClassProvider is a route learned from a provider.
	ClassProvider
	// ClassPeer is a route learned from a peer.
	ClassPeer
	// ClassCustomer is a route learned from a customer (or self).
	ClassCustomer
)

// String implements fmt.Stringer.
func (c RouteClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassProvider:
		return "provider"
	case ClassPeer:
		return "peer"
	case ClassCustomer:
		return "customer"
	}
	return fmt.Sprintf("RouteClass(%d)", uint8(c))
}

const maxDist = 64

// Routes holds the computed routing trees: for every destination AS,
// the best next hop from every source AS. Two storage modes share the
// same tree computation:
//
//   - eager (Compute): every destination tree is materialized up
//     front into flat n×n tables. O(n²) memory — the right trade
//     below ~10k ASes, where the whole table is touched.
//   - lazy (ComputeLazy): only the adjacency is built up front; a
//     destination's tree is computed on first use and published via an
//     atomic pointer. NDT campaigns resolve paths toward a few dozen
//     server/client ASes, so at 50k+ ASes this replaces tens of GB of
//     tables with a handful of 450KB trees.
//
// Both modes serve reads through the same accessors and compute each
// tree with the same pure function, so they are observably identical.
type Routes struct {
	topo *topology.Topology
	idx  map[topology.ASN]int
	asns []topology.ASN

	// adjacency, grouped by how routes flow.
	neigh [][]adj

	// eager mode: per destination (first index), per source (second index):
	nextHop [][]int32 // -1 = none/self
	dist    [][]uint8
	class   [][]RouteClass

	// lazy mode: per-destination trees, CAS-published on first use.
	lazy     bool
	trees    []atomic.Pointer[routeTree]
	scratch  sync.Pool // *treeScratch
	computed atomic.Int64
}

// routeTree is one destination's routing tree in lazy mode.
type routeTree struct {
	nextHop []int32
	dist    []uint8
	class   []RouteClass
}

type adj struct {
	j   int32
	rel topology.Rel // relationship of j as seen from i
}

// newRoutes builds the index and adjacency shared by both modes.
func newRoutes(t *topology.Topology) *Routes {
	asns := t.ASNs()
	n := len(asns)
	r := &Routes{
		topo:  t,
		idx:   make(map[topology.ASN]int, n),
		asns:  asns,
		neigh: make([][]adj, n),
	}
	for i, a := range asns {
		r.idx[a] = i
	}
	for i, a := range asns {
		nbs := t.Neighbors(a)
		row := make([]adj, 0, len(nbs))
		for _, b := range nbs {
			j, ok := r.idx[b]
			if !ok {
				continue
			}
			row = append(row, adj{j: int32(j), rel: t.RelOf(a, b)})
		}
		r.neigh[i] = row
	}
	return r
}

// Compute builds routing trees for every AS in the topology, with the
// per-destination tree computation fanned out over workers (one or
// fewer runs inline). Every destination's tree is a pure function of
// the (read-only) adjacency, and each call writes only its
// destinations' rows, so the result is byte-identical for every worker
// count and scheduling. sp, when non-nil, receives one child span per
// worker goroutine.
func Compute(t *topology.Topology, workers int, sp *obs.Span) *Routes {
	r := newRoutes(t)
	n := len(r.asns)
	r.nextHop = make([][]int32, n)
	r.dist = make([][]uint8, n)
	r.class = make([][]RouteClass, n)
	// One flat backing array per table: row d is the slice [d*n, d*n+n).
	// Same bytes as n separate rows, but 3 allocations instead of 3n,
	// and destination-major locality for the sweep below.
	nhAll := make([]int32, n*n)
	distAll := make([]uint8, n*n)
	classAll := make([]RouteClass, n*n)
	for d := 0; d < n; d++ {
		r.nextHop[d] = nhAll[d*n : (d+1)*n : (d+1)*n]
		r.dist[d] = distAll[d*n : (d+1)*n : (d+1)*n]
		r.class[d] = classAll[d*n : (d+1)*n : (d+1)*n]
	}
	// Workers claim destinations in fixed-size batches; writes are
	// disjoint per destination, so the merge "order" is the array
	// layout itself.
	const batch = 16
	scratch := make([]treeScratch, max(workers, 1))
	stream.For((n+batch-1)/batch, workers, sp, func(w, b int) {
		for d := b * batch; d < min((b+1)*batch, n); d++ {
			r.computeTree(d, &scratch[w], r.nextHop[d], r.dist[d], r.class[d])
		}
	})
	return r
}

// ComputeLazy builds only the adjacency; destination trees are computed
// on demand by the accessors and cached. Safe for concurrent use: a tree
// is published with a compare-and-swap, and because computeTree is a
// pure function of the adjacency, racing computations produce identical
// trees and either winner is correct.
func ComputeLazy(t *topology.Topology) *Routes {
	r := newRoutes(t)
	r.lazy = true
	r.trees = make([]atomic.Pointer[routeTree], len(r.asns))
	r.scratch.New = func() any { return new(treeScratch) }
	return r
}

// Lazy reports whether trees are computed on demand.
func (r *Routes) Lazy() bool { return r.lazy }

// ComputedTrees returns the number of destination trees materialized so
// far: n for eager mode, the on-demand count for lazy mode.
func (r *Routes) ComputedTrees() int {
	if !r.lazy {
		return len(r.asns)
	}
	return int(r.computed.Load())
}

// rows returns destination di's next-hop/distance/class rows, computing
// and publishing the tree first in lazy mode.
func (r *Routes) rows(di int) (nh []int32, dist []uint8, class []RouteClass) {
	if !r.lazy {
		return r.nextHop[di], r.dist[di], r.class[di]
	}
	if t := r.trees[di].Load(); t != nil {
		return t.nextHop, t.dist, t.class
	}
	n := len(r.asns)
	t := &routeTree{
		nextHop: make([]int32, n),
		dist:    make([]uint8, n),
		class:   make([]RouteClass, n),
	}
	sc := r.scratch.Get().(*treeScratch)
	r.computeTree(di, sc, t.nextHop, t.dist, t.class)
	r.scratch.Put(sc)
	if r.trees[di].CompareAndSwap(nil, t) {
		r.computed.Add(1)
		return t.nextHop, t.dist, t.class
	}
	w := r.trees[di].Load() // lost the race; the winner's tree is identical
	return w.nextHop, w.dist, w.class
}

// treeScratch is the per-worker reusable state of computeTree: the BFS
// queues, the peer candidate table, and the distance buckets. Reusing
// it across destinations removes the dominant per-tree allocations.
type treeScratch struct {
	queue   []int32
	peer    []cand
	buckets [][]int32
}

// cand is a peer-route candidate (phase 2 of computeTree).
type cand struct {
	dist uint8
	nh   int32
}

// computeTree fills the routing tree for destination index d into the
// caller-supplied rows using the three-phase propagation described in
// the package comment. It is a pure function of the adjacency: it reads
// only immutable state and writes only nh/dist/class, which makes it
// safe for both the eager worker pool and the lazy on-demand path.
func (r *Routes) computeTree(d int, sc *treeScratch, nh []int32, dist []uint8, class []RouteClass) {
	n := len(r.asns)
	for i := range nh {
		nh[i] = -1
		dist[i] = maxDist
		class[i] = ClassNone
	}

	// Phase 1: customer routes. BFS from d across edges that carry an
	// announcement "upward": from a node y to x when y is x's customer
	// or sibling.
	dist[d], class[d] = 0, ClassCustomer
	queue := append(sc.queue[:0], int32(d))
	for qi := 0; qi < len(queue); qi++ {
		y := queue[qi]
		for _, a := range r.neigh[y] {
			// a.rel is the relationship of a.j as seen from y. y exports
			// its customer route to a.j when a.j is y's provider or
			// sibling; a.j then holds a customer-class route (next hop
			// y is its customer / sibling).
			if a.rel != topology.RelProvider && a.rel != topology.RelSibling {
				continue
			}
			x := a.j
			nd := dist[y] + 1
			if class[x] == ClassCustomer && dist[x] <= nd {
				if dist[x] == nd && nh[x] >= 0 && r.asns[y] < r.asns[nh[x]] {
					nh[x] = y // deterministic lowest-ASN tie-break
				}
				continue
			}
			if class[x] == ClassCustomer && dist[x] > nd || class[x] != ClassCustomer {
				class[x], dist[x], nh[x] = ClassCustomer, nd, y
				queue = append(queue, x)
			}
		}
	}

	// Phase 2: peer routes. A node x with no customer route may use a
	// direct peer y that has a customer route (or is d). Then propagate
	// peer-class routes across sibling edges.
	if cap(sc.peer) < n {
		sc.peer = make([]cand, n)
	}
	peer := sc.peer[:n]
	for i := range peer {
		peer[i] = cand{dist: maxDist, nh: -1}
	}
	for x := 0; x < n; x++ {
		for _, a := range r.neigh[x] {
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
	// Sibling relay of peer routes (bounded BFS; phase 1 is done with
	// the queue, so its backing array is reused).
	queue = queue[:0]
	for x := 0; x < n; x++ {
		if peer[x].nh >= 0 {
			queue = append(queue, int32(x))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		y := queue[qi]
		for _, a := range r.neigh[y] {
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

	// Phase 3: provider routes. Any node with a route exports it to its
	// customers and siblings. Multi-source shortest path with unit
	// edges and heterogeneous source distances: bucket BFS by distance.
	if sc.buckets == nil {
		sc.buckets = make([][]int32, maxDist+1)
	}
	buckets := sc.buckets
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for x := 0; x < n; x++ {
		if class[x] != ClassNone {
			buckets[dist[x]] = append(buckets[dist[x]], int32(x))
		}
	}
	for dcur := 0; dcur <= maxDist; dcur++ {
		for qi := 0; qi < len(buckets[dcur]); qi++ {
			y := buckets[dcur][qi]
			if int(dist[y]) != dcur {
				continue // stale entry
			}
			if dcur+1 > maxDist {
				continue
			}
			for _, a := range r.neigh[y] {
				// y exports to a.j when a.j is y's customer or sibling.
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
	sc.queue = queue[:0]
}

// NextHop returns the next AS from src toward dst. ok is false when src
// has no route (or src == dst).
func (r *Routes) NextHop(src, dst topology.ASN) (topology.ASN, bool) {
	si, ok1 := r.idx[src]
	di, ok2 := r.idx[dst]
	if !ok1 || !ok2 || si == di {
		return 0, false
	}
	row, _, _ := r.rows(di)
	nh := row[si]
	if nh < 0 {
		return 0, false
	}
	return r.asns[nh], true
}

// HasRoute reports whether src can reach dst.
func (r *Routes) HasRoute(src, dst topology.ASN) bool {
	si, ok1 := r.idx[src]
	di, ok2 := r.idx[dst]
	if !ok1 || !ok2 {
		return false
	}
	if si == di {
		return true
	}
	_, _, class := r.rows(di)
	return class[si] != ClassNone
}

// Class returns the route class at src for destination dst.
func (r *Routes) Class(src, dst topology.ASN) RouteClass {
	si, ok1 := r.idx[src]
	di, ok2 := r.idx[dst]
	if !ok1 || !ok2 {
		return ClassNone
	}
	if si == di {
		return ClassCustomer
	}
	_, _, class := r.rows(di)
	return class[si]
}

// PathLen returns the AS-path length (number of AS hops) from src to
// dst; 0 when src == dst, -1 when unreachable.
func (r *Routes) PathLen(src, dst topology.ASN) int {
	si, ok1 := r.idx[src]
	di, ok2 := r.idx[dst]
	if !ok1 || !ok2 {
		return -1
	}
	if si == di {
		return 0
	}
	_, dist, class := r.rows(di)
	if class[si] == ClassNone {
		return -1
	}
	return int(dist[si])
}

// Path returns the AS-level path from src to dst inclusive, or nil when
// unreachable. The result is exactly one allocation: PathLen's distance
// table already knows the hop count, so the walk sizes the slice up
// front and follows the next-hop rows directly instead of re-resolving
// both endpoints through NextHop at every step.
func (r *Routes) Path(src, dst topology.ASN) []topology.ASN {
	return r.AppendPath(nil, src, dst)
}

// AppendPath appends the AS-level path from src to dst inclusive to
// buf and returns the extended slice, or nil when unreachable. A nil
// buf allocates exactly once, pre-sized from the distance table.
func (r *Routes) AppendPath(buf []topology.ASN, src, dst topology.ASN) []topology.ASN {
	si, ok1 := r.idx[src]
	di, ok2 := r.idx[dst]
	if !ok1 || !ok2 {
		return nil
	}
	if si == di {
		return append(buf, src)
	}
	row, dist, class := r.rows(di)
	if class[si] == ClassNone {
		return nil
	}
	if buf == nil {
		buf = make([]topology.ASN, 0, int(dist[si])+1)
	}
	out := append(buf, src)
	for cur := si; cur != di; {
		nh := row[cur]
		if nh < 0 {
			return nil
		}
		out = append(out, r.asns[nh])
		cur = int(nh)
		if len(out) > maxDist {
			return nil // defensive: should be impossible
		}
	}
	return out
}
