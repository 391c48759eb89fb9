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
//
// A destination's tree is computed in three phases (customer routes
// climbing to providers and siblings, peer routes one peer edge across
// then relayed over siblings, provider routes descending to customers
// and siblings), each over its own adjacency list: the relationships
// are split once, when the routes are built, into flat per-phase lists,
// so no phase reads an edge it would skip. Phase 2 visits only the ASes
// that have peers and phase 3 queues only the ASes that export
// downhill; the stubs that make up most of the topology receive routes
// but forward none.
package bgp

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// Routes holds the routing trees: for every destination AS, the best
// next hop from every source AS. Only the adjacency is built up front;
// a destination's tree is computed once, on first use, and published
// via an atomic pointer. NDT campaigns resolve paths toward a few dozen
// server/client ASes, so a report reads a handful of trees, and at 50k+
// ASes this replaces tens of GB of n×n tables with a handful of 450KB
// trees; the experiments' traceroute sweeps compute the rest as they
// read them.
type Routes struct {
	topo *topology.Topology
	idx  map[topology.ASN]int
	asns []topology.ASN

	// The adjacency, split by the phase of computeTree that reads it;
	// each list keeps Neighbors' ASN order. up holds every AS's
	// providers and siblings (phase 1), peer its peers (phase 2), sib
	// its siblings (phase 2's relay) and down its customers and
	// siblings (phase 3). peerASes and downASes are the indices whose
	// peer and down lists are non-empty, ascending.
	up, peer, sib, down csr
	peerASes, downASes  []int32

	// emptyNH and emptyDist are a tree's rows before computeTree runs:
	// every next hop -1, every distance maxDist.
	emptyNH   []int32
	emptyDist []uint8

	// per-destination trees, published on first use; a destination's
	// lock makes racing first uses wait for one computation.
	trees    []atomic.Pointer[routeTree]
	locks    []sync.Mutex
	scratch  sync.Pool // *treeScratch
	computed atomic.Int64
}

// routeTree is one destination's routing tree.
type routeTree struct {
	nextHop []int32
	dist    []uint8
	class   []RouteClass
}

// csr is one adjacency list per AS in compressed sparse rows: AS i's
// targets are to[off[i]:off[i+1]].
type csr struct {
	off []int32
	to  []int32
}

func (c *csr) row(i int32) []int32 { return c.to[c.off[i]:c.off[i+1]] }

// add appends j to the row being built.
func (c *csr) add(j int) { c.to = append(c.to, int32(j)) }

// endRow closes row i: the targets added since row i-1 closed are its.
func (c *csr) endRow(i int) { c.off[i+1] = int32(len(c.to)) }

// newRoutes builds the index and adjacency.
func newRoutes(t *topology.Topology) *Routes {
	asns := t.ASNs()
	n := len(asns)
	r := &Routes{
		topo:      t,
		idx:       make(map[topology.ASN]int, n),
		asns:      asns,
		emptyNH:   make([]int32, n),
		emptyDist: make([]uint8, n),
	}
	for i, a := range asns {
		r.idx[a] = i
		r.emptyNH[i] = -1
		r.emptyDist[i] = maxDist
	}
	lists := []*csr{&r.up, &r.peer, &r.sib, &r.down}
	for _, c := range lists {
		c.off = make([]int32, n+1)
	}
	for i, a := range asns {
		for _, b := range t.Neighbors(a) {
			j, ok := r.idx[b]
			if !ok {
				continue
			}
			// The relationship of b as seen from a.
			switch t.RelOf(a, b) {
			case topology.RelProvider:
				r.up.add(j)
			case topology.RelCustomer:
				r.down.add(j)
			case topology.RelPeer:
				r.peer.add(j)
			case topology.RelSibling:
				r.up.add(j)
				r.sib.add(j)
				r.down.add(j)
			}
		}
		for _, c := range lists {
			c.endRow(i)
		}
		if len(r.peer.row(int32(i))) > 0 {
			r.peerASes = append(r.peerASes, int32(i))
		}
		if len(r.down.row(int32(i))) > 0 {
			r.downASes = append(r.downASes, int32(i))
		}
	}
	return r
}

// ComputeLazy builds only the adjacency; destination trees are computed
// on demand by the accessors and cached. Safe for concurrent use: the
// first reader of a destination computes its tree under that
// destination's lock, and readers racing it wait for the result instead
// of computing it again (the experiments' sweeps walk the same targets
// on every worker). Trees already published are read without locking.
func ComputeLazy(t *topology.Topology) *Routes {
	r := newRoutes(t)
	r.trees = make([]atomic.Pointer[routeTree], len(r.asns))
	r.locks = make([]sync.Mutex, len(r.asns))
	r.scratch.New = func() any { return new(treeScratch) }
	return r
}

// ComputedTrees returns the number of destination trees materialized so
// far.
func (r *Routes) ComputedTrees() int { return int(r.computed.Load()) }

// rows returns destination di's next-hop/distance/class rows, computing
// and publishing the tree on first use.
func (r *Routes) rows(di int) (nh []int32, dist []uint8, class []RouteClass) {
	if t := r.trees[di].Load(); t != nil {
		return t.nextHop, t.dist, t.class
	}
	r.locks[di].Lock()
	defer r.locks[di].Unlock()
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
	r.trees[di].Store(t)
	r.computed.Add(1)
	return t.nextHop, t.dist, t.class
}

// treeScratch is the per-worker reusable state of computeTree: the BFS
// queues, the peer candidate table, and the distance buckets. Reusing
// it across destinations removes the dominant per-tree allocations.
// Between calls every peer entry is empty (noCand).
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

// noCand is an empty peer-route candidate.
var noCand = cand{dist: maxDist, nh: -1}

// computeTree fills the routing tree for destination index d into the
// caller-supplied rows using the three-phase propagation described in
// the package comment. It is a pure function of the adjacency: it reads
// only immutable state and writes only nh/dist/class (and sc), which
// makes it safe to run for many destinations at once. Each phase walks
// only the edges that can carry its routes, in Neighbors' order, so
// ties resolve exactly as a walk over every edge would resolve them.
func (r *Routes) computeTree(d int, sc *treeScratch, nh []int32, dist []uint8, class []RouteClass) {
	n := len(r.asns)
	copy(nh, r.emptyNH)
	copy(dist, r.emptyDist)
	clear(class)

	// Phase 1: customer routes. BFS from d across edges that carry an
	// announcement "upward": y exports its customer route to x when x
	// is y's provider or sibling; x then holds a customer-class route
	// (next hop y is its customer / sibling).
	dist[d], class[d] = 0, ClassCustomer
	queue := append(sc.queue[:0], int32(d))
	for qi := 0; qi < len(queue); qi++ {
		y := queue[qi]
		nd := dist[y] + 1
		for _, x := range r.up.row(y) {
			if class[x] == ClassCustomer && dist[x] <= nd {
				if dist[x] == nd && nh[x] >= 0 && r.asns[y] < r.asns[nh[x]] {
					nh[x] = y // deterministic lowest-ASN tie-break
				}
				continue
			}
			class[x], dist[x], nh[x] = ClassCustomer, nd, y
			queue = append(queue, x)
		}
	}

	// Phase 2: peer routes. A node x with no customer route may use a
	// direct peer y that has a customer route (or is d). Then propagate
	// peer-class routes across sibling edges.
	if len(sc.peer) < n {
		sc.peer = make([]cand, n)
		for i := range sc.peer {
			sc.peer[i] = noCand
		}
	}
	peer := sc.peer
	queue = queue[:0]
	for _, x := range r.peerASes {
		for _, y := range r.peer.row(x) {
			if class[y] != ClassCustomer {
				continue
			}
			nd := dist[y] + 1
			if nd < peer[x].dist || (nd == peer[x].dist && peer[x].nh >= 0 && r.asns[y] < r.asns[peer[x].nh]) {
				peer[x] = cand{dist: nd, nh: y}
			}
		}
		if peer[x].nh >= 0 {
			queue = append(queue, x)
		}
	}
	// Sibling relay of peer routes (bounded BFS; phase 1 is done with
	// the queue, so its backing array is reused). Every AS holding a
	// candidate is on the queue afterwards.
	for qi := 0; qi < len(queue); qi++ {
		y := queue[qi]
		nd := peer[y].dist + 1
		for _, x := range r.sib.row(y) {
			if nd < peer[x].dist {
				peer[x] = cand{dist: nd, nh: y}
				queue = append(queue, x)
			}
		}
	}
	// Adopt the candidates and empty the scratch for the next tree.
	for _, x := range queue {
		if peer[x].nh < 0 {
			continue // a duplicate queue entry, already adopted
		}
		if class[x] != ClassCustomer {
			class[x], dist[x], nh[x] = ClassPeer, peer[x].dist, peer[x].nh
		}
		peer[x] = noCand
	}

	// Phase 3: provider routes. Any node with a route exports it to its
	// customers and siblings. Multi-source shortest path with unit
	// edges and heterogeneous source distances: bucket BFS by distance.
	// Only ASes with customers or siblings export, so only they are
	// queued.
	if sc.buckets == nil {
		sc.buckets = make([][]int32, maxDist+1)
	}
	buckets := sc.buckets
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for _, x := range r.downASes {
		if class[x] != ClassNone {
			buckets[dist[x]] = append(buckets[dist[x]], x)
		}
	}
	for dcur := 0; dcur < maxDist; dcur++ {
		nd := uint8(dcur + 1)
		for qi := 0; qi < len(buckets[dcur]); qi++ {
			y := buckets[dcur][qi]
			if int(dist[y]) != dcur {
				continue // stale entry
			}
			for _, x := range r.down.row(y) {
				switch {
				case class[x] == ClassCustomer || class[x] == ClassPeer:
					// a customer or peer route is preferred
				case class[x] == ClassNone || dist[x] > nd:
					class[x], dist[x], nh[x] = ClassProvider, nd, y
					if r.down.off[x+1] > r.down.off[x] {
						buckets[nd] = append(buckets[nd], x)
					}
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
