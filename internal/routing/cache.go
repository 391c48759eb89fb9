package routing

import (
	"sync"

	"throughputlab/internal/obs"
	"throughputlab/internal/topology"
)

// The resolver's memoization layer. Every simulated NDT test resolves
// two router-level paths and every Paris traceroute one more, but the
// inputs repeat heavily — a campaign draws from a fixed set of
// (server, client-pool) pairs, and a medium campaign's ~330k resolves
// cover under a thousand distinct paths — so Resolve is a pure
// function of small keys over an immutable topology. Four memo layers
// sit in front of the compute path:
//
//   - the route cache: whole resolved paths, keyed by everything a path
//     depends on except the flow key (both attachment routers and
//     access lines, both ASNs and the destination metro);
//   - the intra-AS segment walked between an entry and an exit router;
//   - the scored near-tie set of interdomain links for one
//     (fromAS, toAS, current metro, destination metro) crossing;
//   - the AS-level path between two ASes.
//
// The last three are the route cache's miss path, so their counters
// count only route-cache misses.
//
// A route key holds one leaf per distinct path seen under it. A path
// differs from flow to flow only in which near-tie member the flow
// hash picks at each AS crossing, so a leaf records, per crossing with
// more than one candidate, the set size n and the chosen index c. The
// hit rule: a leaf serves every flow key with flowKey % n == c at each
// of its crossings. It is exact: two leaves of one key share their
// crossings (and so their sets) up to their first differing choice,
// where no flow key can match both, so at most one leaf serves a key.
//
// Admission: a key's first miss records only the key's 64-bit hash, in
// a per-shard set that holds no pointers, and leaves are stored from
// its second miss on. Campaign paths repeat hundreds of times, but the
// §5 per-prefix Ark surveys resolve most of their keys exactly once,
// and storing those (or their keys, whose pointers the collector
// scans) would only grow the heap. Two keys whose hashes collide only
// admit each other's leaves a miss early; what a leaf serves is still
// decided by its full key. An admitted leaf keeps the miss's own
// slices, which compute allocates at exact length, so no caller can
// append into them.
//
// Each layer is a sharded map guarded by an RWMutex. Values are built
// once, never mutated afterwards, and shared by reference; because the
// computation is deterministic, two workers racing on a cold key
// compute identical values and the first store wins (a racing
// duplicate leaf is dropped). Route leaves are published
// copy-on-append, so a reader scans a key's leaves without holding the
// lock. A hit returns the Path by value over the leaf's slices, so it
// allocates nothing. This keeps cached resolution byte-identical to
// uncached resolution (asserted by TestCachedResolverByteIdentical) and safe
// under CollectStreamCtx's stream.For workers (asserted under -race by
// TestResolverConcurrentWarmup).

// cacheShards bounds lock contention during warm-up; hit paths take
// only an RLock.
const cacheShards = 64

// segKey identifies one intra-AS segment: the walk is a pure function
// of the (entry, exit) router pair.
type segKey struct {
	from, to topology.RouterID
}

// interKey identifies one interdomain link choice set. Metros are
// matrix indices, not strings, so hashing the key is cheap.
type interKey struct {
	from, to           topology.ASN
	curMetro, dstMetro int32
}

type segShard struct {
	mu sync.RWMutex
	m  map[segKey][]Hop
}

type interShard struct {
	mu sync.RWMutex
	m  map[interKey][]*topology.Link
}

type asPathShard struct {
	mu sync.RWMutex
	m  map[[2]topology.ASN][]topology.ASN
}

// routeKey identifies every input of a resolved path but the flow key.
type routeKey struct {
	srcRouter, dstRouter topology.RouterID
	srcLine, dstLine     *topology.Link
	srcAS, dstAS         topology.ASN
	dstMetro             string
}

func routeKeyOf(src, dst Endpoint) routeKey {
	return routeKey{
		srcRouter: src.Router, dstRouter: dst.Router,
		srcLine: src.AccessLine, dstLine: dst.AccessLine,
		srcAS: src.ASN, dstAS: dst.ASN,
		dstMetro: dst.Metro,
	}
}

func (k routeKey) shard() int {
	return (int(k.srcRouter)*131 + int(k.dstRouter)*31 + int(k.dstAS)) & (cacheShards - 1)
}

// hash digests every field of the key, access lines by link ID, with
// FNV-1a (as FlowKey does).
func (k routeKey) hash() uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(v >> (8 * i)))
		}
	}
	line := func(l *topology.Link) uint64 {
		if l == nil {
			return 0
		}
		return uint64(l.ID) + 1
	}
	word(uint64(k.srcRouter))
	word(uint64(k.dstRouter))
	word(line(k.srcLine))
	word(line(k.dstLine))
	word(uint64(k.srcAS))
	word(uint64(k.dstAS))
	for i := 0; i < len(k.dstMetro); i++ {
		mix(k.dstMetro[i])
	}
	return h
}

// routePick is one AS crossing with n > 1 near-tie candidates, of which
// the path took member c.
type routePick struct {
	n, c uint32
}

// routeLeaf is one resolved path under a route key. Its slices are
// exact-length and shared by every Path the leaf serves.
type routeLeaf struct {
	hops   []Hop
	links  []*topology.Link
	asPath []topology.ASN
	picks  []routePick
}

// serves reports whether the flow key picks this leaf's member at
// every multi-candidate crossing.
func (l *routeLeaf) serves(flowKey uint64) bool {
	for _, p := range l.picks {
		if flowKey%uint64(p.n) != uint64(p.c) {
			return false
		}
	}
	return true
}

// routeShard maps an admitted route key to its leaves; seen holds the
// hashes of keys that have missed once.
type routeShard struct {
	mu   sync.RWMutex
	m    map[routeKey][]routeLeaf
	seen map[uint64]struct{}
}

type resolverCache struct {
	route  [cacheShards]routeShard
	seg    [cacheShards]segShard
	inter  [cacheShards]interShard
	asPath [cacheShards]asPathShard
}

func newResolverCache() *resolverCache {
	c := &resolverCache{}
	for i := 0; i < cacheShards; i++ {
		c.route[i].m = make(map[routeKey][]routeLeaf)
		c.route[i].seen = make(map[uint64]struct{})
		c.seg[i].m = make(map[segKey][]Hop)
		c.inter[i].m = make(map[interKey][]*topology.Link)
		c.asPath[i].m = make(map[[2]topology.ASN][]topology.ASN)
	}
	return c
}

func (k segKey) shard() int {
	return (int(k.from)*31 + int(k.to)) & (cacheShards - 1)
}

func (k interKey) shard() int {
	return (int(k.from)*131 + int(k.to)*31 + int(k.curMetro)*7 + int(k.dstMetro)) & (cacheShards - 1)
}

func asPathShardOf(k [2]topology.ASN) int {
	return (int(k[0])*31 + int(k[1])) & (cacheShards - 1)
}

// Stats is a snapshot of the resolver's cache and fallback counters.
// Hits and misses count lookups while caching is enabled; miss counts
// can exceed the number of distinct keys when workers race on a cold
// key (both compute, either store). Segment, inter and AS-path lookups
// happen only on a route-cache miss. CoreFallbacks counts coreAt calls
// that found no router in the requested metro and fell back to the
// AS's deterministic any-router — a nonzero value on a generated
// topology usually means a topology bug that metro-keyed cache entries
// would otherwise silently absorb.
type Stats struct {
	RouteHits, RouteMisses     uint64
	SegmentHits, SegmentMisses uint64
	InterHits, InterMisses     uint64
	ASPathHits, ASPathMisses   uint64
	CoreFallbacks              uint64
}

// resolverCounters holds the resolver's obs handles. They are bound to
// a private registry by New so Stats always works, and rebound onto a
// shared registry by Observe when the pipeline is instrumented.
type resolverCounters struct {
	routeHits, routeMisses   *obs.Counter
	segHits, segMisses       *obs.Counter
	interHits, interMisses   *obs.Counter
	asPathHits, asPathMisses *obs.Counter
	coreFallbacks            *obs.Counter
	// resolveHops is the router-hop-count distribution over resolved
	// paths; interCandidates is the near-tie set size distribution over
	// distinct interdomain crossings (recorded on the compute path, so
	// it describes the key space rather than the traffic mix).
	resolveHops     *obs.Histogram
	interCandidates *obs.Histogram
}

// bindObs (re)creates the resolver's metric handles on the given
// registry.
func (rv *Resolver) bindObs(reg *obs.Registry) {
	rv.counters = resolverCounters{
		routeHits:       reg.Counter("resolver.route.hits"),
		routeMisses:     reg.Counter("resolver.route.misses"),
		segHits:         reg.Counter("resolver.segment.hits"),
		segMisses:       reg.Counter("resolver.segment.misses"),
		interHits:       reg.Counter("resolver.inter.hits"),
		interMisses:     reg.Counter("resolver.inter.misses"),
		asPathHits:      reg.Counter("resolver.aspath.hits"),
		asPathMisses:    reg.Counter("resolver.aspath.misses"),
		coreFallbacks:   reg.Counter("resolver.core.fallbacks"),
		resolveHops:     reg.Histogram("resolver.resolve.hops", obs.Bounds(2, 4, 6, 8, 12, 16, 24)),
		interCandidates: reg.Histogram("resolver.inter.candidates", obs.Bounds(1, 2, 3, 4, 6, 8)),
	}
}

// Observe rebinds the resolver's counters and histograms onto the given
// registry, so an instrumented run reports them alongside the rest of
// the pipeline. Counters restart from the registry's current values
// (zero on a fresh registry). Like DisableCache, Observe must be called
// before the resolver is shared across goroutines; at most one resolver
// should observe a given registry (names would collide otherwise).
func (rv *Resolver) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	rv.bindObs(reg)
}

// Stats returns a snapshot of the resolver's counters.
func (rv *Resolver) Stats() Stats {
	return Stats{
		RouteHits:     rv.counters.routeHits.Value(),
		RouteMisses:   rv.counters.routeMisses.Value(),
		SegmentHits:   rv.counters.segHits.Value(),
		SegmentMisses: rv.counters.segMisses.Value(),
		InterHits:     rv.counters.interHits.Value(),
		InterMisses:   rv.counters.interMisses.Value(),
		ASPathHits:    rv.counters.asPathHits.Value(),
		ASPathMisses:  rv.counters.asPathMisses.Value(),
		CoreFallbacks: rv.counters.coreFallbacks.Value(),
	}
}

// lookupRoute returns the leaf that serves flowKey under k, or nil.
func (c *resolverCache) lookupRoute(k routeKey, flowKey uint64) *routeLeaf {
	sh := &c.route[k.shard()]
	sh.mu.RLock()
	leaves := sh.m[k]
	sh.mu.RUnlock()
	// Published leaf slices are never written again, so the scan needs
	// no lock.
	for i := range leaves {
		if leaves[i].serves(flowKey) {
			return &leaves[i]
		}
	}
	return nil
}

// storeRoute records a computed path under k: on the key's first miss
// only the key's hash, afterwards a leaf that keeps the path's own
// slices and picks. A leaf that already serves flowKey (a racing
// duplicate) is kept instead.
func (c *resolverCache) storeRoute(k routeKey, flowKey uint64, p *Path, picks []routePick) {
	sh := &c.route[k.shard()]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	leaves, admitted := sh.m[k]
	if !admitted {
		h := k.hash()
		if _, seen := sh.seen[h]; !seen {
			sh.seen[h] = struct{}{}
			return
		}
	}
	for i := range leaves {
		if leaves[i].serves(flowKey) {
			return
		}
	}
	next := make([]routeLeaf, len(leaves), len(leaves)+1)
	copy(next, leaves)
	sh.m[k] = append(next, routeLeaf{hops: p.Hops, links: p.Links, asPath: p.ASPath, picks: picks})
}

// segment returns the hop sequence appended when walking from router
// from to router to inside one AS (excluding the starting router, whose
// hop is already on the path). The returned slice is shared and must
// not be mutated.
func (rv *Resolver) segment(from, to *topology.Router) ([]Hop, error) {
	if rv.noCache {
		return rv.computeSegment(from, to)
	}
	k := segKey{from: from.ID, to: to.ID}
	sh := &rv.cache.seg[k.shard()]
	sh.mu.RLock()
	steps, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		rv.counters.segHits.Add(1)
		return steps, nil
	}
	rv.counters.segMisses.Add(1)
	steps, err := rv.computeSegment(from, to)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	if prior, ok := sh.m[k]; ok {
		steps = prior // keep the first stored value so sharing is stable
	} else {
		sh.m[k] = steps
	}
	sh.mu.Unlock()
	return steps, nil
}

// interChoices returns the sorted near-tie set of interdomain links for
// one AS crossing. The returned slice is shared and must not be
// mutated; the caller picks one member by flow hash.
func (rv *Resolver) interChoices(k interKey) ([]*topology.Link, error) {
	if rv.noCache {
		return rv.computeInterChoices(k)
	}
	sh := &rv.cache.inter[k.shard()]
	sh.mu.RLock()
	eq, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		rv.counters.interHits.Add(1)
		return eq, nil
	}
	rv.counters.interMisses.Add(1)
	eq, err := rv.computeInterChoices(k)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	if prior, ok := sh.m[k]; ok {
		eq = prior
	} else {
		sh.m[k] = eq
	}
	sh.mu.Unlock()
	return eq, nil
}

// asPath returns the AS-level path from src to dst (nil when
// unreachable). The returned slice is shared across every Path that
// carries it and must not be mutated.
func (rv *Resolver) asPath(src, dst topology.ASN) []topology.ASN {
	if rv.noCache {
		return rv.routes.Path(src, dst)
	}
	k := [2]topology.ASN{src, dst}
	sh := &rv.cache.asPath[asPathShardOf(k)]
	sh.mu.RLock()
	p, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		rv.counters.asPathHits.Add(1)
		return p
	}
	rv.counters.asPathMisses.Add(1)
	p = rv.routes.Path(src, dst)
	if p == nil {
		return nil // don't cache unreachable pairs; they error out anyway
	}
	sh.mu.Lock()
	if prior, ok := sh.m[k]; ok {
		p = prior
	} else {
		sh.m[k] = p
	}
	sh.mu.Unlock()
	return p
}
