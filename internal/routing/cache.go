package routing

import (
	"sync"

	"throughputlab/internal/obs"
	"throughputlab/internal/topology"
)

// The resolver's memoization layer. Every simulated NDT test resolves
// two router-level paths and every Paris traceroute one more, but the
// inputs repeat heavily — a campaign draws from a fixed set of
// (server, client-pool) pairs — so the three expensive pieces of
// Resolve are pure functions of small keys over an immutable topology:
//
//   - the intra-AS segment walked between an entry and an exit router;
//   - the scored near-tie set of interdomain links for one
//     (fromAS, toAS, current metro, destination metro) crossing;
//   - the AS-level path between two ASes.
//
// Each gets a sharded map guarded by an RWMutex. Values are built
// once, never mutated afterwards, and shared by reference; because the
// computation is deterministic, two workers racing on a cold key
// compute identical values and either store wins. This keeps cached
// resolution byte-identical to uncached resolution (asserted by
// TestCachedResolverByteIdentical) and safe under CollectStreamCtx's
// stream.For workers (asserted under -race by
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

type resolverCache struct {
	seg    [cacheShards]segShard
	inter  [cacheShards]interShard
	asPath [cacheShards]asPathShard
}

func newResolverCache() *resolverCache {
	c := &resolverCache{}
	for i := 0; i < cacheShards; i++ {
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
// key (both compute, either store). CoreFallbacks counts coreAt calls
// that found no router in the requested metro and fell back to the
// AS's deterministic any-router — a nonzero value on a generated
// topology usually means a topology bug that metro-keyed cache entries
// would otherwise silently absorb.
type Stats struct {
	SegmentHits, SegmentMisses uint64
	InterHits, InterMisses     uint64
	ASPathHits, ASPathMisses   uint64
	CoreFallbacks              uint64
}

// resolverCounters holds the resolver's obs handles. They are bound to
// a private registry by New so Stats always works, and rebound onto a
// shared registry by Observe when the pipeline is instrumented.
type resolverCounters struct {
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
		SegmentHits:   rv.counters.segHits.Value(),
		SegmentMisses: rv.counters.segMisses.Value(),
		InterHits:     rv.counters.interHits.Value(),
		InterMisses:   rv.counters.interMisses.Value(),
		ASPathHits:    rv.counters.asPathHits.Value(),
		ASPathMisses:  rv.counters.asPathMisses.Value(),
		CoreFallbacks: rv.counters.coreFallbacks.Value(),
	}
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
