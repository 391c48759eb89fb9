// Package routing resolves router-level forwarding paths over the
// topology, using the AS-level decisions from package bgp.
//
// Within an AS the path follows the ingress router → metro core →
// egress-metro core → egress border router structure the generator
// builds. Between ASes, when several interdomain links realize one AS
// adjacency (the common case for large networks, §4.3), the egress link
// is chosen to minimize propagation delay through the link toward the
// destination ("latency-greedy", a hot/cold-potato compromise), with
// near-ties and parallel links broken by a per-flow hash — the
// load-balancing behaviour Paris traceroute is designed to hold fixed
// within one trace (§3).
//
// Resolution is memoized in four layers (see cache.go). In front, a
// route cache holds whole resolved paths per (endpoints' routers,
// access lines, ASNs, destination metro) key: a path stored there
// serves every flow key whose hash picks the same near-tie member at
// each of its AS crossings. A key's first miss only records the key;
// its paths are stored from the second miss on, so one-off surveys do
// not fill the heap. Behind it, intra-AS segments, scored interdomain
// near-tie sets and AS-level paths are each computed once per key and
// shared. The caches never change results — only their cost.
package routing

import (
	"fmt"
	"sort"

	"throughputlab/internal/bgp"
	"throughputlab/internal/geo"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/obs"
	"throughputlab/internal/topology"
)

// Endpoint is one end of a measured path: a host (client or server)
// attached to a router.
type Endpoint struct {
	Addr  netaddr.Addr
	ASN   topology.ASN
	Metro string
	// Router is the attachment router (access router for clients, a
	// core/border router for servers).
	Router topology.RouterID
	// AccessLine is the shared last-mile link for clients (nil for
	// servers).
	AccessLine *topology.Link
}

// Hop is one router visited by a path.
type Hop struct {
	Router *topology.Router
	// InLink is the link over which the path entered this router (nil
	// for the first router, which the source host attaches to).
	InLink *topology.Link
	// Ingress is the interface on InLink owned by this router (nil when
	// InLink is nil).
	Ingress *topology.Interface
}

// Path is a resolved router-level path. Its Hops, Links and ASPath
// slices are shared with the resolver's caches and with every other
// Path resolved onto the same route, so they are immutable: read them,
// never write or append in place.
type Path struct {
	Src, Dst Endpoint
	// Hops are the routers visited in order (shared, immutable).
	Hops []Hop
	// Links are all capacity-bearing links traversed in order,
	// including the endpoints' access lines when present (shared,
	// immutable).
	Links []*topology.Link
	// ASPath is the AS-level path from bgp (shared, immutable).
	ASPath []topology.ASN
}

// InterdomainLinks returns the interdomain links the path traverses, in
// order.
func (p *Path) InterdomainLinks() []*topology.Link {
	n := 0
	for _, l := range p.Links {
		if l.Kind == topology.LinkInterdomain {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*topology.Link, 0, n)
	for _, l := range p.Links {
		if l.Kind == topology.LinkInterdomain {
			out = append(out, l)
		}
	}
	return out
}

// Resolver resolves router-level paths. It precomputes link indices
// from the topology; the topology must not be mutated afterwards.
type Resolver struct {
	topo   *topology.Topology
	routes *bgp.Routes

	// interLinks indexes interdomain links by ordered (fromAS, toAS).
	interLinks map[[2]topology.ASN][]*topology.Link
	// intraLinks indexes intra-AS links by unordered router pair.
	intraLinks map[[2]topology.RouterID][]*topology.Link
	// cores maps AS → metro → core router (with fallback described in
	// coreAt).
	cores map[topology.ASN]map[string]*topology.Router
	// anyRouter is a deterministic fallback router per AS.
	anyRouter map[topology.ASN]*topology.Router

	// delays is the precomputed metro-pair propagation-delay matrix;
	// routerMetro maps dense router IDs to matrix indices (-1 when the
	// router's metro is unknown, which MustMetro then reports).
	delays      *geo.DelayMatrix
	routerMetro []int32

	// cache memoizes whole routes, segments, interdomain choices, and
	// AS paths; noCache (set by DisableCache) routes every lookup
	// through the compute path, for A/B identity tests.
	cache    *resolverCache
	counters resolverCounters
	noCache  bool
}

// New builds a Resolver over the topology and its routes.
func New(t *topology.Topology, r *bgp.Routes) *Resolver {
	rv := &Resolver{
		topo:       t,
		routes:     r,
		interLinks: make(map[[2]topology.ASN][]*topology.Link),
		intraLinks: make(map[[2]topology.RouterID][]*topology.Link),
		cores:      make(map[topology.ASN]map[string]*topology.Router),
		anyRouter:  make(map[topology.ASN]*topology.Router),
		delays:     geo.NewDelayMatrix(t.Metros),
		cache:      newResolverCache(),
	}
	// Counters live on a private always-on registry so Stats works out
	// of the box; Observe rebinds them onto a shared pipeline registry.
	rv.bindObs(obs.NewRegistry())
	maxID := topology.RouterID(-1)
	for _, l := range t.Links() {
		switch l.Kind {
		case topology.LinkInterdomain:
			a, b := l.ASA(), l.ASB()
			rv.interLinks[[2]topology.ASN{a, b}] = append(rv.interLinks[[2]topology.ASN{a, b}], l)
			rv.interLinks[[2]topology.ASN{b, a}] = append(rv.interLinks[[2]topology.ASN{b, a}], l)
		case topology.LinkIntra:
			k := routerPair(l.A.Router.ID, l.B.Router.ID)
			rv.intraLinks[k] = append(rv.intraLinks[k], l)
		}
	}
	for _, asn := range t.ASNs() {
		as := t.AS(asn)
		m := make(map[string]*topology.Router)
		for _, rt := range as.Routers {
			if rv.anyRouter[asn] == nil {
				rv.anyRouter[asn] = rt
			}
			if rt.ID > maxID {
				maxID = rt.ID
			}
			if rt.Kind == topology.RouterCore {
				if _, ok := m[rt.Metro]; !ok {
					m[rt.Metro] = rt
				}
			}
		}
		// Fallback: in metros without a core, use the first border
		// router there (single-router stubs).
		for _, rt := range as.Routers {
			if _, ok := m[rt.Metro]; !ok {
				m[rt.Metro] = rt
			}
		}
		rv.cores[asn] = m
	}
	rv.routerMetro = make([]int32, maxID+1)
	for i := range rv.routerMetro {
		rv.routerMetro[i] = -1
	}
	for _, asn := range t.ASNs() {
		for _, rt := range t.AS(asn).Routers {
			if mi, ok := rv.delays.Index(rt.Metro); ok {
				rv.routerMetro[rt.ID] = int32(mi)
			}
		}
	}
	return rv
}

// DisableCache turns memoization off for this resolver, forcing every
// Resolve through the compute path. Results are byte-identical either
// way; this exists so tests can A/B the two. Must be called before the
// resolver is shared across goroutines.
func (rv *Resolver) DisableCache() { rv.noCache = true }

func routerPair(a, b topology.RouterID) [2]topology.RouterID {
	if a > b {
		a, b = b, a
	}
	return [2]topology.RouterID{a, b}
}

// metroIdx returns the delay-matrix index of a metro code, with
// MustMetro's panic semantics for unknown codes.
func (rv *Resolver) metroIdx(code string) int32 {
	mi, ok := rv.delays.Index(code)
	if !ok {
		rv.topo.MustMetro(code) // panics with the canonical message
	}
	return int32(mi)
}

// routerMetroIdx returns the delay-matrix index of a router's metro.
func (rv *Resolver) routerMetroIdx(r *topology.Router) int32 {
	mi := rv.routerMetro[r.ID]
	if mi < 0 {
		rv.topo.MustMetro(r.Metro) // panics with the canonical message
	}
	return mi
}

// coreAt returns the AS's core router in the metro, or any router of
// the AS when it has no presence there. The fallback is counted in
// Stats: metro-keyed cache entries would otherwise silently absorb a
// topology bug that leaves an AS without presence in a metro its
// routes cross.
func (rv *Resolver) coreAt(asn topology.ASN, metro string) (*topology.Router, error) {
	if r, ok := rv.cores[asn][metro]; ok {
		return r, nil
	}
	if r := rv.anyRouter[asn]; r != nil {
		rv.counters.coreFallbacks.Add(1)
		return r, nil
	}
	return nil, fmt.Errorf("routing: AS %d has no routers", asn)
}

// FlowKey derives the deterministic per-flow ECMP key from the flow's
// addresses and an entropy value (ports / Paris flow identifier).
// Distinct entropy values model distinct transport flows: an NDT test
// and its companion Paris traceroute hash differently, so on balanced
// parallel links they may take different members — one of the
// association caveats of §4.
func FlowKey(src, dst netaddr.Addr, entropy uint32) uint64 {
	// FNV-1a over the 12 bytes.
	h := uint64(14695981039346656037)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= 1099511628211
		}
	}
	mix(uint32(src))
	mix(uint32(dst))
	mix(entropy)
	return h
}

// Resolve computes the router-level path from src to dst for the given
// flow key. The returned Path's Hops, Links and ASPath may be shared
// with the resolver's route cache and with other returned paths; they
// must not be mutated.
func (rv *Resolver) Resolve(src, dst Endpoint, flowKey uint64) (*Path, error) {
	if rv.noCache {
		return rv.compute(src, dst, flowKey, nil)
	}
	k := routeKeyOf(src, dst)
	if leaf := rv.cache.lookupRoute(k, flowKey); leaf != nil {
		rv.counters.routeHits.Add(1)
		rv.counters.resolveHops.Observe(float64(len(leaf.hops)))
		return &Path{Src: src, Dst: dst, Hops: leaf.hops, Links: leaf.links, ASPath: leaf.asPath}, nil
	}
	rv.counters.routeMisses.Add(1)
	var picks []routePick
	p, err := rv.compute(src, dst, flowKey, &picks)
	if err != nil {
		return nil, err
	}
	rv.cache.storeRoute(k, flowKey, p, picks)
	return p, nil
}

// compute resolves a path through the segment, near-tie and AS-path
// caches. When picks is non-nil, every AS crossing with more than one
// near-tie candidate appends its set size and chosen index to it: the
// route cache's hit rule for the resulting leaf.
func (rv *Resolver) compute(src, dst Endpoint, flowKey uint64, picks *[]routePick) (*Path, error) {
	asPath := rv.asPath(src.ASN, dst.ASN)
	if asPath == nil {
		return nil, fmt.Errorf("routing: no AS route %d -> %d", src.ASN, dst.ASN)
	}
	p := &Path{Src: src, Dst: dst, ASPath: asPath}
	// Size for the common shape: ≤4 hops per AS segment plus one
	// ingress per crossing; links additionally carry up to two access
	// lines.
	capHint := 4*len(asPath) + 2
	p.Hops = make([]Hop, 0, capHint)
	p.Links = make([]*topology.Link, 0, capHint+2)

	if src.AccessLine != nil {
		p.Links = append(p.Links, src.AccessLine)
	}

	cur := rv.topo.Router(src.Router)
	if cur == nil {
		return nil, fmt.Errorf("routing: unknown source router %d", src.Router)
	}
	p.Hops = append(p.Hops, Hop{Router: cur})

	var dstMetro int32
	if len(asPath) > 1 {
		dstMetro = rv.metroIdx(dst.Metro)
	}
	for i := 1; i < len(asPath); i++ {
		fromAS, toAS := asPath[i-1], asPath[i]
		// The near-tie set comes from the cache; the flow hash picks one
		// member.
		eq, err := rv.interChoices(interKey{from: fromAS, to: toAS, curMetro: rv.routerMetroIdx(cur), dstMetro: dstMetro})
		if err != nil {
			return nil, err
		}
		c := flowKey % uint64(len(eq))
		if picks != nil && len(eq) > 1 {
			*picks = append(*picks, routePick{n: uint32(len(eq)), c: uint32(c)})
		}
		link := eq[c]
		// Walk inside fromAS to the egress border router.
		egress, ingress := link.A, link.B
		if link.ASA() != fromAS {
			egress, ingress = link.B, link.A
		}
		if err := rv.appendIntra(p, cur, egress.Router); err != nil {
			return nil, err
		}
		// Cross the interdomain link.
		p.Links = append(p.Links, link)
		p.Hops = append(p.Hops, Hop{Router: ingress.Router, InLink: link, Ingress: ingress})
		cur = ingress.Router
	}

	// Inside the destination AS, walk to the destination's attachment
	// router.
	dstRouter := rv.topo.Router(dst.Router)
	if dstRouter == nil {
		return nil, fmt.Errorf("routing: unknown destination router %d", dst.Router)
	}
	if err := rv.appendIntra(p, cur, dstRouter); err != nil {
		return nil, err
	}
	if dst.AccessLine != nil {
		p.Links = append(p.Links, dst.AccessLine)
	}
	rv.counters.resolveHops.Observe(float64(len(p.Hops)))
	return p, nil
}

// computeInterChoices scores every interdomain link realizing the AS
// adjacency and returns the near-tie set, sorted by link ID.
func (rv *Resolver) computeInterChoices(k interKey) ([]*topology.Link, error) {
	links := rv.interLinks[[2]topology.ASN{k.from, k.to}]
	if len(links) == 0 {
		return nil, fmt.Errorf("routing: no interdomain link %d -> %d", k.from, k.to)
	}
	cost := make([]float64, len(links))
	best := -1.0
	for i, l := range links {
		lm := rv.metroIdx(l.Metro)
		c := rv.delays.At(int(k.curMetro), int(lm)) + rv.delays.At(int(lm), int(k.dstMetro))
		cost[i] = c
		if best < 0 || c < best {
			best = c
		}
	}
	// Keep near-ties (parallel links in one metro always tie exactly).
	const epsilonMs = 0.5
	eq := make([]*topology.Link, 0, len(links))
	for i, l := range links {
		if cost[i] <= best+epsilonMs {
			eq = append(eq, l)
		}
	}
	sort.Slice(eq, func(i, j int) bool { return eq[i].ID < eq[j].ID })
	rv.counters.interCandidates.Observe(float64(len(eq)))
	return eq, nil
}

// appendIntra extends the path from router cur to router dst within one
// AS, via the metro cores. The hop sequence comes from the segment
// cache; appending it is the only per-call work.
func (rv *Resolver) appendIntra(p *Path, cur, dst *topology.Router) error {
	steps, err := rv.segment(cur, dst)
	if err != nil {
		return err
	}
	for i := range steps {
		p.Links = append(p.Links, steps[i].InLink)
		p.Hops = append(p.Hops, steps[i])
	}
	return nil
}

// computeSegment walks from router cur to router dst within one AS and
// returns the hops appended past cur (empty when cur == dst).
func (rv *Resolver) computeSegment(cur, dst *topology.Router) ([]Hop, error) {
	if cur.AS != dst.AS {
		return nil, fmt.Errorf("routing: intra walk across ASes %d -> %d", cur.AS, dst.AS)
	}
	var steps []Hop
	step := func(next *topology.Router) error {
		if next.ID == cur.ID {
			return nil
		}
		ls := rv.intraLinks[routerPair(cur.ID, next.ID)]
		if len(ls) == 0 {
			return fmt.Errorf("routing: no intra link between routers %d and %d (AS %d)", cur.ID, next.ID, cur.AS)
		}
		l := ls[0]
		ingress := l.A
		if ingress.Router.ID != next.ID {
			ingress = l.B
		}
		steps = append(steps, Hop{Router: next, InLink: l, Ingress: ingress})
		cur = next
		return nil
	}

	if cur.ID == dst.ID {
		return []Hop{}, nil
	}
	// Direct link (border and access routers link to their local core;
	// cores mesh between metros)?
	if len(rv.intraLinks[routerPair(cur.ID, dst.ID)]) > 0 {
		if err := step(dst); err != nil {
			return nil, err
		}
		return steps, nil
	}
	// Otherwise go via cores: local core, then destination-metro core.
	if cur.Kind != topology.RouterCore {
		c, err := rv.coreAt(cur.AS, cur.Metro)
		if err != nil {
			return nil, err
		}
		if c.ID != cur.ID {
			if err := step(c); err != nil {
				return nil, err
			}
		}
	}
	if cur.Metro != dst.Metro {
		c, err := rv.coreAt(cur.AS, dst.Metro)
		if err != nil {
			return nil, err
		}
		if c.ID != cur.ID {
			if err := step(c); err != nil {
				return nil, err
			}
		}
	}
	if cur.ID != dst.ID {
		if err := step(dst); err != nil {
			return nil, err
		}
	}
	return steps, nil
}

// RTTms computes the base (uncongested) round-trip time of a path in
// milliseconds: twice the sum of per-hop propagation delays plus a
// small per-hop processing cost and the access line's serialization
// slack.
func (rv *Resolver) RTTms(p *Path) float64 {
	oneWay := 0.0
	if len(p.Hops) > 0 {
		prev := rv.routerMetroIdx(p.Hops[0].Router)
		for i := 1; i < len(p.Hops); i++ {
			mi := rv.routerMetroIdx(p.Hops[i].Router)
			oneWay += rv.delays.At(int(prev), int(mi)) + 0.05
			prev = mi
		}
	}
	// Host attachment segments.
	oneWay += 0.2
	if p.Src.AccessLine != nil {
		oneWay += 2.0 // DSL/cable access serialization and interleaving
	}
	if p.Dst.AccessLine != nil {
		oneWay += 2.0
	}
	return 2 * oneWay
}
