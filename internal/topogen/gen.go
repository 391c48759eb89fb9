package topogen

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"throughputlab/internal/bgp"
	"throughputlab/internal/datasets"
	"throughputlab/internal/dnsnames"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/netsim"
	"throughputlab/internal/obs"
	"throughputlab/internal/routing"
	"throughputlab/internal/topology"
)

// builder carries generation state.
type builder struct {
	cfg    Config
	rng    *rand.Rand
	topo   *topology.Topology
	alloc  *topology.Allocator
	metros []string // metro codes, weight-descending
	// cities interns metro code → city name (ReplaceAll output), shared
	// by every router name in that metro.
	cities map[string]string

	// per-AS state
	asAlloc map[topology.ASN]*topology.Allocator
	cores   map[topology.ASN]map[string]*topology.Router
	// border router pools per (AS, metro, role); a new edge router is
	// opened every borderFanout neighbors.
	borders     map[topology.ASN]map[brKey][]*topology.Router
	borderCount map[topology.ASN]map[brKey]int

	transits  map[string]*datasets.TransitProfile
	access    map[string]*AccessNet
	ixps      map[string]*topology.IXP // by metro
	ixpCursor map[*topology.IXP]uint64

	hostingStubs []topology.ASN
	regionals    []topology.ASN

	world *World
}

const borderFanout = 24

// noPTRFrac is the fraction of interfaces without reverse DNS.
const noPTRFrac = 0.12

// brKey identifies a border-router pool without building a composite
// string per lookup (borderRouter runs once per interconnect end).
type brKey struct {
	metro string
	role  string
}

// GenerateCtx builds the world under cooperative cancellation: a
// cancelled ctx skips every remaining generation phase and returns an
// error wrapping the context's cause. Cancellation is only observed at
// phase boundaries — the coarsest grain that still aborts a
// multi-minute xlarge build promptly, without threading ctx into the
// hot loops. With cfg.Obs set, the "generate" span opens under the span
// ctx carries (see obs.Start); the world's own gauges and counters are
// published separately, by World.Observe.
func GenerateCtx(ctx context.Context, cfg Config) (*World, error) {
	if cfg.Scale.StubASes == 0 {
		cfg.Scale = datasets.DefaultScale()
	}
	if cfg.Congestion == nil {
		cfg.Congestion = DefaultCongestion()
	}
	if cfg.SpeedtestFactor == 0 {
		cfg.SpeedtestFactor = 1
	}
	metros := datasets.USMetros()
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	b := &builder{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		topo:        topology.New(metros),
		alloc:       topology.NewAllocator(netaddr.MustParsePrefix("16.0.0.0/4")),
		cities:      make(map[string]string, len(metros)),
		asAlloc:     make(map[topology.ASN]*topology.Allocator),
		cores:       make(map[topology.ASN]map[string]*topology.Router),
		borders:     make(map[topology.ASN]map[brKey][]*topology.Router),
		borderCount: make(map[topology.ASN]map[brKey]int),
		transits:    make(map[string]*datasets.TransitProfile),
		access:      make(map[string]*AccessNet),
		ixps:        make(map[string]*topology.IXP),
		ixpCursor:   make(map[*topology.IXP]uint64),
	}
	b.topo.Reserve(b.expectedRouters(), b.expectedLinks())
	codes := make([]string, len(metros))
	for i, m := range metros {
		codes[i] = m.Code
	}
	b.metros = codes

	b.world = &World{
		Cfg:             cfg,
		Topo:            b.topo,
		ContentReplicas: make(map[string][]Host),
		DomainHosts:     make(map[string]Host),
		Access:          make(map[string]*AccessNet),
		Domains:         datasets.PopularDomainList(),
		rng:             b.rng,
	}

	gen, _ := obs.Start(ctx, cfg.Obs, "generate")
	// phase hands each stage its span so parallel stages can attach
	// per-worker child spans to it. A cancelled context skips every
	// remaining phase; the post-loop check turns that into an error.
	phase := func(name string, fn func(sp *obs.Span)) {
		if ctx.Err() != nil {
			return
		}
		sp := gen.Child("generate." + name)
		fn(sp)
		sp.End()
	}
	phase("topology", func(*obs.Span) {
		b.buildIXPs()
		b.buildTransits()
		b.buildAccess()
		b.buildContent()
		b.buildRegionals()
		b.buildStubs()
		b.applyCongestion()
	})
	phase("placement", func(*obs.Span) {
		b.placeMLab()
		b.placeSpeedtest()
		b.placeArkVPs()
	})
	phase("dnsnames", func(sp *obs.Span) {
		dnsnames.Assign(b.topo, cfg.Seed, noPTRFrac, workers, sp)
	})

	var errs []error
	phase("validate", func(sp *obs.Span) { errs = b.topo.Validate(workers, sp) })
	if len(errs) != 0 {
		gen.End()
		return nil, fmt.Errorf("topogen: generated topology invalid: %v (and %d more)", errs[0], len(errs)-1)
	}

	phase("bgp", func(*obs.Span) { b.world.Routes = bgp.ComputeLazy(b.topo) })
	phase("resolver", func(*obs.Span) { b.world.Resolver = routing.New(b.topo, b.world.Routes) })
	phase("netsim", func(*obs.Span) { b.world.Model = netsim.New(b.topo, b.world.Resolver) })
	gen.End()
	if ctx.Err() != nil {
		return nil, fmt.Errorf("topogen: generation interrupted: %w", context.Cause(ctx))
	}

	return b.world, nil
}

// Observe publishes the world on reg: its produced-entity gauges
// (topogen.*) and, through routing.Resolver.Observe, its resolver's
// cache counters (resolver.*). A run observes the one world it reports
// on; a second world built alongside it (the §5.4 snapshot) stays
// unobserved, so the dump describes the run's world and its counters
// count only that world's lookups. Call it before the world's resolver
// is shared across goroutines. On a nil registry it does nothing.
func (w *World) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.Resolver.Observe(reg)
	workers := max(w.Cfg.Workers, 1)
	reg.Gauge("topogen.workers.dnsnames").Set(int64(workers))
	reg.Gauge("topogen.workers.validate").Set(int64(workers))
	st := w.Topo.CollectStats()
	reg.Gauge("topogen.ases").Set(int64(st.ASes))
	reg.Gauge("topogen.routers").Set(int64(st.Routers))
	reg.Gauge("topogen.links").Set(int64(st.Links))
	reg.Gauge("topogen.links.interdomain").Set(int64(st.ByLink[topology.LinkInterdomain]))
	reg.Gauge("topogen.links.saturated").Set(int64(st.SaturatedLinks))
	reg.Gauge("topogen.mlab.sites").Set(int64(len(w.MLabSites)))
	reg.Gauge("topogen.mlab.servers").Set(int64(len(w.MLabServers())))
	reg.Gauge("topogen.speedtest.servers").Set(int64(len(w.Speedtest)))
	reg.Gauge("topogen.ark.vps").Set(int64(len(w.ArkVPs)))
}

// MustGenerate is GenerateCtx without cancellation that panics on
// error, for tests and examples.
func MustGenerate(cfg Config) *World {
	w, err := GenerateCtx(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// expectedRouters estimates the final router population from the scale
// profile so the topology arenas can be presized. Over-estimates waste
// a little memory; under-estimates only cost extra slab chunks.
func (b *builder) expectedRouters() int {
	s := b.cfg.Scale
	// Fixed infrastructure (transits, access ISPs and their siblings,
	// content) lands around 1.2-1.5k routers; each stub or regional
	// contributes a core plus a share of edge/aggregation routers.
	// (Measured: small scale 1472 routers, default scale 4322.)
	return 1200 + 2*s.StubASes + 10*s.RegionalISPs
}

// expectedLinks estimates the final link count (intra mesh + access
// lines + interdomain), sized like expectedRouters.
// (Measured: small scale 5387 links, default scale 10562.)
func (b *builder) expectedLinks() int {
	s := b.cfg.Scale
	return 4800 + 4*s.StubASes + 15*s.RegionalISPs
}

// ---- AS construction primitives ----

// newAS creates an AS with core routers and a meshed backbone in the
// given metros, allocating an address block of the given size.
func (b *builder) newAS(org *topology.Org, asn topology.ASN, name string, typ topology.ASType, metros []string, blockBits int) *topology.AS {
	as := &topology.AS{ASN: asn, Name: name, Org: org, Type: typ, Metros: metros}
	b.topo.AddAS(as)
	block := b.alloc.MustAlloc(blockBits)
	b.topo.Originate(asn, block)
	b.asAlloc[asn] = topology.NewAllocator(block)
	b.cores[asn] = make(map[string]*topology.Router)
	b.borders[asn] = make(map[brKey][]*topology.Router)
	b.borderCount[asn] = make(map[brKey]int)

	var prev []*topology.Router
	for _, m := range metros {
		city := b.cityName(m)
		core := b.topo.AddRouter(asn, m, topology.RouterCore, "core1."+city)
		b.cores[asn][m] = core
		// Mesh the new core with the existing ones.
		for _, p := range prev {
			b.intraLink(asn, p, core, 400000)
		}
		prev = append(prev, core)
	}
	return as
}

func (b *builder) cityName(metro string) string {
	if c, ok := b.cities[metro]; ok {
		return c
	}
	m := b.topo.MustMetro(metro)
	c := strings.ReplaceAll(m.Name, " ", "")
	b.cities[metro] = c
	return c
}

func (b *builder) hostAddr(asn topology.ASN) netaddr.Addr {
	return b.asAlloc[asn].MustAlloc(32).Addr()
}

func (b *builder) intraLink(asn topology.ASN, a, c *topology.Router, capMbps float64) {
	p := b.asAlloc[asn].MustAlloc(31)
	b.topo.AddLink(a, c, topology.LinkSpec{
		Kind: topology.LinkIntra, Metro: a.Metro, CapacityMbps: capMbps,
		BaseUtil: 0.1, PeakUtil: 0.35 + float64(0.1*b.rng.Float64()),
		AddrA: p.Nth(0), AddrOwnerA: asn,
		AddrB: p.Nth(1), AddrOwnerB: asn,
	})
}

// borderRouter returns an edge router of the AS in the metro for the
// given role, opening a new one (linked to the local core) every
// borderFanout neighbors. Roles separate upstream-facing edges (peers,
// providers) from customer aggregation edges, as real networks do —
// which also guarantees that transit THROUGH an AS crosses its core
// and leaves a visible own-address hop in traceroutes.
func (b *builder) borderRouter(asn topology.ASN, metro, role string) *topology.Router {
	key := brKey{metro: metro, role: role}
	n := b.borderCount[asn][key]
	b.borderCount[asn][key] = n + 1
	pool := b.borders[asn][key]
	if n/borderFanout < len(pool) {
		return pool[n/borderFanout]
	}
	city := b.cityName(metro)
	name := fmt.Sprintf("edge%d.%s%d", len(pool)+1, city, 1+len(pool)%3)
	if role == "up" {
		name = fmt.Sprintf("bb%d.%s%d", len(pool)+1, city, 1+len(pool)%3)
	}
	r := b.topo.AddRouter(asn, metro, topology.RouterBorder, name)
	core := b.cores[asn][metro]
	if core == nil {
		// AS without presence: adopt the metro by creating a core.
		core = b.topo.AddRouter(asn, metro, topology.RouterCore, "core1."+city)
		b.cores[asn][metro] = core
		for _, m2 := range b.topo.AS(asn).Metros {
			if c2 := b.cores[asn][m2]; c2 != nil && c2 != core {
				b.intraLink(asn, c2, core, 400000)
			}
		}
		b.topo.AS(asn).Metros = append(b.topo.AS(asn).Metros, metro)
	}
	b.intraLink(asn, core, r, 400000)
	b.borders[asn][key] = append(pool, r)
	return r
}

// borderRoles maps the relationship of b as seen from a to the edge
// roles each side terminates the link on: customer- and sibling-facing
// links land on aggregation edges ("down"), peer- and provider-facing
// links on upstream edges ("up").
func borderRoles(rel topology.Rel) (roleA, roleB string) {
	switch rel {
	case topology.RelCustomer: // b is a's customer
		return "down", "up"
	case topology.RelProvider: // b is a's provider
		return "up", "down"
	case topology.RelSibling:
		return "down", "down"
	default: // peers
		return "up", "up"
	}
}

// linkOpts carries interdomain link parameters.
type linkOpts struct {
	capMbps  float64
	baseUtil float64
	peakUtil float64
	// numberFrom chooses whose space numbers the /30 (0 = pick aASN).
	numberFrom topology.ASN
	ixp        *topology.IXP
	parallel   int
	// slash31 numbers from a /31 instead of a /30.
	slash31 bool
}

// connect creates parallel interdomain link(s) between two ASes in one
// metro and records the relationship (rel is b's relationship as seen
// from a, e.g. RelCustomer when bASN buys transit from aASN).
func (b *builder) connect(aASN, bASN topology.ASN, rel topology.Rel, metro string, o linkOpts) []*topology.Link {
	if b.topo.RelOf(aASN, bASN) == topology.RelNone {
		b.topo.SetRel(aASN, bASN, rel)
	}
	if o.parallel < 1 {
		o.parallel = 1
	}
	if o.numberFrom == 0 {
		o.numberFrom = aASN
	}
	roleA, roleB := borderRoles(rel)
	if r := b.topo.RelOf(aASN, bASN); r != topology.RelNone {
		roleA, roleB = borderRoles(r)
	}
	ra := b.borderRouter(aASN, metro, roleA)
	rb := b.borderRouter(bASN, metro, roleB)
	var out []*topology.Link
	for i := 0; i < o.parallel; i++ {
		var addrA, addrB netaddr.Addr
		ownerA, ownerB := o.numberFrom, o.numberFrom
		switch {
		case o.ixp != nil:
			// Both sides numbered from the IXP peering LAN.
			addrA = b.ixpAddr(o.ixp)
			addrB = b.ixpAddr(o.ixp)
			ownerA, ownerB = 0, 0
		case o.slash31:
			p := b.asAlloc[o.numberFrom].MustAlloc(31)
			addrA, addrB = p.Nth(0), p.Nth(1)
		default:
			p := b.asAlloc[o.numberFrom].MustAlloc(30)
			addrA, addrB = p.Nth(1), p.Nth(2)
		}
		l := b.topo.AddLink(ra, rb, topology.LinkSpec{
			Kind: topology.LinkInterdomain, Metro: metro,
			CapacityMbps: o.capMbps, BaseUtil: o.baseUtil, PeakUtil: o.peakUtil,
			AddrA: addrA, AddrOwnerA: ownerA,
			AddrB: addrB, AddrOwnerB: ownerB,
			IXP: o.ixp,
		})
		out = append(out, l)
	}
	return out
}

func (b *builder) ixpAddr(x *topology.IXP) netaddr.Addr {
	b.ixpCursor[x]++
	return x.Prefix.Nth(b.ixpCursor[x])
}

// healthyUtil returns a typical healthy interconnect utilization pair.
func (b *builder) healthyUtil() (base, peak float64) {
	base = 0.15 + float64(0.15*b.rng.Float64())
	peak = base + 0.25 + float64(0.25*b.rng.Float64())
	return base, peak
}

// ---- Construction phases ----

func (b *builder) buildIXPs() {
	for _, s := range datasets.IXPSites() {
		p := b.alloc.MustAlloc(24)
		x := &topology.IXP{Name: s.Name, Metro: s.Metro, Prefix: p}
		b.topo.AddIXP(x)
		b.ixps[s.Metro] = x
	}
}

func (b *builder) buildTransits() {
	profiles := datasets.Transits()
	for i := range profiles {
		p := profiles[i]
		org := &topology.Org{Name: p.Name + " Communications", ASNs: []topology.ASN{p.ASN}}
		b.topo.Orgs = append(b.topo.Orgs, org)
		b.newAS(org, p.ASN, p.Name, topology.ASTypeTransit, b.metros, 14)
		if p.SiblingASN != 0 {
			org.ASNs = append(org.ASNs, p.SiblingASN)
			// Sibling backbone present in the major metros.
			b.newAS(org, p.SiblingASN, p.Name+"-Legacy", topology.ASTypeTransit, b.metros[:8], 16)
			base, peak := b.healthyUtil()
			for _, m := range b.metros[:3] {
				b.connect(p.ASN, p.SiblingASN, topology.RelSibling, m, linkOpts{
					capMbps: 400000, baseUtil: base, peakUtil: peak,
				})
			}
		}
		b.transits[p.Name] = &profiles[i]
	}
	// Transit full mesh of peers (hosting-only networks instead buy
	// transit from two real transits).
	for i := range profiles {
		for j := i + 1; j < len(profiles); j++ {
			a, c := profiles[i], profiles[j]
			if a.HostingOnly || c.HostingOnly {
				continue
			}
			nm := 2 + b.rng.Intn(3)
			for k := 0; k < nm; k++ {
				m := b.metros[(i+j+k*5)%len(b.metros)]
				base, peak := b.healthyUtil()
				b.connect(a.ASN, c.ASN, topology.RelPeer, m, linkOpts{
					capMbps: 100000, baseUtil: base, peakUtil: peak,
				})
			}
		}
	}
	// Hosting-only networks buy transit.
	for i := range profiles {
		if !profiles[i].HostingOnly {
			continue
		}
		for _, up := range []string{"Cogent", "Level3"} {
			base, peak := b.healthyUtil()
			b.connect(b.transits[up].ASN, profiles[i].ASN, topology.RelCustomer, "nyc", linkOpts{
				capMbps: 40000, baseUtil: base, peakUtil: peak,
			})
		}
	}
}

// pickInterconnectMetros chooses where an access org interconnects with
// a transit: its biggest metros, plus any metros forced by congestion
// specs for this pair.
func (b *builder) pickInterconnectMetros(p datasets.AccessProfile, transitName string, n int) []string {
	var forced []string
	for _, cs := range b.cfg.Congestion {
		if cs.Transit == transitName && cs.Access == p.Name && cs.Metro != "" {
			forced = append(forced, cs.Metro)
		}
	}
	out := append([]string{}, forced...)
	for _, m := range b.metros { // weight-descending order from datasets
		if len(out) >= n+len(forced) {
			break
		}
		if !slices.Contains(p.Metros, m) || slices.Contains(out, m) {
			continue
		}
		out = append(out, m)
	}
	return out
}

func (b *builder) buildAccess() {
	profiles := datasets.AccessISPs()
	for i := range profiles {
		p := profiles[i]
		org := &topology.Org{Name: p.OrgName, ASNs: append([]topology.ASN{p.BackboneASN}, p.SiblingASNs...)}
		b.topo.Orgs = append(b.topo.Orgs, org)
		an := &AccessNet{Profile: p, Org: org, PoolByMetro: make(map[string]*PoolInfo)}
		b.access[p.Name] = an
		b.world.Access[p.Name] = an

		// Backbone everywhere the ISP operates.
		b.newAS(org, p.BackboneASN, p.Name, topology.ASTypeAccess, p.Metros, 14)

		// Partition metros among backbone and regional siblings: the
		// backbone keeps every third metro (including the largest);
		// regional siblings take the rest round-robin. Client prefixes
		// in sibling metros number from sibling space, so AS-level
		// aggregates split across sibling ASNs exactly as Table 2's
		// Comcast rows (AS7922 / AS7725 / AS22909) do.
		ownerOf := make(map[string]topology.ASN)
		if len(p.SiblingASNs) == 0 {
			for _, m := range p.Metros {
				ownerOf[m] = p.BackboneASN
			}
		} else {
			sibMetros := make(map[topology.ASN][]string)
			si := 0
			for i, m := range p.Metros {
				if i%3 == 0 {
					ownerOf[m] = p.BackboneASN
					continue
				}
				sib := p.SiblingASNs[si%len(p.SiblingASNs)]
				si++
				ownerOf[m] = sib
				sibMetros[sib] = append(sibMetros[sib], m)
			}
			for _, sib := range p.SiblingASNs {
				ms := sibMetros[sib]
				if len(ms) == 0 {
					ms = []string{p.Metros[0]} // presence only
					ownerOf[p.Metros[0]] = p.BackboneASN
				}
				b.newAS(org, sib, fmt.Sprintf("%s-Region-%d", p.Name, sib), topology.ASTypeAccess, ms, 16)
				// Sibling interconnects with the backbone in its metros.
				for _, m := range ms {
					base, peak := b.healthyUtil()
					b.connect(p.BackboneASN, sib, topology.RelSibling, m, linkOpts{
						capMbps: 400000, baseUtil: base, peakUtil: peak,
					})
				}
			}
		}

		// Client pools + access aggregation per metro.
		for _, m := range p.Metros {
			owner := ownerOf[m]
			if owner == 0 {
				owner = p.BackboneASN
			}
			pool := b.asAlloc[owner].MustAlloc(23)
			b.topo.Originate(owner, pool)
			b.topo.AS(owner).ClientPools[m] = pool
			agg := b.topo.AddRouter(owner, m, topology.RouterAccess, "agg1."+b.cityName(m))
			b.intraLink(owner, b.cores[owner][m], agg, 100000)
			line := b.topo.AddLink(agg, nil, topology.LinkSpec{
				Kind: topology.LinkAccessLine, Metro: m,
				CapacityMbps: 400 + float64(200*b.rng.Float64()),
				BaseUtil:     0.15 + float64(0.1*b.rng.Float64()),
				PeakUtil:     0.68 + float64(0.17*b.rng.Float64()),
				AddrA:        b.hostAddr(owner), AddrOwnerA: owner,
			})
			an.PoolByMetro[m] = &PoolInfo{
				ASN: owner, Metro: m, Prefix: pool, Router: agg.ID, AccessLine: line,
			}
		}

		// Transit interconnects (the Figure 1 / Table 2 structure).
		for _, tn := range p.TransitPeers {
			b.connectAccessTransit(p, an, tn, topology.RelPeer)
		}
		for _, tn := range p.TransitProviders {
			b.connectAccessTransit(p, an, tn, topology.RelProvider)
		}
	}

	// Access-access peering (after all access ASes exist).
	done := map[string]bool{}
	for _, p := range profiles {
		for _, peerName := range p.AccessPeers {
			key := p.Name + "|" + peerName
			if p.Name > peerName {
				key = peerName + "|" + p.Name
			}
			if done[key] {
				continue
			}
			done[key] = true
			q := b.access[peerName]
			if q == nil {
				continue
			}
			shared := intersect(p.Metros, q.Profile.Metros)
			if len(shared) == 0 {
				continue
			}
			nm := 1 + b.rng.Intn(2)
			for k := 0; k < nm && k < len(shared); k++ {
				m := shared[k]
				aOwner := b.poolOwner(p.Name, m)
				bOwner := b.poolOwner(peerName, m)
				base, peak := b.healthyUtil()
				b.connect(aOwner, bOwner, topology.RelPeer, m, linkOpts{
					capMbps: 60000, baseUtil: base, peakUtil: peak,
				})
			}
		}
	}
}

// poolOwner returns which ASN of the access org serves the metro (falls
// back to the backbone).
func (b *builder) poolOwner(isp, metro string) topology.ASN {
	an := b.access[isp]
	if pi := an.PoolByMetro[metro]; pi != nil {
		return pi.ASN
	}
	return an.Profile.BackboneASN
}

// intersect returns the elements of a that also appear in c,
// preserving a's order (deterministic output for deterministic input).
func intersect(a, c []string) []string {
	in := make(map[string]struct{}, len(c))
	for _, x := range c {
		in[x] = struct{}{}
	}
	var out []string
	for _, x := range a {
		if _, ok := in[x]; ok {
			out = append(out, x)
		}
	}
	return out
}

func (b *builder) connectAccessTransit(p datasets.AccessProfile, an *AccessNet, transitName string, rel topology.Rel) {
	tr := b.transits[transitName]
	if tr == nil {
		return
	}
	metros := b.pickInterconnectMetros(p, transitName, an.Profile.InterconnectMetros)
	for mi, m := range metros {
		owner := b.poolOwner(p.Name, m)
		tASN := tr.ASN
		// Some interconnects land on the transit's legacy sibling ASN,
		// multiplying AS-level link pairs (Table 2's 18 Level3-Comcast
		// AS links).
		if tr.SiblingASN != 0 && b.rng.Float64() < 0.3 && slices.Contains(b.topo.AS(tr.SiblingASN).Metros, m) {
			tASN = tr.SiblingASN
		}
		parallel := 1
		if an.Profile.ParallelLinkMean > 1 {
			parallel = 1 + b.rng.Intn(int(2*an.Profile.ParallelLinkMean-1))
		}
		base, peak := b.healthyUtil()
		numberFrom := tASN
		if b.rng.Float64() < 0.2 {
			numberFrom = owner
		}
		// The transit side "owns" the relationship direction: rel is the
		// transit as seen from the access org.
		relFromTransit := topology.RelPeer
		if rel == topology.RelProvider {
			relFromTransit = topology.RelCustomer // access is the transit's customer
		}
		o := linkOpts{
			capMbps: 20000 + float64(20000*b.rng.Float64()), baseUtil: base, peakUtil: peak,
			numberFrom: numberFrom, parallel: parallel,
		}
		// First interconnect in an IXP metro occasionally crosses the
		// exchange LAN.
		if x := b.ixps[m]; x != nil && mi == 0 && b.rng.Float64() < 0.3 {
			o.ixp = x
		}
		if b.rng.Float64() < 0.15 {
			o.slash31 = true
		}
		b.connect(tASN, owner, relFromTransit, m, o)
	}
}

func (b *builder) buildContent() {
	for _, c := range datasets.ContentNetworks() {
		org := &topology.Org{Name: c.Name, ASNs: []topology.ASN{c.ASN}}
		b.topo.Orgs = append(b.topo.Orgs, org)
		b.newAS(org, c.ASN, c.Name, topology.ASTypeContent, c.Metros, 18)
		// Two transit providers.
		tnames := []string{"Level3", "GTT", "Cogent", "Tata", "XO", "Zayo", "Telia", "NTT"}
		i1 := b.rng.Intn(len(tnames))
		i2 := (i1 + 1 + b.rng.Intn(len(tnames)-1)) % len(tnames)
		for _, ti := range []int{i1, i2} {
			tr := b.transits[tnames[ti]]
			m := c.Metros[b.rng.Intn(len(c.Metros))]
			base, peak := b.healthyUtil()
			b.connect(tr.ASN, c.ASN, topology.RelCustomer, m, linkOpts{
				capMbps: 80000, baseUtil: base, peakUtil: peak,
			})
		}
		// Direct peering with access ISPs.
		for _, ap := range datasets.AccessISPs() {
			if b.rng.Float64() >= ap.ContentPeerFrac {
				continue
			}
			shared := intersect(c.Metros, ap.Metros)
			if len(shared) == 0 {
				continue
			}
			m := shared[b.rng.Intn(len(shared))]
			owner := b.poolOwner(ap.Name, m)
			base, peak := b.healthyUtil()
			o := linkOpts{capMbps: 40000, baseUtil: base, peakUtil: peak}
			if x := b.ixps[m]; x != nil && b.rng.Float64() < 0.4 {
				o.ixp = x
			}
			b.connect(c.ASN, owner, topology.RelPeer, m, o)
		}
		// Replicas: one host per metro.
		for _, m := range c.Metros {
			h := Host{
				Name:    c.Name + "-" + m,
				Network: c.Name,
				Endpoint: routing.Endpoint{
					Addr: b.hostAddr(c.ASN), ASN: c.ASN, Metro: m,
					Router: b.cores[c.ASN][m].ID,
				},
			}
			b.world.ContentReplicas[c.Name] = append(b.world.ContentReplicas[c.Name], h)
		}
	}
}

func (b *builder) buildRegionals() {
	tnames := []string{"Level3", "GTT", "Cogent", "Tata", "XO", "Zayo", "Telia", "NTT"}
	for i := 0; i < b.cfg.Scale.RegionalISPs; i++ {
		asn := topology.ASN(36000 + i)
		name := fmt.Sprintf("Regional%d", i+1)
		org := &topology.Org{Name: name + " Networks", ASNs: []topology.ASN{asn}}
		b.topo.Orgs = append(b.topo.Orgs, org)
		nm := 2 + b.rng.Intn(3)
		start := b.rng.Intn(len(b.metros))
		var metros []string
		for k := 0; k < nm; k++ {
			metros = append(metros, b.metros[(start+k)%len(b.metros)])
		}
		b.newAS(org, asn, name, topology.ASTypeStub, metros, 20)
		b.topo.Originate(asn, b.asAlloc[asn].MustAlloc(24)) // extra routed prefix
		for k := 0; k < 1+b.rng.Intn(2); k++ {
			tr := b.transits[tnames[b.rng.Intn(len(tnames))]]
			base, peak := b.healthyUtil()
			b.connect(tr.ASN, asn, topology.RelCustomer, metros[0], linkOpts{
				capMbps: 10000, baseUtil: base, peakUtil: peak,
			})
		}
		b.regionals = append(b.regionals, asn)
	}
}

func (b *builder) buildStubs() {
	tnames := []string{"Level3", "GTT", "Cogent", "Tata", "XO", "Zayo", "Telia", "NTT"}
	metrosOf := datasets.USMetros()
	weights := make([]float64, len(metrosOf))
	for i, m := range metrosOf {
		weights[i] = m.Weight
	}

	type stub struct {
		asn   topology.ASN
		metro string
	}
	choose := newWeightedChooser(weights)
	stubs := make([]stub, 0, b.cfg.Scale.StubASes)
	// Stubs number from 50000 upward, skipping ASNs the earlier phases
	// already assigned (the real-world roster ASNs land in this range
	// once StubASes reaches internet scale). Stubs build last, so the
	// taken-set is complete here, and the skip changes nothing for
	// scales whose stub window is collision-free.
	next := topology.ASN(50000)
	for i := 0; i < b.cfg.Scale.StubASes; i++ {
		for b.topo.AS(next) != nil {
			next++
		}
		asn := next
		next++
		mi := choose.pick(b.rng)
		metro := metrosOf[mi].Code
		hosting := b.rng.Float64() < b.cfg.Scale.HostingFrac
		name := fmt.Sprintf("Stub%d", i+1)
		if hosting {
			name = fmt.Sprintf("Hosting%d", i+1)
		}
		org := &topology.Org{Name: name + " Inc", ASNs: []topology.ASN{asn}}
		b.topo.Orgs = append(b.topo.Orgs, org)
		b.newAS(org, asn, name, topology.ASTypeStub, []string{metro}, 22)
		// 1-3 routed prefixes.
		for k := 0; k < b.rng.Intn(3); k++ {
			b.topo.Originate(asn, b.asAlloc[asn].MustAlloc(25))
		}
		stubs = append(stubs, stub{asn: asn, metro: metro})
		if hosting {
			b.hostingStubs = append(b.hostingStubs, asn)
		}
	}

	// Fill access-ISP customer quotas first (Table 3's CUST borders).
	attached := make(map[topology.ASN]int)
	custScale := b.cfg.Scale.CustomerScale
	if custScale == 0 {
		custScale = 1
	}
	for _, p := range datasets.AccessISPs() {
		quota := int(float64(float64(p.CustomerTarget)*custScale) + 0.5)
		// Regionals count as marquee customers for the biggest ISPs.
		for _, rasn := range b.regionals {
			if quota == 0 {
				break
			}
			if b.rng.Float64() < 0.04 {
				ras := b.topo.AS(rasn)
				shared := intersect(ras.Metros, p.Metros)
				if len(shared) == 0 || b.topo.RelOf(p.BackboneASN, rasn) != topology.RelNone {
					continue
				}
				owner := b.poolOwner(p.Name, shared[0])
				base, peak := b.healthyUtil()
				b.connect(owner, rasn, topology.RelCustomer, shared[0], linkOpts{
					capMbps: 10000, baseUtil: base, peakUtil: peak,
				})
				quota--
			}
		}
		for pass := 0; pass < 4 && quota > 0; pass++ {
			for si := range stubs {
				if quota == 0 {
					break
				}
				s := stubs[si]
				if !slices.Contains(p.Metros, s.metro) || attached[s.asn] > pass {
					continue
				}
				if b.rng.Float64() > 0.5 {
					continue
				}
				owner := b.poolOwner(p.Name, s.metro)
				if b.topo.RelOf(owner, s.asn) != topology.RelNone {
					continue
				}
				nlinks := 1
				if b.rng.Float64() < 0.25 {
					nlinks = 2
				}
				base, peak := b.healthyUtil()
				b.connect(owner, s.asn, topology.RelCustomer, s.metro, linkOpts{
					capMbps: 2000 + float64(8000*b.rng.Float64()), baseUtil: base, peakUtil: peak,
					parallel: nlinks,
				})
				attached[s.asn]++
				quota--
			}
		}
	}

	// Everyone gets at least one transit provider.
	for _, s := range stubs {
		n := 1
		if b.rng.Float64() < 0.3 {
			n = 2
		}
		for k := 0; k < n; k++ {
			tr := b.transits[tnames[b.rng.Intn(len(tnames))]]
			if b.topo.RelOf(tr.ASN, s.asn) != topology.RelNone {
				continue
			}
			base, peak := b.healthyUtil()
			b.connect(tr.ASN, s.asn, topology.RelCustomer, s.metro, linkOpts{
				capMbps: 4000, baseUtil: base, peakUtil: peak,
			})
		}
	}

	// Hosted popular domains live on hosting stubs.
	if len(b.hostingStubs) > 0 {
		for _, d := range b.world.Domains {
			if d.ContentOrg != "" {
				continue
			}
			asn := b.hostingStubs[b.rng.Intn(len(b.hostingStubs))]
			as := b.topo.AS(asn)
			b.world.DomainHosts[d.Name] = Host{
				Name:    d.Name,
				Network: as.Name,
				Endpoint: routing.Endpoint{
					Addr: b.hostAddr(asn), ASN: asn, Metro: as.Metros[0],
					Router: b.cores[asn][as.Metros[0]].ID,
				},
			}
		}
	}
}

// weightedChooser holds the running prefix sums of a weight vector so
// repeated draws cost one binary search instead of a linear scan.
type weightedChooser struct {
	cum []float64
}

func newWeightedChooser(weights []float64) *weightedChooser {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		total += w
		cum[i] = total
	}
	return &weightedChooser{cum: cum}
}

// pick draws an index with probability proportional to its weight,
// consuming exactly one rng.Float64() like the former linear scan. The
// linear scan returned the first index whose cumulative weight strictly
// exceeds the draw, so after SearchFloat64s (which finds >=) the pick
// skips past exact boundary hits to keep the two draw-identical.
func (c *weightedChooser) pick(rng *rand.Rand) int {
	if len(c.cum) == 0 {
		return -1
	}
	r := rng.Float64() * c.cum[len(c.cum)-1]
	i := sort.SearchFloat64s(c.cum, r)
	for i < len(c.cum)-1 && c.cum[i] == r {
		i++
	}
	if i == len(c.cum) {
		i--
	}
	return i
}

func (b *builder) applyCongestion() {
	for _, cs := range b.cfg.Congestion {
		tr := b.transits[cs.Transit]
		an := b.access[cs.Access]
		if tr == nil || an == nil {
			continue
		}
		tASNs := []topology.ASN{tr.ASN}
		if tr.SiblingASN != 0 {
			tASNs = append(tASNs, tr.SiblingASN)
		}
		for _, tASN := range tASNs {
			for _, aASN := range an.Org.ASNs {
				for _, l := range b.topo.InterdomainLinks(tASN, aASN) {
					if cs.Metro != "" && l.Metro != cs.Metro {
						continue
					}
					l.BaseUtil, l.PeakUtil = cs.BaseUtil, cs.PeakUtil
					if cs.CapacityMbps > 0 {
						l.CapacityMbps = cs.CapacityMbps
					}
				}
			}
		}
	}
}

func (b *builder) placeMLab() {
	for _, tr := range datasets.Transits() {
		for _, m := range tr.MLabMetros {
			site := MLabSite{
				Name:    fmt.Sprintf("%s01.%s", m, strings.ToLower(tr.Name)),
				HostNet: tr.Name,
				Metro:   m,
			}
			for s := 0; s < b.cfg.Scale.ServersPerMLabSite; s++ {
				site.Servers = append(site.Servers, Host{
					Name:    fmt.Sprintf("ndt-%s-%d", site.Name, s+1),
					Network: tr.Name,
					Endpoint: routing.Endpoint{
						Addr: b.hostAddr(tr.ASN), ASN: tr.ASN, Metro: m,
						Router: b.cores[tr.ASN][m].ID,
					},
				})
			}
			b.world.MLabSites = append(b.world.MLabSites, site)
		}
	}
}

func (b *builder) placeSpeedtest() {
	scale := func(n int) int {
		v := int(float64(float64(n)*b.cfg.SpeedtestFactor) + 0.5)
		if n > 0 && v == 0 {
			v = 1
		}
		return v
	}
	add := func(name string, network string, asn topology.ASN, metro string) {
		core := b.cores[asn][metro]
		if core == nil {
			if ms := b.topo.AS(asn).Metros; len(ms) > 0 {
				core = b.cores[asn][ms[0]]
			}
		}
		if core == nil {
			return
		}
		b.world.Speedtest = append(b.world.Speedtest, Host{
			Name: name, Network: network,
			Endpoint: routing.Endpoint{
				Addr: b.hostAddr(asn), ASN: asn, Metro: core.Metro, Router: core.ID,
			},
		})
	}
	for _, tr := range datasets.Transits() {
		for s := 0; s < scale(tr.SpeedtestServers); s++ {
			m := b.topo.AS(tr.ASN).Metros[s%len(b.topo.AS(tr.ASN).Metros)]
			add(fmt.Sprintf("st-%s-%d", strings.ToLower(tr.Name), s+1), tr.Name, tr.ASN, m)
		}
	}
	for _, p := range datasets.AccessISPs() {
		for s := 0; s < scale(p.SpeedtestServers); s++ {
			m := p.Metros[s%len(p.Metros)]
			owner := b.poolOwner(p.Name, m)
			add(fmt.Sprintf("st-%s-%d", strings.ToLower(strings.ReplaceAll(p.Name, " ", "")), s+1), p.Name, owner, m)
		}
	}
	for _, c := range datasets.ContentNetworks() {
		for s := 0; s < scale(c.SpeedtestServers); s++ {
			add(fmt.Sprintf("st-%s-%d", strings.ToLower(c.Name), s+1), c.Name, c.ASN, c.Metros[s%len(c.Metros)])
		}
	}
	// The long tail: hosting companies and regionals.
	pool := append(append([]topology.ASN{}, b.hostingStubs...), b.regionals...)
	n := scale(b.cfg.Scale.SpeedtestStubServers)
	for s := 0; s < n && len(pool) > 0; s++ {
		asn := pool[b.rng.Intn(len(pool))]
		as := b.topo.AS(asn)
		add(fmt.Sprintf("st-%s-%d", strings.ToLower(as.Name), s+1), as.Name, asn, as.Metros[0])
	}
}

func (b *builder) placeArkVPs() {
	for _, p := range datasets.AccessISPs() {
		for i, m := range p.ArkVPMetros {
			ep, ok := b.world.NewClient(p.Name, m)
			if !ok {
				continue
			}
			b.world.ArkVPs = append(b.world.ArkVPs, ArkVP{
				Label: p.ArkVPLabels[i],
				ISP:   p.Name,
				Host:  Host{Name: p.ArkVPLabels[i], Network: p.Name, Endpoint: ep},
			})
		}
	}
}
