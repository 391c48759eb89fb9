// Package topogen generates the synthetic Internet: it instantiates the
// dataset profiles into a concrete topology (organizations, sibling
// ASNs, routers, interdomain links with metro placement and parallel
// members, IXPs, client pools), computes BGP routes, and places the
// measurement infrastructure (M-Lab sites, Speedtest servers, Ark
// vantage points, content replicas and hosted domains).
//
// Generation is fully deterministic for a given Config.
package topogen

import (
	"math/rand"

	"throughputlab/internal/bgp"
	"throughputlab/internal/datasets"
	"throughputlab/internal/geo"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/netsim"
	"throughputlab/internal/obs"
	"throughputlab/internal/routing"
	"throughputlab/internal/topology"
)

// CongestionSpec marks one interconnection as congested (or busy): all
// interdomain links between the transit and the access org in the given
// metro get the specified utilization profile.
type CongestionSpec struct {
	Transit string // transit profile name, e.g. "GTT"
	Access  string // access profile name, e.g. "AT&T"
	Metro   string // "" = all metros of that interconnection
	// BaseUtil/PeakUtil override the healthy defaults; PeakUtil ≥ 1
	// saturates the link at peak hours.
	BaseUtil, PeakUtil float64
	// CapacityMbps optionally overrides capacity (0 keeps default).
	CapacityMbps float64
}

// DefaultCongestion reproduces the paper's Figure 5 case study: the
// GTT–AT&T interconnection in Atlanta saturates at peak (NDT throughput
// collapses below 1 Mbps), while GTT–Comcast stays merely busy. Two
// further congested interconnections add variety for the tomography and
// threshold experiments.
func DefaultCongestion() []CongestionSpec {
	return []CongestionSpec{
		// The M-Lab 2015 update saw AT&T degradation "across measurement
		// points", most notably GTT: saturate the whole GTT-AT&T
		// interconnection (every metro).
		{Transit: "GTT", Access: "AT&T", Metro: "atl", BaseUtil: 0.45, PeakUtil: 1.30, CapacityMbps: 2000},
		{Transit: "GTT", Access: "AT&T", Metro: "", BaseUtil: 0.45, PeakUtil: 1.30, CapacityMbps: 2000},
		{Transit: "GTT", Access: "Comcast", Metro: "atl", BaseUtil: 0.35, PeakUtil: 0.85},
		{Transit: "Cogent", Access: "Verizon", Metro: "nyc", BaseUtil: 0.40, PeakUtil: 1.15, CapacityMbps: 3000},
		{Transit: "Tata", Access: "Time Warner Cable", Metro: "lax", BaseUtil: 0.40, PeakUtil: 1.10, CapacityMbps: 2000},
	}
}

// Scenario returns a named congestion scenario:
//
//   - "paper": DefaultCongestion — the Figure 5 case study plus two
//     more saturated interconnections.
//   - "healthy": no saturated links anywhere (the null hypothesis the
//     detector must not reject).
//   - "widespread": every GTT and Cogent interconnection with the big
//     four access ISPs saturates — the Battle-for-the-Net-era claim of
//     broad transit congestion.
//   - "regional": the paper's [14] regional-effects case — one ISP
//     congested at a single metro only.
//
// Unknown names fall back to "paper".
func Scenario(name string) []CongestionSpec {
	switch name {
	case "healthy":
		return []CongestionSpec{}
	case "widespread":
		var out []CongestionSpec
		for _, tr := range []string{"GTT", "Cogent"} {
			for _, isp := range []string{"Comcast", "AT&T", "Verizon", "Time Warner Cable"} {
				out = append(out, CongestionSpec{
					Transit: tr, Access: isp, Metro: "",
					BaseUtil: 0.45, PeakUtil: 1.2, CapacityMbps: 2500,
				})
			}
		}
		return out
	case "regional":
		return []CongestionSpec{
			{Transit: "Level3", Access: "Comcast", Metro: "chi", BaseUtil: 0.5, PeakUtil: 1.25, CapacityMbps: 2000},
		}
	default:
		return DefaultCongestion()
	}
}

// Config parameterizes generation.
type Config struct {
	Seed  int64
	Scale datasets.ScaleConfig
	// Congestion defaults to DefaultCongestion when nil; pass an empty
	// non-nil slice for a fully healthy Internet.
	Congestion []CongestionSpec
	// NoPTRFrac is the fraction of interfaces without reverse DNS.
	NoPTRFrac float64
	// SpeedtestFactor scales the number of Speedtest servers (§5.4's
	// later snapshot grew the fleet ~1.45x while M-Lab stayed flat).
	SpeedtestFactor float64
	// Workers sets the parallelism of the generation phases that fan
	// out (BGP route computation, DNS naming, validation). Values < 1
	// mean serial. The generated world is byte-identical at any worker
	// count: parallel phases shard deterministically and derive per-shard
	// RNG streams from Seed rather than sharing the master stream.
	Workers int
	// LazyRoutes computes per-destination BGP trees on first use instead
	// of materializing the full n×n tables at generation time. Routing
	// answers are identical either way (bgp.ComputeLazy); only memory
	// and generation time change. A report campaign's world is lazy:
	// its collection and bdrmap stages read a few dozen of the n trees.
	// The experiments' world stays eager: their traceroute sweeps read
	// every destination, so laziness saves nothing and moves the tree
	// computation off generation's worker pool onto the readers. Worlds
	// with ≥ lazyRouteThreshold ASes switch to lazy mode regardless,
	// since their eager tables would need tens of GB.
	LazyRoutes bool
	// Obs, when non-nil, receives generation phase spans and
	// produced-entity gauges, and the world's resolver reports its cache
	// counters there. Instrumentation never changes the generated world.
	Obs *obs.Registry
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Scale:           datasets.DefaultScale(),
		NoPTRFrac:       0.12,
		SpeedtestFactor: 1,
	}
}

// SmallConfig returns a reduced configuration for tests and examples.
func SmallConfig() Config {
	return Config{
		Seed:            1,
		Scale:           datasets.SmallScale(),
		NoPTRFrac:       0.12,
		SpeedtestFactor: 1,
	}
}

// Host is a measurement endpoint placed in the topology (server, VP, or
// content replica).
type Host struct {
	Name string
	// Network is the name of the hosting organization.
	Network  string
	Endpoint routing.Endpoint
}

// MLabSite is one M-Lab site: a few NDT servers in one host network and
// metro, like the paper's "atl01 (Level 3)".
type MLabSite struct {
	Name    string // e.g. "atl01.gtt"
	HostNet string // transit profile name
	Metro   string
	Servers []Host
}

// ArkVP is an Ark vantage point inside an access ISP (§5.1).
type ArkVP struct {
	Label string // paper VP label, e.g. "bed-us"
	ISP   string // access profile name
	Host  Host
}

// AccessNet collects the generated footprint of one access ISP.
type AccessNet struct {
	Profile datasets.AccessProfile
	Org     *topology.Org
	// PoolByMetro maps metro → the endpoint template for clients there:
	// ASN (backbone or regional sibling), access router and access
	// line. Client addresses are drawn from the pool prefix.
	PoolByMetro map[string]*PoolInfo
}

// PoolInfo describes one metro's client pool.
type PoolInfo struct {
	ASN        topology.ASN
	Metro      string
	Prefix     netaddr.Prefix
	Router     topology.RouterID
	AccessLine *topology.Link
	// next is the per-pool client address cursor.
	next uint64
}

// World is the generated universe plus derived routing/model state.
type World struct {
	Cfg      Config
	Topo     *topology.Topology
	Routes   *bgp.Routes
	Resolver *routing.Resolver
	Model    *netsim.Model

	MLabSites []MLabSite
	Speedtest []Host
	ArkVPs    []ArkVP

	// ContentReplicas maps content org name → its replicas.
	ContentReplicas map[string][]Host
	// DomainHosts pins hosted (non-CDN) popular domains to a hosting
	// company host.
	DomainHosts map[string]Host
	// Domains is the popular-domain list in effect.
	Domains []datasets.PopularDomain

	// Access maps access ISP name → its generated footprint.
	Access map[string]*AccessNet

	rng *rand.Rand
}

// MLabServers flattens all NDT servers across sites.
func (w *World) MLabServers() []Host {
	var out []Host
	for _, s := range w.MLabSites {
		out = append(out, s.Servers...)
	}
	return out
}

// NewClient draws a fresh client endpoint from the ISP's pool in the
// given metro, advancing the pool's shared cursor. ok is false when
// the ISP has no pool there. NewClient mutates the World and must not
// be called concurrently; pure callers (corpus collection) use
// ClientAt instead.
func (w *World) NewClient(isp, metro string) (routing.Endpoint, bool) {
	an := w.Access[isp]
	if an == nil {
		return routing.Endpoint{}, false
	}
	pi := an.PoolByMetro[metro]
	if pi == nil {
		return routing.Endpoint{}, false
	}
	pi.next++
	return w.clientEndpoint(pi, metro, pi.next), true
}

// ClientAt returns the nth client endpoint of the ISP's pool in the
// given metro without touching the shared pool cursor, so concurrent
// callers are safe and repeated campaigns see identical households.
// ClientAt(isp, metro, 0) equals the first NewClient draw on a fresh
// world.
func (w *World) ClientAt(isp, metro string, n uint64) (routing.Endpoint, bool) {
	an := w.Access[isp]
	if an == nil {
		return routing.Endpoint{}, false
	}
	pi := an.PoolByMetro[metro]
	if pi == nil {
		return routing.Endpoint{}, false
	}
	return w.clientEndpoint(pi, metro, n+1), true
}

// clientEndpoint materializes pool draw number cursor (1-based),
// skipping the network address and wrapping within the pool.
func (w *World) clientEndpoint(pi *PoolInfo, metro string, cursor uint64) routing.Endpoint {
	n := cursor%(pi.Prefix.NumAddrs()-2) + 1
	return routing.Endpoint{
		Addr:       pi.Prefix.Nth(n),
		ASN:        pi.ASN,
		Metro:      metro,
		Router:     pi.Router,
		AccessLine: pi.AccessLine,
	}
}

// ResolveDomain emulates a DNS lookup of a popular domain from a
// resolver in the given metro: CDN-served domains resolve to the
// geographically nearest replica of the serving org; hosted domains
// resolve to their fixed hosting company (§5.1 "the resolved IP
// addresses differ per VP").
func (w *World) ResolveDomain(d datasets.PopularDomain, clientMetro string) (Host, bool) {
	if d.ContentOrg == "" {
		h, ok := w.DomainHosts[d.Name]
		return h, ok
	}
	replicas := w.ContentReplicas[d.ContentOrg]
	if len(replicas) == 0 {
		return Host{}, false
	}
	cm := w.Topo.MustMetro(clientMetro)
	best, bestD := replicas[0], -1.0
	for _, r := range replicas {
		d := geo.DistanceKm(cm, w.Topo.MustMetro(r.Endpoint.Metro))
		if bestD < 0 || d < bestD {
			best, bestD = r, d
		}
	}
	return best, true
}

// NearestMLabSite returns the site with the lowest propagation delay to
// the metro — M-Lab's proximity-based server selection (§2.1). The
// returned slice view of candidate sites within slackMs of the best
// supports the "Battle for the Net" multi-server variant (§2.2).
func (w *World) NearestMLabSite(metro string, slackMs float64) []*MLabSite {
	cm := w.Topo.MustMetro(metro)
	best := -1.0
	dist := make([]float64, len(w.MLabSites))
	for i := range w.MLabSites {
		d := geo.PropagationDelayMs(cm, w.Topo.MustMetro(w.MLabSites[i].Metro))
		dist[i] = d
		if best < 0 || d < best {
			best = d
		}
	}
	var out []*MLabSite
	for i := range w.MLabSites {
		if dist[i] <= best+slackMs {
			out = append(out, &w.MLabSites[i])
		}
	}
	return out
}
