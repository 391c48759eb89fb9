package platform

import (
	"context"
	"math/rand"

	"throughputlab/internal/netaddr"
	"throughputlab/internal/routing"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// EndpointForAddr builds a destination endpoint for an arbitrary
// address: the origin AS is looked up in the public prefix→AS table,
// and the host is attached to that AS's access router when the address
// falls in a client pool, or to a core router otherwise. Campaigns use
// this to probe "one address in every routed prefix" (bdrmap's
// collection phase, §5.1).
func EndpointForAddr(w *topogen.World, addr netaddr.Addr) (routing.Endpoint, bool) {
	asn, ok := w.Topo.OriginOf(addr)
	if !ok {
		return routing.Endpoint{}, false
	}
	as := w.Topo.AS(asn)
	if as == nil || len(as.Routers) == 0 {
		return routing.Endpoint{}, false
	}
	// Client pool?
	for metro, pool := range as.ClientPools {
		if pool.Contains(addr) {
			for _, r := range as.Routers {
				if r.Kind == topology.RouterAccess && r.Metro == metro {
					return routing.Endpoint{Addr: addr, ASN: asn, Metro: metro, Router: r.ID}, true
				}
			}
		}
	}
	// Default: first core router (deterministic: Routers preserves
	// creation order, cores first).
	r := as.Routers[0]
	return routing.Endpoint{Addr: addr, ASN: asn, Metro: r.Metro, Router: r.ID}, true
}

// RoutedPrefixTargets returns one probe target per routed prefix, the
// input list for a bdrmap-style campaign.
func RoutedPrefixTargets(w *topogen.World) []routing.Endpoint {
	var out []routing.Endpoint
	seen := map[netaddr.Addr]bool{}
	w.Topo.Origin.Walk(func(p netaddr.Prefix, _ topology.ASN) bool {
		// Nested prefixes (a pool inside its AS block) can share probe
		// addresses; keep the first.
		addr := p.Nth(1 % p.NumAddrs())
		if seen[addr] {
			return true
		}
		seen[addr] = true
		if ep, ok := EndpointForAddr(w, addr); ok {
			out = append(out, ep)
		}
		return true
	})
	return out
}

// Campaign runs traceroutes from a VP to every target, returning the
// traces in target order (errors, e.g. unroutable targets, are
// skipped: real campaigns lose some traces too). Between targets it
// stops once ctx is done, returning no traces and an error that wraps
// the context's cause.
func Campaign(ctx context.Context, w *topogen.World, vp routing.Endpoint, targets []routing.Endpoint,
	art traceroute.Artifacts, seed int64) ([]*traceroute.Trace, error) {

	rng := rand.New(rand.NewSource(seed))
	tracer := traceroute.New(w.Topo, w.Resolver, art)
	out := make([]*traceroute.Trace, 0, len(targets))
	minute := 0
	for i, tgt := range targets {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		if tgt.Addr == vp.Addr {
			continue
		}
		tr, err := tracer.Trace(vp, tgt, uint32(i), minute, rng)
		if err != nil {
			continue
		}
		out = append(out, tr)
		minute += 1 // campaigns spread over time
	}
	return out, nil
}

// HostTargets converts platform hosts (M-Lab servers, Speedtest
// servers, content replicas) into probe targets.
func HostTargets(hosts []topogen.Host) []routing.Endpoint {
	out := make([]routing.Endpoint, len(hosts))
	for i, h := range hosts {
		out[i] = h.Endpoint
	}
	return out
}

// AlexaTargets resolves every popular domain from the VP's metro (using
// the ISP's resolver, as §5.1 does) and returns the distinct resolved
// endpoints.
func AlexaTargets(w *topogen.World, vpMetro string) []routing.Endpoint {
	seen := map[netaddr.Addr]bool{}
	var out []routing.Endpoint
	for _, d := range w.Domains {
		h, ok := w.ResolveDomain(d, vpMetro)
		if !ok || seen[h.Endpoint.Addr] {
			continue
		}
		seen[h.Endpoint.Addr] = true
		out = append(out, h.Endpoint)
	}
	return out
}
