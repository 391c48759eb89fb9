// Package traceroute simulates Paris traceroute over resolved
// router-level paths. Paris traceroute holds the header fields that
// load balancers hash constant within a trace, so one trace sees one
// consistent path (§3); across traces, different flow identifiers may
// legitimately take different ECMP members.
//
// The simulator reproduces the artifacts that make interdomain-link
// inference hard (§4.2, [25]):
//   - point-to-point interfaces numbered out of either AS's space (this
//     comes from the topology itself);
//   - third-party addresses: a router may reply with an interface that
//     is not the one the probe entered on;
//   - unresponsive hops ("*");
//   - unresponsive destinations (NAT/firewalled clients).
package traceroute

import (
	"math/rand"

	"throughputlab/internal/netaddr"
	"throughputlab/internal/routing"
	"throughputlab/internal/topology"
)

// Hop is one TTL step of a trace.
type Hop struct {
	TTL int
	// Addr is the replying interface address; zero means no reply.
	Addr netaddr.Addr
	// DNSName is the PTR record of the replying interface ("" if none).
	DNSName string
	// RTTms is the probe round-trip time.
	RTTms float64
}

// NoReply reports whether the hop timed out.
func (h Hop) NoReply() bool { return h.Addr.IsZero() }

// Trace is one Paris traceroute.
type Trace struct {
	SrcAddr, DstAddr netaddr.Addr
	// LaunchMinute is the simulation time the trace started.
	LaunchMinute int
	// FlowEntropy is the Paris flow identifier (kept constant within
	// the trace).
	FlowEntropy uint32
	Hops        []Hop
	// Reached reports whether the destination replied. The invariant —
	// enforced by Normalize — is that Reached implies the final hop is
	// a reply from DstAddr; a no-reply final hop is never a reached
	// destination, no matter how the hops were perturbed.
	Reached bool
	// Degraded marks a trace maimed after collection by the fault
	// layer (probe loss, ICMP rate limiting): its responsive hops may
	// be non-adjacent on the real path, so inference layers skip it
	// rather than ingest false adjacencies. Artifact draws at
	// collection time (Artifacts) never set it.
	Degraded bool
}

// Normalize enforces the trace's structural invariant: Reached stays
// true only while the final hop actually replied with the destination
// address. Collection sets Reached and the final hop together, but
// post-collection perturbation (the fault layer) can blank the
// destination hop — anything that rewrites Hops must route through
// Normalize so a NoReply final hop cannot be counted as a reached
// destination.
func (t *Trace) Normalize() {
	if len(t.Hops) == 0 {
		t.Reached = false
		return
	}
	if last := t.Hops[len(t.Hops)-1]; last.NoReply() || last.Addr != t.DstAddr {
		t.Reached = false
	}
}

// Artifacts configures measurement imperfections.
type Artifacts struct {
	// ThirdPartyProb is the chance a router replies with an interface
	// other than the in-path ingress.
	ThirdPartyProb float64
	// NoReplyProb is the chance a router hop times out.
	NoReplyProb float64
	// DstNoReplyProb is the chance the destination host never replies.
	DstNoReplyProb float64
}

// DefaultArtifacts returns rates typical of wide-area campaigns.
func DefaultArtifacts() Artifacts {
	return Artifacts{ThirdPartyProb: 0.05, NoReplyProb: 0.03, DstNoReplyProb: 0.12}
}

// Clean returns artifact-free settings (useful for unit tests).
func Clean() Artifacts { return Artifacts{} }

// Tracer issues simulated traceroutes.
type Tracer struct {
	topo *topology.Topology
	rv   *routing.Resolver
	art  Artifacts
}

// New builds a Tracer.
func New(t *topology.Topology, rv *routing.Resolver, art Artifacts) *Tracer {
	return &Tracer{topo: t, rv: rv, art: art}
}

// canonicalIface returns the interface a router tends to reply with
// when not using the ingress (its first addressed interface).
func canonicalIface(r *topology.Router) *topology.Interface {
	for _, ifc := range r.Ifaces {
		if !ifc.Addr.IsZero() {
			return ifc
		}
	}
	return nil
}

// Trace performs one Paris traceroute from src to dst at the given
// simulation minute. rng drives the artifact draws; it must not be nil
// unless all artifact probabilities are zero.
func (tr *Tracer) Trace(src, dst routing.Endpoint, entropy uint32, minute int, rng *rand.Rand) (*Trace, error) {
	key := routing.FlowKey(src.Addr, dst.Addr, entropy)
	path, err := tr.rv.Resolve(src, dst, key)
	if err != nil {
		return nil, err
	}
	out := &Trace{
		SrcAddr: src.Addr, DstAddr: dst.Addr,
		LaunchMinute: minute, FlowEntropy: entropy,
		Hops: make([]Hop, 0, len(path.Hops)+1),
	}
	// Cumulative RTT per hop approximated by scaling the full-path base
	// RTT by hop position (queueing noise added per probe).
	fullRTT := tr.rv.RTTms(&path)
	nHops := len(path.Hops) + 1 // + destination

	for i, h := range path.Hops {
		// The source's own attachment router does not appear in a
		// traceroute (TTL=1 is the first router beyond the host only
		// when the host is directly attached; M-Lab servers sit on the
		// site switch, so hop 1 IS the attachment router).
		hop := Hop{TTL: i + 1}
		if rng != nil && rng.Float64() < tr.art.NoReplyProb {
			out.Hops = append(out.Hops, hop)
			continue
		}
		ifc := h.Ingress
		if ifc == nil {
			ifc = canonicalIface(h.Router)
		}
		if rng != nil && tr.art.ThirdPartyProb > 0 && rng.Float64() < tr.art.ThirdPartyProb {
			// Third-party address: reply sourced from another interface
			// of the same router.
			if alt := pickOtherIface(h.Router, ifc, rng); alt != nil {
				ifc = alt
			}
		}
		if ifc != nil {
			hop.Addr = ifc.Addr
			hop.DNSName = ifc.DNSName
		}
		hop.RTTms = fullRTT * float64(i+1) / float64(nHops)
		if rng != nil {
			hop.RTTms *= 1 + float64(0.05*rng.Float64())
		}
		out.Hops = append(out.Hops, hop)
	}

	// Destination hop.
	dstHop := Hop{TTL: len(path.Hops) + 1, Addr: dst.Addr, RTTms: fullRTT}
	if rng != nil && rng.Float64() < tr.art.DstNoReplyProb {
		dstHop.Addr = 0
		out.Reached = false
	} else {
		out.Reached = true
	}
	out.Hops = append(out.Hops, dstHop)
	out.Normalize()
	return out, nil
}

// pickOtherIface selects the interface a router answers with when not
// using the in-path ingress. Routers overwhelmingly source replies from
// an interface numbered out of their own AS's space (the egress toward
// the probe source), so own-space candidates are strongly preferred;
// occasionally the reply comes from a borrowed-space interface — the
// case that genuinely confuses AS-boundary identification [25].
func pickOtherIface(r *topology.Router, current *topology.Interface, rng *rand.Rand) *topology.Interface {
	candidate := func(ifc *topology.Interface) bool { return ifc != current && !ifc.Addr.IsZero() }
	own, foreign := 0, 0
	for _, ifc := range r.Ifaces {
		if !candidate(ifc) {
			continue
		}
		if ifc.AddrOwner == r.AS {
			own++
		} else {
			foreign++
		}
	}
	// Draw the class, then the k-th candidate of that class: counting
	// first keeps the scan off the heap at any router degree.
	var ownSpace bool
	var k int
	switch {
	case own > 0 && (foreign == 0 || rng.Float64() < 0.9):
		ownSpace, k = true, rng.Intn(own)
	case foreign > 0:
		k = rng.Intn(foreign)
	default:
		return nil
	}
	for _, ifc := range r.Ifaces {
		if !candidate(ifc) || (ifc.AddrOwner == r.AS) != ownSpace {
			continue
		}
		if k == 0 {
			return ifc
		}
		k--
	}
	return nil
}

// ResponsiveAddrs returns the non-star hop addresses in order,
// deduplicating consecutive repeats.
func (t *Trace) ResponsiveAddrs() []netaddr.Addr {
	out := make([]netaddr.Addr, 0, len(t.Hops))
	for _, h := range t.Hops {
		if h.NoReply() {
			continue
		}
		if len(out) > 0 && out[len(out)-1] == h.Addr {
			continue
		}
		out = append(out, h.Addr)
	}
	return out
}
