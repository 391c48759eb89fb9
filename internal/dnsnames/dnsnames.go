// Package dnsnames assigns reverse-DNS (PTR) names to router
// interfaces and provides the parsing helpers the analysis uses to
// group parallel interdomain links by router.
//
// Interdomain interfaces follow the operator convention the paper
// leans on in §4.3: the interface an AS provisions for a peer is named
// "<PEER-TOKEN>.<router>.<as-domain>", e.g.
// "COX-COMMUNI.edge5.Dallas3.Level3.net" — twelve such names sharing
// the "edge5.Dallas3.Level3.net" suffix revealed twelve parallel links
// to Cox on one Level3 router in Dallas. Intra-domain interfaces are
// named "<router>.<as-domain>". A per-assignment fraction of
// interfaces gets no PTR record at all, as in the wild.
package dnsnames

import (
	"strings"

	"throughputlab/internal/obs"
	"throughputlab/internal/stream"
	"throughputlab/internal/topology"
)

// Domain derives a DNS domain for an organization name:
// "Level3 Communications" → "level3communications.net" is too long for
// the paper's flavor, so the first word is used: "level3.net".
func Domain(orgName string) string {
	fields := strings.FieldsFunc(orgName, func(r rune) bool {
		return r == ' ' || r == '.'
	})
	if len(fields) == 0 {
		return "unknown.net"
	}
	return sanitize(strings.ToLower(fields[0])) + ".net"
}

// PeerToken derives the uppercase peer tag used on interdomain
// interfaces: "Cox Communications" → "COX-COMMUNI" (11 characters, as
// in the paper's examples).
func PeerToken(orgName string) string {
	s := strings.ToUpper(orgName)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '&' || r == '.':
			if b.Len() > 0 && b.String()[b.Len()-1] != '-' {
				b.WriteByte('-')
			}
		}
	}
	tok := strings.Trim(b.String(), "-")
	if len(tok) > 11 {
		tok = tok[:11]
	}
	if tok == "" {
		tok = "PEER"
	}
	return tok
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "x"
	}
	return b.String()
}

// Assign writes DNSName on every interface of the topology, sharded
// per-AS over workers (one or fewer runs inline). noPTRFrac of
// interfaces get an empty name, simulating missing PTR records. Each
// AS gets its own RNG stream derived splitmix-style from (seed, AS
// index) and every interface belongs to exactly one AS, so writes are
// disjoint and the result depends only on (topology, seed, noPTRFrac):
// it is byte-identical at any worker count. sp, when non-nil, receives
// one child span per worker goroutine.
func Assign(t *topology.Topology, seed int64, noPTRFrac float64, workers int, sp *obs.Span) {
	orgName := func(asn topology.ASN) string {
		as := t.AS(asn)
		if as == nil {
			return "unknown"
		}
		if as.Org != nil {
			return as.Org.Name
		}
		return as.Name
	}
	// Intern one domain and one peer token per AS up front; the old
	// per-interface Domain/PeerToken calls dominated the allocation
	// profile of world generation.
	asns := t.ASNs()
	domains := make(map[topology.ASN]string, len(asns))
	tokens := make(map[topology.ASN]string, len(asns))
	for _, asn := range asns {
		name := orgName(asn)
		domains[asn] = Domain(name)
		tokens[asn] = PeerToken(name)
	}

	stream.For(len(asns), workers, sp, func(_, i int) {
		as := t.AS(asns[i])
		rng := splitmix{state: uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15}
		domain := domains[as.ASN]
		for _, r := range as.Routers {
			// All intra-domain interfaces on a router share one name;
			// interdomain ones share its suffix. Build it once.
			fqdn := r.Name + "." + domain
			for _, ifc := range r.Ifaces {
				if ifc.Addr.IsZero() {
					continue
				}
				if rng.Float64() < noPTRFrac {
					ifc.DNSName = ""
					continue
				}
				l := ifc.Link
				if l.Kind == topology.LinkInterdomain {
					var peer topology.ASN
					if l.A == ifc {
						peer = l.ASB()
					} else {
						peer = l.ASA()
					}
					tok, ok := tokens[peer]
					if !ok {
						tok = PeerToken(orgName(peer))
					}
					ifc.DNSName = tok + "." + fqdn
				} else {
					ifc.DNSName = fqdn
				}
			}
		}
	})
}

// splitmix is a SplitMix64 generator: one uint64 of state, no
// allocation. Each AS gets a state offset by the golden-ratio step
// from the master seed — the same derivation the platform package's
// shardSeed uses — so streams are decorrelated across ASes and from
// the master stream, and a worker picking up AS i always replays the
// identical draw sequence.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1) with 53 random bits, like
// math/rand's Float64.
func (s *splitmix) Float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// RouterFQDN strips the peer token off an interdomain interface name,
// returning the router's qualified name ("edge5.Dallas3.level3.net").
// For names without a peer token (intra-domain convention) it returns
// the name unchanged; for empty names it returns "".
func RouterFQDN(dnsName string) string {
	if dnsName == "" {
		return ""
	}
	i := strings.IndexByte(dnsName, '.')
	if i < 0 {
		return dnsName
	}
	first := dnsName[:i]
	// Peer tokens are all-caps; router labels are lower/mixed case.
	if first == strings.ToUpper(first) && strings.ContainsAny(first, "ABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		return dnsName[i+1:]
	}
	return dnsName
}
