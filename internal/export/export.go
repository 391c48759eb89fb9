// Package export persists measurement campaigns — the public topology
// data (prefix→AS, AS relationships, AS→organization, IXP prefixes)
// plus NDT tests and Paris traceroutes — as columnar corpora
// (columnar.go), so tputlab and the stand-alone tools (cmd/ndtsim,
// cmd/mapit, cmd/bdrmap) can interoperate the way the real
// M-Lab/CAIDA pipelines exchange files.
package export

import (
	"fmt"
	"io"

	"throughputlab/internal/mapit"
	"throughputlab/internal/ndt"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// PrefixOrigin is one prefix→AS row.
type PrefixOrigin struct {
	Prefix netaddr.Prefix `json:"prefix"`
	ASN    topology.ASN   `json:"asn"`
}

// relRow is one AS-relationship row (rel of B as seen from A).
type relRow struct {
	A   topology.ASN `json:"a"`
	B   topology.ASN `json:"b"`
	Rel string       `json:"rel"`
}

// Public is the CAIDA-style public dataset bundle.
type Public struct {
	Prefixes    []PrefixOrigin   `json:"prefixes"`
	IXPPrefixes []netaddr.Prefix `json:"ixp_prefixes"`
	// Orgs maps organization name → member ASNs (AS→org data).
	Orgs map[string][]topology.ASN `json:"orgs"`
	// Rels holds relationships in wire form.
	Rels []relRow `json:"rels"`
}

// Dataset bundles everything one collection campaign publishes, held
// in memory: what FromWorld snapshots and Read materializes.
type Dataset struct {
	Public Public
	Tests  []*ndt.Test
	Traces []*traceroute.Trace
	// TestsWithoutTrace and Completeness carry the corpus bookkeeping a
	// persisted campaign needs for degradation-aware reporting.
	TestsWithoutTrace int
	Completeness      platform.Completeness
}

// FromWorld snapshots a world's public data and an optional corpus.
func FromWorld(w *topogen.World, corpus *platform.Corpus) *Dataset {
	d := &Dataset{Public: Public{Orgs: map[string][]topology.ASN{}}}
	w.Topo.Origin.Walk(func(p netaddr.Prefix, asn topology.ASN) bool {
		d.Public.Prefixes = append(d.Public.Prefixes, PrefixOrigin{Prefix: p, ASN: asn})
		return true
	})
	d.Public.IXPPrefixes = append(d.Public.IXPPrefixes, w.Topo.IXPPrefixes...)
	for _, org := range w.Topo.Orgs {
		if len(org.ASNs) > 0 {
			d.Public.Orgs[org.Name] = org.ASNs
		}
	}
	seen := map[[2]topology.ASN]bool{}
	for _, a := range w.Topo.ASNs() {
		for _, b := range w.Topo.Neighbors(a) {
			if seen[[2]topology.ASN{b, a}] || seen[[2]topology.ASN{a, b}] {
				continue
			}
			seen[[2]topology.ASN{a, b}] = true
			d.Public.Rels = append(d.Public.Rels, relRow{A: a, B: b, Rel: w.Topo.RelOf(a, b).String()})
		}
	}
	if corpus != nil {
		d.Tests = corpus.Tests
		d.Traces = corpus.Traces
		d.TestsWithoutTrace = corpus.TestsWithoutTrace
		d.Completeness = corpus.Completeness
	}
	return d
}

// Validate rejects public bundles whose tables are ambiguous: a prefix
// announced with two different origins, or an AS pair carrying
// contradictory relationships (in either row orientation). Lookups
// would otherwise resolve such conflicts silently by whichever row
// happened to come last.
func (p *Public) Validate() error {
	origins := make(map[netaddr.Prefix]topology.ASN, len(p.Prefixes))
	for _, row := range p.Prefixes {
		if prev, dup := origins[row.Prefix]; dup && prev != row.ASN {
			return fmt.Errorf("export: prefix %v announced with conflicting origins AS%d and AS%d",
				row.Prefix, prev, row.ASN)
		}
		origins[row.Prefix] = row.ASN
	}
	rels := make(map[[2]topology.ASN]topology.Rel, 2*len(p.Rels))
	for _, r := range p.Rels {
		rel := parseRel(r.Rel)
		for _, e := range [...]struct {
			k [2]topology.ASN
			v topology.Rel
		}{
			{[2]topology.ASN{r.A, r.B}, rel},
			{[2]topology.ASN{r.B, r.A}, rel.Invert()},
		} {
			if prev, dup := rels[e.k]; dup && prev != e.v {
				return fmt.Errorf("export: AS pair (%d,%d) carries conflicting relationships %v and %v",
					e.k[0], e.k[1], prev, e.v)
			}
			rels[e.k] = e.v
		}
	}
	return nil
}

// Read decodes a columnar corpus in full, with the footer's
// completeness ledger folded in; the public bundle is validated. It is
// the stand-alone tools' front door: any other input, the retired
// single-blob JSON dataset included, is refused with an error.
func Read(r io.Reader) (*Dataset, error) {
	cr, err := openColumnar(r, 1, EverythingProjection())
	if err != nil {
		return nil, err
	}
	return materializeCorpus(cr)
}

// Lookups builds the runtime lookup structures from the public data.
type Lookups struct {
	Origin *netaddr.Table[topology.ASN]
	ixps   []netaddr.Prefix
	orgOf  map[topology.ASN]string
	rels   map[[2]topology.ASN]topology.Rel
}

// Lookups materializes the dataset's public bundle.
func (d *Dataset) Lookups() *Lookups {
	l := &Lookups{
		Origin: netaddr.NewTable[topology.ASN](),
		orgOf:  map[topology.ASN]string{},
		rels:   map[[2]topology.ASN]topology.Rel{},
	}
	for _, row := range d.Public.Prefixes {
		l.Origin.Insert(row.Prefix, row.ASN)
	}
	l.ixps = d.Public.IXPPrefixes
	for name, asns := range d.Public.Orgs {
		for _, a := range asns {
			l.orgOf[a] = name
		}
	}
	for _, r := range d.Public.Rels {
		rel := parseRel(r.Rel)
		l.rels[[2]topology.ASN{r.A, r.B}] = rel
		l.rels[[2]topology.ASN{r.B, r.A}] = rel.Invert()
	}
	return l
}

func parseRel(s string) topology.Rel {
	switch s {
	case "customer":
		return topology.RelCustomer
	case "provider":
		return topology.RelProvider
	case "peer":
		return topology.RelPeer
	case "sibling":
		return topology.RelSibling
	}
	return topology.RelNone
}

// OriginOf is the prefix→AS lookup.
func (l *Lookups) OriginOf(a netaddr.Addr) (topology.ASN, bool) {
	asn, _, ok := l.Origin.Lookup(a)
	return asn, ok
}

// IsIXP reports whether the address is in an IXP peering LAN.
func (l *Lookups) IsIXP(a netaddr.Addr) bool {
	for _, p := range l.ixps {
		if p.Contains(a) {
			return true
		}
	}
	return false
}

// SameOrg reports shared organization membership.
func (l *Lookups) SameOrg(a, b topology.ASN) bool {
	if a == b {
		return true
	}
	oa, ok := l.orgOf[a]
	return ok && oa == l.orgOf[b]
}

// Rel returns the relationship of b as seen from a.
func (l *Lookups) Rel(a, b topology.ASN) topology.Rel {
	return l.rels[[2]topology.ASN{a, b}]
}

// MapItOpts assembles MAP-IT options from the lookups.
func (l *Lookups) MapItOpts() mapit.Opts {
	return mapit.Opts{
		Prefix2AS: l.OriginOf,
		IsIXP:     l.IsIXP,
		SameOrg:   l.SameOrg,
	}
}
