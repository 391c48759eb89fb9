package topology

import (
	"fmt"
	"sort"

	"throughputlab/internal/obs"
	"throughputlab/internal/stream"
)

// checkShard is one independently-checkable slice of the topology; its
// position in the shard list fixes where its errors land in the merged
// result, so the output is identical for every worker count.
type checkShard func() []error

// Validate checks structural invariants of the topology and returns all
// violations found. The topology generator's tests require an empty
// result; it is also a useful debugging aid for hand-built topologies.
//
// Invariants checked:
//   - every relationship references known ASes and is symmetric
//     (RelOf(a,b) == RelOf(b,a).Invert());
//   - sibling relationships connect ASes of the same organization;
//   - every router belongs to a known AS and a known metro;
//   - interdomain links connect border routers of different ASes, and
//     both interface addresses are owned by one of the two ASes or an
//     IXP;
//   - intra-AS links connect routers of the same AS;
//   - every non-zero interface address is unique and resolvable via
//     IfaceByAddr;
//   - every client pool prefix is originated by its AS;
//   - the link's metro matches both routers' metros for interdomain
//     links (interdomain interconnection is physically local, §4.3).
//
// The per-AS and per-link checks are sharded over workers (one or
// fewer runs inline). Shards are fixed work slices (AS ranges, link
// ranges) checked in deterministic iteration order, and their error
// lists are concatenated in shard order, so the result is
// byte-identical at every worker count and scheduling. sp, when
// non-nil, receives one child span per worker goroutine.
func (t *Topology) Validate(workers int, sp *obs.Span) []error {
	workers = max(workers, 1)
	// Shard the AS-indexed checks (relationships, client pools) over
	// t.order ranges and the link checks over index ranges. Chunks are
	// sized for a few shards per worker so stragglers even out.
	var shards []checkShard
	chunk := func(n int) int {
		c := (n + workers*4 - 1) / (workers * 4)
		if c < 1 {
			c = 1
		}
		return c
	}
	for lo, step := 0, chunk(len(t.order)); lo < len(t.order); lo += step {
		hi := min(lo+step, len(t.order))
		asns := t.order[lo:hi]
		shards = append(shards, func() []error { return t.checkRelationships(asns) })
	}
	shards = append(shards, t.checkDanglingRels)
	for lo, step := 0, chunk(len(t.routers)); lo < len(t.routers); lo += step {
		hi := min(lo+step, len(t.routers))
		rs, base := t.routers[lo:hi], lo
		shards = append(shards, func() []error { return t.checkRouters(rs, base) })
	}
	for lo, step := 0, chunk(len(t.links)); lo < len(t.links); lo += step {
		hi := min(lo+step, len(t.links))
		ls := t.links[lo:hi]
		shards = append(shards, func() []error { return t.checkLinks(ls) })
	}
	shards = append(shards, t.checkIfaceIndex)
	for lo, step := 0, chunk(len(t.order)); lo < len(t.order); lo += step {
		hi := min(lo+step, len(t.order))
		asns := t.order[lo:hi]
		shards = append(shards, func() []error { return t.checkClientPools(asns) })
	}

	out := make([][]error, len(shards))
	stream.For(len(shards), workers, sp, func(_, i int) { out[i] = shards[i]() })

	var errs []error
	for _, e := range out {
		errs = append(errs, e...)
	}
	return errs
}

// checkRelationships validates the relationship entries whose first AS
// is in asns, in (t.order, neighbor-ASN) order.
func (t *Topology) checkRelationships(asns []ASN) []error {
	var errs []error
	for _, a := range asns {
		adj := append([]ASN(nil), t.adj[a]...)
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		for _, b := range adj {
			r := t.rel[[2]ASN{a, b}]
			if r == RelNone {
				continue
			}
			if t.ases[b] == nil {
				errs = append(errs, fmt.Errorf("relationship %v-%v references unknown AS", a, b))
				continue
			}
			if inv := t.rel[[2]ASN{b, a}]; inv != r.Invert() {
				errs = append(errs, fmt.Errorf("asymmetric relationship %v-%v: %v vs %v", a, b, r, inv))
			}
			if r == RelSibling && !t.SameOrg(a, b) {
				errs = append(errs, fmt.Errorf("sibling relationship %v-%v across organizations", a, b))
			}
		}
	}
	return errs
}

// checkDanglingRels reports relationships recorded for ASes that were
// never registered (their entries are invisible to the per-AS pass,
// which walks registered ASes only).
func (t *Topology) checkDanglingRels() []error {
	var unknown []ASN
	for a := range t.adj {
		if t.ases[a] == nil {
			unknown = append(unknown, a)
		}
	}
	sort.Slice(unknown, func(i, j int) bool { return unknown[i] < unknown[j] })
	var errs []error
	for _, a := range unknown {
		adj := append([]ASN(nil), t.adj[a]...)
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
		for _, b := range adj {
			if t.rel[[2]ASN{a, b}] == RelNone {
				continue
			}
			errs = append(errs, fmt.Errorf("relationship %v-%v references unknown AS", a, b))
		}
	}
	return errs
}

// checkRouters validates a contiguous router range starting at ID base.
func (t *Topology) checkRouters(rs []*Router, base int) []error {
	var errs []error
	for i, r := range rs {
		if r.ID != RouterID(base+i) {
			errs = append(errs, fmt.Errorf("router slot %d != ID %d", base+i, r.ID))
		}
		if t.ases[r.AS] == nil {
			errs = append(errs, fmt.Errorf("router %d in unknown AS %d", r.ID, r.AS))
		}
		if _, ok := t.metroByID[r.Metro]; !ok {
			errs = append(errs, fmt.Errorf("router %d in unknown metro %q", r.ID, r.Metro))
		}
	}
	return errs
}

// checkLinks validates a contiguous link range.
func (t *Topology) checkLinks(ls []*Link) []error {
	var errs []error
	add := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	for _, l := range ls {
		switch l.Kind {
		case LinkInterdomain:
			if l.B == nil {
				add("interdomain link %d missing B end", l.ID)
				continue
			}
			if l.ASA() == l.ASB() {
				add("interdomain link %d connects %d to itself", l.ID, l.ASA())
			}
			if l.A.Router.Kind != RouterBorder || l.B.Router.Kind != RouterBorder {
				add("interdomain link %d has non-border endpoint", l.ID)
			}
			if l.A.Router.Metro != l.Metro || l.B.Router.Metro != l.Metro {
				add("interdomain link %d metro %q does not match routers (%q, %q)",
					l.ID, l.Metro, l.A.Router.Metro, l.B.Router.Metro)
			}
			for _, ifc := range []*Interface{l.A, l.B} {
				ok := ifc.AddrOwner == l.ASA() || ifc.AddrOwner == l.ASB()
				if l.IXP != nil && l.IXP.Prefix.Contains(ifc.Addr) {
					ok = true
				}
				if !ok {
					add("interdomain link %d interface %v numbered from uninvolved AS %d",
						l.ID, ifc.Addr, ifc.AddrOwner)
				}
			}
		case LinkIntra:
			if l.B == nil {
				add("intra link %d missing B end", l.ID)
				continue
			}
			if l.ASA() != l.ASB() {
				add("intra link %d spans ASes %d and %d", l.ID, l.ASA(), l.ASB())
			}
		case LinkAccessLine:
			if l.B != nil {
				add("access line %d should have nil B end", l.ID)
			}
			if l.A.Router.Kind != RouterAccess {
				add("access line %d not on an access router", l.ID)
			}
		}
		if l.CapacityMbps <= 0 {
			add("link %d has non-positive capacity", l.ID)
		}
		if l.BaseUtil < 0 || l.PeakUtil < l.BaseUtil {
			add("link %d has inconsistent utilization (base %v, peak %v)",
				l.ID, l.BaseUtil, l.PeakUtil)
		}
	}
	return errs
}

// checkIfaceIndex validates the address index. The map scan stays in
// one shard: the invariant is per-entry and violations are impossible
// to order deterministically across a split map anyway.
func (t *Topology) checkIfaceIndex() []error {
	var errs []error
	for addr, ifc := range t.IfaceByAddr {
		if ifc.Addr != addr {
			errs = append(errs, fmt.Errorf("IfaceByAddr[%v] has address %v", addr, ifc.Addr))
		}
	}
	return errs
}

// checkClientPools validates client pool origination for the given
// ASes, with per-AS metros visited in sorted order.
func (t *Topology) checkClientPools(asns []ASN) []error {
	var errs []error
	for _, asn := range asns {
		a := t.ases[asn]
		metros := make([]string, 0, len(a.ClientPools))
		for m := range a.ClientPools {
			metros = append(metros, m)
		}
		sort.Strings(metros)
		for _, metro := range metros {
			pool := a.ClientPools[metro]
			if _, ok := t.metroByID[metro]; !ok {
				errs = append(errs, fmt.Errorf("AS %d client pool in unknown metro %q", asn, metro))
			}
			origin, _, ok := t.Origin.Lookup(pool.Addr())
			if !ok {
				errs = append(errs, fmt.Errorf("AS %d client pool %v not originated", asn, pool))
			} else if origin != asn && !t.SameOrg(origin, asn) {
				errs = append(errs, fmt.Errorf("AS %d client pool %v originated by unrelated AS %d", asn, pool, origin))
			}
		}
	}
	return errs
}
