// Package alias models alias resolution: grouping interface addresses
// that belong to the same physical router. bdrmap's collection phase
// runs alias resolution from the vantage point (§5.1); the technique
// (Ally/MIDAR-style shared IP-ID counters) is imperfect, so the
// simulated resolver splits some true groups and occasionally merges
// unrelated interfaces, at configurable rates.
//
// The resolver consults ground truth only to know which interfaces
// truly share a router — exactly what the real probing measures — and
// its output is then degraded; inference code never sees router IDs.
package alias

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"throughputlab/internal/netaddr"
	"throughputlab/internal/topology"
)

// Resolver groups interface addresses into inferred routers.
type Resolver struct {
	topo *topology.Topology
	// MergeProb is the chance a true co-router pair is detected (MIDAR
	// validates >90%).
	MergeProb float64
	// FalseMergeProb is the chance two distinct same-metro routers are
	// wrongly merged.
	FalseMergeProb float64
}

// New builds a Resolver with the paper-reported accuracy regime.
func New(t *topology.Topology) *Resolver {
	return &Resolver{topo: t, MergeProb: 0.93, FalseMergeProb: 0.01}
}

// Perfect returns a Resolver with no measurement error, for tests.
func Perfect(t *topology.Topology) *Resolver {
	return &Resolver{topo: t, MergeProb: 1, FalseMergeProb: 0}
}

// Group partitions the addresses into inferred routers. Unknown
// addresses (no interface) become singletons. Output order is
// deterministic for a given rng state: groups are sorted by their
// first member. Within a group members ascend, except after a false
// merge, which appends one group's members to its neighbour's; the
// first member is then the left group's lowest address, not
// necessarily the merged group's.
//
// The rng draws are, in order: one Float64 per non-first member of
// each true router (routers by ID, members by address), deciding
// whether probing split it off, then one Float64 per adjacent group
// pair of the false-merge scan. Groups share one backing array; each
// is capacity-capped, so appending to one never writes into another.
func (r *Resolver) Group(addrs []netaddr.Addr, rng *rand.Rand) [][]netaddr.Addr {
	// Partition by true router: one flat slice sorted by (router,
	// address), where duplicates fall adjacent. Orphans sort last, under
	// a router ID no interface has. Their order among themselves cannot
	// show: they never merge (they have no metro) and the final sort
	// places each by its only member.
	const orphan = topology.RouterID(math.MaxInt)
	type member struct {
		router topology.RouterID
		addr   netaddr.Addr
	}
	members := make([]member, len(addrs))
	for i, a := range addrs {
		members[i] = member{orphan, a}
		if ifc := r.topo.IfaceByAddr[a]; ifc != nil {
			members[i].router = ifc.Router.ID
		}
	}
	slices.SortFunc(members, func(x, y member) int {
		if c := cmp.Compare(x.router, y.router); c != 0 {
			return c
		}
		return cmp.Compare(x.addr, y.addr)
	})
	members = slices.Compact(members)

	// Groups are ranges [lo, hi) of flat: each router's members split
	// where probing failed to merge them, and one range per orphan.
	type span struct{ lo, hi int }
	flat := make([]netaddr.Addr, len(members))
	var spans []span
	for i, m := range members {
		flat[i] = m.addr
		if i == 0 || m.router == orphan || m.router != members[i-1].router ||
			(rng != nil && rng.Float64() > r.MergeProb) {
			spans = append(spans, span{i, i})
		}
		spans[len(spans)-1].hi++
	}

	// Rare false merges between adjacent groups in the same metro.
	// Groups stay contiguous ranges, so a merge widens the left range
	// over its neighbour; the merged group is not scanned again.
	if rng != nil && r.FalseMergeProb > 0 {
		metroOf := func(s span) string {
			if ifc := r.topo.IfaceByAddr[flat[s.lo]]; ifc != nil {
				return ifc.Router.Metro
			}
			return ""
		}
		merged := spans[:0]
		for i := 0; i < len(spans); i++ {
			s := spans[i]
			if i+1 < len(spans) && rng.Float64() < r.FalseMergeProb && metroOf(s) != "" &&
				metroOf(s) == metroOf(spans[i+1]) {
				s.hi = spans[i+1].hi
				i++
			}
			merged = append(merged, s)
		}
		spans = merged
	}

	// First members are distinct addresses, so the order is total.
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(flat[x.lo], flat[y.lo]) })
	groups := make([][]netaddr.Addr, len(spans))
	for k, s := range spans {
		groups[k] = flat[s.lo:s.hi:s.hi]
	}
	return groups
}
