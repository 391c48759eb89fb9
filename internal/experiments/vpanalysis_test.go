package experiments

import (
	"slices"
	"testing"

	"throughputlab/internal/bdrmap"
	"throughputlab/internal/export"
	"throughputlab/internal/topology"
)

// TestVPAnalysisReadsPublishedLookups holds the §5 VP analyses to the
// published AS-relationship data rather than the generator's topology:
// over the world's bundle with one VP org's peer published as its
// customer, fanned out on two workers, that neighbor's Border.Rel and
// VPAnalysis.Rel follow the bundle for every VP of the org, and every
// other border is the shared Env's.
func TestVPAnalysisReadsPublishedLookups(t *testing.T) {
	shared := env()
	ref := VPAnalyses(shared)
	var isp string
	var peer topology.ASN
	for _, v := range ref {
		if i := slices.IndexFunc(v.Borders.Borders, func(b bdrmap.Border) bool { return b.Rel == topology.RelPeer }); i >= 0 {
			isp, peer = v.ISP, v.Borders.Borders[i].Neighbor
			break
		}
	}
	if isp == "" {
		t.Fatal("no VP sees a peer border: nothing to flip")
	}
	org := shared.World.Access[isp].Org.ASNs
	d := export.FromWorld(shared.World, nil)
	flipped := 0
	for i, r := range d.Public.Rels {
		switch {
		case slices.Contains(org, r.A) && r.B == peer:
			d.Public.Rels[i].Rel = topology.RelCustomer.String()
		case slices.Contains(org, r.B) && r.A == peer:
			d.Public.Rels[i].Rel = topology.RelProvider.String()
		default:
			continue
		}
		flipped++
	}
	if flipped == 0 {
		t.Fatalf("no published row between %s and AS%d", isp, peer)
	}

	opts := shared.Opts
	opts.Workers = 2
	e := &Env{Opts: opts, World: shared.World, lk: d.Lookups()}
	got := VPAnalyses(e)
	seen := 0
	for i, v := range got {
		if v.Label != ref[i].Label || len(v.Borders.Borders) != len(ref[i].Borders.Borders) {
			t.Fatalf("VP %s: %d borders, shared Env's %s has %d",
				v.Label, len(v.Borders.Borders), ref[i].Label, len(ref[i].Borders.Borders))
		}
		for j, b := range v.Borders.Borders {
			want := ref[i].Borders.Borders[j]
			if v.ISP == isp && b.Neighbor == peer {
				want.Rel = topology.RelCustomer
				seen++
			}
			if b != want {
				t.Errorf("VP %s border %d: %+v, want %+v", v.Label, j, b, want)
			}
		}
		if v.ISP == isp {
			if r := v.Rel(peer); r != topology.RelCustomer {
				t.Errorf("VP %s: Rel(AS%d) = %v, want customer as published", v.Label, peer, r)
			}
		}
	}
	if seen == 0 {
		t.Errorf("no %s VP crossed AS%d", isp, peer)
	}
}
