package topogen

import (
	"context"
	"strings"
	"testing"

	"throughputlab/internal/datasets"
	"throughputlab/internal/topology"
)

// TestManySeedsValidate: the generator must produce a structurally
// valid world for any seed (the Validate invariants are the contract).
func TestManySeedsValidate(t *testing.T) {
	for seed := int64(2); seed <= 6; seed++ {
		cfg := SmallConfig()
		cfg.Seed = seed
		w, err := GenerateCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if errs := w.Topo.Validate(1, nil); len(errs) != 0 {
			t.Fatalf("seed %d: %d invariant violations, first: %v", seed, len(errs), errs[0])
		}
		// Full reachability between access backbones and M-Lab hosts
		// must hold for every seed, or Figure 1 is meaningless.
		for _, p := range datasets.AccessISPs() {
			for _, tr := range datasets.Transits() {
				if len(tr.MLabMetros) > 0 && !w.Routes.HasRoute(p.BackboneASN, tr.ASN) {
					t.Fatalf("seed %d: %s cannot reach %s", seed, p.Name, tr.Name)
				}
			}
		}
	}
}

// TestEmptyCongestionMeansHealthy: passing an explicit empty scenario
// leaves no saturated interdomain links.
func TestEmptyCongestionMeansHealthy(t *testing.T) {
	cfg := SmallConfig()
	cfg.Congestion = []CongestionSpec{}
	w := MustGenerate(cfg)
	for _, l := range w.Topo.InterdomainLinks(0, 0) {
		if l.PeakUtil >= 1 {
			t.Fatalf("healthy world has saturated link %d (%v)", l.ID, l.Metro)
		}
	}
}

// TestCustomCongestionSpec: a user-supplied spec lands on the requested
// interconnection, and a metro-restricted one on that metro only.
func TestCustomCongestionSpec(t *testing.T) {
	cfg := SmallConfig()
	cfg.Congestion = []CongestionSpec{
		{Transit: "Level3", Access: "Cox", Metro: "", BaseUtil: 0.5, PeakUtil: 1.4, CapacityMbps: 1500},
	}
	w := MustGenerate(cfg)
	found := 0
	for _, a := range w.Access["Cox"].Org.ASNs {
		for _, ta := range []topology.ASN{3356, 3549} {
			for _, l := range w.Topo.InterdomainLinks(ta, a) {
				if l.PeakUtil == 1.4 && l.CapacityMbps == 1500 {
					found++
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("custom congestion spec not applied")
	}
	// And nothing else saturated.
	for _, l := range w.Topo.InterdomainLinks(0, 0) {
		level3Side := l.ASA() == 3356 || l.ASB() == 3356 || l.ASA() == 3549 || l.ASB() == 3549
		if l.PeakUtil >= 1 && !level3Side {
			t.Fatalf("unexpected saturated link %d", l.ID)
		}
	}

	cfg.Congestion = []CongestionSpec{
		{Transit: "Level3", Access: "Comcast", Metro: "chi", BaseUtil: 0.5, PeakUtil: 1.25, CapacityMbps: 2000},
	}
	w = MustGenerate(cfg)
	metros := map[string]bool{}
	for _, l := range w.Topo.InterdomainLinks(0, 0) {
		if l.PeakUtil >= 1 {
			metros[l.Metro] = true
		}
	}
	if len(metros) != 1 || !metros["chi"] {
		t.Errorf("chi-only spec saturates metros %v, want {chi}", metros)
	}
}

// TestBorderRouterRolesSeparate: upstream-facing and customer-facing
// links terminate on different routers, so transit THROUGH an AS
// always crosses its core (the traceroute-visibility property Figure 1
// depends on).
func TestBorderRouterRolesSeparate(t *testing.T) {
	w := MustGenerate(SmallConfig())
	// For each transit AS and metro: collect routers terminating peer
	// links and routers terminating customer links; the sets must be
	// disjoint.
	type key struct {
		asn   topology.ASN
		metro string
	}
	up := map[key]map[topology.RouterID]bool{}
	down := map[key]map[topology.RouterID]bool{}
	record := func(m map[key]map[topology.RouterID]bool, k key, id topology.RouterID) {
		if m[k] == nil {
			m[k] = map[topology.RouterID]bool{}
		}
		m[k][id] = true
	}
	for _, l := range w.Topo.InterdomainLinks(0, 0) {
		relFromA := w.Topo.RelOf(l.ASA(), l.ASB())
		switch relFromA {
		case topology.RelCustomer: // A sells to B: A-side down, B-side up
			record(down, key{l.ASA(), l.Metro}, l.A.Router.ID)
			record(up, key{l.ASB(), l.Metro}, l.B.Router.ID)
		case topology.RelProvider:
			record(up, key{l.ASA(), l.Metro}, l.A.Router.ID)
			record(down, key{l.ASB(), l.Metro}, l.B.Router.ID)
		case topology.RelPeer:
			record(up, key{l.ASA(), l.Metro}, l.A.Router.ID)
			record(up, key{l.ASB(), l.Metro}, l.B.Router.ID)
		}
	}
	violations := 0
	for k, ups := range up {
		for id := range ups {
			if down[k][id] {
				violations++
			}
		}
	}
	if violations > 0 {
		t.Fatalf("%d routers terminate both peer/provider and customer links", violations)
	}
}

// TestRouterNamingConvention: upstream edges are named bbN.*, customer
// edges edgeN.*, cores core1.* — the DNS-based analyses depend on
// stable stems.
func TestRouterNamingConvention(t *testing.T) {
	w := MustGenerate(SmallConfig())
	for _, asn := range w.Topo.ASNs()[:40] {
		for _, r := range w.Topo.AS(asn).Routers {
			switch r.Kind {
			case topology.RouterCore:
				if !strings.HasPrefix(r.Name, "core") {
					t.Fatalf("core router named %q", r.Name)
				}
			case topology.RouterAccess:
				if !strings.HasPrefix(r.Name, "agg") {
					t.Fatalf("access router named %q", r.Name)
				}
			case topology.RouterBorder:
				if !strings.HasPrefix(r.Name, "edge") && !strings.HasPrefix(r.Name, "bb") {
					t.Fatalf("border router named %q", r.Name)
				}
			}
		}
	}
}

// TestMLabSitesStableAcrossSpeedtestFactor: §5.4's premise — the
// factor touches only the Speedtest fleet.
func TestMLabSitesStableAcrossSpeedtestFactor(t *testing.T) {
	a := MustGenerate(SmallConfig())
	cfg := SmallConfig()
	cfg.SpeedtestFactor = 2
	b := MustGenerate(cfg)
	if len(a.MLabSites) != len(b.MLabSites) {
		t.Fatal("M-Lab site count changed with speedtest factor")
	}
	for i := range a.MLabSites {
		if a.MLabSites[i].Name != b.MLabSites[i].Name {
			t.Fatal("M-Lab site identity changed with speedtest factor")
		}
	}
}

// TestClientPoolsDontOverlapInfrastructure: no client address collides
// with a router interface.
func TestClientPoolsDontOverlapInfrastructure(t *testing.T) {
	w := MustGenerate(SmallConfig())
	for isp, an := range w.Access {
		for metro := range an.PoolByMetro {
			for i := 0; i < 5; i++ {
				ep, ok := w.NewClient(isp, metro)
				if !ok {
					t.Fatalf("%s/%s pool exhausted", isp, metro)
				}
				if w.Topo.IfaceByAddr[ep.Addr] != nil {
					t.Fatalf("client address %v collides with an interface", ep.Addr)
				}
			}
		}
	}
}
