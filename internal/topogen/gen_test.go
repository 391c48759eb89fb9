package topogen

import (
	"testing"

	"throughputlab/internal/datasets"
	"throughputlab/internal/topology"
)

// smallWorld is shared across tests (generation is the expensive part).
var smallWorld = MustGenerate(SmallConfig())

func TestGeneratedTopologyValid(t *testing.T) {
	// Generate validates internally; double-check here explicitly.
	if errs := smallWorld.Topo.Validate(1, nil); len(errs) != 0 {
		for i, e := range errs {
			if i > 10 {
				break
			}
			t.Error(e)
		}
	}
}

func TestDeterminism(t *testing.T) {
	w1 := MustGenerate(SmallConfig())
	w2 := MustGenerate(SmallConfig())
	if w1.Topo.NumASes() != w2.Topo.NumASes() {
		t.Fatalf("AS counts differ: %d vs %d", w1.Topo.NumASes(), w2.Topo.NumASes())
	}
	if len(w1.Topo.Links()) != len(w2.Topo.Links()) {
		t.Fatalf("link counts differ: %d vs %d", len(w1.Topo.Links()), len(w2.Topo.Links()))
	}
	l1, l2 := w1.Topo.Links(), w2.Topo.Links()
	for i := range l1 {
		if l1[i].A.Addr != l2[i].A.Addr || l1[i].Metro != l2[i].Metro ||
			l1[i].CapacityMbps != l2[i].CapacityMbps {
			t.Fatalf("link %d differs between identical seeds", i)
		}
	}
	ms1, ms2 := w1.MLabServers(), w2.MLabServers()
	for i := range ms1 {
		if ms1[i].Endpoint.Addr != ms2[i].Endpoint.Addr {
			t.Fatalf("M-Lab server %d differs between identical seeds", i)
		}
	}
}

func TestSeedChangesWorld(t *testing.T) {
	cfg := SmallConfig()
	cfg.Seed = 99
	w2 := MustGenerate(cfg)
	l1, l2 := smallWorld.Topo.Links(), w2.Topo.Links()
	if len(l1) == len(l2) {
		same := true
		for i := range l1 {
			if l1[i].A.Addr != l2[i].A.Addr {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical worlds")
		}
	}
}

func TestAccessISPsPresent(t *testing.T) {
	for _, p := range datasets.AccessISPs() {
		an := smallWorld.Access[p.Name]
		if an == nil {
			t.Errorf("%s missing from world", p.Name)
			continue
		}
		if len(an.PoolByMetro) != len(p.Metros) {
			t.Errorf("%s has %d pools, want %d", p.Name, len(an.PoolByMetro), len(p.Metros))
		}
		for m, pi := range an.PoolByMetro {
			if pi.AccessLine == nil || pi.AccessLine.Kind != topology.LinkAccessLine {
				t.Errorf("%s/%s pool lacks access line", p.Name, m)
			}
			if smallWorld.Topo.AS(pi.ASN) == nil {
				t.Errorf("%s/%s pool ASN %d unknown", p.Name, m, pi.ASN)
			}
			// Pool ASN belongs to the ISP's org.
			if !containsASN(an.Org.ASNs, pi.ASN) {
				t.Errorf("%s/%s pool ASN %d not in org", p.Name, m, pi.ASN)
			}
		}
	}
}

func containsASN(xs []topology.ASN, v topology.ASN) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestTransitAccessAdjacency(t *testing.T) {
	// Every profiled transit peer/provider must be realized as at least
	// one interdomain link between the orgs.
	topo := smallWorld.Topo
	for _, p := range datasets.AccessISPs() {
		an := smallWorld.Access[p.Name]
		for _, tn := range append(append([]string{}, p.TransitPeers...), p.TransitProviders...) {
			found := false
			for _, tr := range datasets.Transits() {
				if tr.Name != tn {
					continue
				}
				tASNs := []topology.ASN{tr.ASN}
				if tr.SiblingASN != 0 {
					tASNs = append(tASNs, tr.SiblingASN)
				}
				for _, ta := range tASNs {
					for _, aa := range an.Org.ASNs {
						if len(topo.InterdomainLinks(ta, aa)) > 0 {
							found = true
						}
					}
				}
			}
			if !found {
				t.Errorf("%s: no interdomain link to %s", p.Name, tn)
			}
		}
	}
}

func TestCongestionApplied(t *testing.T) {
	// The GTT-AT&T Atlanta interconnect must exist and saturate at peak.
	topo := smallWorld.Topo
	att := smallWorld.Access["AT&T"]
	var found bool
	for _, aa := range att.Org.ASNs {
		for _, l := range topo.InterdomainLinks(3257, aa) {
			if l.Metro == "atl" && l.PeakUtil >= 1.2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("GTT-AT&T atl congested link missing (Figure 5a driver)")
	}
	// GTT-Comcast atl busy but not saturated.
	com := smallWorld.Access["Comcast"]
	var busy bool
	for _, aa := range com.Org.ASNs {
		for _, l := range topo.InterdomainLinks(3257, aa) {
			if l.Metro == "atl" && l.PeakUtil > 0.8 && l.PeakUtil < 1.0 {
				busy = true
			}
		}
	}
	if !busy {
		t.Error("GTT-Comcast atl busy link missing (Figure 5b driver)")
	}
}

func TestMLabPlacement(t *testing.T) {
	if len(smallWorld.MLabSites) < 15 {
		t.Fatalf("only %d M-Lab sites", len(smallWorld.MLabSites))
	}
	hosts := map[string]bool{}
	for _, s := range smallWorld.MLabSites {
		hosts[s.HostNet] = true
		if len(s.Servers) != smallWorld.Cfg.Scale.ServersPerMLabSite {
			t.Errorf("site %s has %d servers", s.Name, len(s.Servers))
		}
		for _, srv := range s.Servers {
			if srv.Endpoint.Metro != s.Metro {
				t.Errorf("server %s in wrong metro", srv.Name)
			}
			// Server address must resolve to the host network via the
			// public origin table.
			origin, ok := smallWorld.Topo.OriginOf(srv.Endpoint.Addr)
			if !ok || origin != srv.Endpoint.ASN {
				t.Errorf("server %s address origin = %d (ok=%v), want %d", srv.Name, origin, ok, srv.Endpoint.ASN)
			}
		}
	}
	// GTT Atlanta must exist (Figure 5 case study).
	var gttAtl bool
	for _, s := range smallWorld.MLabSites {
		if s.HostNet == "GTT" && s.Metro == "atl" {
			gttAtl = true
		}
	}
	if !gttAtl {
		t.Error("no GTT Atlanta M-Lab site")
	}
	if len(hosts) < 4 {
		t.Errorf("M-Lab hosted in only %d networks", len(hosts))
	}
}

func TestSpeedtestLargerThanMLab(t *testing.T) {
	if len(smallWorld.Speedtest) <= len(smallWorld.MLabServers()) {
		t.Errorf("speedtest fleet (%d) should exceed M-Lab (%d), as in §5.4",
			len(smallWorld.Speedtest), len(smallWorld.MLabServers()))
	}
	nets := map[string]bool{}
	for _, h := range smallWorld.Speedtest {
		nets[h.Network] = true
	}
	if len(nets) < 25 {
		t.Errorf("speedtest servers spread across only %d networks", len(nets))
	}
}

func TestSpeedtestFactorGrowsFleet(t *testing.T) {
	cfg := SmallConfig()
	cfg.SpeedtestFactor = 1.45
	w2 := MustGenerate(cfg)
	if len(w2.Speedtest) <= len(smallWorld.Speedtest) {
		t.Errorf("factor 1.45 fleet %d not larger than baseline %d",
			len(w2.Speedtest), len(smallWorld.Speedtest))
	}
	// M-Lab stays flat (§5.4: exactly the same server count).
	if len(w2.MLabServers()) != len(smallWorld.MLabServers()) {
		t.Error("M-Lab fleet should not change with the speedtest factor")
	}
}

func TestArkVPs(t *testing.T) {
	if len(smallWorld.ArkVPs) != 16 {
		t.Fatalf("%d Ark VPs, want 16", len(smallWorld.ArkVPs))
	}
	labels := map[string]bool{}
	for _, vp := range smallWorld.ArkVPs {
		if labels[vp.Label] {
			t.Errorf("duplicate VP label %s", vp.Label)
		}
		labels[vp.Label] = true
		if vp.Host.Endpoint.AccessLine == nil {
			t.Errorf("VP %s should sit behind an access line", vp.Label)
		}
		origin, ok := smallWorld.Topo.OriginOf(vp.Host.Endpoint.Addr)
		if !ok || !containsASN(smallWorld.Access[vp.ISP].Org.ASNs, origin) {
			t.Errorf("VP %s address not in its ISP's space", vp.Label)
		}
	}
	if !labels["bed-us"] || !labels["san6-us"] {
		t.Error("paper VP labels missing")
	}
}

func TestNewClientDrawsDistinctAddresses(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		ep, ok := smallWorld.NewClient("Comcast", "nyc")
		if !ok {
			t.Fatal("no Comcast nyc pool")
		}
		if seen[ep.Addr.String()] {
			t.Fatalf("duplicate client address %v", ep.Addr)
		}
		seen[ep.Addr.String()] = true
		origin, _ := smallWorld.Topo.OriginOf(ep.Addr)
		if origin != ep.ASN {
			t.Errorf("client origin %d != endpoint ASN %d", origin, ep.ASN)
		}
	}
	if _, ok := smallWorld.NewClient("Comcast", "zzz"); ok {
		t.Error("unknown metro should fail")
	}
	if _, ok := smallWorld.NewClient("NoSuchISP", "nyc"); ok {
		t.Error("unknown ISP should fail")
	}
}

func TestResolveDomain(t *testing.T) {
	var cdn, hosted datasets.PopularDomain
	for _, d := range smallWorld.Domains {
		if d.ContentOrg != "" && cdn.Name == "" {
			cdn = d
		}
		if d.ContentOrg == "" && hosted.Name == "" {
			hosted = d
		}
	}
	// CDN domain resolves to the nearest replica per metro.
	hNYC, ok := smallWorld.ResolveDomain(cdn, "nyc")
	if !ok {
		t.Fatalf("cannot resolve %s", cdn.Name)
	}
	hLAX, _ := smallWorld.ResolveDomain(cdn, "lax")
	if hNYC.Endpoint.Metro == hLAX.Endpoint.Metro {
		t.Logf("CDN %s resolves to same metro from nyc and lax (narrow footprint)", cdn.ContentOrg)
	}
	// Hosted domain resolves to a fixed host regardless of metro.
	h1, ok := smallWorld.ResolveDomain(hosted, "nyc")
	if !ok {
		t.Fatalf("cannot resolve hosted domain %s", hosted.Name)
	}
	h2, _ := smallWorld.ResolveDomain(hosted, "lax")
	if h1.Endpoint.Addr != h2.Endpoint.Addr {
		t.Error("hosted domain should resolve identically everywhere")
	}
}

func TestNearestMLabSite(t *testing.T) {
	sites := smallWorld.NearestMLabSite("atl", 0)
	if len(sites) == 0 {
		t.Fatal("no nearest site")
	}
	for _, s := range sites {
		if s.Metro != "atl" {
			t.Errorf("nearest site to atl is in %s", s.Metro)
		}
	}
	// With slack, more sites qualify (the Battle-for-the-Net variant).
	wide := smallWorld.NearestMLabSite("atl", 8)
	if len(wide) <= len(sites) {
		t.Error("slack should widen the candidate set")
	}
}

func TestRoutesReachability(t *testing.T) {
	// Every access backbone reaches every M-Lab server host network.
	for _, p := range datasets.AccessISPs() {
		for _, tr := range datasets.Transits() {
			if len(tr.MLabMetros) == 0 {
				continue
			}
			if !smallWorld.Routes.HasRoute(p.BackboneASN, tr.ASN) {
				t.Errorf("%s cannot reach %s", p.Name, tr.Name)
			}
		}
	}
}

func TestEndToEndPathResolution(t *testing.T) {
	// A full NDT-like path: GTT Atlanta server to an AT&T client.
	var server Host
	for _, s := range smallWorld.MLabSites {
		if s.HostNet == "GTT" && s.Metro == "atl" {
			server = s.Servers[0]
		}
	}
	client, ok := smallWorld.NewClient("AT&T", "atl")
	if !ok {
		t.Fatal("no AT&T atl client")
	}
	path, err := smallWorld.Resolver.Resolve(server.Endpoint, client, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if len(path.InterdomainLinks()) == 0 {
		t.Fatal("no interdomain links on server->client path")
	}
	if path.Links[len(path.Links)-1].Kind != topology.LinkAccessLine {
		t.Error("path should end at the client's access line")
	}
}

func TestWorldScaleDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale generation in -short mode")
	}
	w := MustGenerate(DefaultConfig())
	if w.Topo.NumASes() < 1200 {
		t.Errorf("default world has only %d ASes", w.Topo.NumASes())
	}
	if len(w.Topo.Links()) < 4000 {
		t.Errorf("default world has only %d links", len(w.Topo.Links()))
	}
	if len(w.Topo.InterdomainLinks(0, 0)) < 1500 {
		t.Errorf("default world has only %d interdomain links", len(w.Topo.InterdomainLinks(0, 0)))
	}
}

func BenchmarkGenerateSmall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MustGenerate(SmallConfig())
	}
}
