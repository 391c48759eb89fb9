package platform

import (
	"context"
	"math"
	"testing"

	"throughputlab/internal/datasets"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/stats"
	"throughputlab/internal/topogen"
	"throughputlab/internal/traceroute"
)

var world = topogen.MustGenerate(topogen.SmallConfig())

// collect materializes a campaign through CollectParallelCtx, the batch
// corpus every streamed and faulted variant is compared against.
func collect(w *topogen.World, cfg CollectConfig, workers int) (*Corpus, error) {
	return CollectParallelCtx(context.Background(), w, cfg, workers)
}

func smallCollect() CollectConfig {
	cfg := DefaultCollect()
	cfg.Tests = 1500
	cfg.PerPoolClients = 5
	return cfg
}

func TestBuildPopulation(t *testing.T) {
	hh := BuildPopulation(world, 4, 3)
	if len(hh) == 0 {
		t.Fatal("no households")
	}
	byISP := map[string]int{}
	wifi := 0
	for _, h := range hh {
		byISP[h.ISP]++
		if h.TierMbps <= 0 {
			t.Fatalf("household without tier: %+v", h)
		}
		if h.Endpoint.AccessLine == nil {
			t.Fatal("household without access line")
		}
		if h.WiFiCapMbps > 0 {
			wifi++
		}
	}
	if len(byISP) != len(datasets.AccessISPs()) {
		t.Errorf("population covers %d ISPs, want %d", len(byISP), len(datasets.AccessISPs()))
	}
	frac := float64(wifi) / float64(len(hh))
	if frac < 0.08 || frac > 0.5 {
		t.Errorf("wifi-degraded fraction %.2f implausible", frac)
	}
	// Deterministic for the same seed — compare two FRESH worlds (the
	// shared package world's pool cursors advance as other tests draw
	// clients, so it cannot be the baseline).
	hh1 := BuildPopulation(topogen.MustGenerate(topogen.SmallConfig()), 4, 3)
	hh2 := BuildPopulation(topogen.MustGenerate(topogen.SmallConfig()), 4, 3)
	if len(hh2) != len(hh1) || hh2[0].Endpoint.Addr != hh1[0].Endpoint.Addr || hh2[0].TierMbps != hh1[0].TierMbps {
		t.Error("population not deterministic")
	}
}

func TestCollectCorpus(t *testing.T) {
	corpus, err := collect(world, smallCollect(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Tests) < 1500 {
		t.Fatalf("only %d tests", len(corpus.Tests))
	}
	// Tests are in time order.
	for i := 1; i < len(corpus.Tests); i++ {
		if corpus.Tests[i].StartMinute < corpus.Tests[i-1].StartMinute {
			t.Fatal("tests out of time order")
		}
	}
	// Traceroute loss from the single-threaded collector: some but not
	// most (paper matched 71-87%).
	total := len(corpus.Tests)
	missing := corpus.TestsWithoutTrace
	if missing == 0 {
		t.Error("expected some tests to lose their traceroute (busy collector)")
	}
	if missing > total/2 {
		t.Errorf("%d/%d tests lost traceroutes; too many", missing, total)
	}
	if len(corpus.Traces)+missing != total {
		t.Errorf("traces (%d) + missing (%d) != tests (%d)", len(corpus.Traces), missing, total)
	}
	// Measured values are sane.
	for _, ts := range corpus.Tests[:100] {
		if ts.DownMbps <= 0 || ts.DownMbps > 1000 {
			t.Errorf("test %d throughput %v", ts.ID, ts.DownMbps)
		}
		if ts.RTTms <= 0 || ts.RTTms > 1000 {
			t.Errorf("test %d RTT %v", ts.ID, ts.RTTms)
		}
		if ts.UpMbps > ts.TierMbps {
			t.Errorf("test %d upstream %v exceeds tier %v", ts.ID, ts.UpMbps, ts.TierMbps)
		}
		if len(ts.TruthASPath) < 2 {
			t.Errorf("test %d has trivial AS path", ts.ID)
		}
	}
}

func TestCollectDiurnalVolume(t *testing.T) {
	corpus, err := collect(world, smallCollect(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var bins stats.HourBins
	for _, ts := range corpus.Tests {
		m := world.Topo.MustMetro(ts.ClientMetro)
		bins.Add(m.LocalHour(ts.StartMinute), 1)
	}
	c := bins.Counts()
	night := c[3] + c[4] + c[5]
	evening := c[19] + c[20] + c[21]
	if evening <= 3*night {
		t.Errorf("evening tests (%d) should dwarf 3-6am tests (%d): time-of-day bias", evening, night)
	}
}

func TestCollectISPWeighting(t *testing.T) {
	corpus, err := collect(world, smallCollect(), 1)
	if err != nil {
		t.Fatal(err)
	}
	byISP := map[string]int{}
	for _, ts := range corpus.Tests {
		byISP[ts.ClientISP]++
	}
	if byISP["Comcast"] <= byISP["Windstream"] {
		t.Errorf("Comcast tests (%d) should exceed Windstream (%d): subscriber weighting",
			byISP["Comcast"], byISP["Windstream"])
	}
}

func TestBattleForNetMultipliesTests(t *testing.T) {
	cfg := smallCollect()
	cfg.Tests = 300
	base, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BattleForNet = true
	bfn, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bfn.Tests) <= len(base.Tests) {
		t.Errorf("BattleForNet corpus (%d) should exceed single-site (%d)",
			len(bfn.Tests), len(base.Tests))
	}
	// And each client should observe more distinct sites (that was the
	// wrapper's point: observe more paths, §2.2).
	perClient := func(c *Corpus) float64 {
		sites := map[string]map[string]bool{}
		for _, ts := range c.Tests {
			k := ts.ClientAddr.String()
			if sites[k] == nil {
				sites[k] = map[string]bool{}
			}
			sites[k][ts.ServerSite] = true
		}
		total := 0
		for _, s := range sites {
			total += len(s)
		}
		return float64(total) / float64(len(sites))
	}
	if perClient(bfn) <= perClient(base) {
		t.Errorf("BattleForNet sites/client %.2f not above baseline %.2f",
			perClient(bfn), perClient(base))
	}
}

func TestCongestedPairShowsDiurnalDrop(t *testing.T) {
	// The full pipeline reproduces the Figure 5a signal: AT&T clients
	// testing against GTT Atlanta collapse at peak.
	cfg := smallCollect()
	cfg.Tests = 4000
	corpus, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var peak, off []float64
	for _, ts := range corpus.Tests {
		if ts.ClientISP != "AT&T" || ts.ServerNet != "GTT" || ts.ServerMetro != "atl" {
			continue
		}
		h := world.Topo.MustMetro(ts.ClientMetro).LocalHour(ts.StartMinute)
		switch {
		case h >= 20 && h < 23:
			peak = append(peak, ts.DownMbps)
		case h >= 8 && h < 12:
			off = append(off, ts.DownMbps)
		}
	}
	if len(peak) < 5 || len(off) < 5 {
		t.Skipf("not enough AT&T/GTT-atl samples (peak %d, off %d)", len(peak), len(off))
	}
	mp, mo := stats.Median(peak), stats.Median(off)
	if mp > mo*0.5 {
		t.Errorf("peak median %.2f not far below off-peak %.2f on congested pair", mp, mo)
	}
}

func TestEndpointForAddr(t *testing.T) {
	// Client pool address attaches at the access router.
	cli, _ := world.NewClient("Comcast", "nyc")
	ep, ok := EndpointForAddr(world, cli.Addr)
	if !ok {
		t.Fatal("client addr should resolve")
	}
	if ep.Metro != "nyc" {
		t.Errorf("client endpoint metro %s, want nyc", ep.Metro)
	}
	if world.Topo.Router(ep.Router).Kind.String() != "access" {
		t.Errorf("client endpoint attaches at %v router", world.Topo.Router(ep.Router).Kind)
	}
	// Unrouted space fails.
	if _, ok := EndpointForAddr(world, netaddr.MustParseAddr("203.0.113.7")); ok {
		t.Error("unrouted address should not resolve")
	}
}

func TestRoutedPrefixTargets(t *testing.T) {
	targets := RoutedPrefixTargets(world)
	if len(targets) < world.Topo.NumASes() {
		t.Errorf("only %d targets for %d ASes", len(targets), world.Topo.NumASes())
	}
	seen := map[netaddr.Addr]bool{}
	for _, tg := range targets {
		if seen[tg.Addr] {
			t.Fatalf("duplicate target %v", tg.Addr)
		}
		seen[tg.Addr] = true
	}
}

func TestCampaign(t *testing.T) {
	vp := world.ArkVPs[0]
	targets := HostTargets(world.MLabServers())
	traces := Campaign(world, vp.Host.Endpoint, targets, traceroute.Clean(), 5)
	if len(traces) != len(targets) {
		t.Errorf("campaign produced %d/%d traces", len(traces), len(targets))
	}
	for _, tr := range traces {
		if tr.SrcAddr != vp.Host.Endpoint.Addr {
			t.Fatal("trace source mismatch")
		}
		if !tr.Reached {
			t.Error("clean campaign trace should reach the server")
		}
	}
}

func TestAlexaTargets(t *testing.T) {
	t1 := AlexaTargets(world, "nyc")
	t2 := AlexaTargets(world, "lax")
	if len(t1) < 20 || len(t2) < 20 {
		t.Fatalf("too few alexa targets: %d / %d", len(t1), len(t2))
	}
	// Per-metro resolution should differ for at least one CDN domain.
	set1 := map[netaddr.Addr]bool{}
	for _, e := range t1 {
		set1[e.Addr] = true
	}
	diff := 0
	for _, e := range t2 {
		if !set1[e.Addr] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("alexa resolution identical from nyc and lax; regional CDN replicas missing")
	}
}

func TestTestVolumeShape(t *testing.T) {
	if testVolumeShape(21) <= testVolumeShape(4) {
		t.Error("evening test volume should exceed 4am volume")
	}
	for h := 0.0; h < 24; h += 0.5 {
		v := testVolumeShape(h)
		if v <= 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("volume(%v) = %v", h, v)
		}
	}
}

func BenchmarkCollect(b *testing.B) {
	cfg := smallCollect()
	cfg.Tests = 500
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collect(world, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}
