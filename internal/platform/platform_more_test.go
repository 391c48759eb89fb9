package platform

import (
	"testing"

	"throughputlab/internal/routing"
	"throughputlab/internal/topogen"
)

// TestCollectDeterministic: identical seeds produce identical corpora.
func TestCollectDeterministic(t *testing.T) {
	cfg := smallCollect()
	cfg.Tests = 400
	w1 := topogen.MustGenerate(topogen.SmallConfig())
	w2 := topogen.MustGenerate(topogen.SmallConfig())
	c1, err := collect(w1, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := collect(w2, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1.Tests) != len(c2.Tests) || len(c1.Traces) != len(c2.Traces) {
		t.Fatalf("corpus sizes differ: %d/%d vs %d/%d",
			len(c1.Tests), len(c1.Traces), len(c2.Tests), len(c2.Traces))
	}
	for i := range c1.Tests {
		a, b := c1.Tests[i], c2.Tests[i]
		if a.ClientAddr != b.ClientAddr || a.StartMinute != b.StartMinute ||
			a.DownMbps != b.DownMbps || a.ServerAddr != b.ServerAddr {
			t.Fatalf("test %d differs across identical seeds", i)
		}
	}
}

// TestCollectSeedChangesCorpus: different seeds differ.
func TestCollectSeedChangesCorpus(t *testing.T) {
	cfg := smallCollect()
	cfg.Tests = 300
	c1, _ := collect(world, cfg, 1)
	cfg.Seed += 17
	c2, _ := collect(world, cfg, 1)
	same := len(c1.Tests) == len(c2.Tests)
	if same {
		for i := range c1.Tests {
			if c1.Tests[i].ClientAddr != c2.Tests[i].ClientAddr ||
				c1.Tests[i].StartMinute != c2.Tests[i].StartMinute {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

// TestTracesLagTheirTests: every traceroute launches within the
// modeled collector lag of some test to the same client.
func TestTracesLagTheirTests(t *testing.T) {
	cfg := smallCollect()
	cfg.Tests = 400
	corpus, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ s, c uint32 }
	testMinutes := map[key][]int{}
	for _, ts := range corpus.Tests {
		k := key{uint32(ts.ServerAddr), uint32(ts.ClientAddr)}
		testMinutes[k] = append(testMinutes[k], ts.StartMinute)
	}
	for _, tr := range corpus.Traces {
		k := key{uint32(tr.SrcAddr), uint32(tr.DstAddr)}
		ok := false
		for _, m := range testMinutes[k] {
			d := tr.LaunchMinute - m
			if d >= -2 && d <= 10 {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("trace at minute %d has no nearby test (pair %v)", tr.LaunchMinute, k)
		}
	}
}

// TestCampaignDeterministic: campaigns repeat exactly for a seed.
func TestCampaignDeterministic(t *testing.T) {
	vp := world.ArkVPs[1]
	targets := HostTargets(world.MLabServers())
	import1 := Campaign(world, vp.Host.Endpoint, targets, DefaultCollect().Artifacts, 42)
	import2 := Campaign(world, vp.Host.Endpoint, targets, DefaultCollect().Artifacts, 42)
	if len(import1) != len(import2) {
		t.Fatal("campaign lengths differ")
	}
	for i := range import1 {
		a, b := import1[i], import2[i]
		if len(a.Hops) != len(b.Hops) {
			t.Fatalf("trace %d hop counts differ", i)
		}
		for j := range a.Hops {
			if a.Hops[j].Addr != b.Hops[j].Addr {
				t.Fatalf("trace %d hop %d differs", i, j)
			}
		}
	}
}

// TestCampaignSkipsSelfTarget: probing one's own address is skipped.
func TestCampaignSkipsSelfTarget(t *testing.T) {
	vp := world.ArkVPs[0]
	traces := Campaign(world, vp.Host.Endpoint,
		[]routing.Endpoint{vp.Host.Endpoint}, DefaultCollect().Artifacts, 1)
	if len(traces) != 0 {
		t.Errorf("self-target produced %d traces", len(traces))
	}
}
