package export

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"throughputlab/internal/mapit"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/traceroute"
)

// testWorld is the shared small fixture world, generated on first use
// so fuzz workers, which run no tests, never build one.
var testWorld = sync.OnceValue(func() *topogen.World {
	return topogen.MustGenerate(topogen.SmallConfig())
})

func smallCorpus(t testing.TB) *platform.Corpus {
	t.Helper()
	cfg := platform.DefaultCollect()
	cfg.Tests = 400
	cfg.PerPoolClients = 4
	c, err := platform.CollectParallelCtx(context.Background(), testWorld(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	corpus := smallCorpus(t)
	d := FromWorld(testWorld(), corpus)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tests) != len(d.Tests) || len(back.Traces) != len(d.Traces) {
		t.Fatalf("corpus sizes changed: %d/%d vs %d/%d",
			len(back.Tests), len(back.Traces), len(d.Tests), len(d.Traces))
	}
	if len(back.Public.Prefixes) != len(d.Public.Prefixes) {
		t.Error("prefix table size changed")
	}
	if back.Tests[0].ClientAddr != d.Tests[0].ClientAddr {
		t.Error("test addresses corrupted")
	}
	if back.Traces[0].Hops[0].Addr != d.Traces[0].Hops[0].Addr {
		t.Error("trace hops corrupted")
	}
}

func TestLookupsMatchWorld(t *testing.T) {
	world := testWorld()
	d := FromWorld(world, nil)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, _ := Read(&buf)
	l := back.Lookups()

	// Origin lookups agree with the world.
	cli, _ := world.NewClient("Comcast", "nyc")
	wantASN, _ := world.Topo.OriginOf(cli.Addr)
	gotASN, ok := l.OriginOf(cli.Addr)
	if !ok || gotASN != wantASN {
		t.Errorf("origin %d (ok=%v), want %d", gotASN, ok, wantASN)
	}
	// Sibling collapse agrees.
	com := world.Access["Comcast"].Org.ASNs
	if len(com) > 1 && !l.SameOrg(com[0], com[1]) {
		t.Error("sibling ASNs not same-org after round trip")
	}
	if l.SameOrg(com[0], 3356) {
		t.Error("Comcast and Level3 are not siblings")
	}
	// Relationships agree.
	if l.Rel(3356, com[0]) != world.Topo.RelOf(3356, com[0]) {
		t.Error("relationship mismatch after round trip")
	}
	// IXP prefixes survive.
	if len(world.Topo.IXPPrefixes) > 0 && !l.IsIXP(world.Topo.IXPPrefixes[0].Nth(1)) {
		t.Error("IXP prefix lost")
	}
}

func TestMapItOverExportedData(t *testing.T) {
	world := testWorld()
	// The exported public data must be sufficient to run MAP-IT with
	// the same quality as the in-process lookups.
	corpus := smallCorpus(t)
	d := FromWorld(world, corpus)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, _ := Read(&buf)
	inf := mapit.Run(back.Traces, back.Lookups().MapItOpts())
	if len(inf.Links) == 0 {
		t.Fatal("no links inferred from exported dataset")
	}
	// Spot-check operator accuracy against ground truth.
	total, correct := 0, 0
	for a, got := range inf.Operator {
		ifc := world.Topo.IfaceByAddr[a]
		if ifc == nil {
			continue
		}
		total++
		if got == ifc.Router.AS || world.Topo.SameOrg(got, ifc.Router.AS) {
			correct++
		}
	}
	if total == 0 || float64(correct)/float64(total) < 0.85 {
		t.Errorf("accuracy %d/%d too low over exported data", correct, total)
	}
}

func TestWithTraces(t *testing.T) {
	world := testWorld()
	d := FromWorld(world, nil)
	vp := world.ArkVPs[0]
	traces := platform.Campaign(world, vp.Host.Endpoint,
		platform.HostTargets(world.MLabServers()), traceroute.Clean(), 1)
	d2 := d.WithTraces(traces)
	if len(d2.Traces) != len(traces) || d2.Tests != nil {
		t.Error("WithTraces wrong")
	}
	if len(d.Traces) != 0 {
		t.Error("original mutated")
	}
}
