package traceroute

import (
	"math/rand"
	"sync"
	"testing"

	"throughputlab/internal/topogen"
)

// world is the package's shared small world, generated on first use.
var world = sync.OnceValue(func() *topogen.World {
	return topogen.MustGenerate(topogen.SmallConfig())
})

func TestTraceCleanPath(t *testing.T) {
	srv := world().MLabServers()[0].Endpoint
	cli, ok := world().NewClient("Comcast", "nyc")
	if !ok {
		t.Fatal("no client")
	}
	tr := New(world().Topo, world().Resolver, Clean())
	trace, err := tr.Trace(srv, cli, 1, 600, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !trace.Reached {
		t.Error("clean trace should reach the destination")
	}
	if len(trace.Hops) < 3 {
		t.Fatalf("only %d hops", len(trace.Hops))
	}
	// Last hop is the destination address.
	last := trace.Hops[len(trace.Hops)-1]
	if last.Addr != cli.Addr {
		t.Errorf("last hop %v, want client %v", last.Addr, cli.Addr)
	}
	// TTLs are sequential from 1.
	for i, h := range trace.Hops {
		if h.TTL != i+1 {
			t.Errorf("hop %d has TTL %d", i, h.TTL)
		}
	}
	// RTTs are nondecreasing on a clean trace.
	for i := 1; i < len(trace.Hops); i++ {
		if trace.Hops[i].RTTms < trace.Hops[i-1].RTTms {
			t.Errorf("RTT decreased at hop %d", i)
		}
	}
	// Every responsive hop address resolves to a ground-truth interface
	// or the destination.
	for _, h := range trace.Hops[:len(trace.Hops)-1] {
		if h.NoReply() {
			continue
		}
		if world().Topo.IfaceByAddr[h.Addr] == nil {
			t.Errorf("hop address %v is not a known interface", h.Addr)
		}
	}
}

func TestTraceParisConsistency(t *testing.T) {
	// Same flow entropy → identical hop sequence (that is the point of
	// Paris traceroute).
	srv := world().MLabServers()[0].Endpoint
	cli, _ := world().NewClient("Cox", "atl")
	tr := New(world().Topo, world().Resolver, Clean())
	t1, err := tr.Trace(srv, cli, 42, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := tr.Trace(srv, cli, 42, 500, nil)
	if len(t1.Hops) != len(t2.Hops) {
		t.Fatal("same-flow traces differ in length")
	}
	for i := range t1.Hops {
		if t1.Hops[i].Addr != t2.Hops[i].Addr {
			t.Fatalf("same-flow traces diverge at hop %d", i)
		}
	}
}

func TestTraceFlowEntropyCanDiverge(t *testing.T) {
	// Cox has parallel links; across many flow IDs at least two traces
	// should cross different interdomain interfaces.
	srv := world().MLabServers()[0].Endpoint
	cli, _ := world().NewClient("Cox", "atl")
	tr := New(world().Topo, world().Resolver, Clean())
	seen := map[string]bool{}
	for e := uint32(0); e < 64; e++ {
		trace, err := tr.Trace(srv, cli, e, 100, nil)
		if err != nil {
			t.Fatal(err)
		}
		sig := ""
		for _, h := range trace.Hops {
			sig += h.Addr.String() + "|"
		}
		seen[sig] = true
	}
	if len(seen) < 2 {
		t.Log("no ECMP divergence observed on this pair (possible but unusual)")
	}
}

func TestArtifactsNoReply(t *testing.T) {
	srv := world().MLabServers()[0].Endpoint
	cli, _ := world().NewClient("AT&T", "chi")
	tr := New(world().Topo, world().Resolver, Artifacts{NoReplyProb: 1})
	rng := rand.New(rand.NewSource(1))
	trace, err := tr.Trace(srv, cli, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range trace.Hops[:len(trace.Hops)-1] {
		if !h.NoReply() {
			t.Error("all router hops should be stars with NoReplyProb=1")
		}
	}
}

func TestArtifactsDstNoReply(t *testing.T) {
	srv := world().MLabServers()[0].Endpoint
	cli, _ := world().NewClient("AT&T", "chi")
	tr := New(world().Topo, world().Resolver, Artifacts{DstNoReplyProb: 1})
	rng := rand.New(rand.NewSource(2))
	trace, _ := tr.Trace(srv, cli, 1, 0, rng)
	if trace.Reached {
		t.Error("destination should not reply")
	}
	if !trace.Hops[len(trace.Hops)-1].NoReply() {
		t.Error("final hop should be a star")
	}
}

func TestArtifactsThirdParty(t *testing.T) {
	srv := world().MLabServers()[0].Endpoint
	cli, _ := world().NewClient("Comcast", "nyc")
	clean := New(world().Topo, world().Resolver, Clean())
	dirty := New(world().Topo, world().Resolver, Artifacts{ThirdPartyProb: 1})
	base, err := clean.Trace(srv, cli, 9, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	tp, _ := dirty.Trace(srv, cli, 9, 0, rng)
	diff := 0
	for i := range base.Hops[:len(base.Hops)-1] {
		if base.Hops[i].Addr != tp.Hops[i].Addr {
			diff++
			// Third-party address must still belong to the same router.
			b := world().Topo.IfaceByAddr[base.Hops[i].Addr]
			d := world().Topo.IfaceByAddr[tp.Hops[i].Addr]
			if b != nil && d != nil && b.Router.ID != d.Router.ID {
				t.Errorf("hop %d third-party address from a different router", i)
			}
		}
	}
	if diff == 0 {
		t.Error("ThirdPartyProb=1 should change some hop addresses")
	}
}

func TestResponsiveAddrs(t *testing.T) {
	tr := Trace{Hops: []Hop{
		{TTL: 1, Addr: 100},
		{TTL: 2},
		{TTL: 3, Addr: 100}, // consecutive duplicate after star collapses
		{TTL: 4, Addr: 200},
	}}
	got := tr.ResponsiveAddrs()
	if len(got) != 2 || got[0] != 100 || got[1] != 200 {
		t.Errorf("ResponsiveAddrs = %v", got)
	}
}

func BenchmarkTrace(b *testing.B) {
	srv := world().MLabServers()[0].Endpoint
	cli, _ := world().NewClient("Comcast", "nyc")
	tr := New(world().Topo, world().Resolver, DefaultArtifacts())
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Trace(srv, cli, uint32(i), i%1440, rng); err != nil {
			b.Fatal(err)
		}
	}
}
