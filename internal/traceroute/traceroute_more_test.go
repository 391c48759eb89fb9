package traceroute

import (
	"math/rand"
	"testing"
)

// TestTraceToUnroutableFails: tracing toward an endpoint in an unknown
// AS surfaces an error rather than a fabricated trace.
func TestTraceToUnroutableFails(t *testing.T) {
	srv := world().MLabServers()[0].Endpoint
	bad := srv
	bad.ASN = 64999 // unallocated in the world
	tr := New(world().Topo, world().Resolver, Clean())
	if _, err := tr.Trace(srv, bad, 1, 0, nil); err == nil {
		t.Error("trace to unknown AS should fail")
	}
}

// TestTraceDNSNamesPropagate: responsive hops carry the PTR names the
// topology assigned (or none, but never a name from another interface).
func TestTraceDNSNamesPropagate(t *testing.T) {
	srv := world().MLabServers()[0].Endpoint
	cli, _ := world().NewClient("Verizon", "wdc")
	tr := New(world().Topo, world().Resolver, Clean())
	trace, err := tr.Trace(srv, cli, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	named := 0
	for _, h := range trace.Hops[:len(trace.Hops)-1] {
		if h.NoReply() {
			continue
		}
		ifc := world().Topo.IfaceByAddr[h.Addr]
		if ifc == nil {
			t.Fatalf("hop %v not an interface", h.Addr)
		}
		if h.DNSName != ifc.DNSName {
			t.Fatalf("hop %v carries name %q, interface has %q", h.Addr, h.DNSName, ifc.DNSName)
		}
		if h.DNSName != "" {
			named++
		}
	}
	if named == 0 {
		t.Error("no hop carries a PTR name; dnsnames assignment missing")
	}
}

// TestArtifactRatesApproximate: over many traces the realized artifact
// rates track the configured probabilities.
func TestArtifactRatesApproximate(t *testing.T) {
	srv := world().MLabServers()[0].Endpoint
	art := Artifacts{NoReplyProb: 0.1, DstNoReplyProb: 0.3}
	tr := New(world().Topo, world().Resolver, art)
	rng := rand.New(rand.NewSource(11))
	stars, hops, unreached, traces := 0, 0, 0, 0
	for i := 0; i < 300; i++ {
		cli, ok := world().NewClient("Comcast", []string{"nyc", "chi", "lax"}[i%3])
		if !ok {
			continue
		}
		trace, err := tr.Trace(srv, cli, uint32(i), i, rng)
		if err != nil {
			continue
		}
		traces++
		if !trace.Reached {
			unreached++
		}
		for _, h := range trace.Hops[:len(trace.Hops)-1] {
			hops++
			if h.NoReply() {
				stars++
			}
		}
	}
	starRate := float64(stars) / float64(hops)
	if starRate < 0.05 || starRate > 0.15 {
		t.Errorf("star rate %.3f, configured 0.10", starRate)
	}
	unreachedRate := float64(unreached) / float64(traces)
	if unreachedRate < 0.2 || unreachedRate > 0.4 {
		t.Errorf("unreached rate %.3f, configured 0.30", unreachedRate)
	}
}

// TestThirdPartyPrefersOwnSpace: most third-party replies come from
// interfaces numbered in the router's own AS (the property MAP-IT's
// robustness rests on).
func TestThirdPartyPrefersOwnSpace(t *testing.T) {
	srv := world().MLabServers()[0].Endpoint
	clean := New(world().Topo, world().Resolver, Clean())
	dirty := New(world().Topo, world().Resolver, Artifacts{ThirdPartyProb: 1})
	rng := rand.New(rand.NewSource(13))
	own, foreign := 0, 0
	for i := 0; i < 200; i++ {
		cli, ok := world().NewClient("AT&T", []string{"atl", "dfw"}[i%2])
		if !ok {
			continue
		}
		base, err := clean.Trace(srv, cli, uint32(i), 0, nil)
		if err != nil {
			continue
		}
		tp, _ := dirty.Trace(srv, cli, uint32(i), 0, rng)
		for j := range base.Hops[:len(base.Hops)-1] {
			if base.Hops[j].Addr == tp.Hops[j].Addr || tp.Hops[j].NoReply() {
				continue
			}
			ifc := world().Topo.IfaceByAddr[tp.Hops[j].Addr]
			if ifc == nil {
				continue
			}
			if ifc.AddrOwner == ifc.Router.AS {
				own++
			} else {
				foreign++
			}
		}
	}
	if own+foreign == 0 {
		t.Fatal("no third-party replies observed")
	}
	frac := float64(own) / float64(own+foreign)
	if frac < 0.75 {
		t.Errorf("only %.0f%% of third-party replies use own-space interfaces", 100*frac)
	}
}
