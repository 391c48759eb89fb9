package traceroute

import (
	"math/rand"
	"testing"

	"throughputlab/internal/netaddr"
)

// TestNormalizeAllArtifactTail is the regression test for the
// Reached/final-hop invariant: a trace whose tail is nothing but
// artifacts — every hop from some point on a NoReply star, including
// the destination slot — must never be counted as a reached
// destination, even if Reached was set before the hops were rewritten.
// Consumers decrement their path end by one when Reached (treating the
// last responsive address as the destination host); a stale Reached on
// an all-artifact tail would instead strip the last responsive ROUTER,
// misattributing the AS path and link extraction.
func TestNormalizeAllArtifactTail(t *testing.T) {
	tr := &Trace{
		DstAddr: netaddr.Addr(90),
		Hops: []Hop{
			{TTL: 1, Addr: netaddr.Addr(10)},
			{TTL: 2, Addr: netaddr.Addr(20)},
			{TTL: 3}, // artifact tail starts here
			{TTL: 4},
			{TTL: 5}, // destination slot: NoReply
		},
		Reached: true, // stale: set before the tail was blanked
	}
	tr.Normalize()
	if tr.Reached {
		t.Error("all-artifact tail still counted as reached destination")
	}

	// A final hop that replied, but not with the destination address
	// (e.g. a third-party artifact in the destination slot), is not a
	// reached destination either.
	tr2 := &Trace{
		DstAddr: netaddr.Addr(90),
		Hops:    []Hop{{TTL: 1, Addr: netaddr.Addr(10)}, {TTL: 2, Addr: netaddr.Addr(33)}},
		Reached: true,
	}
	tr2.Normalize()
	if tr2.Reached {
		t.Error("non-destination final hop counted as reached destination")
	}

	// Hopless traces are trivially unreached.
	tr3 := &Trace{DstAddr: netaddr.Addr(90), Reached: true}
	tr3.Normalize()
	if tr3.Reached {
		t.Error("empty trace counted as reached")
	}

	// And a genuine destination reply survives normalization.
	tr4 := &Trace{
		DstAddr: netaddr.Addr(90),
		Hops:    []Hop{{TTL: 1, Addr: netaddr.Addr(10)}, {TTL: 2, Addr: netaddr.Addr(90)}},
		Reached: true,
	}
	tr4.Normalize()
	if !tr4.Reached {
		t.Error("genuine destination reply lost to normalization")
	}
}

// TestTraceUpholdsReachedInvariant drives the real tracer under maximal
// artifact rates and asserts the collection-time invariant Normalize
// enforces: Reached if and only if the final hop is a reply from the
// destination address.
func TestTraceUpholdsReachedInvariant(t *testing.T) {
	srv := world().MLabServers()[0].Endpoint
	cli, ok := world().NewClient("Comcast", "nyc")
	if !ok {
		t.Fatal("no client")
	}
	for _, art := range []Artifacts{
		{DstNoReplyProb: 1},
		{NoReplyProb: 1, DstNoReplyProb: 1},
		{NoReplyProb: 0.5, ThirdPartyProb: 0.5, DstNoReplyProb: 0.5},
	} {
		tr := New(world().Topo, world().Resolver, art)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 50; i++ {
			trace, err := tr.Trace(srv, cli, uint32(i), 600, rng)
			if err != nil {
				t.Fatal(err)
			}
			last := trace.Hops[len(trace.Hops)-1]
			wantReached := !last.NoReply() && last.Addr == trace.DstAddr
			if trace.Reached != wantReached {
				t.Fatalf("artifacts %+v: Reached=%v but final hop %v (dst %v)",
					art, trace.Reached, last.Addr, trace.DstAddr)
			}
		}
	}
}
