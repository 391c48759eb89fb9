package traceroute

import (
	"math/rand"
	"testing"

	"throughputlab/internal/netaddr"
	"throughputlab/internal/topology"
)

// refPickOtherIface is pickOtherIface as first written: it gathers the
// own-space and foreign candidates into slices, then draws. The
// counting version must return the same interface and leave the
// generator in the same state.
func refPickOtherIface(r *topology.Router, current *topology.Interface, rng *rand.Rand) *topology.Interface {
	var own, foreign []*topology.Interface
	for _, ifc := range r.Ifaces {
		if ifc == current || ifc.Addr.IsZero() {
			continue
		}
		if ifc.AddrOwner == r.AS {
			own = append(own, ifc)
		} else {
			foreign = append(foreign, ifc)
		}
	}
	if len(own) > 0 && (len(foreign) == 0 || rng.Float64() < 0.9) {
		return own[rng.Intn(len(own))]
	}
	if len(foreign) > 0 {
		return foreign[rng.Intn(len(foreign))]
	}
	return nil
}

// randomRouter builds a router of AS 1 with n interfaces, some
// unaddressed and some numbered out of AS 2's space.
func randomRouter(rng *rand.Rand, n int) *topology.Router {
	r := &topology.Router{AS: 1}
	for i := 0; i < n; i++ {
		ifc := &topology.Interface{Router: r, AddrOwner: 1}
		if rng.Intn(5) > 0 {
			ifc.Addr = netaddr.Addr(1000 + i)
		}
		if rng.Intn(3) == 0 {
			ifc.AddrOwner = 2
		}
		r.Ifaces = append(r.Ifaces, ifc)
	}
	return r
}

// TestPickOtherIfaceMatchesReference pins the counting pick to the
// slice-gathering reference: over routers of 0 to 39 interfaces, with
// every interface (and none) as the current one, both return the same
// interface and make the same draws.
func TestPickOtherIfaceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		r := randomRouter(rng, trial%40)
		for c := -1; c < len(r.Ifaces); c++ {
			var current *topology.Interface
			if c >= 0 {
				current = r.Ifaces[c]
			}
			seed := rng.Int63()
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			if g, w := pickOtherIface(r, current, got), refPickOtherIface(r, current, want); g != w {
				t.Fatalf("trial %d, current %d: picked %v, reference %v", trial, c, g, w)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("trial %d, current %d: the draw sequences diverge", trial, c)
			}
		}
	}
}
