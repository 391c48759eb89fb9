//go:build !race

package traceroute

import (
	"math/rand"
	"testing"
)

// TestPickOtherIfaceAllocsNothing pins that a third-party reply from a
// router of any degree allocates nothing.
func TestPickOtherIfaceAllocsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := randomRouter(rng, 40)
	allocs := testing.AllocsPerRun(100, func() {
		pickOtherIface(r, r.Ifaces[0], rng)
	})
	if allocs != 0 {
		t.Errorf("pickOtherIface on a %d-interface router: %.1f allocs/op, want 0", len(r.Ifaces), allocs)
	}
}
