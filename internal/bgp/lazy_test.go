package bgp

import (
	"math/rand"
	"sync"
	"testing"
)

// TestLazyMatchesEager pins the storage-mode equivalence: every
// accessor answers identically whether the trees were materialized up
// front or computed on demand, across random hierarchies.
func TestLazyMatchesEager(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		tp := randomHierarchy(rng)
		eager := Compute(tp, 1, nil)
		lazy := ComputeLazy(tp)
		if !lazy.Lazy() || eager.Lazy() {
			t.Fatal("mode flags wrong")
		}
		asns := tp.ASNs()
		for _, src := range asns {
			for _, dst := range asns {
				en, eok := eager.NextHop(src, dst)
				ln, lok := lazy.NextHop(src, dst)
				if en != ln || eok != lok {
					t.Fatalf("trial %d: NextHop(%v,%v) eager (%v,%v) lazy (%v,%v)",
						trial, src, dst, en, eok, ln, lok)
				}
				if eager.HasRoute(src, dst) != lazy.HasRoute(src, dst) {
					t.Fatalf("trial %d: HasRoute(%v,%v) differs", trial, src, dst)
				}
				if eager.Class(src, dst) != lazy.Class(src, dst) {
					t.Fatalf("trial %d: Class(%v,%v) differs", trial, src, dst)
				}
				if eager.PathLen(src, dst) != lazy.PathLen(src, dst) {
					t.Fatalf("trial %d: PathLen(%v,%v) differs", trial, src, dst)
				}
				ep, lp := eager.Path(src, dst), lazy.Path(src, dst)
				if len(ep) != len(lp) {
					t.Fatalf("trial %d: Path(%v,%v) %v vs %v", trial, src, dst, ep, lp)
				}
				for i := range ep {
					if ep[i] != lp[i] {
						t.Fatalf("trial %d: Path(%v,%v) %v vs %v", trial, src, dst, ep, lp)
					}
				}
			}
		}
		if got, want := lazy.ComputedTrees(), len(asns); got != want {
			t.Errorf("trial %d: lazy computed %d trees after full sweep, want %d", trial, got, want)
		}
	}
}

// TestLazyConcurrentFirstUse hammers one lazy table from many
// goroutines (run under -race): racing first-use computations must
// CAS-publish identical trees and agree with the eager answer.
func TestLazyConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tp := randomHierarchy(rng)
	eager := Compute(tp, 1, nil)
	lazy := ComputeLazy(tp)
	asns := tp.ASNs()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, src := range asns {
				for _, dst := range asns {
					en, _ := eager.NextHop(src, dst)
					ln, _ := lazy.NextHop(src, dst)
					if en != ln {
						select {
						case errs <- "concurrent NextHop mismatch":
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got, want := lazy.ComputedTrees(), len(asns); got != want {
		t.Errorf("computed tree count %d, want %d (each tree published once)", got, want)
	}
}
