package bgp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"throughputlab/internal/topology"
)

// answers records every accessor's answer from src toward dst, one
// line per pair, so two walks compare as strings.
func answers(r *Routes, src, dst topology.ASN) string {
	nh, ok := r.NextHop(src, dst)
	return fmt.Sprintf("%v %v %v %v %v %v %v\n", src, dst, nh, ok,
		r.HasRoute(src, dst), r.Class(src, dst), r.PathLen(src, dst)) + fmt.Sprint(r.Path(src, dst))
}

// walk answers every (src, dst) pair of asns, destination-major, with
// the destinations split over workers goroutines by stride: each
// destination's tree is first computed by whichever goroutine reads it.
func walk(r *Routes, asns []topology.ASN, workers int) []string {
	out := make([]string, len(asns)*len(asns))
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for d := g; d < len(asns); d += workers {
				for s, src := range asns {
					out[d*len(asns)+s] = answers(r, src, asns[d])
				}
			}
		}(g)
	}
	wg.Wait()
	return out
}

// TestLazyConcurrentMatchesSerial pins that the order and concurrency
// of first use never show: a table walked by four goroutines answers
// every accessor as a table walked by one, across random hierarchies,
// and both computed each destination's tree exactly once.
func TestLazyConcurrentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		tp := randomHierarchy(rng)
		asns := tp.ASNs()
		serial, conc := ComputeLazy(tp), ComputeLazy(tp)
		want, got := walk(serial, asns, 1), walk(conc, asns, 4)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: concurrent walk answered\n%s\nserial walk\n%s", trial, got[i], want[i])
			}
		}
		for name, r := range map[string]*Routes{"serial": serial, "concurrent": conc} {
			if n := r.ComputedTrees(); n != len(asns) {
				t.Errorf("trial %d: %s walk computed %d trees, want %d", trial, name, n, len(asns))
			}
		}
	}
}

// TestLazyConcurrentFirstUse hammers one table from many goroutines
// (run under -race), all reading every destination at once: racing
// first uses must wait for one computation per tree, agree with a
// serially-walked table, and publish each tree once.
func TestLazyConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tp := randomHierarchy(rng)
	asns := tp.ASNs()
	want := walk(ComputeLazy(tp), asns, 1)
	r := ComputeLazy(tp)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d, dst := range asns {
				for s, src := range asns {
					if got := answers(r, src, dst); got != want[d*len(asns)+s] {
						select {
						case errs <- got:
						default:
						}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("concurrent first use answered %s, unlike the serial walk", e)
	}
	if got, want := r.ComputedTrees(), len(asns); got != want {
		t.Errorf("computed tree count %d, want %d (each tree published once)", got, want)
	}
}
