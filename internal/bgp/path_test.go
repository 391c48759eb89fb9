package bgp

import (
	"math/rand"
	"reflect"
	"testing"

	"throughputlab/internal/topology"
)

// referencePath is the pre-optimization Path implementation: HasRoute
// then a NextHop walk, re-resolving both endpoints through the index
// maps at every step. AppendPath must return exactly this.
func referencePath(r *Routes, src, dst topology.ASN) []topology.ASN {
	if !r.HasRoute(src, dst) {
		return nil
	}
	path := []topology.ASN{src}
	cur := src
	for cur != dst {
		next, ok := r.NextHop(cur, dst)
		if !ok {
			return nil
		}
		path = append(path, next)
		cur = next
		if len(path) > maxDist {
			return nil
		}
	}
	return path
}

// TestPathMatchesReferenceWalk pins the single-walk Path against the
// NextHop reference on random hierarchies, including self-paths,
// unknown ASes, and the append-into-caller form.
func TestPathMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		tp := randomHierarchy(rng)
		r := Compute(tp, 1, nil)
		asns := tp.ASNs()
		for _, src := range asns {
			for _, dst := range asns {
				want := referencePath(r, src, dst)
				got := r.Path(src, dst)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d: Path(%d,%d) = %v, want %v", trial, src, dst, got, want)
				}
				if want != nil {
					buf := make([]topology.ASN, 0, 8)
					appended := r.AppendPath(buf, src, dst)
					if !reflect.DeepEqual(appended, want) {
						t.Fatalf("trial %d: AppendPath(%d,%d) = %v, want %v", trial, src, dst, appended, want)
					}
				}
			}
		}
		// Unknown endpoints stay nil.
		if p := r.Path(asns[0], topology.ASN(999999)); p != nil {
			t.Fatalf("trial %d: path to unknown AS = %v", trial, p)
		}
		if p := r.Path(topology.ASN(999999), asns[0]); p != nil {
			t.Fatalf("trial %d: path from unknown AS = %v", trial, p)
		}
		// Self-path is the single-element path.
		if p := r.Path(asns[0], asns[0]); len(p) != 1 || p[0] != asns[0] {
			t.Fatalf("trial %d: self path = %v", trial, p)
		}
	}
}

// BenchmarkPath pins the allocation cost of Path: the distance table
// pre-sizes the slice, so each call is exactly one allocation.
func BenchmarkPath(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tp := randomHierarchy(rng)
	r := Compute(tp, 1, nil)
	asns := tp.ASNs()
	src, dst := asns[0], asns[len(asns)-1]
	if r.Path(src, dst) == nil {
		b.Fatal("no route between benchmark endpoints")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := r.Path(src, dst); len(p) == 0 {
			b.Fatal("empty path")
		}
	}
	b.StopTimer()
	// allocs/op is asserted by TestPathSingleAlloc; the benchmark keeps
	// the number visible in -bench output.
}

// TestPathSingleAlloc pins allocs/op for Path at one and AppendPath
// into spare capacity at zero.
func TestPathSingleAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tp := randomHierarchy(rng)
	r := Compute(tp, 1, nil)
	asns := tp.ASNs()
	src, dst := asns[0], asns[len(asns)-1]
	allocs := testing.AllocsPerRun(100, func() {
		if p := r.Path(src, dst); len(p) == 0 {
			t.Fatal("empty path")
		}
	})
	if allocs > 1 {
		t.Errorf("Path allocs/op = %.1f, want ≤ 1", allocs)
	}
	buf := make([]topology.ASN, 0, maxDist+1)
	allocs = testing.AllocsPerRun(100, func() {
		if p := r.AppendPath(buf[:0], src, dst); len(p) == 0 {
			t.Fatal("empty path")
		}
	})
	if allocs != 0 {
		t.Errorf("AppendPath into spare capacity allocs/op = %.1f, want 0", allocs)
	}
}
