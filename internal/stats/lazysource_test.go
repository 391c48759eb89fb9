package stats

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// lazyDraws is how far each stream comparison runs: past draw 607, so
// every register word has been overwritten at least once.
const lazyDraws = 2000

// edgeSeeds exercise math/rand's seed reduction: 0 and the multiples
// of 2³¹−1 (all mapped to 89482311), negatives, the int64 extremes,
// and 89482311 itself.
var edgeSeeds = []int64{
	0, 1, -1, 2, lcgMod, -lcgMod, lcgMod + 5, lcgMod - 1, 2 * lcgMod,
	math.MinInt64, math.MaxInt64, lcgZeroSeed,
}

// compareStreams fails the test at the first Uint64 where got and want
// diverge.
func compareStreams(t *testing.T, label string, got, want rand.Source64, n int) {
	t.Helper()
	for d := 1; d <= n; d++ {
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: draw %d = %#x, rand.NewSource gives %#x", label, d, g, w)
		}
	}
}

func standardSource(seed int64) rand.Source64 {
	return rand.NewSource(seed).(rand.Source64)
}

func TestLazySourceMatchesEdgeSeeds(t *testing.T) {
	for _, seed := range edgeSeeds {
		compareStreams(t, "seed "+strconv.FormatInt(seed, 10), NewLazySource(seed), standardSource(seed), lazyDraws)
	}
}

func TestLazySourceMatchesRandomSeeds(t *testing.T) {
	seeds := rand.New(rand.NewSource(20171101))
	for i := 0; i < 300; i++ {
		seed := int64(seeds.Uint64())
		compareStreams(t, "seed "+strconv.FormatInt(seed, 10), NewLazySource(seed), standardSource(seed), lazyDraws)
	}
}

// TestLazySourceReseed re-seeds one instance after k draws, the way a
// platform worker reuses its source across arrivals, for k on both
// sides of the lazy boundaries: draw 273 (last two-word draw), 274
// (the filling draw), 334/335 (feed wraps past word 0) and 607/608
// (tap wraps).
func TestLazySourceReseed(t *testing.T) {
	src := NewLazySource(42)
	seed := int64(7)
	for _, k := range []int{0, 1, 272, 273, 274, 334, 335, 606, 607, 608, 1500} {
		for d := 0; d < k; d++ {
			src.Uint64()
		}
		seed = seed*6364136223846793005 + 1442695040888963407
		src.Seed(seed)
		compareStreams(t, "re-seed after "+strconv.Itoa(k), src, standardSource(seed), lazyDraws)
	}
	// The same walk through the edge seeds, on one shared instance.
	for _, seed := range edgeSeeds {
		src.Seed(seed)
		compareStreams(t, "re-seed to "+strconv.FormatInt(seed, 10), src, standardSource(seed), rngTap+2)
	}
}

// TestLazySourceRandMethods compares rand.Rand wrappers of both sources
// across every derived draw the collection code can make, so a
// mismatch in Int63 (used by Int63n, Float64, ...) or Uint64 (used by
// Uint64-based paths) cannot hide behind the raw stream test.
func TestLazySourceRandMethods(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 89482311, 123456789} {
		got := rand.New(NewLazySource(seed))
		want := rand.New(rand.NewSource(seed))
		label := "seed " + strconv.FormatInt(seed, 10)
		for i := 0; i < 400; i++ {
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("%s call %d: Intn = %d, want %d", label, i, g, w)
			}
			if g, w := got.Int31n(1<<30+7), want.Int31n(1<<30+7); g != w {
				t.Fatalf("%s call %d: Int31n = %d, want %d", label, i, g, w)
			}
			if g, w := got.Uint32(), want.Uint32(); g != w {
				t.Fatalf("%s call %d: Uint32 = %d, want %d", label, i, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("%s call %d: Float64 = %v, want %v", label, i, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("%s call %d: NormFloat64 = %v, want %v", label, i, g, w)
			}
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("%s call %d: ExpFloat64 = %v, want %v", label, i, g, w)
			}
		}
		gp, wp := got.Perm(50), want.Perm(50)
		for i := range gp {
			if gp[i] != wp[i] {
				t.Fatalf("%s: Perm differs at %d: %v vs %v", label, i, gp, wp)
			}
		}
		gs, ws := make([]int, 64), make([]int, 64)
		for i := range gs {
			gs[i], ws[i] = i, i
		}
		got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		for i := range gs {
			if gs[i] != ws[i] {
				t.Fatalf("%s: Shuffle differs at %d: %v vs %v", label, i, gs, ws)
			}
		}
		// Re-seeding through the Rand wrapper must land on the same
		// state too (the platform workers re-seed this way).
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		for i := 0; i < 300; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s re-seeded call %d: Int63 = %d, want %d", label, i, g, w)
			}
		}
	}
}

// benchDraws is the mean number of draws one campaign arrival makes
// (NDT test plus traceroute).
const benchDraws = 19

// BenchmarkReseed measures one arrival's RNG cost: re-seed plus 19
// draws, for math/rand's source and for LazySource.
func BenchmarkReseed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{
		{"standard", rand.NewSource(1)},
		{"lazy", NewLazySource(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(c.src)
			for i := 0; i < b.N; i++ {
				rng.Seed(int64(i))
				for d := 0; d < benchDraws; d++ {
					rng.Int63()
				}
			}
		})
	}
}
