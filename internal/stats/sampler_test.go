package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestWeightedSamplerMatchesWeightedChoice pins the draw-for-draw
// identity contract: over identical RNG streams, Pick returns exactly
// the index sequence WeightedChoice returns, for mixed, degenerate,
// and all-zero weight vectors.
func TestWeightedSamplerMatchesWeightedChoice(t *testing.T) {
	vectors := [][]float64{
		{0, 1, 3, 0},
		{2.5},
		{1, 1, 1, 1, 1, 1, 1},
		{0, 0, 0},
		{0.1, 0, 17, 3.3, 0, 0.0001, 42},
		{-1, 2, -3, 4},
	}
	for vi, weights := range vectors {
		s := NewWeightedSampler(weights)
		a := rand.New(rand.NewSource(int64(vi + 1)))
		b := rand.New(rand.NewSource(int64(vi + 1)))
		for i := 0; i < 5000; i++ {
			want := WeightedChoice(weights, a)
			if got := s.Pick(b); got != want {
				t.Fatalf("vector %d draw %d: Pick = %d, WeightedChoice = %d", vi, i, got, want)
			}
		}
	}
}

// scanPick is the subtraction scan Pick replaced, kept here as the
// reference the binary search must reproduce draw for draw.
func scanPick(weights []float64, r float64) int {
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// householdLikeWeights draws a 4,320-weight vector (the household
// population's size) with zero weights and 1e-9 and 1e6 outliers, the
// cases where prefix sums and the scan's running remainder round
// furthest apart.
func householdLikeWeights(rng *rand.Rand) []float64 {
	w := make([]float64, 4320)
	for i := range w {
		switch k := rng.Intn(100); {
		case k < 10:
			w[i] = 0
		case k < 13:
			w[i] = 1e-9 * rng.Float64()
		case k < 15:
			w[i] = 1e6 * (1 + rng.Float64())
		default:
			w[i] = 0.1 + 10*rng.Float64()
		}
	}
	return w
}

// TestWeightedSamplerMatchesScan pins Pick's binary search to the
// subtraction scan over 200 random household-sized weight vectors: on
// RNG draws, and on draws placed at, one ulp either side of, and just
// inside and outside the guard band around prefix sums. Each vector
// probes every 50th prefix sum from its own offset, so the 200 vectors
// together probe every prefix sum four times; the first vector probes
// all of them.
func TestWeightedSamplerMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for v := 0; v < 200; v++ {
		weights := householdLikeWeights(rng)
		s := NewWeightedSampler(weights)
		a := rand.New(rand.NewSource(int64(v)))
		b := rand.New(rand.NewSource(int64(v)))
		for i := 0; i < 500; i++ {
			want := scanPick(weights, a.Float64()*s.total)
			if got := s.Pick(b); got != want {
				t.Fatalf("vector %d draw %d: Pick = %d, scan = %d", v, i, got, want)
			}
		}
		stride := 50
		if v == 0 {
			stride = 1
		}
		for k := v % stride; k < len(s.cum); k += stride {
			c := s.cum[k]
			probes := []float64{
				c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)),
				c - s.band, math.Nextafter(c-s.band, 0),
				c + s.band, math.Nextafter(c+s.band, math.Inf(1)),
			}
			for _, r := range probes {
				if r < 0 || r >= s.total {
					continue // outside Float64()·total's range
				}
				if got, want := s.pickAt(r), scanPick(weights, r); got != want {
					t.Fatalf("vector %d prefix %d r=%v: pickAt = %d, scan = %d", v, k, r, got, want)
				}
			}
		}
	}
}
