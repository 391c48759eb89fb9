package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N=%d Mean=%v, want 8, 5", s.N, s.Mean)
	}
	// Sample stddev of this classic example is ~2.138.
	if math.Abs(s.Stddev-2.1380899) > 1e-6 {
		t.Errorf("Stddev = %v", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min=%v Max=%v", s.Min, s.Max)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty Summarize N = %d", z.N)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.N != 1 || s.Mean != 3.5 || s.Stddev != 0 || s.Min != 3.5 || s.Max != 3.5 {
		t.Errorf("single-element summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Out-of-range q clamps.
	if Quantile(xs, -1) != 1 || Quantile(xs, 2) != 5 {
		t.Error("q should clamp to [0,1]")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		q = math.Abs(math.Mod(q, 1))
		v := Quantile(xs, q)
		mn, mx := Quantile(xs, 0), Quantile(xs, 1)
		return v >= mn && v <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantileMonotoneInQ(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := Quantile(xs, q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v", q)
		}
		prev = v
	}
}

func TestQuantilesSorted(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	got := QuantilesSorted(sorted, 0, 0.5, 1)
	if got[0] != 1 || got[1] != 5 || got[2] != 9 {
		t.Errorf("QuantilesSorted = %v", got)
	}
}

func TestHourBins(t *testing.T) {
	var b HourBins
	b.Add(6.5, 10)
	b.Add(6.9, 20)
	b.Add(23.99, 5)
	b.Add(-1, 7)   // wraps to 23
	b.Add(24.5, 9) // wraps to 0

	if got := b.Bin(6); len(got) != 2 {
		t.Errorf("bin 6 has %d values", len(got))
	}
	if got := b.Bin(23); len(got) != 2 {
		t.Errorf("bin 23 has %d values, want 2 (one wrapped)", len(got))
	}
	if got := b.Bin(0); len(got) != 1 || got[0] != 9 {
		t.Errorf("bin 0 = %v", got)
	}
	if b.Total() != 5 {
		t.Errorf("Total = %d", b.Total())
	}
	c := b.Counts()
	if c[6] != 2 || c[23] != 2 || c[0] != 1 {
		t.Errorf("Counts = %v", c)
	}
	med := b.Medians()
	if med[6] != 15 {
		t.Errorf("median bin 6 = %v", med[6])
	}
	if !math.IsNaN(med[12]) {
		t.Error("empty bin median should be NaN")
	}
	means := b.Means()
	if means[6] != 15 {
		t.Errorf("mean bin 6 = %v", means[6])
	}
	sd := b.Stddevs()
	if math.Abs(sd[6]-math.Sqrt(50)) > 1e-9 {
		t.Errorf("stddev bin 6 = %v", sd[6])
	}
}

func TestMannWhitneyUSeparatedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = 10 + rng.NormFloat64()
		ys[i] = 20 + rng.NormFloat64()
	}
	_, p := MannWhitneyU(xs, ys)
	if p > 1e-6 {
		t.Errorf("clearly separated samples: p = %v, want tiny", p)
	}
}

func TestMannWhitneyUSameDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	reject := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 50)
		ys := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		if _, p := MannWhitneyU(xs, ys); p < 0.05 {
			reject++
		}
	}
	// Expected false-positive rate ~5%; allow generous slack.
	if reject > trials/4 {
		t.Errorf("rejected %d/%d same-distribution pairs", reject, trials)
	}
}

func TestMannWhitneyUTinySamples(t *testing.T) {
	if _, p := MannWhitneyU([]float64{1, 2}, []float64{3}); p != 1 {
		t.Errorf("tiny-sample p = %v, want conservative 1", p)
	}
	if _, p := MannWhitneyU(nil, []float64{1}); p != 1 {
		t.Errorf("empty-sample p = %v, want 1", p)
	}
}

func TestMannWhitneyUHandlesTies(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 1, 2, 2, 2}
	ys := []float64{1, 1, 2, 2, 2, 2, 2, 2}
	u, p := MannWhitneyU(xs, ys)
	if math.IsNaN(u) || math.IsNaN(p) || p < 0 || p > 1 {
		t.Errorf("ties produced invalid result u=%v p=%v", u, p)
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	weights := []float64{0, 1, 3, 0}
	counts := make([]int, 4)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[WeightedChoice(weights, rng)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Errorf("zero-weight entries chosen: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestWeightedChoiceAllZero(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[WeightedChoice([]float64{0, 0, 0}, rng)] = true
	}
	if len(seen) != 3 {
		t.Errorf("all-zero weights should fall back to uniform, saw %v", seen)
	}
}

func BenchmarkQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantile(xs, 0.5)
	}
}

func BenchmarkMannWhitneyU(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MannWhitneyU(xs, ys)
	}
}
