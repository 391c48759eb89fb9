// Package stats provides the statistical primitives used by the
// congestion-inference pipeline: summary statistics, quantiles,
// hour-of-day binning, bootstrap confidence intervals, and the
// Mann–Whitney U test used to compare peak vs off-peak throughput
// samples (§6 of the paper).
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Summary holds the moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary with N == 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += float64(d * d)
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R/numpy default).
// It returns NaN for an empty sample. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

// QuantilesSorted returns the quantiles qs of a pre-sorted sample,
// avoiding repeated copies when many quantiles of the same data are
// needed.
func QuantilesSorted(sorted []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// HourBins groups (hour, value) observations into 24 hour-of-day bins.
// This is the aggregation underlying Figure 5 and the diurnal analysis.
type HourBins struct {
	bins [24][]float64
}

// Add records a value observed at local hour h (fractional hours
// allowed; binned by floor). Hours outside [0,24) are wrapped.
func (b *HourBins) Add(hour float64, v float64) {
	h := int(math.Floor(math.Mod(hour, 24)))
	if h < 0 {
		h += 24
	}
	b.bins[h] = append(b.bins[h], v)
}

// Bin returns the raw values in hour bin h.
func (b *HourBins) Bin(h int) []float64 { return b.bins[((h%24)+24)%24] }

// Counts returns the number of samples per hour.
func (b *HourBins) Counts() [24]int {
	var c [24]int
	for h := range b.bins {
		c[h] = len(b.bins[h])
	}
	return c
}

// Series applies f to each hour bin and returns the 24 results; empty
// bins yield NaN.
func (b *HourBins) Series(f func([]float64) float64) [24]float64 {
	var out [24]float64
	for h := range b.bins {
		if len(b.bins[h]) == 0 {
			out[h] = math.NaN()
			continue
		}
		out[h] = f(b.bins[h])
	}
	return out
}

// Medians returns the per-hour median series.
func (b *HourBins) Medians() [24]float64 { return b.Series(Median) }

// Means returns the per-hour mean series.
func (b *HourBins) Means() [24]float64 {
	return b.Series(func(xs []float64) float64 { return Summarize(xs).Mean })
}

// Stddevs returns the per-hour sample standard deviation series.
func (b *HourBins) Stddevs() [24]float64 {
	return b.Series(func(xs []float64) float64 { return Summarize(xs).Stddev })
}

// Total returns the total number of samples across all hours.
func (b *HourBins) Total() int {
	n := 0
	for h := range b.bins {
		n += len(b.bins[h])
	}
	return n
}

// MannWhitneyU performs a two-sided Mann–Whitney U test of whether
// samples xs and ys come from the same distribution, returning the U
// statistic (for xs) and an approximate two-sided p-value using the
// normal approximation with tie correction. The approximation is
// appropriate for the sample sizes the pipeline feeds it (tens+); tiny
// samples return p = 1 conservatively.
func MannWhitneyU(xs, ys []float64) (u float64, p float64) {
	nx, ny := len(xs), len(ys)
	if nx == 0 || ny == 0 {
		return 0, 1
	}
	type obs struct {
		v    float64
		isX  bool
		rank float64
	}
	all := make([]obs, 0, nx+ny)
	for _, v := range xs {
		all = append(all, obs{v: v, isX: true})
	}
	for _, v := range ys {
		all = append(all, obs{v: v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks, accumulating the tie-correction term.
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		r := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			all[k].rank = r
		}
		t := float64(j - i)
		if t > 1 {
			tieTerm += float64(t*t*t) - t
		}
		i = j
	}
	var rx float64
	for _, o := range all {
		if o.isX {
			rx += o.rank
		}
	}
	u = rx - float64(float64(nx)*float64(nx+1)/2)
	if nx < 5 || ny < 5 {
		return u, 1
	}
	n := float64(nx + ny)
	mu := float64(float64(nx) * float64(ny) / 2)
	sigma2 := float64(nx) * float64(ny) / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		return u, 1
	}
	z := (u - mu) / math.Sqrt(sigma2)
	// Continuity correction toward the mean.
	if z > 0 {
		z = (u - mu - 0.5) / math.Sqrt(sigma2)
	} else if z < 0 {
		z = (u - mu + 0.5) / math.Sqrt(sigma2)
	}
	p = 2 * normalSF(math.Abs(z))
	if p > 1 {
		p = 1
	}
	return u, p
}

// normalSF is the standard normal survival function 1 - Φ(x).
func normalSF(x float64) float64 {
	return float64(0.5 * math.Erfc(x/math.Sqrt2))
}

// WeightedChoice returns an index in [0, len(weights)) sampled with
// probability proportional to weights[i]. Zero or negative total weight
// falls back to uniform. Used for metro/ISP/tier sampling.
func WeightedChoice(weights []float64, rng *rand.Rand) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	r := rng.Float64() * total
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

// WeightedSampler is WeightedChoice with the weights summed once, for
// hot loops that draw many times from one fixed weight vector (e.g.
// household selection during campaign scheduling). Pick consumes the
// same RNG draw as WeightedChoice and returns the index its
// left-to-right subtraction scan would, but finds it by binary search
// over precomputed prefix sums.
//
// The search is exact, not just close. Floating-point subtraction is
// monotone and every step of the scan lowers r, so the scan picks an
// index ≤ k exactly when its running r after step k is negative. The
// running r and the prefix sum cum[k] each stay within k·u·total of
// the exact sums (u = 2⁻⁵³), so a draw farther than 2·n·u·total from
// both prefix sums around the searched index gets the scan's answer.
// Inside a guard band of 4·(n+1)·u·total, Pick runs the scan instead;
// for the 4,320 household weights the bands cover about 2·10⁻⁸ of the
// draw range.
type WeightedSampler struct {
	weights []float64
	// cum[i] is the running sum of the positive weights in [0, i], in
	// index order; it stays flat across non-positive weights.
	cum   []float64
	total float64
	band  float64
}

// NewWeightedSampler captures the weight vector (not copied; the
// caller must not mutate it).
func NewWeightedSampler(weights []float64) *WeightedSampler {
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	band := 4 * float64(len(weights)+1) * 0x1p-53 * total
	return &WeightedSampler{weights: weights, cum: cum, total: total, band: band}
}

// Pick returns an index sampled like WeightedChoice(weights, rng).
func (s *WeightedSampler) Pick(rng *rand.Rand) int {
	if s.total <= 0 {
		return rng.Intn(len(s.weights))
	}
	return s.pickAt(rng.Float64() * s.total)
}

// pickAt returns the index the subtraction scan picks for draw r.
func (s *WeightedSampler) pickAt(r float64) int {
	// The first index whose prefix sum exceeds r; cum rises only at
	// positive weights, so that index carries one.
	i := sort.Search(len(s.cum), func(i int) bool { return s.cum[i] > r })
	lo := 0.0
	if i > 0 {
		lo = s.cum[i-1]
	}
	if i == len(s.cum) || r-lo <= s.band || s.cum[i]-r <= s.band {
		return s.scanAt(r)
	}
	return i
}

// scanAt is WeightedChoice's subtraction scan from draw r.
func (s *WeightedSampler) scanAt(r float64) int {
	for i, w := range s.weights {
		if w <= 0 {
			continue
		}
		r -= w
		if r < 0 {
			return i
		}
	}
	return len(s.weights) - 1
}
