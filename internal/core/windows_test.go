package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"throughputlab/internal/ndt"
	"throughputlab/internal/stats"
)

// TestHourRangeIn pins the one window rule at its edges: From is in, To
// is out, and the last instants before 23 and 24 fall on the side their
// hour bin does.
func TestHourRangeIn(t *testing.T) {
	eps := math.Nextafter(24, 0)
	cases := []struct {
		name string
		r    HourRange
		h    float64
		want bool
	}{
		{"detector peak from", DetectorWindows.Peak, 19, true},
		{"detector peak before from", DetectorWindows.Peak, math.Nextafter(19, 0), false},
		{"detector peak 22.999", DetectorWindows.Peak, 22.999, true},
		{"detector peak 23.0", DetectorWindows.Peak, 23.0, true},
		{"detector peak 24-eps", DetectorWindows.Peak, eps, true},
		{"detector peak to", DetectorWindows.Peak, 24, false},
		{"detector off from", DetectorWindows.Off, 8, true},
		{"detector off to", DetectorWindows.Off, 15, false},
		{"detector off 7.999", DetectorWindows.Off, 7.999, false},
		{"probe peak from", ProbeWindows.Peak, 19, true},
		{"probe peak 22.999", ProbeWindows.Peak, 22.999, true},
		{"probe peak 23.0", ProbeWindows.Peak, 23.0, false},
		{"probe peak 24-eps", ProbeWindows.Peak, eps, false},
		{"probe off from", ProbeWindows.Off, 7, true},
		{"probe off to", ProbeWindows.Off, 15, false},
		{"signature peak from", SignaturePeak, 18, true},
		{"signature peak 22.999", SignaturePeak, 22.999, true},
		{"signature peak 23.0", SignaturePeak, 23.0, false},
		{"signature peak 24-eps", SignaturePeak, eps, false},
		{"bias evening from", BiasWindows.Peak, 19, true},
		{"bias evening to", BiasWindows.Peak, 22, false},
		{"bias night from", BiasWindows.Off, 3, true},
		{"bias night to", BiasWindows.Off, 6, false},
	}
	for _, c := range cases {
		if got := c.r.In(c.h); got != c.want {
			t.Errorf("%s: %v.In(%v) = %v, want %v", c.name, c.r, c.h, got, c.want)
		}
	}
}

// TestHourRangeInMatchesBins holds In to the bin walk: for every local
// hour in [0,24), In(h) is true exactly when hour bin floor(h) lies in
// [From, To), so per-sample and per-bin readers of one range agree.
func TestHourRangeInMatchesBins(t *testing.T) {
	ranges := []HourRange{
		DetectorWindows.Peak, DetectorWindows.Off,
		ProbeWindows.Peak, ProbeWindows.Off,
		SignaturePeak, BiasWindows.Peak, BiasWindows.Off,
	}
	rng := rand.New(rand.NewSource(42))
	hours := []float64{0, math.Nextafter(24, 0)}
	for h := 0; h < 24; h++ {
		hours = append(hours, float64(h), math.Nextafter(float64(h), 0), float64(h)+0.5)
	}
	for i := 0; i < 2000; i++ {
		hours = append(hours, 24*rng.Float64())
	}
	for _, r := range ranges {
		for _, h := range hours {
			if h < 0 || h >= 24 {
				continue
			}
			bin := int(math.Floor(h))
			if want := bin >= r.From && bin < r.To; r.In(h) != want {
				t.Errorf("%v.In(%v) = %v, but bin %d in range is %v", r, h, r.In(h), bin, want)
			}
		}
	}
}

// refMeasure is the window measurement as it was written over explicit
// hour-bin lists: the detector's peak bins 19–23 and off-peak bins 8–14,
// concatenated in list order.
func refMeasure(s *Series, minSamples int) Verdict {
	var peak, off []float64
	for _, h := range []int{19, 20, 21, 22, 23} {
		peak = append(peak, s.Throughput.Bin(h)...)
	}
	for _, h := range []int{8, 9, 10, 11, 12, 13, 14} {
		off = append(off, s.Throughput.Bin(h)...)
	}
	v := Verdict{PeakN: len(peak), OffN: len(off)}
	if len(peak) < minSamples || len(off) < minSamples {
		v.InsufficientData = true
		return v
	}
	sum := stats.Summarize(peak)
	offSum := stats.Summarize(off)
	sort.Float64s(peak)
	sort.Float64s(off)
	v.PeakMedian = stats.QuantilesSorted(peak, 0.5)[0]
	v.OffMedian = stats.QuantilesSorted(off, 0.5)[0]
	if v.OffMedian > 0 {
		v.Drop = 1 - v.PeakMedian/v.OffMedian
	}
	v.PeakMean, v.OffMean = sum.Mean, offSum.Mean
	if v.OffMean > 0 {
		v.MeanDrop = 1 - v.PeakMean/v.OffMean
	}
	if sum.Mean > 0 {
		v.PeakCV = sum.Stddev / sum.Mean
	}
	_, v.PValue = stats.MannWhitneyU(peak, off)
	return v
}

// randomSeries draws samples at fractional hours with values spread
// over several orders of magnitude, so a float sum taken in another
// bin order rounds differently.
func randomSeries(rng *rand.Rand) *Series {
	s := &Series{}
	n := rng.Intn(600)
	for i := 0; i < n; i++ {
		s.Add(24*rng.Float64(), &ndt.Test{DownMbps: math.Exp(8 * rng.Float64())})
	}
	return s
}

// TestMeasureMatchesBinLists holds measure over DetectorWindows to the
// bin-list reference on seeded random series. Every field must match
// exactly: PeakMean and PeakCV only do when the bins are folded in the
// same order.
func TestMeasureMatchesBinLists(t *testing.T) {
	cfg := DefaultDetector()
	rng := rand.New(rand.NewSource(7))
	insufficient := 0
	for trial := 0; trial < 300; trial++ {
		s := randomSeries(rng)
		got, want := measure(s, cfg), refMeasure(s, cfg.MinSamples)
		if got != want {
			t.Fatalf("trial %d: measure %+v, want %+v", trial, got, want)
		}
		if got.InsufficientData {
			insufficient++
		}
	}
	if insufficient == 0 || insufficient == 300 {
		t.Fatalf("%d of 300 series had insufficient data; want a mix", insufficient)
	}
}

// TestBiasFromBinsMatchesHourSums holds the night/evening ratio over
// BiasWindows to its bin sums as written: bins 3–5 over bins 19–21.
func TestBiasFromBinsMatchesHourSums(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		s := randomSeries(rng)
		c := s.Throughput.Counts()
		night, evening := c[3]+c[4]+c[5], c[19]+c[20]+c[21]
		want := 0.0
		if evening > 0 {
			want = float64(night) / float64(evening)
		}
		rep := BiasFromBins(&s.Throughput, map[uint32]int{}, 10)
		if rep.NightToEveningRatio != want {
			t.Fatalf("trial %d: night/evening %v, want %d/%d", trial, rep.NightToEveningRatio, night, evening)
		}
	}
}
