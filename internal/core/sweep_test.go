package core

import (
	"math/rand"
	"testing"

	"throughputlab/internal/ndt"
)

// refThresholdSweep is the per-threshold loop ThresholdSweep is held
// to: a full Detect for every (group, threshold).
func refThresholdSweep(groups []LabeledGroup, thresholds []float64, cfg DetectorConfig) []ThresholdPoint {
	if cfg == (DetectorConfig{}) {
		cfg = DefaultDetector()
	}
	out := make([]ThresholdPoint, 0, len(thresholds))
	for _, th := range thresholds {
		c := cfg
		c.DropThreshold = th
		pt := ThresholdPoint{Threshold: th}
		for _, g := range groups {
			v := Detect(g.Series, c)
			switch {
			case v.InsufficientData:
				pt.Undecided++
			case v.Congested && g.TrulyCongested:
				pt.TruePos++
			case v.Congested && !g.TrulyCongested:
				pt.FalsePos++
			case !v.Congested && g.TrulyCongested:
				pt.FalseNeg++
			default:
				pt.TrueNeg++
			}
		}
		out = append(out, pt)
	}
	return out
}

// randomGroups builds labeled diurnal series: a random off-peak level,
// a random peak drop (none for about a third), integer-rounded samples
// so the rank test sees ties, and per-hour sample counts that leave
// some groups short of MinSamples in one window.
func randomGroups(rng *rand.Rand, n int) []LabeledGroup {
	groups := make([]LabeledGroup, n)
	for i := range groups {
		s := &Series{}
		base := 20 + 80*rng.Float64()
		drop := 0.0
		if rng.Intn(3) > 0 {
			drop = 0.9 * rng.Float64()
		}
		perHour := 1 + rng.Intn(8)
		for h := 0; h < 24; h++ {
			level := base
			if h >= 19 {
				level *= 1 - drop
			}
			for k := 0; k < perHour; k++ {
				v := float64(int(level * (0.7 + 0.6*rng.Float64())))
				s.Add(float64(h)+0.5, &ndt.Test{DownMbps: v})
			}
		}
		groups[i] = LabeledGroup{Series: s, TrulyCongested: rng.Intn(2) == 0}
	}
	return groups
}

// TestThresholdSweepMatchesReference holds the measure-once sweep to
// the per-threshold Detect loop on seeded random groups, with
// thresholds that include some groups' exact drops.
func TestThresholdSweepMatchesReference(t *testing.T) {
	cfg := DefaultDetector()
	cfg.MinSamples = 15
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		groups := randomGroups(rng, 40)
		ths := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1}
		undecided := 0
		for _, g := range groups {
			v := Detect(g.Series, cfg)
			if v.InsufficientData {
				undecided++
				continue
			}
			if v.Drop > 0 && rng.Intn(4) == 0 {
				ths = append(ths, v.Drop) // a threshold exactly at a drop
			}
		}
		if undecided == 0 || undecided == len(groups) {
			t.Fatalf("trial %d: %d of %d groups undecided; want a mix", trial, undecided, len(groups))
		}
		for _, c := range []DetectorConfig{cfg, {}} {
			want := refThresholdSweep(groups, ths, c)
			got := ThresholdSweep(groups, ths, c)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d points, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d threshold %v: %+v, want %+v", trial, ths[i], got[i], want[i])
				}
			}
		}
	}
}

// TestVerdictRuleBoundaries pins the one verdict rule both Detect and
// ThresholdSweep apply: a drop exactly at the threshold counts, a
// p-value exactly at 0.05 does not, and insufficient data never does.
func TestVerdictRuleBoundaries(t *testing.T) {
	for _, c := range []struct {
		v    Verdict
		th   float64
		want bool
	}{
		{Verdict{Drop: 0.4, PValue: 0.01}, 0.4, true},
		{Verdict{Drop: 0.39, PValue: 0.01}, 0.4, false},
		{Verdict{Drop: 0.5, PValue: 0.05}, 0.4, false},
		{Verdict{Drop: 0.5, PValue: 0.0499}, 0.4, true},
		{Verdict{InsufficientData: true}, 0, false},
	} {
		if got := c.v.congestedAt(c.th); got != c.want {
			t.Errorf("%+v at %v: congested %v, want %v", c.v, c.th, got, c.want)
		}
	}
}
