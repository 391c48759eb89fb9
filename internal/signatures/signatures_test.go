package signatures

import (
	"context"
	"sync"
	"testing"

	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
)

// world and its corpus are the package's shared fixtures, built on
// first use.
var (
	world = sync.OnceValue(func() *topogen.World {
		return topogen.MustGenerate(topogen.SmallConfig())
	})
	corpus = sync.OnceValue(func() *platform.Corpus {
		cfg := platform.DefaultCollect()
		cfg.Tests = 4000
		cfg.PerPoolClients = 8
		c, err := platform.CollectParallelCtx(context.Background(), world(), cfg, 1)
		if err != nil {
			panic(err)
		}
		return c
	})
)

func TestSelfInflation(t *testing.T) {
	f := Features{MinRTTms: 20, MeanRTTms: 30}
	if got := f.SelfInflation(); got != 0.5 {
		t.Errorf("inflation = %v, want 0.5", got)
	}
	if (Features{MinRTTms: 0, MeanRTTms: 30}).SelfInflation() != 0 {
		t.Error("zero min RTT should yield 0")
	}
}

func TestClassifyRegimes(t *testing.T) {
	cfg := DefaultConfig()
	// Self-induced: big RTT growth.
	v := Classify(Features{MinRTTms: 15, MeanRTTms: 60, LossRate: 1e-4}, cfg)
	if v != SelfInduced {
		t.Errorf("inflated flow classified %v", v)
	}
	// External: flat, high RTT with loss.
	v = Classify(Features{MinRTTms: 150, MeanRTTms: 152, LossRate: 0.02}, cfg)
	if v != ExternalCongestion {
		t.Errorf("flat lossy flow classified %v", v)
	}
	// Fast idle path: flat, no loss → indeterminate.
	v = Classify(Features{MinRTTms: 12, MeanRTTms: 12.5, LossRate: 1e-6}, cfg)
	if v != Indeterminate {
		t.Errorf("idle path classified %v", v)
	}
	// Zero config falls back to defaults.
	v = Classify(Features{MinRTTms: 15, MeanRTTms: 60, LossRate: 1e-4}, Config{})
	if v != SelfInduced {
		t.Error("zero config did not default")
	}
}

func TestVerdictString(t *testing.T) {
	if SelfInduced.String() != "self-induced" || ExternalCongestion.String() != "external-congestion" ||
		Indeterminate.String() != "indeterminate" || Verdict(9).String() == "" {
		t.Error("verdict strings wrong")
	}
}

// TestEndToEndSeparation is the headline claim: on simulated NDT tests
// the two regimes separate with high accuracy using only (minRTT,
// meanRTT, loss) — fields real NDT already logs.
func TestEndToEndSeparation(t *testing.T) {
	var peak []*ndt.Test
	for _, ts := range corpus().Tests {
		h := world().Topo.MustMetro(ts.ClientMetro).LocalHour(ts.StartMinute)
		if h >= 18 && h < 23 {
			peak = append(peak, ts)
		}
	}
	if len(peak) < 300 {
		t.Skipf("only %d peak tests", len(peak))
	}
	c := Evaluate(peak, DefaultConfig())
	if c.DeterminateFrac() < 0.5 {
		t.Errorf("only %.0f%% of tests got a verdict", 100*c.DeterminateFrac())
	}
	if acc := c.Accuracy(); acc < 0.9 {
		t.Errorf("accuracy %.3f < 0.9 (confusion %v)", acc, c.Counts)
	}
	// Both classes must actually occur in the corpus (the congested
	// GTT-AT&T pair supplies the external class).
	ext := c.Counts[ExternalCongestion][ExternalCongestion] + c.Counts[ExternalCongestion][SelfInduced] +
		c.Counts[ExternalCongestion][Indeterminate]
	if ext == 0 {
		t.Error("no externally-congested tests in corpus")
	}
}

// TestExternalFlowsStartHigh checks the mechanism end to end: tests
// crossing a saturated link have flat RTT (mean ≈ min), access-limited
// tests inflate their own RTT.
func TestExternalFlowsStartHigh(t *testing.T) {
	var extInfl, selfInfl []float64
	for _, ts := range corpus().Tests {
		f := Extract(ts)
		if ts.TruthSaturated {
			extInfl = append(extInfl, f.SelfInflation())
		} else if ts.TruthKind.String() == "access-plan" {
			selfInfl = append(selfInfl, f.SelfInflation())
		}
	}
	if len(extInfl) < 20 || len(selfInfl) < 20 {
		t.Skipf("thin classes: ext=%d self=%d", len(extInfl), len(selfInfl))
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(extInfl) >= mean(selfInfl) {
		t.Errorf("external flows inflate (%.2f) as much as self-limited (%.2f)",
			mean(extInfl), mean(selfInfl))
	}
}

func TestEvaluateCounts(t *testing.T) {
	c := Evaluate(corpus().Tests[:100], DefaultConfig())
	if c.Total != 100 {
		t.Errorf("total %d", c.Total)
	}
	sum := 0
	for i := range c.Counts {
		for j := range c.Counts[i] {
			sum += c.Counts[i][j]
		}
	}
	if sum != 100 {
		t.Errorf("confusion sums to %d", sum)
	}
}

func BenchmarkClassify(b *testing.B) {
	cfg := DefaultConfig()
	f := Features{MinRTTms: 30, MeanRTTms: 80, LossRate: 1e-3}
	for i := 0; i < b.N; i++ {
		Classify(f, cfg)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	cfg := DefaultConfig()
	tests := corpus().Tests
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(tests, cfg)
	}
}
