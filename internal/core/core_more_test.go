package core

import (
	"testing"

	"throughputlab/internal/ndt"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/traceroute"
)

// mkTest builds a minimal synthetic test record for matcher unit tests.
func mkTest(id int, server, client string, minute int) *ndt.Test {
	return &ndt.Test{
		ID:          id,
		ServerAddr:  netaddr.MustParseAddr(server),
		ClientAddr:  netaddr.MustParseAddr(client),
		StartMinute: minute,
	}
}

func mkTrace(server, client string, minute int) *traceroute.Trace {
	return &traceroute.Trace{
		SrcAddr:      netaddr.MustParseAddr(server),
		DstAddr:      netaddr.MustParseAddr(client),
		LaunchMinute: minute,
		Reached:      true,
	}
}

func TestMatchWindowBoundaries(t *testing.T) {
	tests := []*ndt.Test{mkTest(1, "10.0.0.1", "20.0.0.1", 100)}
	cases := []struct {
		launch int
		mode   MatchMode
		want   bool
	}{
		{100, WindowAfter, true},  // exactly at test start
		{110, WindowAfter, true},  // exactly at window edge
		{111, WindowAfter, false}, // one past
		{99, WindowAfter, false},  // before start
		{99, WindowAround, true},  // before start, ± window
		{90, WindowAround, true},  // exactly at lower edge
		{89, WindowAround, false}, // one before lower edge
	}
	for _, c := range cases {
		m := MatchTraces(tests, []*traceroute.Trace{mkTrace("10.0.0.1", "20.0.0.1", c.launch)}, 10, c.mode)
		got := m.ByTest[1] != nil
		if got != c.want {
			t.Errorf("launch %d mode %v: matched=%v, want %v", c.launch, c.mode, got, c.want)
		}
	}
}

func TestMatchWrongEndpointsNeverMatch(t *testing.T) {
	tests := []*ndt.Test{mkTest(1, "10.0.0.1", "20.0.0.1", 100)}
	traces := []*traceroute.Trace{
		mkTrace("10.0.0.2", "20.0.0.1", 101), // wrong server
		mkTrace("10.0.0.1", "20.0.0.2", 101), // wrong client
	}
	m := MatchTraces(tests, traces, 10, WindowAfter)
	if m.Matched() != 0 {
		t.Error("mismatched endpoints matched")
	}
}

func TestMatchEarlierTestClaimsEarlierTrace(t *testing.T) {
	// Two tests to the same client; one trace each. The first test must
	// take the first trace.
	tests := []*ndt.Test{
		mkTest(2, "10.0.0.1", "20.0.0.1", 105), // deliberately out of slice order
		mkTest(1, "10.0.0.1", "20.0.0.1", 100),
	}
	traces := []*traceroute.Trace{
		mkTrace("10.0.0.1", "20.0.0.1", 102),
		mkTrace("10.0.0.1", "20.0.0.1", 107),
	}
	m := MatchTraces(tests, traces, 10, WindowAfter)
	if m.Matched() != 2 {
		t.Fatalf("matched %d of 2", m.Matched())
	}
	if m.ByTest[1].LaunchMinute != 102 || m.ByTest[2].LaunchMinute != 107 {
		t.Errorf("greedy time-order assignment violated: test1→%d test2→%d",
			m.ByTest[1].LaunchMinute, m.ByTest[2].LaunchMinute)
	}
}

func TestMatchEmptyInputs(t *testing.T) {
	m := MatchTraces(nil, nil, 10, WindowAfter)
	if m.Total != 0 || m.Matched() != 0 || m.Rate() != 0 {
		t.Errorf("empty matching = %+v", m)
	}
}

func TestDetectZeroOffMedian(t *testing.T) {
	// All-zero throughput should not divide by zero.
	s := &Series{}
	for h := 0.0; h < 24; h++ {
		for i := 0; i < 40; i++ {
			s.Add(h, &ndt.Test{DownMbps: 0})
		}
	}
	v := Detect(s, DefaultDetector())
	if v.InsufficientData {
		t.Fatal("plenty of samples")
	}
	if v.Drop != 0 || v.MeanDrop != 0 {
		t.Errorf("zero baseline produced drop %v/%v", v.Drop, v.MeanDrop)
	}
}

func TestDetectZeroConfigDefaults(t *testing.T) {
	s := &Series{}
	for h := 0.0; h < 24; h++ {
		for i := 0; i < 40; i++ {
			s.Add(h, &ndt.Test{DownMbps: 50})
		}
	}
	v := Detect(s, DetectorConfig{})
	if v.InsufficientData || v.Congested {
		t.Errorf("flat series misjudged: %+v", v)
	}
}

func TestHopBucketsAccessors(t *testing.T) {
	b := HopBuckets{One: 6, Two: 3, More: 1}
	if b.Total() != 10 {
		t.Errorf("Total = %d", b.Total())
	}
	if b.FracOne() != 0.6 {
		t.Errorf("FracOne = %v", b.FracOne())
	}
	if (HopBuckets{}).FracOne() != 0 {
		t.Error("empty buckets FracOne should be 0")
	}
}

func TestBiasEmptyInput(t *testing.T) {
	rep := Bias(nil, 10)
	if rep.NightToEveningRatio != 0 {
		t.Error("empty bias ratio should be 0")
	}
	if len(rep.ThinHours) != 24 {
		t.Errorf("all 24 hours should be thin, got %d", len(rep.ThinHours))
	}
}

func TestThresholdSweepEmptyGroups(t *testing.T) {
	pts := ThresholdSweep(nil, []float64{0.5}, DefaultDetector())
	if len(pts) != 1 || pts[0].TruePos+pts[0].FalsePos+pts[0].TrueNeg+pts[0].FalseNeg+pts[0].Undecided != 0 {
		t.Errorf("empty sweep = %+v", pts)
	}
	if pts[0].Precision() != 0 || pts[0].Recall() != 0 {
		t.Error("empty precision/recall should be 0, not NaN")
	}
}

func TestDetectRequiresSignificance(t *testing.T) {
	// A deep-looking drop built on overlapping noisy samples must not
	// be called congested without statistical significance.
	s := &Series{}
	vals := []float64{5, 80, 6, 75, 7, 70, 8, 85} // wildly mixed
	for h := 0.0; h < 24; h++ {
		for i := 0; i < 5; i++ {
			s.Add(h, &ndt.Test{DownMbps: vals[(int(h)+i)%len(vals)]})
		}
	}
	cfg := DefaultDetector()
	cfg.MinSamples = 10
	v := Detect(s, cfg)
	if v.Congested {
		t.Errorf("indistinguishable distributions flagged congested (p=%.3f drop=%.2f)", v.PValue, v.Drop)
	}
	// A cleanly separated series is both deep and significant.
	s2 := &Series{}
	for h := 0.0; h < 24; h++ {
		val := 50.0
		if h >= 19 && h < 23 {
			val = 1.0
		}
		for i := 0; i < 40; i++ {
			s2.Add(h, &ndt.Test{DownMbps: val + float64(i%5)})
		}
	}
	v2 := Detect(s2, cfg)
	if !v2.Congested || v2.PValue >= 0.05 {
		t.Errorf("separated series not flagged: p=%v drop=%v", v2.PValue, v2.Drop)
	}
}
