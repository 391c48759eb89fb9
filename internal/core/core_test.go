package core

import (
	"context"
	"math"
	"testing"

	"throughputlab/internal/mapit"
	"throughputlab/internal/ndt"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

var (
	world  = topogen.MustGenerate(topogen.SmallConfig())
	corpus = func() *platform.Corpus {
		cfg := platform.DefaultCollect()
		cfg.Tests = 6000
		cfg.PerPoolClients = 8
		c, err := platform.CollectParallelCtx(context.Background(), world, cfg, 1)
		if err != nil {
			panic(err)
		}
		return c
	}()
	worldInf = mapit.Run(corpus.Traces, mapitOpts())
)

func mapitOpts() mapit.Opts {
	return mapit.Opts{
		Prefix2AS: world.Topo.OriginOf,
		IsIXP: func(a netaddr.Addr) bool {
			for _, p := range world.Topo.IXPPrefixes {
				if p.Contains(a) {
					return true
				}
			}
			return false
		},
		SameOrg: func(x, y topology.ASN) bool { return x == y || world.Topo.SameOrg(x, y) },
	}
}

func hourOf(t *ndt.Test) float64 {
	return world.Topo.MustMetro(t.ClientMetro).LocalHour(t.StartMinute)
}

func TestMatchTracesRates(t *testing.T) {
	after := MatchTraces(corpus.Tests, corpus.Traces, 10, WindowAfter)
	around := MatchTraces(corpus.Tests, corpus.Traces, 10, WindowAround)
	if after.Total != len(corpus.Tests) {
		t.Fatalf("total %d != %d", after.Total, len(corpus.Tests))
	}
	// §4.1: the after-window method matched 71-76%; relaxing the window
	// raised it to 87%. Shapes: substantial but incomplete matching,
	// and Around ≥ After.
	ra, rr := after.Rate(), around.Rate()
	if ra < 0.5 || ra > 0.98 {
		t.Errorf("after-window rate %.3f outside plausible band", ra)
	}
	if rr < ra {
		t.Errorf("around-window rate %.3f below after-window %.3f", rr, ra)
	}
	// Matched traces really belong to their tests.
	checked := 0
	for _, ts := range corpus.Tests[:500] {
		tr := after.ByTest[ts.ID]
		if tr == nil {
			continue
		}
		checked++
		if tr.SrcAddr != ts.ServerAddr || tr.DstAddr != ts.ClientAddr {
			t.Fatal("matched trace endpoints differ from test")
		}
		if tr.LaunchMinute < ts.StartMinute || tr.LaunchMinute > ts.StartMinute+10 {
			t.Fatal("matched trace outside the window")
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestMatchConsumesEachTraceOnce(t *testing.T) {
	m := MatchTraces(corpus.Tests, corpus.Traces, 10, WindowAfter)
	seen := map[*traceroute.Trace]bool{}
	for _, tr := range m.ByTest {
		if seen[tr] {
			t.Fatal("trace matched to two tests")
		}
		seen[tr] = true
	}
}

func TestDiurnalSeriesAndDetectCongested(t *testing.T) {
	// AT&T clients against GTT Atlanta: the Figure 5a congested pair.
	var att, com []*ndt.Test
	for _, ts := range corpus.Tests {
		if ts.ServerNet != "GTT" || ts.ServerMetro != "atl" {
			continue
		}
		switch ts.ClientISP {
		case "AT&T":
			att = append(att, ts)
		case "Comcast":
			com = append(com, ts)
		}
	}
	if len(att) < 100 || len(com) < 100 {
		t.Skipf("thin GTT-atl groups: att=%d com=%d", len(att), len(com))
	}
	// Off-peak hours carry few crowdsourced samples (§6.1) — at this
	// corpus size the default 30-sample floor would refuse to decide,
	// which is itself the paper's point; lower it for the unit test.
	cfg := DefaultDetector()
	cfg.MinSamples = 10

	sa := BuildSeries(att, hourOf)
	va := Detect(sa, cfg)
	if va.InsufficientData {
		t.Fatalf("AT&T group undecidable: peak %d off %d", va.PeakN, va.OffN)
	}
	if !va.Congested {
		t.Errorf("AT&T-GTT should be detected congested: %+v", va)
	}
	if va.PeakMedian > 2 {
		t.Errorf("AT&T peak median %.2f Mbps, paper shows <1-2", va.PeakMedian)
	}

	sc := BuildSeries(com, hourOf)
	vc := Detect(sc, cfg)
	if vc.Congested {
		t.Errorf("Comcast-GTT should NOT be detected congested: drop=%.2f", vc.Drop)
	}
	// But Comcast still dips measurably (the §6.2 ambiguity).
	if !vc.InsufficientData && vc.Drop < 0.03 {
		t.Logf("note: Comcast dip %.2f very small", vc.Drop)
	}
	// Figure 5a vs 5b variance signature: congested peak has lower CV
	// than the healthy group's peak.
	if !vc.InsufficientData && va.PeakCV >= vc.PeakCV {
		t.Errorf("congested peak CV %.2f should be below busy-pair CV %.2f", va.PeakCV, vc.PeakCV)
	}
}

func TestDetectInsufficientData(t *testing.T) {
	s := &Series{}
	s.Add(21, &ndt.Test{DownMbps: 5})
	v := Detect(s, DefaultDetector())
	if !v.InsufficientData || v.Congested {
		t.Errorf("tiny sample must be undecided: %+v", v)
	}
}

func TestASHopDistributionShape(t *testing.T) {
	m := MatchTraces(corpus.Tests, corpus.Traces, 10, WindowAfter)
	dist := ASHopDistribution(corpus.Tests, m, worldInf, func(ts *ndt.Test) string { return ts.ClientISP })
	com := dist["Comcast"]
	wind := dist["Windstream"]
	if com == nil || com.Total() < 50 {
		t.Fatalf("Comcast bucket thin: %+v", com)
	}
	if com.FracOne() < 0.7 {
		t.Errorf("Comcast one-hop fraction %.2f, want high (Figure 1)", com.FracOne())
	}
	if wind != nil && wind.Total() >= 20 && wind.FracOne() > 0.5 {
		t.Errorf("Windstream one-hop fraction %.2f, want low (Figure 1)", wind.FracOne())
	}
}

func TestLinkDiversityShowsMultipleLinks(t *testing.T) {
	m := MatchTraces(corpus.Tests, corpus.Traces, 10, WindowAfter)
	// Table 2 style: one server network+metro, grouped by client ASN.
	div := LinkDiversity(corpus.Tests, m, worldInf,
		func(ts *ndt.Test, tr *traceroute.Trace) (string, bool) {
			if ts.ServerNet != "Level3" || ts.ServerMetro != "atl" {
				return "", false
			}
			return ts.ClientISP, true
		}, nil)
	if len(div) == 0 {
		t.Fatal("no groups")
	}
	multi := 0
	for isp, uses := range div {
		if len(uses) > 1 {
			multi++
		}
		// Sorted descending by tests.
		for i := 1; i < len(uses); i++ {
			if uses[i].Tests > uses[i-1].Tests {
				t.Errorf("%s link uses unsorted", isp)
			}
		}
	}
	if multi == 0 {
		t.Error("no ISP shows multiple IP-level links from one server (Assumption 3 would hold trivially)")
	}
}

func TestBiasReport(t *testing.T) {
	var att []*ndt.Test
	for _, ts := range corpus.Tests {
		if ts.ClientISP == "AT&T" {
			att = append(att, ts)
		}
	}
	rep := Bias(att, hourOf, 20)
	if rep.NightToEveningRatio >= 1 {
		t.Errorf("night/evening ratio %.2f, want < 1 (time-of-day bias)", rep.NightToEveningRatio)
	}
	if rep.TestsPerClientP90 <= 0 {
		t.Error("per-client p90 missing")
	}
	if rep.MaxHourCV <= 0 {
		t.Error("hourly CV missing")
	}
	if math.IsNaN(rep.TestsPerClientP90) {
		t.Error("NaN p90")
	}
}

func TestThresholdSweep(t *testing.T) {
	// Build labeled groups by (server net+metro, client ISP) with
	// ground truth from the simulator.
	type gkey struct{ net, metro, isp string }
	groups := map[gkey][]*ndt.Test{}
	sat := map[gkey]int{}
	for _, ts := range corpus.Tests {
		k := gkey{ts.ServerNet, ts.ServerMetro, ts.ClientISP}
		groups[k] = append(groups[k], ts)
		if ts.TruthSaturated {
			sat[k]++
		}
	}
	var labeled []LabeledGroup
	for k, tests := range groups {
		if len(tests) < 150 {
			continue
		}
		labeled = append(labeled, LabeledGroup{
			Name:           k.net + "/" + k.metro + "→" + k.isp,
			Series:         BuildSeries(tests, hourOf),
			TrulyCongested: float64(sat[k])/float64(len(tests)) > 0.05,
		})
	}
	if len(labeled) < 4 {
		t.Skipf("only %d labeled groups", len(labeled))
	}
	cfg := DefaultDetector()
	cfg.MinSamples = 10
	pts := ThresholdSweep(labeled, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, cfg)
	if len(pts) != 5 {
		t.Fatal("wrong point count")
	}
	// Flag count decreases monotonically with threshold.
	for i := 1; i < len(pts); i++ {
		if pts[i].TruePos+pts[i].FalsePos > pts[i-1].TruePos+pts[i-1].FalsePos {
			t.Error("flagged count should not increase with threshold")
		}
	}
	// Very low threshold flags liberally (recall high, precision lower);
	// very high threshold flags nearly nothing.
	if pts[0].TruePos+pts[0].FalsePos == 0 {
		t.Error("threshold 0.1 flagged nothing")
	}
}

func BenchmarkMatchTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		MatchTraces(corpus.Tests, corpus.Traces, 10, WindowAfter)
	}
}

func BenchmarkBuildSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BuildSeries(corpus.Tests, hourOf)
	}
}

// TestMatchTracesTieBreak pins the association semantics the binary-
// search implementation must preserve: each test takes the FIRST trace
// launched at or after its window's lower bound, earlier tests claim
// earlier traces, and a trace is consumed by at most one test — for
// both the after-only and the ± window (§4.1).
func TestMatchTracesTieBreak(t *testing.T) {
	srv, cli := netaddr.Addr(0x0a000001), netaddr.Addr(0x0a000002)
	mkTest := func(id, start int) *ndt.Test {
		return &ndt.Test{ID: id, ServerAddr: srv, ClientAddr: cli, StartMinute: start}
	}
	mkTrace := func(launch int) *traceroute.Trace {
		return &traceroute.Trace{SrcAddr: srv, DstAddr: cli, LaunchMinute: launch}
	}

	// Traces deliberately out of order to exercise the per-pair sort.
	tr3, tr5, tr8, tr98 := mkTrace(3), mkTrace(5), mkTrace(8), mkTrace(98)
	traces := []*traceroute.Trace{tr8, tr98, tr3, tr5}
	// Tests out of order too: processed by StartMinute, so the test at
	// minute 2 picks before the one at minute 4.
	tests := []*ndt.Test{mkTest(1, 4), mkTest(0, 2), mkTest(2, 90)}

	after := MatchTraces(tests, traces, 10, WindowAfter)
	// Test 0 (minute 2) claims the first trace at/after 2 → tr3.
	// Test 1 (minute 4) finds tr3 consumed → first at/after 4 → tr5.
	// Test 2 (minute 90) skips nothing → tr98.
	if after.ByTest[0] != tr3 || after.ByTest[1] != tr5 || after.ByTest[2] != tr98 {
		t.Errorf("after-window claims: got %v/%v/%v, want tr3/tr5/tr98",
			after.ByTest[0].LaunchMinute, after.ByTest[1].LaunchMinute, after.ByTest[2].LaunchMinute)
	}
	if after.Matched() != 3 {
		t.Errorf("after matched %d, want 3", after.Matched())
	}

	// WindowAround widens the lower bound to start-window: the test at
	// minute 4 would prefer tr3 (launched before it), but the earlier
	// test already consumed it — consumption is still exclusive.
	around := MatchTraces(tests, traces, 10, WindowAround)
	if around.ByTest[0] != tr3 || around.ByTest[1] != tr5 {
		t.Error("around-window: exclusive consumption violated")
	}

	// A trace before the lower bound is never claimed (after-only mode
	// must not look back).
	lateTests := []*ndt.Test{mkTest(7, 9)}
	lateAfter := MatchTraces(lateTests, []*traceroute.Trace{tr3, tr5, tr8}, 10, WindowAfter)
	if lateAfter.ByTest[7] != nil {
		t.Errorf("after-only claimed a trace launched at %d before test minute 9",
			lateAfter.ByTest[7].LaunchMinute)
	}
	lateAround := MatchTraces(lateTests, []*traceroute.Trace{tr8}, 10, WindowAround)
	if lateAround.ByTest[7] != tr8 {
		t.Error("around-window should reach back to a trace 1 minute before the test")
	}

	// Out-of-window traces on both sides are never matched.
	farTests := []*ndt.Test{mkTest(9, 50)}
	far := MatchTraces(farTests, []*traceroute.Trace{mkTrace(10), mkTrace(70)}, 10, WindowAround)
	if far.ByTest[9] != nil {
		t.Errorf("matched a trace %d minutes away", far.ByTest[9].LaunchMinute-50)
	}
}
