package experiments

import (
	"context"
	"strings"
	"testing"

	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/topology"
)

// env is shared across the package's tests: building it is the
// expensive part (world generation + corpus + per-VP campaigns).
var env = func() *Env {
	e, err := NewEnvCtx(context.Background(), QuickOptions())
	if err != nil {
		panic(err)
	}
	return e
}()

func TestFig1Shapes(t *testing.T) {
	r := Fig1(env)
	if len(r.Rows) != 9 {
		t.Fatalf("Figure 1 has %d ISPs, want 9", len(r.Rows))
	}
	byISP := map[string]Fig1Row{}
	for _, row := range r.Rows {
		byISP[row.ISP] = row
	}
	// Paper: top-5 providers mostly one hop (>80% except TWC ~75%).
	for _, isp := range []string{"Comcast", "AT&T", "Verizon", "CenturyLink"} {
		row := byISP[isp]
		if row.Matched < 50 {
			t.Errorf("%s has only %d matched traces", isp, row.Matched)
			continue
		}
		if row.FracOne < 0.7 {
			t.Errorf("%s one-hop fraction %.2f, want high (paper >0.8)", isp, row.FracOne)
		}
	}
	// Paper: Charter 37%, Cox 39%, Frontier 47% — notably lower.
	for _, isp := range []string{"Charter", "Cox"} {
		row := byISP[isp]
		if row.Matched >= 30 && row.FracOne > 0.65 {
			t.Errorf("%s one-hop fraction %.2f, want low (paper ~0.4)", isp, row.FracOne)
		}
	}
	// Paper: Windstream only 6%.
	if row := byISP["Windstream"]; row.Matched >= 20 && row.FracOne > 0.3 {
		t.Errorf("Windstream one-hop fraction %.2f, want very low (paper 0.06)", row.FracOne)
	}
	// Ordering: Comcast tops Charter/Cox/Windstream.
	if byISP["Comcast"].FracOne <= byISP["Charter"].FracOne ||
		byISP["Comcast"].FracOne <= byISP["Windstream"].FracOne {
		t.Error("Figure 1 ordering violated")
	}
	// §4.2 aggregate: most-but-not-all traces direct (paper 82%).
	if r.OverallDirect < 0.55 || r.OverallDirect > 0.97 {
		t.Errorf("overall direct fraction %.2f outside plausible band around 0.82", r.OverallDirect)
	}
	if !strings.Contains(r.Render(), "Comcast") {
		t.Error("render missing rows")
	}
}

func TestTable2Shapes(t *testing.T) {
	r := Table2(env)
	if len(r.Rows) == 0 {
		t.Fatal("Table 2 empty")
	}
	var multiLink, multiASN int
	isps := map[string]int{}
	coxLinks := 0
	coxGroups := 0
	for _, row := range r.Rows {
		isps[row.ISP]++
		if len(row.TestsPerLink) > 1 {
			multiLink++
		}
		if row.ISP == "Cox" {
			coxLinks += len(row.TestsPerLink)
			coxGroups += row.RouterGroups
		}
	}
	for _, n := range isps {
		if n > 1 {
			multiASN++
		}
	}
	// Paper: AS-level aggregation masks multiple IP links…
	if multiLink == 0 {
		t.Error("no client ASN crossed multiple IP-level links (Assumption 3 trivially true)")
	}
	// …and sibling ASNs appear as separate rows (Comcast's AS7725 etc.).
	if multiASN == 0 {
		t.Error("no ISP split across sibling ASNs")
	}
	// Cox's parallel links collapse into fewer DNS router groups.
	if coxLinks > 0 && coxGroups >= coxLinks {
		t.Logf("Cox: %d links in %d router groups (parallelism not visible at this scale)", coxLinks, coxGroups)
	}
	// Distribution across links is not uniform: check some row has a
	// dominant link.
	skewed := false
	for _, row := range r.Rows {
		if len(row.TestsPerLink) >= 2 && row.TestsPerLink[0] >= 3*row.TestsPerLink[len(row.TestsPerLink)-1] {
			skewed = true
		}
	}
	if !skewed {
		t.Log("note: no strongly skewed link distribution in this corpus")
	}
}

func TestTable3Shapes(t *testing.T) {
	r := Table3(env)
	if len(r.Rows) != 16 {
		t.Fatalf("Table 3 has %d VPs, want 19", len(r.Rows))
	}
	byLabel := map[string]*VPAnalysis{}
	for _, v := range r.Rows {
		byLabel[v.Label] = v
	}
	bed := byLabel["bed-us"]   // Comcast
	igx := byLabel["igx-us"]   // Frontier
	wvi := byLabel["wvi-us"]   // Sonic
	san6 := byLabel["san6-us"] // AT&T
	if bed == nil || igx == nil || wvi == nil || san6 == nil {
		t.Fatal("paper VP labels missing")
	}
	// Shape: transit-heavy ISPs have far more borders than small ones.
	if bed.Borders.ASCount <= igx.Borders.ASCount {
		t.Errorf("Comcast borders (%d) should exceed Frontier (%d)",
			bed.Borders.ASCount, igx.Borders.ASCount)
	}
	if san6.Borders.ASCount <= wvi.Borders.ASCount {
		t.Errorf("AT&T borders (%d) should exceed Sonic (%d)",
			san6.Borders.ASCount, wvi.Borders.ASCount)
	}
	// Customers dominate for the transit sellers.
	for _, label := range []string{"bed-us", "san6-us", "aza-us"} {
		v := byLabel[label]
		cust := v.Borders.ByRel[topology.RelCustomer]
		peer := v.Borders.ByRel[topology.RelPeer]
		if cust.AS <= peer.AS {
			t.Errorf("%s: customers (%d) should outnumber peers (%d)", label, cust.AS, peer.AS)
		}
	}
	// Router-level ≥ AS-level everywhere.
	for _, v := range r.Rows {
		if v.Borders.RouterCount < v.Borders.ASCount {
			t.Errorf("%s: router count %d < AS count %d", v.Label, v.Borders.RouterCount, v.Borders.ASCount)
		}
	}
}

func TestFig2CoverageShapes(t *testing.T) {
	r := Fig2(env)
	if len(r.Rows) != 16 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.BdrmapAS == 0 {
			t.Errorf("%s: no borders", row.Label)
			continue
		}
		fm := float64(row.MLabAS) / float64(row.BdrmapAS)
		fs := float64(row.SpeedAS) / float64(row.BdrmapAS)
		// Paper: M-Lab covers 0.4–9% of all AS interconnections;
		// Speedtest 2.3–28%. Allow a wide band, but the coverage must
		// be a small minority. VPs with tiny border sets (Sonic,
		// Frontier at this scale) have noisy ratios; skip the band.
		if row.BdrmapAS >= 25 {
			if fm > 0.35 {
				t.Errorf("%s: M-Lab covers %.0f%%, too high", row.Label, 100*fm)
			}
			if fs > 0.6 {
				t.Errorf("%s: Speedtest covers %.0f%%, too high", row.Label, 100*fs)
			}
		}
	}
	// Speedtest beats M-Lab for most VPs (its fleet is larger and
	// broader).
	wins := 0
	for _, row := range r.Rows {
		if row.SpeedAS > row.MLabAS {
			wins++
		}
	}
	if wins < len(r.Rows)*2/3 {
		t.Errorf("Speedtest out-covers M-Lab at only %d/16 VPs", wins)
	}
}

func TestFig3PeerCoverageShapes(t *testing.T) {
	r2 := Fig2(env)
	r3 := Fig3(env)
	f2 := map[string]CoverageRow{}
	for _, row := range r2.Rows {
		f2[row.Label] = row
	}
	higher := 0
	for _, row := range r3.Rows {
		all := f2[row.Label]
		if row.BdrmapAS == 0 || all.BdrmapAS == 0 {
			continue
		}
		fPeer := float64(row.MLabAS) / float64(row.BdrmapAS)
		fAll := float64(all.MLabAS) / float64(all.BdrmapAS)
		if fPeer > fAll {
			higher++
		}
		// Peer denominators are much smaller than ALL.
		if row.BdrmapAS >= all.BdrmapAS {
			t.Errorf("%s: peer borders %d not below all borders %d", row.Label, row.BdrmapAS, all.BdrmapAS)
		}
	}
	// Paper: both platforms cover peers better than all interconnects.
	if higher < 8 {
		t.Errorf("peer coverage exceeds all-coverage at only %d/16 VPs", higher)
	}
}

func TestFig4Shapes(t *testing.T) {
	r := Fig4(env)
	if len(r.Rows) != 16 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.AlexaTotal == 0 {
			t.Errorf("%s: no alexa-path interconnections", row.Label)
			continue
		}
		// Paper: 79–90% of interconnections on popular-content paths
		// were NOT covered by M-Lab. Require a strong majority where
		// the denominator supports a percentage claim (tiny ISPs like
		// Frontier funnel all content through a few transits at this
		// scale).
		frac := float64(row.AlexaNotMLab) / float64(row.AlexaTotal)
		if row.AlexaTotal >= 15 && frac < 0.4 {
			t.Errorf("%s: only %.0f%% of alexa interconnections uncovered by M-Lab (paper 79-90%%)",
				row.Label, 100*frac)
		}
		// Speedtest leaves less uncovered than M-Lab (its fleet is
		// broader) for most VPs — checked in aggregate below.
	}
	better := 0
	for _, row := range r.Rows {
		if row.AlexaNotSpeed <= row.AlexaNotMLab {
			better++
		}
	}
	if better < 10 {
		t.Errorf("Speedtest uncovers less than M-Lab at only %d/16 VPs", better)
	}
}

func TestFig5Shapes(t *testing.T) {
	r := Fig5(env)
	if len(r.Panels) != 2 {
		t.Fatal("Figure 5 needs two panels")
	}
	att, com := r.Panels[0], r.Panels[1]
	if att.ClientISP != "AT&T" || com.ClientISP != "Comcast" {
		t.Fatal("panel order wrong")
	}
	if att.Verdict.InsufficientData {
		t.Fatalf("AT&T panel undecidable (peak %d off %d)", att.Verdict.PeakN, att.Verdict.OffN)
	}
	// Congested panel: deep drop, peak median ~<2 Mbps.
	if !att.Verdict.Congested {
		t.Errorf("AT&T-GTT not flagged congested: %+v", att.Verdict)
	}
	if att.Verdict.PeakMedian > 3 {
		t.Errorf("AT&T peak median %.1f Mbps, want collapse (paper <1)", att.Verdict.PeakMedian)
	}
	// Busy panel: shallower dip, not flagged.
	if com.Verdict.InsufficientData {
		t.Skipf("Comcast panel thin: peak %d off %d", com.Verdict.PeakN, com.Verdict.OffN)
	}
	if com.Verdict.Congested {
		t.Errorf("Comcast-GTT flagged congested with drop %.2f", com.Verdict.Drop)
	}
	if com.Verdict.Drop < 0.02 {
		t.Logf("note: Comcast dip only %.2f (paper ~0.2-0.3)", com.Verdict.Drop)
	}
	// Sample counts: evening ≥ 3am (time-of-day bias visible in the
	// right-hand panels of Figure 5).
	for _, p := range r.Panels {
		if p.Counts[21] <= p.Counts[4] {
			t.Errorf("%s: 21h samples (%d) not above 4h (%d)", p.ClientISP, p.Counts[21], p.Counts[4])
		}
	}
}

func TestMatchingShapes(t *testing.T) {
	r := Matching(env)
	if len(r.Rows) < 4 {
		t.Fatal("window sweep too short")
	}
	// Monotone in window size; Around ≥ After at each window.
	for i, row := range r.Rows {
		if row.AroundRate < row.AfterRate {
			t.Errorf("window %d: around %.2f < after %.2f", row.WindowMin, row.AroundRate, row.AfterRate)
		}
		if i > 0 && row.AfterRate < r.Rows[i-1].AfterRate-0.001 {
			t.Error("after-rate not monotone in window")
		}
	}
	// The 10-minute row matches the paper's regime: substantial but
	// incomplete.
	var ten struct {
		WindowMin  int
		AfterRate  float64
		AroundRate float64
	}
	for _, row := range r.Rows {
		if row.WindowMin == 10 {
			ten = row
		}
	}
	if ten.AfterRate < 0.5 || ten.AfterRate > 0.98 {
		t.Errorf("10-min after rate %.2f outside plausible band (paper 71-76%%)", ten.AfterRate)
	}
	if r.LostToBusyCollector == 0 {
		t.Error("busy collector lost nothing; artifact missing")
	}
}

func TestThresholdShapes(t *testing.T) {
	r := Thresholds(env)
	if r.Groups < 5 {
		t.Skipf("only %d groups", r.Groups)
	}
	// There must exist a threshold with perfect recall and another with
	// zero false positives, and they are generally not the same — the
	// §6.2 tension.
	var anyFullRecall, anyNoFP bool
	for _, p := range r.Points {
		if p.Recall() == 1 && p.TruePos > 0 {
			anyFullRecall = true
		}
		if p.FalsePos == 0 {
			anyNoFP = true
		}
	}
	if !anyFullRecall {
		t.Error("no threshold achieves full recall")
	}
	if !anyNoFP {
		t.Error("no threshold avoids false positives")
	}
	// Low thresholds over-flag: the lowest threshold should produce
	// false positives (diurnal dips on healthy groups).
	if r.Points[0].FalsePos == 0 {
		t.Logf("note: no false positives even at threshold %.2f", r.Points[0].Threshold)
	}
}

func TestBiasShapes(t *testing.T) {
	r := BiasDiagnostics(env)
	if len(r.Rows) < 10 {
		t.Fatalf("only %d ISPs", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Tests < 100 {
			continue
		}
		if row.Report.NightToEveningRatio > 0.8 {
			t.Errorf("%s: night/evening ratio %.2f — time-of-day bias missing", row.ISP, row.Report.NightToEveningRatio)
		}
	}
}

func TestTomographyShapes(t *testing.T) {
	r := Tomography(env)
	if r.BadTests == 0 {
		t.Skip("no bad peak tests")
	}
	if len(r.BadLinks) == 0 {
		t.Fatal("full tomography found no bad links")
	}
	// Most inferred bad links should be truly congested.
	good := 0
	for _, b := range r.BadLinks {
		if b.TrulyCongested {
			good++
		}
	}
	if frac := float64(good) / float64(len(r.BadLinks)); frac < 0.5 {
		t.Errorf("only %.0f%% of inferred bad links are truly congested", 100*frac)
	}
	// The simplified method flags some pairs.
	flagged := 0
	for _, v := range r.ASVerdicts {
		if v.Congested {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("AS-level method flagged nothing")
	}
}

func TestSnapshotsShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot experiment regenerates a second world")
	}
	r, err := Snapshots(env)
	if err != nil {
		t.Fatal(err)
	}
	if r.MLabServersA != r.MLabServersB {
		t.Errorf("M-Lab fleet changed: %d -> %d (paper: exactly flat at 261)", r.MLabServersA, r.MLabServersB)
	}
	if r.SpeedServersB <= r.SpeedServersA {
		t.Errorf("Speedtest fleet did not grow: %d -> %d", r.SpeedServersA, r.SpeedServersB)
	}
	if len(r.Rows) < 5 {
		t.Errorf("only %d ISPs compared", len(r.Rows))
	}
}

func TestRegistryAndRunAll(t *testing.T) {
	names := Names()
	if len(names) != 19 {
		t.Errorf("%d experiments registered, want 19", len(names))
	}
	if _, ok := Find("fig5"); !ok {
		t.Error("fig5 not found")
	}
	if _, ok := Find("nope"); ok {
		t.Error("bogus experiment found")
	}
	// Each renders non-empty output (snapshots excluded in short mode).
	for _, entry := range Registry() {
		if entry.Name == "snapshots" && testing.Short() {
			continue
		}
		r, err := entry.Run(env)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if len(r.Render()) < 40 {
			t.Errorf("%s renders almost nothing", entry.Name)
		}
	}
}

func BenchmarkFig1ASHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Fig1(env)
	}
}

func BenchmarkTable2LinkDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Table2(env)
	}
}

func BenchmarkFig5Diurnal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Fig5(env)
	}
}

func TestSignaturesShapes(t *testing.T) {
	r := Signatures(env)
	if r.Confusion.Total < 500 {
		t.Skipf("only %d peak tests", r.Confusion.Total)
	}
	if acc := r.Confusion.Accuracy(); acc < 0.85 {
		t.Errorf("signature accuracy %.3f < 0.85", acc)
	}
	if r.Confusion.DeterminateFrac() < 0.5 {
		t.Errorf("determinate fraction %.2f too low", r.Confusion.DeterminateFrac())
	}
	// Sweep: a looser inflation threshold must not reduce the
	// determinate fraction.
	for i := 1; i < len(r.Sweep); i++ {
		if r.Sweep[i].MinInflation > r.Sweep[i-1].MinInflation &&
			r.Sweep[i].DeterminateFrac > r.Sweep[i-1].DeterminateFrac+0.001 {
			t.Error("raising the inflation threshold should not add determinate verdicts")
		}
	}
}

func TestTSLPShapes(t *testing.T) {
	r := TSLP(env)
	if r.TruePos == 0 {
		t.Fatal("TSLP found no saturated links")
	}
	if r.FalseNeg > 0 {
		t.Errorf("TSLP missed %d saturated links", r.FalseNeg)
	}
	if r.FalsePos > r.Links/10 {
		t.Errorf("TSLP flagged %d healthy links of %d", r.FalsePos, r.Links)
	}
	// Flagged list sorted by elevation.
	for i := 1; i < len(r.Flagged); i++ {
		if r.Flagged[i].Elevation > r.Flagged[i-1].Elevation {
			t.Fatal("flagged list unsorted")
		}
	}
}

func TestPlacementShapes(t *testing.T) {
	r := Placement(env)
	if len(r.Greedy) == 0 || len(r.Latency) == 0 {
		t.Fatal("empty plans")
	}
	g := r.Greedy[len(r.Greedy)-1]
	l := r.Latency[len(r.Latency)-1]
	if g < l {
		t.Errorf("topology-aware placement (%d) below latency-first (%d)", g, l)
	}
	if g > r.Universe {
		t.Error("covered more than coverable")
	}
	// The trajectory is nondecreasing.
	for i := 1; i < len(r.Greedy); i++ {
		if r.Greedy[i] < r.Greedy[i-1] {
			t.Fatal("greedy trajectory decreased")
		}
	}
}

func TestFig5CompanionDiurnals(t *testing.T) {
	// The M-Lab report's companion metrics: on the congested pair, flow
	// RTT and retransmission rates rise at peak hours along with the
	// throughput collapse.
	r := Fig5(env)
	att := r.Panels[0]
	peakRTT, offRTT := att.RTTMedian[21], att.RTTMedian[11]
	if !isNaN(peakRTT) && !isNaN(offRTT) && peakRTT <= offRTT {
		t.Errorf("congested pair peak RTT %.0f not above off-peak %.0f", peakRTT, offRTT)
	}
	peakLoss, offLoss := att.RetransMedian[21], att.RetransMedian[11]
	if !isNaN(peakLoss) && !isNaN(offLoss) && peakLoss <= offLoss {
		t.Errorf("congested pair peak retrans %.4f not above off-peak %.4f", peakLoss, offLoss)
	}
}

func isNaN(x float64) bool { return x != x }

func TestBattleForNetShapes(t *testing.T) {
	r, err := BattleForNet(env)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatal("want two modes")
	}
	base, bfn := r.Rows[0], r.Rows[1]
	if bfn.Tests <= base.Tests {
		t.Errorf("BfN tests %d not above base %d", bfn.Tests, base.Tests)
	}
	if bfn.ServerPairs <= base.ServerPairs {
		t.Errorf("BfN pairs %d not above base %d", bfn.ServerPairs, base.ServerPairs)
	}
	if bfn.IPLinks <= base.IPLinks {
		t.Errorf("BfN links %d not above base %d", bfn.IPLinks, base.IPLinks)
	}
	// The collector trade-off: association no better under flood.
	if bfn.MatchedFrac > base.MatchedFrac+0.02 {
		t.Errorf("BfN matched %.2f unexpectedly above base %.2f", bfn.MatchedFrac, base.MatchedFrac)
	}
}

func TestMatchingHighVolumeRegime(t *testing.T) {
	r := Matching(env)
	if r.HighVolumeTotal <= r.Total {
		t.Fatalf("high-volume corpus %d not above base %d", r.HighVolumeTotal, r.Total)
	}
	// §4.1: the 2017 corpus matched at about the same rate as 2015.
	var base float64
	for _, row := range r.Rows {
		if row.WindowMin == 10 {
			base = row.AfterRate
		}
	}
	diff := r.HighVolumeAfterRate - base
	if diff < -0.15 || diff > 0.15 {
		t.Errorf("high-volume rate %.2f far from base %.2f; the loss should be scheduling, not volume",
			r.HighVolumeAfterRate, base)
	}
}

func TestAblationShapes(t *testing.T) {
	r := Ablation(env)
	if r.LinksOn == 0 || r.LinksOff == 0 {
		t.Fatal("ablation inferred nothing")
	}
	// The far-side correction must improve link precision.
	if r.FarSideOnPrecision <= r.FarSideOffPrecision {
		t.Errorf("far-side correction precision %.3f not above naive %.3f",
			r.FarSideOnPrecision, r.FarSideOffPrecision)
	}
	// Router-level counts: none ≥ realistic ≥ perfect ≥ AS-level.
	if r.RouterPairsNone < r.RouterPairsRealistic || r.RouterPairsRealistic < r.RouterPairsPerfect {
		t.Errorf("router-pair ordering violated: none=%d realistic=%d perfect=%d",
			r.RouterPairsNone, r.RouterPairsRealistic, r.RouterPairsPerfect)
	}
	if r.RouterPairsPerfect < r.ASBorders {
		t.Errorf("router-level (%d) below AS-level (%d)", r.RouterPairsPerfect, r.ASBorders)
	}
}

func TestStratifiedShapes(t *testing.T) {
	r := Stratified(env)
	if len(r.Groups) == 0 {
		t.Skip("no aggregates large enough at this scale")
	}
	multi := 0
	for _, g := range r.Groups {
		if len(g.Links) > 1 {
			multi++
		}
		for _, l := range g.Links {
			if l.Tests <= 0 {
				t.Fatal("empty stratum")
			}
		}
	}
	if multi == 0 {
		t.Error("no aggregate splits across multiple IP links (Assumption 3 would be vacuous)")
	}
}

// TestStratifiedTieOrder feeds Stratified two aggregates of equal size
// — the largest group and a twin of it under another server network —
// in both orders, several times each: every rendering must be the
// same, so the output never depends on map iteration order.
func TestStratifiedTieOrder(t *testing.T) {
	type gkey struct{ net, metro, isp string }
	groups := map[gkey][]*ndt.Test{}
	var big gkey
	for _, tt := range env.Corpus.Tests {
		k := gkey{tt.ServerNet, tt.ServerMetro, tt.ClientISP}
		groups[k] = append(groups[k], tt)
		if len(groups[k]) > len(groups[big]) {
			big = k
		}
	}
	a := groups[big]
	for len(a) < 400 {
		a = append(a, a...)
	}
	b := make([]*ndt.Test, len(a))
	for i, tt := range a {
		twin := *tt
		twin.ServerNet += "-twin"
		b[i] = &twin
	}
	render := func(tests []*ndt.Test) string {
		e := &Env{Opts: env.Opts, World: env.World, Inference: env.Inference, Matching: env.Matching,
			Corpus: &platform.Corpus{Tests: tests}}
		return Stratified(e).Render()
	}
	want := render(append(append([]*ndt.Test(nil), a...), b...))
	if !strings.Contains(want, big.net+"-twin") {
		t.Fatalf("twin aggregate missing from the rendering:\n%s", want)
	}
	for i := 0; i < 8; i++ {
		if got := render(append(append([]*ndt.Test(nil), b...), a...)); got != want {
			t.Fatalf("rendering depends on input order:\n%s\nvs\n%s", got, want)
		}
		if got := render(append(append([]*ndt.Test(nil), a...), b...)); got != want {
			t.Fatalf("rendering differs between identical runs:\n%s\nvs\n%s", got, want)
		}
	}
}

func TestAblationBidirectionalDiscoversMore(t *testing.T) {
	r := Ablation(env)
	if r.TrueLinksFwd == 0 {
		t.Fatal("no links discovered forward")
	}
	if r.TrueLinksBoth <= r.TrueLinksFwd {
		t.Errorf("bidirectional corpus found %d links, forward-only %d; reverse should add coverage",
			r.TrueLinksBoth, r.TrueLinksFwd)
	}
	// Accuracy must not collapse when mixing directions.
	if r.BothOperatorAcc < r.FwdOperatorAcc-0.05 {
		t.Errorf("bidirectional accuracy %.3f far below forward %.3f", r.BothOperatorAcc, r.FwdOperatorAcc)
	}
}
