package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"throughputlab/internal/core"
	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// ---- §4.1: matching rates (E9) ----

// MatchingResult reproduces the traceroute-association analysis.
type MatchingResult struct {
	// Rows sweep window sizes for both modes.
	Rows []struct {
		WindowMin  int
		AfterRate  float64
		AroundRate float64
	}
	// LostToBusyCollector is the ground-truth count of tests whose
	// traceroute the single-threaded collector skipped.
	LostToBusyCollector int
	Total               int
	// HighVolumeTotal and HighVolumeAfterRate model the March-2017
	// regime the paper checked (§4.1): an ~8x larger monthly corpus
	// matched at about the same rate (76%), because the loss is
	// collector scheduling, not corpus size.
	HighVolumeTotal     int
	HighVolumeAfterRate float64
}

// Matching sweeps the association window and repeats the 10-minute
// analysis on a higher-volume corpus. The sweep's (10 min, after) row
// is the Env's shared matching; the other nine rows come from one
// multi-window matcher pass over the corpus, which only counts pairs,
// so no ByTest map is built for them.
//
// The 2017-regime corpus comes from platform.CollectTimingCtx: a pair
// depends only on each record's endpoints and minutes, which the
// collector's launch plan fixes, so no NDT transfer or traceroute is
// run for it and its rate equals matching a fully executed corpus of
// the same config. Unlike that corpus, the launch plan cannot fail on
// an unroutable client-server pair, since nothing is routed. The
// collection runs under ctx: it stops at its next chunk boundary once
// ctx is cancelled, and its span opens under the span ctx carries.
func Matching(ctx context.Context, e *Env) (*MatchingResult, error) {
	res := &MatchingResult{
		LostToBusyCollector: e.Corpus.TestsWithoutTrace,
		Total:               len(e.Corpus.Tests),
	}
	primary := core.Window{Min: core.PrimaryWindowMin, Mode: core.PrimaryMode}
	sizes := []int{1, 2, 5, 10, 20}
	var windows []core.Window
	for _, w := range sizes {
		for _, mode := range []core.MatchMode{core.WindowAfter, core.WindowAround} {
			if win := (core.Window{Min: w, Mode: mode}); win != primary {
				windows = append(windows, win)
			}
		}
	}
	matched := make([]int, len(windows))
	sm := core.NewStreamMatcher(windows...)
	sm.OnPair = func(wi int, _ *ndt.Test, tr *traceroute.Trace) {
		if tr != nil {
			matched[wi]++
		}
	}
	// As in core.MatchTraces: the corpus as one chunk.
	sm.Add(e.Corpus.Tests, e.Corpus.Traces, math.MinInt32)
	rates := map[core.Window]float64{primary: e.Matching.Rate()}
	for i, m := range sm.Finish() {
		rates[windows[i]] = matchRate(matched[i], m.Total)
	}
	for _, w := range sizes {
		res.Rows = append(res.Rows, struct {
			WindowMin  int
			AfterRate  float64
			AroundRate float64
		}{w, rates[core.Window{Min: w, Mode: core.WindowAfter}], rates[core.Window{Min: w, Mode: core.WindowAround}]})
	}

	// The 2017-style corpus: double the monthly volume on the same
	// world and infrastructure. It is matched chunk by chunk as its
	// launch plan is published, so only the matcher's few-minute window
	// stays resident.
	cfg := e.Opts.Collect
	cfg.Tests *= 2
	cfg.Seed += 9000
	highMatched := 0
	sm = core.NewStreamMatcher(primary)
	sm.OnPair = func(_ int, _ *ndt.Test, tr *traceroute.Trace) {
		if tr != nil {
			highMatched++
		}
	}
	_, err := platform.CollectTimingCtx(ctx, e.World, cfg, e.Opts.workers(), func(ch *platform.Chunk) error {
		sm.Add(ch.Tests, ch.Traces, ch.Watermark)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.HighVolumeTotal = sm.Finish()[0].Total
	res.HighVolumeAfterRate = matchRate(highMatched, res.HighVolumeTotal)
	return res, nil
}

// matchRate is a matched fraction, as core.Matching.Rate computes it, for a
// matcher that counts its pairs through OnPair.
func matchRate(matched, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(matched) / float64(total)
}

// Render prints the sweep.
func (r *MatchingResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.WindowMin), pct(row.AfterRate), pct(row.AroundRate),
		})
	}
	out := "§4.1 — NDT↔Paris-traceroute association rates by window\n" +
		table([]string{"window (min)", "after-only", "±window"}, rows) +
		fmt.Sprintf("\ntraceroutes lost to the single-threaded collector: %d of %d tests (%.1f%%)\n",
			r.LostToBusyCollector, r.Total, 100*float64(r.LostToBusyCollector)/float64(r.Total))
	if r.HighVolumeTotal > 0 {
		out += fmt.Sprintf("2017-regime corpus (%d tests): %s matched at 10 min after — volume does not fix the association (§4.1)\n",
			r.HighVolumeTotal, pct(r.HighVolumeAfterRate))
	}
	return out
}

// ---- §6.2: threshold sensitivity (E12) ----

// ThresholdsResult is the detector sweep against simulator ground
// truth.
type ThresholdsResult struct {
	Points []core.ThresholdPoint
	Groups int
}

// Thresholds sweeps the congestion-drop threshold over all
// sufficiently large (server net+metro, client ISP) groups.
func Thresholds(e *Env) *ThresholdsResult {
	type gkey struct{ net, metro, isp string }
	groups := map[gkey][]*ndt.Test{}
	sat := map[gkey]int{}
	for _, t := range e.Corpus.Tests {
		k := gkey{t.ServerNet, t.ServerMetro, t.ClientISP}
		groups[k] = append(groups[k], t)
		if t.TruthSaturated {
			sat[k]++
		}
	}
	keys := make([]gkey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.net != b.net {
			return a.net < b.net
		}
		if a.metro != b.metro {
			return a.metro < b.metro
		}
		return a.isp < b.isp
	})
	var labeled []core.LabeledGroup
	for _, k := range keys {
		tests := groups[k]
		if len(tests) < 120 {
			continue
		}
		labeled = append(labeled, core.LabeledGroup{
			Name:           fmt.Sprintf("%s/%s→%s", k.net, k.metro, k.isp),
			Series:         core.BuildSeries(tests),
			TrulyCongested: float64(sat[k])/float64(len(tests)) > 0.05,
		})
	}
	cfg := core.DefaultDetector()
	cfg.MinSamples = 15
	ths := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	return &ThresholdsResult{
		Points: core.ThresholdSweep(labeled, ths, cfg),
		Groups: len(labeled),
	}
}

// Render prints the sensitivity table.
func (r *ThresholdsResult) Render() string {
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.Threshold),
			fmt.Sprintf("%d", p.TruePos), fmt.Sprintf("%d", p.FalsePos),
			fmt.Sprintf("%d", p.FalseNeg), fmt.Sprintf("%d", p.TrueNeg),
			fmt.Sprintf("%d", p.Undecided),
			pct(p.Precision()), pct(p.Recall()),
		})
	}
	return fmt.Sprintf("§6.2 — congestion-threshold sensitivity over %d groups\n", r.Groups) +
		table([]string{"drop thr", "TP", "FP", "FN", "TN", "undecided", "precision", "recall"}, rows)
}

// ---- §6.1: bias diagnostics ----

// BiasResult summarizes crowdsourcing-bias diagnostics per ISP.
type BiasResult struct {
	Rows []struct {
		ISP    string
		Report core.BiasReport
		Tests  int
	}
}

// BiasDiagnostics computes §6.1's health checks for each ISP's tests.
func BiasDiagnostics(e *Env) *BiasResult {
	byISP := map[string][]*ndt.Test{}
	for _, t := range e.Corpus.Tests {
		byISP[t.ClientISP] = append(byISP[t.ClientISP], t)
	}
	names := make([]string, 0, len(byISP))
	for n := range byISP {
		names = append(names, n)
	}
	sort.Strings(names)
	res := &BiasResult{}
	for _, n := range names {
		res.Rows = append(res.Rows, struct {
			ISP    string
			Report core.BiasReport
			Tests  int
		}{n, core.Bias(byISP[n], 30), len(byISP[n])})
	}
	return res
}

// Render prints the diagnostics.
func (r *BiasResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.ISP, fmt.Sprintf("%d", row.Tests),
			fmt.Sprintf("%.2f", row.Report.NightToEveningRatio),
			fmt.Sprintf("%.2f", row.Report.MaxHourCV),
			fmt.Sprintf("%.0f", row.Report.TestsPerClientP90),
			fmt.Sprintf("%d", len(row.Report.ThinHours)),
		})
	}
	return "§6.1 — crowdsourcing bias diagnostics per ISP\n" +
		table([]string{"ISP", "tests", "night/evening", "max hourly CV", "tests/client p90", "thin hours"}, rows)
}

// ---- §5.4: changes over time (E11) ----

// SnapshotsResult compares platform coverage across two synthetic
// snapshots: the Speedtest fleet grows ~1.45x, M-Lab stays flat, and
// the topology drifts.
type SnapshotsResult struct {
	MLabServersA, MLabServersB   int
	SpeedServersA, SpeedServersB int
	Rows                         []struct {
		ISP                        string
		PeerCovA, PeerCovB         float64 // Speedtest peer coverage
		MLabPeerCovA, MLabPeerCovB float64
	}
}

// snapshotConfig is the second snapshot's world: the same generator
// with drifted topology and a ~1.45x larger Speedtest fleet.
func snapshotConfig(topo topogen.Config) topogen.Config {
	topo.Seed += 1000 // topology drift between snapshots
	topo.SpeedtestFactor *= 1.45
	return topo
}

// Snapshots builds a second drifted world, under ctx (see Matching),
// and compares peer coverage. The second world is analyzed at the AS
// level only (see analyzeVP), since peer coverage reads nothing else,
// and is not observed (topogen.World.Observe): the run's telemetry
// describes the first world.
func Snapshots(ctx context.Context, e *Env) (*SnapshotsResult, error) {
	cfgB := snapshotConfig(e.Opts.Topo)
	wB, err := topogen.GenerateCtx(ctx, cfgB)
	if err != nil {
		return nil, err
	}
	envB := &Env{Opts: Options{Topo: cfgB, Collect: e.Opts.Collect, Workers: e.Opts.Workers}, World: wB}

	res := &SnapshotsResult{
		MLabServersA:  len(e.World.MLabServers()),
		MLabServersB:  len(wB.MLabServers()),
		SpeedServersA: len(e.World.Speedtest),
		SpeedServersB: len(wB.Speedtest),
	}
	covA := peerCoverageByISP(VPAnalyses(e))
	vpsB, err := analyzeVPs(ctx, envB, false)
	if err != nil {
		return nil, err
	}
	covB := peerCoverageByISP(vpsB)
	names := make([]string, 0, len(covA))
	for n := range covA {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := covA[n], covB[n]
		res.Rows = append(res.Rows, struct {
			ISP                        string
			PeerCovA, PeerCovB         float64
			MLabPeerCovA, MLabPeerCovB float64
		}{n, a.speed, b.speed, a.mlab, b.mlab})
	}
	return res, nil
}

type peerCov struct{ mlab, speed float64 }

// peerCoverageByISP aggregates Fig-3-style peer coverage per ISP
// (averaging over that ISP's VPs). It reads each VP's Borders
// neighbors, Rel, MLabAS and SpeedAS.
func peerCoverageByISP(vps []*VPAnalysis) map[string]peerCov {
	agg := map[string][]peerCov{}
	for _, v := range vps {
		peers := 0
		for _, b := range v.Borders.Borders {
			if v.Rel(b.Neighbor) == topology.RelPeer {
				peers++
			}
		}
		if peers == 0 {
			continue
		}
		count := func(set map[topology.ASN]bool) float64 {
			n := 0
			for a := range set {
				if v.Rel(a) == topology.RelPeer {
					n++
				}
			}
			return float64(n) / float64(peers)
		}
		agg[v.ISP] = append(agg[v.ISP], peerCov{mlab: count(v.MLabAS), speed: count(v.SpeedAS)})
	}
	out := map[string]peerCov{}
	for isp, list := range agg {
		var m, s float64
		for _, c := range list {
			m += c.mlab
			s += c.speed
		}
		out[isp] = peerCov{mlab: m / float64(len(list)), speed: s / float64(len(list))}
	}
	return out
}

// Render prints the snapshot comparison.
func (r *SnapshotsResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.ISP,
			pct(row.MLabPeerCovA), pct(row.MLabPeerCovB),
			pct(row.PeerCovA), pct(row.PeerCovB),
		})
	}
	var sb strings.Builder
	sb.WriteString("§5.4 — peer-interconnection coverage across two snapshots\n")
	sb.WriteString(fmt.Sprintf("M-Lab servers: %d → %d (flat); Speedtest servers: %d → %d\n",
		r.MLabServersA, r.MLabServersB, r.SpeedServersA, r.SpeedServersB))
	sb.WriteString(table([]string{"ISP", "M-Lab A", "M-Lab B", "Speedtest A", "Speedtest B"}, rows))
	return sb.String()
}
