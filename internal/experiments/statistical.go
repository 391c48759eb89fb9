package experiments

import (
	"context"
	"fmt"
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
// analysis on a higher-volume corpus.
func Matching(e *Env) *MatchingResult {
	res := &MatchingResult{
		LostToBusyCollector: e.Corpus.TestsWithoutTrace,
		Total:               len(e.Corpus.Tests),
	}
	for _, w := range []int{1, 2, 5, 10, 20} {
		after := core.MatchTraces(e.Corpus.Tests, e.Corpus.Traces, w, core.WindowAfter)
		around := core.MatchTraces(e.Corpus.Tests, e.Corpus.Traces, w, core.WindowAround)
		res.Rows = append(res.Rows, struct {
			WindowMin  int
			AfterRate  float64
			AroundRate float64
		}{w, after.Rate(), around.Rate()})
	}

	// The 2017-style corpus: double the monthly volume on the same
	// world and infrastructure. It is matched chunk by chunk as it is
	// collected, so only the matcher's few-minute window stays resident.
	cfg := e.Opts.Collect
	cfg.Tests *= 2
	cfg.Seed += 9000
	var total, matched int
	sm := core.NewStreamMatcher(10, core.WindowAfter)
	sm.OnPair = func(_ *ndt.Test, tr *traceroute.Trace) {
		total++
		if tr != nil {
			matched++
		}
	}
	_, err := platform.CollectStreamCtx(context.TODO(), e.World, cfg, 1, func(c *platform.Chunk) error {
		sm.Add(c.Tests, c.Traces, c.Watermark)
		return nil
	})
	if err == nil {
		sm.Finish()
		res.HighVolumeTotal = total
		if total > 0 {
			res.HighVolumeAfterRate = float64(matched) / float64(total)
		}
	}
	return res
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
			Series:         core.BuildSeries(tests, e.HourOf),
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
		}{n, core.Bias(byISP[n], e.HourOf, 30), len(byISP[n])})
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

// Snapshots builds a second drifted world and compares peer coverage.
func Snapshots(e *Env) (*SnapshotsResult, error) {
	cfgB := e.Opts.Topo
	cfgB.Seed += 1000 // topology drift between snapshots
	cfgB.SpeedtestFactor = e.Opts.Topo.SpeedtestFactor * 1.45
	wB, err := topogen.Generate(cfgB)
	if err != nil {
		return nil, err
	}
	envB := &Env{Opts: Options{Topo: cfgB, Collect: e.Opts.Collect}, World: wB}

	res := &SnapshotsResult{
		MLabServersA:  len(e.World.MLabServers()),
		MLabServersB:  len(wB.MLabServers()),
		SpeedServersA: len(e.World.Speedtest),
		SpeedServersB: len(wB.Speedtest),
	}
	covA := peerCoverageByISP(e)
	covB := peerCoverageByISP(envB)
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
// (averaging over that ISP's VPs).
func peerCoverageByISP(e *Env) map[string]peerCov {
	agg := map[string][]peerCov{}
	for _, v := range VPAnalyses(e) {
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
