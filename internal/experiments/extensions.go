package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"throughputlab/internal/core"
	"throughputlab/internal/ndt"
	"throughputlab/internal/placement"
	"throughputlab/internal/signatures"
	"throughputlab/internal/topology"
	"throughputlab/internal/tslp"
)

// ---- E14: TCP congestion signatures (§7 future work / [37]) ----

// SignaturesResult evaluates the congestion-signature classifier.
type SignaturesResult struct {
	Confusion signatures.Confusion
	// ThresholdSweep varies the inflation threshold.
	Sweep []struct {
		MinInflation              float64
		Accuracy, DeterminateFrac float64
	}
}

// Signatures classifies every peak-hour test and scores against
// simulator truth.
func Signatures(e *Env) *SignaturesResult {
	var peak []*ndt.Test
	for _, t := range e.Corpus.Tests {
		if core.SignaturePeak.In(t.LocalHour()) {
			peak = append(peak, t)
		}
	}
	res := &SignaturesResult{Confusion: signatures.Evaluate(peak, signatures.DefaultConfig())}
	for _, th := range []float64{0.1, 0.2, 0.25, 0.4, 0.6, 1.0} {
		cfg := signatures.DefaultConfig()
		cfg.MinInflation = th
		c := signatures.Evaluate(peak, cfg)
		res.Sweep = append(res.Sweep, struct {
			MinInflation              float64
			Accuracy, DeterminateFrac float64
		}{th, c.Accuracy(), c.DeterminateFrac()})
	}
	return res
}

// Render prints the confusion matrix and sweep.
func (r *SignaturesResult) Render() string {
	var sb strings.Builder
	sb.WriteString("§7 future work — TCP congestion signatures [37] vs simulator ground truth\n")
	c := r.Confusion
	sb.WriteString(fmt.Sprintf("peak-hour tests: %d\n", c.Total))
	name := []string{"indeterminate", "self-induced", "external"}
	var rows [][]string
	for truth := 1; truth <= 2; truth++ {
		rows = append(rows, []string{
			"truth " + name[truth],
			fmt.Sprintf("%d", c.Counts[truth][signatures.SelfInduced]),
			fmt.Sprintf("%d", c.Counts[truth][signatures.ExternalCongestion]),
			fmt.Sprintf("%d", c.Counts[truth][signatures.Indeterminate]),
		})
	}
	sb.WriteString(table([]string{"", "→ self-induced", "→ external", "→ indeterminate"}, rows))
	sb.WriteString(fmt.Sprintf("accuracy (determinate verdicts): %s; determinate fraction: %s\n\n",
		pct(c.Accuracy()), pct(c.DeterminateFrac())))
	rows = nil
	for _, s := range r.Sweep {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", s.MinInflation), pct(s.Accuracy), pct(s.DeterminateFrac),
		})
	}
	sb.WriteString(table([]string{"inflation thr", "accuracy", "determinate"}, rows))
	return sb.String()
}

// ---- E15: TSLP survey (§7 recommendation / [25]) ----

// TSLPResult is the survey of every interdomain link.
type TSLPResult struct {
	Links             int
	TruePos, FalsePos int
	TrueNeg, FalseNeg int
	// Flagged lists the detected links with their elevation.
	Flagged []struct {
		ASA, ASB  topology.ASN
		Metro     string
		Elevation float64
		Truth     bool
	}
	// BytesPerLinkPerDay contrasts TSLP's probe cost with an NDT test
	// (§7: Ark/BISmark/Atlas "are not provisioned to support the
	// bandwidth requirements of NDT" but can run TSLP).
	ProbesPerLinkPerDay int
}

// TSLP runs the lightweight latency survey over all interdomain links.
func TSLP(e *Env) *TSLPResult {
	links := e.World.Topo.InterdomainLinks(0, 0)
	p := &tslp.Prober{Model: e.World.Model, BasePathRTTms: 18, NoiseMs: 0.4}
	rng := rand.New(rand.NewSource(77))
	const days, interval = 5, 15
	results := tslp.Survey(p, links, days, interval, tslp.DefaultConfig(), rng)

	res := &TSLPResult{Links: len(links), ProbesPerLinkPerDay: 24 * 60 / interval}
	for _, l := range links {
		r := results[l.ID]
		truth := l.PeakUtil >= 1
		switch {
		case r.Congested && truth:
			res.TruePos++
		case r.Congested && !truth:
			res.FalsePos++
		case !r.Congested && truth:
			res.FalseNeg++
		default:
			res.TrueNeg++
		}
		if r.Congested {
			res.Flagged = append(res.Flagged, struct {
				ASA, ASB  topology.ASN
				Metro     string
				Elevation float64
				Truth     bool
			}{l.ASA(), l.ASB(), l.Metro, r.ElevationMs, truth})
		}
	}
	sort.Slice(res.Flagged, func(i, j int) bool { return res.Flagged[i].Elevation > res.Flagged[j].Elevation })
	return res
}

// Render prints the survey summary.
func (r *TSLPResult) Render() string {
	var sb strings.Builder
	sb.WriteString("§7 recommendation — TSLP latency survey of every interdomain link [25]\n")
	sb.WriteString(fmt.Sprintf("links probed: %d (%d probes/link/day; an NDT test moves ~MBs, a probe ~100 B)\n",
		r.Links, r.ProbesPerLinkPerDay))
	sb.WriteString(fmt.Sprintf("TP=%d FP=%d FN=%d TN=%d\n\n", r.TruePos, r.FalsePos, r.FalseNeg, r.TrueNeg))
	var rows [][]string
	for i, f := range r.Flagged {
		if i == 15 {
			break
		}
		rows = append(rows, []string{
			fmt.Sprintf("AS%d-AS%d", f.ASA, f.ASB), f.Metro,
			fmt.Sprintf("%.1f ms", f.Elevation), fmt.Sprintf("%v", f.Truth),
		})
	}
	sb.WriteString(table([]string{"link", "metro", "diurnal elevation", "truly saturated"}, rows))
	return sb.String()
}

// ---- E16: topology-aware server placement (§7 recommendation) ----

// PlacementResult compares deployment strategies under a server budget.
type PlacementResult struct {
	Budget   int
	Universe int
	// Coverage trajectories (covered peer interconnections after k
	// servers).
	Greedy, Latency []int
	// ChosenGreedy lists the greedy slots.
	ChosenGreedy []placement.Candidate
}

// Placement runs both strategies at a 12-server budget.
func Placement(e *Env) *PlacementResult {
	m := placement.BuildMatrix(e.World, placement.Candidates(e.World))
	const k = 12
	g := m.Greedy(k, true)
	l := m.LatencyFirst(e.World, k, true)
	return &PlacementResult{
		Budget: k, Universe: g.Universe,
		Greedy: g.CoveredAfter, Latency: l.CoveredAfter,
		ChosenGreedy: g.Chosen,
	}
}

// Render prints the coverage trajectories.
func (r *PlacementResult) Render() string {
	var sb strings.Builder
	sb.WriteString("§7 recommendation — topology-aware vs latency-first server placement\n")
	sb.WriteString(fmt.Sprintf("objective: (ISP, peer) interconnections coverable from the 16 Ark VPs (universe %d)\n", r.Universe))
	var rows [][]string
	for i := 0; i < r.Budget; i++ {
		g, l := "-", "-"
		if i < len(r.Greedy) {
			g = fmt.Sprintf("%d", r.Greedy[i])
		}
		if i < len(r.Latency) {
			l = fmt.Sprintf("%d", r.Latency[i])
		}
		slot := ""
		if i < len(r.ChosenGreedy) {
			slot = r.ChosenGreedy[i].Network + "/" + r.ChosenGreedy[i].Metro
		}
		rows = append(rows, []string{fmt.Sprintf("%d", i+1), g, l, slot})
	}
	sb.WriteString(table([]string{"servers", "topology-aware", "latency-first", "greedy pick"}, rows))
	return sb.String()
}
