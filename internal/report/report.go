// Package report assembles the paper's recommendations (§7) into a
// congestion report generator: the M-Lab-style per-interconnection
// analysis, but with every §3–§6 challenge checked and surfaced as a
// machine-readable caveat, and a final confidence grade that degrades
// when the underlying assumptions do not hold.
//
// This is the shape the paper argues such reports should have had:
// "claims about congestion at interconnects should acknowledge that
// those interconnects may not be on the path from the most popular
// content to users", "analysis of throughput measurements should not
// aggregate across router-level links", "every throughput-based test
// must include a traceroute", and so on — each becomes a concrete
// check against the corpus.
package report

import (
	"fmt"
	"strings"

	"throughputlab/internal/core"
	"throughputlab/internal/platform"
	"throughputlab/internal/signatures"
)

// Grade is the final confidence in a congestion claim.
type Grade int

const (
	// Insufficient: not enough well-distributed samples to say anything
	// (§6.1).
	Insufficient Grade = iota
	// NotCongested: no meaningful peak-hour degradation.
	NotCongested
	// Ambiguous: a measurable dip that cannot be distinguished from
	// busy-but-healthy behaviour (§6.2's gray zone), or a clear dip
	// whose localization assumptions fail.
	Ambiguous
	// CongestedLowConfidence: strong dip, but one or more challenge
	// checks failed — the WHERE is unreliable.
	CongestedLowConfidence
	// CongestedHighConfidence: strong dip, assumptions validated,
	// congestion-signature evidence concurs.
	CongestedHighConfidence
)

// String implements fmt.Stringer.
func (g Grade) String() string {
	switch g {
	case Insufficient:
		return "insufficient-data"
	case NotCongested:
		return "not-congested"
	case Ambiguous:
		return "ambiguous"
	case CongestedLowConfidence:
		return "congested (low confidence)"
	case CongestedHighConfidence:
		return "congested (high confidence)"
	}
	return fmt.Sprintf("Grade(%d)", int(g))
}

// Finding is the report row for one (server network+metro, client ISP)
// aggregate.
type Finding struct {
	ServerNet, ServerMetro, ClientISP string

	Tests int
	// MatchedFrac is the fraction of the group's tests with an
	// associated traceroute (§4.1 / §7: "every throughput-based test
	// must include a traceroute").
	MatchedFrac float64
	// OneHopFrac is the fraction of matched tests whose server and
	// client organizations are directly connected (Assumption 2).
	OneHopFrac float64
	// IPLinks is the number of distinct IP-level interdomain links the
	// group's tests crossed when first leaving the server network — the
	// interconnection the aggregate nominally measures (Assumption 3:
	// >1 means the aggregate mixes links).
	IPLinks int

	Detector core.Verdict
	Bias     core.BiasReport
	// ExternalSigFrac is the fraction of determinate peak-hour
	// congestion-signature verdicts that say "external congestion" —
	// corroborating evidence independent of the diurnal comparison.
	ExternalSigFrac float64

	Grade   Grade
	Caveats []string
}

// Config tunes the grading.
type Config struct {
	MinTests int
	Detector core.DetectorConfig
	// MinOneHop is the Assumption-2 bar below which localization
	// caveats apply.
	MinOneHop float64
	// MaxIPLinks is the Assumption-3 bar.
	MaxIPLinks int
	// Signature thresholds.
	Signature signatures.Config
}

// DefaultConfig returns the grading used by cmd/tputlab.
func DefaultConfig() Config {
	det := core.DefaultDetector()
	det.MinSamples = 20
	return Config{
		MinTests:   150,
		Detector:   det,
		MinOneHop:  0.8,
		MaxIPLinks: 1,
		Signature:  signatures.DefaultConfig(),
	}
}

// Report is the full output.
type Report struct {
	Findings []Finding
	// Congested lists findings graded congested (either confidence).
	Congested int
	Ambiguous int
	// Completeness is the corpus's fault-plane ledger (zero on clean
	// campaigns) and MatchedDegraded the matched pairs excluded from
	// path analyses — §6.1's demand that a claim acknowledge the
	// integrity of the data behind it, extended to the fault plane.
	Completeness    platform.Completeness
	MatchedDegraded int
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// grade applies the §3–§6 checklist.
func grade(f *Finding, cfg Config) {
	v := f.Detector
	if v.InsufficientData {
		f.Grade = Insufficient
		f.Caveats = append(f.Caveats,
			fmt.Sprintf("too few samples per window (peak %d, off-peak %d) — §6.1", v.PeakN, v.OffN))
		return
	}

	// Challenge checks (recorded regardless of verdict).
	localizable := true
	if f.MatchedFrac < 0.5 {
		f.Caveats = append(f.Caveats,
			fmt.Sprintf("only %.0f%% of tests have an associated traceroute — §4.1", 100*f.MatchedFrac))
		localizable = false
	}
	if f.OneHopFrac < cfg.MinOneHop {
		f.Caveats = append(f.Caveats,
			fmt.Sprintf("only %.0f%% of paths are one AS hop: Assumption 2 fails, any interdomain link on the path could be the cause — §4.2", 100*f.OneHopFrac))
		localizable = false
	}
	if f.IPLinks > cfg.MaxIPLinks {
		f.Caveats = append(f.Caveats,
			fmt.Sprintf("aggregate spans %d IP-level interconnections: Assumption 3 fails, stratify per link — §4.3", f.IPLinks))
		localizable = false
	}
	if f.Bias.NightToEveningRatio < 0.25 {
		f.Caveats = append(f.Caveats,
			fmt.Sprintf("night/evening sample ratio %.2f: off-peak baseline rests on few tests — §6.1", f.Bias.NightToEveningRatio))
	}
	if f.Bias.MaxHourCV > 1.0 {
		f.Caveats = append(f.Caveats,
			fmt.Sprintf("hourly CV up to %.2f: plan/home-network variance dominates — §6.1", f.Bias.MaxHourCV))
	}

	switch {
	case !v.Congested && v.Drop < 0.15 && v.MeanDrop < 0.15:
		f.Grade = NotCongested
	case !v.Congested:
		f.Grade = Ambiguous
		f.Caveats = append(f.Caveats,
			fmt.Sprintf("measurable dip (median %.0f%%, mean %.0f%%) below the congestion threshold: busy or congested? — §6.2", 100*v.Drop, 100*v.MeanDrop))
	default:
		// Congested by the detector. Corroboration and localization
		// decide the confidence — and active contradiction by the
		// congestion signatures (the peak flows built their own queues)
		// demotes the claim entirely: the dip is the clients' own
		// bottlenecks at peak, not an upstream link.
		switch {
		case f.ExternalSigFrac < 0.25:
			f.Grade = Ambiguous
			f.Caveats = append(f.Caveats,
				fmt.Sprintf("congestion signatures attribute only %.0f%% of peak flows to an external bottleneck: the dip looks self-induced — [37]", 100*f.ExternalSigFrac))
		case f.ExternalSigFrac < 0.5:
			f.Grade = CongestedLowConfidence
			f.Caveats = append(f.Caveats,
				fmt.Sprintf("congestion signatures corroborate only %.0f%% of peak flows — [37]", 100*f.ExternalSigFrac))
		case localizable && v.PeakCV < 0.5:
			f.Grade = CongestedHighConfidence
		default:
			f.Grade = CongestedLowConfidence
		}
	}
}

// Render prints the report.
func (r *Report) Render() string {
	var sb strings.Builder
	sb.WriteString("Interconnection congestion report (per §7's checklist)\n")
	sb.WriteString(fmt.Sprintf("groups analyzed: %d; congested: %d; ambiguous: %d\n",
		len(r.Findings), r.Congested, r.Ambiguous))
	// The completeness section appears only when the fault plane cost
	// the campaign data, so clean reports are byte-identical to the
	// pre-fault-layer output.
	if c := r.Completeness; c.Degraded() {
		sb.WriteString("data completeness:\n")
		sb.WriteString(fmt.Sprintf("  tests: %d collected of %d scheduled (%d abandoned after retries, %d rows dropped corrupt)\n",
			c.ScheduledTests-c.AbandonedTests-c.DroppedRows, c.ScheduledTests,
			c.AbandonedTests, c.DroppedRows))
		sb.WriteString(fmt.Sprintf("  partial records: %d truncated tests retained (excluded from path-sensitive analyses)\n",
			c.TruncatedTests))
		sb.WriteString(fmt.Sprintf("  traces: %d degraded by probe loss / rate limiting (skipped by inference)\n",
			c.DegradedTraces))
		sb.WriteString(fmt.Sprintf("  matching: %d associated pairs excluded as degraded\n",
			r.MatchedDegraded))
	}
	sb.WriteString("\n")
	for _, f := range r.Findings {
		if f.Grade == NotCongested || f.Grade == Insufficient {
			continue
		}
		sb.WriteString(fmt.Sprintf("%s/%s → %s: %s\n", f.ServerNet, f.ServerMetro, f.ClientISP, f.Grade))
		sb.WriteString(fmt.Sprintf("  %d tests; peak median %.2f vs off-peak %.2f Mbps (drop %.0f%%); peak CV %.2f; ext-signature %.0f%%\n",
			f.Tests, f.Detector.PeakMedian, f.Detector.OffMedian, 100*f.Detector.Drop, f.Detector.PeakCV, 100*f.ExternalSigFrac))
		sb.WriteString(fmt.Sprintf("  paths: %.0f%% traced, %.0f%% one-hop, %d IP link(s)\n",
			100*f.MatchedFrac, 100*f.OneHopFrac, f.IPLinks))
		for _, c := range f.Caveats {
			sb.WriteString("  ⚠ " + c + "\n")
		}
		sb.WriteString("\n")
	}
	notable := 0
	for _, f := range r.Findings {
		if f.Grade != NotCongested && f.Grade != Insufficient {
			notable++
		}
	}
	if notable == 0 {
		sb.WriteString("(no congested or ambiguous interconnections)\n")
	}
	if recs := r.Recommendations(); len(recs) > 0 {
		sb.WriteString("recommendations (§7):\n")
		for _, rec := range recs {
			sb.WriteString("  • " + rec + "\n")
		}
	}
	return sb.String()
}

// Recommendations maps the report's aggregate statistics onto the
// paper's §7 deployment guidance: each recommendation appears only
// when the corpus actually exhibits the problem it addresses, with the
// numbers that justify it.
func (r *Report) Recommendations() []string {
	if len(r.Findings) == 0 {
		return nil
	}
	var (
		total          = len(r.Findings)
		lowTrace       int
		multiHop       int
		multiLink      int
		thinOffPeak    int
		sigContradicts int
	)
	for _, f := range r.Findings {
		if f.MatchedFrac < 0.8 {
			lowTrace++
		}
		if f.OneHopFrac < 0.8 && f.OneHopFrac > 0 {
			multiHop++
		}
		if f.IPLinks > 1 {
			multiLink++
		}
		if f.Bias.NightToEveningRatio < 0.25 {
			thinOffPeak++
		}
		if f.Detector.Congested && f.ExternalSigFrac < 0.25 {
			sigContradicts++
		}
	}
	var out []string
	if lowTrace > 0 {
		out = append(out, fmt.Sprintf(
			"pair every test with a traceroute taken close in time — %d/%d aggregates fall below 80%% trace coverage (§7)",
			lowTrace, total))
	}
	if multiHop > 0 {
		out = append(out, fmt.Sprintf(
			"restrict server selection to directly connected servers or discard multi-hop tests — %d/%d aggregates are not predominantly one-hop (§7)",
			multiHop, total))
	}
	if multiLink > 0 {
		out = append(out, fmt.Sprintf(
			"do not aggregate across router-level links: stratify per IP link — %d/%d aggregates span several interconnections (§4.3, §7)",
			multiLink, total))
	}
	if thinOffPeak > 0 {
		out = append(out, fmt.Sprintf(
			"complement crowdsourcing with scheduled platform tests (Ark/BISmark/Atlas, e.g. TSLP) — %d/%d aggregates have starved off-peak baselines (§6.1, §7)",
			thinOffPeak, total))
	}
	if sigContradicts > 0 {
		out = append(out, fmt.Sprintf(
			"report congestion signatures alongside throughput — they overturned %d diurnal verdicts here ([37], §7)",
			sigContradicts))
	}
	return out
}
