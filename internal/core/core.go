// Package core is the paper's primary contribution turned into a
// library: a rigorous pipeline for inferring interdomain congestion
// from crowdsourced throughput measurements, together with the
// *challenge diagnostics* the paper argues any such analysis must run —
// NDT↔traceroute association (§4.1), AS-adjacency validation of
// Assumption 2 (§4.2), IP-level interconnection diversity behind an
// AS-level aggregate for Assumption 3 (§4.3), and the statistical
// health checks of §6 (time-of-day sample bias, variance, and
// congestion-threshold sensitivity).
package core

import (
	"sort"

	"throughputlab/internal/mapit"
	"throughputlab/internal/ndt"
	"throughputlab/internal/stats"
	"throughputlab/internal/traceroute"
)

// ---- §4.1: associating NDT tests with Paris traceroutes ----

// MatchMode selects the association window shape.
type MatchMode int

const (
	// WindowAfter matches the first traceroute launched within the
	// window AFTER the test (the paper's primary method: 71%).
	WindowAfter MatchMode = iota
	// WindowAround also accepts traceroutes shortly before the test
	// (the relaxed method: 87%).
	WindowAround
)

// PrimaryWindowMin and PrimaryMode are the association every pipeline
// stage uses for path analysis: the paper's primary 10-minute,
// after-only window. The experiments' shared matching and the report
// builder both read them, so the two can never pair differently.
const (
	PrimaryWindowMin = 10
	PrimaryMode      = WindowAfter
)

// PairDegraded reports whether a matched (test, trace) pair is unfit
// for path-sensitive analysis: the trace was maimed by the fault layer,
// or the test record is a truncated transfer whose web100 snapshot is
// incomplete. Clean campaigns never produce such pairs, so degradation
// awareness costs them nothing.
func PairDegraded(t *ndt.Test, tr *traceroute.Trace) bool {
	if tr != nil && tr.Degraded {
		return true
	}
	return t != nil && (t.Truncated || !t.Web100.Complete())
}

// Matching is the result of associating tests with traceroutes.
type Matching struct {
	// ByTest maps test ID → its associated traceroute.
	ByTest map[int]*traceroute.Trace
	// Total is the number of tests considered.
	Total int
	// Degraded counts matched pairs that PairDegraded rejects:
	// associated, but unusable for path-sensitive analysis. Always 0 on
	// clean corpora.
	Degraded int
}

// Matched returns the number of associated tests.
func (m *Matching) Matched() int { return len(m.ByTest) }

// Rate returns the matched fraction.
func (m *Matching) Rate() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Matched()) / float64(m.Total)
}

// MatchTraces associates each NDT test with a server-to-client Paris
// traceroute, since the platform does not record the association
// explicitly (§4.1): the first trace from the same server host to the
// same client within windowMin minutes of the test. Each traceroute is
// consumed by at most one test.
func MatchTraces(tests []*ndt.Test, traces []*traceroute.Trace, windowMin int, mode MatchMode) *Matching {
	type key struct {
		src, dst uint32
	}
	byPair := map[key][]*traceroute.Trace{}
	for _, tr := range traces {
		k := key{uint32(tr.SrcAddr), uint32(tr.DstAddr)}
		byPair[k] = append(byPair[k], tr)
	}
	for _, list := range byPair {
		// Stable: traces sharing a launch minute keep publication order,
		// so batch and streamed matching agree on tie-breaks.
		sort.SliceStable(list, func(i, j int) bool { return list[i].LaunchMinute < list[j].LaunchMinute })
	}

	used := map[*traceroute.Trace]bool{}
	m := &Matching{ByTest: map[int]*traceroute.Trace{}, Total: len(tests)}
	// Process tests in time order so earlier tests claim earlier
	// traceroutes.
	ordered := append([]*ndt.Test(nil), tests...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartMinute < ordered[j].StartMinute })
	for _, t := range ordered {
		k := key{uint32(t.ServerAddr), uint32(t.ClientAddr)}
		lo := t.StartMinute
		if mode == WindowAround {
			lo = t.StartMinute - windowMin
		}
		hi := t.StartMinute + windowMin
		list := byPair[k]
		// Binary-search the window's lower bound instead of scanning
		// the pair's whole history; the tie-break stays "first trace at
		// or after lo, each trace consumed at most once".
		for i := sort.Search(len(list), func(i int) bool {
			return list[i].LaunchMinute >= lo
		}); i < len(list); i++ {
			tr := list[i]
			if used[tr] {
				continue
			}
			if tr.LaunchMinute > hi {
				break
			}
			used[tr] = true
			m.ByTest[t.ID] = tr
			if PairDegraded(t, tr) {
				m.Degraded++
			}
			break
		}
	}
	return m
}

// ---- §2.2 / Figure 5: diurnal aggregation ----

// Series is the hour-of-day aggregation of one test group — the data
// behind each Figure 5 panel.
type Series struct {
	Throughput stats.HourBins
	RTT        stats.HourBins
	Retrans    stats.HourBins
}

// Add records one test at the given local hour.
func (s *Series) Add(localHour float64, t *ndt.Test) {
	s.Throughput.Add(localHour, t.DownMbps)
	s.RTT.Add(localHour, t.RTTms)
	s.Retrans.Add(localHour, t.RetransRate)
}

// BuildSeries aggregates tests into a Series; hourOf supplies the
// client-local hour of each test.
func BuildSeries(tests []*ndt.Test, hourOf func(*ndt.Test) float64) *Series {
	s := &Series{}
	for _, t := range tests {
		s.Add(hourOf(t), t)
	}
	return s
}

// ---- §6.2: congestion detection and its threshold problem ----

// DetectorConfig parameterizes the peak/off-peak comparison.
type DetectorConfig struct {
	// PeakHours and OffHours are local hour bins (defaults 19–23 and
	// 8–14).
	PeakHours, OffHours []int
	// DropThreshold is the relative median drop treated as evidence of
	// congestion (the §6.2 open question is precisely how to pick it).
	DropThreshold float64
	// MinSamples is the minimum per-window sample count before any
	// verdict is issued (§6.1's statistical validity guard).
	MinSamples int
}

// DefaultDetector returns the configuration used by the experiments.
func DefaultDetector() DetectorConfig {
	return DetectorConfig{
		PeakHours:     []int{19, 20, 21, 22, 23},
		OffHours:      []int{8, 9, 10, 11, 12, 13, 14},
		DropThreshold: 0.4,
		MinSamples:    30,
	}
}

// Verdict is the detector's output for one test group.
type Verdict struct {
	PeakMedian, OffMedian float64
	// PeakMean and OffMean support the Figure 5 style of reporting:
	// a busy shared medium dips the mean (high tiers get clipped) while
	// barely moving the median.
	PeakMean, OffMean float64
	// Drop is 1 - peak/off medians (0 when off-peak median is 0).
	Drop float64
	// MeanDrop is 1 - peak/off means.
	MeanDrop float64
	// PeakCV is the coefficient of variation at peak: near-zero CV with
	// a deep drop is the saturation signature of Figure 5a; a shallow
	// drop with high CV is the busy-but-fine regime of Figure 5b.
	PeakCV float64
	// PValue is the two-sided Mann–Whitney U p-value for peak vs
	// off-peak throughput samples — §6's demand that the comparison be
	// statistically significant, not just visually diurnal. A Congested
	// verdict requires both the drop threshold and significance.
	PValue float64
	// Samples in each window.
	PeakN, OffN int
	// Congested is the binary verdict.
	Congested bool
	// InsufficientData is set when either window misses MinSamples; no
	// Congested verdict is issued then.
	InsufficientData bool
}

// Detect compares peak and off-peak throughput for one series.
func Detect(s *Series, cfg DetectorConfig) Verdict {
	if len(cfg.PeakHours) == 0 {
		cfg = DefaultDetector()
	}
	var peak, off []float64
	for _, h := range cfg.PeakHours {
		peak = append(peak, s.Throughput.Bin(h)...)
	}
	for _, h := range cfg.OffHours {
		off = append(off, s.Throughput.Bin(h)...)
	}
	v := Verdict{PeakN: len(peak), OffN: len(off)}
	if len(peak) < cfg.MinSamples || len(off) < cfg.MinSamples {
		v.InsufficientData = true
		return v
	}
	// Moments first: Summarize folds the samples in bin order, and the
	// float summation order must not depend on the sort below.
	sum := stats.Summarize(peak)
	offSum := stats.Summarize(off)
	// Sort each window once and take quantiles of the sorted data, rather
	// than letting every quantile call copy and re-sort (the windows are
	// freshly built above, so sorting in place is safe).
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
	v.Congested = v.Drop >= cfg.DropThreshold && v.PValue < 0.05
	return v
}

// ---- §4.2: Assumption 2 — AS hops between server and client ----

// HopBuckets is the Figure 1 row for one client ISP: the number of
// matched tests whose org-collapsed AS path from server to client has
// 1, 2, or more hops.
type HopBuckets struct {
	One, Two, More int
}

// Total returns the number of bucketed tests.
func (h HopBuckets) Total() int { return h.One + h.Two + h.More }

// FracOne returns the one-hop fraction (0 for empty).
func (h HopBuckets) FracOne() float64 {
	if h.Total() == 0 {
		return 0
	}
	return float64(h.One) / float64(h.Total())
}

// ASHopDistribution buckets matched tests by AS hop count between the
// server and client organizations, keyed by a caller-supplied group
// label (Figure 1 groups by client ISP). Tests without a matched trace,
// degraded pairs (a maimed trace's hop count would be an artifact of
// probe loss, not topology), or traces yielding fewer than two org hops
// are skipped.
func ASHopDistribution(tests []*ndt.Test, m *Matching, inf *mapit.Inference,
	groupOf func(*ndt.Test) string) map[string]*HopBuckets {

	out := map[string]*HopBuckets{}
	for _, t := range tests {
		tr := m.ByTest[t.ID]
		if tr == nil || PairDegraded(t, tr) {
			continue
		}
		path := inf.ASPathOf(tr)
		if len(path) < 2 {
			continue
		}
		g := groupOf(t)
		b := out[g]
		if b == nil {
			b = &HopBuckets{}
			out[g] = b
		}
		switch hops := len(path) - 1; {
		case hops == 1:
			b.One++
		case hops == 2:
			b.Two++
		default:
			b.More++
		}
	}
	return out
}

// ---- §4.3: Assumption 3 — IP-level link diversity ----

// LinkUse counts the tests that crossed one inferred IP-level
// interdomain link.
type LinkUse struct {
	Link  mapit.Link
	Tests int
}

// LinkDiversity groups matched tests by a caller-supplied label
// (Table 2 uses the client ASN as seen by the inference) and, within
// each group, counts tests per distinct IP-level interdomain link
// crossed. A link is identified by its FAR interface address — the
// neighbor's ingress, which names the physical link uniquely — since
// third-party replies make the near-side address unstable across
// traces. An optional keepLink filter restricts which inferred links
// count (Table 2 keeps only links between the server org and the
// client org). Results per group are sorted by descending test count.
func LinkDiversity(tests []*ndt.Test, m *Matching, inf *mapit.Inference,
	groupOf func(t *ndt.Test, tr *traceroute.Trace) (string, bool),
	keepLink func(mapit.Link) bool) map[string][]LinkUse {

	agg := map[string]map[uint32]*LinkUse{}
	for _, t := range tests {
		tr := m.ByTest[t.ID]
		// Degraded pairs are excluded: a rate-limited trace joins hops
		// across the suppressed run, manufacturing interdomain crossings
		// that do not exist.
		if tr == nil || PairDegraded(t, tr) {
			continue
		}
		g, ok := groupOf(t, tr)
		if !ok {
			continue
		}
		links := inf.LinksOf(tr)
		if len(links) == 0 {
			continue
		}
		byLink := agg[g]
		if byLink == nil {
			byLink = map[uint32]*LinkUse{}
			agg[g] = byLink
		}
		for _, l := range links {
			if keepLink != nil && !keepLink(l) {
				continue
			}
			k := uint32(l.Far)
			u := byLink[k]
			if u == nil {
				u = &LinkUse{Link: l}
				byLink[k] = u
			}
			u.Tests++
		}
	}
	out := map[string][]LinkUse{}
	for g, byLink := range agg {
		var list []LinkUse
		for _, u := range byLink {
			list = append(list, *u)
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].Tests != list[j].Tests {
				return list[i].Tests > list[j].Tests
			}
			if list[i].Link.Near != list[j].Link.Near {
				return list[i].Link.Near < list[j].Link.Near
			}
			return list[i].Link.Far < list[j].Link.Far
		})
		out[g] = list
	}
	return out
}

// ---- §6.1: crowdsourcing bias diagnostics ----

// BiasReport summarizes the statistical health of one test group.
type BiasReport struct {
	// NightToEveningRatio compares 3–6am to 19–22 sample counts; values
	// far below 1 mean off-peak verdicts rest on few samples.
	NightToEveningRatio float64
	// MaxHourCV is the largest per-hour coefficient of variation —
	// service-plan and home-network variance surfaces here.
	MaxHourCV float64
	// TestsPerClientP90 is the 90th percentile of per-client test
	// counts; crowdsourced clients typically contribute only one or a
	// few samples.
	TestsPerClientP90 float64
	// ThinHours lists local hours with fewer than minSamples tests.
	ThinHours []int
}

// Bias computes the §6.1 diagnostics for a set of tests.
func Bias(tests []*ndt.Test, hourOf func(*ndt.Test) float64, minSamples int) BiasReport {
	var bins stats.HourBins
	perClient := map[uint32]int{}
	for _, t := range tests {
		bins.Add(hourOf(t), t.DownMbps)
		perClient[uint32(t.ClientAddr)]++
	}
	return BiasFromBins(&bins, perClient, minSamples)
}

// BiasFromBins computes the §6.1 diagnostics from pre-aggregated state:
// hour-binned download throughput plus per-client test counts. The
// streaming report path aggregates these incrementally and shares this
// reduction with Bias, so both paths render identical diagnostics.
func BiasFromBins(bins *stats.HourBins, perClient map[uint32]int, minSamples int) BiasReport {
	c := bins.Counts()
	night := c[3] + c[4] + c[5]
	evening := c[19] + c[20] + c[21]
	rep := BiasReport{}
	if evening > 0 {
		rep.NightToEveningRatio = float64(night) / float64(evening)
	}
	for h := 0; h < 24; h++ {
		if c[h] < minSamples {
			rep.ThinHours = append(rep.ThinHours, h)
		}
		sum := stats.Summarize(bins.Bin(h))
		if sum.N > 1 && sum.Mean > 0 {
			if cv := sum.Stddev / sum.Mean; cv > rep.MaxHourCV {
				rep.MaxHourCV = cv
			}
		}
	}
	counts := make([]float64, 0, len(perClient))
	for _, n := range perClient {
		counts = append(counts, float64(n))
	}
	rep.TestsPerClientP90 = stats.Quantile(counts, 0.9)
	return rep
}
