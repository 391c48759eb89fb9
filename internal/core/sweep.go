package core

// LabeledGroup pairs a diurnal series with its ground-truth congestion
// label (available only in simulation — which is exactly why §6.2 calls
// threshold selection an open problem on the real Internet).
type LabeledGroup struct {
	Name   string
	Series *Series
	// TrulyCongested: the dominant path for this group crosses a link
	// whose offered load exceeds capacity at peak.
	TrulyCongested bool
}

// ThresholdPoint is one row of the §6.2 sensitivity analysis.
type ThresholdPoint struct {
	Threshold         float64
	TruePos, FalsePos int
	TrueNeg, FalseNeg int
	Undecided         int
}

// Precision returns TP/(TP+FP), or 0 when nothing was flagged.
func (p ThresholdPoint) Precision() float64 {
	if p.TruePos+p.FalsePos == 0 {
		return 0
	}
	return float64(p.TruePos) / float64(p.TruePos+p.FalsePos)
}

// Recall returns TP/(TP+FN), or 0 when there are no positives.
func (p ThresholdPoint) Recall() float64 {
	if p.TruePos+p.FalseNeg == 0 {
		return 0
	}
	return float64(p.TruePos) / float64(p.TruePos+p.FalseNeg)
}

// ThresholdSweep evaluates the detector across drop thresholds,
// scoring each group's verdict against its ground-truth label. Groups
// with insufficient data count as Undecided at every threshold. The
// threshold enters only the verdict rule, so each group's window
// statistics are measured once and judged at every threshold.
func ThresholdSweep(groups []LabeledGroup, thresholds []float64, cfg DetectorConfig) []ThresholdPoint {
	if cfg == (DetectorConfig{}) {
		cfg = DefaultDetector()
	}
	verdicts := make([]Verdict, len(groups))
	for i, g := range groups {
		verdicts[i] = measure(g.Series, cfg)
	}
	out := make([]ThresholdPoint, 0, len(thresholds))
	for _, th := range thresholds {
		pt := ThresholdPoint{Threshold: th}
		for i, g := range groups {
			v := verdicts[i]
			congested := v.congestedAt(th)
			switch {
			case v.InsufficientData:
				pt.Undecided++
			case congested && g.TrulyCongested:
				pt.TruePos++
			case congested && !g.TrulyCongested:
				pt.FalsePos++
			case !congested && g.TrulyCongested:
				pt.FalseNeg++
			default:
				pt.TrueNeg++
			}
		}
		out = append(out, pt)
	}
	return out
}
