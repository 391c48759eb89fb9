package core

import "throughputlab/internal/stats"

// ---- §6: the diurnal windows every peak/off-peak claim compares ----

// HourRange is a half-open range [From, To) of whole client-local
// hours. For a local hour h in [0,24), hour bin floor(h) lies in the
// range exactly when In(h) is true, so a reader that bins samples by
// hour and a reader that tests each sample's fractional hour agree.
type HourRange struct{ From, To int }

// In reports whether local hour h lies in [From, To).
func (r HourRange) In(h float64) bool {
	return h >= float64(r.From) && h < float64(r.To)
}

// samples returns the values of every hour bin in r, concatenated in
// increasing hour order: the order stats.Summarize folds them in.
func (r HourRange) samples(b *stats.HourBins) []float64 {
	var out []float64
	for h := r.From; h < r.To; h++ {
		out = append(out, b.Bin(h)...)
	}
	return out
}

// count returns the number of samples in r's hour bins.
func (r HourRange) count(c [24]int) int {
	n := 0
	for h := r.From; h < r.To; h++ {
		n += c[h]
	}
	return n
}

// Windows pairs a peak range with the off-peak range it is compared
// against.
type Windows struct{ Peak, Off HourRange }

// The four named windows each have their own readers, and their values
// differ. Choosing one default by measurement is ROADMAP item 20;
// EXPERIMENTS.md's window-sensitivity table records how the outputs
// move with that choice.
var (
	// DetectorWindows are the detector's peak bins 19–23 and off-peak
	// bins 8–14. Detect and ThresholdSweep read them, and through them
	// Figure 5, the thresholds and stratified experiments and the
	// report's grade.
	DetectorWindows = Windows{Peak: HourRange{19, 24}, Off: HourRange{8, 15}}

	// ProbeWindows are the windows of tslp's far−near level shift. The
	// tomography experiment labels peak tests against its ISP's
	// off-peak median with them, and the report's signature share
	// classifies the tests in Peak.
	ProbeWindows = Windows{Peak: HourRange{19, 23}, Off: HourRange{7, 15}}

	// SignaturePeak is the window of peak tests the Signatures
	// experiment and examples/signatures classify.
	SignaturePeak = HourRange{18, 23}

	// BiasWindows are BiasFromBins' evening (Peak) and night (Off)
	// bins, whose sample counts form the night/evening ratio.
	BiasWindows = Windows{Peak: HourRange{19, 22}, Off: HourRange{3, 6}}
)
