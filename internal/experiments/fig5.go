package experiments

import (
	"fmt"
	"math"
	"strings"

	"throughputlab/internal/core"
	"throughputlab/internal/ndt"
)

// Fig5Panel is one panel of Figure 5: a diurnal throughput series with
// sample counts for one (server, client ISP) group.
type Fig5Panel struct {
	ServerNet, ServerMetro, ClientISP string

	Mean, Stddev, Median [24]float64
	// RTTMedian and RetransMedian are the companion diurnals the M-Lab
	// report analyzed alongside throughput (§2.2: "download throughput,
	// flow round-trip time … and packet retransmission rates").
	RTTMedian, RetransMedian [24]float64
	Counts                   [24]int
	Verdict                  core.Verdict
}

// Fig5Result reproduces Figure 5: GTT Atlanta toward AT&T (congested)
// and toward Comcast (busy but not congested).
type Fig5Result struct {
	Panels []Fig5Panel
}

// Fig5 builds both panels from the corpus.
func Fig5(e *Env) *Fig5Result {
	res := &Fig5Result{}
	for _, isp := range []string{"AT&T", "Comcast"} {
		res.Panels = append(res.Panels, fig5Panel(e, "GTT", "atl", isp))
	}
	return res
}

// fig5Panel builds one panel for an arbitrary group.
func fig5Panel(e *Env, serverNet, serverMetro, isp string) Fig5Panel {
	var tests []*ndt.Test
	for _, t := range e.Corpus.Tests {
		if t.ServerNet == serverNet && t.ServerMetro == serverMetro && t.ClientISP == isp {
			tests = append(tests, t)
		}
	}
	s := core.BuildSeries(tests)
	cfg := core.DefaultDetector()
	cfg.MinSamples = 10
	p := Fig5Panel{
		ServerNet: serverNet, ServerMetro: serverMetro, ClientISP: isp,
		Mean:          s.Throughput.Means(),
		Stddev:        s.Throughput.Stddevs(),
		Median:        s.Throughput.Medians(),
		RTTMedian:     s.RTT.Medians(),
		RetransMedian: s.Retrans.Medians(),
		Counts:        s.Throughput.Counts(),
		Verdict:       core.Detect(s, cfg),
	}
	return p
}

// Render prints both panels hour by hour.
func (r *Fig5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 5 — diurnal throughput and sample counts, GTT Atlanta server\n")
	for _, p := range r.Panels {
		sb.WriteString(fmt.Sprintf("\n(%s %s → %s clients)\n", p.ServerNet, p.ServerMetro, p.ClientISP))
		var rows [][]string
		for h := 0; h < 24; h++ {
			f := func(x float64, digits int) string {
				if math.IsNaN(x) {
					return "-"
				}
				return fmt.Sprintf("%.*f", digits, x)
			}
			rows = append(rows, []string{
				fmt.Sprintf("%02d", h),
				f(p.Mean[h], 1), f(p.Stddev[h], 1), f(p.Median[h], 1),
				f(p.RTTMedian[h], 0), f(100*p.RetransMedian[h], 2),
				fmt.Sprintf("%d", p.Counts[h]),
			})
		}
		sb.WriteString(table([]string{"hour", "mean Mbps", "stddev", "median", "RTT ms", "retrans %", "samples"}, rows))
		v := p.Verdict
		sb.WriteString(fmt.Sprintf("detector: peak median %.2f, off-peak %.2f, drop %s, peak CV %.2f, p=%.3g, congested=%v\n",
			v.PeakMedian, v.OffMedian, pct(v.Drop), v.PeakCV, v.PValue, v.Congested))
	}
	return sb.String()
}
