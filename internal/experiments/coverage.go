package experiments

import (
	"context"
	"fmt"
	"strings"

	"throughputlab/internal/alias"
	"throughputlab/internal/bdrmap"
	"throughputlab/internal/platform"
	"throughputlab/internal/routing"
	"throughputlab/internal/stream"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// VPAnalysis bundles everything §5 computes from one Ark vantage
// point: the bdrmap border map (the denominator of Figures 2–3) and
// the interconnections covered by traces toward each platform's
// servers and toward popular content.
type VPAnalysis struct {
	Label string // paper VP name, e.g. "bed-us"
	ISP   string

	Borders *bdrmap.Result

	// Covered interconnections per target set.
	MLabAS, SpeedAS, AlexaAS             map[topology.ASN]bool
	MLabRouter, SpeedRouter, AlexaRouter map[[2]int]bool

	// Rel classifies a neighbor from the VP org's perspective
	// (bdrmap.Analyzer.Rel over the published relationships).
	Rel func(topology.ASN) topology.Rel
}

// VPAnalyses runs the §5 methodology for every Ark VP (cached on the
// Env): a traceroute campaign to every routed prefix, plus campaigns
// toward M-Lab servers, Speedtest servers, and the per-VP Alexa
// targets, all labeled by one shared MAP-IT inference. The VPs are
// analyzed on Opts.Workers goroutines; each has its own seed and alias
// resolver, so the result does not depend on the worker count.
func VPAnalyses(e *Env) []*VPAnalysis {
	// The analyses run uncancellable, so they cannot fail.
	e.vpsOnce.Do(func() { e.vps, _ = analyzeVPs(context.Background(), e, true) })
	return e.vps
}

// analyzeVPs analyzes every Ark VP of e's world (uncached), on
// Opts.Workers goroutines; routerLevel is analyzeVP's. Once ctx is done
// the VPs' campaigns stop, and it returns the first VP's error.
func analyzeVPs(ctx context.Context, e *Env, routerLevel bool) ([]*VPAnalysis, error) {
	w := e.World
	prefixTargets := platform.RoutedPrefixTargets(w)
	mlabTargets := platform.HostTargets(w.MLabServers())
	speedTargets := platform.HostTargets(w.Speedtest)

	out := make([]*VPAnalysis, len(w.ArkVPs))
	errs := make([]error, len(w.ArkVPs))
	stream.For(len(w.ArkVPs), e.Opts.workers(), nil, func(_, vi int) {
		out[vi], errs[vi] = analyzeVP(ctx, e, w.ArkVPs[vi], prefixTargets, mlabTargets, speedTargets, int64(1000+vi), routerLevel)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AnalyzeVP runs the §5 methodology for one vantage point (uncached)
// over target lists the caller builds once and shares across VPs.
func AnalyzeVP(e *Env, vp topogen.ArkVP, prefixTargets, mlabTargets, speedTargets []routing.Endpoint, seed int64) *VPAnalysis {
	// Uncancellable, so it cannot fail.
	va, _ := analyzeVP(context.Background(), e, vp, prefixTargets, mlabTargets, speedTargets, seed, true)
	return va
}

// analyzeVP is AnalyzeVP under ctx, which stops its campaigns. With
// routerLevel false it is the AS-level analysis, all that a
// peer-coverage comparison reads: no alias resolution (bdrmap's
// nil-Alias mode, so each Border's RouterPairs counts address pairs),
// and only the M-Lab and Speedtest AS coverage sets. Its Borders' neighbors, relationships and trace counts, and
// those two sets, equal the full analysis': the Alexa campaign still
// runs, because its traces feed the MAP-IT labels every set reads.
func analyzeVP(ctx context.Context, e *Env, vp topogen.ArkVP, prefixTargets, mlabTargets, speedTargets []routing.Endpoint, seed int64, routerLevel bool) (*VPAnalysis, error) {
	w := e.World
	art := traceroute.DefaultArtifacts()
	art.DstNoReplyProb = 0.05

	// The prefix, M-Lab, Speedtest and Alexa campaigns, seeded in that
	// order.
	var sets [4][]*traceroute.Trace
	for i, targets := range [][]routing.Endpoint{prefixTargets, mlabTargets, speedTargets,
		platform.AlexaTargets(w, vp.Host.Endpoint.Metro)} {
		var err error
		if sets[i], err = platform.Campaign(ctx, w, vp.Host.Endpoint, targets, art, seed+int64(i)); err != nil {
			return nil, err
		}
	}
	campaign, mlab, speed, alexa := sets[0], sets[1], sets[2], sets[3]

	opts := e.bdrmapOpts(vp)
	opts.AliasSeed = seed + 4
	if routerLevel {
		opts.Alias = alias.New(w.Topo)
	}
	all := make([]*traceroute.Trace, 0, len(campaign)+len(mlab)+len(speed)+len(alexa))
	all = append(all, campaign...)
	all = append(all, mlab...)
	all = append(all, speed...)
	all = append(all, alexa...)
	az := bdrmap.NewAnalyzer(all, opts)

	va := &VPAnalysis{Label: vp.Label, ISP: vp.ISP, Rel: az.Rel}
	va.Borders = az.Borders(campaign)
	if !routerLevel {
		va.MLabAS = az.CoverageAS(mlab)
		va.SpeedAS = az.CoverageAS(speed)
		return va, nil
	}
	va.MLabAS, va.MLabRouter = az.CoverageSets(mlab)
	va.SpeedAS, va.SpeedRouter = az.CoverageSets(speed)
	va.AlexaAS, va.AlexaRouter = az.CoverageSets(alexa)
	return va, nil
}

// ---- Table 3 ----

// Table3Result reproduces Table 3: per-VP border statistics.
type Table3Result struct {
	Rows []*VPAnalysis
}

// Table3 runs bdrmap from all 16 Ark VPs.
func Table3(e *Env) *Table3Result { return &Table3Result{Rows: VPAnalyses(e)} }

// Render prints Table 3.
func (r *Table3Result) Render() string {
	var rows [][]string
	for _, v := range r.Rows {
		cust := v.Borders.ByRel[topology.RelCustomer]
		prov := v.Borders.ByRel[topology.RelProvider]
		peer := v.Borders.ByRel[topology.RelPeer]
		rows = append(rows, []string{
			v.ISP, v.Label,
			fmt.Sprintf("%d", v.Borders.ASCount), fmt.Sprintf("%d", v.Borders.RouterCount),
			fmt.Sprintf("%d", cust.AS), fmt.Sprintf("%d", cust.Router),
			fmt.Sprintf("%d", prov.AS), fmt.Sprintf("%d", prov.Router),
			fmt.Sprintf("%d", peer.AS), fmt.Sprintf("%d", peer.Router),
		})
	}
	return "Table 3 — bdrmap border statistics per Ark VP (AS / router level)\n" +
		table([]string{"Network", "VP", "ALL AS", "ALL rtr", "CUST AS", "CUST rtr",
			"PROV AS", "PROV rtr", "PEER AS", "PEER rtr"}, rows)
}

// ---- Figures 2 and 3 ----

// CoverageRow is one VP's bar group in Figure 2 or 3.
type CoverageRow struct {
	Label, ISP                   string
	BdrmapAS, MLabAS, SpeedAS    int
	BdrmapRtr, MLabRtr, SpeedRtr int
}

// CoverageResult holds Figure 2 (all interconnections) or Figure 3
// (peers only).
type CoverageResult struct {
	PeersOnly bool
	Rows      []CoverageRow
}

// Fig2 computes coverage of all interconnections.
func Fig2(e *Env) *CoverageResult { return coverage(e, false) }

// Fig3 computes coverage of peer interconnections only.
func Fig3(e *Env) *CoverageResult { return coverage(e, true) }

func coverage(e *Env, peersOnly bool) *CoverageResult {
	res := &CoverageResult{PeersOnly: peersOnly}
	for _, v := range VPAnalyses(e) {
		row := CoverageRow{Label: v.Label, ISP: v.ISP}
		keep := func(n topology.ASN) bool {
			return !peersOnly || v.Rel(n) == topology.RelPeer
		}
		for _, b := range v.Borders.Borders {
			if keep(b.Neighbor) {
				row.BdrmapAS++
				row.BdrmapRtr += b.RouterPairs
			}
		}
		countAS := func(set map[topology.ASN]bool) int {
			n := 0
			for a := range set {
				if keep(a) {
					n++
				}
			}
			return n
		}
		row.MLabAS = countAS(v.MLabAS)
		row.SpeedAS = countAS(v.SpeedAS)
		if peersOnly {
			// Router-level peer filtering requires neighbor attribution
			// per router pair; approximate by scaling with the AS-level
			// peer share of each covered set — the paper's router-level
			// bars follow the same ordering.
			row.MLabRtr = routerCountFiltered(v, v.MLabRouter, v.MLabAS, keep)
			row.SpeedRtr = routerCountFiltered(v, v.SpeedRouter, v.SpeedAS, keep)
		} else {
			row.MLabRtr = len(v.MLabRouter)
			row.SpeedRtr = len(v.SpeedRouter)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func routerCountFiltered(v *VPAnalysis, routers map[[2]int]bool, ases map[topology.ASN]bool,
	keep func(topology.ASN) bool) int {
	if len(ases) == 0 {
		return 0
	}
	kept := 0
	for a := range ases {
		if keep(a) {
			kept++
		}
	}
	return len(routers) * kept / len(ases)
}

// Render prints the coverage bars as a table with fractions.
func (r *CoverageResult) Render() string {
	title := "Figure 2 — coverage of AS- and router-level interconnections"
	if r.PeersOnly {
		title = "Figure 3 — coverage of AS- and router-level PEER interconnections"
	}
	var rows [][]string
	for _, row := range r.Rows {
		fm, fs := 0.0, 0.0
		if row.BdrmapAS > 0 {
			fm = float64(row.MLabAS) / float64(row.BdrmapAS)
			fs = float64(row.SpeedAS) / float64(row.BdrmapAS)
		}
		rows = append(rows, []string{
			row.Label, row.ISP,
			fmt.Sprintf("%d", row.BdrmapAS), fmt.Sprintf("%d", row.MLabAS), fmt.Sprintf("%d", row.SpeedAS),
			pct(fm), pct(fs),
			fmt.Sprintf("%d", row.BdrmapRtr), fmt.Sprintf("%d", row.MLabRtr), fmt.Sprintf("%d", row.SpeedRtr),
		})
	}
	return title + "\n" + table([]string{"VP", "ISP", "bdrmap AS", "M-Lab AS", "Speedtest AS",
		"M-Lab %", "Speedtest %", "bdrmap rtr", "M-Lab rtr", "Speedtest rtr"}, rows)
}

// ---- Figure 4 ----

// Fig4Row is one VP's set-difference bars.
type Fig4Row struct {
	Label, ISP string
	// AS-level set differences.
	MLabNotAlexa, AlexaNotMLab   int
	SpeedNotAlexa, AlexaNotSpeed int
	AlexaTotal                   int
	// Router-level set differences.
	RtrMLabNotAlexa, RtrAlexaNotMLab   int
	RtrSpeedNotAlexa, RtrAlexaNotSpeed int
}

// Fig4Result reproduces Figure 4.
type Fig4Result struct{ Rows []Fig4Row }

// Fig4 compares interconnections on paths to platform servers against
// those on paths to popular content.
func Fig4(e *Env) *Fig4Result {
	res := &Fig4Result{}
	for _, v := range VPAnalyses(e) {
		row := Fig4Row{Label: v.Label, ISP: v.ISP, AlexaTotal: len(v.AlexaAS)}
		diffAS := func(a, b map[topology.ASN]bool) int {
			n := 0
			for x := range a {
				if !b[x] {
					n++
				}
			}
			return n
		}
		diffRtr := func(a, b map[[2]int]bool) int {
			n := 0
			for x := range a {
				if !b[x] {
					n++
				}
			}
			return n
		}
		row.MLabNotAlexa = diffAS(v.MLabAS, v.AlexaAS)
		row.AlexaNotMLab = diffAS(v.AlexaAS, v.MLabAS)
		row.SpeedNotAlexa = diffAS(v.SpeedAS, v.AlexaAS)
		row.AlexaNotSpeed = diffAS(v.AlexaAS, v.SpeedAS)
		row.RtrMLabNotAlexa = diffRtr(v.MLabRouter, v.AlexaRouter)
		row.RtrAlexaNotMLab = diffRtr(v.AlexaRouter, v.MLabRouter)
		row.RtrSpeedNotAlexa = diffRtr(v.SpeedRouter, v.AlexaRouter)
		row.RtrAlexaNotSpeed = diffRtr(v.AlexaRouter, v.SpeedRouter)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render prints Figure 4's bars.
func (r *Fig4Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		uncov := 0.0
		if row.AlexaTotal > 0 {
			uncov = float64(row.AlexaNotMLab) / float64(row.AlexaTotal)
		}
		rows = append(rows, []string{
			row.Label, row.ISP,
			fmt.Sprintf("%d", row.MLabNotAlexa), fmt.Sprintf("%d", row.AlexaNotMLab),
			fmt.Sprintf("%d", row.SpeedNotAlexa), fmt.Sprintf("%d", row.AlexaNotSpeed),
			pct(uncov),
		})
	}
	var sb strings.Builder
	sb.WriteString("Figure 4 — interconnections on platform paths vs popular-content paths (AS level)\n")
	sb.WriteString(table([]string{"VP", "ISP", "Mlab−Alexa", "Alexa−Mlab",
		"Speed−Alexa", "Alexa−Speed", "Alexa uncovered by M-Lab"}, rows))
	return sb.String()
}
