package experiments

import (
	"fmt"
	"sort"
	"strings"

	"throughputlab/internal/core"
	"throughputlab/internal/ndt"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/stats"
	"throughputlab/internal/tomo"
	"throughputlab/internal/topology"
)

// TomographyResult contrasts full binary tomography over inferred
// IP-level links with the simplified AS-level method (E13, §3).
type TomographyResult struct {
	// Full tomography: inferred bad links with ground-truth assessment.
	BadLinks []struct {
		Near, Far netaddr.Addr
		NearAS    topology.ASN
		FarAS     topology.ASN
		// TrulyCongested: the ground-truth link saturates at peak.
		TrulyCongested bool
	}
	Consistent bool
	Uncovered  int

	// Simplified AS-level verdicts.
	ASVerdicts []tomo.PairVerdict
	// Mislocalized counts AS-level flags whose pair is NOT directly
	// connected for most tests (Assumption 2 violated) — any verdict
	// there cannot name the congested link.
	Mislocalized int

	BadTests, GoodTests int
}

// Tomography labels each matched peak-hour test good/bad relative to
// its client ISP's off-peak median, then localizes.
func Tomography(e *Env) *TomographyResult {
	res := &TomographyResult{}

	// Off-peak medians per ISP as the health baseline.
	offMedian := map[string]float64{}
	{
		byISP := map[string][]float64{}
		for _, t := range e.Corpus.Tests {
			if core.ProbeWindows.Off.In(t.LocalHour()) {
				byISP[t.ClientISP] = append(byISP[t.ClientISP], t.DownMbps)
			}
		}
		for isp, xs := range byISP {
			offMedian[isp] = stats.Median(xs)
		}
	}

	bad := func(t *ndt.Test) bool {
		m := offMedian[t.ClientISP]
		return m > 0 && t.DownMbps < 0.3*m
	}

	// Full tomography over inferred IP-level interdomain links, using
	// matched traceroutes for path data. Links are identified by their
	// FAR interface address (the neighbor's ingress uniquely names the
	// physical link; near-side addresses wobble under third-party
	// replies). Links seen in fewer than minSupport traces are treated
	// as measurement noise and dropped from paths, as real tomography
	// pipelines do. The client's access line is unobservable; it is
	// represented by a per-client pseudo-link so home/access problems
	// have somewhere to go (Assumption 1 relief).
	const minSupport = 3
	type peakTest struct {
		t    *ndt.Test
		fars []netaddr.Addr
		bad  bool
	}
	var peakTests []peakTest
	support := map[netaddr.Addr]int{}
	nearOf := map[netaddr.Addr]netaddr.Addr{}
	for _, t := range e.Corpus.Tests {
		if !core.ProbeWindows.Peak.In(t.LocalHour()) {
			continue
		}
		tr := e.Matching.ByTest[t.ID]
		if tr == nil {
			continue
		}
		pt := peakTest{t: t, bad: bad(t)}
		for _, l := range e.Inference.LinksOf(tr) {
			pt.fars = append(pt.fars, l.Far)
			support[l.Far]++
			nearOf[l.Far] = l.Near
		}
		peakTests = append(peakTests, pt)
	}

	var obs []tomo.Observation[string]
	var asObs []tomo.ASObservation
	directish := map[[2]string]*[2]int{} // pair → [multiHopTests, tests]
	for _, pt := range peakTests {
		var path []string
		for _, far := range pt.fars {
			if support[far] >= minSupport {
				path = append(path, far.String())
			}
		}
		path = append(path, "access:"+pt.t.ClientAddr.String())
		obs = append(obs, tomo.Observation[string]{Links: path, Bad: pt.bad})
		if pt.bad {
			res.BadTests++
		} else {
			res.GoodTests++
		}

		serverOrg := pt.t.ServerNet
		clientOrg := e.OrgName(pt.t.ClientASN)
		asObs = append(asObs, tomo.ASObservation{ServerOrg: serverOrg, ClientOrg: clientOrg, Bad: pt.bad})
		k := [2]string{serverOrg, clientOrg}
		c := directish[k]
		if c == nil {
			c = &[2]int{}
			directish[k] = c
		}
		c[1]++
		if tr := e.Matching.ByTest[pt.t.ID]; tr != nil && len(e.Inference.ASPathOf(tr)) > 2 {
			c[0]++
		}
	}

	// Collapse repeated observations of the same path (same links, same
	// client) into one majority verdict, so a single lucky test cannot
	// exonerate a congested link nor a single Wi-Fi-throttled test frame
	// a healthy one.
	obs = tomo.AggregatePaths(obs, 0.5, 1, func(ls []string) string {
		return strings.Join(ls, "|")
	})
	full := tomo.SmallestFailureSet(obs)
	res.Consistent = full.Consistent
	res.Uncovered = full.Uncovered
	for _, l := range full.Bad {
		if strings.HasPrefix(l, "access:") {
			continue
		}
		far := netaddr.MustParseAddr(l)
		entry := struct {
			Near, Far      netaddr.Addr
			NearAS         topology.ASN
			FarAS          topology.ASN
			TrulyCongested bool
		}{Near: nearOf[far], Far: far}
		entry.NearAS = e.Inference.Operator[entry.Near]
		entry.FarAS = e.Inference.Operator[far]
		if ifc := e.World.Topo.IfaceByAddr[far]; ifc != nil && ifc.Link != nil {
			entry.TrulyCongested = ifc.Link.PeakUtil >= 1
		} else if ifc := e.World.Topo.IfaceByAddr[entry.Near]; ifc != nil && ifc.Link != nil {
			entry.TrulyCongested = ifc.Link.PeakUtil >= 1
		}
		res.BadLinks = append(res.BadLinks, entry)
	}
	sort.Slice(res.BadLinks, func(i, j int) bool { return res.BadLinks[i].Far < res.BadLinks[j].Far })

	res.ASVerdicts = tomo.SimplifiedASLevel(asObs, 0.5, 30)
	for _, v := range res.ASVerdicts {
		if !v.Congested {
			continue
		}
		if c := directish[[2]string{v.ServerOrg, v.ClientOrg}]; c != nil && c[1] > 0 &&
			float64(c[0])/float64(c[1]) > 0.5 {
			res.Mislocalized++
		}
	}
	return res
}

// Render prints the comparison.
func (r *TomographyResult) Render() string {
	var sb strings.Builder
	sb.WriteString("§3 — binary tomography vs simplified AS-level tomography (peak-hour tests)\n")
	sb.WriteString(fmt.Sprintf("peak tests: %d bad / %d good; consistent=%v, unexplainable=%d\n",
		r.BadTests, r.GoodTests, r.Consistent, r.Uncovered))
	sb.WriteString("\nfull tomography — inferred bad IP links:\n")
	var rows [][]string
	for _, b := range r.BadLinks {
		rows = append(rows, []string{
			b.Near.String(), b.Far.String(),
			fmt.Sprintf("AS%d→AS%d", b.NearAS, b.FarAS),
			fmt.Sprintf("%v", b.TrulyCongested),
		})
	}
	sb.WriteString(table([]string{"near", "far", "ASes", "truly congested"}, rows))
	sb.WriteString("\nsimplified AS-level verdicts (congested pairs):\n")
	rows = nil
	for _, v := range r.ASVerdicts {
		if !v.Congested {
			continue
		}
		rows = append(rows, []string{v.ServerOrg, v.ClientOrg,
			fmt.Sprintf("%d/%d", v.BadTests, v.Tests)})
	}
	sb.WriteString(table([]string{"server org", "client org", "bad/total"}, rows))
	sb.WriteString(fmt.Sprintf("\nAS-level flags on mostly multi-hop pairs (mislocalized): %d\n", r.Mislocalized))
	return sb.String()
}
