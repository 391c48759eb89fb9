package experiments

import (
	"fmt"
	"sort"
	"strings"

	"throughputlab/internal/core"
	"throughputlab/internal/ndt"
	"throughputlab/internal/netaddr"
)

// StratifiedRow is one IP-level link's verdict within an AS-level
// aggregate.
type StratifiedRow struct {
	Far     netaddr.Addr
	Metro   string // ground-truth link metro, for the regional reading
	Tests   int
	Verdict core.Verdict
}

// StratifiedGroup is one AS-level aggregate split per IP link.
type StratifiedGroup struct {
	ServerNet, ServerMetro, ClientISP string
	Aggregate                         core.Verdict
	AggregateTests                    int
	Links                             []StratifiedRow
	// Heterogeneous is true when the per-link verdicts disagree —
	// exactly the case where the AS-level aggregate is misleading
	// (§4.3: links "could vary widely in terms of diurnal throughput
	// patterns").
	Heterogeneous bool
}

// StratifiedResult implements the §4.3 Summary's remedy: "separate the
// NDT tests according to the IP link traversed, and evaluate whether
// different IP links comprising an AS-level aggregate do indeed show
// similar behavior" (E19).
type StratifiedResult struct {
	Groups []StratifiedGroup
}

// Stratified re-runs the detector per IP-level interconnection for the
// largest aggregates.
func Stratified(e *Env) *StratifiedResult {
	type gkey struct{ net, metro, isp string }
	groups := map[gkey][]*ndt.Test{}
	for _, t := range e.Corpus.Tests {
		k := gkey{t.ServerNet, t.ServerMetro, t.ClientISP}
		groups[k] = append(groups[k], t)
	}
	keys := make([]gkey, 0, len(groups))
	for k := range groups {
		if len(groups[k]) >= 400 {
			keys = append(keys, k)
		}
	}
	// Largest first; equal sizes order by key, never by map iteration.
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if na, nb := len(groups[a]), len(groups[b]); na != nb {
			return na > nb
		}
		if a.net != b.net {
			return a.net < b.net
		}
		if a.metro != b.metro {
			return a.metro < b.metro
		}
		return a.isp < b.isp
	})
	if len(keys) > 8 {
		keys = keys[:8]
	}

	cfg := core.DefaultDetector()
	cfg.MinSamples = 12
	res := &StratifiedResult{}
	for _, k := range keys {
		tests := groups[k]
		g := StratifiedGroup{
			ServerNet: k.net, ServerMetro: k.metro, ClientISP: k.isp,
			AggregateTests: len(tests),
			Aggregate:      core.Detect(core.BuildSeries(tests, e.HourOf), cfg),
		}

		// Split per first-crossing IP link (far interface address).
		perLink := map[netaddr.Addr][]*ndt.Test{}
		for _, t := range tests {
			tr := e.Matching.ByTest[t.ID]
			if tr == nil {
				continue
			}
			links := e.Inference.LinksOf(tr)
			if len(links) == 0 {
				continue
			}
			perLink[links[0].Far] = append(perLink[links[0].Far], t)
		}
		fars := make([]netaddr.Addr, 0, len(perLink))
		for far := range perLink {
			if len(perLink[far]) >= 60 {
				fars = append(fars, far)
			}
		}
		sort.Slice(fars, func(i, j int) bool {
			if ni, nj := len(perLink[fars[i]]), len(perLink[fars[j]]); ni != nj {
				return ni > nj
			}
			return fars[i] < fars[j]
		})

		congested, healthy := 0, 0
		for _, far := range fars {
			lt := perLink[far]
			v := core.Detect(core.BuildSeries(lt, e.HourOf), cfg)
			metro := ""
			if ifc := e.World.Topo.IfaceByAddr[far]; ifc != nil && ifc.Link != nil {
				metro = ifc.Link.Metro
			}
			g.Links = append(g.Links, StratifiedRow{
				Far: far, Metro: metro, Tests: len(lt), Verdict: v,
			})
			if v.InsufficientData {
				continue
			}
			if v.Congested {
				congested++
			} else {
				healthy++
			}
		}
		g.Heterogeneous = congested > 0 && healthy > 0
		res.Groups = append(res.Groups, g)
	}
	return res
}

// HeterogeneousCount returns how many aggregates mix congested and
// healthy links.
func (r *StratifiedResult) HeterogeneousCount() int {
	n := 0
	for _, g := range r.Groups {
		if g.Heterogeneous {
			n++
		}
	}
	return n
}

// Render prints per-link verdicts under each aggregate.
func (r *StratifiedResult) Render() string {
	var sb strings.Builder
	sb.WriteString("§4.3 remedy — per-IP-link stratification of AS-level aggregates\n")
	for _, g := range r.Groups {
		state := "uniform"
		if g.Heterogeneous {
			state = "HETEROGENEOUS (aggregation misleads)"
		}
		sb.WriteString(fmt.Sprintf("\n%s/%s → %s: aggregate drop %s over %d tests — %s\n",
			g.ServerNet, g.ServerMetro, g.ClientISP, pct(g.Aggregate.Drop), g.AggregateTests, state))
		var rows [][]string
		for _, l := range g.Links {
			verdict := "insufficient"
			if !l.Verdict.InsufficientData {
				verdict = fmt.Sprintf("drop %s congested=%v", pct(l.Verdict.Drop), l.Verdict.Congested)
			}
			rows = append(rows, []string{l.Far.String(), l.Metro, fmt.Sprintf("%d", l.Tests), verdict})
		}
		sb.WriteString(table([]string{"link (far iface)", "metro", "tests", "verdict"}, rows))
	}
	sb.WriteString(fmt.Sprintf("\n%d of %d aggregates mix congested and healthy IP links.\n",
		r.HeterogeneousCount(), len(r.Groups)))
	return sb.String()
}
