package experiments

import (
	"fmt"
	"sort"
	"strings"

	"throughputlab/internal/core"
	"throughputlab/internal/datasets"
	"throughputlab/internal/dnsnames"
	"throughputlab/internal/mapit"
	"throughputlab/internal/ndt"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// Table2Row summarizes the interdomain links one client ASN's tests
// crossed from the chosen server.
type Table2Row struct {
	ISP       string
	ClientASN topology.ASN
	// TestsPerLink is the per-IP-link test count, descending (the
	// paper's third column).
	TestsPerLink []int
	// RouterGroups is the number of distinct router-level
	// interconnects the links collapse into using reverse-DNS hints
	// (the Cox parallel-link analysis of §4.3).
	RouterGroups int
}

// Table2Result reproduces Table 2: IP-level interdomain link diversity
// seen from one server toward the major access ISPs.
type Table2Result struct {
	ServerNet, ServerMetro string
	Rows                   []Table2Row
}

// Table2 analyzes the matched tests from one server network+metro
// (default: the Level3 Atlanta site, the paper's atl01).
func Table2(e *Env) *Table2Result {
	return table2For(e, "Level3", "atl")
}

// table2For runs the analysis for any server network and metro.
func table2For(e *Env, serverNet, serverMetro string) *Table2Result {
	// The paper's Table 2 counts links "between Level 3 and that ISP":
	// only crossings whose near side is the server organization.
	serverOrg := map[topology.ASN]bool{}
	for _, tr := range datasets.Transits() {
		if tr.Name == serverNet {
			serverOrg[tr.ASN] = true
			if tr.SiblingASN != 0 {
				serverOrg[tr.SiblingASN] = true
			}
		}
	}
	div := core.LinkDiversity(e.Corpus.Tests, e.Matching, e.Inference,
		func(t *ndt.Test, tr *traceroute.Trace) (string, bool) {
			if t.ServerNet != serverNet || t.ServerMetro != serverMetro {
				return "", false
			}
			return fmt.Sprintf("%s|%d", t.ClientISP, t.ClientASN), true
		},
		func(l mapit.Link) bool { return serverOrg[l.NearAS] })

	res := &Table2Result{ServerNet: serverNet, ServerMetro: serverMetro}
	for key, uses := range div {
		parts := strings.SplitN(key, "|", 2)
		var asn topology.ASN
		fmt.Sscanf(parts[1], "%d", &asn)
		row := Table2Row{ISP: parts[0], ClientASN: asn}
		// Group parallel links by the router FQDN of the near-side
		// interface's DNS name (falling back to the raw address).
		groups := map[string]bool{}
		for _, u := range uses {
			row.TestsPerLink = append(row.TestsPerLink, u.Tests)
			name := ""
			if ifc := e.World.Topo.IfaceByAddr[u.Link.Near]; ifc != nil {
				name = dnsnames.RouterFQDN(ifc.DNSName)
			}
			if name == "" {
				name = u.Link.Near.String()
			}
			groups[name] = true
		}
		row.RouterGroups = len(groups)
		res.Rows = append(res.Rows, row)
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].ISP != res.Rows[j].ISP {
			return res.Rows[i].ISP < res.Rows[j].ISP
		}
		return res.Rows[i].ClientASN < res.Rows[j].ClientASN
	})
	return res
}

// Render prints the table.
func (r *Table2Result) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		counts := make([]string, 0, len(row.TestsPerLink))
		for i, n := range row.TestsPerLink {
			if i == 8 {
				counts = append(counts, "…")
				break
			}
			counts = append(counts, fmt.Sprintf("%d", n))
		}
		rows = append(rows, []string{
			fmt.Sprintf("%s (AS%d)", row.ISP, row.ClientASN),
			fmt.Sprintf("%d", len(row.TestsPerLink)),
			fmt.Sprintf("%d", row.RouterGroups),
			strings.Join(counts, ","),
		})
	}
	return fmt.Sprintf("Table 2 — interdomain links seen by the %s %s server, with NDT tests per link\n",
		r.ServerNet, r.ServerMetro) +
		table([]string{"Client ISP (ASN)", "#links", "#router groups (DNS)", "tests/link"}, rows)
}
