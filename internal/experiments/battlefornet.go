package experiments

import (
	"context"
	"fmt"
	"strings"

	"throughputlab/internal/core"
	"throughputlab/internal/mapit"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/platform"
)

// BattleRow summarizes one collection mode.
type BattleRow struct {
	Mode string
	// Tests actually collected (BfN multiplies per-client volume).
	Tests int
	// ServerPairs is the number of distinct (server site, client ISP)
	// combinations observed — the "more paths" the wrapper was after.
	ServerPairs int
	// IPLinks is the number of distinct IP-level interdomain links the
	// matched traceroutes crossed.
	IPLinks int
	// MatchedFrac: the extra volume loads the single-threaded
	// collector, so association suffers.
	MatchedFrac float64
}

// BattleResult reproduces the §2.2 comparison: the Battle-for-the-Net
// wrapper ran back-to-back tests against up to five regional servers
// instead of one, trading per-test traceroute coverage for path
// diversity. (The May 2015 volume spike it caused is what prompted the
// updated M-Lab report the paper dissects.)
type BattleResult struct {
	Rows []BattleRow
}

// BattleForNet collects a fresh corpus in each mode over the shared
// world and compares observability.
func BattleForNet(e *Env) (*BattleResult, error) {
	cfg := e.Opts.Collect
	cfg.Tests = min(cfg.Tests/4, 8000) // fresh, smaller campaigns
	cfg.Seed += 5000

	res := &BattleResult{}
	for _, battle := range []bool{false, true} {
		c := cfg
		c.BattleForNet = battle
		corpus, err := platform.CollectParallelCtx(context.TODO(), e.World, c, 1)
		if err != nil {
			return nil, err
		}
		inf := mapit.Run(corpus.Traces, e.MapItOpts())
		matching := core.MatchTraces(corpus.Tests, corpus.Traces, core.PrimaryWindowMin, core.PrimaryMode)

		pairs := map[string]bool{}
		for _, t := range corpus.Tests {
			pairs[t.ServerSite+"|"+t.ClientISP] = true
		}
		links := map[netaddr.Addr]bool{}
		for _, t := range corpus.Tests {
			tr := matching.ByTest[t.ID]
			if tr == nil {
				continue
			}
			for _, l := range inf.LinksOf(tr) {
				links[l.Far] = true
			}
		}
		mode := "single-server (NDT default)"
		if battle {
			mode = "battle-for-the-net (≤5 servers)"
		}
		res.Rows = append(res.Rows, BattleRow{
			Mode: mode, Tests: len(corpus.Tests),
			ServerPairs: len(pairs), IPLinks: len(links),
			MatchedFrac: matching.Rate(),
		})
	}
	return res, nil
}

// Render prints the comparison.
func (r *BattleResult) Render() string {
	var sb strings.Builder
	sb.WriteString("§2.2 — Battle-for-the-Net multi-server client vs the NDT default\n")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Mode, fmt.Sprintf("%d", row.Tests), fmt.Sprintf("%d", row.ServerPairs),
			fmt.Sprintf("%d", row.IPLinks), pct(row.MatchedFrac),
		})
	}
	sb.WriteString(table([]string{"mode", "tests", "(site,ISP) pairs", "IP links seen", "traced"}, rows))
	sb.WriteString("\nThe wrapper observes more paths and interconnections from the same client\n")
	sb.WriteString("population — at the cost of flooding the single-threaded traceroute\n")
	sb.WriteString("collector (§4.1), which is exactly the trade the paper documents.\n")
	return sb.String()
}
