// Bordermapping: run the bdrmap analysis from the paper's "bed-us"
// Ark vantage point (a Comcast household in Boston), and score the
// inferred border map against the generator's ground truth — the
// validation the real tool could only do against operator ground truth.
package main

import (
	"context"
	"fmt"
	"log"

	"throughputlab/internal/alias"
	"throughputlab/internal/bdrmap"
	"throughputlab/internal/export"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

func main() {
	world := topogen.MustGenerate(topogen.SmallConfig())

	var vp topogen.ArkVP
	for _, v := range world.ArkVPs {
		if v.Label == "bed-us" {
			vp = v
		}
	}
	fmt.Printf("VP %s: %s client %v\n", vp.Label, vp.ISP, vp.Host.Endpoint.Addr)

	// Collection phase: traceroute to every routed prefix.
	targets := platform.RoutedPrefixTargets(world)
	traces, _ := platform.Campaign(context.Background(), world, vp.Host.Endpoint, targets, traceroute.DefaultArtifacts(), 7)
	fmt.Printf("campaign: %d traces to %d routed prefixes\n", len(traces), len(targets))

	// Analysis phase, over the world's published data: the VP's org is
	// the AS→org row of its address's origin, and MAP-IT and the
	// relationships read the public bundle.
	lk := export.FromWorld(world, nil).Lookups()
	vpASN, _ := lk.OriginOf(vp.Host.Endpoint.Addr)
	orgASNs := lk.Siblings(vpASN)
	res := bdrmap.NewAnalyzer(traces, bdrmap.Opts{
		OrgASNs:   orgASNs,
		MapIt:     lk.MapItOpts(),
		Rel:       lk.Rel,
		Alias:     alias.New(world.Topo),
		AliasSeed: 9,
	}).Borders(traces)

	fmt.Printf("\nborder map: %d AS-level, %d router-level interconnections\n",
		res.ASCount, res.RouterCount)
	for _, rel := range []topology.Rel{topology.RelCustomer, topology.RelProvider, topology.RelPeer} {
		e := res.ByRel[rel]
		fmt.Printf("  %-9s AS=%-4d router=%d\n", rel, e.AS, e.Router)
	}

	// Validation against ground truth (the authors report >90%).
	truth := map[topology.ASN]bool{}
	for _, o := range orgASNs {
		for _, n := range world.Topo.Neighbors(o) {
			if world.Topo.RelOf(o, n) != topology.RelSibling {
				truth[n] = true
			}
		}
	}
	correct := 0
	for _, b := range res.Borders {
		if truth[b.Neighbor] {
			correct++
		}
	}
	if res.ASCount == 0 {
		log.Fatal("no borders inferred")
	}
	fmt.Printf("\nvalidation: %d/%d inferred neighbors are true neighbors (%.1f%% precision)\n",
		correct, res.ASCount, 100*float64(correct)/float64(res.ASCount))
	fmt.Printf("ground truth has %d non-sibling neighbors; campaign observed %.1f%% of them\n",
		len(truth), 100*float64(correct)/float64(len(truth)))
	fmt.Println("\n(unobserved neighbors are mostly backup links BGP never prefers — a real VP")
	fmt.Println(" has the same blind spot, which is §5's coverage argument in miniature)")
}
