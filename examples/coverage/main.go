// Coverage: the §5 question for a single vantage point — what fraction
// of my ISP's interconnections can I actually test with M-Lab or
// Speedtest servers, and do the tested ones overlap with the paths my
// traffic to popular content really takes?
package main

import (
	"context"
	"fmt"

	"throughputlab/internal/alias"
	"throughputlab/internal/bdrmap"
	"throughputlab/internal/mapit"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

func main() {
	world := topogen.MustGenerate(topogen.SmallConfig())
	var vp topogen.ArkVP
	for _, v := range world.ArkVPs {
		if v.Label == "mnz-us" { // the Verizon VP
			vp = v
		}
	}
	fmt.Printf("VP %s (%s, %s)\n", vp.Label, vp.ISP, vp.Host.Endpoint.Metro)

	art := traceroute.DefaultArtifacts()
	art.DstNoReplyProb = 0.05
	campaign, _ := platform.Campaign(context.Background(), world, vp.Host.Endpoint, platform.RoutedPrefixTargets(world), art, 1)
	mlab, _ := platform.Campaign(context.Background(), world, vp.Host.Endpoint, platform.HostTargets(world.MLabServers()), art, 2)
	speed, _ := platform.Campaign(context.Background(), world, vp.Host.Endpoint, platform.HostTargets(world.Speedtest), art, 3)
	alexa, _ := platform.Campaign(context.Background(), world, vp.Host.Endpoint,
		platform.AlexaTargets(world, vp.Host.Endpoint.Metro), art, 4)

	orgASNs := world.Access[vp.ISP].Org.ASNs
	opts := bdrmap.Opts{
		OrgASNs: orgASNs,
		MapIt: mapit.Opts{
			Prefix2AS: world.Topo.OriginOf,
			IsIXP: func(a netaddr.Addr) bool {
				for _, p := range world.Topo.IXPPrefixes {
					if p.Contains(a) {
						return true
					}
				}
				return false
			},
			SameOrg: func(x, y topology.ASN) bool { return x == y || world.Topo.SameOrg(x, y) },
		},
		Rel: func(n topology.ASN) topology.Rel {
			for _, o := range orgASNs {
				if r := world.Topo.RelOf(o, n); r != topology.RelNone {
					return r
				}
			}
			return topology.RelNone
		},
		Alias:     alias.New(world.Topo),
		AliasSeed: 5,
	}
	all := append(append(append(append([]*traceroute.Trace{}, campaign...), mlab...), speed...), alexa...)
	az := bdrmap.NewAnalyzer(all, opts)

	borders := az.Borders(campaign)
	mlabAS, _ := az.CoverageSets(mlab)
	speedAS, _ := az.CoverageSets(speed)
	alexaAS, _ := az.CoverageSets(alexa)

	fmt.Printf("\nbdrmap finds %d AS-level interconnections (%d router-level)\n",
		borders.ASCount, borders.RouterCount)
	fmt.Printf("  testable via M-Lab servers:     %3d  (%.1f%%)\n",
		len(mlabAS), 100*float64(len(mlabAS))/float64(borders.ASCount))
	fmt.Printf("  testable via Speedtest servers: %3d  (%.1f%%)\n",
		len(speedAS), 100*float64(len(speedAS))/float64(borders.ASCount))
	fmt.Printf("  on paths to popular content:    %3d\n", len(alexaAS))

	// Figure 4 in miniature.
	notCovered := 0
	for a := range alexaAS {
		if !mlabAS[a] {
			notCovered++
		}
	}
	fmt.Printf("\ncontent-path interconnections NOT testable via M-Lab: %d/%d (%.0f%%)\n",
		notCovered, len(alexaAS), 100*float64(notCovered)/float64(len(alexaAS)))
	fmt.Println("\n→ §7's recommendation: place servers topology-aware, not just latency-aware,")
	fmt.Println("  or congestion claims only speak for a thin slice of the interconnection fabric.")
}
