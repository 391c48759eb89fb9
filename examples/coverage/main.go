// Coverage: the §5 question for a single vantage point — what fraction
// of my ISP's interconnections can I actually test with M-Lab or
// Speedtest servers, and do the tested ones overlap with the paths my
// traffic to popular content really takes?
package main

import (
	"fmt"

	"throughputlab/internal/experiments"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
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

	// The §5 methodology from this one VP: bdrmap over a campaign to
	// every routed prefix, and the interconnections crossed toward
	// M-Lab servers, Speedtest servers and popular content.
	va := experiments.AnalyzeVP(&experiments.Env{World: world}, vp, platform.RoutedPrefixTargets(world),
		platform.HostTargets(world.MLabServers()), platform.HostTargets(world.Speedtest), 1)
	borders := va.Borders

	fmt.Printf("\nbdrmap finds %d AS-level interconnections (%d router-level)\n",
		borders.ASCount, borders.RouterCount)
	fmt.Printf("  testable via M-Lab servers:     %3d  (%.1f%%)\n",
		len(va.MLabAS), 100*float64(len(va.MLabAS))/float64(borders.ASCount))
	fmt.Printf("  testable via Speedtest servers: %3d  (%.1f%%)\n",
		len(va.SpeedAS), 100*float64(len(va.SpeedAS))/float64(borders.ASCount))
	fmt.Printf("  on paths to popular content:    %3d\n", len(va.AlexaAS))

	// Figure 4 in miniature.
	notCovered := 0
	for a := range va.AlexaAS {
		if !va.MLabAS[a] {
			notCovered++
		}
	}
	fmt.Printf("\ncontent-path interconnections NOT testable via M-Lab: %d/%d (%.0f%%)\n",
		notCovered, len(va.AlexaAS), 100*float64(notCovered)/float64(len(va.AlexaAS)))
	fmt.Println("\n→ §7's recommendation: place servers topology-aware, not just latency-aware,")
	fmt.Println("  or congestion claims only speak for a thin slice of the interconnection fabric.")
}
