// Quickstart: generate a synthetic Internet, run a handful of NDT
// tests from one household, and ask the congestion detector what it
// sees — the core loop of the whole library in ~80 lines.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"throughputlab/internal/core"
	"throughputlab/internal/ndt"
	"throughputlab/internal/topogen"
)

func main() {
	// 1. A synthetic Internet: access ISPs, transit providers, content
	// networks, M-Lab sites — with the GTT–AT&T interconnection
	// saturated at peak hours (the paper's Figure 5a case).
	world := topogen.MustGenerate(topogen.SmallConfig())
	fmt.Printf("world: %d ASes, %d links, %d M-Lab servers\n",
		world.Topo.NumASes(), len(world.Topo.Links()), len(world.MLabServers()))

	// 2. One AT&T household in Atlanta on an 18 Mbps plan.
	client, ok := world.NewClient("AT&T", "atl")
	if !ok {
		log.Fatal("no AT&T pool in atl")
	}
	// M-Lab would pick the nearest site; several tie in Atlanta, and
	// WHICH one the client lands on decides what it can observe (§5).
	// Take the GTT-hosted one, whose interconnection to AT&T is the
	// congested link.
	var server topogen.Host
	for _, site := range world.NearestMLabSite("atl", 1) {
		if site.HostNet == "GTT" {
			server = site.Servers[0]
		}
	}
	if server.Name == "" {
		log.Fatal("no GTT site in atl")
	}
	fmt.Printf("client %v (AT&T, atl) → server %s in %s\n\n",
		client.Addr, server.Name, server.Network)

	// 3. Run NDT tests across the day and collect the series.
	runner := ndt.NewRunner(world)
	rng := rand.New(rand.NewSource(42))
	series := &core.Series{}
	fmt.Println("hour  down Mbps  RTT ms  retrans")
	for hour := 0; hour < 24; hour += 3 {
		minute := ((hour + 5) % 24) * 60 // convert atl local → UTC
		for rep := 0; rep < 12; rep++ {
			test, err := runner.Run(hour*100+rep, client, "AT&T", 18, 0,
				server, minute+rep, uint32(rep), rng)
			if err != nil {
				log.Fatal(err)
			}
			series.Add(float64(hour), test)
			if rep == 0 {
				fmt.Printf("%4d  %9.2f  %6.1f  %.4f\n",
					hour, test.DownMbps, test.RTTms, test.RetransRate)
			}
		}
	}

	// 4. Peak vs off-peak verdict.
	cfg := core.DefaultDetector()
	cfg.MinSamples = 10
	v := core.Detect(series, cfg)
	fmt.Printf("\npeak median %.2f Mbps, off-peak %.2f Mbps, drop %.0f%%\n",
		v.PeakMedian, v.OffMedian, 100*v.Drop)
	if v.Congested {
		fmt.Println("verdict: path shows peak-hour congestion " +
			"(but WHERE it is congested needs path data — see examples/tomography)")
	} else {
		fmt.Println("verdict: no peak-hour congestion evidence")
	}
}
