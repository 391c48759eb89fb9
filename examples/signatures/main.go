// Signatures: the paper's §6.2 open question — "is there a more direct
// way to identify whether a flow was congested by an already busy link
// or whether the flow itself drove congestion?" — answered with the TCP
// congestion signatures technique of its companion paper [37], on a
// simulated corpus where the ground truth is knowable.
package main

import (
	"context"
	"fmt"
	"log"

	"throughputlab/internal/core"
	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/signatures"
	"throughputlab/internal/topogen"
)

func main() {
	world := topogen.MustGenerate(topogen.SmallConfig())
	cfg := platform.DefaultCollect()
	cfg.Tests = 6000
	corpus, err := platform.CollectParallelCtx(context.Background(), world, cfg, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Two individual tests, one from each regime.
	var ext, self *ndt.Test
	for _, t := range corpus.Tests {
		if ext == nil && t.TruthSaturated {
			ext = t
		}
		if self == nil && !t.TruthSaturated && t.TruthKind.String() == "access-plan" && t.DownMbps > 10 {
			self = t
		}
		if ext != nil && self != nil {
			break
		}
	}
	if ext == nil || self == nil {
		log.Fatal("corpus lacks one of the regimes")
	}

	show := func(label string, t *ndt.Test) {
		f := signatures.Extract(t)
		fmt.Printf("%s:\n", label)
		fmt.Printf("  %s → %s server, %.1f Mbps\n", t.ClientISP, t.ServerNet, t.DownMbps)
		fmt.Printf("  minRTT %.1f ms, meanRTT %.1f ms → self-inflation %.0f%%; loss %.3f%%\n",
			f.MinRTTms, f.MeanRTTms, 100*f.SelfInflation(), 100*f.LossRate)
		fmt.Printf("  verdict: %v (truth: %v)\n\n",
			signatures.Classify(f, signatures.DefaultConfig()), signatures.Truth(t))
	}
	fmt.Println("Two speed tests with similar-looking 'slow' outcomes can have opposite causes:")
	fmt.Println()
	show("flow crossing an ALREADY-CONGESTED interconnection", ext)
	show("flow that FILLED ITS OWN access bottleneck", self)

	// Corpus-wide evaluation.
	var peak []*ndt.Test
	for _, t := range corpus.Tests {
		if core.SignaturePeak.In(t.LocalHour()) {
			peak = append(peak, t)
		}
	}
	c := signatures.Evaluate(peak, signatures.DefaultConfig())
	fmt.Printf("evaluated %d peak-hour tests: accuracy %.1f%% on the %.0f%% that got a verdict\n",
		c.Total, 100*c.Accuracy(), 100*c.DeterminateFrac())
	fmt.Println()
	fmt.Println("The classifier uses only minRTT, meanRTT and the retransmission rate —")
	fmt.Println("fields NDT already logs. §7 proposes deploying exactly this on M-Lab, so")
	fmt.Println("speed tests could report not just 'how fast' but 'who owned the queue'.")
}
