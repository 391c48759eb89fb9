// Command ndtsim generates a synthetic Internet, runs a crowdsourced
// NDT collection campaign against its M-Lab deployment, and writes the
// resulting dataset (public topology data + tests + Paris traceroutes)
// as a columnar corpus (tputlab-corpus/2) — the raw material for
// cmd/mapit and cmd/bdrmap.
//
// Usage:
//
//	ndtsim [-scale small|default] [-seed N] [-tests N] [-battle] [-o file]
//	ndtsim -campaign bed-us [-o file]   # Ark VP prefix campaign instead
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"throughputlab/internal/export"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/traceroute"
)

func main() {
	scale := flag.String("scale", "small", "small or default")
	seed := flag.Int64("seed", 1, "generation seed")
	tests := flag.Int("tests", 5000, "NDT corpus size")
	battle := flag.Bool("battle", false, "Battle-for-the-Net multi-server client")
	campaign := flag.String("campaign", "", "emit an Ark VP prefix campaign (VP label, e.g. bed-us) instead of an NDT corpus")
	out := flag.String("o", "-", "output file (- = stdout)")
	flag.Parse()

	if err := run(*scale, *seed, *tests, *battle, *campaign, *out); err != nil {
		fmt.Fprintln(os.Stderr, "ndtsim:", err)
		os.Exit(1)
	}
}

func run(scale string, seed int64, tests int, battle bool, campaign, out string) (err error) {
	cfg := topogen.DefaultConfig()
	if scale == "small" {
		cfg = topogen.SmallConfig()
	}
	cfg.Seed = seed
	w, err := topogen.Generate(cfg)
	if err != nil {
		return err
	}
	var vp *topogen.ArkVP
	if campaign != "" {
		for i := range w.ArkVPs {
			if w.ArkVPs[i].Label == campaign {
				vp = &w.ArkVPs[i]
			}
		}
		if vp == nil {
			return fmt.Errorf("unknown VP %q (see DESIGN.md for the 16 labels)", campaign)
		}
	}
	meta := export.StreamMeta{Scale: scale, Seed: seed}
	if vp == nil {
		meta.Tests = tests
	}

	f := os.Stdout
	if out != "-" {
		if f, err = os.Create(out); err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	cw, err := export.NewColumnarWriter(f, export.FromWorld(w, nil).Public, meta, 1)
	if err != nil {
		return err
	}
	if vp != nil {
		// A prefix campaign has no schedule: its traces travel as one
		// chunk.
		traces := platform.Campaign(w, vp.Host.Endpoint,
			platform.RoutedPrefixTargets(w), traceroute.DefaultArtifacts(), seed+100)
		if err = cw.WriteChunk(&platform.Chunk{Traces: traces}); err == nil {
			fmt.Fprintf(os.Stderr, "campaign from %s (%s): %d traces\n", vp.Label, vp.ISP, len(traces))
		}
	} else {
		ccfg := platform.DefaultCollect()
		ccfg.Tests = tests
		ccfg.Seed = seed + 6
		ccfg.BattleForNet = battle
		var st *platform.StreamStats
		if st, err = platform.CollectStreamCtx(context.Background(), w, ccfg, 1, cw.WriteChunk); err == nil {
			fmt.Fprintf(os.Stderr, "corpus: %d tests, %d traces (%d lost to busy collector)\n",
				st.Tests, st.Traces, st.TestsWithoutTrace)
		}
	}
	if err != nil {
		cw.Abandon()
		return err
	}
	return cw.Close()
}
