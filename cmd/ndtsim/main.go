// Command ndtsim generates a synthetic Internet, runs a crowdsourced
// NDT collection campaign against its M-Lab deployment, and writes the
// resulting dataset (public topology data + tests + Paris traceroutes)
// as a columnar corpus (tputlab-corpus/2) — the raw material for
// cmd/mapit and cmd/bdrmap. A corpus file is published atomically: it
// appears under its name only once complete.
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

	"throughputlab/internal/checkpoint"
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

	if err := run(*scale, *seed, *tests, *battle, *campaign, *out, checkpoint.Options{}); err != nil {
		fmt.Fprintln(os.Stderr, "ndtsim:", err)
		os.Exit(1)
	}
}

// run generates the world and writes the corpus to out ("-" is
// stdout). Any other path goes through checkpoint.Create: a file
// appears under its name only once complete, and a failed run leaves
// neither it nor its .partial; a device or a pipe is written in place.
// opts is passed to checkpoint.Create.
func run(scale string, seed int64, tests int, battle bool, campaign, out string, opts checkpoint.Options) error {
	var cfg topogen.Config
	switch scale {
	case "small":
		cfg = topogen.SmallConfig()
	case "default":
		cfg = topogen.DefaultConfig()
	default:
		return fmt.Errorf("-scale %q: want small or default", scale)
	}
	cfg.Seed = seed
	w, err := topogen.GenerateCtx(context.Background(), cfg)
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
	public := export.FromWorld(w, nil).Public

	generate := func(write func(*platform.Chunk) error) error {
		if vp != nil {
			// A prefix campaign has no schedule: its traces travel as
			// one chunk.
			traces := platform.Campaign(w, vp.Host.Endpoint,
				platform.RoutedPrefixTargets(w), traceroute.DefaultArtifacts(), seed+100)
			if err := write(&platform.Chunk{Traces: traces}); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "campaign from %s (%s): %d traces\n", vp.Label, vp.ISP, len(traces))
			return nil
		}
		ccfg := platform.DefaultCollect()
		ccfg.Tests = tests
		ccfg.Seed = seed + 6
		ccfg.BattleForNet = battle
		st, err := platform.CollectStreamCtx(context.Background(), w, ccfg, 1, write)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "corpus: %d tests, %d traces (%d lost to busy collector)\n",
			st.Tests, st.Traces, st.TestsWithoutTrace)
		return nil
	}

	if out != "-" {
		pw, err := checkpoint.Create(out, "columnar", public, meta, checkpoint.Fingerprint{}, 1, opts)
		if err != nil {
			return err
		}
		if err := generate(pw.WriteChunk); err != nil {
			pw.Discard()
			return err
		}
		return pw.Close()
	}
	cw, err := export.NewColumnarWriter(os.Stdout, public, meta, 1)
	if err != nil {
		return err
	}
	if err := generate(cw.WriteChunk); err != nil {
		cw.Abandon()
		return err
	}
	return cw.Close()
}
