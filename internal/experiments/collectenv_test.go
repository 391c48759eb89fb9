package experiments

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"testing"

	"throughputlab/internal/core"
	"throughputlab/internal/faults"
	"throughputlab/internal/mapit"
	"throughputlab/internal/netaddr"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
	"throughputlab/internal/traceroute"
)

// refEnv is the batch reference CollectEnv is held to: the whole corpus
// collected first (platform.CollectParallelCtx), then MAP-IT over
// closures on the generator's truth (its origin table, organizations
// and IXP prefixes) and core.MatchTraces under the primary window.
func refEnv(ctx context.Context, opts Options, w *topogen.World) (*Env, error) {
	corpus, err := platform.CollectParallelCtx(ctx, w, opts.Collect, opts.workers())
	if err != nil {
		return nil, err
	}
	mopts := mapit.Opts{
		Workers:   opts.workers(),
		Prefix2AS: w.Topo.OriginOf,
		IsIXP: func(a netaddr.Addr) bool {
			for _, p := range w.Topo.IXPPrefixes {
				if p.Contains(a) {
					return true
				}
			}
			return false
		},
		SameOrg: func(x, y topology.ASN) bool { return x == y || w.Topo.SameOrg(x, y) },
	}
	return &Env{
		Opts: opts, World: w, Corpus: corpus,
		Inference: mapit.Run(corpus.Traces, mopts),
		Matching:  core.MatchTraces(corpus.Tests, corpus.Traces, core.PrimaryWindowMin, core.PrimaryMode),
	}, nil
}

// matchedTraces maps each matched test's ID to its trace's position
// in the corpus, so matchings over two collections compare by record.
func matchedTraces(e *Env) map[int]int {
	pos := make(map[*traceroute.Trace]int, len(e.Corpus.Traces))
	for i, tr := range e.Corpus.Traces {
		pos[tr] = i
	}
	out := make(map[int]int, len(e.Matching.ByTest))
	for id, tr := range e.Matching.ByTest {
		i, ok := pos[tr]
		if !ok {
			i = -1
		}
		out[id] = i
	}
	return out
}

// TestCollectEnvMatchesBatchReference holds the one path from a world
// to an Env to the batch reference: the same corpus, the same MAP-IT
// operators and links over the published lookups as over the
// generator's truth, and the same primary-window matching, clean and
// under heavy faults, at one and two workers, in default, 97-test and
// 7-test chunks (the matcher then finalizes tests across many
// watermarks). In the dense campaign every client pool has one
// household, so some tests pair with a trace published in a later
// chunk, which only a correct watermark keeps.
func TestCollectEnvMatchesBatchReference(t *testing.T) {
	ctx := context.Background()
	for _, prof := range []string{"off", "heavy", "dense"} {
		opts := QuickOptions()
		switch prof {
		case "heavy":
			opts.Collect.Faults = faults.Heavy()
		case "dense":
			opts.Collect.PerPoolClients = 1
		}
		want, err := refEnv(ctx, opts, env().World)
		if err != nil {
			t.Fatal(err)
		}
		if prof == "heavy" && want.Matching.Degraded == 0 {
			t.Fatal("heavy faults degraded no matched pair: the reference exercises nothing")
		}
		for _, workers := range []int{1, 2} {
			for _, chunk := range []int{0, 97, 7} {
				o := opts
				o.Workers, o.Collect.ChunkTests = workers, chunk
				name := fmt.Sprintf("%s/workers=%d/chunk=%d", prof, workers, chunk)
				got, err := CollectEnv(ctx, o, env().World)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got.Corpus, want.Corpus) {
					t.Errorf("%s: corpus differs from the batch collection", name)
				}
				if !maps.Equal(got.Inference.Operator, want.Inference.Operator) {
					t.Errorf("%s: MAP-IT operators differ: %d vs %d labelled", name,
						len(got.Inference.Operator), len(want.Inference.Operator))
				}
				if !reflect.DeepEqual(got.Inference.Links, want.Inference.Links) {
					t.Errorf("%s: MAP-IT links differ: %d vs %d", name, len(got.Inference.Links), len(want.Inference.Links))
				}
				if !maps.Equal(matchedTraces(got), matchedTraces(want)) || got.Matching.Total != want.Matching.Total ||
					got.Matching.Degraded != want.Matching.Degraded {
					t.Errorf("%s: matching %d/%d (%d degraded), reference %d/%d (%d degraded)", name,
						got.Matching.Matched(), got.Matching.Total, got.Matching.Degraded,
						want.Matching.Matched(), want.Matching.Total, want.Matching.Degraded)
				}
			}
		}
	}
}
