package platform

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// corpusHash digests every field of the corpus that downstream
// inference consumes, so two corpora hash equal only if they are
// observably identical.
func corpusHash(c *Corpus) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "tests=%d traces=%d missing=%d\n", len(c.Tests), len(c.Traces), c.TestsWithoutTrace)
	for _, t := range c.Tests {
		fmt.Fprintf(h, "t %d %d %d %d %d %.9g %.9g %.9g %.9g %d\n",
			t.ID, uint32(t.ClientAddr), uint32(t.ServerAddr), t.StartMinute, t.FlowEntropy,
			t.DownMbps, t.UpMbps, t.RTTms, t.RetransRate, t.TruthBottleneck)
	}
	for _, tr := range c.Traces {
		fmt.Fprintf(h, "r %d %d %d %d %v", uint32(tr.SrcAddr), uint32(tr.DstAddr),
			tr.LaunchMinute, tr.FlowEntropy, tr.Reached)
		for _, hop := range tr.Hops {
			fmt.Fprintf(h, " %d", uint32(hop.Addr))
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}

// TestCollectParallelDeterminism pins the engine's determinism
// contract: for a fixed seed (and shard count), every worker count
// produces a byte-identical corpus: CollectStreamCtx at one worker
// (stream.For's inline path) is the same corpus as any fan-out.
func TestCollectParallelDeterminism(t *testing.T) {
	cfg := smallCollect()
	serial, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := corpusHash(serial)
	for _, workers := range []int{1, 2, 3, 8} {
		c, err := collect(world, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := corpusHash(c); got != want {
			t.Errorf("corpus hash with %d workers = %x, want %x (serial)", workers, got, want)
		}
	}
	// A different seed must produce a different corpus (the hash is
	// actually sensitive to the draws).
	cfg2 := cfg
	cfg2.Seed++
	other, err := collect(world, cfg2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if corpusHash(other) == want {
		t.Error("corpus hash insensitive to seed")
	}
	// The shard count is part of the corpus identity: changing it
	// reshards the RNG streams and yields a different (but equally
	// valid) corpus.
	cfg3 := cfg
	cfg3.Shards = DefaultShards * 2
	resharded, err := collect(world, cfg3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if corpusHash(resharded) == want {
		t.Error("corpus hash insensitive to shard count")
	}
}

// TestCollectBattleForNetParallel covers the multi-server scheduling
// branch under parallel execution.
func TestCollectBattleForNetParallel(t *testing.T) {
	cfg := smallCollect()
	cfg.Tests = 300
	cfg.BattleForNet = true
	serial, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := collect(world, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if corpusHash(serial) != corpusHash(par) {
		t.Error("BattleForNet corpus differs between worker counts")
	}
	if len(serial.Tests) < 2*cfg.Tests {
		t.Errorf("BattleForNet produced only %d tests from %d clients", len(serial.Tests), cfg.Tests)
	}
}
