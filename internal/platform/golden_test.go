package platform

import (
	"fmt"
	"testing"

	"throughputlab/internal/obs"
)

// seedCorpusHash is the corpus FNV hash of the small-scale campaign
// (SmallConfig world, smallCollect config) measured before the
// resolver memoization layer landed. The caches, the delay matrix, the
// weighted samplers, and every hot-path allocation cut must leave the
// corpus byte-identical, so this constant must never change for
// performance work; it moves only when the model itself intentionally
// changes.
const seedCorpusHash = 0x62321200631590a1

// TestCorpusGoldenSeedHash pins the collected corpus — with the cached
// resolver, at several worker counts — to the pre-caching seed hash.
func TestCorpusGoldenSeedHash(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		c, err := collect(world(), smallCollect(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := corpusHash(c); got != seedCorpusHash {
			t.Errorf("corpus hash with %d workers = %#x, want seed %#x", workers, got, seedCorpusHash)
		}
	}
}

// TestCorpusGoldenSeedHashWithObs pins the observability invariance
// guarantee: a metrics-enabled collection (live registry shared by all
// shards and workers) produces the byte-identical corpus, still equal
// to the seed hash, at workers 1/2/8 — and the registry actually saw
// the campaign. Under -race this also exercises concurrent shard
// updates against one registry on the real pipeline.
func TestCorpusGoldenSeedHashWithObs(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		cfg := smallCollect()
		cfg.Obs = reg
		c, err := collect(world(), cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := corpusHash(c); got != seedCorpusHash {
			t.Errorf("instrumented corpus hash with %d workers = %#x, want seed %#x",
				workers, got, seedCorpusHash)
		}
		if got := reg.Counter("collect.tests").Value(); got != uint64(len(c.Tests)) {
			t.Errorf("collect.tests = %d, want %d", got, len(c.Tests))
		}
		if got := reg.Counter("collect.traces").Value(); got != uint64(len(c.Traces)) {
			t.Errorf("collect.traces = %d, want %d", got, len(c.Traces))
		}
		if got := reg.Counter("collect.trace.rejected_busy").Value(); got != uint64(c.TestsWithoutTrace) {
			t.Errorf("busy rejections = %d, want %d", got, c.TestsWithoutTrace)
		}
		var shardTests int64
		for s := 0; s < DefaultShards; s++ {
			shardTests += reg.Gauge(fmt.Sprintf("collect.shard.%02d.tests", s)).Value()
		}
		if shardTests != int64(len(c.Tests)) {
			t.Errorf("per-shard test gauges sum to %d, want %d", shardTests, len(c.Tests))
		}
		d := reg.Snapshot()
		if len(d.Spans) == 0 || d.Spans[0].Name != "collect" {
			t.Fatalf("missing collect span tree: %+v", d.Spans)
		}
		phases := map[string]bool{}
		for _, c := range d.Spans[0].Children {
			phases[c.Name] = true
		}
		for _, want := range []string{"collect.population", "collect.schedule", "collect.sweep", "collect.execute"} {
			if !phases[want] {
				t.Errorf("collect span missing child %q (have %v)", want, phases)
			}
		}
	}
}

// TestCorpusGoldenSeedHashFullTelemetry extends the invariance
// guarantee to the whole live-telemetry stack: with the
// simulated-clock sampler AND the progress event bus attached, at
// workers 1/2/8, the corpus still hashes to the seed value, the sampler
// stamped at least one point per simulated hour of the campaign on a
// gap-free grid, and the bus saw the chunk stream end with
// collect.done.
func TestCorpusGoldenSeedHashFullTelemetry(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		reg := obs.NewRegistry()
		sampler := reg.EnableTimeSeries(nil)
		bus := reg.EnableEvents(4096)
		cfg := smallCollect()
		cfg.Obs = reg
		c, err := collect(world(), cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := corpusHash(c); got != seedCorpusHash {
			t.Errorf("telemetered corpus hash (workers=%d) = %#x, want seed %#x",
				workers, got, seedCorpusHash)
		}
		bus.Close()

		sr, ok := sampler.DumpSeries()["collect.tests"]
		if !ok {
			t.Fatal("sampler has no collect.tests series")
		}
		pts := sr.Points
		if len(pts) < 2 {
			t.Fatalf("series has %d points, want >= 2 (one per simulated hour)", len(pts))
		}
		for i := 1; i < len(pts)-1; i++ {
			if pts[i].Minute != pts[i-1].Minute+60 {
				t.Fatalf("hourly grid has a gap: %d -> %d", pts[i-1].Minute, pts[i].Minute)
			}
		}
		if got := pts[len(pts)-1].Value; got != float64(len(c.Tests)) {
			t.Errorf("final sample = %g, want %d (all tests counted by campaign end)", got, len(c.Tests))
		}

		st := bus.Stats()
		if st.ByKind["collect.chunk"] == 0 {
			t.Errorf("no collect.chunk events delivered: %+v", st.ByKind)
		}
		if st.ByKind["collect.done"] != 1 {
			t.Errorf("collect.done events = %d, want 1", st.ByKind["collect.done"])
		}
	}
}
