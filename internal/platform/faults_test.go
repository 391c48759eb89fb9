package platform

import (
	"fmt"
	"hash/fnv"
	"testing"

	"throughputlab/internal/faults"
	"throughputlab/internal/obs"
)

// faultedCorpusHash extends corpusHash with the degradation markers the
// fault plane adds (truncation flags, degraded traces, the completeness
// ledger), so replay equality covers the fault decisions themselves,
// not just the surviving clean fields.
func faultedCorpusHash(c *Corpus) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "base=%#x\n", corpusHash(c))
	for _, t := range c.Tests {
		if t.Truncated {
			fmt.Fprintf(h, "trunc %d %.9g %.9g\n", t.ID, t.DownMbps, t.Web100.DurationSec)
		}
	}
	for _, tr := range c.Traces {
		if tr.Degraded {
			fmt.Fprintf(h, "deg %d %d %d\n", uint32(tr.SrcAddr), uint32(tr.DstAddr), tr.LaunchMinute)
		}
	}
	fmt.Fprintf(h, "comp %+v\n", c.Completeness)
	return h.Sum64()
}

func heavyCollect() CollectConfig {
	cfg := smallCollect()
	cfg.Faults = faults.Heavy()
	return cfg
}

// TestFaultReplayDeterminism pins the fault plane's determinism
// contract: a fixed (seed, profile, fault seed) yields a byte-identical
// corpus — including every fault decision — at workers 1, 2 and 8, and
// under serial Collect. Under -race this is also the aggressive-profile
// concurrency sweep: heavy faults drive the retry planner, truncation
// and trace perturbation from all execution workers against one live
// registry.
func TestFaultReplayDeterminism(t *testing.T) {
	cfg := heavyCollect()
	serial, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := faultedCorpusHash(serial)
	if !serial.Completeness.Degraded() {
		t.Fatal("heavy profile produced a pristine corpus")
	}
	for _, workers := range []int{1, 2, 8} {
		icfg := cfg
		icfg.Obs = obs.NewRegistry()
		c, err := collect(world, icfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := faultedCorpusHash(c); got != want {
			t.Errorf("faulted corpus hash with %d workers = %#x, want %#x", workers, got, want)
		}
	}
}

// TestFaultSeedIdentity pins the FaultSeed semantics: 0 means the
// campaign seed, an explicit equal value changes nothing, a different
// value replays different faults on the same schedule.
func TestFaultSeedIdentity(t *testing.T) {
	cfg := heavyCollect()
	def, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultSeed = cfg.Seed
	explicit, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if faultedCorpusHash(def) != faultedCorpusHash(explicit) {
		t.Error("FaultSeed=Seed differs from FaultSeed=0")
	}
	cfg.FaultSeed = cfg.Seed + 1
	other, err := collect(world, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if faultedCorpusHash(other) == faultedCorpusHash(def) {
		t.Error("fault decisions insensitive to FaultSeed")
	}
}

// TestCleanCorpusHasZeroCompleteness pins byte-invisibility from the
// consumer side: a faultless campaign carries the zero ledger and no
// degradation markers at all.
func TestCleanCorpusHasZeroCompleteness(t *testing.T) {
	c, err := collect(world, smallCollect(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Completeness != (Completeness{}) {
		t.Errorf("clean corpus completeness = %+v, want zero", c.Completeness)
	}
	for _, tst := range c.Tests {
		if tst.Truncated || !tst.Web100.Complete() {
			t.Fatalf("clean corpus contains truncated test %d", tst.ID)
		}
	}
	for _, tr := range c.Traces {
		if tr.Degraded {
			t.Fatal("clean corpus contains degraded trace")
		}
	}
}

// TestFaultCountersAndLedger cross-checks the obs counters against the
// corpus: the ledger's counts must equal what the corpus actually
// carries, and the retry machinery must both recover and abandon under
// the heavy profile at this scale.
func TestFaultCountersAndLedger(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := heavyCollect()
	cfg.Obs = reg
	c, err := collect(world, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	comp := c.Completeness
	if got := len(c.Tests); got != comp.ScheduledTests-comp.AbandonedTests-comp.DroppedRows {
		t.Errorf("published tests %d != scheduled %d - abandoned %d - dropped %d",
			got, comp.ScheduledTests, comp.AbandonedTests, comp.DroppedRows)
	}
	trunc, deg := 0, 0
	for _, tst := range c.Tests {
		if tst.Truncated {
			trunc++
			if tst.Web100.Complete() {
				t.Errorf("test %d truncated but web100 snapshot complete", tst.ID)
			}
		}
	}
	for _, tr := range c.Traces {
		if tr.Degraded {
			deg++
			if tr.Reached && tr.Hops[len(tr.Hops)-1].NoReply() {
				t.Error("degraded trace with NoReply final hop still marked reached")
			}
		}
	}
	if trunc != comp.TruncatedTests {
		t.Errorf("ledger says %d truncated tests, corpus carries %d", comp.TruncatedTests, trunc)
	}
	if deg != comp.DegradedTraces {
		t.Errorf("ledger says %d degraded traces, corpus carries %d", comp.DegradedTraces, deg)
	}
	cs := reg.CountersWithPrefix("faults.")
	if cs["faults.row_corruption.injected"] != uint64(comp.DroppedRows) {
		t.Errorf("row corruption counter %d != dropped rows %d",
			cs["faults.row_corruption.injected"], comp.DroppedRows)
	}
	if cs["faults.test_truncation.injected"] == 0 {
		t.Error("no truncation faults counted")
	}
	retried := cs["faults.test_abort.retried"] + cs["faults.server_outage.retried"]
	recovered := cs["faults.test_abort.recovered"] + cs["faults.server_outage.recovered"]
	if retried == 0 || recovered == 0 {
		t.Errorf("retry machinery idle under heavy profile: retried=%d recovered=%d", retried, recovered)
	}
	if comp.AbandonedTests > 0 {
		if cs["faults.test_abort.abandoned"]+cs["faults.server_outage.abandoned"] == 0 {
			t.Error("tests abandoned but no abandonment attributed to a fault kind")
		}
	}
	// The retry planner leaves its span tree: a collect.retries phase
	// with one child per wave.
	var sawRetries bool
	d := reg.Snapshot()
	for _, s := range d.Spans {
		for _, ch := range s.Children {
			if ch.Name == "collect.retries" {
				sawRetries = true
				if len(ch.Children) == 0 {
					t.Error("collect.retries span has no wave children")
				}
			}
		}
	}
	if !sawRetries {
		t.Error("missing collect.retries span")
	}
}

// TestGoldenHashUnchangedByFaultsOff re-pins the golden seed hash with
// the fault-plane fields explicitly zeroed, so no future default can
// silently turn injection on.
func TestGoldenHashUnchangedByFaultsOff(t *testing.T) {
	cfg := smallCollect()
	cfg.Faults = faults.Off()
	cfg.FaultSeed = 99 // must be inert while the profile is disabled
	c, err := collect(world, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusHash(c); got != seedCorpusHash {
		t.Errorf("corpus hash with explicit off profile = %#x, want seed %#x", got, seedCorpusHash)
	}
}
