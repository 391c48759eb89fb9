package report

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"throughputlab/internal/core"
	"throughputlab/internal/experiments"
	"throughputlab/internal/export"
	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/signatures"
)

// The shared fixtures are built on first use and are passive: no test
// changes them. TestMain checks both after the tests.

// passive holds one check per shared fixture built so far.
var passive []func() error

// env is the shared campaign at experiments.QuickOptions.
var env = sync.OnceValue(func() *experiments.Env {
	e, err := experiments.NewEnvCtx(context.Background(), experiments.QuickOptions())
	if err != nil {
		panic(err)
	}
	want := envDigest(e)
	passive = append(passive, func() error {
		if got := envDigest(e); got != want {
			return fmt.Errorf("shared Env digest %#x, want %#x as built: a test changed it", got, want)
		}
		return nil
	})
	return e
})

// built is the StreamBuilder's report over the shared campaign, in
// streamBuild's two-read order.
var built = sync.OnceValue(func() *Report {
	r, err := streamBuild(DefaultConfig(), env().Opts.Collect, 1)
	if err != nil {
		panic(err)
	}
	want := reportDigest(r)
	passive = append(passive, func() error {
		if got := reportDigest(r); got != want {
			return fmt.Errorf("shared report digest %#x, want %#x as built: a test changed it", got, want)
		}
		return nil
	})
	return r
})

// envDigest hashes what a test can observe of an Env: its options and
// world identity, the links' capacity and utilization, the corpus,
// MAP-IT's inference and the matching.
func envDigest(e *experiments.Env) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n%p\n", e.Opts, e.World)
	for _, l := range e.World.Topo.Links() {
		fmt.Fprintf(h, "%g %g %g\n", l.CapacityMbps, l.BaseUtil, l.PeakUtil)
	}
	// The corpus codec round-trips every test and trace field, so the
	// corpus's encoding digests it.
	c := e.Corpus
	cw, err := export.NewColumnarWriter(h, export.Public{}, export.StreamMeta{}, 1)
	if err == nil {
		err = cw.WriteChunk(&platform.Chunk{Tests: c.Tests, Traces: c.Traces})
	}
	if err == nil {
		err = cw.Close()
	}
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(h, "%d %+v\n", c.TestsWithoutTrace, c.Completeness)
	fmt.Fprintf(h, "%v\n%v\n", e.Inference.Operator, e.Inference.Links)
	fmt.Fprintf(h, "%d %d %v\n", e.Matching.Total, e.Matching.Degraded, e.Matching.ByTest)
	return h.Sum64()
}

// reportDigest hashes a report's findings and its rendering.
func reportDigest(r *Report) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n%d %d %+v\n", r.Findings, r.Congested, r.Ambiguous, r.Completeness)
	h.Write([]byte(r.Render()))
	return h.Sum64()
}

func TestMain(m *testing.M) {
	code := m.Run()
	for _, check := range passive {
		if err := check(); err != nil {
			fmt.Fprintln(os.Stderr, "passivity check failed:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// batchBuild is the reference the streaming builder is checked
// against: the in-memory assembly over a fully materialized Env — one
// batch MAP-IT run, the batch matcher's ByTest map, the world's own
// metro hours, and per-group test slices — sharing only grade with the
// builder. TestStreamReportMatchesBatch* compare the two byte for byte.
func batchBuild(e *experiments.Env, cfg Config) *Report {
	if cfg.MinTests == 0 {
		cfg = DefaultConfig()
	}
	type gkey struct{ net, metro, isp string }
	groups := map[gkey][]*ndt.Test{}
	for _, t := range e.Corpus.Tests {
		k := gkey{t.ServerNet, t.ServerMetro, t.ClientISP}
		groups[k] = append(groups[k], t)
	}
	keys := make([]gkey, 0, len(groups))
	for k := range groups {
		if len(groups[k]) >= cfg.MinTests {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.net != b.net {
			return a.net < b.net
		}
		if a.metro != b.metro {
			return a.metro < b.metro
		}
		return a.isp < b.isp
	})

	rep := &Report{
		Completeness:    e.Corpus.Completeness,
		MatchedDegraded: e.Matching.Degraded,
	}
	for _, k := range keys {
		tests := groups[k]
		f := Finding{ServerNet: k.net, ServerMetro: k.metro, ClientISP: k.isp, Tests: len(tests)}

		// Traceroute association and Assumption 2; the link counted is
		// the first inferred crossing out of the server network.
		matched, oneHop, pathKnown := 0, 0, 0
		linkSet := map[uint32]bool{}
		for _, t := range tests {
			tr := e.Matching.ByTest[t.ID]
			if tr == nil {
				continue
			}
			matched++
			p := e.Inference.ASPathOf(tr)
			if len(p) >= 2 {
				pathKnown++
				if len(p) == 2 {
					oneHop++
				}
			}
			if links := e.Inference.LinksOf(tr); len(links) > 0 {
				linkSet[uint32(links[0].Far)] = true
			}
		}
		f.MatchedFrac = frac(matched, len(tests))
		f.OneHopFrac = frac(oneHop, pathKnown)
		f.IPLinks = len(linkSet)

		s := core.BuildSeries(tests)
		f.Detector = core.Detect(s, cfg.Detector)
		f.Bias = core.Bias(tests, cfg.Detector.MinSamples)

		// Congestion signatures on peak-hour tests.
		det, ext := 0, 0
		for _, t := range tests {
			h := t.LocalHour()
			if h < 19 || h >= 23 {
				continue
			}
			switch signatures.Classify(signatures.Extract(t), cfg.Signature) {
			case signatures.ExternalCongestion:
				det++
				ext++
			case signatures.SelfInduced:
				det++
			}
		}
		f.ExternalSigFrac = frac(ext, det)

		grade(&f, cfg)
		switch f.Grade {
		case CongestedHighConfidence, CongestedLowConfidence:
			rep.Congested++
		case Ambiguous:
			rep.Ambiguous++
		}
		rep.Findings = append(rep.Findings, f)
	}
	return rep
}

func findingFor(net, metro, isp string) *Finding {
	rep := built()
	for i := range rep.Findings {
		f := &rep.Findings[i]
		if f.ServerNet == net && f.ServerMetro == metro && f.ClientISP == isp {
			return f
		}
	}
	return nil
}

func TestBuildProducesFindings(t *testing.T) {
	rep := built()
	if len(rep.Findings) < 10 {
		t.Fatalf("only %d findings", len(rep.Findings))
	}
	// Sorted by (net, metro, isp).
	for i := 1; i < len(rep.Findings); i++ {
		a, b := rep.Findings[i-1], rep.Findings[i]
		ka := a.ServerNet + "|" + a.ServerMetro + "|" + a.ClientISP
		kb := b.ServerNet + "|" + b.ServerMetro + "|" + b.ClientISP
		if ka > kb {
			t.Fatal("findings unsorted")
		}
	}
	for _, f := range rep.Findings {
		if f.Tests < DefaultConfig().MinTests {
			t.Fatalf("finding below MinTests: %+v", f)
		}
		if f.MatchedFrac < 0 || f.MatchedFrac > 1 || f.OneHopFrac < 0 || f.OneHopFrac > 1 {
			t.Fatalf("fractions out of range: %+v", f)
		}
	}
}

func TestCongestedPairGradedCongested(t *testing.T) {
	f := findingFor("GTT", "atl", "AT&T")
	if f == nil {
		t.Skip("GTT/atl→AT&T group below size threshold at this scale")
	}
	if f.Grade != CongestedHighConfidence && f.Grade != CongestedLowConfidence {
		t.Errorf("saturated pair graded %v", f.Grade)
	}
	// The corroborating signature evidence should be strong.
	if f.ExternalSigFrac < 0.5 {
		t.Errorf("external signature fraction %.2f low for a saturated pair", f.ExternalSigFrac)
	}
}

func TestBusyPairNotCongested(t *testing.T) {
	f := findingFor("GTT", "atl", "Comcast")
	if f == nil {
		t.Skip("GTT/atl→Comcast group below size threshold")
	}
	if f.Grade == CongestedHighConfidence || f.Grade == CongestedLowConfidence {
		t.Errorf("busy pair graded %v (drop %.2f)", f.Grade, f.Detector.Drop)
	}
}

func TestChallengeCaveatsAppear(t *testing.T) {
	// Somewhere in the corpus the assumption checks must fire: Charter/
	// Cox groups are mostly multi-hop, so their findings (when large
	// enough) should carry the Assumption-2 caveat; at minimum, SOME
	// finding carries SOME caveat.
	rep := built()
	caveated := 0
	assumption2 := 0
	for _, f := range rep.Findings {
		if len(f.Caveats) > 0 {
			caveated++
		}
		for _, c := range f.Caveats {
			if strings.Contains(c, "Assumption 2") {
				assumption2++
			}
		}
	}
	if caveated == 0 {
		t.Error("no finding carries any caveat; the challenge checks are dead")
	}
	if assumption2 == 0 {
		t.Log("note: no Assumption-2 caveat at this scale (all large groups one-hop)")
	}
}

func TestGradeString(t *testing.T) {
	for g := Insufficient; g <= CongestedHighConfidence; g++ {
		if g.String() == "" {
			t.Fatalf("grade %d has no string", g)
		}
	}
	if Grade(42).String() == "" {
		t.Error("unknown grade should stringify")
	}
}

func TestRender(t *testing.T) {
	rep := built()
	out := rep.Render()
	if !strings.Contains(out, "congested") {
		t.Error("render missing summary")
	}
	if rep.Congested > 0 && !strings.Contains(out, "congested (") {
		t.Error("congested findings not rendered")
	}
}

func TestCongestedCountsConsistent(t *testing.T) {
	rep := built()
	cong, amb := 0, 0
	for _, f := range rep.Findings {
		switch f.Grade {
		case CongestedHighConfidence, CongestedLowConfidence:
			cong++
		case Ambiguous:
			amb++
		}
	}
	if cong != rep.Congested || amb != rep.Ambiguous {
		t.Errorf("summary counts (%d,%d) != recount (%d,%d)", rep.Congested, rep.Ambiguous, cong, amb)
	}
	if cong == 0 {
		t.Error("the default scenario has saturated interconnections; the report should find at least one")
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	r, err := streamBuild(Config{}, env().Opts.Collect, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Findings) == 0 {
		t.Error("zero config should default, not produce nothing")
	}
}

// BenchmarkBuild times both StreamBuilder passes over a campaign held
// in memory — the CLI's default report mode without the collection.
func BenchmarkBuild(b *testing.B) {
	var chunks []*platform.Chunk
	st, err := platform.CollectStreamCtx(context.Background(), env().World, env().Opts.Collect, 1, func(c *platform.Chunk) error {
		chunks = append(chunks, c)
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := NewStreamBuilder(cfg, MetroHourOf(), env().MapItOpts())
		for _, c := range chunks {
			sb.AddTraces(c.Traces)
		}
		sb.FinishInference()
		for _, c := range chunks {
			sb.AddTests(c.Tests)
			sb.AddMatch(c.Tests, c.Traces, c.Watermark)
		}
		if r := sb.Finish(st.Completeness); len(r.Findings) == 0 {
			b.Fatal("empty report")
		}
	}
}

func TestRecommendations(t *testing.T) {
	rep := built()
	recs := rep.Recommendations()
	if len(recs) == 0 {
		t.Fatal("the default corpus exhibits several §7 problems; recommendations expected")
	}
	// The multi-link problem is structural in this world.
	found := false
	for _, r := range recs {
		if strings.Contains(r, "stratify per IP link") {
			found = true
		}
	}
	if !found {
		t.Error("missing the §4.3 stratification recommendation")
	}
	// And they surface in the render.
	if !strings.Contains(rep.Render(), "recommendations (§7):") {
		t.Error("render missing recommendations")
	}
	// Empty report: no recommendations.
	if (&Report{}).Recommendations() != nil {
		t.Error("empty report should have no recommendations")
	}
}
