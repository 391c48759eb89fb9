package throughputlab

// One benchmark per table and figure of the paper's evaluation, plus
// the in-text analyses (§4.1 matching, §5.4 snapshots, §6 statistics).
// Each benchmark regenerates its artifact from the shared environment;
// run with:
//
//	go test -bench=. -benchmem
//
// The per-iteration cost is the analysis cost; world generation and
// corpus collection are amortized through the shared environment
// (benchmarked separately as BenchmarkWorldGeneration and
// BenchmarkCorpusCollection).

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"throughputlab/internal/core"
	"throughputlab/internal/experiments"
	"throughputlab/internal/faults"
	"throughputlab/internal/mapit"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
	"throughputlab/internal/report"
	"throughputlab/internal/routing"
	"throughputlab/internal/topogen"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		e, err := experiments.NewEnvCtx(context.Background(), experiments.QuickOptions())
		if err != nil {
			panic(err)
		}
		benchEnv = e
	})
	return benchEnv
}

// BenchmarkWorldGeneration measures the substrate build: topology,
// BGP routes, routing indices. Sub-benchmarks sweep scale (small,
// medium) and generation worker count; the generated world is
// byte-identical at every worker count, so w4 vs w1 is pure speedup.
func BenchmarkWorldGeneration(b *testing.B) {
	for _, sc := range []struct {
		name string
		cfg  topogen.Config
	}{
		{"small", topogen.SmallConfig()},
		{"medium", topogen.DefaultConfig()},
	} {
		for _, workers := range []int{1, 4} {
			name := sc.name
			if workers != 1 {
				name = fmt.Sprintf("%s/w%d", sc.name, workers)
			}
			cfg := sc.cfg
			cfg.Workers = workers
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					topogen.MustGenerate(cfg)
				}
			})
		}
	}
}

// BenchmarkResolverResolve measures a warm-cache path resolution: once
// a route is admitted, one route-cache lookup and hit-rule scan, with
// the segment/interdomain/AS-path caches behind it for the misses.
// The uncached variant recomputes every layer per call, quantifying
// what the memoization buys.
func BenchmarkResolverResolve(b *testing.B) {
	e := env(b)
	households := platform.BuildPopulation(e.World, 5, 8)
	servers := e.World.MLabServers()
	for _, mode := range []string{"warm", "uncached"} {
		rv := e.World.Resolver
		if mode == "uncached" {
			rv = routing.New(e.World.Topo, e.World.Routes)
			rv.DisableCache()
		}
		b.Run(mode, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := households[rng.Intn(len(households))]
				s := servers[rng.Intn(len(servers))]
				key := routing.FlowKey(s.Endpoint.Addr, h.Endpoint.Addr, uint32(i))
				if _, err := rv.Resolve(s.Endpoint, h.Endpoint, key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCorpusCollection measures a crowdsourced NDT campaign.
func BenchmarkCorpusCollection(b *testing.B) {
	e := env(b)
	cfg := platform.DefaultCollect()
	cfg.Tests = 2000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.CollectParallelCtx(context.Background(), e.World, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusCollectionHeavyFaults is the same campaign under the
// heavy fault profile. Against BenchmarkCorpusCollection (the disabled,
// nil-injector path) the pair measures what retry planning, truncation
// and trace perturbation add; the ratio is measured, not gated.
func BenchmarkCorpusCollectionHeavyFaults(b *testing.B) {
	e := env(b)
	cfg := platform.DefaultCollect()
	cfg.Tests = 2000
	cfg.Faults = faults.Heavy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.CollectParallelCtx(context.Background(), e.World, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusCollectionInstrumented is the same campaign with a
// live obs registry attached; against BenchmarkCorpusCollection it
// measures the enabled-metrics overhead on the collection hot path.
// The ratio is measured, not gated.
func BenchmarkCorpusCollectionInstrumented(b *testing.B) {
	e := env(b)
	cfg := platform.DefaultCollect()
	cfg.Tests = 2000
	cfg.Obs = obs.NewRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.CollectParallelCtx(context.Background(), e.World, cfg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusCollectionFullTelemetry runs the same campaign with
// the entire live-telemetry stack attached: registry metrics, the
// simulated-clock sampler, and the progress event bus with a
// discarding sink. Against BenchmarkCorpusCollection it measures the
// live-telemetry overhead on the collection hot path; the ratio is
// measured, not gated.
func BenchmarkCorpusCollectionFullTelemetry(b *testing.B) {
	e := env(b)
	cfg := platform.DefaultCollect()
	cfg.Tests = 2000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh registry per campaign (sampler state is cumulative);
		// construction and drain are per-campaign setup, not the
		// collection hot path the pair compares.
		b.StopTimer()
		reg := obs.NewRegistry()
		reg.EnableTimeSeries(nil)
		bus := reg.EnableEvents(4096)
		bus.AddSink(func(obs.Event) {})
		cfg.Obs = reg
		b.StartTimer()
		if _, err := platform.CollectParallelCtx(context.Background(), e.World, cfg, 1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		bus.Close()
		b.StartTimer()
	}
}

// BenchmarkFig1ASHops regenerates Figure 1 (AS hops server→client per
// ISP) plus the §4.2 aggregate.
func BenchmarkFig1ASHops(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig1(e); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable1Providers regenerates Table 1.
func BenchmarkTable1Providers(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Table1(e); len(r.Rows) != 12 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable2LinkDiversity regenerates Table 2 (IP-level link
// diversity behind the Level3 Atlanta server).
func BenchmarkTable2LinkDiversity(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Table2(e); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable3Bdrmap regenerates one Table 3 row: a full bdrmap
// campaign and analysis from the bed-us vantage point. (The full table
// is 16 of these.)
func BenchmarkTable3Bdrmap(b *testing.B) {
	e := env(b)
	vp := e.World.ArkVPs[0]
	prefixTargets := platform.RoutedPrefixTargets(e.World)
	mlab := platform.HostTargets(e.World.MLabServers())
	speed := platform.HostTargets(e.World.Speedtest)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := experiments.AnalyzeVP(e, vp, prefixTargets, mlab, speed, int64(i))
		if va.Borders.ASCount == 0 {
			b.Fatal("no borders")
		}
	}
}

// BenchmarkFig2Coverage regenerates Figure 2 (per-VP interconnection
// coverage; per-VP campaigns are cached after the first build, so this
// measures the aggregation over all 16 VPs).
func BenchmarkFig2Coverage(b *testing.B) {
	e := env(b)
	experiments.Fig2(e) // warm the per-VP cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig2(e); len(r.Rows) != 16 {
			b.Fatal("bad coverage")
		}
	}
}

// BenchmarkFig3PeerCoverage regenerates Figure 3.
func BenchmarkFig3PeerCoverage(b *testing.B) {
	e := env(b)
	experiments.Fig3(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig3(e); len(r.Rows) != 16 {
			b.Fatal("bad coverage")
		}
	}
}

// BenchmarkFig4AlexaOverlap regenerates Figure 4.
func BenchmarkFig4AlexaOverlap(b *testing.B) {
	e := env(b)
	experiments.Fig4(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig4(e); len(r.Rows) != 16 {
			b.Fatal("bad overlap")
		}
	}
}

// BenchmarkFig5Diurnal regenerates Figure 5 (both panels).
func BenchmarkFig5Diurnal(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Fig5(e); len(r.Panels) != 2 {
			b.Fatal("bad panels")
		}
	}
}

// BenchmarkMatchingRates regenerates the §4.1 association analysis.
func BenchmarkMatchingRates(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Matching(e); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkThresholdSweep regenerates the §6.2 sensitivity analysis.
func BenchmarkThresholdSweep(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Thresholds(e); len(r.Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkBiasDiagnostics regenerates the §6.1 diagnostics.
func BenchmarkBiasDiagnostics(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.BiasDiagnostics(e); len(r.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTomography regenerates the §3 comparison.
func BenchmarkTomography(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Tomography(e)
	}
}

// BenchmarkSnapshotDrift regenerates the §5.4 two-snapshot comparison
// (includes building the second world; this is the heavyweight one).
func BenchmarkSnapshotDrift(b *testing.B) {
	e := env(b)
	experiments.Fig2(e) // warm VP cache for snapshot A
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Snapshots(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignatures regenerates the §7-future-work congestion
// signature evaluation (E14).
func BenchmarkSignatures(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Signatures(e); r.Confusion.Total == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkTSLPSurvey regenerates the §7 TSLP survey (E15).
func BenchmarkTSLPSurvey(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.TSLP(e); r.Links == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkPlacement regenerates the §7 placement comparison (E16).
func BenchmarkPlacement(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := experiments.Placement(e); len(r.Greedy) == 0 {
			b.Fatal("empty")
		}
	}
}

// --- Ablation benches: quantify the design choices DESIGN.md calls out ---

// BenchmarkAblationMatchingWindow contrasts the association windows of
// §4.1 (1 vs 10 minutes, after-only vs ±): the work is identical, the
// matched fraction is not — see EXPERIMENTS.md E9.
func BenchmarkAblationMatchingWindow(b *testing.B) {
	e := env(b)
	for _, w := range []int{1, 10} {
		b.Run(fmt.Sprintf("after-%dmin", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.MatchTraces(e.Corpus.Tests, e.Corpus.Traces, w, core.WindowAfter)
			}
		})
	}
}

// BenchmarkAblationMapItPasses contrasts single-pass vs multipass
// MAP-IT refinement.
func BenchmarkAblationMapItPasses(b *testing.B) {
	e := env(b)
	for _, passes := range []int{1, 3} {
		b.Run(fmt.Sprintf("passes-%d", passes), func(b *testing.B) {
			b.ReportAllocs()
			opts := e.MapItOpts()
			opts.Passes = passes
			for i := 0; i < b.N; i++ {
				mapit.Run(e.Corpus.Traces, opts)
			}
		})
	}
}

// BenchmarkAblationBattleForNet contrasts single-site collection with
// the Battle-for-the-Net multi-server wrapper (§2.2): ~4-5x the tests
// for the same client population.
func BenchmarkAblationBattleForNet(b *testing.B) {
	e := env(b)
	for _, battle := range []bool{false, true} {
		b.Run(fmt.Sprintf("battle-%v", battle), func(b *testing.B) {
			b.ReportAllocs()
			cfg := platform.DefaultCollect()
			cfg.Tests = 500
			cfg.BattleForNet = battle
			for i := 0; i < b.N; i++ {
				if _, err := platform.CollectParallelCtx(context.Background(), e.World, cfg, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCongestionReport regenerates the §7-checklist report (the
// library's headline deliverable: every challenge check applied to
// every aggregate) the way the CLI's default report mode does: both
// StreamBuilder passes — MAP-IT, aggregation and matching — over a
// campaign held in memory. The shared corpus is fed as one chunk, so
// its watermark bounds nothing and the last test's minute serves.
func BenchmarkCongestionReport(b *testing.B) {
	e := env(b)
	cfg := report.DefaultConfig()
	tests, traces := e.Corpus.Tests, e.Corpus.Traces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb := report.NewStreamBuilder(cfg, report.MetroHourOf(), e.MapItOpts())
		sb.AddTraces(traces)
		sb.FinishInference()
		sb.AddTests(tests)
		sb.AddMatch(tests, traces, tests[len(tests)-1].StartMinute)
		if r := sb.Finish(e.Corpus.Completeness); len(r.Findings) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkStratified regenerates the §4.3-remedy stratification (E19).
func BenchmarkStratified(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Stratified(e)
	}
}

// BenchmarkBattleForNet regenerates the §2.2 collection-mode
// comparison (includes two fresh campaigns per iteration).
func BenchmarkBattleForNet(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BattleForNet(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponentAblation regenerates E18.
func BenchmarkComponentAblation(b *testing.B) {
	e := env(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Ablation(e)
	}
}

// --- Parallel engine benches: serial vs worker-pool sweeps ---
//
// The worker count comes from -engine.parallel (default GOMAXPROCS;
// the bare name "parallel" is taken by go test itself). Every result
// is byte-identical to the serial run — the knob only changes wall
// time.

var engineWorkers = flag.Int("engine.parallel", runtime.GOMAXPROCS(0),
	"worker count for the parallel engine benchmarks")

// BenchmarkRunAllSerial sweeps every registry experiment on one
// worker (the parallel sweep's baseline; the per-VP cache is warmed so
// both sweeps measure experiment cost, not cache build).
func BenchmarkRunAllSerial(b *testing.B) {
	e := env(b)
	experiments.Fig2(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, _, err := experiments.RunParallelCtx(context.Background(), e, 1); err != nil || len(out) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllParallel sweeps every registry experiment over the
// worker pool; output is byte-identical to BenchmarkRunAllSerial's.
func BenchmarkRunAllParallel(b *testing.B) {
	e := env(b)
	experiments.Fig2(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, _, err := experiments.RunParallelCtx(context.Background(), e, *engineWorkers); err != nil || len(out) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusCollectionParallel measures the sharded campaign with
// the worker pool; the corpus is identical to the serial one.
func BenchmarkCorpusCollectionParallel(b *testing.B) {
	e := env(b)
	cfg := platform.DefaultCollect()
	cfg.Tests = 2000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.CollectParallelCtx(context.Background(), e.World, cfg, *engineWorkers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapItParallel measures MAP-IT with parallel interface-graph
// construction and link extraction.
func BenchmarkMapItParallel(b *testing.B) {
	e := env(b)
	opts := e.MapItOpts()
	opts.Workers = *engineWorkers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inf := mapit.Run(e.Corpus.Traces, opts); len(inf.Links) == 0 {
			b.Fatal("no links")
		}
	}
}
