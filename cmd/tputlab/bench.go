package main

// The benchmark baseline emitter: `tputlab bench` measures the hot
// paths that dominate campaign collection — path resolution, AS-path
// computation, world generation, and end-to-end corpus collection at
// small and medium scale — and writes a BENCH_<date>.json snapshot.
// Committing one snapshot per performance PR gives the repo a
// comparable trajectory (ns/op, allocs/op, wall time) instead of
// ad-hoc numbers in commit messages; `benchstat` compares the raw
// `go test -bench` output between two checkouts when a statistical
// comparison is needed.

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"throughputlab/internal/campaign"
	"throughputlab/internal/checkpoint"
	"throughputlab/internal/export"
	"throughputlab/internal/faults"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
	"throughputlab/internal/routing"
	"throughputlab/internal/topogen"
)

// BenchResult is one measured benchmark in the emitted baseline.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// CollectionResult is one end-to-end corpus-collection measurement.
type CollectionResult struct {
	Scale       string  `json:"scale"`
	Tests       int     `json:"tests"`
	Traces      int     `json:"traces"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	TestsPerSec float64 `json:"tests_per_second"`
}

// FaultOverhead compares corpus collection with the fault plane off
// and under the heavy profile on the same world and config. The off
// number is the cost of the disabled path — the nil-injector branches —
// and must track CorpusCollection/small across baselines (disabled
// faults are designed to cost ~0); the ratio is what a heavy profile's
// retry planning and perturbation add.
type FaultOverhead struct {
	OffNsPerOp   float64 `json:"off_ns_per_op"`
	HeavyNsPerOp float64 `json:"heavy_ns_per_op"`
	HeavyOverOff float64 `json:"heavy_over_off_ratio"`
}

// StreamingResult measures one chunked CollectStream campaign: the
// streamed-collection envelope (chunk count, peak in-flight records)
// next to its throughput, so perf PRs can see both the memory bound
// and the records-per-second cost of streaming.
type StreamingResult struct {
	Scale        string  `json:"scale"`
	Tests        int     `json:"tests"`
	Traces       int     `json:"traces"`
	Chunks       int     `json:"chunks"`
	ChunkTests   int     `json:"chunk_tests"`
	PeakInFlight int     `json:"peak_in_flight"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	TestsPerSec  float64 `json:"tests_per_second"`
}

// CheckpointOverhead compares persisting one streamed campaign through
// a plain corpus writer against the crash-safe checkpointing writer —
// partial-file indirection, chunk-boundary encode-pipeline drains,
// fsync and atomic manifest rewrites at the default cadence, then the
// rename publication — on the same warm world. The corpus bytes are
// identical; the ratio is the durability tax, budgeted at <= 3% and
// held there by CI.
type CheckpointOverhead struct {
	Tests               int     `json:"tests"`
	Rounds              int     `json:"rounds"`
	PlainSeconds        float64 `json:"plain_seconds"`
	CheckpointSeconds   float64 `json:"checkpoint_seconds"`
	CheckpointOverPlain float64 `json:"checkpoint_over_plain_ratio"`
}

// The checkpoint pair runs its own campaign, sized so each leg takes a
// few hundred milliseconds even at small scale: at a 500-test campaign
// (~11 ms a leg) timer and scheduler noise alone moved the ratio by
// more than the 3% budget. The eight chunks keep the shape of the
// original pair: one mid-campaign durability barrier plus publication.
const (
	checkpointPairTests  = 30000
	checkpointPairChunks = 8
	checkpointPairRounds = 11
)

// checkpointOverheadRow measures the plain-vs-checkpointed persist pair
// on a checkpointPairTests campaign over w: each side's median over
// checkpointPairRounds rounds, so one background hiccup cannot swing
// the ratio.
func checkpointOverheadRow(w *topogen.World, cfg platform.CollectConfig, scaleName string, workers int) (*CheckpointOverhead, error) {
	cfg.Tests = checkpointPairTests
	cfg.ChunkTests = checkpointPairTests / checkpointPairChunks
	cfg.Obs = nil // the pair times persistence, not telemetry
	dir, err := os.MkdirTemp("", "tputlab-bench-ckpt")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	pub := export.FromWorld(w, nil).Public
	meta := export.StreamMeta{Scale: scaleName, Seed: cfg.Seed, Tests: cfg.Tests}
	fp := checkpoint.Fingerprint{
		Scale: scaleName, Seed: cfg.Seed, Tests: cfg.Tests,
		Shards: cfg.Shards, ChunkTests: cfg.ChunkTests,
		Faults: cfg.Faults.Name, FaultSeed: cfg.FaultSeed, Format: "columnar",
	}

	plainOnce := func() (float64, error) {
		path := filepath.Join(dir, "plain.corpus")
		f, err := os.Create(path)
		if err != nil {
			return 0, err
		}
		cw, err := export.NewColumnarWriter(f, pub, meta, workers)
		if err != nil {
			f.Close()
			return 0, err
		}
		start := time.Now()
		_, err = platform.CollectStreamCtx(ctx, w, cfg, workers, cw.WriteChunk)
		if err == nil {
			err = cw.Close()
		}
		if cErr := f.Close(); err == nil {
			err = cErr
		}
		return time.Since(start).Seconds(), err
	}
	ckptOnce := func() (float64, error) {
		path := filepath.Join(dir, "ckpt.corpus")
		// Free the previous round's corpus before the clock starts, as
		// the plain leg's truncating Create does; otherwise the
		// publishing rename pays for unlinking it inside the timed leg.
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		cw, err := checkpoint.Create(path, "columnar", pub, meta, fp, workers, checkpoint.Options{})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = platform.CollectStreamCtx(ctx, w, cfg, workers, cw.WriteChunk)
		if err == nil {
			err = cw.Close()
		} else {
			cw.Discard()
		}
		return time.Since(start).Seconds(), err
	}

	// Rounds alternate which leg runs first, and each leg starts from a
	// fresh GC cycle, so neither leg systematically pays for the other's
	// garbage or runs on a warmer cache.
	var plains, ckpts []float64
	legs := [2]func() (float64, error){plainOnce, ckptOnce}
	for i := 0; i < checkpointPairRounds; i++ {
		var secs [2]float64
		for k := 0; k < 2; k++ {
			leg := (i + k) % 2
			runtime.GC()
			s, err := legs[leg]()
			if err != nil {
				return nil, err
			}
			secs[leg] = s
		}
		plains = append(plains, secs[0])
		ckpts = append(ckpts, secs[1])
	}
	co := &CheckpointOverhead{
		Tests:             cfg.Tests,
		Rounds:            checkpointPairRounds,
		PlainSeconds:      medianFloat(plains),
		CheckpointSeconds: medianFloat(ckpts),
	}
	if co.PlainSeconds > 0 {
		co.CheckpointOverPlain = co.CheckpointSeconds / co.PlainSeconds
	}
	return co, nil
}

// medianFloat returns the median of a small sample.
func medianFloat(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// medianResult picks the result with the median per-op wall time.
func medianResult(rs []testing.BenchmarkResult) testing.BenchmarkResult {
	sorted := append([]testing.BenchmarkResult(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].NsPerOp() < sorted[j].NsPerOp() })
	return sorted[len(sorted)/2]
}

// TelemetryOverhead compares corpus collection with telemetry off
// (nil registry) and fully on (registry + simulated-clock sampler +
// event bus) on the same world and config. The corpus is byte-identical
// either way; the ratio is the live-telemetry tax, budgeted at <= 5%.
type TelemetryOverhead struct {
	PlainNsPerOp          float64 `json:"plain_ns_per_op"`
	InstrumentedNsPerOp   float64 `json:"instrumented_ns_per_op"`
	InstrumentedOverPlain float64 `json:"instrumented_over_plain_ratio"`
}

// Baseline is the full emitted document.
type Baseline struct {
	Date       string             `json:"date"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Note       string             `json:"note,omitempty"`
	Benchmarks []BenchResult      `json:"benchmarks"`
	Collection []CollectionResult `json:"collection"`
	// Streaming measures chunked (bounded-memory) collection on the same
	// scales as Collection; present in -quick mode too, so CI can assert
	// the streamed tests/sec and chunk metrics exist.
	Streaming []StreamingResult `json:"streaming"`
	// FaultOverhead is the clean-vs-heavy fault-profile collection pair
	// (absent in -quick mode).
	FaultOverhead *FaultOverhead `json:"fault_overhead,omitempty"`
	// TelemetryOverhead is the plain-vs-fully-instrumented collection
	// pair (present in -quick mode too, so CI can hold the budget).
	TelemetryOverhead *TelemetryOverhead `json:"telemetry_overhead,omitempty"`
	// CheckpointOverhead is the plain-vs-checkpointed corpus-persist
	// pair on the last in-memory scale (present in -quick mode too, so
	// CI can hold the <= 3% durability budget).
	CheckpointOverhead *CheckpointOverhead `json:"checkpoint_overhead,omitempty"`
	// ResolverCacheHitRates records the resolver cache efficiency over
	// the medium-scale collection run, as percentages.
	ResolverCacheHitRates map[string]float64 `json:"resolver_cache_hit_rates"`
	// Observability is the obs registry snapshot of the instrumented
	// end-to-end run (medium scale, or small in -quick mode): the
	// generation/collection phase-span tree, cache and fallback
	// counters, per-shard collection gauges, the simulated-clock time
	// series of the collect counters, and the progress-event totals. It
	// gives future perf PRs per-phase attribution next to the raw
	// numbers.
	Observability *obs.Dump `json:"observability,omitempty"`
}

// resolverRates snapshots a world resolver's cache efficiency as
// percentages.
func resolverRates(r *routing.Resolver) map[string]float64 {
	st := r.Stats()
	rate := func(h, m uint64) float64 {
		if h+m == 0 {
			return 0
		}
		return 100 * float64(h) / float64(h+m)
	}
	return map[string]float64{
		"segment": rate(st.SegmentHits, st.SegmentMisses),
		"inter":   rate(st.InterHits, st.InterMisses),
		"aspath":  rate(st.ASPathHits, st.ASPathMisses),
	}
}

func record(name string, r testing.BenchmarkResult) BenchResult {
	return BenchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

func benchCmd(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "", "output path (default BENCH_<date>.json)")
	note := fs.String("note", "", "free-form note embedded in the baseline")
	mediumTests := fs.Int("medium-tests", 8000, "corpus size for the medium-scale collection measurement")
	workers := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker count for the parallel collection measurement")
	genWorkers := fs.Int("genworkers", runtime.GOMAXPROCS(0), "world-generation worker count for the parallel generation measurement")
	quick := fs.Bool("quick", false, "CI smoke mode: small-scale measurements only")
	streamScale := fs.String("stream-scale", "", "also measure streamed collection at this -scale profile (e.g. large, xlarge)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cmp.Or(campaign.CheckMin("parallel", *workers, 1), campaign.CheckMin("genworkers", *genWorkers, 1)); err != nil {
		return err
	}
	ctx := context.Background()
	date := time.Now().UTC().Format("2006-01-02")
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", date)
	}

	b := &Baseline{
		Date:       date,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       *note,
	}

	// World generation at one worker (comparable with earlier
	// baselines) and at -genworkers; medium scale tracks scaling
	// behaviour and is skipped in -quick mode.
	genScales := []struct {
		name string
		cfg  topogen.Config
	}{{"small", topogen.SmallConfig()}}
	if !*quick {
		genScales = append(genScales, struct {
			name string
			cfg  topogen.Config
		}{"medium", topogen.DefaultConfig()})
	}
	genCounts := []int{1}
	if *genWorkers > 1 {
		genCounts = append(genCounts, *genWorkers)
	}
	for _, gs := range genScales {
		for _, n := range genCounts {
			name := "WorldGeneration/" + gs.name
			if n != 1 {
				name = fmt.Sprintf("%s/w%d", name, n)
			}
			cfg := gs.cfg
			cfg.Workers = n
			fmt.Fprintf(os.Stderr, "bench: world generation (%s, %d workers)...\n", gs.name, n)
			b.Benchmarks = append(b.Benchmarks, record(name, testing.Benchmark(func(tb *testing.B) {
				tb.ReportAllocs()
				for i := 0; i < tb.N; i++ {
					topogen.MustGenerate(cfg)
				}
			})))
		}
	}

	w := topogen.MustGenerate(topogen.SmallConfig())
	households := platform.BuildPopulation(w, 10, 8)
	servers := w.MLabServers()

	fmt.Fprintln(os.Stderr, "bench: resolver (warm cache)...")
	b.Benchmarks = append(b.Benchmarks, record("ResolverResolve/warm", testing.Benchmark(func(tb *testing.B) {
		rng := rand.New(rand.NewSource(1))
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			h := households[rng.Intn(len(households))]
			s := servers[rng.Intn(len(servers))]
			key := routing.FlowKey(s.Endpoint.Addr, h.Endpoint.Addr, uint32(i))
			if _, err := w.Resolver.Resolve(s.Endpoint, h.Endpoint, key); err != nil {
				tb.Fatal(err)
			}
		}
	})))

	fmt.Fprintln(os.Stderr, "bench: resolver (cache disabled)...")
	uncached := routing.New(w.Topo, w.Routes)
	uncached.DisableCache()
	b.Benchmarks = append(b.Benchmarks, record("ResolverResolve/uncached", testing.Benchmark(func(tb *testing.B) {
		rng := rand.New(rand.NewSource(1))
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			h := households[rng.Intn(len(households))]
			s := servers[rng.Intn(len(servers))]
			key := routing.FlowKey(s.Endpoint.Addr, h.Endpoint.Addr, uint32(i))
			if _, err := uncached.Resolve(s.Endpoint, h.Endpoint, key); err != nil {
				tb.Fatal(err)
			}
		}
	})))

	fmt.Fprintln(os.Stderr, "bench: AS-path computation...")
	asns := w.Topo.ASNs()
	b.Benchmarks = append(b.Benchmarks, record("BGPPath", testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			src := asns[i%len(asns)]
			dst := asns[(i*7+3)%len(asns)]
			w.Routes.Path(src, dst)
		}
	})))

	if !*quick {
		fmt.Fprintln(os.Stderr, "bench: corpus collection (small, serial)...")
		smallCfg := platform.DefaultCollect()
		smallCfg.Tests = 2000
		smallCfg.PerPoolClients = 10
		b.Benchmarks = append(b.Benchmarks, record("CorpusCollection/small", testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, err := platform.CollectParallelCtx(ctx, w, smallCfg, 1); err != nil {
					tb.Fatal(err)
				}
			}
		})))

		// Fault-profile pair on the same world/config: the off leg is
		// the disabled (nil-injector) path, the heavy leg adds retry
		// planning, truncation and trace perturbation.
		fmt.Fprintln(os.Stderr, "bench: corpus collection fault overhead (off vs heavy)...")
		heavyCfg := smallCfg
		heavyCfg.Faults = faults.Heavy()
		rOff := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, err := platform.CollectParallelCtx(ctx, w, smallCfg, 1); err != nil {
					tb.Fatal(err)
				}
			}
		})
		rHeavy := testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, err := platform.CollectParallelCtx(ctx, w, heavyCfg, 1); err != nil {
					tb.Fatal(err)
				}
			}
		})
		b.Benchmarks = append(b.Benchmarks,
			record("CorpusCollection/faults-off", rOff),
			record("CorpusCollection/faults-heavy", rHeavy))
		fo := &FaultOverhead{
			OffNsPerOp:   float64(rOff.T.Nanoseconds()) / float64(rOff.N),
			HeavyNsPerOp: float64(rHeavy.T.Nanoseconds()) / float64(rHeavy.N),
		}
		if fo.OffNsPerOp > 0 {
			fo.HeavyOverOff = fo.HeavyNsPerOp / fo.OffNsPerOp
		}
		b.FaultOverhead = fo
	}

	// Telemetry-overhead pair on the same small world: a plain run (nil
	// registry, the disabled no-op path) against a fully telemetered one
	// (registry + simulated-clock sampler + event bus with a discarding
	// sink). The corpus bytes are identical; the ratio is the cost of
	// watching, held to the <= 5% budget by CI.
	fmt.Fprintln(os.Stderr, "bench: corpus collection telemetry overhead (plain vs instrumented)...")
	tCfg := platform.DefaultCollect()
	tCfg.Tests = 2000
	tCfg.PerPoolClients = 10
	if *quick {
		tCfg.Tests = 500
	}
	benchPlain := func() testing.BenchmarkResult {
		return testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, err := platform.CollectParallelCtx(ctx, w, tCfg, 1); err != nil {
					tb.Fatal(err)
				}
			}
		})
	}
	benchInstr := func() testing.BenchmarkResult {
		return testing.Benchmark(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				// Registry construction and bus drain are per-campaign
				// setup, not the collection hot path the budget covers.
				tb.StopTimer()
				reg := obs.NewRegistry()
				reg.EnableTimeSeries(0, 0, nil)
				bus := reg.EnableEvents(4096)
				bus.AddSink(func(obs.Event) {})
				cfg := tCfg
				cfg.Obs = reg
				tb.StartTimer()
				if _, err := platform.CollectParallelCtx(ctx, w, cfg, 1); err != nil {
					tb.Fatal(err)
				}
				tb.StopTimer()
				bus.Close()
				tb.StartTimer()
			}
		})
	}
	// One draw of each is too noisy to hold a 5% budget against on a
	// shared box: alternate three rounds and keep the median ns/op of
	// each side.
	var plains, instrs []testing.BenchmarkResult
	for i := 0; i < 3; i++ {
		plains = append(plains, benchPlain())
		instrs = append(instrs, benchInstr())
	}
	rPlain := medianResult(plains)
	rInstr := medianResult(instrs)
	b.Benchmarks = append(b.Benchmarks,
		record("CorpusCollection/telemetry-off", rPlain),
		record("CorpusCollection/telemetry-on", rInstr))
	to := &TelemetryOverhead{
		PlainNsPerOp:        float64(rPlain.T.Nanoseconds()) / float64(rPlain.N),
		InstrumentedNsPerOp: float64(rInstr.T.Nanoseconds()) / float64(rInstr.N),
	}
	if to.PlainNsPerOp > 0 {
		to.InstrumentedOverPlain = to.InstrumentedNsPerOp / to.PlainNsPerOp
	}
	b.TelemetryOverhead = to

	// End-to-end wall-time measurements on fresh worlds, so cold-cache
	// warm-up is included exactly once per scale.
	scales := []struct {
		name  string
		cfg   topogen.Config
		tests int
	}{
		{"small", topogen.SmallConfig(), 2000},
	}
	if *quick {
		scales[0].tests = 500
	} else {
		scales = append(scales, struct {
			name  string
			cfg   topogen.Config
			tests int
		}{"medium", topogen.DefaultConfig(), *mediumTests})
	}
	for i, scale := range scales {
		fmt.Fprintf(os.Stderr, "bench: end-to-end collection (%s, %d tests, %d workers)...\n",
			scale.name, scale.tests, *workers)
		// The last scale (medium, or small in -quick mode) carries a
		// fully telemetered obs registry, so every baseline — CI smoke
		// included — embeds the phase-span tree, pipeline counters, the
		// simulated-clock time series, and the event totals.
		var reg *obs.Registry
		var bus *obs.Bus
		if i == len(scales)-1 {
			reg = obs.NewRegistry()
			// Allowlist the campaign-level collect series; the per-shard
			// gauges would bloat the committed baseline without adding a
			// trajectory worth tracking.
			reg.EnableTimeSeries(0, 0, func(name string) bool {
				return strings.HasPrefix(name, "collect.") && !strings.HasPrefix(name, "collect.shard.")
			})
			bus = reg.EnableEvents(4096)
			scale.cfg.Obs = reg
		}
		scale.cfg.Workers = *genWorkers
		fw := topogen.MustGenerate(scale.cfg)
		cfg := platform.DefaultCollect()
		cfg.Tests = scale.tests
		cfg.Obs = reg
		start := time.Now()
		corpus, err := platform.CollectParallelCtx(ctx, fw, cfg, *workers)
		if err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		b.Collection = append(b.Collection, CollectionResult{
			Scale: scale.name, Tests: len(corpus.Tests), Traces: len(corpus.Traces),
			Workers: *workers, WallSeconds: wall,
			TestsPerSec: float64(len(corpus.Tests)) / wall,
		})
		// Streamed leg on the same (now warm) world: the chunk size is
		// picked to cut the campaign into ~8 chunks so the chunk metrics
		// are non-trivial even at -quick scale.
		scfg := cfg
		scfg.ChunkTests = scale.tests / 8
		if scfg.ChunkTests < 1 {
			scfg.ChunkTests = 1
		}
		fmt.Fprintf(os.Stderr, "bench: streamed collection (%s, chunk size %d)...\n", scale.name, scfg.ChunkTests)
		sst, err := platform.CollectStreamCtx(ctx, fw, scfg, *workers, func(*platform.Chunk) error { return nil })
		if err != nil {
			return err
		}
		b.Streaming = append(b.Streaming, StreamingResult{
			Scale: scale.name, Tests: sst.Tests, Traces: sst.Traces,
			Chunks: sst.Chunks, ChunkTests: scfg.ChunkTests, PeakInFlight: sst.PeakInFlight,
			Workers: *workers, WallSeconds: sst.WallSeconds, TestsPerSec: sst.TestsPerSec,
		})
		if reg != nil {
			b.ResolverCacheHitRates = resolverRates(fw.Resolver)
			bus.Close() // drain so the event totals are final
			b.Observability = reg.Snapshot()
		}
		// The streamed legs exercised the resolver either way: in -quick
		// mode (no medium run) snapshot the cache efficiency here so the
		// baseline never carries a null rate table.
		if b.ResolverCacheHitRates == nil {
			b.ResolverCacheHitRates = resolverRates(fw.Resolver)
		}
		// Checkpoint overhead on the last (largest) in-memory scale —
		// medium, or small in -quick mode, so CI always has the pair.
		if i == len(scales)-1 {
			fmt.Fprintf(os.Stderr, "bench: checkpoint overhead (%s, %d tests, plain vs checkpointed persist)...\n",
				scale.name, checkpointPairTests)
			co, err := checkpointOverheadRow(fw, cfg, scale.name, *workers)
			if err != nil {
				return err
			}
			b.CheckpointOverhead = co
		}
	}

	// Optional extra streamed-collection measurement at a named scale
	// profile — this is how the large/xlarge campaigns get their
	// streamed tests/sec into the baseline without ever materializing
	// the corpus.
	if *streamScale != "" {
		opts, err := campaign.ScaleOptions(*streamScale)
		if err != nil {
			return err
		}
		opts.Topo.Workers = *genWorkers
		fmt.Fprintf(os.Stderr, "bench: generating %s world (%d workers)...\n", *streamScale, *genWorkers)
		sw := topogen.MustGenerate(opts.Topo)
		cfg := opts.Collect
		chunk := cfg.ChunkTests
		if chunk <= 0 {
			chunk = platform.DefaultChunkTests
		}
		fmt.Fprintf(os.Stderr, "bench: streamed collection (%s, %d tests, %d workers, chunk size %d)...\n",
			*streamScale, cfg.Tests, *workers, chunk)
		sst, err := platform.CollectStreamCtx(ctx, sw, cfg, *workers, func(*platform.Chunk) error { return nil })
		if err != nil {
			return err
		}
		b.Streaming = append(b.Streaming, StreamingResult{
			Scale: *streamScale, Tests: sst.Tests, Traces: sst.Traces,
			Chunks: sst.Chunks, ChunkTests: chunk, PeakInFlight: sst.PeakInFlight,
			Workers: *workers, WallSeconds: sst.WallSeconds, TestsPerSec: sst.TestsPerSec,
		})
		if b.ResolverCacheHitRates == nil {
			b.ResolverCacheHitRates = resolverRates(sw.Resolver)
		}
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	return nil
}
