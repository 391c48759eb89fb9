// Command tputlab regenerates the paper's tables and figures from the
// synthetic Internet.
//
// Usage:
//
//	tputlab list
//	tputlab run <experiment>|all [-scale small|default|large] [-seed N] [-tests N] [-parallel N]
//	tputlab corpus dump FILE
//	tputlab bench [-out FILE] [-note TEXT]
//
// Example:
//
//	tputlab run fig5 -scale small
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"throughputlab/internal/bdrmap"
	"throughputlab/internal/checkpoint"
	"throughputlab/internal/datasets"
	"throughputlab/internal/experiments"
	"throughputlab/internal/export"
	"throughputlab/internal/faults"
	"throughputlab/internal/mapit"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
	"throughputlab/internal/report"
	"throughputlab/internal/stream"
	"throughputlab/internal/topogen"
	"throughputlab/internal/topology"
)

// pipelineDepth bounds each report-pipeline stage's input channel: a
// stalled stage backpressures the producer after this many chunks.
// Depth 1 keeps stages overlapped while holding the fan-out's share of
// resident chunks to one queued plus one in-process per stage.
const pipelineDepth = 1

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		for _, e := range experiments.Registry() {
			fmt.Printf("  %-12s %s\n", e.Name, e.Paper)
		}
	case "run":
		exitOn(runCmd(os.Args[2:]))
	case "report":
		exitOn(reportCmd(os.Args[2:]))
	case "corpus":
		if len(os.Args) != 4 || os.Args[2] != "dump" {
			fmt.Fprintln(os.Stderr, "usage: tputlab corpus dump FILE")
			os.Exit(2)
		}
		exitOn(dumpCorpus(os.Args[3], os.Stdout))
	case "bench":
		if err := benchCmd(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "tputlab:", err)
			os.Exit(1)
		}
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tputlab: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

// exitOn maps a command's error to the process exit code: 0 success,
// 3 for a graceful interrupt (the campaign checkpointed and can be
// resumed — distinct from 1 so wrapper scripts can tell "retry with
// -resume" from "broken"), 1 for everything else. A second signal
// hard-exits 130 from the handler itself.
func exitOn(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "tputlab:", err)
	if errors.Is(err, platform.ErrInterrupted) {
		os.Exit(3)
	}
	os.Exit(1)
}

// signalContext arms cooperative cancellation: the first SIGINT or
// SIGTERM cancels the returned context with platform.ErrInterrupted as
// the cause — generation stops at its next phase boundary, collection
// drains the chunks already claimed and checkpoints — and a second
// signal hard-exits 130 without waiting for the drain.
func signalContext() (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-ch; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "tputlab: interrupt — draining in-flight chunks and checkpointing (interrupt again to abort hard)")
		cancel(platform.ErrInterrupted)
		if _, ok := <-ch; ok {
			os.Exit(130)
		}
	}()
	return ctx, func() {
		signal.Stop(ch)
		close(ch)
		cancel(nil)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tputlab list                                  show available experiments
  tputlab run <name>|all [flags]                regenerate a table/figure
  tputlab report [flags]                        caveat-annotated congestion report (§7 checklist)
  tputlab corpus dump FILE                      print a corpus as NDJSON (tputlab-corpus/1) for jq
  tputlab bench [-out FILE] [-note TEXT]        write a BENCH_<date>.json performance baseline

flags for run/report:
  -scale NAME            topology/corpus scale: small, default, medium,
                         large (~50k ASes) or xlarge (~75k ASes, one
                         million scheduled tests); default "default"
  -json                  (run, one experiment) emit the result struct
                         as JSON
  -corpus-out FILE       persist the corpus to FILE as a chunked
                         columnar corpus (tputlab-corpus/2) while it is
                         collected (bounded memory; readable later by
                         'report -corpus', printable as text by
                         'corpus dump')
  -corpus-format FORMAT  corpus file format; columnar, the only one,
                         is the default
  -stream                (report) re-collect the campaign for each of
                         the report's two passes: a few chunks resident
                         (bounded memory) for twice the collection work.
                         Without it the campaign is collected once and
                         kept resident for both passes. The report is
                         byte-identical either way
  -corpus FILE           (report) report over a corpus previously
                         persisted with -corpus-out, without
                         re-collecting (no world generation); the
                         identity flags (scale/seed/tests/faults/...)
                         come from the corpus header and may not be
                         repeated
  -resume MANIFEST       continue an interrupted -corpus-out campaign
                         from its checkpoint manifest: the identity
                         flags (scale/seed/tests/faults/...) come from
                         the manifest and may not be repeated; the
                         published corpus and report are byte-identical
                         to an uninterrupted run
  -chunk-tests N         streamed-collection chunk size in scheduled
                         tests (0 = platform default); not part of the
                         corpus identity, but checkpoints land on chunk
                         boundaries
  -checkpoint-every N    with -corpus-out, chunks between durability
                         barriers (fsync + manifest update); default 8,
                         1 checkpoints at every chunk boundary
  -seed N                generation seed (default 1)
  -tests N               NDT corpus size (0 = scale default)
  -parallel N            engine worker count (default GOMAXPROCS);
                         results are identical for every N
  -genworkers N          world-generation worker count (default
                         GOMAXPROCS); the world is byte-identical
                         for every N
  -faults PROFILE        deterministic fault injection: off (default),
                         light, moderate or heavy; degraded data is
                         skipped by inference and accounted in the
                         report's data-completeness section
  -faultseed N           seed for the fault streams (default: -seed);
                         a fixed profile+seed yields a byte-identical
                         corpus at every -parallel value
  -metrics               print the phase-span tree and pipeline metrics
                         (cache hit rates, per-shard counts, fallbacks)
                         to stderr; stdout stays byte-identical
  -metrics-json FILE     write the metrics registry dump as JSON
  -events FILE           stream progress events (chunk publications,
                         pipeline stages, fault retries, report passes)
                         to FILE as NDJSON; ends with campaign.done
  -progress              render live progress events to stderr
  -trace-out FILE        write the phase-span tree as Chrome
                         trace_event JSON, loadable in Perfetto
  -telemetry-addr ADDR   serve live telemetry over HTTP while running:
                         /metrics (Prometheus text), /spans, /series,
                         /trace, /dump, /debug/pprof/
  -telemetry-linger DUR  keep the telemetry endpoint up DUR after the
                         run (e.g. 30s), for scrapes of the final state

telemetry never changes results: corpus and report bytes are identical
with every combination of the flags above on or off

exit codes: 0 success; 1 error; 2 usage; 3 interrupted after a durable
checkpoint (resume with -resume); 130 hard abort (second signal)`)
}

// scaleOptions maps a -scale value to its environment options; unknown
// values are a usage error, and run and report accept the same set.
// large (~50k ASes) and xlarge (~75k ASes, a million scheduled tests)
// are sized for the streaming pipeline: run them with -stream or
// -corpus-out so the corpus never has to be resident all at once.
func scaleOptions(scale string) (experiments.Options, error) {
	switch scale {
	case "default":
		return experiments.DefaultOptions(), nil
	case "small":
		return experiments.QuickOptions(), nil
	case "medium":
		opts := experiments.DefaultOptions()
		opts.Topo.Scale = datasets.MediumScale()
		return opts, nil
	case "large":
		opts := experiments.DefaultOptions()
		opts.Topo.Scale = datasets.LargeScale()
		return opts, nil
	case "xlarge":
		opts := experiments.DefaultOptions()
		opts.Topo.Scale = datasets.XLargeScale()
		opts.Collect.Tests = 1_000_000
		return opts, nil
	default:
		return experiments.Options{}, fmt.Errorf("invalid -scale %q (valid: small, default, medium, large, xlarge)", scale)
	}
}

// commonFlags is the flag/Options-building block shared by runCmd and
// reportCmd (it was duplicated verbatim between them before).
type commonFlags struct {
	scale        *string
	seed         *int64
	tests        *int
	workers      *int
	genWorkers   *int
	corpusFormat *string
	faults       *string
	faultSeed    *int64
	chunkTests   *int
	resume       *string
	ckptEvery    *int
	metrics      *bool
	metricsJSON  *string

	events        *string
	progress      *bool
	traceOut      *string
	telemetryAddr *string
	linger        *time.Duration

	// Runtime telemetry state built by options(): the -events file (nil
	// when unused) and the -telemetry-addr server (nil when unused).
	eventsFile *os.File
	server     *obs.TelemetryServer
}

// addCommonFlags registers the run/report flag set on fs.
func addCommonFlags(fs *flag.FlagSet) *commonFlags {
	return &commonFlags{
		scale:        fs.String("scale", "default", "small, default, medium, large or xlarge"),
		seed:         fs.Int64("seed", 1, "generation seed"),
		tests:        fs.Int("tests", 0, "NDT corpus size override"),
		workers:      fs.Int("parallel", runtime.GOMAXPROCS(0), "engine worker count"),
		genWorkers:   fs.Int("genworkers", runtime.GOMAXPROCS(0), "world-generation worker count"),
		corpusFormat: fs.String("corpus-format", "", "corpus file format: columnar, the only one (the default)"),
		faults:       fs.String("faults", "off", "fault-injection profile: off, light, moderate or heavy"),
		faultSeed:    fs.Int64("faultseed", 0, "fault-injection seed (0 = generation seed)"),
		chunkTests:   fs.Int("chunk-tests", 0, "streamed-collection chunk size in scheduled tests (0 = platform default)"),
		resume:       fs.String("resume", "", "continue an interrupted campaign from this checkpoint manifest"),
		ckptEvery:    fs.Int("checkpoint-every", 0, "chunks between -corpus-out durability barriers (0 = default 8)"),
		metrics:      fs.Bool("metrics", false, "print phase spans and pipeline metrics to stderr"),
		metricsJSON:  fs.String("metrics-json", "", "write the metrics registry dump to this file as JSON"),

		events:        fs.String("events", "", "write the progress event stream to this file as NDJSON"),
		progress:      fs.Bool("progress", false, "render live progress events to stderr"),
		traceOut:      fs.String("trace-out", "", "write the span tree as Chrome trace_event JSON (Perfetto-loadable)"),
		telemetryAddr: fs.String("telemetry-addr", "", "serve /metrics, /spans, /series, /trace and /debug/pprof on this address while running"),
		linger:        fs.Duration("telemetry-linger", 0, "keep the -telemetry-addr endpoint up this long after the run completes"),
	}
}

// validateWorkers rejects non-positive worker counts with a usage-style
// error naming the flag, instead of silently clamping (a -parallel 0
// passed by a wrapper script is a bug worth surfacing, not a request
// for serial execution).
func validateWorkers(flagName string, n int) error {
	if n < 1 {
		return fmt.Errorf("-%s must be >= 1 (got %d)", flagName, n)
	}
	return nil
}

// options assembles the experiment Options from the parsed flags,
// attaching a fresh obs registry when metrics were requested (nil
// otherwise, which disables instrumentation throughout the pipeline).
func (cf *commonFlags) options() (experiments.Options, *obs.Registry, error) {
	opts, err := scaleOptions(*cf.scale)
	if err != nil {
		return experiments.Options{}, nil, err
	}
	if err := validateWorkers("parallel", *cf.workers); err != nil {
		return experiments.Options{}, nil, err
	}
	if err := validateWorkers("genworkers", *cf.genWorkers); err != nil {
		return experiments.Options{}, nil, err
	}
	if err := export.CheckFormat(*cf.corpusFormat); err != nil {
		return experiments.Options{}, nil, fmt.Errorf("invalid -corpus-format: %w", err)
	}
	if *cf.chunkTests < 0 {
		return experiments.Options{}, nil, fmt.Errorf("-chunk-tests must be >= 0 (got %d)", *cf.chunkTests)
	}
	if *cf.ckptEvery < 0 {
		return experiments.Options{}, nil, fmt.Errorf("-checkpoint-every must be >= 0 (got %d)", *cf.ckptEvery)
	}
	prof, err := faults.ByName(*cf.faults)
	if err != nil {
		return experiments.Options{}, nil, err
	}
	opts.Topo.Seed = *cf.seed
	opts.Topo.Workers = *cf.genWorkers
	if *cf.tests > 0 {
		opts.Collect.Tests = *cf.tests
	}
	opts.Collect.Faults = prof
	opts.Collect.FaultSeed = *cf.faultSeed
	opts.Collect.ChunkTests = *cf.chunkTests
	opts.Workers = *cf.workers
	var reg *obs.Registry
	if *cf.metrics || *cf.metricsJSON != "" || *cf.events != "" || *cf.progress ||
		*cf.traceOut != "" || *cf.telemetryAddr != "" {
		reg = obs.NewRegistry()
		opts.Obs = reg
		// The simulated-clock sampler rides every instrumented run: one
		// point per simulated hour, skipping the per-shard and pipeline
		// plumbing gauges whose cardinality would drown a dashboard.
		reg.EnableTimeSeries(0, 0, func(name string) bool {
			return !strings.HasPrefix(name, "collect.shard.") && !strings.HasPrefix(name, "pipeline.")
		})
		if *cf.events != "" || *cf.progress {
			bus := reg.EnableEvents(4096)
			if *cf.events != "" {
				f, err := os.Create(*cf.events)
				if err != nil {
					return experiments.Options{}, nil, err
				}
				cf.eventsFile = f
				bus.AddSink(obs.NewNDJSONSink(f))
			}
			if *cf.progress {
				bus.AddSink(obs.NewProgressSink(os.Stderr, 0))
			}
		}
		if *cf.telemetryAddr != "" {
			srv, err := reg.ServeTelemetry(*cf.telemetryAddr)
			if err != nil {
				return experiments.Options{}, nil, err
			}
			cf.server = srv
			fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/ (metrics, spans, series, trace, pprof)\n", srv.Addr())
		}
	}
	return opts, reg, nil
}

// emitMetrics finishes the telemetry for a run: it publishes the
// terminal event — campaign.done, or campaign.interrupted when the run
// was cancelled after a durable checkpoint — drains and closes the
// event bus (so the -events NDJSON stream is complete before the file
// is sealed), renders the registry per the flags — the human summary
// to stderr (-metrics), the JSON dump to a file (-metrics-json), the
// Chrome trace to a file (-trace-out) — and finally lets the
// -telemetry-addr endpoint linger for scrapes before shutting it down.
// stdout is never touched, so experiment output stays byte-identical.
func (cf *commonFlags) emitMetrics(reg *obs.Registry, runErr error) error {
	if reg == nil {
		return nil
	}
	if bus := reg.Events(); bus != nil {
		if errors.Is(runErr, platform.ErrInterrupted) {
			bus.Publish("campaign.interrupted", "", -1, 1)
		} else if runErr == nil {
			bus.Publish("campaign.done", "", -1, 1)
		}
		bus.Close()
	}
	if *cf.metrics {
		fmt.Fprint(os.Stderr, reg.Summary())
	}
	if *cf.metricsJSON != "" {
		if err := writeFileWith(*cf.metricsJSON, reg.WriteJSON); err != nil {
			return err
		}
	}
	if *cf.traceOut != "" {
		if err := writeFileWith(*cf.traceOut, reg.WriteTrace); err != nil {
			return err
		}
	}
	if cf.eventsFile != nil {
		if err := cf.eventsFile.Close(); err != nil {
			return err
		}
	}
	if cf.server != nil {
		if *cf.linger > 0 {
			fmt.Fprintf(os.Stderr, "telemetry: lingering %s on http://%s/\n", *cf.linger, cf.server.Addr())
			time.Sleep(*cf.linger)
		}
		cf.server.Close()
	}
	return nil
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func reportCmd(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	cf := addCommonFlags(fs)
	streamed := fs.Bool("stream", false, "re-collect the campaign for each report pass instead of keeping it in memory")
	corpusIn := fs.String("corpus", "", "report over a persisted corpus stream instead of collecting")
	corpusOut := fs.String("corpus-out", "", "persist the corpus to this file while collecting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stopSignals := signalContext()
	defer stopSignals()

	var out string
	var reg *obs.Registry
	var err error
	switch {
	case *cf.resume != "":
		if err := checkIdentityFlags(fs, "-resume", "manifest"); err != nil {
			return err
		}
		if *corpusIn != "" || *corpusOut != "" || *streamed {
			return fmt.Errorf("-resume is incompatible with -corpus, -corpus-out and -stream (the corpus path and assembly come from the manifest)")
		}
		var c *campaign
		c, reg, err = resumeCampaign(ctx, cf)
		if err == nil {
			out, err = reportStreamed(c.world, c.opts, c.replay, nil)
		}
	case *corpusIn != "":
		if *corpusOut != "" {
			return fmt.Errorf("-corpus and -corpus-out are mutually exclusive (the stream already exists)")
		}
		if err := checkIdentityFlags(fs, "-corpus", "corpus header"); err != nil {
			return err
		}
		var opts experiments.Options
		opts, reg, err = cf.options()
		if err != nil {
			return err
		}
		out, err = reportFromCorpus(*corpusIn, opts)
	default:
		var opts experiments.Options
		opts, reg, err = cf.options()
		if err != nil {
			return err
		}
		out, err = reportLive(ctx, opts, *cf.scale, *corpusOut, *cf.ckptEvery, *streamed)
	}
	if err != nil {
		return finish(cf, reg, err)
	}
	fmt.Println(out)
	return finish(cf, reg, nil)
}

// finish folds telemetry emission into a command's return: the run
// error (nil, interrupted, or failed) picks the terminal event, and an
// emission failure only surfaces when the run itself succeeded.
func finish(cf *commonFlags, reg *obs.Registry, runErr error) error {
	if err := cf.emitMetrics(reg, runErr); runErr == nil {
		runErr = err
	}
	return runErr
}

// fingerprintFromOpts assembles the campaign-identity fingerprint the
// checkpoint manifest pins a partial corpus to.
func fingerprintFromOpts(scale string, opts experiments.Options, format string) checkpoint.Fingerprint {
	return checkpoint.Fingerprint{
		Scale:      scale,
		Seed:       opts.Topo.Seed,
		Tests:      opts.Collect.Tests,
		Shards:     opts.Collect.Shards,
		ChunkTests: opts.Collect.ChunkTests,
		Faults:     opts.Collect.Faults.Name,
		FaultSeed:  opts.Collect.FaultSeed,
		Format:     format,
	}
}

// identityFlagConflicts returns the campaign-identity flags that were
// explicitly set, in lexical order. -resume takes those values from
// the manifest and -corpus from the corpus header; repeating them is
// either redundant or a silent request for a different corpus, so both
// fail fast with every offending flag named.
func identityFlagConflicts(fs *flag.FlagSet) []string {
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale", "seed", "tests", "faults", "faultseed", "corpus-format", "chunk-tests":
			bad = append(bad, "-"+f.Name)
		}
	})
	return bad
}

// checkIdentityFlags rejects an invocation of mode (-resume or -corpus)
// that also sets identity flags, which source pins.
func checkIdentityFlags(fs *flag.FlagSet, mode, source string) error {
	if bad := identityFlagConflicts(fs); len(bad) > 0 {
		return fmt.Errorf("%s pins the campaign identity from the %s; drop the conflicting flag(s): %s",
			mode, source, strings.Join(bad, ", "))
	}
	return nil
}

// corpusTee is an open -corpus-out corpus: its checkpointing writer and
// the path the finished corpus is published at. A nil *corpusTee
// persists nothing, and its seal passes the campaign error through.
type corpusTee struct {
	w    *checkpoint.Writer
	path string
}

// openCorpus wires -corpus-out through the checkpoint layer, or returns
// nil when path is empty: every chunk written is persisted into
// path+".partial" with periodic chunk-boundary checkpoints
// (encode-pipeline drain, fsync, atomic manifest rewrite), and the
// corpus appears at path only through seal's footer-then-rename — so
// the readable path is always absent, a complete prior corpus, or a
// complete current one.
func openCorpus(path string, w *topogen.World, opts experiments.Options, scale string, every int) (*corpusTee, error) {
	if path == "" {
		return nil, nil
	}
	const format = "columnar"
	cw, err := checkpoint.Create(path, format, export.FromWorld(w, nil).Public,
		export.StreamMeta{Scale: scale, Seed: opts.Topo.Seed, Tests: opts.Collect.Tests},
		fingerprintFromOpts(scale, opts, format), opts.Workers,
		checkpoint.Options{SyncEveryChunks: every})
	if err != nil {
		return nil, err
	}
	return &corpusTee{w: cw, path: path}, nil
}

// write persists one chunk.
func (t *corpusTee) write(c *platform.Chunk) error {
	if t == nil {
		return nil
	}
	return t.w.WriteChunk(c)
}

// seal ends the corpus with the campaign's error and returns the error
// to propagate; it must be called exactly once. nil publishes
// atomically and removes the manifest; an interrupt flushes a final
// checkpoint and keeps the partial corpus plus manifest for -resume
// (printing the hint); any other error discards both so the first
// failure propagates with nothing half-written left behind.
func (t *corpusTee) seal(runErr error) error {
	if t == nil {
		return runErr
	}
	switch {
	case runErr == nil:
		ft := t.w.Footer()
		if err := t.w.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "corpus: wrote %s (%d chunks, %d tests, %d traces)\n",
			t.path, ft.Chunks, ft.Tests, ft.Traces)
		return nil
	case errors.Is(runErr, platform.ErrInterrupted):
		mpath, err := t.w.Interrupt()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tputlab: checkpoint flush on interrupt failed:", err)
			return runErr
		}
		d := t.w.Durable()
		fmt.Fprintf(os.Stderr, "corpus: interrupted with %d chunks (%d tests) durable; continue with:\n  tputlab report -resume %s\n",
			d.Chunks, d.Tests, mpath)
		return runErr
	default:
		t.w.Discard()
		return runErr
	}
}

// campaign is a collected campaign held in memory: the world, the
// options it ran under, and every published chunk in publication order.
type campaign struct {
	opts   experiments.Options
	world  *topogen.World
	chunks []*platform.Chunk
}

// generateWorld wires opts' registry through generation and collection
// and builds the campaign's world.
func generateWorld(ctx context.Context, opts *experiments.Options) (*topogen.World, error) {
	opts.Topo.Obs = opts.Obs
	opts.Collect.Obs = opts.Obs
	return topogen.GenerateCtx(ctx, opts.Topo)
}

// collectCampaign generates the world and runs the campaign once,
// retaining every chunk and persisting each to corpusOut (when set) as
// it is published.
func collectCampaign(ctx context.Context, opts experiments.Options, scale, corpusOut string, every int) (*campaign, error) {
	w, err := generateWorld(ctx, &opts)
	if err != nil {
		return nil, err
	}
	tee, err := openCorpus(corpusOut, w, opts, scale, every)
	if err != nil {
		return nil, err
	}
	c := &campaign{opts: opts, world: w}
	if err := tee.seal(c.collect(ctx, 0, tee)); err != nil {
		return nil, err
	}
	return c, nil
}

// collect runs the campaign from chunk startChunk on, appending every
// published chunk to c.chunks and writing it to tee.
func (c *campaign) collect(ctx context.Context, startChunk int, tee *corpusTee) error {
	cfg := c.opts.Collect
	cfg.StartChunk = startChunk
	_, err := platform.CollectStreamCtx(ctx, c.world, cfg, c.opts.Workers, func(ch *platform.Chunk) error {
		c.chunks = append(c.chunks, ch)
		return tee.write(ch)
	})
	return err
}

// replay is the retained campaign as a chunkSource.
func (c *campaign) replay(fn func(*platform.Chunk) error) (platform.Completeness, error) {
	var comp platform.Completeness
	for _, ch := range c.chunks {
		if err := fn(ch); err != nil {
			return comp, err
		}
		comp.Merge(ch.Completeness)
	}
	return comp, nil
}

// env concatenates the retained chunks into the corpus the experiments
// read and runs their shared inference over it.
func (c *campaign) env() *experiments.Env {
	corpus := &platform.Corpus{}
	for _, ch := range c.chunks {
		corpus.Tests = append(corpus.Tests, ch.Tests...)
		corpus.Traces = append(corpus.Traces, ch.Traces...)
		corpus.TestsWithoutTrace += ch.TestsWithoutTrace
		corpus.Completeness.Merge(ch.Completeness)
	}
	return experiments.NewEnvWithCorpus(c.opts, c.world, corpus)
}

// resumeCampaign is `-resume MANIFEST`: it rebuilds the interrupted
// campaign end to end — identity flags adopted from the manifest's
// fingerprint, world regenerated and verified against the recorded
// world hash, the durable corpus prefix replayed off disk into memory,
// collection restarted at the first non-durable chunk with the suffix
// appended to the partial file, and the corpus published atomically on
// completion. The returned campaign holds the spliced chunk stream,
// identical to an uninterrupted run's. A second interrupt mid-resume
// checkpoints again and keeps the manifest, so resume composes with
// itself.
func resumeCampaign(ctx context.Context, cf *commonFlags) (*campaign, *obs.Registry, error) {
	m, err := checkpoint.LoadManifest(*cf.resume)
	if err != nil {
		return nil, nil, err
	}
	// Adopt the manifest's identity before building Options, so scale
	// defaults, fault profiles and telemetry wiring all flow through the
	// one flag path. Conflicting explicit flags were rejected already.
	fp := m.Fingerprint
	*cf.scale = fp.Scale
	*cf.seed = fp.Seed
	*cf.tests = fp.Tests
	*cf.faults = fp.Faults
	if fp.Faults == "" {
		*cf.faults = "off"
	}
	*cf.faultSeed = fp.FaultSeed
	*cf.chunkTests = fp.ChunkTests
	*cf.corpusFormat = fp.Format
	opts, reg, err := cf.options()
	if err != nil {
		return nil, reg, err
	}
	opts.Collect.Shards = fp.Shards

	fmt.Fprintf(os.Stderr, "resuming campaign from %s: %d of %d tests durable, regenerating world (scale=%s seed=%d)...\n",
		*cf.resume, m.Durable.Tests, fp.Tests, fp.Scale, fp.Seed)
	w, err := generateWorld(ctx, &opts)
	if err != nil {
		return nil, reg, err
	}

	c := &campaign{opts: opts, world: w}
	cw, err := checkpoint.Resume(m, export.FromWorld(w, nil).Public,
		export.StreamMeta{Scale: fp.Scale, Seed: fp.Seed, Tests: opts.Collect.Tests},
		fingerprintFromOpts(fp.Scale, opts, fp.Format), opts.Workers,
		checkpoint.Options{SyncEveryChunks: *cf.ckptEvery},
		func(sc *export.StreamChunk) error {
			c.chunks = append(c.chunks, &platform.Chunk{
				Index: sc.Chunk, Tests: sc.Tests, Traces: sc.Traces,
				TestsWithoutTrace: sc.TestsWithoutTrace, Completeness: sc.Completeness,
				Watermark: sc.Watermark,
			})
			return nil
		})
	if err != nil {
		return nil, reg, err
	}
	tee := &corpusTee{w: cw, path: m.CorpusFinal}
	if err := tee.seal(c.collect(ctx, m.Durable.Chunks, tee)); err != nil {
		return nil, reg, err
	}
	return c, reg, nil
}

// chunkSource feeds one campaign's chunks to fn in publication order
// and returns the campaign's completeness ledger. reportStreamed calls
// it once per builder pass.
type chunkSource func(fn func(*platform.Chunk) error) (platform.Completeness, error)

// reportLive is the live `report`. By default it collects the campaign
// once and both builder passes replay the retained chunks: one
// collection, with the corpus resident. With -stream (recollect) each
// pass re-collects the deterministic campaign instead: two
// collections, with only a few chunks resident. The rendered reports
// are byte-identical.
func reportLive(ctx context.Context, opts experiments.Options, scale, corpusOut string, every int, recollect bool) (string, error) {
	if !recollect {
		c, err := collectCampaign(ctx, opts, scale, corpusOut, every)
		if err != nil {
			return "", err
		}
		return reportStreamed(c.world, c.opts, c.replay, nil)
	}
	w, err := generateWorld(ctx, &opts)
	if err != nil {
		return "", err
	}
	tee, err := openCorpus(corpusOut, w, opts, scale, every)
	if err != nil {
		return "", err
	}
	collect := func(fn func(*platform.Chunk) error) (platform.Completeness, error) {
		st, err := platform.CollectStreamCtx(ctx, w, opts.Collect, opts.Workers, fn)
		if err != nil {
			return platform.Completeness{}, err
		}
		return st.Completeness, nil
	}
	return reportStreamed(w, opts, collect, tee)
}

// reportStreamed assembles the report from a live campaign's chunks: it
// calls src once per StreamBuilder pass, and each pass fans its
// consumers out on their own goroutines behind bounded channels. Pass 1
// feeds operator inference and, when tee is set, persists the corpus
// (sealed before pass 2 starts); pass 2 overlaps per-test aggregation,
// trace matching, and the bdrmap border accumulator. The rendered
// report is the same for every source, chunk size and -parallel value.
func reportStreamed(w *topogen.World, opts experiments.Options, src chunkSource, tee *corpusTee) (string, error) {
	reg := opts.Obs
	mopts := export.FromWorld(w, nil).Lookups().MapItOpts()
	mopts.Workers = max(opts.Workers, 1)
	mopts.Obs = reg
	b := report.NewStreamBuilder(report.DefaultConfig(), report.MetroHourOf(), mopts)

	p1 := []stream.Stage[*platform.Chunk]{{
		Name: "mapit",
		Fn:   func(c *platform.Chunk) error { b.AddTraces(c.Traces); return nil },
	}}
	if tee != nil {
		p1 = append(p1, stream.Stage[*platform.Chunk]{Name: "export", Fn: tee.write})
	}
	pipe := stream.NewPipeline("pass1", pipelineDepth, reg, p1...)
	_, err := src(pipe.Send)
	if cErr := pipe.Close(); err == nil {
		err = cErr
	}
	if err = tee.seal(err); err != nil {
		return "", err
	}
	inf := b.FinishInference()

	// The border accumulator shares the sealed inference; its result
	// surfaces through gauges only, so stdout is the same with or
	// without it.
	acc := bdrmapAccumulator(w, inf, mopts)
	pipe = stream.NewPipeline("pass2", pipelineDepth, reg,
		stream.Stage[*platform.Chunk]{Name: "aggregate",
			Fn: func(c *platform.Chunk) error { b.AddTests(c.Tests); return nil }},
		stream.Stage[*platform.Chunk]{Name: "match",
			Fn: func(c *platform.Chunk) error { b.AddMatch(c.Tests, c.Traces, c.Watermark); return nil }},
		stream.Stage[*platform.Chunk]{Name: "bdrmap",
			Fn: func(c *platform.Chunk) error { acc.Add(c.Traces); return nil }},
	)
	comp, err := src(pipe.Send)
	if cErr := pipe.Close(); err == nil {
		err = cErr
	}
	if err != nil {
		return "", err
	}
	if reg != nil {
		reg.Gauge("bdrmap.neighbors").Set(int64(len(acc.Result().Borders)))
	}
	sp := reg.Span("report")
	out := b.Finish(comp).Render()
	sp.End()
	return out, nil
}

// bdrmapAccumulator arms a border accumulator over the streamed
// campaign's inference from the M-Lab host networks' point of view —
// the VP-side org whose interconnects the paper's border analysis
// cares about.
func bdrmapAccumulator(w *topogen.World, inf *mapit.Inference, mopts mapit.Opts) *bdrmap.BorderAccumulator {
	seen := map[topology.ASN]bool{}
	var org []topology.ASN
	for _, srv := range w.MLabServers() {
		if asn, ok := w.Topo.OriginOf(srv.Endpoint.Addr); ok && !seen[asn] {
			seen[asn] = true
			org = append(org, asn)
		}
	}
	az := bdrmap.NewAnalyzerFromInference(inf, bdrmap.Opts{OrgASNs: org, MapIt: mopts})
	return az.NewBorderAccumulator()
}

// reportFromCorpus is `report -corpus FILE`: the same two-pass chunked
// assembly, but replaying a persisted corpus instead of collecting —
// no world is generated; the header's public bundle supplies the
// MAP-IT lookups, the static metro table supplies local hours, and the
// footer supplies the completeness ledger. Chunk decoding runs on
// -parallel workers, and pass 2's consumers overlap on a pipeline.
// Pass 1 only needs traces, so it opens with a traces-only projection
// and never parses a test stripe — the bulk of the reload cost saved.
func reportFromCorpus(path string, opts experiments.Options) (string, error) {
	reg := opts.Obs
	workers := max(opts.Workers, 1)
	// pass replays the whole corpus, a few decoded chunks resident at a
	// time: onHeader sees the parsed header before any chunk, fn sees
	// every chunk, and the returned reader carries the footer.
	pass := func(proj export.Projection, onHeader func(export.CorpusReader), fn func(*export.StreamChunk) error) (export.CorpusReader, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		cr, err := export.OpenCorpusProjected(f, workers, proj)
		if err != nil {
			return nil, err
		}
		defer cr.Close()
		if onHeader != nil {
			onHeader(cr)
		}
		for {
			c, err := cr.Next()
			if err == io.EOF {
				return cr, nil
			}
			if err != nil {
				return nil, err
			}
			if err := fn(c); err != nil {
				return nil, err
			}
		}
	}

	// Pass 1: operator inference, with the builder armed from the
	// header's public bundle (the corpus's replacement for the world).
	var b *report.StreamBuilder
	if _, err := pass(export.Projection{Traces: true}, func(cr export.CorpusReader) {
		mopts := (&export.Dataset{Public: *cr.Public()}).Lookups().MapItOpts()
		mopts.Workers = workers
		mopts.Obs = reg
		b = report.NewStreamBuilder(report.DefaultConfig(), report.MetroHourOf(), mopts)
	}, func(c *export.StreamChunk) error {
		b.AddTraces(c.Traces)
		return nil
	}); err != nil {
		return "", err
	}
	b.FinishInference()

	// Pass 2: per-test aggregation and matching overlap on their own
	// goroutines, then the footer's campaign ledger closes the report.
	pipe := stream.NewPipeline("pass2", pipelineDepth, reg,
		stream.Stage[*export.StreamChunk]{Name: "aggregate",
			Fn: func(c *export.StreamChunk) error { b.AddTests(c.Tests); return nil }},
		stream.Stage[*export.StreamChunk]{Name: "match",
			Fn: func(c *export.StreamChunk) error { b.AddMatch(c.Tests, c.Traces, c.Watermark); return nil }},
	)
	sr, err := pass(export.EverythingProjection(), nil, pipe.Send)
	if cErr := pipe.Close(); err == nil {
		err = cErr
	}
	if err != nil {
		return "", err
	}
	sp := reg.Span("report")
	out := b.Finish(sr.Footer().Completeness).Render()
	sp.End()
	return out, nil
}

// dumpCorpus is `corpus dump FILE`: it prints a persisted corpus to w
// as the tputlab-corpus/1 NDJSON stream, for jq.
func dumpCorpus(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cr, err := export.OpenCorpusProjected(f, runtime.GOMAXPROCS(0), export.EverythingProjection())
	if err != nil {
		return err
	}
	defer cr.Close()
	bw := bufio.NewWriterSize(w, 1<<20)
	err = export.Dump(bw, cr)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

func runCmd(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("run requires an experiment name (try 'tputlab list')")
	}
	name := args[0]
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cf := addCommonFlags(fs)
	asJSON := fs.Bool("json", false, "emit the result struct as JSON instead of a table")
	corpusOut := fs.String("corpus-out", "", "persist the corpus to this file while collecting")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	// Resolve the name before any world is generated or corpus
	// collected (or published with -corpus-out).
	entry, ok := experiments.Find(name)
	if !ok && name != "all" {
		return fmt.Errorf("unknown experiment %q (try 'tputlab list')", name)
	}
	if name == "all" && *asJSON {
		return fmt.Errorf("-json emits one experiment's result struct; 'run all' prints text tables only")
	}
	ctx, stopSignals := signalContext()
	defer stopSignals()

	var c *campaign
	var reg *obs.Registry
	start := time.Now()
	if *cf.resume != "" {
		if err := checkIdentityFlags(fs, "-resume", "manifest"); err != nil {
			return err
		}
		if *corpusOut != "" {
			return fmt.Errorf("-resume is incompatible with -corpus-out (the corpus path comes from the manifest)")
		}
		var err error
		c, reg, err = resumeCampaign(ctx, cf)
		if err != nil {
			return finish(cf, reg, err)
		}
	} else {
		opts, r, err := cf.options()
		reg = r
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "generating world (scale=%s seed=%d parallel=%d)...\n", *cf.scale, *cf.seed, *cf.workers)
		if c, err = collectCampaign(ctx, opts, *cf.scale, *corpusOut, *cf.ckptEvery); err != nil {
			return finish(cf, reg, err)
		}
	}
	env := c.env()
	fmt.Fprintf(os.Stderr, "world: %s\n", env.World.Topo.CollectStats())
	fmt.Fprintf(os.Stderr, "platforms: %d M-Lab servers, %d Speedtest servers; corpus: %d tests, %d traces (%.1fs)\n",
		len(env.World.MLabServers()), len(env.World.Speedtest),
		len(env.Corpus.Tests), len(env.Corpus.Traces), time.Since(start).Seconds())

	if name == "all" {
		out, stats, err := experiments.RunParallelCtx(ctx, env, *cf.workers)
		fmt.Print(out)
		fmt.Fprint(os.Stderr, stats.Summary())
		return finish(cf, reg, err)
	}
	sp := reg.Span("experiments")
	child := sp.Child(entry.Name)
	res, err := entry.Run(env)
	child.End()
	sp.End()
	if err != nil {
		return finish(cf, reg, err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(res); err != nil {
			return err
		}
		return finish(cf, reg, nil)
	}
	fmt.Println(res.Render())
	return finish(cf, reg, nil)
}
