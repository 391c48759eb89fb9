// Command tputlab regenerates the paper's tables and figures, and the
// §7 congestion report, from the synthetic Internet. It translates
// flags into a campaign.Spec; internal/campaign runs the campaign.
//
// Usage:
//
//	tputlab list                            show available experiments
//	tputlab run <name>|all [flags]          regenerate a table/figure
//	tputlab report [flags]                  caveat-annotated congestion report (§7 checklist)
//	tputlab corpus dump FILE                print a corpus as NDJSON (tputlab-corpus/1) for jq
//
// `tputlab help` lists the run/report flags, among them
// -scale small|default|medium|large|xlarge.
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

	"throughputlab/internal/campaign"
	"throughputlab/internal/experiments"
	"throughputlab/internal/export"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
)

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
  -stream                (report) accepted for compatibility: every
                         report reads each chunk once as it is
                         collected (or decoded, under -corpus), so
                         only a few chunks are resident, with or
                         without it. Not with -corpus
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
  -checkpoint-every N    with -corpus-out or -resume only: chunks between
                         durability barriers (fsync + manifest update);
                         default 8, 1 checkpoints at every chunk boundary
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
  -metrics-json FILE     write the metrics snapshot as JSON: counters,
                         gauges, histograms, the phase-span tree,
                         simulated-clock series and event counts
                         (/dev/stderr prints it after the run)
  -events FILE           stream progress events (chunk publications,
                         pipeline stages, fault retries, report passes)
                         to FILE as NDJSON; ends with campaign.done
                         (/dev/stderr follows a run live)
  -trace-out FILE        write the phase-span tree as Chrome
                         trace_event JSON, loadable in Perfetto
  -telemetry-addr ADDR   serve live telemetry over HTTP while running:
                         /dump (the -metrics-json snapshot), /trace,
                         /debug/pprof/

telemetry never changes results: corpus and report bytes are identical
with every combination of the flags above on or off

exit codes: 0 success; 1 error; 2 usage; 3 interrupted after a durable
checkpoint (resume with -resume); 130 hard abort (second signal)`)
}

// commonFlags is the run/report flag set: the campaign flags bound
// straight onto a campaign.Spec, plus the telemetry flags.
type commonFlags struct {
	spec campaign.Spec

	metricsJSON   string
	events        string
	traceOut      string
	telemetryAddr string

	// Runtime telemetry state built by telemetry(): the -events file
	// (nil when unused) and the -telemetry-addr server (nil when unused).
	eventsFile *os.File
	server     *obs.TelemetryServer
}

// addCommonFlags registers the run/report flag set on fs.
func addCommonFlags(fs *flag.FlagSet) *commonFlags {
	cf := &commonFlags{}
	s := &cf.spec
	fs.StringVar(&s.Scale, "scale", "default", "small, default, medium, large or xlarge")
	fs.Int64Var(&s.Seed, "seed", 1, "generation seed")
	fs.IntVar(&s.Tests, "tests", 0, "NDT corpus size override")
	fs.IntVar(&s.Workers, "parallel", runtime.GOMAXPROCS(0), "engine worker count")
	fs.IntVar(&s.GenWorkers, "genworkers", runtime.GOMAXPROCS(0), "world-generation worker count")
	fs.StringVar(&s.CorpusFormat, "corpus-format", "", "corpus file format: columnar, the only one (the default)")
	fs.StringVar(&s.Faults, "faults", "off", "fault-injection profile: off, light, moderate or heavy")
	fs.Int64Var(&s.FaultSeed, "faultseed", 0, "fault-injection seed (0 = generation seed)")
	fs.IntVar(&s.ChunkTests, "chunk-tests", 0, "streamed-collection chunk size in scheduled tests (0 = platform default)")
	fs.StringVar(&s.CorpusOut, "corpus-out", "", "persist the corpus to this file while collecting")
	fs.StringVar(&s.Resume, "resume", "", "continue an interrupted campaign from this checkpoint manifest")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", 0, "chunks between -corpus-out durability barriers (0 = default 8)")

	fs.StringVar(&cf.metricsJSON, "metrics-json", "", "write the metrics snapshot to this file as JSON")
	fs.StringVar(&cf.events, "events", "", "write the progress event stream to this file as NDJSON")
	fs.StringVar(&cf.traceOut, "trace-out", "", "write the span tree as Chrome trace_event JSON (Perfetto-loadable)")
	fs.StringVar(&cf.telemetryAddr, "telemetry-addr", "", "serve /dump, /trace and /debug/pprof/ on this address while running")
	return cf
}

// parse parses args and validates the resulting Spec. Every
// flag-combination rule lives in campaign.Spec.Validate, so run and
// report cannot drift apart.
func (cf *commonFlags) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return cf.spec.Validate(set)
}

// telemetry builds the obs registry the telemetry flags ask for (nil
// when none is set, which disables instrumentation throughout the
// pipeline). On error nothing it opened is left open.
func (cf *commonFlags) telemetry() (*obs.Registry, error) {
	if cf.metricsJSON == "" && cf.events == "" && cf.traceOut == "" && cf.telemetryAddr == "" {
		return nil, nil
	}
	reg := obs.NewRegistry()
	// The simulated-clock sampler rides every instrumented run: one
	// point per simulated hour, skipping the per-shard and pipeline
	// plumbing gauges whose cardinality would drown a dashboard.
	reg.EnableTimeSeries(func(name string) bool {
		return !strings.HasPrefix(name, "collect.shard.") && !strings.HasPrefix(name, "pipeline.")
	})
	if cf.events != "" {
		f, err := os.Create(cf.events)
		if err != nil {
			return nil, err
		}
		cf.eventsFile = f
		reg.EnableEvents(4096).AddSink(obs.NewNDJSONSink(f))
	}
	if cf.telemetryAddr != "" {
		srv, err := reg.ServeTelemetry(cf.telemetryAddr)
		if err != nil {
			reg.Events().Close()
			cf.release()
			return nil, err
		}
		cf.server = srv
		fmt.Fprintf(os.Stderr, "telemetry: serving http://%s/ (dump, trace, pprof)\n", srv.Addr())
	}
	return reg, nil
}

// emitMetrics finishes the telemetry for a run: it publishes the
// terminal event — campaign.done, or campaign.interrupted when the run
// was cancelled after a durable checkpoint — drains and closes the
// event bus (so the -events NDJSON stream is complete before the file
// is sealed), writes the JSON snapshot (-metrics-json) and the Chrome
// trace (-trace-out), and closes the -events file and the
// -telemetry-addr endpoint. Every step runs even when an earlier one
// failed; the first error is returned. stdout is never touched, so
// experiment output stays byte-identical.
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
	var err error
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	if cf.metricsJSON != "" {
		keep(writeFileWith(cf.metricsJSON, reg.WriteJSON))
	}
	if cf.traceOut != "" {
		keep(writeFileWith(cf.traceOut, reg.WriteTrace))
	}
	keep(cf.release())
	return err
}

// release closes the -events file and the -telemetry-addr endpoint,
// whichever are open, and returns the first close error.
func (cf *commonFlags) release() error {
	var err error
	if cf.eventsFile != nil {
		err = cf.eventsFile.Close()
	}
	if cf.server != nil {
		if e := cf.server.Close(); err == nil {
			err = e
		}
	}
	return err
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

// finish folds telemetry emission into a command's return: the run
// error (nil, interrupted, or failed) picks the terminal event, and an
// emission failure only surfaces when the run itself succeeded.
func finish(cf *commonFlags, reg *obs.Registry, runErr error) error {
	if err := cf.emitMetrics(reg, runErr); runErr == nil {
		runErr = err
	}
	return runErr
}

func reportCmd(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	cf := addCommonFlags(fs)
	fs.BoolVar(&cf.spec.Stream, "stream", false, "accepted for compatibility; every report already reads each chunk once, keeping only a few resident")
	fs.StringVar(&cf.spec.Corpus, "corpus", "", "report over a persisted corpus stream instead of collecting")
	if err := cf.parse(fs, args); err != nil {
		return err
	}
	ctx, stopSignals := signalContext()
	defer stopSignals()
	reg, err := cf.telemetry()
	if err != nil {
		return err
	}
	out, err := campaign.Report(ctx, cf.spec, reg)
	if err == nil {
		fmt.Println(out)
	}
	return finish(cf, reg, err)
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
	if err := cf.parse(fs, args[1:]); err != nil {
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
	reg, err := cf.telemetry()
	if err != nil {
		return err
	}

	start := time.Now()
	if cf.spec.Resume == "" {
		fmt.Fprintf(os.Stderr, "generating world (scale=%s seed=%d parallel=%d)...\n", cf.spec.Scale, cf.spec.Seed, cf.spec.Workers)
	}
	c, err := campaign.Collect(ctx, cf.spec, reg)
	if err != nil {
		return finish(cf, reg, err)
	}
	env := c.Env()
	fmt.Fprintf(os.Stderr, "world: %s\n", env.World.Topo.CollectStats())
	fmt.Fprintf(os.Stderr, "platforms: %d M-Lab servers, %d Speedtest servers; corpus: %d tests, %d traces (%.1fs)\n",
		len(env.World.MLabServers()), len(env.World.Speedtest),
		len(env.Corpus.Tests), len(env.Corpus.Traces), time.Since(start).Seconds())

	if name == "all" {
		out, stats, err := experiments.RunParallelCtx(ctx, env, cf.spec.Workers)
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
		err = enc.Encode(res)
	} else {
		fmt.Println(res.Render())
	}
	return finish(cf, reg, err)
}
