package main

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCmdUnknownExperiment pins that an unknown name, and -json on
// 'run all' (which prints text tables only), are refused before the
// world is generated and before -corpus-out publishes anything.
func TestRunCmdUnknownExperiment(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"nosuch", "-scale", "small", "-tests", "200"}, "tputlab list"},
		{[]string{"all", "-json", "-scale", "small", "-tests", "200"}, "-json"},
	} {
		path := filepath.Join(t.TempDir(), "corpus.tpc")
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := make(chan string)
		go func() {
			b, _ := io.ReadAll(r)
			stderr <- string(b)
		}()
		saved := os.Stderr
		os.Stderr = w
		runErr := runCmd(append(tc.args, "-corpus-out", path))
		os.Stderr = saved
		w.Close()
		out := <-stderr
		if runErr == nil || !strings.Contains(runErr.Error(), tc.want) {
			t.Errorf("run %v: err = %v, want an error naming %q", tc.args, runErr, tc.want)
		}
		if strings.Contains(out, "generating world") {
			t.Errorf("run %v generated a world before refusing:\n%s", tc.args, out)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("run %v left a -corpus-out file (stat err %v)", tc.args, err)
		}
	}
	if err := runCmd(nil); err == nil {
		t.Error("missing experiment name should error")
	}
}

func TestScaleValidation(t *testing.T) {
	// run and report reject an unknown -scale with a usage error, before
	// any world is built; internal/campaign's spec tests hold the
	// accepted set.
	if err := runCmd([]string{"table1", "-scale", "tiny"}); err == nil {
		t.Error("run with invalid -scale should error")
	}
	if err := reportCmd([]string{"-scale", "tiny"}); err == nil {
		t.Error("report with invalid -scale should error")
	}
}

// TestCorpusCmdValidation pins the corpus subcommands' front end: a
// malformed command line is a usage error, and `corpus ark -scale
// bogus` is refused by campaign.Spec's scale check before any world is
// generated or file written.
func TestCorpusCmdValidation(t *testing.T) {
	for _, args := range [][]string{nil, {"dump"}, {"dump", "a", "b"}, {"mapit", "a", "b"},
		{"bdrmap", "a", "-org", "x", "b"}, {"ark", "bed-us", "-corpus-out", "x", "b"}, {"nosuch", "a"}} {
		if err := corpusCmd(args); !errors.Is(err, errCorpusUsage) {
			t.Errorf("corpus %v: err = %v, want the usage error", args, err)
		}
	}
	out := filepath.Join(t.TempDir(), "bed.tpc")
	err := corpusCmd([]string{"ark", "bed-us", "-scale", "bogus", "-corpus-out", out})
	if err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Fatalf("corpus ark -scale bogus: err = %v, want a -scale usage error", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("refused corpus ark wrote %s (stat: %v)", out, err)
	}
}

func TestWorkerCountValidation(t *testing.T) {
	// Zero or negative worker counts are a usage error on every
	// subcommand that accepts them, raised before any world is built.
	cases := [][]string{
		{"-parallel", "0"},
		{"-parallel", "-3"},
		{"-genworkers", "0"},
		{"-genworkers", "-1"},
	}
	for _, c := range cases {
		if err := runCmd(append([]string{"table1", "-scale", "small"}, c...)); err == nil {
			t.Errorf("run %v accepted, want error", c)
		}
		if err := reportCmd(append([]string{"-scale", "small"}, c...)); err == nil {
			t.Errorf("report %v accepted, want error", c)
		}
	}
}

func TestFaultProfileValidation(t *testing.T) {
	if err := runCmd([]string{"table1", "-scale", "small", "-faults", "nosuch"}); err == nil {
		t.Error("unknown -faults profile accepted on run")
	}
	if err := reportCmd([]string{"-scale", "small", "-faults", "nosuch"}); err == nil {
		t.Error("unknown -faults profile accepted on report")
	}
}

func TestRunCmdSmokeTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	// table1 is the cheapest experiment; a tiny corpus keeps this fast.
	if err := runCmd([]string{"table1", "-scale", "small", "-tests", "200"}); err != nil {
		t.Fatalf("runCmd table1: %v", err)
	}
}

// TestMetricsJSONExecuteCounters pins that a -metrics-json dump
// attributes execution time to its two halves: the per-worker NDT and
// traceroute clocks flushed into collect.execute.* counters. It also
// carries the run's route-tree count: some trees, fewer than one per
// AS.
func TestMetricsJSONExecuteCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := runCmd([]string{"table1", "-scale", "small", "-tests", "200", "-metrics-json", path}); err != nil {
		t.Fatalf("runCmd table1 -metrics-json: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters map[string]uint64 `json:"counters"`
		Gauges   map[string]int64  `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("metrics dump does not parse: %v", err)
	}
	for _, name := range []string{"collect.execute.ndt_ns", "collect.execute.traceroute_ns"} {
		if dump.Counters[name] == 0 {
			t.Errorf("counter %s = 0 or missing, want > 0", name)
		}
	}
	if trees, ases := dump.Gauges["topogen.routes.trees"], dump.Gauges["topogen.ases"]; trees == 0 || trees >= ases {
		t.Errorf("gauge topogen.routes.trees = %d over %d ASes, want some but fewer than one per AS", trees, ases)
	}
}

func TestReportCmdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	if err := reportCmd([]string{"-scale", "small", "-tests", "1500"}); err != nil {
		t.Fatalf("reportCmd: %v", err)
	}
}

func TestReportCorpusFlagValidation(t *testing.T) {
	if err := reportCmd([]string{"-corpus", "a.tpc", "-corpus-out", "b.tpc"}); err == nil {
		t.Error("-corpus with -corpus-out should be a usage error")
	}
	if err := reportCmd([]string{"-corpus", "/nonexistent/corpus.tpc"}); err == nil {
		t.Error("missing corpus file should error")
	}
	// The corpus header pins the campaign identity: setting an identity
	// flag alongside -corpus is refused with every offending flag named.
	for _, flags := range [][]string{
		{"-scale", "large"}, {"-seed", "2"}, {"-tests", "100"}, {"-faults", "heavy"},
		{"-faultseed", "9"}, {"-chunk-tests", "32"}, {"-corpus-format", "columnar"},
		{"-seed", "2", "-scale", "small"},
	} {
		err := reportCmd(append([]string{"-corpus", "/nonexistent/corpus.tpc"}, flags...))
		if err == nil || !strings.Contains(err.Error(), "-corpus pins the campaign identity") {
			t.Errorf("-corpus with %v: err = %v, want the identity-flag refusal", flags, err)
			continue
		}
		for i := 0; i < len(flags); i += 2 {
			if !strings.Contains(err.Error(), flags[i]) {
				t.Errorf("-corpus with %v: error %q does not name %s", flags, err, flags[i])
			}
		}
	}
	// Worker counts are not identity: they reach the corpus reader.
	err := reportCmd([]string{"-corpus", "/nonexistent/corpus.tpc", "-parallel", "2", "-genworkers", "2"})
	if err == nil || strings.Contains(err.Error(), "pins the campaign identity") {
		t.Errorf("-corpus with -parallel/-genworkers: err = %v, want the missing-file error", err)
	}
	// A persisted corpus is replayed, never re-collected: -stream is
	// refused by name.
	err = reportCmd([]string{"-corpus", "/nonexistent/corpus.tpc", "-stream"})
	if err == nil || !strings.Contains(err.Error(), "-stream") {
		t.Errorf("-corpus with -stream: err = %v, want an error naming -stream", err)
	}
}

// TestRetiredResumeFlags pins that the run/report flag set has no
// resume flags: an interrupted campaign is re-run, not resumed.
func TestRetiredResumeFlags(t *testing.T) {
	for _, args := range [][]string{{"-resume", "x"}, {"-checkpoint-every", "1"}} {
		fs := flag.NewFlagSet("report", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := addCommonFlags(fs).parse(fs, args); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%v: err = %v, want an unknown-flag error", args, err)
		}
	}
}

func TestReportStreamRoundTripSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	// The full cycle the CI smoke job runs: a streamed campaign persisted
	// with -corpus-out, then re-reported from the file without a world.
	path := t.TempDir() + "/corpus.tpc"
	if err := reportCmd([]string{"-scale", "small", "-tests", "1200",
		"-stream", "-corpus-out", path}); err != nil {
		t.Fatalf("report -stream -corpus-out: %v", err)
	}
	if err := reportCmd([]string{"-corpus", path}); err != nil {
		t.Fatalf("report -corpus: %v", err)
	}
}
