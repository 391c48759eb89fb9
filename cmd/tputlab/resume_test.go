package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"throughputlab/internal/checkpoint"
	"throughputlab/internal/experiments"
	"throughputlab/internal/platform"
	"throughputlab/internal/report"
	"throughputlab/internal/topogen"
)

// TestResumeFlagConflicts pins the fail-fast validation: every
// campaign-identity flag explicitly set alongside -resume is named,
// non-identity flags (workers, telemetry) pass, and defaults left
// untouched are not false positives.
func TestResumeFlagConflicts(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{"no_flags", []string{"-resume", "m.json"}, nil},
		{"non_identity_ok", []string{"-resume", "m.json", "-parallel", "4", "-metrics", "-checkpoint-every", "1", "-progress"}, nil},
		{"scale", []string{"-resume", "m.json", "-scale", "large"}, []string{"-scale"}},
		{"seed", []string{"-resume", "m.json", "-seed", "2"}, []string{"-seed"}},
		{"tests", []string{"-resume", "m.json", "-tests", "100"}, []string{"-tests"}},
		{"faults", []string{"-resume", "m.json", "-faults", "heavy"}, []string{"-faults"}},
		{"faultseed", []string{"-resume", "m.json", "-faultseed", "9"}, []string{"-faultseed"}},
		{"format", []string{"-resume", "m.json", "-corpus-format", "columnar"}, []string{"-corpus-format"}},
		{"chunk_tests", []string{"-resume", "m.json", "-chunk-tests", "32"}, []string{"-chunk-tests"}},
		{"several", []string{"-resume", "m.json", "-seed", "2", "-scale", "large", "-faults", "light"},
			[]string{"-faults", "-scale", "-seed"}}, // flag.Visit reports in lexical order
		{"same_value_still_conflicts", []string{"-resume", "m.json", "-seed", "1"}, []string{"-seed"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("run", flag.ContinueOnError)
			addCommonFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got := resumeFlagConflicts(fs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("conflicts = %v, want %v", got, tc.want)
			}
			err := checkResumeFlags(fs)
			if len(tc.want) == 0 && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			for _, flagName := range tc.want {
				if err == nil || !bytes.Contains([]byte(err.Error()), []byte(flagName)) {
					t.Fatalf("error %v does not name %s", err, flagName)
				}
			}
		})
	}
}

// TestResumeCampaignEndToEnd drives the real CLI plumbing through an
// interrupt and a resume: a campaign with -corpus-out is cancelled
// (cause ErrInterrupted, exactly how the signal handler does it) after
// two published chunks, leaving a partial corpus plus manifest; then
// resumeCampaign rebuilds it from the manifest alone. Both the
// rendered report and the published corpus bytes must be identical to
// an uninterrupted run's.
func TestResumeCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	dir := t.TempDir()

	chunked := func() experiments.Options {
		opts := formatOpts(t, "off")
		opts.Collect.ChunkTests = 64 // 600 tests -> 10 chunks
		return opts
	}

	// Uninterrupted reference: corpus bytes and rendered report.
	refPath := filepath.Join(dir, "ref.corpus")
	refOpts := chunked()
	refSeal := teeCorpus(refPath, &refOpts, "small", 1)
	refEnv, err := experiments.NewEnv(refOpts)
	if err = refSeal(err); err != nil {
		t.Fatal(err)
	}
	wantReport := report.Build(refEnv, report.DefaultConfig()).Render()
	wantCorpus, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel with the signal handler's cause once two
	// chunks have been published to the sink.
	finalPath := filepath.Join(dir, "resumed.corpus")
	intOpts := chunked()
	seal := teeCorpus(finalPath, &intOpts, "small", 1)
	inner := intOpts.CorpusSink
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	intOpts.CorpusSink = func(w *topogen.World) (func(*platform.Chunk) error, error) {
		sink, err := inner(w)
		if err != nil {
			return nil, err
		}
		n := 0
		return func(c *platform.Chunk) error {
			if err := sink(c); err != nil {
				return err
			}
			if n++; n == 2 {
				cancel(platform.ErrInterrupted)
			}
			return nil
		}, nil
	}
	_, runErr := experiments.NewEnvCtx(ctx, intOpts)
	runErr = seal(runErr)
	if !errors.Is(runErr, platform.ErrInterrupted) {
		t.Fatalf("interrupted campaign returned %v, want ErrInterrupted", runErr)
	}
	if _, err := os.Stat(finalPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("interrupted campaign published a corpus")
	}
	mpath := checkpoint.ManifestPath(finalPath)
	m, err := checkpoint.LoadManifest(mpath)
	if err != nil {
		t.Fatalf("interrupt left no loadable manifest: %v", err)
	}
	if m.Durable.Chunks < 2 {
		t.Fatalf("manifest records %d durable chunks, want >= 2", m.Durable.Chunks)
	}

	// Resume purely from the manifest, the way `run -resume` does.
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	cf := addCommonFlags(fs)
	if err := fs.Parse([]string{"-resume", mpath, "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	env, _, err := resumeCampaign(context.Background(), cf)
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Build(env, report.DefaultConfig()).Render(); got != wantReport {
		t.Error("resumed report differs from uninterrupted run")
	}
	gotCorpus, err := os.ReadFile(finalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCorpus, wantCorpus) {
		t.Errorf("resumed corpus differs from uninterrupted run (%d vs %d bytes)", len(gotCorpus), len(wantCorpus))
	}
	for _, p := range []string{mpath, checkpoint.PartialPath(finalPath)} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived successful resume", p)
		}
	}
}
