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
			got := identityFlagConflicts(fs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("conflicts = %v, want %v", got, tc.want)
			}
			err := checkIdentityFlags(fs, "-resume", "manifest")
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
// interrupt and a resume: a campaign persisted through openCorpus is
// cancelled (cause ErrInterrupted, exactly how the signal handler does
// it) after two published chunks, leaving a partial corpus plus
// manifest; then resumeCampaign rebuilds it from the manifest alone.
// The report over the resumed campaign's retained chunks must equal an
// uninterrupted -stream run's, and the published corpus bytes must be
// identical to that run's corpus.
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
	wantReport, err := reportLive(context.Background(), chunked(), "small", refPath, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	wantCorpus, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel with the signal handler's cause once two
	// chunks have been persisted.
	finalPath := filepath.Join(dir, "resumed.corpus")
	intOpts := chunked()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	w, err := generateWorld(ctx, &intOpts)
	if err != nil {
		t.Fatal(err)
	}
	tee, err := openCorpus(finalPath, w, intOpts, "small", 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	_, runErr := platform.CollectStreamCtx(ctx, w, intOpts.Collect, intOpts.Workers, func(c *platform.Chunk) error {
		if err := tee.write(c); err != nil {
			return err
		}
		if n++; n == 2 {
			cancel(platform.ErrInterrupted)
		}
		return nil
	})
	runErr = tee.seal(runErr)
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

	// Resume purely from the manifest, the way `report -resume` does.
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	cf := addCommonFlags(fs)
	if err := fs.Parse([]string{"-resume", mpath, "-parallel", "2"}); err != nil {
		t.Fatal(err)
	}
	c, _, err := resumeCampaign(context.Background(), cf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reportStreamed(c.world, c.opts, c.replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != wantReport {
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
