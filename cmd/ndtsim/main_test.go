package main

import (
	"os"
	"path/filepath"
	"testing"

	"throughputlab/internal/export"
)

func TestRunCorpusToFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	out := filepath.Join(t.TempDir(), "corpus.tpc")
	if err := run("small", 1, 300, false, "", out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := export.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Tests) < 300 || len(ds.Traces) == 0 {
		t.Fatalf("dataset has %d tests, %d traces", len(ds.Tests), len(ds.Traces))
	}
	if len(ds.Public.Prefixes) == 0 || len(ds.Public.Orgs) == 0 {
		t.Error("public data missing")
	}
}

func TestRunCampaignToFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	out := filepath.Join(t.TempDir(), "bed.tpc")
	if err := run("small", 1, 0, false, "bed-us", out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ds, err := export.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Traces) < 100 || len(ds.Tests) != 0 {
		t.Fatalf("campaign dataset has %d traces, %d tests", len(ds.Traces), len(ds.Tests))
	}
}

func TestRunUnknownVP(t *testing.T) {
	if err := run("small", 1, 0, false, "nosuch-vp", "-"); err == nil {
		t.Error("unknown VP should error")
	}
}

// TestRunReportsWriteError pins that a corpus that cannot be written
// fails the run instead of exiting 0.
func TestRunReportsWriteError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	if err := run("small", 1, 0, false, "bed-us", "/dev/full"); err == nil {
		t.Error("writing to a full device reported success")
	}
}
