package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"throughputlab/internal/checkpoint"
	"throughputlab/internal/export"
)

func TestRunCorpusToFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	out := filepath.Join(t.TempDir(), "corpus.tpc")
	if err := run("small", 1, 300, false, "", out, checkpoint.Options{}); err != nil {
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
	if _, err := os.Stat(checkpoint.PartialPath(out)); !os.IsNotExist(err) {
		t.Errorf("published corpus left its partial file behind (stat: %v)", err)
	}
}

func TestRunCampaignToFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	out := filepath.Join(t.TempDir(), "bed.tpc")
	if err := run("small", 1, 0, false, "bed-us", out, checkpoint.Options{}); err != nil {
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
	if err := run("small", 1, 0, false, "nosuch-vp", "-", checkpoint.Options{}); err == nil {
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
	if err := run("small", 1, 0, false, "bed-us", "/dev/full", checkpoint.Options{}); err == nil {
		t.Error("writing to a full device reported success")
	}
}

// TestRunRejectsUnknownScale pins that -scale takes only small or
// default, refused before any world is generated or file written.
func TestRunRejectsUnknownScale(t *testing.T) {
	out := filepath.Join(t.TempDir(), "corpus.tpc")
	err := run("bogus", 1, 200, false, "", out, checkpoint.Options{})
	if err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Fatalf("run with -scale bogus: err = %v, want a -scale usage error", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("rejected run wrote %s (stat: %v)", out, err)
	}
}

// failingWriter fails every write, like a full disk.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errors.New("injected: no space left on device")
}

// TestRunFailureLeavesNothing pins atomic publication: a run that
// fails while writing the corpus, or while renaming it onto its name,
// leaves no corpus file and no partial file.
func TestRunFailureLeavesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	t.Run("write", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "corpus.tpc")
		opts := checkpoint.Options{WrapWriter: func(io.Writer) io.Writer { return failingWriter{} }}
		if err := run("small", 1, 300, false, "", out, opts); err == nil {
			t.Fatal("a failing write reported success")
		}
		for _, p := range []string{out, checkpoint.PartialPath(out)} {
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("failed run left %s (stat: %v)", p, err)
			}
		}
	})
	t.Run("rename", func(t *testing.T) {
		// The corpus's name is taken by a directory, so the final
		// rename fails after every chunk is written.
		out := filepath.Join(t.TempDir(), "corpus.tpc")
		if err := os.Mkdir(out, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := run("small", 1, 300, false, "", out, checkpoint.Options{}); err == nil {
			t.Fatal("publishing onto a directory reported success")
		}
		if entries, err := os.ReadDir(out); err != nil || len(entries) != 0 {
			t.Errorf("directory at the corpus name changed: %v entries, err %v", len(entries), err)
		}
		if _, err := os.Stat(checkpoint.PartialPath(out)); !os.IsNotExist(err) {
			t.Errorf("failed run left its partial file (stat: %v)", err)
		}
	})
}
