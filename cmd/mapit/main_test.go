package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"throughputlab/internal/export"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
)

// writeColumnar persists chunks as a columnar corpus in a temporary
// file and returns its path.
func writeColumnar(t *testing.T, public export.Public, chunks ...*platform.Chunk) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "corpus.tpc")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cw, err := export.NewColumnarWriter(f, public, export.StreamMeta{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if err := cw.WriteChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeCorpus(t *testing.T) string {
	t.Helper()
	w := topogen.MustGenerate(topogen.SmallConfig())
	cfg := platform.DefaultCollect()
	cfg.Tests = 300
	cfg.PerPoolClients = 4
	corpus, err := platform.CollectParallelCtx(context.Background(), w, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return writeColumnar(t, export.FromWorld(w, nil).Public,
		&platform.Chunk{Tests: corpus.Tests, Traces: corpus.Traces})
}

func TestRunOverDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	in := writeCorpus(t)
	if err := run(in, 10, 0.5); err != nil {
		t.Fatalf("mapit run: %v", err)
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run("/nonexistent/x.json", 10, 0.5); err == nil {
		t.Error("missing file should error")
	}
}

func TestRunEmptyDataset(t *testing.T) {
	out := writeColumnar(t, export.Public{})
	if err := run(out, 10, 0.5); err == nil {
		t.Error("dataset without traces should error")
	}
}
