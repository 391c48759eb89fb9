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
	out := filepath.Join(t.TempDir(), "corpus.json")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := export.FromWorld(w, corpus).Write(f); err != nil {
		t.Fatal(err)
	}
	return out
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
	out := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(out, []byte(`{"public":{"prefixes":null,"orgs":{},"rels":null}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(out, 10, 0.5); err == nil {
		t.Error("dataset without traces should error")
	}
}
