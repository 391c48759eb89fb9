package main

import (
	"os"
	"path/filepath"
	"testing"

	"throughputlab/internal/export"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
	"throughputlab/internal/traceroute"
)

func writeCampaign(t *testing.T) string {
	t.Helper()
	w := topogen.MustGenerate(topogen.SmallConfig())
	var vpIdx int
	for i, vp := range w.ArkVPs {
		if vp.Label == "bed-us" {
			vpIdx = i
		}
	}
	traces := platform.Campaign(w, w.ArkVPs[vpIdx].Host.Endpoint,
		platform.RoutedPrefixTargets(w), traceroute.DefaultArtifacts(), 3)
	out := filepath.Join(t.TempDir(), "bed.tpc")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cw, err := export.NewColumnarWriter(f, export.FromWorld(w, nil).Public, export.StreamMeta{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteChunk(&platform.Chunk{Traces: traces}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunOverCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	in := writeCampaign(t)
	if err := run(in, "Comcast Cable Communications", 10); err != nil {
		t.Fatalf("bdrmap run: %v", err)
	}
}

func TestRunRequiresOrg(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	in := writeCampaign(t)
	if err := run(in, "", 10); err == nil {
		t.Error("missing org should error")
	}
	if err := run(in, "No Such Org", 10); err == nil {
		t.Error("unknown org should error")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run("/nonexistent/x.json", "Comcast Cable Communications", 10); err == nil {
		t.Error("missing file should error")
	}
}
