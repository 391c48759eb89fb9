package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"testing"

	"throughputlab/internal/campaign"
	"throughputlab/internal/export"
)

// datasetHash digests every field of a materialized corpus that
// downstream inference consumes (the corpusHash idiom from the
// platform shard tests, applied to an export dataset), so two
// renditions of a corpus hash equal only if they are observably
// identical.
func datasetHash(d *export.Dataset) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "tests=%d traces=%d missing=%d\n", len(d.Tests), len(d.Traces), d.TestsWithoutTrace)
	for _, t := range d.Tests {
		fmt.Fprintf(h, "t %d %d %d %d %d %.9g %.9g %.9g %.9g %d\n",
			t.ID, uint32(t.ClientAddr), uint32(t.ServerAddr), t.StartMinute, t.FlowEntropy,
			t.DownMbps, t.UpMbps, t.RTTms, t.RetransRate, t.TruthBottleneck)
	}
	for _, tr := range d.Traces {
		fmt.Fprintf(h, "r %d %d %d %d %v", uint32(tr.SrcAddr), uint32(tr.DstAddr),
			tr.LaunchMinute, tr.FlowEntropy, tr.Reached)
		for _, hop := range tr.Hops {
			fmt.Fprintf(h, " %d", uint32(hop.Addr))
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}

// decodeDataset drains the corpus at path through the corpus reader.
func decodeDataset(t *testing.T, path string) *export.Dataset {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cr, err := export.OpenCorpusProjected(f, 1, export.EverythingProjection())
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	d := &export.Dataset{}
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		d.Tests = append(d.Tests, c.Tests...)
		d.Traces = append(d.Traces, c.Traces...)
	}
	d.TestsWithoutTrace = cr.Footer().TestsWithoutTrace
	return d
}

// TestCorpusDumpGolden pins `corpus dump` to the text corpus writer it
// replaces: for the 600-test small campaign cut into 97-test chunks
// (whose columnar corpus and report internal/campaign's TestReportGolden
// pins), the dump hashes to the bytes the removed writer wrote for the
// same flags (recorded before it was deleted), and the records parsed
// back from the dump digest equal to the columnar corpus's.
func TestCorpusDumpGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	golden := map[string]struct {
		dump    string
		dataset uint64
	}{
		"off": {
			dump:    "efb75d4462f1e81afbbca10aa4cd4859ccc8d2608b03f360d6579bc479a8f469",
			dataset: 0x5b722e7bedd68637,
		},
		"heavy": {
			dump:    "1e4197b0da99257b09ddd4de1671bf85da7368815db3612b7c72e5784ee75cd4",
			dataset: 0x194936cecd40aa6d,
		},
	}
	sha := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	for _, profile := range []string{"off", "heavy"} {
		t.Run(profile, func(t *testing.T) {
			want := golden[profile]
			path := t.TempDir() + "/corpus.tpc"
			if _, err := campaign.Report(context.Background(), campaign.Spec{
				Scale: "small", Seed: 1, Tests: 600, Faults: profile, Workers: 2, GenWorkers: 2,
				ChunkTests: 97, Stream: true, CorpusOut: path,
			}, nil); err != nil {
				t.Fatal(err)
			}
			var text bytes.Buffer
			if err := campaign.Dump(path, 2, &text); err != nil {
				t.Fatal(err)
			}
			if got := sha(text.Bytes()); got != want.dump {
				t.Errorf("corpus dump sha256 %s, want the text writer's %s", got, want.dump)
			}

			d := &export.Dataset{}
			lines := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
			for _, line := range lines[1 : len(lines)-1] {
				var c export.StreamChunk
				if err := json.Unmarshal([]byte(line), &c); err != nil {
					t.Fatal(err)
				}
				d.Tests = append(d.Tests, c.Tests...)
				d.Traces = append(d.Traces, c.Traces...)
			}
			var footer export.StreamFooter
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &footer); err != nil || !footer.Footer {
				t.Fatalf("last dump line is not a footer (err=%v)", err)
			}
			d.TestsWithoutTrace = footer.TestsWithoutTrace
			if got := datasetHash(d); got != want.dataset {
				t.Errorf("dataset parsed from the dump hashes to %x, want %x", got, want.dataset)
			}
			if got := datasetHash(decodeDataset(t, path)); got != want.dataset {
				t.Errorf("columnar corpus hashes to %x, want %x", got, want.dataset)
			}
		})
	}
}
