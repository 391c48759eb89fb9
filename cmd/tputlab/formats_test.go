package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"throughputlab/internal/experiments"
	"throughputlab/internal/export"
	"throughputlab/internal/faults"
)

// formatOpts assembles a small campaign the way reportCmd would, with
// the given fault profile.
func formatOpts(t *testing.T, profile string) experiments.Options {
	t.Helper()
	opts, err := scaleOptions("small")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := faults.ByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	opts.Topo.Seed = 1
	opts.Collect.Tests = 600
	opts.Collect.Faults = prof
	opts.Workers = 2
	return opts
}

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

// TestCorpusFormatsReportParity is the round-trip property test for
// the persisted corpus: a campaign reported live while it persists the
// columnar corpus renders byte-identically to the report replayed from
// that file, at every worker count. Run once clean and once under the
// heavy fault profile, so the parity covers truncated tests, lost
// traces, and the completeness ledger.
func TestCorpusFormatsReportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	for _, profile := range []string{"off", "heavy"} {
		t.Run(profile, func(t *testing.T) {
			path := t.TempDir() + "/corpus.tpc"
			live, err := reportLive(context.Background(), formatOpts(t, profile), "small", path, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				opts := formatOpts(t, profile)
				opts.Workers = workers
				out, err := reportFromCorpus(path, opts)
				if err != nil {
					t.Fatalf("reportFromCorpus workers=%d: %v", workers, err)
				}
				if out != live {
					t.Errorf("report from the corpus at workers=%d differs from the live report", workers)
				}
			}
		})
	}
}

// TestCorpusDumpGolden pins `corpus dump` to the text corpus writer it
// replaces: for the 600-test small campaign cut into 97-test chunks,
// the columnar corpus hashes to the bytes this flag set has always
// written, its dump hashes to the bytes the removed writer wrote for
// the same flags (recorded before it was deleted), and the records
// parsed back from the dump digest equal to the columnar corpus's. The
// report pin holds for both live report modes: -stream and the default
// retained-chunk mode, the latter at workers 1 and 8.
func TestCorpusDumpGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	golden := map[string]struct {
		columnar, dump, report string
		dataset                uint64
	}{
		"off": {
			columnar: "89e3baa41f52b2d9cd78acd3b1119f1c562adabb1512e2e3021e266415b2066e",
			dump:     "efb75d4462f1e81afbbca10aa4cd4859ccc8d2608b03f360d6579bc479a8f469",
			report:   "0c96ed8a42989e4290e75e3c3e8fbb5ce9c2a57885ed93036b0afa35afa1f011",
			dataset:  0x5b722e7bedd68637,
		},
		"heavy": {
			columnar: "f6df1bfff54278775761184bb939cb037f2b82b03df262699f118db780b77544",
			dump:     "1e4197b0da99257b09ddd4de1671bf85da7368815db3612b7c72e5784ee75cd4",
			report:   "f506fefdbf5d6687cfc7a8c17f24a5293cf530abf741ba8e5104db3550eb93a6",
			dataset:  0x194936cecd40aa6d,
		},
	}
	sha := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	for _, profile := range []string{"off", "heavy"} {
		t.Run(profile, func(t *testing.T) {
			want := golden[profile]
			opts := formatOpts(t, profile)
			opts.Collect.ChunkTests = 97
			path := t.TempDir() + "/corpus.tpc"
			out, err := reportLive(context.Background(), opts, "small", path, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha([]byte(out)); got != want.report {
				t.Errorf("-stream report sha256 %s, want %s", got, want.report)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(raw); got != want.columnar {
				t.Errorf("-stream columnar corpus sha256 %s, want %s", got, want.columnar)
			}
			// The default mode collects once and replays the retained
			// chunks for both passes; its report and corpus bytes are the
			// -stream mode's at every worker count.
			for _, workers := range []int{1, 8} {
				opts := opts
				opts.Workers = workers
				retainedPath := fmt.Sprintf("%s/retained_w%d.tpc", t.TempDir(), workers)
				out, err := reportLive(context.Background(), opts, "small", retainedPath, 0, false)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha([]byte(out)); got != want.report {
					t.Errorf("default-mode report (workers=%d) sha256 %s, want %s", workers, got, want.report)
				}
				raw, err := os.ReadFile(retainedPath)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha(raw); got != want.columnar {
					t.Errorf("default-mode columnar corpus (workers=%d) sha256 %s, want %s", workers, got, want.columnar)
				}
			}
			var text bytes.Buffer
			if err := dumpCorpus(path, &text); err != nil {
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
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			col, err := export.Read(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := datasetHash(col); got != want.dataset {
				t.Errorf("columnar corpus hashes to %x, want %x", got, want.dataset)
			}
		})
	}
}

// TestCorpusFormatMismatchError pins the CLI's answer to the removed
// text corpus format: asking to write it fails before any world is
// built, with an error naming the printer that replaces it, and a
// report over a dumped text stream fails naming the format.
func TestCorpusFormatMismatchError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	dir := t.TempDir()
	err := reportCmd([]string{"-scale", "small", "-corpus-out", dir + "/x", "-corpus-format", "ndjson"})
	if err == nil || !strings.Contains(err.Error(), "corpus dump") {
		t.Fatalf("-corpus-format ndjson returned %v, want an error naming corpus dump", err)
	}
	if _, err := os.Stat(dir + "/x"); !os.IsNotExist(err) {
		t.Error("a refused -corpus-format still wrote a corpus")
	}

	path := dir + "/corpus.tpc"
	if _, err := reportLive(context.Background(), formatOpts(t, "off"), "small", path, 0, true); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := dumpCorpus(path, &text); err != nil {
		t.Fatal(err)
	}
	textPath := dir + "/corpus.ndjson"
	if err := os.WriteFile(textPath, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = reportFromCorpus(textPath, formatOpts(t, "off"))
	if err == nil || !strings.Contains(err.Error(), export.StreamFormat) {
		t.Errorf("report over a text stream returned %v, want an error naming %s", err, export.StreamFormat)
	}
}
