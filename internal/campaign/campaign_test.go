package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"throughputlab/internal/checkpoint"
	"throughputlab/internal/export"
	"throughputlab/internal/obs"
	"throughputlab/internal/platform"
)

// formatSpec is a small campaign the way `tputlab report` would run
// it, with the given fault profile.
func formatSpec(profile string) Spec {
	return Spec{Scale: "small", Seed: 1, Tests: 600, Faults: profile, Workers: 2, GenWorkers: 2}
}

func sha(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }

// dump prints the corpus at path the way `tputlab corpus dump` does.
func dump(t *testing.T, path string) []byte {
	t.Helper()
	var text bytes.Buffer
	if err := Dump(path, 1, &text); err != nil {
		t.Fatal(err)
	}
	return text.Bytes()
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
			s := formatSpec(profile)
			s.Stream, s.CorpusOut = true, path
			live, err := Report(context.Background(), s, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				s := formatSpec(profile)
				s.Corpus, s.Workers = path, workers
				out, err := Report(context.Background(), s, nil)
				if err != nil {
					t.Fatalf("report over the corpus, workers=%d: %v", workers, err)
				}
				if out != live {
					t.Errorf("report from the corpus at workers=%d differs from the live report", workers)
				}
			}
		})
	}
}

// TestReportGolden pins the rendered report and the persisted corpus of
// the 600-test small campaign cut into 97-test chunks to the bytes this
// flag set has always produced. Every leg collects the campaign once and
// reads each chunk once: -stream with -corpus-out and -stream without
// it (which must write nothing, not even under TMPDIR), both at workers
// 2, and the default mode with -corpus-out at workers 1 and 8.
// `tputlab corpus dump` pins the same corpus's text rendition
// (cmd/tputlab's TestCorpusDumpGolden).
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	golden := map[string]struct{ columnar, report string }{
		"off": {
			columnar: "89e3baa41f52b2d9cd78acd3b1119f1c562adabb1512e2e3021e266415b2066e",
			report:   "0c96ed8a42989e4290e75e3c3e8fbb5ce9c2a57885ed93036b0afa35afa1f011",
		},
		"heavy": {
			columnar: "f6df1bfff54278775761184bb939cb037f2b82b03df262699f118db780b77544",
			report:   "f506fefdbf5d6687cfc7a8c17f24a5293cf530abf741ba8e5104db3550eb93a6",
		},
	}
	for _, profile := range []string{"off", "heavy"} {
		t.Run(profile, func(t *testing.T) {
			want := golden[profile]
			s := formatSpec(profile)
			s.ChunkTests = 97
			path := t.TempDir() + "/corpus.tpc"
			streamed := s
			streamed.Stream, streamed.CorpusOut = true, path
			out, err := Report(context.Background(), streamed, nil)
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
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			bare := s
			bare.Stream = true
			if out, err = Report(context.Background(), bare, nil); err != nil {
				t.Fatal(err)
			}
			if got := sha([]byte(out)); got != want.report {
				t.Errorf("-stream report without -corpus-out sha256 %s, want %s", got, want.report)
			}
			assertEmpty(t, tmp)
			// Without -stream the report and corpus bytes are the same
			// at every worker count.
			for _, workers := range []int{1, 8} {
				s := s
				s.Workers = workers
				outPath := fmt.Sprintf("%s/corpus_w%d.tpc", t.TempDir(), workers)
				s.CorpusOut = outPath
				out, err := Report(context.Background(), s, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha([]byte(out)); got != want.report {
					t.Errorf("default-mode report (workers=%d) sha256 %s, want %s", workers, got, want.report)
				}
				raw, err := os.ReadFile(outPath)
				if err != nil {
					t.Fatal(err)
				}
				if got := sha(raw); got != want.columnar {
					t.Errorf("default-mode columnar corpus (workers=%d) sha256 %s, want %s", workers, got, want.columnar)
				}
			}
		})
	}
}

// assertEmpty fails t unless dir has no entries.
func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("%s left behind in %s", e.Name(), dir)
	}
}

// TestStreamCollectsOnce guards -stream against collecting the campaign
// for each pass: the collector's test counter must equal the published
// corpus's test count, not twice it.
func TestStreamCollectsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	path := t.TempDir() + "/corpus.tpc"
	s := formatSpec("off")
	s.Stream, s.CorpusOut = true, path
	reg := obs.NewRegistry()
	if _, err := Report(context.Background(), s, reg); err != nil {
		t.Fatal(err)
	}
	r, err := openReader(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.replay(context.Background(), func(*platform.Chunk) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want := r.Footer().Tests
	if got := reg.Counter("collect.tests").Value(); want == 0 || got != uint64(want) {
		t.Errorf("collect.tests = %d, want the corpus's %d tests", got, want)
	}
}

// TestRouteModes pins that every world computes BGP route trees on
// demand: once a report is rendered, and once a collected campaign's
// Env is built, the world has computed some trees but fewer than one
// per AS, and no BGP worker pool ran.
func TestRouteModes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	reg := obs.NewRegistry()
	if _, err := Report(context.Background(), formatSpec("off"), reg); err != nil {
		t.Fatal(err)
	}
	trees, ases := reg.Gauge("topogen.routes.trees").Value(), reg.Gauge("topogen.ases").Value()
	if trees == 0 || trees >= ases {
		t.Errorf("the report computed %d route trees over %d ASes, want some but fewer than one per AS", trees, ases)
	}
	if d := reg.Snapshot(); d.Gauges["topogen.workers.bgp"] != 0 || d.Gauges["topogen.routes.lazy"] != 0 {
		t.Errorf("route-mode gauges set: topogen.workers.bgp %d, topogen.routes.lazy %d",
			d.Gauges["topogen.workers.bgp"], d.Gauges["topogen.routes.lazy"])
	}
	e, err := Collect(context.Background(), formatSpec("off"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n, ases := e.World.Routes.ComputedTrees(), e.World.Topo.NumASes(); n == 0 || n >= ases {
		t.Errorf("the collected campaign's world computed %d route trees over %d ASes, want some but fewer than one per AS", n, ases)
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	done := make(chan []byte)
	go func() { b, _ := io.ReadAll(r); done <- b }()
	defer func() { os.Stderr = saved }()
	fn()
	w.Close()
	return string(<-done)
}

// interruptedReport opens the report s describes and cancels it the
// way the signal handler does (cause ErrInterrupted) once the second
// chunk has been collected. It returns what the report wrote to stderr
// and its error.
func interruptedReport(t *testing.T, s Spec) (string, error) {
	t.Helper()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	c, err := open(ctx, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	c.src = func(ctx context.Context, fn func(*platform.Chunk) error) (platform.Completeness, error) {
		return c.live(ctx, func(ch *platform.Chunk) error {
			if n++; n == 2 {
				cancel(platform.ErrInterrupted)
			}
			return fn(ch)
		})
	}
	var runErr error
	stderr := captureStderr(t, func() { _, runErr = c.report(ctx, nil) })
	return stderr, runErr
}

// TestStreamInterrupt interrupts -stream reports in their one pass,
// after the second chunk: the report fails with ErrInterrupted, prints
// no -resume hint and creates nothing under $TMPDIR, and with
// -corpus-out it leaves neither the corpus, its partial file nor a
// manifest behind.
func TestStreamInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	for _, tc := range []struct {
		name      string
		corpusOut bool
	}{{"no-corpus-out", false}, {"corpus-out", true}} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			t.Setenv("TMPDIR", tmp)
			s := formatSpec("heavy")
			s.Stream, s.ChunkTests = true, 64 // 600 tests -> 10 chunks
			if tc.corpusOut {
				s.CorpusOut = filepath.Join(t.TempDir(), "corpus.tpc")
			}
			stderr, runErr := interruptedReport(t, s)
			if !errors.Is(runErr, platform.ErrInterrupted) {
				t.Fatalf("interrupted report returned %v, want ErrInterrupted", runErr)
			}
			if strings.Contains(stderr, "-resume") {
				t.Errorf("interrupted report printed a -resume hint:\n%s", stderr)
			}
			if tc.corpusOut {
				for _, p := range []string{s.CorpusOut, checkpoint.PartialPath(s.CorpusOut), s.CorpusOut + ".manifest.json"} {
					if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
						t.Errorf("interrupted report left %s (err=%v)", p, err)
					}
				}
			}
			assertEmpty(t, tmp)
		})
	}
}

// TestRerunReproducesInterruptedCampaign pins how a lost campaign is
// recovered: a -corpus-out report interrupted after its second chunk
// publishes nothing, and re-running the same Spec publishes the corpus
// and renders the report of an uninterrupted run, byte for byte, clean
// and under heavy faults.
func TestRerunReproducesInterruptedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("builds worlds")
	}
	for _, profile := range []string{"off", "heavy"} {
		t.Run(profile, func(t *testing.T) {
			dir := t.TempDir()
			s := formatSpec(profile)
			s.ChunkTests = 64 // 600 tests -> 10 chunks

			ref := s
			ref.CorpusOut = filepath.Join(dir, "ref.tpc")
			wantReport, err := Report(context.Background(), ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantCorpus, err := os.ReadFile(ref.CorpusOut)
			if err != nil {
				t.Fatal(err)
			}

			s.CorpusOut = filepath.Join(dir, "corpus.tpc")
			if _, runErr := interruptedReport(t, s); !errors.Is(runErr, platform.ErrInterrupted) {
				t.Fatalf("interrupted report returned %v, want ErrInterrupted", runErr)
			}
			if _, err := os.Stat(s.CorpusOut); !errors.Is(err, os.ErrNotExist) {
				t.Fatal("interrupted report published its corpus")
			}

			got, err := Report(context.Background(), s, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != wantReport {
				t.Error("re-run report differs from the uninterrupted run's")
			}
			gotCorpus, err := os.ReadFile(s.CorpusOut)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotCorpus, wantCorpus) {
				t.Errorf("re-run corpus differs from the uninterrupted run's (%d vs %d bytes)", len(gotCorpus), len(wantCorpus))
			}
			if _, err := os.Stat(checkpoint.PartialPath(s.CorpusOut)); !errors.Is(err, os.ErrNotExist) {
				t.Error("partial corpus survived the re-run")
			}
		})
	}
}

// TestReportReadsOnce pins the report to one read of each chunk, live
// and over a persisted corpus: the one pipeline's match stage sees as
// many chunks as the corpus footer records, no second pass leaves a
// metric, and the live collection's span sits inside the pass's.
func TestReportReadsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	path := t.TempDir() + "/corpus.tpc"
	live := formatSpec("heavy")
	live.Stream, live.CorpusOut, live.ChunkTests = true, path, 97
	liveReg := obs.NewRegistry()
	if _, err := Report(context.Background(), live, liveReg); err != nil {
		t.Fatal(err)
	}
	r, err := openReader(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.replay(context.Background(), func(*platform.Chunk) error { return nil }); err != nil {
		t.Fatal(err)
	}
	chunks := uint64(r.Footer().Chunks)
	if chunks < 2 {
		t.Fatalf("corpus has %d chunks, want several", chunks)
	}
	reload := formatSpec("heavy")
	reload.Corpus = path
	reloadReg := obs.NewRegistry()
	if _, err := Report(context.Background(), reload, reloadReg); err != nil {
		t.Fatal(err)
	}
	for name, reg := range map[string]*obs.Registry{"live": liveReg, "corpus": reloadReg} {
		for _, stage := range []string{"mapit", "aggregate", "match"} {
			if got := reg.Counter("pipeline.pass1." + stage + ".items").Value(); got != chunks {
				t.Errorf("%s: pipeline.pass1.%s.items = %d, want the footer's %d chunks", name, stage, got, chunks)
			}
		}
		d := reg.Snapshot()
		var keys []string
		for k := range d.Counters {
			keys = append(keys, k)
		}
		for k := range d.Gauges {
			keys = append(keys, k)
		}
		for _, k := range keys {
			if strings.HasPrefix(k, "pipeline.pass2") {
				t.Errorf("%s: metric %s from a second pass", name, k)
			}
		}
	}
	if got := liveReg.Counter("pipeline.pass1.bdrmap.items").Value(); got != chunks {
		t.Errorf("live: pipeline.pass1.bdrmap.items = %d, want %d", got, chunks)
	}
	// The live collection runs inside the pass: its span sits under the
	// pipeline's, after the stages'.
	var roots, pass []string
	for _, s := range liveReg.Snapshot().Spans {
		roots = append(roots, s.Name)
		if s.Name == "pipeline.pass1" {
			for _, c := range s.Children {
				pass = append(pass, c.Name)
			}
		}
	}
	if got, want := strings.Join(roots, " "), "generate pipeline.pass1 mapit bdrmap report"; got != want {
		t.Errorf("live: root spans = %s, want %s", got, want)
	}
	if got, want := strings.Join(pass, " "), "mapit aggregate match bdrmap export collect"; got != want {
		t.Errorf("live: pipeline.pass1 children = %s, want %s", got, want)
	}
}

// TestCorpusFormatMismatchError pins the answer to the removed text
// corpus format: asking to write it fails before any world is built,
// with an error naming the printer that replaces it, and a report over
// a dumped text stream fails naming the format.
func TestCorpusFormatMismatchError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world")
	}
	dir := t.TempDir()
	s := formatSpec("off")
	s.CorpusOut, s.CorpusFormat = dir+"/x", "ndjson"
	_, err := Report(context.Background(), s, nil)
	if err == nil || !strings.Contains(err.Error(), "corpus dump") {
		t.Fatalf("-corpus-format ndjson returned %v, want an error naming corpus dump", err)
	}
	if _, err := os.Stat(dir + "/x"); !os.IsNotExist(err) {
		t.Error("a refused -corpus-format still wrote a corpus")
	}

	path := dir + "/corpus.tpc"
	s = formatSpec("off")
	s.Stream, s.CorpusOut = true, path
	if _, err := Report(context.Background(), s, nil); err != nil {
		t.Fatal(err)
	}
	textPath := dir + "/corpus.ndjson"
	if err := os.WriteFile(textPath, dump(t, path), 0o644); err != nil {
		t.Fatal(err)
	}
	s = formatSpec("off")
	s.Corpus = textPath
	_, err = Report(context.Background(), s, nil)
	if err == nil || !strings.Contains(err.Error(), export.StreamFormat) {
		t.Errorf("report over a text stream returned %v, want an error naming %s", err, export.StreamFormat)
	}
}
