package checkpoint

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"throughputlab/internal/export"
	"throughputlab/internal/faults"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
)

var world = topogen.MustGenerate(topogen.SmallConfig())

func testCfg(faultProfile faults.Profile) platform.CollectConfig {
	cfg := platform.DefaultCollect()
	cfg.Tests = 360
	cfg.PerPoolClients = 4
	cfg.ChunkTests = 64
	cfg.Faults = faultProfile
	return cfg
}

func testMeta(cfg platform.CollectConfig) export.StreamMeta {
	return export.StreamMeta{Scale: "small", Seed: cfg.Seed, Tests: cfg.Tests}
}

func testFingerprint(cfg platform.CollectConfig) Fingerprint {
	return Fingerprint{
		Scale:      "small",
		Seed:       cfg.Seed,
		Tests:      cfg.Tests,
		ChunkTests: cfg.ChunkTests,
		Faults:     cfg.Faults.Name,
		FaultSeed:  cfg.FaultSeed,
		Format:     "columnar",
	}
}

// reference collects the full campaign uninterrupted through a plain
// corpus writer and returns the corpus bytes.
func reference(t *testing.T, cfg platform.CollectConfig, workers int) []byte {
	t.Helper()
	pub := export.FromWorld(world, nil).Public
	var buf bytes.Buffer
	cw, err := export.NewColumnarWriter(&buf, pub, testMeta(cfg), workers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.CollectStreamCtx(context.Background(), world, cfg, workers, cw.WriteChunk); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPublishAtomicAndByteIdentical pins the publication contract: the
// corpus shows up on its final path only after Close, byte-identical
// to a plain uninterrupted writer, with no partial file or manifest
// left behind.
func TestPublishAtomicAndByteIdentical(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		cfg := testCfg(faults.Off())
		final := filepath.Join(t.TempDir(), "corpus.bin")
		pub := export.FromWorld(world, nil).Public
		w, err := Create(final, "columnar", pub, testMeta(cfg), testFingerprint(cfg), 4, Options{SyncEveryChunks: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(final); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("final path exists before Close (err=%v)", err)
		}
		if _, err := os.Stat(w.ManifestPathName()); err != nil {
			t.Fatalf("manifest should exist from Create on: %v", err)
		}
		if _, err := platform.CollectStreamCtx(context.Background(), world, cfg, 4, w.WriteChunk); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(final); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("final path exists before Close")
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(final)
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(t, cfg, 4); !bytes.Equal(got, want) {
			t.Fatalf("published corpus differs from plain writer: %d vs %d bytes", len(got), len(want))
		}
		if _, err := os.Stat(PartialPath(final)); !errors.Is(err, os.ErrNotExist) {
			t.Error("partial file survived Close")
		}
		if _, err := os.Stat(w.ManifestPathName()); !errors.Is(err, os.ErrNotExist) {
			t.Error("manifest survived Close")
		}
	})
}

// failAfter injects a write failure once n bytes have passed through —
// the disk-full simulation.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskFull = errors.New("injected: no space left on device")

func (fa *failAfter) Write(p []byte) (int, error) {
	if fa.n <= 0 {
		return 0, errDiskFull
	}
	if len(p) > fa.n {
		n, _ := fa.w.Write(p[:fa.n])
		fa.n = 0
		return n, errDiskFull
	}
	n, err := fa.w.Write(p)
	fa.n -= n
	return n, err
}

// TestWriteFailureNeverPublishes pins the failure contract: nothing is
// published — no final corpus, and no partial file or manifest left
// behind — when Create is asked for a corpus format that no longer
// exists (ndjson: refused up front, naming the text printer), or when a
// write fails mid-campaign (columnar: disk full), in which case the
// first write failure propagates out of the corpus sink (or the forced
// checkpoint) and Close returns it again, at one encode worker and at
// several.
func TestWriteFailureNeverPublishes(t *testing.T) {
	t.Run("ndjson", func(t *testing.T) {
		cfg := testCfg(faults.Off())
		final := filepath.Join(t.TempDir(), "corpus.bin")
		fp := testFingerprint(cfg)
		fp.Format = "ndjson"
		_, err := Create(final, "ndjson", export.FromWorld(world, nil).Public, testMeta(cfg), fp, 1, Options{})
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("corpus dump")) {
			t.Fatalf("Create(ndjson) = %v, want a refusal naming corpus dump", err)
		}
		for _, p := range []string{final, PartialPath(final), ManifestPath(final)} {
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s exists after a refused Create (err=%v)", p, err)
			}
		}
	})
	t.Run("columnar", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
				cfg := testCfg(faults.Off())
				final := filepath.Join(t.TempDir(), "corpus.bin")
				pub := export.FromWorld(world, nil).Public
				w, err := Create(final, "columnar", pub, testMeta(cfg), testFingerprint(cfg), workers, Options{
					SyncEveryChunks: 1,
					// Past the ~57K header, short of the corpus's full
					// size — the failure lands mid-collection.
					WrapWriter: func(w io.Writer) io.Writer { return &failAfter{w: w, n: 100 << 10} },
				})
				if err != nil {
					t.Fatal(err)
				}
				_, cerr := platform.CollectStreamCtx(context.Background(), world, cfg, 1, w.WriteChunk)
				if cerr == nil {
					// Small corpora can fit 4096 bytes of header; force the
					// flush path to surface the failure.
					cerr = w.Checkpoint()
				}
				if !errors.Is(cerr, errDiskFull) {
					t.Fatalf("collection error = %v, want the injected disk-full error", cerr)
				}
				if err := w.Close(); !errors.Is(err, errDiskFull) {
					t.Fatalf("Close error = %v, want the injected disk-full error", err)
				}
				for _, p := range []string{final, PartialPath(final), w.ManifestPathName()} {
					if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
						t.Errorf("%s exists after failed campaign (err=%v)", p, err)
					}
				}
			})
		}
	})
}

// TestFingerprintDiff pins that every identity field participates in
// resume validation and mismatches name their flag.
func TestFingerprintDiff(t *testing.T) {
	base := Fingerprint{Scale: "small", Seed: 7, Tests: 360, Shards: 4,
		ChunkTests: 64, Faults: "off", FaultSeed: 0, Format: "columnar", WorldCRC: 0xabcd}
	cases := []struct {
		name   string
		mutate func(*Fingerprint)
		flag   string
	}{
		{"scale", func(fp *Fingerprint) { fp.Scale = "large" }, "-scale"},
		{"seed", func(fp *Fingerprint) { fp.Seed = 8 }, "-seed"},
		{"tests", func(fp *Fingerprint) { fp.Tests = 100 }, "-tests"},
		{"shards", func(fp *Fingerprint) { fp.Shards = 8 }, "-shards"},
		{"chunk_tests", func(fp *Fingerprint) { fp.ChunkTests = 32 }, "-chunk-tests"},
		{"faults", func(fp *Fingerprint) { fp.Faults = "heavy" }, "-faults"},
		{"fault_seed", func(fp *Fingerprint) { fp.FaultSeed = 3 }, "-faultseed"},
		{"format", func(fp *Fingerprint) { fp.Format = "" }, "-corpus-format"},
		{"world", func(fp *Fingerprint) { fp.WorldCRC = 1 }, "-world"},
	}
	if d := base.Diff(base); len(d) != 0 {
		t.Fatalf("identical fingerprints diff: %v", d)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			other := base
			tc.mutate(&other)
			d := base.Diff(other)
			if len(d) != 1 {
				t.Fatalf("Diff = %v, want exactly one mismatch", d)
			}
			if !bytes.Contains([]byte(d[0]), []byte(tc.flag)) {
				t.Fatalf("mismatch %q does not name flag %s", d[0], tc.flag)
			}
		})
	}
}

// interruptAfter runs a campaign through a checkpointing writer and
// kills it (graceful-interrupt style) once k chunks are durable,
// returning the manifest path.
func interruptAfter(t *testing.T, final string, cfg platform.CollectConfig, workers, k int) string {
	t.Helper()
	pub := export.FromWorld(world, nil).Public
	w, err := Create(final, "columnar", pub, testMeta(cfg), testFingerprint(cfg), workers, Options{SyncEveryChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	seen := 0
	_, cerr := platform.CollectStreamCtx(context.Background(), world, cfg, workers, func(c *platform.Chunk) error {
		if seen == k {
			return errStop
		}
		seen++
		return w.WriteChunk(c)
	})
	if k > 0 && !errors.Is(cerr, errStop) {
		t.Fatalf("collection should have been stopped at chunk %d: %v", k, cerr)
	}
	mpath, err := w.Interrupt()
	if err != nil {
		t.Fatal(err)
	}
	if d := w.Durable(); d.Chunks != k {
		t.Fatalf("durable chunks after interrupt = %d, want %d", d.Chunks, k)
	}
	return mpath
}

// resumeAndFinish reloads a manifest, resumes the writer, continues
// collection from the first non-durable chunk, and publishes.
func resumeAndFinish(t *testing.T, mpath string, cfg platform.CollectConfig, workers int) {
	t.Helper()
	m, err := LoadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	pub := export.FromWorld(world, nil).Public
	replayed := 0
	w, err := Resume(m, pub, testMeta(cfg), testFingerprint(cfg), workers, Options{SyncEveryChunks: 1},
		func(*export.StreamChunk) error { replayed++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != m.Durable.Chunks {
		t.Fatalf("replayed %d chunks, manifest records %d durable", replayed, m.Durable.Chunks)
	}
	cfg.StartChunk = m.Durable.Chunks
	if _, err := platform.CollectStreamCtx(context.Background(), world, cfg, workers, w.WriteChunk); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKillAtEveryChunkBoundary is the crash-safety property test: for
// every durable chunk count k, a campaign interrupted after k chunks
// and resumed publishes a corpus byte-identical to the uninterrupted
// run — across clean and heavy fault profiles and worker counts 1
// and 8.
func TestKillAtEveryChunkBoundary(t *testing.T) {
	for _, fp := range []faults.Profile{faults.Off(), faults.Heavy()} {
		for _, workers := range []int{1, 8} {
			name := fmt.Sprintf("columnar/%s/w%d", fp.Name, workers)
			t.Run(name, func(t *testing.T) {
				cfg := testCfg(fp)
				want := reference(t, cfg, workers)
				nChunks := (cfg.Tests + cfg.ChunkTests - 1) / cfg.ChunkTests
				dir := t.TempDir()
				for k := 0; k < nChunks; k++ {
					final := filepath.Join(dir, fmt.Sprintf("corpus-%d.bin", k))
					mpath := interruptAfter(t, final, cfg, workers, k)
					resumeAndFinish(t, mpath, cfg, workers)
					got, err := os.ReadFile(final)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("k=%d: resumed corpus differs from uninterrupted (%d vs %d bytes)", k, len(got), len(want))
					}
					if _, err := os.Stat(mpath); !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("k=%d: manifest survived publication", k)
					}
				}
			})
		}
	}
}

// TestResumeTruncatesTornTail pins recovery from a crash mid-write:
// garbage past the durable boundary (a torn chunk the dying process
// half-flushed) is discarded and the resumed corpus still comes out
// byte-identical.
func TestResumeTruncatesTornTail(t *testing.T) {
	cfg := testCfg(faults.Off())
	want := reference(t, cfg, 4)
	final := filepath.Join(t.TempDir(), "corpus.bin")
	mpath := interruptAfter(t, final, cfg, 4, 3)
	f, err := os.OpenFile(PartialPath(final), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x01torn half-written chunk frame garbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	resumeAndFinish(t, mpath, cfg, 4)
	got, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed corpus differs from uninterrupted (%d vs %d bytes)", len(got), len(want))
	}
}

// TestResumeRefusals pins the fail-fast paths: corrupted durable
// prefix, shrunken partial file, and identity mismatch all refuse with
// a descriptive error instead of splicing garbage.
func TestResumeRefusals(t *testing.T) {
	cfg := testCfg(faults.Off())
	pub := export.FromWorld(world, nil).Public

	setup := func(t *testing.T) (*Manifest, string) {
		final := filepath.Join(t.TempDir(), "corpus.bin")
		mpath := interruptAfter(t, final, cfg, 1, 3)
		m, err := LoadManifest(mpath)
		if err != nil {
			t.Fatal(err)
		}
		return m, PartialPath(final)
	}

	t.Run("seed_mismatch", func(t *testing.T) {
		m, _ := setup(t)
		bad := testFingerprint(cfg)
		bad.Seed++
		_, err := Resume(m, pub, testMeta(cfg), bad, 1, Options{}, func(*export.StreamChunk) error { return nil })
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("-seed")) {
			t.Fatalf("err = %v, want identity mismatch naming -seed", err)
		}
	})
	t.Run("corrupt_prefix", func(t *testing.T) {
		m, partial := setup(t)
		data, err := os.ReadFile(partial)
		if err != nil {
			t.Fatal(err)
		}
		data[m.Durable.Bytes/2] ^= 0xff
		if err := os.WriteFile(partial, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Resume(m, pub, testMeta(cfg), testFingerprint(cfg), 1, Options{}, func(*export.StreamChunk) error { return nil })
		if err == nil {
			t.Fatal("resume accepted a corrupted durable prefix")
		}
	})
	t.Run("removed_format", func(t *testing.T) {
		m, _ := setup(t)
		m.Fingerprint.Format = "ndjson"
		_, err := Resume(m, pub, testMeta(cfg), testFingerprint(cfg), 1, Options{}, func(*export.StreamChunk) error { return nil })
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("corpus dump")) {
			t.Fatalf("err = %v, want a refusal naming corpus dump", err)
		}
	})
	t.Run("truncated_below_durable", func(t *testing.T) {
		m, partial := setup(t)
		if err := os.Truncate(partial, m.Durable.Bytes-1); err != nil {
			t.Fatal(err)
		}
		_, err := Resume(m, pub, testMeta(cfg), testFingerprint(cfg), 1, Options{}, func(*export.StreamChunk) error { return nil })
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("shorter")) {
			t.Fatalf("err = %v, want shorter-than-durable refusal", err)
		}
	})
}

// TestManifestRoundTrip pins Store/Load including the atomic-rewrite
// guarantee that a valid manifest is always on disk.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.manifest.json")
	m := &Manifest{
		Format:        ManifestFormat,
		CorpusFinal:   filepath.Join(dir, "c"),
		CorpusPartial: filepath.Join(dir, "c.partial"),
		Fingerprint:   Fingerprint{Seed: 42, Tests: 100, Format: "columnar", WorldCRC: 7},
		Durable:       Durable{Chunks: 3, Bytes: 4096, CRC32C: 99, Tests: 96, Traces: 90},
	}
	if err := m.Store(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *m {
		t.Fatalf("manifest round trip: got %+v want %+v", back, m)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Error("manifest temp file left behind")
	}

	t.Run("rejects_wrong_format", func(t *testing.T) {
		bad := *m
		bad.Format = "tputlab-checkpoint/999"
		p2 := filepath.Join(dir, "bad.manifest.json")
		if err := bad.Store(p2); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadManifest(p2); err == nil {
			t.Fatal("loaded a manifest with an unsupported format")
		}
	})
}

// FuzzParseManifest throws arbitrary bytes at the manifest decoder
// behind LoadManifest: it must accept or reject with an error, never
// panic, and anything it accepts must carry the fields Resume relies on.
func FuzzParseManifest(f *testing.F) {
	m := Manifest{
		Format:        ManifestFormat,
		CorpusFinal:   "c.tpc",
		CorpusPartial: "c.tpc.partial",
		Fingerprint:   Fingerprint{Seed: 1, Tests: 360, Format: "columnar", WorldCRC: 7},
		Durable:       Durable{Chunks: 3, Bytes: 4096, CRC32C: 99, Tests: 192, Traces: 180},
	}
	valid, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"format":"tputlab-checkpoint/999"}`))
	f.Add([]byte(`{"format":"tputlab-checkpoint/1","corpus_final":"a","corpus_partial":"b","durable":{"bytes":1,"chunks":-1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			return
		}
		if m.Format != ManifestFormat || m.CorpusFinal == "" || m.CorpusPartial == "" || m.Durable.Bytes <= 0 || m.Durable.Chunks < 0 {
			t.Fatalf("parseManifest accepted an invalid manifest: %+v", m)
		}
	})
}
