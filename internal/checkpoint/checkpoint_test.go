package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"throughputlab/internal/export"
	"throughputlab/internal/faults"
	"throughputlab/internal/platform"
	"throughputlab/internal/topogen"
)

// world is the package's shared small world, generated on first use.
var world = sync.OnceValue(func() *topogen.World {
	return topogen.MustGenerate(topogen.SmallConfig())
})

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

// reference collects the full campaign uninterrupted through a plain
// corpus writer and returns the corpus bytes.
func reference(t *testing.T, cfg platform.CollectConfig, workers int) []byte {
	t.Helper()
	pub := export.FromWorld(world(), nil).Public
	var buf bytes.Buffer
	cw, err := export.NewColumnarWriter(&buf, pub, testMeta(cfg), workers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := platform.CollectStreamCtx(context.Background(), world(), cfg, workers, cw.WriteChunk); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPublishAtomicAndByteIdentical pins the publication contract: the
// corpus shows up on its final path only after Close, byte-identical
// to a plain uninterrupted writer, with no partial file left behind.
func TestPublishAtomicAndByteIdentical(t *testing.T) {
	t.Run("columnar", func(t *testing.T) {
		cfg := testCfg(faults.Off())
		final := filepath.Join(t.TempDir(), "corpus.bin")
		pub := export.FromWorld(world(), nil).Public
		w, err := Create(final, "columnar", pub, testMeta(cfg), Fingerprint{}, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(final); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("final path exists before Close (err=%v)", err)
		}
		if _, err := platform.CollectStreamCtx(context.Background(), world(), cfg, 4, w.WriteChunk); err != nil {
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
// published — no final corpus, and no partial file left behind — when
// Create is asked for a corpus format that no longer exists (ndjson:
// refused up front, naming the text printer), or when a write fails
// mid-campaign (columnar: disk full), in which case the write failure
// surfaces from the corpus sink or, while the writer's buffer still
// holds it, from Close, and Close returns it either way, at one encode
// worker and at several.
func TestWriteFailureNeverPublishes(t *testing.T) {
	t.Run("ndjson", func(t *testing.T) {
		cfg := testCfg(faults.Off())
		final := filepath.Join(t.TempDir(), "corpus.bin")
		_, err := Create(final, "ndjson", export.FromWorld(world(), nil).Public, testMeta(cfg), Fingerprint{}, 1, Options{})
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("corpus dump")) {
			t.Fatalf("Create(ndjson) = %v, want a refusal naming corpus dump", err)
		}
		for _, p := range []string{final, PartialPath(final)} {
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
				pub := export.FromWorld(world(), nil).Public
				w, err := Create(final, "columnar", pub, testMeta(cfg), Fingerprint{}, workers, Options{
					// Past the ~57K header, short of the corpus's full
					// size — the failure lands mid-corpus.
					WrapWriter: func(w io.Writer) io.Writer { return &failAfter{w: w, n: 100 << 10} },
				})
				if err != nil {
					t.Fatal(err)
				}
				_, cerr := platform.CollectStreamCtx(context.Background(), world(), cfg, 1, w.WriteChunk)
				if cerr != nil && !errors.Is(cerr, errDiskFull) {
					t.Fatalf("collection error = %v, want nil or the injected disk-full error", cerr)
				}
				if err := w.Close(); !errors.Is(err, errDiskFull) {
					t.Fatalf("Close error = %v, want the injected disk-full error", err)
				}
				for _, p := range []string{final, PartialPath(final)} {
					if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
						t.Errorf("%s exists after failed campaign (err=%v)", p, err)
					}
				}
			})
		}
	})
}
