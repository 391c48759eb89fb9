// Package checkpoint publishes a corpus atomically. The corpus is
// written to a same-directory .partial temp file, fsynced, and renamed
// onto its readable path only once the footer is down, so the readable
// path is always absent, a complete prior corpus, or a complete current
// one, never torn. A campaign that dies before Close leaves nothing
// under the readable path; re-running the same command rebuilds the
// corpus byte for byte, because a corpus is a pure function of the
// campaign's flags and seed.
package checkpoint

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"throughputlab/internal/export"
	"throughputlab/internal/platform"
)

// PartialPath returns the temp path a corpus is written to before the
// rename-on-footer publication. It lives in the corpus's own directory
// so the rename never crosses a filesystem boundary.
func PartialPath(corpusPath string) string { return corpusPath + ".partial" }

// Fingerprint names a campaign's identity flags. Nothing reads it: it
// survives only because perfbench/trace, the benchmark's serial mirror
// of the campaign, still passes one to Create, and it is to be deleted
// along with that mirror.
type Fingerprint struct {
	Scale      string
	Seed       int64
	Tests      int
	Shards     int
	ChunkTests int
	Faults     string
	FaultSeed  int64
	Format     string
	WorldCRC   uint32
}

// Options tunes a publishing writer.
type Options struct {
	// WrapWriter, when set, wraps the partial-corpus file before the
	// corpus writer is attached. Tests use it to inject write failures
	// (disk full) and assert the error propagates and nothing publishes.
	WrapWriter func(io.Writer) io.Writer
}

// writeback starts the kernel's writeback of every range written to
// f, so the fsync at Close finds most of the corpus already on disk
// instead of flushing all of it at once.
type writeback struct {
	f   *os.File
	off int64
}

func (wb *writeback) Write(p []byte) (int, error) {
	n, err := wb.f.Write(p)
	if n > 0 {
		startWriteback(wb.f, wb.off, int64(n))
	}
	wb.off += int64(n)
	return n, err
}

// Writer is an atomically publishing corpus sink: bytes land in a
// .partial temp file, and the corpus appears on its publication path
// only via the footer-then-rename in Close. It is not safe for
// concurrent use — like the corpus writer it wraps, it is fed chunks
// from one goroutine, in publication order.
type Writer struct {
	f        *os.File
	cw       *export.ColumnarWriter
	final    string
	firstErr error
	finished bool
}

// Create opens a writer publishing to finalPath. format is the corpus
// format name export.CheckFormat accepts; the fingerprint is ignored.
func Create(finalPath, format string, public export.Public, meta export.StreamMeta, _ Fingerprint, workers int, opts Options) (*Writer, error) {
	if err := export.CheckFormat(format); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	partial := PartialPath(finalPath)
	f, err := os.Create(partial)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: creating partial corpus: %w", err)
	}
	var sink io.Writer = &writeback{f: f}
	if opts.WrapWriter != nil {
		sink = opts.WrapWriter(sink)
	}
	cw, err := export.NewColumnarWriter(sink, public, meta, workers)
	if err != nil {
		f.Close()
		os.Remove(partial)
		return nil, err
	}
	return &Writer{f: f, cw: cw, final: finalPath}, nil
}

// WriteChunk appends one collection chunk. The first failure is
// sticky: it is returned here and again from Close, and nothing
// publishes after it.
func (w *Writer) WriteChunk(c *platform.Chunk) error {
	if w.firstErr != nil {
		return w.firstErr
	}
	if err := w.cw.WriteChunk(c); err != nil {
		w.firstErr = err
		return err
	}
	return nil
}

// Close seals and publishes the corpus: footer written, partial file
// fsynced and renamed onto the publication path, directory fsynced. On
// any error — including a sticky earlier one — the partial file is
// removed and the publication path is left untouched, so a
// half-written corpus is never observable.
func (w *Writer) Close() error {
	if w.finished {
		return w.firstErr
	}
	if w.firstErr != nil {
		w.Discard()
		return w.firstErr
	}
	w.finished = true
	partial := PartialPath(w.final)
	fail := func(err error) error {
		w.firstErr = err
		w.f.Close()
		os.Remove(partial)
		return err
	}
	if err := w.cw.Close(); err != nil {
		return fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return fail(fmt.Errorf("checkpoint: fsync partial corpus: %w", err))
	}
	if err := w.f.Close(); err != nil {
		return fail(fmt.Errorf("checkpoint: closing partial corpus: %w", err))
	}
	if err := os.Rename(partial, w.final); err != nil {
		return fail(fmt.Errorf("checkpoint: publishing corpus: %w", err))
	}
	syncDir(filepath.Dir(w.final))
	return nil
}

// Discard tears the writer down and removes the partial corpus — the
// error and interrupt path, where nothing should survive.
func (w *Writer) Discard() {
	w.finished = true
	w.cw.Abandon()
	w.f.Close()
	os.Remove(PartialPath(w.final))
}

// Footer exposes the wrapped corpus writer's running totals.
func (w *Writer) Footer() export.StreamFooter { return w.cw.Footer() }

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss. It is best effort: filesystems that refuse to sync directories
// (some CI overlay mounts) are tolerated, since the rename itself is
// still atomic.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
