package checkpoint

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"throughputlab/internal/export"
	"throughputlab/internal/platform"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a checkpointing writer.
type Options struct {
	// SyncEveryChunks is how many chunks may accumulate between
	// durability barriers (Sync + fsync + manifest rewrite). Zero means
	// the default of 8; 1 checkpoints at every chunk boundary.
	SyncEveryChunks int
	// WrapWriter, when set, wraps the partial-corpus file before the
	// corpus writer is attached. Tests use it to inject write failures
	// (disk full) and assert the error propagates and nothing publishes.
	WrapWriter func(io.Writer) io.Writer
}

func (o Options) every() int {
	if o.SyncEveryChunks <= 0 {
		return 8
	}
	return o.SyncEveryChunks
}

// crcWriter counts and checksums everything flushed toward the file,
// so the manifest's (bytes, crc32c) pair describes exactly the durable
// prefix without re-reading it. Each write also starts the kernel's
// writeback of its byte range on f, so the next durability barrier's
// fsync finds most of the prefix already on disk instead of flushing
// it all while collection waits.
type crcWriter struct {
	w   io.Writer
	f   *os.File
	n   int64
	sum uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		startWriteback(cw.f, cw.n, int64(n))
	}
	cw.n += int64(n)
	cw.sum = crc32.Update(cw.sum, castagnoli, p[:n])
	return n, err
}

// Writer is a crash-safe corpus sink: bytes land in a .partial temp
// file with periodic chunk-boundary checkpoints (drain, fsync, atomic
// manifest rewrite), and the corpus appears on its publication path
// only via the footer-then-rename in Close. It is not safe for
// concurrent use — like the corpus writer it wraps, it is fed chunks
// from one goroutine, in publication order.
type Writer struct {
	f        *os.File
	cw       *export.ColumnarWriter
	crc      *crcWriter
	m        Manifest
	mpath    string
	every    int
	unsynced int
	firstErr error
	finished bool
}

// Create opens a checkpointing writer publishing to finalPath. format
// is the corpus format name export.CheckFormat accepts. The world hash
// is computed from (public, meta) and stamped into the fingerprint; an
// initial checkpoint runs immediately, so the manifest exists (and the
// header is durable) before any chunk does.
func Create(finalPath, format string, public export.Public, meta export.StreamMeta, fp Fingerprint, workers int, opts Options) (*Writer, error) {
	if err := export.CheckFormat(format); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	worldCRC, err := export.HeaderFingerprint(public, meta)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	fp.WorldCRC = worldCRC
	partial := PartialPath(finalPath)
	f, err := os.Create(partial)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: creating partial corpus: %w", err)
	}
	var sink io.Writer = f
	if opts.WrapWriter != nil {
		sink = opts.WrapWriter(f)
	}
	crc := &crcWriter{w: sink, f: f}
	cw, err := export.NewColumnarWriter(crc, public, meta, workers)
	if err != nil {
		f.Close()
		os.Remove(partial)
		return nil, err
	}
	w := &Writer{
		f:     f,
		cw:    cw,
		crc:   crc,
		mpath: ManifestPath(finalPath),
		every: opts.every(),
		m: Manifest{
			Format:        ManifestFormat,
			CorpusFinal:   finalPath,
			CorpusPartial: partial,
			Fingerprint:   fp,
		},
	}
	if err := w.Checkpoint(); err != nil {
		w.Discard()
		return nil, err
	}
	return w, nil
}

// WriteChunk appends one collection chunk, checkpointing every
// SyncEveryChunks chunks. The first failure is sticky: it is returned
// here and again from Close, and nothing publishes after it.
func (w *Writer) WriteChunk(c *platform.Chunk) error {
	if w.firstErr != nil {
		return w.firstErr
	}
	if err := w.cw.WriteChunk(c); err != nil {
		w.firstErr = err
		return err
	}
	w.unsynced++
	if w.unsynced >= w.every {
		return w.Checkpoint()
	}
	return nil
}

// Checkpoint forces a durability barrier at the current chunk
// boundary: every submitted chunk is encoded, written and pushed
// through the OS page cache to disk, then the manifest is atomically
// rewritten to record the new durable prefix.
func (w *Writer) Checkpoint() error {
	if w.firstErr != nil {
		return w.firstErr
	}
	if err := w.cw.Sync(); err != nil {
		w.firstErr = err
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.firstErr = fmt.Errorf("checkpoint: fsync partial corpus: %w", err)
		return w.firstErr
	}
	ft := w.cw.Footer()
	w.m.Durable = Durable{
		Chunks:            ft.Chunks,
		Bytes:             w.crc.n,
		CRC32C:            w.crc.sum,
		Tests:             ft.Tests,
		Traces:            ft.Traces,
		TestsWithoutTrace: ft.TestsWithoutTrace,
		Completeness:      ft.Completeness,
	}
	if err := w.m.Store(w.mpath); err != nil {
		w.firstErr = err
		return err
	}
	w.unsynced = 0
	return nil
}

// Close seals and publishes the corpus: footer written, partial file
// fsynced and renamed onto the publication path, directory fsynced,
// manifest removed. On any error — including a sticky earlier one —
// the partial file and manifest are removed and the publication path
// is left untouched, so a half-written corpus is never observable.
func (w *Writer) Close() error {
	if w.finished {
		return w.firstErr
	}
	if w.firstErr != nil {
		w.Discard()
		return w.firstErr
	}
	w.finished = true
	fail := func(err error) error {
		w.firstErr = err
		w.cw = nil // already closed or dead; Discard must not touch it
		w.f.Close()
		os.Remove(w.m.CorpusPartial)
		os.Remove(w.mpath)
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
	if err := os.Rename(w.m.CorpusPartial, w.m.CorpusFinal); err != nil {
		w.cw = nil
		w.firstErr = fmt.Errorf("checkpoint: publishing corpus: %w", err)
		os.Remove(w.m.CorpusPartial)
		os.Remove(w.mpath)
		return w.firstErr
	}
	if err := syncDir(filepath.Dir(w.m.CorpusFinal)); err != nil {
		return err
	}
	os.Remove(w.mpath)
	return nil
}

// Interrupt is the graceful-cancellation exit: it checkpoints whatever
// chunks have been submitted, abandons the corpus writer without
// writing a footer (the partial file must stay visibly incomplete),
// and keeps both the partial corpus and the manifest on disk for a
// later -resume. It returns the manifest path to hint at.
func (w *Writer) Interrupt() (string, error) {
	if w.finished {
		return w.mpath, w.firstErr
	}
	w.finished = true
	err := w.Checkpoint()
	w.cw.Abandon()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("checkpoint: closing partial corpus: %w", cerr)
	}
	return w.mpath, err
}

// Discard tears the writer down and removes both the partial corpus
// and the manifest — the error path, where nothing should survive.
func (w *Writer) Discard() {
	w.finished = true
	if w.cw != nil {
		w.cw.Abandon()
		w.cw = nil
	}
	w.f.Close()
	os.Remove(w.m.CorpusPartial)
	os.Remove(w.mpath)
}

// Footer exposes the wrapped corpus writer's running totals.
func (w *Writer) Footer() export.StreamFooter { return w.cw.Footer() }

// Durable returns the last checkpointed durable prefix.
func (w *Writer) Durable() Durable { return w.m.Durable }

// ManifestPathName returns where this writer keeps its manifest.
func (w *Writer) ManifestPathName() string { return w.mpath }
