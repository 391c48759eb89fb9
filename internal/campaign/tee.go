package campaign

import (
	"errors"
	"fmt"
	"os"

	"throughputlab/internal/checkpoint"
	"throughputlab/internal/export"
	"throughputlab/internal/platform"
)

// tee is an open -corpus-out corpus: its checkpointing writer and the
// path the finished corpus is published at. A nil *tee persists
// nothing, and its seal passes the campaign error through.
type tee struct {
	w    *checkpoint.Writer
	path string
}

// openTee wires the corpus through the checkpoint layer: a fresh
// -corpus-out file, the interrupted corpus a manifest names (its
// durable prefix replayed into the retained chunks), or nil when
// nothing is persisted. Every chunk written goes to path+".partial"
// with periodic chunk-boundary checkpoints (encode-pipeline drain,
// fsync, atomic manifest rewrite), and the corpus appears at path only
// through seal's footer-then-rename — so the readable path is always
// absent, a complete prior corpus, or a complete current one.
func (c *Campaign) openTee(s Spec, m *checkpoint.Manifest) (*tee, error) {
	if s.CorpusOut == "" && m == nil {
		return nil, nil
	}
	t := &tee{path: s.CorpusOut}
	meta := export.StreamMeta{Scale: s.Scale, Seed: c.opts.Topo.Seed, Tests: c.opts.Collect.Tests}
	fp, ck := s.fingerprint(c.opts), checkpoint.Options{SyncEveryChunks: s.CheckpointEvery}
	var err error
	if m == nil {
		t.w, err = checkpoint.Create(t.path, corpusFormat, *c.bundle(), meta, fp, c.opts.Workers, ck)
	} else {
		t.path = m.CorpusFinal
		t.w, err = checkpoint.Resume(m, *c.bundle(), meta, fp, c.opts.Workers, ck, func(sc *export.StreamChunk) error {
			c.chunks = append(c.chunks, toChunk(sc))
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// write persists one chunk.
func (t *tee) write(ch *platform.Chunk) error {
	if t == nil {
		return nil
	}
	return t.w.WriteChunk(ch)
}

// seal ends the corpus with the campaign's error and returns the error
// to propagate; it must be called exactly once. nil publishes
// atomically and removes the manifest; an interrupt flushes a final
// checkpoint and keeps the partial corpus plus manifest for -resume
// (printing the hint); any other error discards both so the first
// failure propagates with nothing half-written left behind.
func (t *tee) seal(runErr error) error {
	if t == nil {
		return runErr
	}
	switch {
	case runErr == nil:
		ft := t.w.Footer()
		if err := t.w.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "corpus: wrote %s (%d chunks, %d tests, %d traces)\n",
			t.path, ft.Chunks, ft.Tests, ft.Traces)
		return nil
	case errors.Is(runErr, platform.ErrInterrupted):
		mpath, err := t.w.Interrupt()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tputlab: checkpoint flush on interrupt failed:", err)
			return runErr
		}
		d := t.w.Durable()
		fmt.Fprintf(os.Stderr, "corpus: interrupted with %d chunks (%d tests) durable; continue with:\n  tputlab report -resume %s\n",
			d.Chunks, d.Tests, mpath)
		return runErr
	default:
		t.w.Discard()
		return runErr
	}
}
