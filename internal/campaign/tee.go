package campaign

import (
	"fmt"
	"os"

	"throughputlab/internal/checkpoint"
	"throughputlab/internal/export"
	"throughputlab/internal/platform"
)

// tee is an open -corpus-out corpus: its publishing writer and the path
// the finished corpus is published at. A nil *tee persists nothing, and
// its seal passes the campaign error through.
type tee struct {
	w    *checkpoint.Writer
	path string
}

// openTee opens the corpus published at path under meta, or returns
// nil when path is empty and nothing is persisted. Every chunk written
// goes to path+".partial", and the corpus appears at path only through
// seal's footer-then-rename — so the readable path is always absent, a
// complete prior corpus, or a complete current one. A device or a
// named pipe at path is written in place.
func (c *Campaign) openTee(path string, meta export.StreamMeta) (*tee, error) {
	if path == "" {
		return nil, nil
	}
	w, err := checkpoint.Create(path, corpusFormat, *c.bundle(), meta, checkpoint.Fingerprint{}, c.opts.Workers, checkpoint.Options{})
	if err != nil {
		return nil, err
	}
	return &tee{w: w, path: path}, nil
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
// atomically; any error, an interrupt included, discards the partial
// corpus so nothing half-written is left behind.
func (t *tee) seal(runErr error) error {
	if t == nil {
		return runErr
	}
	if runErr != nil {
		t.w.Discard()
		return runErr
	}
	ft := t.w.Footer()
	if err := t.w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "corpus: wrote %s (%d chunks, %d tests, %d traces)\n",
		t.path, ft.Chunks, ft.Tests, ft.Traces)
	return nil
}
