package checkpoint

import (
	"fmt"
	"io"
	"os"
	"strings"

	"throughputlab/internal/export"
)

// Resume re-opens the partial corpus named by a manifest and returns a
// checkpointing writer positioned exactly after the last durable
// chunk, ready to keep appending. It refuses unless the current run's
// identity matches the manifest's fingerprint, then replays the
// durable prefix (feeding each chunk to onChunk so the caller can
// rebuild in-memory state), verifies its length and crc32c against the
// manifest, truncates any torn tail beyond the durable point, and
// splices a resumed corpus writer onto the end.
//
// fp is the current run's fingerprint with WorldCRC unset — Resume
// computes it from the regenerated world.
// Collection must then be restarted with StartChunk =
// manifest.Durable.Chunks; determinism makes the appended suffix
// byte-identical to the chunks an uninterrupted run would have written.
func Resume(m *Manifest, public export.Public, meta export.StreamMeta, fp Fingerprint, workers int, opts Options, onChunk func(*export.StreamChunk) error) (*Writer, error) {
	if err := export.CheckFormat(m.Fingerprint.Format); err != nil {
		return nil, fmt.Errorf("checkpoint: refusing to resume %s: %w", m.CorpusPartial, err)
	}
	worldCRC, err := export.HeaderFingerprint(public, meta)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	fp.WorldCRC = worldCRC
	fp.Format = m.Fingerprint.Format
	if diff := m.Fingerprint.Diff(fp); len(diff) > 0 {
		return nil, fmt.Errorf("checkpoint: refusing to resume: campaign identity mismatch:\n  %s", strings.Join(diff, "\n  "))
	}

	f, err := os.OpenFile(m.CorpusPartial, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening partial corpus: %w", err)
	}
	fail := func(err error) (*Writer, error) {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("checkpoint: partial corpus: %w", err))
	}
	if st.Size() < m.Durable.Bytes {
		return fail(fmt.Errorf("checkpoint: partial corpus %s is %d bytes, shorter than the %d-byte durable prefix the manifest records — the file was truncated after the last checkpoint",
			m.CorpusPartial, st.Size(), m.Durable.Bytes))
	}

	prefix, err := export.ReplayPrefix(f, m.Durable.Bytes, m.Durable.Chunks, workers, onChunk)
	if err != nil {
		return fail(fmt.Errorf("checkpoint: replaying durable prefix: %w", err))
	}
	if prefix.CRC != m.Durable.CRC32C {
		return fail(fmt.Errorf("checkpoint: durable prefix of %s is corrupt: crc32c %08x, manifest records %08x",
			m.CorpusPartial, prefix.CRC, m.Durable.CRC32C))
	}
	if prefix.Totals.Chunks != m.Durable.Chunks || prefix.Totals.Tests != m.Durable.Tests || prefix.Totals.Traces != m.Durable.Traces {
		return fail(fmt.Errorf("checkpoint: durable prefix of %s replayed to %d chunks / %d tests / %d traces, manifest records %d / %d / %d",
			m.CorpusPartial, prefix.Totals.Chunks, prefix.Totals.Tests, prefix.Totals.Traces,
			m.Durable.Chunks, m.Durable.Tests, m.Durable.Traces))
	}

	// Drop any torn tail past the durable point — bytes a dying process
	// got into the page cache after the last checkpoint — and position
	// the append exactly at the boundary.
	if err := f.Truncate(m.Durable.Bytes); err != nil {
		return fail(fmt.Errorf("checkpoint: truncating torn tail: %w", err))
	}
	if _, err := f.Seek(m.Durable.Bytes, io.SeekStart); err != nil {
		return fail(fmt.Errorf("checkpoint: seeking to durable boundary: %w", err))
	}

	var sink io.Writer = f
	if opts.WrapWriter != nil {
		sink = opts.WrapWriter(f)
	}
	crc := &crcWriter{w: sink, f: f, n: m.Durable.Bytes, sum: m.Durable.CRC32C}
	return &Writer{
		f:     f,
		cw:    export.ResumeCorpusWriter(crc, prefix, workers),
		crc:   crc,
		mpath: ManifestPath(m.CorpusFinal),
		every: opts.every(),
		m:     *m,
	}, nil
}
