// Resume support: replaying the durable prefix of a partial corpus and
// reopening a writer that continues it. A crashed campaign leaves a
// footer-less file; the checkpoint layer (internal/checkpoint) records
// how many chunks and bytes of it are durable, verifies the prefix here
// by CRC, and reopens a writer positioned exactly at the last chunk
// boundary so the resumed file is byte-identical to an uninterrupted
// one.
package export

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// crcReader counts and checksums (crc32c) every byte pulled through it.
type crcReader struct {
	r   io.Reader
	n   int64
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	c.n += int64(n)
	return n, err
}

// PrefixState is everything a resumed writer needs about the durable
// prefix of a partial corpus: running footer totals, the chunk-index
// rows, and the prefix length + CRC.
type PrefixState struct {
	// Totals is the running footer over the prefix chunks (Footer set).
	Totals StreamFooter
	// Bytes is the prefix length; CRC is crc32c over those bytes.
	Bytes int64
	CRC   uint32
	index []chunkIndexEntry
}

// ReplayPrefix reads exactly byteLen bytes of a partial corpus —
// which must end at a chunk boundary, as the checkpoint layer
// guarantees — decodes its first `chunks` chunks through the
// worker-parallel reader, hands each to onChunk, and returns the
// prefix state (totals, chunk index, CRC over the bytes) a resumed
// writer continues from. Bytes between the last decoded chunk and
// byteLen would indicate a corrupt checkpoint and surface through the
// CRC/length cross-checks the caller performs.
func ReplayPrefix(r io.Reader, byteLen int64, chunks int, workers int, onChunk func(*StreamChunk) error) (*PrefixState, error) {
	cr := &crcReader{r: io.LimitReader(r, byteLen)}
	rd, err := openColumnar(cr, workers, EverythingProjection())
	if err != nil {
		return nil, fmt.Errorf("export: opening corpus prefix: %w", err)
	}
	for i := 0; i < chunks; i++ {
		c, err := rd.Next()
		if err != nil {
			rd.Close()
			return nil, fmt.Errorf("export: replaying corpus prefix: chunk %d of %d: %w", i, chunks, err)
		}
		if onChunk != nil {
			if err := onChunk(c); err != nil {
				rd.Close()
				return nil, err
			}
		}
	}
	ps := &PrefixState{Totals: rd.read, Bytes: byteLen, index: rd.seen}
	ps.Totals.Footer = true
	// Close stops the decode workers; the io.Copy then pulls any bytes
	// the reader left unread through the CRC so it covers the whole
	// prefix.
	rd.Close()
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, fmt.Errorf("export: reading corpus prefix: %w", err)
	}
	if cr.n != byteLen {
		return nil, fmt.Errorf("export: corpus prefix is %d bytes, checkpoint recorded %d", cr.n, byteLen)
	}
	ps.CRC = cr.sum
	return ps, nil
}

// ResumeCorpusWriter reopens a corpus writer over a file whose durable
// prefix ReplayPrefix just verified; w must be positioned at the end of
// that prefix. The writer emits no header: the next WriteChunk appends
// the chunk after the prefix, and the final file is byte-identical to
// an uninterrupted campaign's.
func ResumeCorpusWriter(w io.Writer, prefix *PrefixState, workers int) *ColumnarWriter {
	cw := &ColumnarWriter{
		bw:     bufio.NewWriterSize(w, 1<<20),
		off:    prefix.Bytes,
		footer: prefix.Totals,
		index:  append([]chunkIndexEntry(nil), prefix.index...),
	}
	cw.footer.Footer = true
	cw.attachEncoders(workers)
	return cw
}

// HeaderFingerprint digests the (public, meta) identity a corpus opens
// with. The checkpoint manifest records it as the world hash: at resume
// time the regenerated world must fingerprint to the same value or the
// suffix would not splice onto the prefix. The JSON marshalling is
// deterministic (map keys sort), so equal worlds always digest equally.
func HeaderFingerprint(public Public, meta StreamMeta) (uint32, error) {
	hdr, err := json.Marshal(streamHeader{Format: ColumnarFormat, Public: public, Meta: meta})
	if err != nil {
		return 0, fmt.Errorf("export: encoding corpus header: %w", err)
	}
	return crc32.Checksum(hdr, castagnoli), nil
}
