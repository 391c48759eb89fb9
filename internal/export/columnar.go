// Binary columnar corpus format (tputlab-corpus/2), the one on-disk
// corpus format: a report re-reads it many times, so decode speed and
// size on disk are the design goals (Dump prints it as a jq-able text
// stream).
//
// File layout:
//
//	magic[8] = "tputcol2"
//	header frame:  uvarint len | JSON streamHeader | crc32c
//	chunk frame:   0x01 | uvarint payloadLen | payload   ×N
//	footer frame:  0x02 | uvarint payloadLen | payload | crc32c
//	               | uint32 LE footerFrameLen | tail[8] = "tplc2idx"
//
// A chunk payload is a checksummed preamble (chunk index, watermark,
// per-chunk completeness ledger, row counts, stripe count) followed by
// one stripe per Test/Trace field — column-major, so a projected read
// skips a column family's stripes without decoding a byte of them
// (every program path reads both families; only perfbench/trace, the
// benchmark's serial mirror that ROADMAP item 1 deletes, reads traces
// alone). The footer carries campaign totals (the
// truncation check) plus an append-only chunk index: one (offset,
// watermark, tests, traces) row per chunk, which the reader
// cross-checks against the frames it saw.
// The trailing fixed-width frame length and tail magic let a seekable
// reader find the footer from the end of the file.
//
// Chunk encoding is deterministic (dictionaries are built in
// first-appearance order), so serial and worker-parallel writers
// produce byte-identical files.
package export

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"throughputlab/internal/platform"
	"throughputlab/internal/stream"
	"throughputlab/internal/traceroute"
)

// ColumnarFormat names the binary columnar corpus format version.
const ColumnarFormat = "tputlab-corpus/2"

// columnarMagic opens every columnar corpus file; columnarTail closes
// it, immediately after the fixed-width footer-frame length.
const (
	columnarMagic = "tputcol2"
	columnarTail  = "tplc2idx"
)

// Frame kinds.
const (
	frameChunk  byte = 0x01
	frameFooter byte = 0x02
)

// maxFramePayload caps a single frame's declared payload. Real chunks
// at the default 8192-test size encode to ~1–2 MB; anything past the
// cap is a corrupt or hostile length, refused before any allocation.
const maxFramePayload = 1 << 28

// colScratch holds the reusable encode-side buffers: the flattened hop
// pointers, the value slices the dictionary stripes read from, the
// dictionary maps, and the payload accumulator. One scratch serves one
// chunk encode and is pooled across chunks and writers.
type colScratch struct {
	payload  []byte
	chunkBuf []byte
	hops     []*traceroute.Hop
	u64s     []uint64
	f64s     []float64
	strs     []string
	strDict  map[string]uint64
	u64Dict  map[uint64]uint64
}

var colScratchPool = sync.Pool{New: func() any {
	return &colScratch{strDict: map[string]uint64{}, u64Dict: map[uint64]uint64{}}
}}

// frameBufPool recycles whole chunk frames: encoded frames between the
// encoder and the writer, raw frames between the reader and the decoder.
// Buffers that ballooned past maxPooledFrame are dropped instead of
// pinning chunk-sized allocations forever.
const maxPooledFrame = 4 << 20

var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getFrameBuf() *[]byte {
	b := frameBufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putFrameBuf(b *[]byte) {
	if cap(*b) <= maxPooledFrame {
		frameBufPool.Put(b)
	}
}

// appendChunkPayload encodes one collection chunk's columnar payload:
// checksummed preamble, then one stripe per table entry, tests first.
func appendChunkPayload(dst []byte, c *platform.Chunk, sc *colScratch) []byte {
	preStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(c.Index))
	dst = binary.AppendUvarint(dst, uint64(c.Watermark))
	dst = binary.AppendUvarint(dst, uint64(c.TestsWithoutTrace))
	dst = appendCompleteness(dst, c.Completeness)
	dst = binary.AppendUvarint(dst, uint64(len(c.Tests)))
	dst = binary.AppendUvarint(dst, uint64(len(c.Traces)))
	dst = binary.AppendUvarint(dst, uint64(len(testStripes)+len(traceStripes)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[preStart:], castagnoli))

	rows := &chunkRows{tests: c.Tests, traces: c.Traces, hops: sc.hops[:0]}
	for _, tr := range c.Traces {
		for i := range tr.Hops {
			rows.hops = append(rows.hops, &tr.Hops[i])
		}
	}
	for _, tab := range stripeTables {
		for i, def := range tab.defs {
			var enc byte
			sc.payload, enc = def.put(sc.payload[:0], rows, sc)
			dst = appendStripe(dst, tab.first+uint64(i), enc, sc.payload)
		}
	}
	clear(rows.hops) // the pooled scratch must not pin the chunk
	sc.hops = rows.hops[:0]
	return dst
}

// appendCompleteness encodes the five-field fault ledger.
func appendCompleteness(dst []byte, cm platform.Completeness) []byte {
	for _, v := range [...]int{cm.ScheduledTests, cm.AbandonedTests, cm.DroppedRows, cm.TruncatedTests, cm.DegradedTraces} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// appendChunkFrame wraps a chunk payload in its frame header. The
// payload is staged in the scratch so the frame's length prefix can be
// written first without a fresh allocation per chunk.
func appendChunkFrame(dst []byte, c *platform.Chunk, sc *colScratch) []byte {
	sc.chunkBuf = appendChunkPayload(sc.chunkBuf[:0], c, sc)
	dst = append(dst, frameChunk)
	dst = binary.AppendUvarint(dst, uint64(len(sc.chunkBuf)))
	return append(dst, sc.chunkBuf...)
}

// chunkIndexEntry is one row of the footer's chunk index.
type chunkIndexEntry struct {
	// Offset is the file offset of the chunk frame's kind byte.
	Offset int64
	// Watermark, Tests and Traces mirror the chunk preamble, so a
	// seeking reader can pick chunks by time window or row budget
	// without touching them.
	Watermark int
	Tests     int
	Traces    int
}

// colFrame is one encoded chunk frame on its way from the encoder to
// the writer, carrying the index row it will occupy.
type colFrame struct {
	buf       *[]byte
	watermark int
	tests     int
	traces    int
}

// encodeChunkFrame encodes one chunk into a pooled frame buffer.
func encodeChunkFrame(c *platform.Chunk) colFrame {
	sc := colScratchPool.Get().(*colScratch)
	defer colScratchPool.Put(sc)
	buf := getFrameBuf()
	*buf = appendChunkFrame(*buf, c, sc)
	return colFrame{buf: buf, watermark: c.Watermark, tests: len(c.Tests), traces: len(c.Traces)}
}

// ColumnarWriter persists a campaign as a tputlab-corpus/2 file. It
// buffers at most a window of encoded frames, never the corpus, and
// WriteChunk must be called from a single goroutine.
type ColumnarWriter struct {
	bw     *bufio.Writer
	off    int64
	footer StreamFooter
	index  []chunkIndexEntry
	closed bool
	enc    *stream.Ordered[*platform.Chunk, colFrame]
	window int // encoded frames in flight after WriteChunk returns, plus one
}

// NewColumnarWriter writes the magic and header frame and returns a
// writer ready for chunks. The public bundle is validated first — a
// conflicted bundle would poison every future replay of the file.
// Chunks are encoded on up to workers goroutines at a time, and the
// output bytes are identical at any worker count. A write error
// surfaces from the WriteChunk or Close call that writes the
// failing frame, and again from every later one.
func NewColumnarWriter(w io.Writer, public Public, meta StreamMeta, workers int) (*ColumnarWriter, error) {
	if err := public.Validate(); err != nil {
		return nil, err
	}
	hdr, err := json.Marshal(streamHeader{Format: ColumnarFormat, Public: public, Meta: meta})
	if err != nil {
		return nil, fmt.Errorf("export: encoding columnar header: %w", err)
	}
	cw := &ColumnarWriter{bw: bufio.NewWriterSize(w, 1<<20), footer: StreamFooter{Footer: true}}
	var buf []byte
	buf = append(buf, columnarMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(hdr)))
	buf = append(buf, hdr...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(hdr, castagnoli))
	if err := cw.write(buf); err != nil {
		return nil, err
	}
	cw.enc = stream.NewOrdered(workers, encodeChunkFrame)
	cw.window = max(workers, 1)
	return cw, nil
}

// write pushes bytes to the underlying writer, tracking the offset the
// chunk index records.
func (cw *ColumnarWriter) write(b []byte) error {
	n, err := cw.bw.Write(b)
	cw.off += int64(n)
	if err != nil {
		return fmt.Errorf("export: writing columnar corpus: %w", err)
	}
	return nil
}

// writeFrames writes encoded frames, oldest first, until at most keep
// remain in flight.
func (cw *ColumnarWriter) writeFrames(keep int) error {
	for cw.enc.Len() > keep {
		fr := cw.enc.Next()
		cw.index = append(cw.index, chunkIndexEntry{
			Offset: cw.off, Watermark: fr.watermark, Tests: fr.tests, Traces: fr.traces,
		})
		err := cw.write(*fr.buf)
		putFrameBuf(fr.buf)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteChunk appends one collection chunk; it plugs directly into
// platform.CollectStreamCtx as the sink. The chunk may still be
// encoding when WriteChunk returns, so the caller must not modify it.
func (cw *ColumnarWriter) WriteChunk(c *platform.Chunk) error {
	cw.enc.Put(c)
	cw.footer.Chunks++
	cw.footer.Tests += len(c.Tests)
	cw.footer.Traces += len(c.Traces)
	cw.footer.TestsWithoutTrace += c.TestsWithoutTrace
	cw.footer.Completeness.Merge(c.Completeness)
	return cw.writeFrames(cw.window - 1)
}

// Close seals the file with the footer frame, the chunk index, and the
// fixed-width tail. Without it the file reads as truncated.
func (cw *ColumnarWriter) Close() error {
	if cw.closed {
		return nil
	}
	cw.closed = true
	err := cw.writeFrames(0)
	cw.enc.Close()
	if err != nil {
		return err
	}
	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(cw.footer.Chunks))
	payload = binary.AppendUvarint(payload, uint64(cw.footer.Tests))
	payload = binary.AppendUvarint(payload, uint64(cw.footer.Traces))
	payload = binary.AppendUvarint(payload, uint64(cw.footer.TestsWithoutTrace))
	payload = appendCompleteness(payload, cw.footer.Completeness)
	prev := int64(0)
	for _, e := range cw.index {
		payload = binary.AppendUvarint(payload, uint64(e.Offset-prev))
		prev = e.Offset
		payload = binary.AppendUvarint(payload, uint64(e.Watermark))
		payload = binary.AppendUvarint(payload, uint64(e.Tests))
		payload = binary.AppendUvarint(payload, uint64(e.Traces))
	}
	var frame []byte
	frame = append(frame, frameFooter)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(frame)))
	frame = append(frame, columnarTail...)
	if err := cw.write(frame); err != nil {
		return err
	}
	return cw.bw.Flush()
}

// Abandon shuts the writer down without sealing the file: encoding
// stops and frames not yet written are dropped, and no footer frame is
// written, so the file stays a visibly truncated prefix — the error
// and interrupt path's counterpart to Close. Writing a footer there
// would make a partial corpus read as a complete smaller one.
func (cw *ColumnarWriter) Abandon() {
	if cw.closed {
		return
	}
	cw.closed = true
	cw.enc.Close()
}

// Footer exposes the running totals (complete once Close has run).
func (cw *ColumnarWriter) Footer() StreamFooter { return cw.footer }
