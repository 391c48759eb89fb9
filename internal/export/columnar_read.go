// Columnar corpus decode: the read side of tputlab-corpus/2. Chunks
// decode into per-chunk slabs — one backing array per column family
// (tests, traces, hops, truth lists) instead of one allocation per
// row — and the column stripes write straight into the final structs,
// so nothing row-shaped is materialized in between. A Projection lets
// a pass that only needs one side of the corpus (report pass 1 reads
// traces only) skip the other side's stripes entirely: the bytes are
// never parsed and the slabs never allocated.
package export

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/stream"
	"throughputlab/internal/traceroute"
)

// Projection selects which column families a columnar reader decodes.
// The zero value decodes nothing useful; use EverythingProjection for a
// full read.
type Projection struct {
	Tests  bool
	Traces bool
}

// EverythingProjection decodes both column families.
func EverythingProjection() Projection { return Projection{Tests: true, Traces: true} }

// colPreamble is the decoded chunk-frame preamble: everything the
// reader needs for ordering and footer cross-checks, independent of
// which stripes the projection decodes.
type colPreamble struct {
	chunk             int
	watermark         int
	testsWithoutTrace int
	completeness      platform.Completeness
	tests             int
	traces            int
	stripes           int
}

// decodeChunkPayload decodes one chunk frame payload into a
// StreamChunk, honoring the projection. Row counts are bounded against
// the payload size before any slab is allocated, so a hostile frame
// cannot force an allocation amplification past a small constant.
func decodeChunkPayload(payload []byte, proj Projection) (*StreamChunk, colPreamble, error) {
	r := &colReader{b: payload}
	pre, err := readPreamble(r)
	if err != nil {
		return nil, pre, err
	}
	if pre.tests > len(payload)/8+1 {
		return nil, pre, fmt.Errorf("chunk declares %d tests in a %d-byte payload", pre.tests, len(payload))
	}
	if pre.traces > len(payload)/4+1 {
		return nil, pre, fmt.Errorf("chunk declares %d traces in a %d-byte payload", pre.traces, len(payload))
	}
	if pre.stripes > len(payload)+1 {
		return nil, pre, fmt.Errorf("chunk declares %d stripes in a %d-byte payload", pre.stripes, len(payload))
	}

	c := &StreamChunk{
		Chunk:             pre.chunk,
		Watermark:         pre.watermark,
		TestsWithoutTrace: pre.testsWithoutTrace,
		Completeness:      pre.completeness,
	}
	d := &chunkDecoder{want: [2]bool{proj.Tests, proj.Traces}, budget: len(payload)}
	if proj.Tests {
		d.tests = make([]ndt.Test, pre.tests)
		c.Tests = make([]*ndt.Test, pre.tests)
		for i := range d.tests {
			c.Tests[i] = &d.tests[i]
		}
	}
	if proj.Traces {
		d.traces = make([]traceroute.Trace, pre.traces)
		c.Traces = make([]*traceroute.Trace, pre.traces)
		for i := range d.traces {
			c.Traces[i] = &d.traces[i]
		}
	}
	for s := 0; s < pre.stripes; s++ {
		st, err := readStripe(r)
		if err != nil {
			return nil, pre, err
		}
		if err := d.apply(st); err != nil {
			return nil, pre, fmt.Errorf("stripe %d (%s): %w", st.field, encName(st.enc), err)
		}
	}
	if r.remaining() != 0 {
		return nil, pre, fmt.Errorf("%d trailing bytes after last stripe", r.remaining())
	}
	if err := d.checkComplete(); err != nil {
		return nil, pre, err
	}
	return c, pre, nil
}

// readPreamble reads the 11-value preamble (chunk metadata, row
// counts, stripe count), with the checksum covering all of it.
func readPreamble(r *colReader) (colPreamble, error) {
	var p colPreamble
	start := r.off
	vals := [11]uint64{}
	for i := range vals {
		v, err := r.uvarint()
		if err != nil {
			return p, fmt.Errorf("preamble: %w", err)
		}
		vals[i] = v
	}
	end := r.off
	sum, err := r.take(4)
	if err != nil {
		return p, fmt.Errorf("preamble checksum: %w", err)
	}
	if got, want := crc32.Checksum(r.b[start:end], castagnoli), binary.LittleEndian.Uint32(sum); got != want {
		return p, fmt.Errorf("preamble checksum mismatch (%08x != %08x)", got, want)
	}
	p.chunk = int(vals[0])
	p.watermark = int(vals[1])
	p.testsWithoutTrace = int(vals[2])
	p.completeness = platform.Completeness{
		ScheduledTests: int(vals[3]), AbandonedTests: int(vals[4]),
		DroppedRows: int(vals[5]), TruncatedTests: int(vals[6]), DegradedTraces: int(vals[7]),
	}
	p.tests = int(vals[8])
	p.traces = int(vals[9])
	p.stripes = int(vals[10])
	if p.chunk < 0 || p.watermark < 0 || p.tests < 0 || p.traces < 0 || p.stripes < 0 {
		return p, fmt.Errorf("preamble value overflows int")
	}
	return p, nil
}

// chunkDecoder dispatches stripes into the chunk's slabs.
type chunkDecoder struct {
	want   [2]bool   // per stripe table: decode this family
	seen   [2]uint64 // per stripe table: bit i set once entry i decoded
	budget int       // chunk payload bytes, which bound the list slabs

	tests  []ndt.Test
	traces []traceroute.Trace
	hops   []traceroute.Hop
}

// apply decodes one stripe through its table entry, or skips it when
// the projection excludes its family (the checksum was still verified
// by readStripe, so a pruned read still detects corruption) or a newer
// writer added it.
func (d *chunkDecoder) apply(st stripeHeader) error {
	f := 0 // ids below the trace table's first are the test family's
	if st.field >= stripeTables[1].first {
		f = 1
	}
	tab := stripeTables[f]
	if !d.want[f] {
		return nil
	}
	if st.field < tab.first {
		return fmt.Errorf("field id %d is reserved", st.field)
	}
	i := st.field - tab.first
	if i >= uint64(len(tab.defs)) {
		return nil // unknown column from a newer writer: skip
	}
	def := tab.defs[i]
	switch {
	case d.seen[f]&(1<<i) != 0:
		return fmt.Errorf("duplicate stripe") // it would overwrite the column
	case def.encs&(1<<st.enc) == 0:
		return fmt.Errorf("not an encoding this column writes")
	case d.seen[f]&def.needs != def.needs:
		return fmt.Errorf("stripe before its lengths stripe")
	}
	d.seen[f] |= 1 << i
	r := &colReader{b: st.body}
	if err := def.get(r, st.enc, d); err != nil {
		return err
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%d trailing bytes in stripe", r.remaining())
	}
	return nil
}

// checkComplete verifies every projected-in column arrived.
func (d *chunkDecoder) checkComplete() error {
	for f, tab := range stripeTables {
		if want := uint64(1)<<len(tab.defs) - 1; d.want[f] && d.seen[f] != want {
			return fmt.Errorf("missing %s stripes (seen %#x, want %#x)", tab.name, d.seen[f], want)
		}
	}
	return nil
}

// frameScanner is a byte-counting cursor over the file's frames. It
// implements io.ByteReader so binary.ReadUvarint tracks offsets for
// free.
type frameScanner struct {
	br  *bufio.Reader
	off int64
}

func (s *frameScanner) ReadByte() (byte, error) {
	b, err := s.br.ReadByte()
	if err == nil {
		s.off++
	}
	return b, err
}

func (s *frameScanner) uvarint() (uint64, error) {
	return binary.ReadUvarint(s)
}

func (s *frameScanner) full(b []byte) error {
	n, err := io.ReadFull(s.br, b)
	s.off += int64(n)
	return err
}

// payload reads a declared-length frame payload into dst, growing it
// incrementally so a lying length cannot force an allocation larger
// than the bytes that actually exist (plus one step). Steps start at
// 64 KiB and double up to 1 MiB, so a lying length on a tiny input
// costs a small allocation, not a megabyte.
func (s *frameScanner) payload(n uint64, dst []byte) ([]byte, error) {
	if n > maxFramePayload {
		return nil, fmt.Errorf("frame payload of %d bytes exceeds the %d limit", n, maxFramePayload)
	}
	b := dst[:0]
	for rem := int(n); rem > 0; {
		step := min(rem, max(len(b), 64<<10), 1<<20)
		start := len(b)
		b = append(b, make([]byte, step)...)
		if err := s.full(b[start:]); err != nil {
			return nil, err
		}
		rem -= step
	}
	return b, nil
}

// v1Prefix opens every tputlab-corpus/1 text stream (what Dump prints),
// so the reader can refuse one by name rather than as a bad magic.
const v1Prefix = `{"format":"` + StreamFormat + `"`

// readColumnarHeader consumes and validates the magic and header
// frame. A tputlab-corpus/1 file and a single-blob JSON dataset are
// named as such instead of surfacing as a magic mismatch.
func readColumnarHeader(s *frameScanner) (streamHeader, error) {
	var hdr streamHeader
	var magic [8]byte
	if err := s.full(magic[:]); err != nil {
		return hdr, fmt.Errorf("export: columnar corpus: missing magic: %w", err)
	}
	if string(magic[:]) != columnarMagic {
		if bytes.HasPrefix([]byte(v1Prefix), magic[:]) {
			return hdr, fmt.Errorf("export: corpus is a %s text stream, which is no longer read: the only corpus format is %s; re-collect the campaign (-corpus-out), and use 'tputlab corpus dump' to print a corpus as text",
				StreamFormat, ColumnarFormat)
		}
		if magic[0] == '{' {
			return hdr, fmt.Errorf("export: input is JSON, not a columnar corpus: the single-blob dataset format is no longer read; regenerate the dataset with ndtsim, which writes %s", ColumnarFormat)
		}
		return hdr, fmt.Errorf("export: not a columnar corpus: magic %q (want %q)", magic, columnarMagic)
	}
	n, err := s.uvarint()
	if err != nil || n > maxFramePayload {
		return hdr, fmt.Errorf("export: columnar corpus: invalid header frame length")
	}
	payload, err := s.payload(n, nil)
	if err != nil {
		return hdr, fmt.Errorf("export: columnar corpus: truncated header: %w", err)
	}
	var sum [4]byte
	if err := s.full(sum[:]); err != nil {
		return hdr, fmt.Errorf("export: columnar corpus: truncated header checksum: %w", err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(sum[:]); got != want {
		return hdr, fmt.Errorf("export: columnar corpus: header checksum mismatch (%08x != %08x)", got, want)
	}
	if err := json.Unmarshal(payload, &hdr); err != nil {
		return hdr, fmt.Errorf("export: columnar corpus: invalid header: %w", err)
	}
	if hdr.Format != ColumnarFormat {
		return hdr, fmt.Errorf("export: columnar corpus: unsupported format %q (want %q)", hdr.Format, ColumnarFormat)
	}
	if err := hdr.Public.Validate(); err != nil {
		return hdr, err
	}
	return hdr, nil
}

// decodeFooterPayload parses the footer frame payload: campaign totals
// plus the chunk index.
func decodeFooterPayload(payload []byte) (StreamFooter, []chunkIndexEntry, error) {
	r := &colReader{b: payload}
	f := StreamFooter{Footer: true}
	vals := [9]uint64{}
	for i := range vals {
		v, err := r.uvarint()
		if err != nil {
			return f, nil, fmt.Errorf("footer: %w", err)
		}
		vals[i] = v
	}
	f.Chunks, f.Tests, f.Traces, f.TestsWithoutTrace = int(vals[0]), int(vals[1]), int(vals[2]), int(vals[3])
	f.Completeness = platform.Completeness{
		ScheduledTests: int(vals[4]), AbandonedTests: int(vals[5]),
		DroppedRows: int(vals[6]), TruncatedTests: int(vals[7]), DegradedTraces: int(vals[8]),
	}
	if f.Chunks < 0 || f.Chunks > len(payload) {
		return f, nil, fmt.Errorf("footer declares %d chunks in a %d-byte payload", f.Chunks, len(payload))
	}
	index := make([]chunkIndexEntry, f.Chunks)
	prev := int64(0)
	for i := range index {
		var row [4]uint64
		for j := range row {
			v, err := r.uvarint()
			if err != nil {
				return f, nil, fmt.Errorf("footer index entry %d: %w", i, err)
			}
			row[j] = v
		}
		prev += int64(row[0])
		index[i] = chunkIndexEntry{Offset: prev, Watermark: int(row[1]), Tests: int(row[2]), Traces: int(row[3])}
	}
	if r.remaining() != 0 {
		return f, nil, fmt.Errorf("footer: %d trailing bytes after index", r.remaining())
	}
	return f, index, nil
}

// colRawFrame is one undecoded frame on its way to the decoder.
type colRawFrame struct {
	seq  int
	off  int64
	kind byte
	buf  *[]byte // pooled payload; ownership passes to the decoder
	err  error   // read failure (io.EOF for clean end of input)
}

// colDecoded is one classified frame: exactly one of chunk, footer, or
// err is set. pre and off ride along for the in-order bookkeeping.
type colDecoded struct {
	chunk    *StreamChunk
	pre      colPreamble
	off      int64
	footer   *StreamFooter
	index    []chunkIndexEntry
	err      error
	readFail bool
}

// decodeColFrame classifies and decodes one raw frame, then returns
// its buffer to the frame pool: nothing decoded aliases the payload.
func decodeColFrame(rf colRawFrame, proj Projection) colDecoded {
	defer putFrameBuf(rf.buf)
	if rf.err != nil {
		return colDecoded{err: rf.err, readFail: true}
	}
	switch rf.kind {
	case frameChunk:
		c, pre, err := decodeChunkPayload(*rf.buf, proj)
		if err != nil {
			return colDecoded{err: fmt.Errorf("export: columnar corpus: chunk %d: %w", rf.seq, err)}
		}
		return colDecoded{chunk: c, pre: pre, off: rf.off}
	case frameFooter:
		f, index, err := decodeFooterPayload(*rf.buf)
		if err != nil {
			return colDecoded{err: fmt.Errorf("export: columnar corpus: %w", err)}
		}
		return colDecoded{footer: &f, index: index}
	}
	return colDecoded{err: fmt.Errorf("export: columnar corpus: unknown frame kind %#02x at offset %d", rf.kind, rf.off)}
}

// columnarReader replays a columnar corpus chunk by chunk. Each
// chunk's rows live in per-chunk slabs, so a consumer may retain them
// after Next moves on.
type columnarReader struct {
	fs     frameScanner
	header streamHeader
	footer *StreamFooter
	read   StreamFooter      // accumulated totals for the footer cross-check
	seen   []chunkIndexEntry // observed offsets for the index cross-check

	dec    *stream.Ordered[colRawFrame, colDecoded]
	window int  // raw frames read ahead of the caller
	frames int  // raw frames read so far
	ended  bool // the last frame read was the footer or a read failure
}

// readBuffer wraps r for frame scanning. A *bufio.Reader is used as
// is; otherwise the buffer is 1 MiB, or the input's length when r knows
// it (a bytes.Reader) and it is smaller, so decoding a small in-memory
// corpus does not cost a 1 MiB allocation.
func readBuffer(r io.Reader) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	size := 1 << 20
	if l, ok := r.(interface{ Len() int }); ok {
		size = min(size, l.Len())
	}
	return bufio.NewReaderSize(r, size)
}

// openColumnar reads and validates the magic and header of a columnar
// corpus, decoding only the projected column families — the skipped
// side's stripes are checksum verified but never parsed, and its slabs
// never allocated. Chunk and footer bookkeeping (row counts, ordering,
// totals) is exact under any projection. Next reads up to workers
// frames ahead and decodes them concurrently; it returns the same
// chunks, in the same order, with the same errors, at any worker count.
func openColumnar(r io.Reader, workers int, proj Projection) (*columnarReader, error) {
	cr := &columnarReader{fs: frameScanner{br: readBuffer(r)}}
	hdr, err := readColumnarHeader(&cr.fs)
	if err != nil {
		return nil, err
	}
	cr.header = hdr
	cr.dec = stream.NewOrdered(workers, func(rf colRawFrame) colDecoded { return decodeColFrame(rf, proj) })
	cr.window = max(workers, 1)
	return cr, nil
}

// readRawFrame reads the next frame's kind and payload into buf. For
// the footer frame it also consumes and verifies the frame checksum
// and the fixed-width tail, and confirms the file ends there. A clean
// end of input before any frame surfaces as io.EOF (the caller turns
// that into the truncation error).
func (cr *columnarReader) readRawFrame(buf *[]byte) (kind byte, off int64, err error) {
	off = cr.fs.off
	kind, err = cr.fs.ReadByte()
	if err != nil {
		return 0, off, io.EOF
	}
	if kind != frameChunk && kind != frameFooter {
		// The decoder reports it, in frame order.
		return kind, off, nil
	}
	n, err := cr.fs.uvarint()
	if err != nil {
		return kind, off, fmt.Errorf("frame at offset %d: invalid length: %w", off, errTruncOK(err))
	}
	*buf, err = cr.fs.payload(n, *buf)
	if err != nil {
		return kind, off, fmt.Errorf("frame at offset %d: %w", off, errTruncOK(err))
	}
	if kind != frameFooter {
		return kind, off, nil
	}
	var sum [4]byte
	if err := cr.fs.full(sum[:]); err != nil {
		return kind, off, fmt.Errorf("footer checksum: %w", errTruncOK(err))
	}
	if got, want := crc32.Checksum(*buf, castagnoli), binary.LittleEndian.Uint32(sum[:]); got != want {
		return kind, off, fmt.Errorf("footer checksum mismatch (%08x != %08x)", got, want)
	}
	frameLen := cr.fs.off - off
	var tail [12]byte
	if err := cr.fs.full(tail[:]); err != nil {
		return kind, off, fmt.Errorf("footer tail: %w", errTruncOK(err))
	}
	if string(tail[4:]) != columnarTail {
		return kind, off, fmt.Errorf("footer tail magic %q (want %q)", tail[4:], columnarTail)
	}
	if got := int64(binary.LittleEndian.Uint32(tail[:4])); got != frameLen {
		return kind, off, fmt.Errorf("footer tail length %d does not match frame length %d", got, frameLen)
	}
	if _, err := cr.fs.ReadByte(); err != io.EOF {
		return kind, off, fmt.Errorf("trailing data after footer tail")
	}
	return kind, off, nil
}

// errTruncOK normalizes io.EOF / io.ErrUnexpectedEOF from a mid-frame
// read into one truncation error.
func errTruncOK(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("truncated")
	}
	return err
}

// Public returns the header's lookup bundle.
func (cr *columnarReader) Public() *Public { return &cr.header.Public }

// Meta returns the header's campaign metadata.
func (cr *columnarReader) Meta() StreamMeta { return cr.header.Meta }

// Next returns the next chunk, or io.EOF after the footer has been
// consumed and cross-checked against the chunks (totals and index).
func (cr *columnarReader) Next() (*StreamChunk, error) {
	if cr.footer != nil {
		return nil, io.EOF
	}
	// Past the last frame, read again only when nothing is left to take.
	for cr.dec.Len() == 0 || !cr.ended && cr.dec.Len() < cr.window {
		buf := getFrameBuf()
		kind, off, err := cr.readRawFrame(buf)
		cr.dec.Put(colRawFrame{seq: cr.frames, off: off, kind: kind, buf: buf, err: err})
		cr.frames++
		cr.ended = err != nil || kind == frameFooter
	}
	return cr.consume(cr.dec.Next())
}

// consume folds one classified frame into the reader's running state:
// the in-order half of Next.
func (cr *columnarReader) consume(d colDecoded) (*StreamChunk, error) {
	switch {
	case d.readFail && d.err == io.EOF:
		return nil, fmt.Errorf("export: columnar corpus truncated: no footer after %d chunks (%d tests)",
			cr.read.Chunks, cr.read.Tests)
	case d.readFail:
		return nil, fmt.Errorf("export: columnar corpus: %w", d.err)
	case d.err != nil:
		return nil, d.err
	case d.footer != nil:
		f := *d.footer
		cr.read.Footer = true
		if f != cr.read {
			return nil, fmt.Errorf("export: columnar corpus footer mismatch: footer says %d chunks / %d tests / %d traces, file holds %d / %d / %d",
				f.Chunks, f.Tests, f.Traces, cr.read.Chunks, cr.read.Tests, cr.read.Traces)
		}
		for i, e := range d.index {
			if e != cr.seen[i] {
				return nil, fmt.Errorf("export: columnar corpus: footer index entry %d (%+v) does not match chunk frame (%+v)",
					i, e, cr.seen[i])
			}
		}
		cr.footer = d.footer
		return nil, io.EOF
	}
	if d.pre.chunk != cr.read.Chunks {
		return nil, fmt.Errorf("export: columnar corpus: chunk index %d where %d expected", d.pre.chunk, cr.read.Chunks)
	}
	cr.read.Chunks++
	cr.read.Tests += d.pre.tests
	cr.read.Traces += d.pre.traces
	cr.read.TestsWithoutTrace += d.pre.testsWithoutTrace
	cr.read.Completeness.Merge(d.pre.completeness)
	cr.seen = append(cr.seen, chunkIndexEntry{
		Offset: d.off, Watermark: d.pre.watermark, Tests: d.pre.tests, Traces: d.pre.traces,
	})
	return d.chunk, nil
}

// Footer returns the file totals; non-nil only after Next returned
// io.EOF.
func (cr *columnarReader) Footer() *StreamFooter { return cr.footer }

// Close releases the decode workers; it is idempotent.
func (cr *columnarReader) Close() error {
	cr.dec.Close()
	return nil
}
