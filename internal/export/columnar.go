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
// one stripe per Test/Trace field — column-major, so a reader that
// only needs traces (report pass 1) skips every test stripe without
// decoding a byte of it. The footer carries campaign totals (the
// truncation check) plus an append-only chunk index: one (offset,
// watermark, tests, traces) row per chunk, which the reader
// cross-checks against the frames it saw and a resumed writer extends.
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

	"throughputlab/internal/ndt"
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

// Test column field ids (stable on disk; new fields append, never
// renumber). Trace columns start at 64.
const (
	fTestID uint64 = iota + 1
	fTestClientAddr
	fTestClientASN
	fTestClientISP
	fTestClientMetro
	fTestTierMbps
	fTestWiFiCapMbps
	fTestServerAddr
	fTestServerASN
	fTestServerSite
	fTestServerNet
	fTestServerMetro
	fTestStartMinute
	fTestFlowEntropy
	fTestDownMbps
	fTestUpMbps
	fTestRTTms
	fTestRTTMinMs
	fTestRetransRate
	fTestW100DurationSec
	fTestW100OctetsAcked
	fTestW100SegsOut
	fTestW100SegsRetrans
	fTestW100CongSignals
	fTestW100MinRTTms
	fTestW100SmoothedRTTms
	fTestW100CurCwndBytes
	fTestW100CwndFrac
	fTestW100RwinFrac
	fTestW100SenderFrac
	fTestTruncated
	fTestTruthKind
	fTestTruthSaturated
	fTestTruthBottleneck
	fTestTruthInterLens
	fTestTruthInterVals
	fTestTruthASPathLens
	fTestTruthASPathVals

	numTestFields = int(fTestTruthASPathVals)
)

const (
	fTraceSrcAddr uint64 = iota + 64
	fTraceDstAddr
	fTraceLaunchMinute
	fTraceFlowEntropy
	fTraceReached
	fTraceDegraded
	fTraceHopLens
	fTraceHopTTL
	fTraceHopAddr
	fTraceHopDNSName
	fTraceHopRTTms

	numTraceFields = int(fTraceHopRTTms) - 63
)

// colScratch holds the reusable encode-side buffers: the per-column
// value slices the stripe builders read from, the dictionary maps, and
// the payload accumulator. One scratch serves one chunk encode and is
// pooled across chunks and writers.
type colScratch struct {
	payload  []byte
	chunkBuf []byte
	u64s     []uint64
	i64s     []int64
	f64s     []float64
	u32s     []uint32
	bools    []bool
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
// checksummed preamble, then every test stripe, then every trace
// stripe.
func appendChunkPayload(dst []byte, c *platform.Chunk, sc *colScratch) []byte {
	preStart := len(dst)
	dst = binary.AppendUvarint(dst, uint64(c.Index))
	dst = binary.AppendUvarint(dst, uint64(c.Watermark))
	dst = binary.AppendUvarint(dst, uint64(c.TestsWithoutTrace))
	dst = appendCompleteness(dst, c.Completeness)
	dst = binary.AppendUvarint(dst, uint64(len(c.Tests)))
	dst = binary.AppendUvarint(dst, uint64(len(c.Traces)))
	dst = binary.AppendUvarint(dst, uint64(numTestFields+numTraceFields))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[preStart:], castagnoli))
	dst = appendTestStripes(dst, c.Tests, sc)
	dst = appendTraceStripes(dst, c.Traces, sc)
	return dst
}

// appendCompleteness encodes the five-field fault ledger.
func appendCompleteness(dst []byte, cm platform.Completeness) []byte {
	for _, v := range [...]int{cm.ScheduledTests, cm.AbandonedTests, cm.DroppedRows, cm.TruncatedTests, cm.DegradedTraces} {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// appendTestStripes emits one stripe per ndt.Test field, in field-id
// order.
func appendTestStripes(dst []byte, tests []*ndt.Test, sc *colScratch) []byte {
	stripe := func(field uint64, enc byte) {
		dst = appendStripe(dst, field, enc, sc.payload)
		sc.payload = sc.payload[:0]
	}
	deltas := func(field uint64, get func(*ndt.Test) int64) {
		sc.i64s = sc.i64s[:0]
		for _, t := range tests {
			sc.i64s = append(sc.i64s, get(t))
		}
		sc.payload = appendDeltas(sc.payload, sc.i64s)
		stripe(field, encDelta)
	}
	varints := func(field uint64, get func(*ndt.Test) uint64) {
		sc.u64s = sc.u64s[:0]
		for _, t := range tests {
			sc.u64s = append(sc.u64s, get(t))
		}
		sc.payload = appendUvarints(sc.payload, sc.u64s)
		stripe(field, encVarint)
	}
	dictInts := func(field uint64, get func(*ndt.Test) uint64) {
		sc.u64s = sc.u64s[:0]
		for _, t := range tests {
			sc.u64s = append(sc.u64s, get(t))
		}
		sc.payload = appendIntDict(sc.payload, sc.u64s, sc.u64Dict)
		stripe(field, encDict)
	}
	dictStrs := func(field uint64, get func(*ndt.Test) string) {
		sc.strs = sc.strs[:0]
		for _, t := range tests {
			sc.strs = append(sc.strs, get(t))
		}
		sc.payload = appendStringDict(sc.payload, sc.strs, sc.strDict)
		stripe(field, encDict)
	}
	rawFloats := func(field uint64, get func(*ndt.Test) float64) {
		sc.f64s = sc.f64s[:0]
		for _, t := range tests {
			sc.f64s = append(sc.f64s, get(t))
		}
		sc.payload = appendFloats(sc.payload, sc.f64s)
		stripe(field, encRaw)
	}
	adaptFloats := func(field uint64, get func(*ndt.Test) float64) {
		sc.f64s = sc.f64s[:0]
		for _, t := range tests {
			sc.f64s = append(sc.f64s, get(t))
		}
		var enc byte
		sc.payload, enc = appendFloatColumn(sc.payload, sc.f64s, sc.u64Dict)
		stripe(field, enc)
	}
	rawU32s := func(field uint64, get func(*ndt.Test) uint32) {
		sc.u32s = sc.u32s[:0]
		for _, t := range tests {
			sc.u32s = append(sc.u32s, get(t))
		}
		sc.payload = appendUint32s(sc.payload, sc.u32s)
		stripe(field, encRaw)
	}
	bitmap := func(field uint64, get func(*ndt.Test) bool) {
		sc.bools = sc.bools[:0]
		for _, t := range tests {
			sc.bools = append(sc.bools, get(t))
		}
		sc.payload = appendBitmap(sc.payload, sc.bools)
		stripe(field, encBitmap)
	}
	deltas(fTestID, func(t *ndt.Test) int64 { return int64(t.ID) })
	rawU32s(fTestClientAddr, func(t *ndt.Test) uint32 { return uint32(t.ClientAddr) })
	varints(fTestClientASN, func(t *ndt.Test) uint64 { return uint64(t.ClientASN) })
	dictStrs(fTestClientISP, func(t *ndt.Test) string { return t.ClientISP })
	dictStrs(fTestClientMetro, func(t *ndt.Test) string { return t.ClientMetro })
	adaptFloats(fTestTierMbps, func(t *ndt.Test) float64 { return t.TierMbps })
	adaptFloats(fTestWiFiCapMbps, func(t *ndt.Test) float64 { return t.WiFiCapMbps })
	dictInts(fTestServerAddr, func(t *ndt.Test) uint64 { return uint64(t.ServerAddr) })
	dictInts(fTestServerASN, func(t *ndt.Test) uint64 { return uint64(t.ServerASN) })
	dictStrs(fTestServerSite, func(t *ndt.Test) string { return t.ServerSite })
	dictStrs(fTestServerNet, func(t *ndt.Test) string { return t.ServerNet })
	dictStrs(fTestServerMetro, func(t *ndt.Test) string { return t.ServerMetro })
	deltas(fTestStartMinute, func(t *ndt.Test) int64 { return int64(t.StartMinute) })
	rawU32s(fTestFlowEntropy, func(t *ndt.Test) uint32 { return t.FlowEntropy })
	rawFloats(fTestDownMbps, func(t *ndt.Test) float64 { return t.DownMbps })
	rawFloats(fTestUpMbps, func(t *ndt.Test) float64 { return t.UpMbps })
	rawFloats(fTestRTTms, func(t *ndt.Test) float64 { return t.RTTms })
	rawFloats(fTestRTTMinMs, func(t *ndt.Test) float64 { return t.RTTMinMs })
	rawFloats(fTestRetransRate, func(t *ndt.Test) float64 { return t.RetransRate })
	adaptFloats(fTestW100DurationSec, func(t *ndt.Test) float64 { return t.Web100.DurationSec })
	varints(fTestW100OctetsAcked, func(t *ndt.Test) uint64 { return uint64(t.Web100.HCThruOctetsAcked) })
	varints(fTestW100SegsOut, func(t *ndt.Test) uint64 { return uint64(t.Web100.SegsOut) })
	varints(fTestW100SegsRetrans, func(t *ndt.Test) uint64 { return uint64(t.Web100.SegsRetrans) })
	varints(fTestW100CongSignals, func(t *ndt.Test) uint64 { return uint64(t.Web100.CongSignals) })
	rawFloats(fTestW100MinRTTms, func(t *ndt.Test) float64 { return t.Web100.MinRTTms })
	rawFloats(fTestW100SmoothedRTTms, func(t *ndt.Test) float64 { return t.Web100.SmoothedRTTms })
	varints(fTestW100CurCwndBytes, func(t *ndt.Test) uint64 { return uint64(t.Web100.CurCwndBytes) })
	adaptFloats(fTestW100CwndFrac, func(t *ndt.Test) float64 { return t.Web100.SndLimTimeCwndFrac })
	adaptFloats(fTestW100RwinFrac, func(t *ndt.Test) float64 { return t.Web100.SndLimTimeRwinFrac })
	adaptFloats(fTestW100SenderFrac, func(t *ndt.Test) float64 { return t.Web100.SndLimTimeSenderFrac })
	bitmap(fTestTruncated, func(t *ndt.Test) bool { return t.Truncated })
	varints(fTestTruthKind, func(t *ndt.Test) uint64 { return uint64(t.TruthKind) })
	bitmap(fTestTruthSaturated, func(t *ndt.Test) bool { return t.TruthSaturated })
	varints(fTestTruthBottleneck, func(t *ndt.Test) uint64 { return uint64(t.TruthBottleneck) })

	// List columns: a lengths stripe, then the values flattened across
	// the chunk (the same shape as hop columns on the trace side).
	varints(fTestTruthInterLens, func(t *ndt.Test) uint64 { return uint64(len(t.TruthInterLinks)) })
	sc.u64s = sc.u64s[:0]
	for _, t := range tests {
		for _, v := range t.TruthInterLinks {
			sc.u64s = append(sc.u64s, uint64(v))
		}
	}
	sc.payload = appendUvarints(sc.payload, sc.u64s)
	stripe(fTestTruthInterVals, encVarint)

	varints(fTestTruthASPathLens, func(t *ndt.Test) uint64 { return uint64(len(t.TruthASPath)) })
	sc.u64s = sc.u64s[:0]
	for _, t := range tests {
		for _, v := range t.TruthASPath {
			sc.u64s = append(sc.u64s, uint64(v))
		}
	}
	sc.payload = appendUvarints(sc.payload, sc.u64s)
	stripe(fTestTruthASPathVals, encVarint)
	return dst
}

// appendTraceStripes emits one stripe per traceroute.Trace field. Hop
// fields are flattened across the chunk behind a per-trace lengths
// stripe, which the writer emits first so the decoder can size the hop
// slab before any hop stripe arrives.
func appendTraceStripes(dst []byte, traces []*traceroute.Trace, sc *colScratch) []byte {
	stripe := func(field uint64, enc byte) {
		dst = appendStripe(dst, field, enc, sc.payload)
		sc.payload = sc.payload[:0]
	}

	sc.u32s = sc.u32s[:0]
	for _, tr := range traces {
		sc.u32s = append(sc.u32s, uint32(tr.SrcAddr))
	}
	sc.payload = appendUint32s(sc.payload, sc.u32s)
	stripe(fTraceSrcAddr, encRaw)

	sc.u32s = sc.u32s[:0]
	for _, tr := range traces {
		sc.u32s = append(sc.u32s, uint32(tr.DstAddr))
	}
	sc.payload = appendUint32s(sc.payload, sc.u32s)
	stripe(fTraceDstAddr, encRaw)

	sc.i64s = sc.i64s[:0]
	for _, tr := range traces {
		sc.i64s = append(sc.i64s, int64(tr.LaunchMinute))
	}
	sc.payload = appendDeltas(sc.payload, sc.i64s)
	stripe(fTraceLaunchMinute, encDelta)

	sc.u32s = sc.u32s[:0]
	for _, tr := range traces {
		sc.u32s = append(sc.u32s, tr.FlowEntropy)
	}
	sc.payload = appendUint32s(sc.payload, sc.u32s)
	stripe(fTraceFlowEntropy, encRaw)

	sc.bools = sc.bools[:0]
	for _, tr := range traces {
		sc.bools = append(sc.bools, tr.Reached)
	}
	sc.payload = appendBitmap(sc.payload, sc.bools)
	stripe(fTraceReached, encBitmap)

	sc.bools = sc.bools[:0]
	for _, tr := range traces {
		sc.bools = append(sc.bools, tr.Degraded)
	}
	sc.payload = appendBitmap(sc.payload, sc.bools)
	stripe(fTraceDegraded, encBitmap)

	sc.u64s = sc.u64s[:0]
	for _, tr := range traces {
		sc.u64s = append(sc.u64s, uint64(len(tr.Hops)))
	}
	sc.payload = appendUvarints(sc.payload, sc.u64s)
	stripe(fTraceHopLens, encVarint)

	sc.u64s = sc.u64s[:0]
	for _, tr := range traces {
		for _, h := range tr.Hops {
			sc.u64s = append(sc.u64s, uint64(h.TTL))
		}
	}
	sc.payload = appendUvarints(sc.payload, sc.u64s)
	stripe(fTraceHopTTL, encVarint)

	sc.u32s = sc.u32s[:0]
	for _, tr := range traces {
		for _, h := range tr.Hops {
			sc.u32s = append(sc.u32s, uint32(h.Addr))
		}
	}
	sc.payload = appendUint32s(sc.payload, sc.u32s)
	stripe(fTraceHopAddr, encRaw)

	sc.strs = sc.strs[:0]
	for _, tr := range traces {
		for _, h := range tr.Hops {
			sc.strs = append(sc.strs, h.DNSName)
		}
	}
	sc.payload = appendStringDict(sc.payload, sc.strs, sc.strDict)
	stripe(fTraceHopDNSName, encDict)

	sc.f64s = sc.f64s[:0]
	for _, tr := range traces {
		for _, h := range tr.Hops {
			sc.f64s = append(sc.f64s, h.RTTms)
		}
	}
	sc.payload = appendFloats(sc.payload, sc.f64s)
	stripe(fTraceHopRTTms, encRaw)

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
// surfaces from the WriteChunk, Sync or Close call that writes the
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
	cw.attachEncoders(workers)
	return cw, nil
}

// attachEncoders sets up chunk encoding on a writer whose header is
// already on disk; shared by the fresh and resumed paths.
func (cw *ColumnarWriter) attachEncoders(workers int) {
	cw.enc = stream.NewOrdered(workers, encodeChunkFrame)
	cw.window = max(workers, 1)
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

// Sync writes every chunk submitted so far through the bufio layer, so
// the underlying writer holds a prefix ending exactly at a chunk-frame
// boundary; the checkpoint layer fsyncs behind it. The file stays open
// for more chunks.
func (cw *ColumnarWriter) Sync() error {
	if err := cw.writeFrames(0); err != nil {
		return err
	}
	if err := cw.bw.Flush(); err != nil {
		return fmt.Errorf("export: writing columnar corpus: %w", err)
	}
	return nil
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
// written, so the file stays a truncated (resumable) prefix — the
// interrupt path's counterpart to Close. Writing a footer there would
// make a partial corpus read as a complete smaller one.
func (cw *ColumnarWriter) Abandon() {
	if cw.closed {
		return
	}
	cw.closed = true
	cw.enc.Close()
}

// Footer exposes the running totals (complete once Close has run).
func (cw *ColumnarWriter) Footer() StreamFooter { return cw.footer }
