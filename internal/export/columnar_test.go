package export

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/traceroute"
	"throughputlab/internal/web100"
)

// writeColumnar persists a campaign through the columnar writer via
// platform.CollectStreamCtx and returns the bytes plus the stream stats.
func writeColumnar(t testing.TB, cfg platform.CollectConfig, workers int) (*bytes.Buffer, *platform.StreamStats) {
	t.Helper()
	world := testWorld()
	pub := FromWorld(world, nil).Public
	var buf bytes.Buffer
	cw, err := NewColumnarWriter(&buf, pub, StreamMeta{Scale: "small", Seed: cfg.Seed, Tests: cfg.Tests}, workers)
	if err != nil {
		t.Fatal(err)
	}
	st, err := platform.CollectStreamCtx(context.Background(), world, cfg, 2, cw.WriteChunk)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, st
}

// openCorpus opens raw for a full replay decoded on workers.
func openCorpus(raw []byte, workers int) (CorpusReader, error) {
	return OpenCorpusProjected(bytes.NewReader(raw), workers, EverythingProjection())
}

// testEqual compares every field of two tests, treating nil and empty
// slices as equal (the columnar decoder leaves empty lists nil).
func testEqual(a, b *ndt.Test) bool {
	ca, cb := *a, *b
	ca.TruthInterLinks, cb.TruthInterLinks = nil, nil
	ca.TruthASPath, cb.TruthASPath = nil, nil
	return reflect.DeepEqual(ca, cb) && slices.Equal(a.TruthInterLinks, b.TruthInterLinks) &&
		slices.Equal(a.TruthASPath, b.TruthASPath)
}

// traceEqual compares every field of two traces the same way.
func traceEqual(a, b *traceroute.Trace) bool {
	ca, cb := *a, *b
	ca.Hops, cb.Hops = nil, nil
	return reflect.DeepEqual(ca, cb) && slices.Equal(a.Hops, b.Hops)
}

// TestColumnarFieldCoverage pins the stripe tables to the record shape:
// adding a field to ndt.Test, web100.Snapshot, traceroute.Trace or
// traceroute.Hop without a table entry for it fails here, not at a
// customer's corpus.
func TestColumnarFieldCoverage(t *testing.T) {
	// One stripe per scalar test field; Web100 flattens to one stripe
	// per snapshot field; each truth list costs two (lengths + values).
	testFields := reflect.TypeFor[ndt.Test]().NumField() - 3 // Web100, TruthInterLinks, TruthASPath
	testFields += reflect.TypeFor[web100.Snapshot]().NumField()
	testFields += 2 * 2
	if testFields != len(testStripes) {
		t.Errorf("ndt.Test flattens to %d columns, codec has %d: update the columnar stripes", testFields, len(testStripes))
	}
	// One stripe per scalar trace field; hops cost a lengths stripe plus
	// one stripe per Hop field.
	traceFields := reflect.TypeFor[traceroute.Trace]().NumField() - 1 // Hops
	traceFields += 1 + reflect.TypeFor[traceroute.Hop]().NumField()
	if traceFields != len(traceStripes) {
		t.Errorf("traceroute.Trace flattens to %d columns, codec has %d: update the columnar stripes", traceFields, len(traceStripes))
	}
}

// TestColumnarRoundTrip pins the core contract: a campaign persisted
// through the columnar writer decodes back record for record — every
// field — drained whole and chunk by chunk.
func TestColumnarRoundTrip(t *testing.T) {
	cfg := streamCfg(400, 64)
	batch, err := platform.CollectParallelCtx(context.Background(), testWorld(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf, st := writeColumnar(t, cfg, 4)
	raw := buf.Bytes()

	// Path 1: the corpus drained whole.
	back, err := readCorpus(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Tests) != len(batch.Tests) || len(back.Traces) != len(batch.Traces) {
		t.Fatalf("columnar corpus returned %d/%d records, batch has %d/%d",
			len(back.Tests), len(back.Traces), len(batch.Tests), len(batch.Traces))
	}
	for i := range batch.Tests {
		if !testEqual(back.Tests[i], batch.Tests[i]) {
			t.Fatalf("test %d differs after columnar round trip:\n got %+v\nwant %+v",
				i, back.Tests[i], batch.Tests[i])
		}
	}
	for i := range batch.Traces {
		if !traceEqual(back.Traces[i], batch.Traces[i]) {
			t.Fatalf("trace %d differs after columnar round trip:\n got %+v\nwant %+v",
				i, back.Traces[i], batch.Traces[i])
		}
	}
	if back.TestsWithoutTrace != batch.TestsWithoutTrace || back.Completeness != batch.Completeness {
		t.Errorf("corpus ledger lost: %d/%+v, want %d/%+v",
			back.TestsWithoutTrace, back.Completeness, batch.TestsWithoutTrace, batch.Completeness)
	}
	if len(back.Public.Prefixes) == 0 || len(back.Public.Rels) == 0 {
		t.Error("public bundle lost in columnar header")
	}

	// Path 2: chunk-by-chunk replay sees the same totals and watermarks.
	cr, err := openCorpus(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Meta().Tests != cfg.Tests || cr.Meta().Scale != "small" {
		t.Errorf("meta %+v not preserved", cr.Meta())
	}
	tests, traces, chunks, lastWM := 0, 0, 0, -1
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if c.Watermark < lastWM {
			t.Fatalf("chunk %d watermark %d regressed below %d", c.Chunk, c.Watermark, lastWM)
		}
		lastWM = c.Watermark
		tests += len(c.Tests)
		traces += len(c.Traces)
		chunks++
	}
	if chunks != st.Chunks || tests != st.Tests || traces != st.Traces {
		t.Fatalf("replay saw %d chunks / %d tests / %d traces, writer recorded %d / %d / %d",
			chunks, tests, traces, st.Chunks, st.Tests, st.Traces)
	}
	if cr.Footer() == nil || cr.Footer().Tests != st.Tests {
		t.Fatal("footer missing or wrong after replay")
	}
}

// TestColumnarSmallerThanNDJSON pins the size claim: the same campaign
// persists smaller in columnar form than the NDJSON text stream Dump
// prints for it.
func TestColumnarSmallerThanNDJSON(t *testing.T) {
	col, _ := writeColumnar(t, streamCfg(400, 64), 1)
	text, err := dump(t, col.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() >= len(text) {
		t.Errorf("columnar corpus is %d bytes, its NDJSON dump is %d: columnar should be smaller", col.Len(), len(text))
	}
}

// TestColumnarWriterWorkersByteIdentical pins encode determinism: the
// file bytes are a pure function of the campaign, independent of the
// writer's worker count.
func TestColumnarWriterWorkersByteIdentical(t *testing.T) {
	cfg := streamCfg(300, 50)
	base, _ := writeColumnar(t, cfg, 1)
	for _, workers := range []int{2, 8} {
		got, _ := writeColumnar(t, cfg, workers)
		if !bytes.Equal(base.Bytes(), got.Bytes()) {
			t.Errorf("columnar bytes differ between workers=1 and workers=%d", workers)
		}
	}
}

// TestOpenColumnarWorkersMatchesSerial pins decode equivalence: the
// worker-parallel reader returns the same chunks, in the same order,
// with the same footer, as the serial reader.
func TestOpenColumnarWorkersMatchesSerial(t *testing.T) {
	buf, _ := writeColumnar(t, streamCfg(300, 50), 2)
	raw := buf.Bytes()
	drain := func(workers int) ([]*StreamChunk, *StreamFooter) {
		cr, err := openCorpus(raw, workers)
		if err != nil {
			t.Fatal(err)
		}
		defer cr.Close()
		var out []*StreamChunk
		for {
			c, err := cr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		}
		return out, cr.Footer()
	}
	serial, sf := drain(1)
	for _, workers := range []int{2, 8} {
		par, pf := drain(workers)
		if len(par) != len(serial) || *pf != *sf {
			t.Fatalf("workers=%d: %d chunks / footer %+v, serial %d / %+v", workers, len(par), pf, len(serial), sf)
		}
		for i := range serial {
			if par[i].Chunk != serial[i].Chunk || len(par[i].Tests) != len(serial[i].Tests) {
				t.Fatalf("workers=%d chunk %d shape differs", workers, i)
			}
			for j := range serial[i].Tests {
				if !testEqual(par[i].Tests[j], serial[i].Tests[j]) {
					t.Fatalf("workers=%d chunk %d test %d differs", workers, i, j)
				}
			}
			for j := range serial[i].Traces {
				if !traceEqual(par[i].Traces[j], serial[i].Traces[j]) {
					t.Fatalf("workers=%d chunk %d trace %d differs", workers, i, j)
				}
			}
		}
	}
}

// TestColumnarProjection pins the fast-path contract: a traces-only
// open returns every trace and no tests, with footer bookkeeping
// (which counts both families) still exact.
func TestColumnarProjection(t *testing.T) {
	buf, st := writeColumnar(t, streamCfg(300, 50), 2)
	raw := buf.Bytes()
	full, err := readCorpus(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	cr, err := OpenCorpusProjected(bytes.NewReader(raw), 2, Projection{Traces: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	var traces []*traceroute.Trace
	for {
		c, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Tests) != 0 {
			t.Fatalf("traces-only projection returned %d tests in chunk %d", len(c.Tests), c.Chunk)
		}
		traces = append(traces, c.Traces...)
	}
	if cr.Footer() == nil || cr.Footer().Tests != st.Tests {
		t.Fatalf("projected read lost footer bookkeeping: %+v (want %d tests)", cr.Footer(), st.Tests)
	}
	if len(traces) != len(full.Traces) {
		t.Fatalf("projection returned %d traces, corpus has %d", len(traces), len(full.Traces))
	}
	for i := range traces {
		if !traceEqual(traces[i], full.Traces[i]) {
			t.Fatalf("trace %d differs under projection", i)
		}
	}
}

// TestCorpusFormatCrossErrors pins how the one reader treats the text
// stream Dump prints (tputlab-corpus/1, once also an on-disk format):
// it refuses it with an error naming the format and the printer, not a
// parse error, and never mistakes it for a single-blob dataset.
func TestCorpusFormatCrossErrors(t *testing.T) {
	col, _ := writeColumnar(t, streamCfg(120, 60), 1)
	text, err := dump(t, col.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = openCorpus(text, 1)
	if err == nil {
		t.Fatalf("OpenCorpusProjected accepted a %s text stream", StreamFormat)
	}
	if !strings.Contains(err.Error(), StreamFormat) || !strings.Contains(err.Error(), "corpus dump") {
		t.Errorf("error does not name the format and the printer: %v", err)
	}
}

// TestColumnarTruncated rejects a file whose footer never arrived, at
// several cut points (mid-header, mid-chunk, mid-footer, missing tail),
// through the serial and the worker decode paths alike; a cut after the
// last chunk names the truncation.
func TestColumnarTruncated(t *testing.T) {
	buf, _ := writeColumnar(t, streamCfg(200, 50), 1)
	raw := buf.Bytes()
	for _, workers := range []int{1, 4} {
		for _, cut := range []int{4, 100, len(raw) / 2, len(raw) - 13, len(raw) - 1} {
			cr, err := openCorpus(raw[:cut], workers)
			if err != nil {
				continue // failed in the header: also an acceptable rejection
			}
			for {
				_, err = cr.Next()
				if err != nil {
					break
				}
			}
			cr.Close()
			if err == io.EOF || err == nil {
				t.Errorf("workers=%d: file cut at %d read to completion", workers, cut)
			} else if cut == len(raw)-13 && !strings.Contains(err.Error(), "truncated") {
				t.Errorf("workers=%d: footer-less file not reported as truncated: %v", workers, err)
			}
		}
	}
}

// TestColumnarCorruption rejects checksum damage anywhere in the body
// with a descriptive error, never a panic, through the serial and the
// worker decode paths alike.
func TestColumnarCorruption(t *testing.T) {
	buf, _ := writeColumnar(t, streamCfg(200, 50), 1)
	raw := buf.Bytes()
	// Flip one byte at several depths (past the header JSON, which has
	// its own checksum; and inside chunk stripes).
	for _, workers := range []int{1, 4} {
		for _, pos := range []int{len(raw) / 4, len(raw) / 2, 3 * len(raw) / 4} {
			mut := append([]byte(nil), raw...)
			mut[pos] ^= 0x5a
			cr, err := openCorpus(mut, workers)
			if err != nil {
				continue
			}
			for {
				_, err = cr.Next()
				if err != nil {
					break
				}
			}
			cr.Close()
			if err == io.EOF || err == nil {
				t.Errorf("workers=%d: byte flip at %d went undetected", workers, pos)
			}
		}
	}
}

// TestColumnarFooterMismatch rejects a footer (checksum-valid) whose
// totals or index contradict the chunks actually present.
func TestColumnarFooterMismatch(t *testing.T) {
	bufA, _ := writeColumnar(t, streamCfg(300, 50), 1)
	bufB, _ := writeColumnar(t, streamCfg(100, 50), 1)
	footerStart := func(raw []byte) int {
		frameLen := int(binary.LittleEndian.Uint32(raw[len(raw)-12 : len(raw)-8]))
		return len(raw) - 12 - frameLen
	}
	a, b := bufA.Bytes(), bufB.Bytes()
	// A's chunks with B's (smaller but internally consistent) footer.
	spliced := append(append([]byte(nil), a[:footerStart(a)]...), b[footerStart(b):]...)
	cr, err := openCorpus(spliced, 1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = cr.Next()
		if err != nil {
			break
		}
	}
	if err == io.EOF || err == nil || !strings.Contains(err.Error(), "footer") {
		t.Fatalf("spliced footer not rejected descriptively: %v", err)
	}

	// Same totals, one index row perturbed: rebuild A's footer frame
	// with a valid checksum but a wrong offset delta.
	payloadOf := func(raw []byte) []byte {
		r := &colReader{b: raw[footerStart(raw):]}
		if k, _ := r.take(1); k[0] != frameFooter {
			t.Fatal("no footer frame at tail offset")
		}
		n, err := r.uvarint()
		if err != nil {
			t.Fatal(err)
		}
		p, err := r.take(int(n))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	payload := append([]byte(nil), payloadOf(a)...)
	payload[len(payload)-1] ^= 0x01 // last index row's trace count
	var frame []byte
	frame = append(frame, frameFooter)
	frame = binary.AppendUvarint(frame, uint64(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(frame)))
	frame = append(frame, columnarTail...)
	mut := append(append([]byte(nil), a[:footerStart(a)]...), frame...)
	cr, err = openCorpus(mut, 1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err = cr.Next()
		if err != nil {
			break
		}
	}
	if err == io.EOF || err == nil || !strings.Contains(err.Error(), "index") {
		t.Fatalf("perturbed footer index not rejected descriptively: %v", err)
	}
}

// TestColumnarReaderCloseEarly pins that abandoning a worker-backed
// reader mid-stream releases its goroutines without deadlock.
func TestColumnarReaderCloseEarly(t *testing.T) {
	buf, _ := writeColumnar(t, streamCfg(300, 30), 2)
	cr, err := openCorpus(buf.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Next(); err != nil {
		t.Fatal(err)
	}
	if err := cr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cr.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}

// TestColumnarWriterRejectsConflictedPublic refuses to start a corpus
// from an ambiguous public bundle, at any worker count.
func TestColumnarWriterRejectsConflictedPublic(t *testing.T) {
	pub := FromWorld(testWorld(), nil).Public
	pub.Rels = append(pub.Rels, relRow{A: pub.Rels[0].A, B: pub.Rels[0].B, Rel: "sibling"})
	if pub.Rels[0].Rel == "sibling" {
		pub.Rels[len(pub.Rels)-1].Rel = "peer"
	}
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		if _, err := NewColumnarWriter(&buf, pub, StreamMeta{}, workers); err == nil {
			t.Fatalf("workers=%d: conflicted public bundle accepted", workers)
		}
	}
}

// TestColumnarRejectsForeignEncoding flips the encoding byte of the
// first chunk's test-ID stripe from delta to varint. The byte sits
// outside the stripe checksum and both encodings parse as varints, so
// only a check against the encodings the column writes can catch it;
// the error must name the stripe.
func TestColumnarRejectsForeignEncoding(t *testing.T) {
	buf, _ := writeColumnar(t, streamCfg(120, 60), 1)
	raw := bytes.Clone(buf.Bytes())
	r := &colReader{b: raw, off: len(columnarMagic)}
	skip := func(n int) {
		if _, err := r.take(n); err != nil {
			t.Fatal(err)
		}
	}
	varint := func() int {
		v, err := r.uvarint()
		if err != nil {
			t.Fatal(err)
		}
		return int(v)
	}
	skip(varint() + 4) // header frame and its checksum
	skip(1)            // chunk frame kind
	varint()           // chunk payload length
	for range 11 {
		varint() // preamble
	}
	skip(4) // preamble checksum
	if field := varint(); field != 1 || raw[r.off] != encDelta {
		t.Fatalf("first stripe is field %d, encoding %d: want the delta-coded test IDs", field, raw[r.off])
	}
	raw[r.off] = encVarint
	cr, err := openCorpus(raw, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	for err == nil {
		_, err = cr.Next()
	}
	if err == io.EOF || !strings.Contains(err.Error(), "stripe 1 (varint)") {
		t.Fatalf("test-ID stripe recoded as varint: got %v, want an error naming stripe 1 (varint)", err)
	}
}
