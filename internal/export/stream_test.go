package export

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"throughputlab/internal/platform"
)

func streamCfg(tests, chunk int) platform.CollectConfig {
	cfg := platform.DefaultCollect()
	cfg.Tests = tests
	cfg.PerPoolClients = 4
	cfg.ChunkTests = chunk
	return cfg
}

// dump prints a columnar corpus through Dump, decoding on workers.
func dump(t *testing.T, raw []byte, workers int) ([]byte, error) {
	t.Helper()
	cr, err := OpenCorpusProjected(bytes.NewReader(raw), workers, EverythingProjection())
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	var out bytes.Buffer
	err = Dump(&out, cr)
	return out.Bytes(), err
}

// TestStreamRoundTrip pins the text stream Dump prints: a header line
// naming StreamFormat with the campaign identity, one line per chunk
// carrying the batch corpus record for record, and a footer line with
// the campaign ledger.
func TestStreamRoundTrip(t *testing.T) {
	cfg := streamCfg(400, 64)
	batch, err := platform.CollectParallelCtx(context.Background(), testWorld(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf, st := writeColumnar(t, cfg, 4)
	text, err := dump(t, buf.Bytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(text, []byte(v1Prefix)) {
		t.Fatalf("dump does not open with the %s header: %.60q", StreamFormat, text)
	}
	lines := bytes.Split(bytes.TrimSuffix(text, []byte("\n")), []byte("\n"))
	if len(lines) != st.Chunks+2 {
		t.Fatalf("dump has %d lines, want header + %d chunks + footer", len(lines), st.Chunks)
	}
	var hdr streamHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Meta.Tests != cfg.Tests || hdr.Meta.Scale != "small" || len(hdr.Public.Prefixes) == 0 {
		t.Errorf("header lost the campaign identity: meta %+v, %d prefixes", hdr.Meta, len(hdr.Public.Prefixes))
	}
	back := &Dataset{}
	for i, line := range lines[1 : len(lines)-1] {
		var c StreamChunk
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("chunk line %d: %v", i, err)
		}
		if c.Chunk != i {
			t.Fatalf("chunk line %d carries index %d", i, c.Chunk)
		}
		back.Tests = append(back.Tests, c.Tests...)
		back.Traces = append(back.Traces, c.Traces...)
	}
	if len(back.Tests) != len(batch.Tests) || len(back.Traces) != len(batch.Traces) {
		t.Fatalf("dump carries %d/%d records, batch has %d/%d",
			len(back.Tests), len(back.Traces), len(batch.Tests), len(batch.Traces))
	}
	for i := range batch.Tests {
		if !testEqual(back.Tests[i], batch.Tests[i]) {
			t.Fatalf("test %d differs after the text round trip", i)
		}
	}
	for i := range batch.Traces {
		if !traceEqual(back.Traces[i], batch.Traces[i]) {
			t.Fatalf("trace %d differs after the text round trip", i)
		}
	}
	var f StreamFooter
	if err := json.Unmarshal(lines[len(lines)-1], &f); err != nil {
		t.Fatal(err)
	}
	if !f.Footer || f.Chunks != st.Chunks || f.Tests != st.Tests || f.Traces != st.Traces ||
		f.Completeness != batch.Completeness || f.TestsWithoutTrace != batch.TestsWithoutTrace {
		t.Errorf("footer line %+v does not carry the campaign ledger", f)
	}
}

// TestStreamWriterWorkersByteIdentical pins that the text stream Dump
// writes is a pure function of the corpus: decoding on 1, 2 or 8
// workers (corpus dump decodes on GOMAXPROCS) prints the same bytes.
func TestStreamWriterWorkersByteIdentical(t *testing.T) {
	buf, _ := writeColumnar(t, streamCfg(400, 64), 2)
	serial, err := dump(t, buf.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := dump(t, buf.Bytes(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, serial) {
			t.Errorf("dump decoded on %d workers differs from the serial dump", workers)
		}
	}
}

// TestReadRefusesSingleBlob pins that the retired single-blob JSON
// dataset is refused with an error that names it, not misread.
func TestReadRefusesSingleBlob(t *testing.T) {
	blob, err := json.Marshal(struct {
		Public Public `json:"public"`
	}{FromWorld(testWorld(), nil).Public})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Read(bytes.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "single-blob") {
		t.Fatalf("Read of a single-blob dataset = %v, want an error naming the format", err)
	}
}

// TestStreamTruncated pins that a corpus whose footer never arrived —
// the signature of a crashed campaign — dumps with the reader's
// truncation error and without a footer line, so a line consumer can
// never mistake the partial stream for a complete one.
func TestStreamTruncated(t *testing.T) {
	buf, _ := writeColumnar(t, streamCfg(200, 50), 2)
	raw := buf.Bytes()
	text, err := dump(t, raw[:len(raw)-1], 2)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated corpus dumped with err = %v, want a truncation error", err)
	}
	if bytes.Contains(text, []byte(`{"footer"`)) {
		t.Fatal("truncated corpus dumped a footer line")
	}
}

// replayErr drains a corpus opened on raw with workers decode
// goroutines and returns the error that ended the replay (io.EOF for a
// clean one), or the open error.
func replayErr(raw []byte, workers int) error {
	cr, err := openCorpus(raw, workers)
	if err != nil {
		return err
	}
	defer cr.Close()
	for {
		if _, err := cr.Next(); err != nil {
			return err
		}
	}
}

// spliceFooter returns a's chunks closed by b's footer frame: each file
// is internally consistent, the splice is not.
func spliceFooter(a, b []byte) []byte {
	start := func(raw []byte) int {
		frameLen := int(binary.LittleEndian.Uint32(raw[len(raw)-12 : len(raw)-8]))
		return len(raw) - 12 - frameLen
	}
	return append(append([]byte(nil), a[:start(a)]...), b[start(b):]...)
}

// dumpedChunks returns the indices of the chunk lines in a dump: every
// line after the header that is not a footer line.
func dumpedChunks(t *testing.T, text []byte) []int {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(text, []byte("\n")), []byte("\n"))
	var idx []int
	for _, line := range lines[1:] {
		if len(line) == 0 || bytes.HasPrefix(line, []byte(`{"footer"`)) {
			continue
		}
		var c StreamChunk
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("dump printed an unparsable chunk line: %v", err)
		}
		idx = append(idx, c.Chunk)
	}
	return idx
}

// TestStreamGarbageChunk pins that a corrupted chunk stops the dump with
// a descriptive error instead of silently skipping records: the chunk
// lines printed before the damage are 0..k-1 in order, fewer than the
// corpus holds, and no footer line follows — at one and at four decode
// workers.
func TestStreamGarbageChunk(t *testing.T) {
	buf, st := writeColumnar(t, streamCfg(200, 50), 1)
	mut := append([]byte(nil), buf.Bytes()...)
	mut[len(mut)/2] ^= 0x5a
	for _, workers := range []int{1, 4} {
		text, err := dump(t, mut, workers)
		if err == nil || !strings.Contains(err.Error(), "columnar corpus") {
			t.Fatalf("workers=%d: corrupt chunk dumped with err = %v, want the reader's error", workers, err)
		}
		if bytes.Contains(text, []byte(`{"footer"`)) {
			t.Fatalf("workers=%d: corrupt corpus dumped a footer line", workers)
		}
		idx := dumpedChunks(t, text)
		if len(idx) >= st.Chunks {
			t.Fatalf("workers=%d: all %d chunks printed despite the damage", workers, len(idx))
		}
		for i, c := range idx {
			if c != i {
				t.Fatalf("workers=%d: chunk line %d carries index %d: a chunk was skipped", workers, i, c)
			}
		}
	}
}

// TestStreamFooterMismatch pins that a footer whose totals contradict
// the chunks actually present fails the dump with the reader's mismatch
// error and prints no footer line. The footer here is checksum-valid:
// one campaign's chunks closed by a smaller campaign's footer.
func TestStreamFooterMismatch(t *testing.T) {
	a, _ := writeColumnar(t, streamCfg(300, 50), 1)
	b, _ := writeColumnar(t, streamCfg(100, 50), 1)
	spliced := spliceFooter(a.Bytes(), b.Bytes())
	for _, workers := range []int{1, 4} {
		text, err := dump(t, spliced, workers)
		if err == nil || !strings.Contains(err.Error(), "footer mismatch") {
			t.Fatalf("workers=%d: spliced footer dumped with err = %v, want a footer mismatch", workers, err)
		}
		if bytes.Contains(text, []byte(`{"footer"`)) {
			t.Fatalf("workers=%d: spliced corpus dumped a footer line", workers)
		}
	}
}

// TestStreamWriterRejectsConflictedPublic refuses to start a streamed
// corpus from an ambiguous public bundle — a prefix with two origins,
// or an AS pair with two relationships — at any worker count. The
// error names the conflict, and nothing reaches the destination.
func TestStreamWriterRejectsConflictedPublic(t *testing.T) {
	world := testWorld()
	rels := FromWorld(world, nil).Public
	rels.Rels = append(rels.Rels, relRow{A: rels.Rels[0].A, B: rels.Rels[0].B, Rel: "sibling"})
	if rels.Rels[0].Rel == "sibling" {
		rels.Rels[len(rels.Rels)-1].Rel = "peer"
	}
	origins := FromWorld(world, nil).Public
	first := origins.Prefixes[0]
	origins.Prefixes = append(origins.Prefixes, PrefixOrigin{Prefix: first.Prefix, ASN: first.ASN + 1})
	for _, tc := range []struct {
		pub  Public
		want string
	}{
		{rels, "conflicting relationships"},
		{origins, "conflicting origins"},
	} {
		for _, workers := range []int{1, 4} {
			var buf bytes.Buffer
			cw, err := NewColumnarWriter(&buf, tc.pub, StreamMeta{}, workers)
			if err == nil {
				cw.Abandon()
				t.Fatalf("workers=%d: bundle with %s accepted", workers, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("workers=%d: rejection does not name the %s: %v", workers, tc.want, err)
			}
			if buf.Len() != 0 {
				t.Errorf("workers=%d: refused writer left %d bytes behind", workers, buf.Len())
			}
		}
	}
}

// TestOpenStreamWorkersMatchesSerial replays the same corpus through the
// serial and the worker-decoded readers in lockstep and requires
// identical chunks, per-chunk ledgers, and footer — the footer also
// matching the totals the writer recorded.
func TestOpenStreamWorkersMatchesSerial(t *testing.T) {
	buf, st := writeColumnar(t, streamCfg(400, 64), 2)
	raw := buf.Bytes()
	for _, workers := range []int{1, 2, 8} {
		sr, err := openCorpus(raw, workers)
		if err != nil {
			t.Fatal(err)
		}
		want, err := openCorpus(raw, 1)
		if err != nil {
			t.Fatal(err)
		}
		for {
			c, cErr := sr.Next()
			w, wErr := want.Next()
			if (cErr == nil) != (wErr == nil) {
				t.Fatalf("workers=%d: reader errors diverge: %v vs %v", workers, cErr, wErr)
			}
			if cErr != nil {
				if cErr != io.EOF {
					t.Fatal(cErr)
				}
				break
			}
			if c.Chunk != w.Chunk || c.Watermark != w.Watermark ||
				len(c.Tests) != len(w.Tests) || len(c.Traces) != len(w.Traces) ||
				c.TestsWithoutTrace != w.TestsWithoutTrace || c.Completeness != w.Completeness {
				t.Fatalf("workers=%d: chunk %d differs from serial replay", workers, w.Chunk)
			}
		}
		f := sr.Footer()
		if f == nil || *f != *want.Footer() || f.Tests != st.Tests || f.Traces != st.Traces || f.Chunks != st.Chunks {
			t.Fatalf("workers=%d: footer %+v, writer recorded %d chunks / %d tests / %d traces",
				workers, f, st.Chunks, st.Tests, st.Traces)
		}
		if err := sr.Close(); err != nil {
			t.Fatal(err)
		}
		want.Close()
	}
}

// TestOpenStreamWorkersErrors keeps the descriptive failure modes of the
// serial reader: corrupt chunk data, a missing footer, and a
// contradicting footer each surface through the decode workers with the
// very message the serial reader gives.
func TestOpenStreamWorkersErrors(t *testing.T) {
	buf, _ := writeColumnar(t, streamCfg(200, 50), 1)
	raw := buf.Bytes()
	small, _ := writeColumnar(t, streamCfg(100, 50), 1)
	garbage := append([]byte(nil), raw...)
	garbage[len(garbage)/2] ^= 0x5a
	for _, tc := range []struct {
		name string
		raw  []byte
		want string
	}{
		{"garbage", garbage, "columnar corpus"},
		{"truncated", raw[:len(raw)-13], "truncated"},
		{"footer", spliceFooter(raw, small.Bytes()), "footer mismatch"},
	} {
		serial := replayErr(tc.raw, 1)
		if serial == nil || serial == io.EOF || !strings.Contains(serial.Error(), tc.want) {
			t.Fatalf("%s: serial reader returned %v, want an error naming %q", tc.name, serial, tc.want)
		}
		if got := replayErr(tc.raw, 4); got == nil || got.Error() != serial.Error() {
			t.Errorf("%s: decode workers returned %v, serial reader %v", tc.name, got, serial)
		}
	}
}

// closedPipe accepts n writes, then fails every write, like a closed
// pipe downstream of `corpus dump | head -2`.
type closedPipe struct{ n int }

var errBrokenPipe = errors.New("injected: broken pipe")

func (p *closedPipe) Write(b []byte) (int, error) {
	if p.n == 0 {
		return 0, errBrokenPipe
	}
	p.n--
	return len(b), nil
}

// TestStreamReaderCloseEarly abandons a worker-backed replay mid-file,
// the way a dump into a closed pipe does: Dump must return the write
// error, and Close must release the decode goroutines without hanging.
func TestStreamReaderCloseEarly(t *testing.T) {
	buf, _ := writeColumnar(t, streamCfg(400, 50), 2)
	cr, err := OpenCorpusProjected(bytes.NewReader(buf.Bytes()), 4, EverythingProjection())
	if err != nil {
		t.Fatal(err)
	}
	// Dump writes one line per Write: the header and chunk 0 go through.
	if err := Dump(&closedPipe{n: 2}, cr); !errors.Is(err, errBrokenPipe) {
		t.Fatalf("Dump into a failing writer returned %v, want the write error", err)
	}
	if err := cr.Close(); err != nil {
		t.Fatal(err)
	}
	cr.Close() // idempotent
}
