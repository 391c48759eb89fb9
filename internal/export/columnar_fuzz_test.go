package export

import (
	"bytes"
	"io"
	"runtime/metrics"
	"strings"
	"testing"
)

// emptyCorpus writes a valid columnar corpus with no chunks, a world-
// free fuzz seed. Fuzz seeds stay small: the fuzz engine minimizes
// every input that finds new coverage, and its minimizer is quadratic
// in the input's length, so mutants of a corpus carrying even one chunk
// frame (~600 bytes) park both workers in minimization for a whole
// 20 s run. Chunk payloads sit behind a CRC the fuzzer cannot forge
// here; FuzzChunkPayload frames them itself.
func emptyCorpus(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cw, err := NewColumnarWriter(&buf, Public{}, StreamMeta{Scale: "small", Seed: 1}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzColumnarDecode throws arbitrary bytes at the streaming reader.
// The decoder's contract under hostile input is: a descriptive error,
// never a panic, and never an allocation proportional to a length
// field the payload cannot back (truncated stripes, corrupted
// checksums, oversized varints, and footer/index mismatches all land
// here). The seeds are a valid empty corpus, its prefixes and a
// corrupted copy, plus the committed files.
func FuzzColumnarDecode(f *testing.F) {
	raw := emptyCorpus(f)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:len(raw)-5])
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/3] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte(columnarMagic))
	f.Add([]byte(columnarMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff")) // oversized header varint
	f.Add([]byte(v1Prefix))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, workers := range []int{1, 2} {
			for _, proj := range []Projection{EverythingProjection(), {Traces: true}} {
				cr, err := OpenCorpusProjected(bytes.NewReader(data), workers, proj)
				if err != nil {
					continue
				}
				for {
					if _, err := cr.Next(); err != nil {
						break
					}
				}
				cr.Close()
			}
		}
	})
}

// stripeTriples writes stripes in FuzzChunkPayload's input shape.
func stripeTriples(tests, traces byte, stripes []rawStripe) []byte {
	b := []byte{tests, traces}
	for _, s := range stripes {
		b = append(append(b, byte(s.field), s.enc, byte(len(s.body))), s.body...)
	}
	return b
}

// FuzzChunkPayload fuzzes the chunk decoder behind valid checksums,
// which FuzzColumnarDecode's mutants almost never carry. The input is
// two row counts (mod 4) and then (field, encoding, length, body) byte
// triples; each becomes one stripe, framed with its CRC behind a valid
// preamble. The decoder must return a chunk or an error, never panic,
// and allocate no more than a small multiple of the payload. Seeds are
// a valid empty chunk and a valid one-row chunk, kept small for the
// minimizer (see emptyCorpus).
func FuzzChunkPayload(f *testing.F) {
	var empty []rawStripe
	for _, s := range validStripes(f) {
		// The zero-row column bodies: dictionaries keep their empty
		// table, everything else is empty.
		var body []byte
		if s.enc == encDict {
			body = []byte{0}
		}
		empty = append(empty, rawStripe{s.field, s.enc, body})
	}
	f.Add(stripeTriples(0, 0, empty))
	f.Add(stripeTriples(1, 1, validStripes(f)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var stripes []rawStripe
		for rest := data[2:]; len(rest) >= 3; {
			n := min(int(rest[2]), len(rest)-3)
			stripes = append(stripes, rawStripe{uint64(rest[0]), rest[1], rest[3 : 3+n]})
			rest = rest[3+n:]
		}
		payload := chunkPayload(int(data[0]%4), int(data[1]%4), stripes)
		// The allocation counter moves a span at a time, hence the slack.
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		for _, proj := range []Projection{EverythingProjection(), {Traces: true}} {
			metrics.Read(allocs)
			before := allocs[0].Value.Uint64()
			decodeChunkPayload(payload, proj)
			metrics.Read(allocs)
			if got, limit := allocs[0].Value.Uint64()-before, uint64(64*len(payload)+1<<20); got > limit {
				t.Fatalf("decoding a %d-byte payload allocated %d bytes (limit %d)", len(payload), got, limit)
			}
		}
	})
}

// FuzzRead throws arbitrary bytes at Read, the front door cmd/mapit and
// cmd/bdrmap open their input through: it must decode a columnar corpus
// or reject with an error, never panic. Input without the columnar
// magic — the committed single-blob dataset seeds included — is always
// refused, and a tputlab-corpus/1 text stream is refused by name.
func FuzzRead(f *testing.F) {
	// The committed seeds add single-blob datasets and a bare text
	// header; here, an empty columnar corpus and its text dump.
	col := emptyCorpus(f)
	f.Add(col)
	cr, err := OpenCorpusProjected(bytes.NewReader(col), 1, EverythingProjection())
	if err != nil {
		f.Fatal(err)
	}
	var text bytes.Buffer
	if err := Dump(&text, cr); err != nil {
		f.Fatal(err)
	}
	f.Add(text.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := Read(bytes.NewReader(data))
		if !bytes.HasPrefix(data, []byte(columnarMagic)) && err == nil {
			t.Fatalf("Read accepted %d bytes without the columnar magic", len(data))
		}
		if bytes.HasPrefix(data, []byte(v1Prefix)) && (err == nil || !strings.Contains(err.Error(), StreamFormat)) {
			t.Fatalf("Read of a %s stream returned %v, want an error naming the format", StreamFormat, err)
		}
	})
}

// TestColumnarFuzzRegression replays a handful of shapes the fuzz
// target is designed around, so the invariants hold even in -short
// runs that never invoke the fuzzer.
func TestColumnarFuzzRegression(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("tputcol"),
		[]byte(columnarMagic),
		[]byte(columnarMagic + "\x00"),
		// Header frame with a length varint far beyond the file.
		[]byte(columnarMagic + "\xff\xff\xff\x7f"),
		// 10-byte varint with a continuation bit in every byte: oversized.
		[]byte(columnarMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
		// Chunk frame claiming a huge payload after a valid header is
		// covered by TestColumnarTruncated; here, a bare unknown frame.
		[]byte(columnarMagic + "\x03{}\x00\x00\x00\x00\x7f"),
	}
	for i, data := range cases {
		cr, err := openCorpus(data, 1)
		if err != nil {
			continue
		}
		for {
			_, err = cr.Next()
			if err != nil {
				break
			}
		}
		if err == io.EOF || err == nil {
			t.Errorf("case %d: malformed input read to completion", i)
		}
	}
}
