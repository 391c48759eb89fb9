package export

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"throughputlab/internal/platform"
)

// FuzzColumnarDecode throws arbitrary bytes at the streaming reader.
// The decoder's contract under hostile input is: a descriptive error,
// never a panic, and never an allocation proportional to a length
// field the payload cannot back (truncated stripes, corrupted
// checksums, oversized varints, and footer/index mismatches all land
// here). Valid prefixes come from a real campaign so the fuzzer starts
// deep inside the frame grammar rather than at the magic check.
func FuzzColumnarDecode(f *testing.F) {
	buf, _ := writeColumnar(f, streamCfg(60, 20), 1)
	raw := buf.Bytes()
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

// FuzzRead throws arbitrary bytes at Read, the front door cmd/mapit and
// cmd/bdrmap open their input through: it must classify (single-blob
// dataset or columnar corpus) or reject with an error, never panic, and
// a tputlab-corpus/1 text stream must always be refused by name.
func FuzzRead(f *testing.F) {
	// Seeds stay small (an empty public bundle) so mutation is cheap; the
	// committed corpus adds a single-blob dataset and a bare text header.
	var col bytes.Buffer
	cw, err := NewColumnarWriter(&col, Public{}, StreamMeta{Scale: "small", Seed: 1, Tests: 60}, 1)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := platform.CollectStream(world, streamCfg(60, 20), 1, cw.WriteChunk); err != nil {
		f.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(col.Bytes())
	cr, err := OpenCorpusProjected(bytes.NewReader(col.Bytes()), 1, EverythingProjection())
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
