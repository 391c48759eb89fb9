package export

import (
	"encoding/json"
	"io"
)

// StreamFormat names the text form Dump prints: the corpus as NDJSON,
// one JSON object per line, for jq and other line-oriented tools.
//
//	{"format":"tputlab-corpus/1", "public":{...}, "meta":{...}}   header
//	{"chunk":0, "watermark":…, "tests":[…], "traces":[…], …}      chunk ×N
//	{"footer":true, "chunks":N, "tests":…, …}                      footer
//
// It is an output only: the reader refuses it, naming the format.
const StreamFormat = "tputlab-corpus/1"

// Dump prints a corpus as the StreamFormat NDJSON stream. The footer
// line is printed only after the reader has cross-checked the whole
// corpus, so a truncated or corrupt corpus prints no footer and Dump
// returns the reader's error. The caller owns (and closes) cr.
func Dump(w io.Writer, cr CorpusReader) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(streamHeader{Format: StreamFormat, Public: *cr.Public(), Meta: cr.Meta()}); err != nil {
		return err
	}
	for {
		c, err := cr.Next()
		if err == io.EOF {
			return enc.Encode(cr.Footer())
		}
		if err != nil {
			return err
		}
		if err := enc.Encode(c); err != nil {
			return err
		}
	}
}
