// Chunked corpus access: a campaign persists while it collects and a
// report replays it in bounded memory, one chunk at a time. The header
// carries everything inference needs before any record (public lookups,
// campaign metadata); chunks arrive in collection order with their
// scheduling watermark, so core.StreamMatcher can consume them
// directly; the footer totals double as a truncation check — a crash
// mid-campaign leaves a file the reader refuses. The on-disk encoding
// is the columnar format of columnar.go.
package export

import (
	"fmt"
	"io"

	"throughputlab/internal/ndt"
	"throughputlab/internal/platform"
	"throughputlab/internal/traceroute"
)

// StreamMeta describes the campaign a corpus holds.
type StreamMeta struct {
	// Scale is the profile name the campaign ran under (e.g. "large").
	Scale string `json:"scale,omitempty"`
	// Seed is the campaign seed.
	Seed int64 `json:"seed"`
	// Tests is the scheduled test count.
	Tests int `json:"tests"`
}

// streamHeader is the corpus identity: the columnar header frame's JSON
// payload, and the header line Dump prints. Format stays first so the
// printed header opens with the format name.
type streamHeader struct {
	Format string     `json:"format"`
	Public Public     `json:"public"`
	Meta   StreamMeta `json:"meta"`
}

// StreamChunk is one persisted collection chunk.
type StreamChunk struct {
	Chunk             int                   `json:"chunk"`
	Watermark         int                   `json:"watermark"`
	Tests             []*ndt.Test           `json:"tests,omitempty"`
	Traces            []*traceroute.Trace   `json:"traces,omitempty"`
	TestsWithoutTrace int                   `json:"tests_without_trace,omitempty"`
	Completeness      platform.Completeness `json:"completeness,omitzero"`
}

// StreamFooter closes a corpus with campaign totals.
type StreamFooter struct {
	Footer            bool                  `json:"footer"`
	Chunks            int                   `json:"chunks"`
	Tests             int                   `json:"tests"`
	Traces            int                   `json:"traces"`
	TestsWithoutTrace int                   `json:"tests_without_trace"`
	Completeness      platform.Completeness `json:"completeness,omitzero"`
}

// CheckFormat accepts the corpus-format names a caller may pass:
// "columnar", or empty for the default. There is one on-disk format;
// any other name is refused with a pointer to the text printer.
func CheckFormat(name string) error {
	if name == "" || name == "columnar" {
		return nil
	}
	return fmt.Errorf("corpus format %q is not supported: the only corpus format is columnar (%s); 'tputlab corpus dump FILE' prints a corpus as the %s text stream",
		name, ColumnarFormat, StreamFormat)
}

// CorpusReader replays a persisted corpus chunk by chunk.
type CorpusReader interface {
	Public() *Public
	Meta() StreamMeta
	Next() (*StreamChunk, error)
	Footer() *StreamFooter
	Close() error
}

// OpenCorpusProjected opens a persisted corpus for a chunk-by-chunk
// replay, decoding chunks on workers goroutines and only the column
// families proj selects. It is the one corpus reader: `report -corpus`
// and `corpus mapit|bdrmap` (through internal/campaign's replay) and
// `corpus dump` all open their input here, with EverythingProjection;
// only perfbench/trace, the benchmark's serial mirror that ROADMAP
// item 1 deletes, reads traces alone. Call Close when abandoning the
// reader before io.EOF.
func OpenCorpusProjected(r io.Reader, workers int, proj Projection) (CorpusReader, error) {
	cr, err := openColumnar(r, workers, proj)
	if err != nil {
		return nil, err
	}
	return cr, nil
}
