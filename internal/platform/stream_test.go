package platform

import (
	"context"
	"errors"
	"testing"

	"throughputlab/internal/obs"
)

// collectViaStream materializes a streamed campaign through a plain
// appending sink, returning the corpus plus the stream stats.
func collectViaStream(t *testing.T, cfg CollectConfig, workers int) (*Corpus, *StreamStats) {
	t.Helper()
	corpus := &Corpus{}
	lastID := -1
	lastWatermark := -1
	st, err := CollectStreamCtx(context.Background(), world, cfg, workers, func(c *Chunk) error {
		if c.FirstID <= lastID {
			t.Errorf("chunk %d FirstID %d not after previous id %d", c.Index, c.FirstID, lastID)
		}
		if c.Watermark < lastWatermark {
			t.Errorf("chunk %d watermark %d below previous %d", c.Index, c.Watermark, lastWatermark)
		}
		lastID = c.FirstID
		lastWatermark = c.Watermark
		corpus.Tests = append(corpus.Tests, c.Tests...)
		corpus.Traces = append(corpus.Traces, c.Traces...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus.TestsWithoutTrace = st.TestsWithoutTrace
	corpus.Completeness = st.Completeness
	return corpus, st
}

// TestCollectStreamMatchesBatch pins the tentpole determinism claim:
// streamed collection concatenates to the byte-identical batch corpus
// at workers 1/2/8 and at chunk sizes from pathological (1) through
// larger than the campaign.
func TestCollectStreamMatchesBatch(t *testing.T) {
	base := smallCollect()
	batch, err := collect(world, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := corpusHash(batch)
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{0, 1, 97, 100000} {
			cfg := base
			cfg.ChunkTests = chunk
			c, st := collectViaStream(t, cfg, workers)
			if got := corpusHash(c); got != want {
				t.Errorf("streamed corpus (workers=%d chunk=%d) hash %#x, want batch %#x",
					workers, chunk, got, want)
			}
			if st.Tests != len(batch.Tests) || st.Traces != len(batch.Traces) {
				t.Errorf("stream stats %d/%d records, want %d/%d",
					st.Tests, st.Traces, len(batch.Tests), len(batch.Traces))
			}
			if st.TestsWithoutTrace != batch.TestsWithoutTrace {
				t.Errorf("streamed TestsWithoutTrace %d, want %d", st.TestsWithoutTrace, batch.TestsWithoutTrace)
			}
			wantChunks := (len(batch.Tests) + effectiveChunk(chunk) - 1) / effectiveChunk(chunk)
			if st.Chunks != wantChunks {
				t.Errorf("chunk=%d produced %d chunks, want %d", chunk, st.Chunks, wantChunks)
			}
			if st.PeakInFlight > effectiveChunk(chunk) {
				t.Errorf("peak in-flight %d exceeds chunk size %d", st.PeakInFlight, effectiveChunk(chunk))
			}
		}
	}
}

func effectiveChunk(chunk int) int {
	if chunk <= 0 {
		return DefaultChunkTests
	}
	return chunk
}

// TestCollectStreamMatchesBatchUnderFaults extends parity to the fault
// plane: per-chunk completeness deltas must sum to the batch ledger and
// the surviving records must hash identically.
func TestCollectStreamMatchesBatchUnderFaults(t *testing.T) {
	base := heavyCollect()
	batch, err := collect(world, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := faultedCorpusHash(batch)
	for _, workers := range []int{1, 2, 8} {
		cfg := base
		cfg.ChunkTests = 128
		c, _ := collectViaStream(t, cfg, workers)
		if got := faultedCorpusHash(c); got != want {
			t.Errorf("faulted streamed corpus (workers=%d) hash %#x, want %#x", workers, got, want)
		}
		if c.Completeness != batch.Completeness {
			t.Errorf("merged completeness %+v, want %+v", c.Completeness, batch.Completeness)
		}
	}
}

// TestCollectStreamObsGauges checks the streaming metrics land in the
// registry without disturbing the existing collection metrics.
func TestCollectStreamObsGauges(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := smallCollect()
	cfg.ChunkTests = 200
	cfg.Obs = reg
	_, st := collectViaStream(t, cfg, 4)
	if got := reg.Counter("collect.chunks").Value(); got != uint64(st.Chunks) {
		t.Errorf("collect.chunks = %d, want %d", got, st.Chunks)
	}
	if got := reg.Gauge("collect.stream.peak_inflight").Value(); got != int64(st.PeakInFlight) {
		t.Errorf("peak_inflight gauge = %d, want %d", got, st.PeakInFlight)
	}
	// The barrier bound: one chunk of scheduled tests is resident.
	if st.PeakInFlight != cfg.ChunkTests {
		t.Errorf("peak in-flight %d, want one chunk (%d)", st.PeakInFlight, cfg.ChunkTests)
	}
	if got := reg.Counter("collect.tests").Value(); got != uint64(st.Tests) {
		t.Errorf("collect.tests = %d, want %d", got, st.Tests)
	}
	if st.TestsPerSec <= 0 {
		t.Error("streamed tests/sec not recorded")
	}
}

// TestCollectStreamSinkError aborts the campaign on the first sink
// failure and surfaces the error: chunks reach the sink in index order,
// and none is delivered after the failing one.
func TestCollectStreamSinkError(t *testing.T) {
	boom := errors.New("disk full")
	cfg := smallCollect()
	cfg.ChunkTests = 100
	for _, workers := range []int{2, 8} {
		lastIndex := -1
		_, err := CollectStreamCtx(context.Background(), world, cfg, workers, func(c *Chunk) error {
			if c.Index != lastIndex+1 {
				t.Errorf("workers=%d: chunk %d delivered after %d (out of order)", workers, c.Index, lastIndex)
			}
			lastIndex = c.Index
			if c.Index == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: sink error not propagated: %v", workers, err)
		}
		if lastIndex != 2 {
			t.Errorf("workers=%d: delivery continued to chunk %d after the failure at 2", workers, lastIndex)
		}
	}
}
