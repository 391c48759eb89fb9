package platform

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"throughputlab/internal/ndt"
	"throughputlab/internal/obs"
	"throughputlab/internal/topogen"
	"throughputlab/internal/traceroute"
)

// collectViaStream materializes a streamed campaign through a plain
// appending sink, returning the corpus plus the stream stats.
func collectViaStream(t *testing.T, cfg CollectConfig, workers int) (*Corpus, *StreamStats) {
	t.Helper()
	corpus := &Corpus{}
	lastID := -1
	lastWatermark := -1
	st, err := CollectStreamCtx(context.Background(), world(), cfg, workers, func(c *Chunk) error {
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
	batch, err := collect(world(), base, 1)
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
	batch, err := collect(world(), base, 1)
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
		_, err := CollectStreamCtx(context.Background(), world(), cfg, workers, func(c *Chunk) error {
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

// chunksOf collects every chunk a collection entry point publishes.
func chunksOf(t *testing.T, collect func(context.Context, *topogen.World, CollectConfig, int, func(*Chunk) error) (*StreamStats, error),
	cfg CollectConfig, workers int) []*Chunk {
	t.Helper()
	var out []*Chunk
	if _, err := collect(context.Background(), world(), cfg, workers, func(c *Chunk) error {
		out = append(out, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCollectTimingMatchesStream holds the launch-plan path to the full
// one: chunk for chunk, the same FirstID, Watermark, TestsWithoutTrace
// and completeness ledger (less DegradedTraces, which needs hops), and
// records in the same order that equal the full records projected to
// the fields the timing path carries — and carry nothing else.
func TestCollectTimingMatchesStream(t *testing.T) {
	for name, base := range map[string]CollectConfig{"clean": smallCollect(), "heavy": heavyCollect()} {
		cfg := base
		cfg.ChunkTests = 97
		full := chunksOf(t, CollectStreamCtx, cfg, 2)
		timing := chunksOf(t, CollectTimingCtx, cfg, 2)
		if len(full) != len(timing) {
			t.Fatalf("%s: %d timing chunks, want %d", name, len(timing), len(full))
		}
		var ledger Completeness
		for k, f := range full {
			g := timing[k]
			if g.Index != f.Index || g.FirstID != f.FirstID || g.Watermark != f.Watermark ||
				g.TestsWithoutTrace != f.TestsWithoutTrace {
				t.Fatalf("%s chunk %d: timing (index %d, first %d, watermark %d, no-trace %d), full (%d, %d, %d, %d)",
					name, k, g.Index, g.FirstID, g.Watermark, g.TestsWithoutTrace,
					f.Index, f.FirstID, f.Watermark, f.TestsWithoutTrace)
			}
			ledger.Merge(f.Completeness)
			want := f.Completeness
			want.DegradedTraces = 0
			if g.Completeness != want {
				t.Fatalf("%s chunk %d: completeness %+v, want %+v", name, k, g.Completeness, want)
			}
			if len(g.Tests) != len(f.Tests) || len(g.Traces) != len(f.Traces) {
				t.Fatalf("%s chunk %d: %d/%d records, want %d/%d",
					name, k, len(g.Tests), len(g.Traces), len(f.Tests), len(f.Traces))
			}
			for i, ft := range f.Tests {
				want := &ndt.Test{ID: ft.ID, ClientAddr: ft.ClientAddr, ServerAddr: ft.ServerAddr,
					StartMinute: ft.StartMinute, FlowEntropy: ft.FlowEntropy, Truncated: ft.Truncated}
				if !reflect.DeepEqual(g.Tests[i], want) {
					t.Fatalf("%s chunk %d test %d: %+v, want %+v", name, k, i, g.Tests[i], want)
				}
			}
			for i, ft := range f.Traces {
				want := &traceroute.Trace{SrcAddr: ft.SrcAddr, DstAddr: ft.DstAddr,
					LaunchMinute: ft.LaunchMinute, FlowEntropy: ft.FlowEntropy}
				if !reflect.DeepEqual(g.Traces[i], want) {
					t.Fatalf("%s chunk %d trace %d: %+v, want %+v", name, k, i, g.Traces[i], want)
				}
			}
		}
		if name == "heavy" && (ledger.AbandonedTests == 0 || ledger.DroppedRows == 0 ||
			ledger.TruncatedTests == 0 || ledger.DegradedTraces == 0) {
			t.Errorf("heavy profile left part of the ledger unexercised: %+v", ledger)
		}
	}
}
