package checkpoint

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"throughputlab/internal/export"
	"throughputlab/internal/platform"
	"throughputlab/internal/stats"
)

// The overhead pair runs its own campaign, sized so each leg takes a
// few hundred milliseconds even at small scale: at a 500-test campaign
// (~11 ms a leg) timer and scheduler noise alone moved the ratio by
// more than the budget. The eight chunks give one mid-campaign
// durability barrier plus publication at the default cadence. Host
// contention moves a leg's wall time by ~12% (CV) on a shared 2-vCPU
// host, which gave the median of 11 ratios a ~4.5% standard error; 44
// rounds (~20–25 s) halve it.
const (
	overheadTests  = 30000
	overheadChunks = 8
	overheadRounds = 44
	// overheadBound is the durability budget: checkpointing may cost at
	// most 3% over the plain writer.
	overheadBound = 1.03
)

// BenchmarkCheckpointOverhead compares persisting one streamed campaign
// through a plain corpus writer against the crash-safe Writer —
// partial-file indirection, chunk-boundary encode-pipeline drains,
// fsync and atomic manifest rewrites, then the rename publication — on
// the same warm world. The corpus bytes are identical, so the ratio is
// the durability tax. Rounds alternate which leg runs first and start
// each leg from a fresh GC cycle, so neither leg systematically pays
// for the other's garbage or runs on a warmer cache. The gate is the
// median of the per-round checkpoint/plain ratios: pairing each round
// cancels the host-load drift that moves both legs together, which a
// ratio of two independent medians does not.
//
//	go test -run=NONE -bench=CheckpointOverhead -benchtime=1x ./internal/checkpoint
func BenchmarkCheckpointOverhead(b *testing.B) {
	cfg := platform.DefaultCollect()
	cfg.Tests = overheadTests
	cfg.ChunkTests = overheadTests / overheadChunks
	workers := runtime.GOMAXPROCS(0)
	ctx := context.Background()
	pub := export.FromWorld(world, nil).Public
	meta, fp := testMeta(cfg), testFingerprint(cfg)
	dir := b.TempDir()

	plain := func() (time.Duration, error) {
		f, err := os.Create(filepath.Join(dir, "plain.corpus"))
		if err != nil {
			return 0, err
		}
		cw, err := export.NewColumnarWriter(f, pub, meta, workers)
		if err != nil {
			f.Close()
			return 0, err
		}
		start := time.Now()
		_, err = platform.CollectStreamCtx(ctx, world, cfg, workers, cw.WriteChunk)
		if err == nil {
			err = cw.Close()
		}
		if cErr := f.Close(); err == nil {
			err = cErr
		}
		return time.Since(start), err
	}
	checkpointed := func() (time.Duration, error) {
		path := filepath.Join(dir, "ckpt.corpus")
		// Free the previous round's corpus before the clock starts, as
		// the plain leg's truncating Create does; otherwise the
		// publishing rename pays for unlinking it inside the timed leg.
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		cw, err := Create(path, "columnar", pub, meta, fp, workers, Options{})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		_, err = platform.CollectStreamCtx(ctx, world, cfg, workers, cw.WriteChunk)
		if err == nil {
			err = cw.Close()
		} else {
			cw.Discard()
		}
		return time.Since(start), err
	}

	legs := [2]func() (time.Duration, error){plain, checkpointed}
	var plains, ckpts, ratios []float64
	for n := 0; n < b.N; n++ {
		for round := 0; round < overheadRounds; round++ {
			var secs [2]float64
			for k := range legs {
				leg := (round + k) % 2
				runtime.GC()
				d, err := legs[leg]()
				if err != nil {
					b.Fatal(err)
				}
				secs[leg] = d.Seconds()
			}
			plains = append(plains, secs[0])
			ckpts = append(ckpts, secs[1])
			ratios = append(ratios, secs[1]/secs[0])
		}
	}
	ratio := stats.Median(ratios)
	b.ReportMetric(stats.Median(plains), "plain-s")
	b.ReportMetric(stats.Median(ckpts), "checkpoint-s")
	b.ReportMetric(ratio, "checkpoint/plain")
	if ratio > overheadBound {
		b.Fatalf("checkpoint/plain = %.4f over %d paired rounds, want <= %.2f", ratio, len(ratios), overheadBound)
	}
}
